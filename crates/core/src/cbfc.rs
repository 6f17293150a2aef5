//! Credit-Based Flow Control as used by InfiniBand (§2.2.2).
//!
//! Buffer space is accounted in 64-byte *blocks* (credits). The receiver
//! keeps an ABR register (Adjusted Blocks Received — all blocks received
//! since link initialization) and periodically advertises
//! `FCCL = ABR + free blocks` (Flow Control Credit Limit). The sender keeps
//! FCTBS (Flow Control Total Blocks Sent) and may transmit a packet only if
//! doing so keeps `FCTBS ≤ FCCL`. Because blocks in flight equal
//! `FCTBS − ABR`, the invariant guarantees arrivals never exceed free
//! buffer — zero loss.
//!
//! On the wire both registers are 12-bit wrapping counters; internally we
//! keep monotone `u64` values and reconstruct on decode
//! (see [`wrap12_advance`]); the simulator's FCP frame carries 16 bits
//! ([`wrap16_advance`]).

use crate::backend::{
    CtrlOutcome, CtrlPayload, FcRx, FcTx, QueueCtx, SchemeMismatch, Sense, TxHead,
};
use crate::units::Time;

/// InfiniBand credit granularity: one credit = 64 bytes.
pub const BLOCK_BYTES: u64 = 64;

/// Number of 64-byte blocks a packet of `bytes` occupies (rounded up).
pub fn blocks_for(bytes: u64) -> u64 {
    bytes.div_ceil(BLOCK_BYTES)
}

/// Reconstruct a monotone counter from a `bits`-wide wrapping wire
/// encoding.
///
/// Given the last reconstructed value `prev` and a newly received wrapped
/// value `wire`, returns the smallest value `v ≥ prev` with
/// `v ≡ wire (mod 2^bits)`. Exact as long as the counter advances by less
/// than `2^bits` between consecutive messages.
pub fn wrap_advance(prev: u64, wire: u64, bits: u32) -> u64 {
    assert!((1..64).contains(&bits));
    let modulus = 1u64 << bits;
    debug_assert!(wire < modulus, "wrapped field out of range");
    let base = prev & !(modulus - 1);
    let candidate = base | wire;
    if candidate >= prev {
        candidate
    } else {
        candidate + modulus
    }
}

/// The InfiniBand spec's 12-bit reconstruction (see [`wrap_advance`]).
/// Exact while fewer than 4096 blocks (256 KB) move between messages.
pub fn wrap12_advance(prev: u64, wire: u16) -> u64 {
    wrap_advance(prev, wire as u64, 12)
}

/// The 16-bit reconstruction used by this repo's FCP codec, which widens
/// the credit fields so MB-scale buffers (the paper's testbed uses 1 MB,
/// i.e. 16384 blocks) stay representable. Exact while fewer than 65536
/// blocks (4 MB) move between messages.
pub fn wrap16_advance(prev: u64, wire: u16) -> u64 {
    wrap_advance(prev, wire as u64, 16)
}

/// Receiver side: tracks arrivals/drains for one virtual lane and produces
/// the FCCL to advertise.
#[derive(Debug, Clone)]
pub struct CbfcReceiver {
    /// Buffer allocated to this VL, in bytes.
    buffer_bytes: u64,
    /// Largest frame the fabric carries, for the hard-assert sense
    /// classification.
    mtu: u64,
    /// Total buffer allocated to this VL, in blocks.
    buffer_blocks: u64,
    /// Adjusted Blocks Received: all blocks received since link init.
    abr: u64,
    /// Blocks currently held in the buffer (received − drained).
    occupied_blocks: u64,
    /// Feedback messages generated (overhead accounting).
    messages_sent: u64,
}

impl CbfcReceiver {
    /// New receiver for a buffer of `buffer_bytes` (credited in whole
    /// blocks, rounded down) carrying frames of at most `mtu` bytes.
    pub fn new(buffer_bytes: u64, mtu: u64) -> Self {
        let buffer_blocks = buffer_bytes / BLOCK_BYTES;
        assert!(buffer_blocks > 0, "buffer smaller than one credit block");
        CbfcReceiver {
            buffer_bytes,
            mtu,
            buffer_blocks,
            abr: 0,
            occupied_blocks: 0,
            messages_sent: 0,
        }
    }

    /// Account an arrived packet.
    ///
    /// Note: because every packet rounds *up* to whole blocks, the block
    /// occupancy of a byte-full buffer can nominally exceed
    /// `buffer_blocks` (e.g. 1500 B packets consume 24 blocks = 1536 B of
    /// credit each). Byte-level admission is the transport's
    /// responsibility; credit accounting here just saturates.
    pub fn on_packet_received(&mut self, bytes: u64) {
        let b = blocks_for(bytes);
        self.abr += b;
        self.occupied_blocks += b;
    }

    /// Account a packet leaving the buffer (forwarded downstream).
    pub fn on_packet_drained(&mut self, bytes: u64) {
        let b = blocks_for(bytes);
        assert!(self.occupied_blocks >= b, "drained more than received");
        self.occupied_blocks -= b;
    }

    /// Current FCCL: `ABR + free blocks` (free saturates at zero under
    /// block-rounding inflation; see [`Self::on_packet_received`]).
    pub fn fccl(&self) -> u64 {
        self.abr + self.buffer_blocks.saturating_sub(self.occupied_blocks)
    }

    /// Produce the FCCL for a periodic feedback message and count it.
    pub fn make_feedback(&mut self) -> u64 {
        self.messages_sent += 1;
        self.fccl()
    }

    /// Blocks currently occupied.
    pub fn occupied_blocks(&self) -> u64 {
        self.occupied_blocks
    }
}

impl FcRx for CbfcReceiver {
    fn scheme(&self) -> &'static str {
        "CBFC"
    }
    fn on_arrival(&mut self, ctx: &QueueCtx, _out: &mut Vec<CtrlPayload>) {
        self.on_packet_received(ctx.pkt_bytes); // feedback is periodic
    }
    fn on_drain(&mut self, ctx: &QueueCtx, _out: &mut Vec<CtrlPayload>) {
        self.on_packet_drained(ctx.pkt_bytes);
    }
    fn periodic(&mut self) -> Option<CtrlPayload> {
        Some(CtrlPayload::FcclWire((self.make_feedback() & 0xFFFF) as u16))
    }
    fn on_host_delivery(&mut self, bytes: u64) {
        self.on_packet_received(bytes);
        self.on_packet_drained(bytes);
    }
    fn sense(&self, payload: &CtrlPayload, ing_bytes: u64) -> Sense {
        match payload {
            // The upstream stops once the advertised window no longer
            // admits a full frame — a hard assert.
            CtrlPayload::FcclWire(_) if ing_bytes + self.mtu > self.buffer_bytes => {
                Sense::AssertHard
            }
            _ => Sense::Clear,
        }
    }
    fn messages_sent(&self) -> u64 {
        self.messages_sent
    }
}

/// Sender side: gates transmission on available credits.
#[derive(Debug, Clone)]
pub struct CbfcSender {
    /// Flow Control Total Blocks Sent.
    fctbs: u64,
    /// Last advertised credit limit.
    fccl: u64,
    /// Times the sender transitioned from "may send" to "out of credits" —
    /// each is a hold-and-wait episode.
    starvations: u64,
    /// Whether the previous `can_send` query failed (edge detection).
    was_blocked: bool,
}

impl CbfcSender {
    /// New sender with an initial credit advertisement (typically the full
    /// buffer, learned during link init).
    pub fn new(initial_fccl: u64) -> Self {
        CbfcSender { fctbs: 0, fccl: initial_fccl, starvations: 0, was_blocked: false }
    }

    /// Available credits right now, in blocks.
    pub fn available_credits(&self) -> u64 {
        self.fccl.saturating_sub(self.fctbs)
    }

    /// Non-mutating credit check (no starvation accounting) — used by
    /// observers such as wait-for-graph deadlock detectors.
    pub fn would_allow(&self, bytes: u64) -> bool {
        blocks_for(bytes) <= self.available_credits()
    }

    /// Whether a packet of `bytes` may be transmitted.
    pub fn can_send(&mut self, bytes: u64) -> bool {
        let ok = blocks_for(bytes) <= self.available_credits();
        if !ok && !self.was_blocked {
            self.starvations += 1;
        }
        self.was_blocked = !ok;
        ok
    }

    /// Account a transmitted packet. Panics if credits were insufficient —
    /// callers must check [`Self::can_send`] first (losslessness).
    pub fn on_packet_sent(&mut self, bytes: u64) {
        let b = blocks_for(bytes);
        assert!(b <= self.available_credits(), "sent without credits");
        self.fctbs += b;
    }

    /// Account a transmitted packet without the credit assertion — for
    /// rate-based users of the registers (time-based GFC, whose sender is
    /// not credit-gated; §5.2).
    pub fn on_packet_sent_unchecked(&mut self, bytes: u64) {
        self.fctbs += blocks_for(bytes);
    }

    /// Apply a received FCCL (already reconstructed to a monotone value).
    /// Stale/reordered updates (lower than current) are ignored.
    pub fn on_feedback(&mut self, fccl: u64) {
        if fccl > self.fccl {
            self.fccl = fccl;
            self.was_blocked = false;
        }
    }

    /// FCTBS register value.
    pub fn fctbs(&self) -> u64 {
        self.fctbs
    }

    /// Current credit limit.
    pub fn fccl(&self) -> u64 {
        self.fccl
    }

    /// Credit-starvation episodes observed so far.
    pub fn starvations(&self) -> u64 {
        self.starvations
    }
}

/// The credit gate. Sends are accounted with the credit assertion, so the
/// simulator must only send what [`FcTx::hard_open`] admitted.
impl FcTx for CbfcSender {
    fn scheme(&self) -> &'static str {
        "CBFC"
    }
    fn on_ctrl(&mut self, payload: CtrlPayload, _now: Time) -> Result<CtrlOutcome, SchemeMismatch> {
        match payload {
            CtrlPayload::FcclWire(w) => {
                // The 16-bit wire value reconstructs from the current
                // limit: the limit only ever moves to a reconstruction,
                // and reconstructions never decrease, so it is the last.
                self.on_feedback(wrap16_advance(self.fccl, w));
                Ok(CtrlOutcome::gate(true))
            }
            other => Err(SchemeMismatch::new(other, self.scheme())),
        }
    }
    fn hard_open(&mut self, head: &TxHead, _now: Time) -> bool {
        self.can_send(head.bytes)
    }
    fn hard_blocked(&self, head: &TxHead, _now: Time) -> bool {
        !self.would_allow(head.bytes)
    }
    fn on_sent(&mut self, head: &TxHead) {
        self.on_packet_sent(head.bytes);
    }
    fn hold_and_wait_episodes(&self) -> u64 {
        self.starvations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_rounding() {
        assert_eq!(blocks_for(1), 1);
        assert_eq!(blocks_for(64), 1);
        assert_eq!(blocks_for(65), 2);
        assert_eq!(blocks_for(1500), 24);
        assert_eq!(blocks_for(0), 0);
    }

    #[test]
    fn fccl_tracks_drain() {
        let mut rx = CbfcReceiver::new(64 * 100, 64); // 100 blocks
        assert_eq!(rx.fccl(), 100);
        rx.on_packet_received(640); // 10 blocks
        assert_eq!(rx.fccl(), 10 + 90);
        rx.on_packet_drained(640);
        assert_eq!(rx.fccl(), 10 + 100);
    }

    #[test]
    fn sender_respects_credit_limit() {
        let mut tx = CbfcSender::new(100);
        assert!(tx.can_send(64 * 100));
        tx.on_packet_sent(64 * 100);
        assert!(!tx.can_send(64));
        tx.on_feedback(150);
        assert!(tx.can_send(64 * 50));
        assert!(!tx.can_send(64 * 51));
    }

    #[test]
    fn lossless_invariant_end_to_end() {
        // Drive a sender/receiver pair with delayed feedback and check the
        // receiver buffer never overflows.
        let buf_blocks = 64u64;
        let mut rx = CbfcReceiver::new(buf_blocks * BLOCK_BYTES, 1500);
        let mut tx = CbfcSender::new(buf_blocks);
        let mut in_flight: Vec<u64> = Vec::new(); // packet sizes in transit
        for step in 0..10_000u64 {
            // Sender pushes 1500 B packets whenever credits allow.
            if tx.can_send(1500) {
                tx.on_packet_sent(1500);
                in_flight.push(1500);
            }
            // Every 3 steps one in-flight packet arrives.
            if step % 3 == 0 {
                if let Some(sz) = in_flight.pop() {
                    rx.on_packet_received(sz); // debug_assert checks overflow
                }
            }
            // Every 7 steps the receiver drains a packet and (rarely)
            // advertises.
            if step % 7 == 0 && rx.occupied_blocks() >= blocks_for(1500) {
                rx.on_packet_drained(1500);
            }
            if step % 11 == 0 {
                tx.on_feedback(rx.make_feedback());
            }
        }
    }

    #[test]
    fn stale_feedback_ignored() {
        let mut tx = CbfcSender::new(100);
        tx.on_feedback(50);
        assert_eq!(tx.fccl(), 100);
    }

    #[test]
    fn starvation_counts_edges() {
        let mut tx = CbfcSender::new(1);
        assert!(tx.can_send(64));
        tx.on_packet_sent(64);
        assert!(!tx.can_send(64));
        assert!(!tx.can_send(64)); // still the same episode
        assert_eq!(tx.starvations(), 1);
        tx.on_feedback(2);
        assert!(tx.can_send(64));
        tx.on_packet_sent(64);
        assert!(!tx.can_send(64));
        assert_eq!(tx.starvations(), 2);
    }

    #[test]
    #[should_panic(expected = "sent without credits")]
    fn overspend_panics() {
        let mut tx = CbfcSender::new(1);
        tx.on_packet_sent(1500);
    }

    #[test]
    fn wrap12_basics() {
        assert_eq!(wrap12_advance(0, 5), 5);
        assert_eq!(wrap12_advance(4090, 5), 4096 + 5);
        assert_eq!(wrap12_advance(4095, 4095), 4095);
        assert_eq!(wrap12_advance(5000, (5000 & 0xFFF) as u16), 5000);
    }

    #[test]
    fn wrap16_basics() {
        assert_eq!(wrap16_advance(0, 30_000), 30_000);
        assert_eq!(wrap16_advance(65_530, 5), 65_536 + 5);
        assert_eq!(wrap16_advance(100_000, (100_000 % 65_536) as u16), 100_000);
    }

    #[test]
    fn wrap12_long_run() {
        // Reconstruct a counter advancing by < 4096 per message.
        let mut truth = 0u64;
        let mut recon = 0u64;
        for step in 1..2000u64 {
            truth += (step * 37) % 1000;
            recon = wrap12_advance(recon, (truth & 0xFFF) as u16);
            assert_eq!(recon, truth, "diverged at step {step}");
        }
    }
}
