//! Time-based GFC (§5.2): the practical scheme for InfiniBand/CBFC fabrics.
//!
//! The Message Generator is CBFC's, unmodified: every period `T` it
//! advertises `FCCL = ABR + free blocks`. The Rate Adjuster computes the
//! remaining buffer `FCCL − FCTBS`, converts it to an effective queue
//! length `q = Bm − remaining`, maps it through the conceptual linear
//! function (parameterized per Theorem 5.1), and programs the Rate Limiter.
//!
//! The sender is purely rate-based (§5.2): as a backend it has no hard
//! gate, never calls [`GfcTimeSender::can_send`], and accounts every send
//! without the credit assertion. The mapped rate floors above zero (§7),
//! so a port keeps trickling even at zero reconstructed credit. The
//! credit-gated methods serve the unit tests' closed loops, which check
//! that such a gate would never engage under Theorem 5.1 parameters.

use crate::backend::{
    CtrlOutcome, CtrlPayload, FcRx, FcTx, QueueCtx, SchemeMismatch, Sense, TxHead,
};
use crate::cbfc::{wrap16_advance, CbfcReceiver, CbfcSender, BLOCK_BYTES};
use crate::mapping::LinearMapping;
use crate::units::{Rate, Time};

/// Receiver side of time-based GFC: exactly a CBFC receiver (the period
/// `T` lives in [`crate::fc_config::FcConfig::period`]), plus `B0` for
/// the sense classification.
#[derive(Debug, Clone)]
pub struct GfcTimeReceiver {
    inner: CbfcReceiver,
    /// `B0` of the mapping: occupancy beyond it starts the slowdown.
    b0: u64,
}

impl GfcTimeReceiver {
    /// New receiver over `buffer_bytes` carrying frames of at most `mtu`
    /// bytes, for a mapping starting at `b0`.
    pub fn new(buffer_bytes: u64, mtu: u64, b0: u64) -> Self {
        GfcTimeReceiver { inner: CbfcReceiver::new(buffer_bytes, mtu), b0 }
    }
}

impl FcRx for GfcTimeReceiver {
    fn scheme(&self) -> &'static str {
        "time-based GFC"
    }
    fn on_arrival(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        self.inner.on_arrival(ctx, out);
    }
    fn on_drain(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        self.inner.on_drain(ctx, out);
    }
    fn periodic(&mut self) -> Option<CtrlPayload> {
        self.inner.periodic()
    }
    fn on_host_delivery(&mut self, bytes: u64) {
        self.inner.on_host_delivery(bytes);
    }
    fn sense(&self, payload: &CtrlPayload, ing_bytes: u64) -> Sense {
        match payload {
            // Occupancy beyond B0 starts the gentle slowdown (the rate
            // floor keeps it soft).
            CtrlPayload::FcclWire(_) if ing_bytes > self.b0 => Sense::AssertSoft,
            _ => Sense::Clear,
        }
    }
    fn messages_sent(&self) -> u64 {
        self.inner.messages_sent()
    }
}

/// Sender side of time-based GFC: CBFC credit registers + linear Rate
/// Adjuster.
#[derive(Debug, Clone)]
pub struct GfcTimeSender {
    credits: CbfcSender,
    mapping: LinearMapping,
    rate: Rate,
}

impl GfcTimeSender {
    /// New sender. `initial_fccl` is the full-buffer credit limit learned
    /// at link init (in blocks); `mapping` must use the same `Bm` as the
    /// receiver buffer for the effective-queue reconstruction to be exact.
    pub fn new(initial_fccl: u64, mapping: LinearMapping) -> Self {
        let rate = mapping.capacity;
        GfcTimeSender { credits: CbfcSender::new(initial_fccl), mapping, rate }
    }

    /// Apply a periodic FCCL advertisement; returns the new rate for the
    /// Rate Limiter.
    pub fn on_feedback(&mut self, fccl: u64) -> Rate {
        self.credits.on_feedback(fccl);
        self.rate = self.mapping.rate_for_queue(self.effective_queue());
        self.rate
    }

    /// The effective downstream queue length reconstructed from credits:
    /// `Bm − (FCCL − FCTBS)·64`.
    pub fn effective_queue(&self) -> u64 {
        let remaining = self.credits.available_credits() * BLOCK_BYTES;
        self.mapping.bm.saturating_sub(remaining)
    }

    /// Whether a packet of `bytes` passes the credit gate (the unit
    /// tests' closed loops; as a backend the sender has no hard gate).
    pub fn can_send(&mut self, bytes: u64) -> bool {
        self.credits.can_send(bytes)
    }

    /// Non-mutating form of [`Self::can_send`] (no starvation accounting).
    pub fn would_allow(&self, bytes: u64) -> bool {
        self.credits.would_allow(bytes)
    }

    /// Account a transmitted packet (consumes credits and recomputes the
    /// mapped rate, since FCTBS moved).
    pub fn on_packet_sent(&mut self, bytes: u64) {
        self.credits.on_packet_sent(bytes);
        self.rate = self.mapping.rate_for_queue(self.effective_queue());
    }

    /// Account a transmitted packet without the credit assertion — the
    /// §5.2 sender is purely rate-based, so transmissions beyond the
    /// reconstructed credit limit are legitimate (the mapped rate floors
    /// at the limiter's minimum unit rather than stopping; §7).
    pub fn on_packet_sent_unchecked(&mut self, bytes: u64) {
        self.credits.on_packet_sent_unchecked(bytes);
        self.rate = self.mapping.rate_for_queue(self.effective_queue());
    }

    /// Currently assigned rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Times the hard credit gate engaged — must stay zero when Theorem 5.1
    /// parameters are respected.
    pub fn starvations(&self) -> u64 {
        self.credits.starvations()
    }

    /// The linear mapping in force.
    pub fn mapping(&self) -> LinearMapping {
        self.mapping
    }
}

impl FcTx for GfcTimeSender {
    fn scheme(&self) -> &'static str {
        "time-based GFC"
    }
    fn on_ctrl(&mut self, payload: CtrlPayload, _now: Time) -> Result<CtrlOutcome, SchemeMismatch> {
        match payload {
            CtrlPayload::FcclWire(w) => {
                // The credit limit is the last reconstruction, as in CBFC.
                let fccl = wrap16_advance(self.credits.fccl(), w);
                // §7: the limiter's minimum rate unit floors the mapping —
                // the input rate never reaches exactly zero, which is what
                // eliminates hold-and-wait.
                Ok(CtrlOutcome::rate(self.on_feedback(fccl).max(Rate(1))))
            }
            other => Err(SchemeMismatch::new(other, self.scheme())),
        }
    }
    fn hard_open(&mut self, _head: &TxHead, _now: Time) -> bool {
        true
    }
    fn hard_blocked(&self, _head: &TxHead, _now: Time) -> bool {
        false
    }
    fn on_sent(&mut self, head: &TxHead) {
        // FCTBS bookkeeping (the rate mapping depends on it).
        self.on_packet_sent_unchecked(head.bytes);
    }
    fn hold_and_wait_episodes(&self) -> u64 {
        self.starvations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorems::time_based_b0_bound;
    use crate::units::{kb, Dur};

    const C: Rate = Rate(10_000_000_000);

    /// The receiver's accountant (a CBFC receiver) and a sender.
    fn setup(buffer: u64, b0: u64) -> (CbfcReceiver, GfcTimeSender) {
        let rx = CbfcReceiver::new(buffer, 1500);
        let mapping = LinearMapping::new(b0, buffer, C);
        let tx = GfcTimeSender::new(buffer / BLOCK_BYTES, mapping);
        (rx, tx)
    }

    #[test]
    fn full_credits_mean_line_rate() {
        let (_, mut tx) = setup(kb(1024), kb(492));
        assert_eq!(tx.effective_queue(), 0);
        assert_eq!(tx.on_feedback(kb(1024) / BLOCK_BYTES), C);
    }

    #[test]
    fn sending_consumes_credits_and_rate_tracks() {
        let (_, mut tx) = setup(kb(1024), kb(492));
        // Send 600 KB without any feedback: effective queue = 600 KB,
        // which is above B0 = 492 KB → rate drops below line rate.
        for _ in 0..600 {
            assert!(tx.can_send(1024));
            tx.on_packet_sent(1024);
        }
        assert_eq!(tx.effective_queue(), kb(600));
        assert!(tx.rate() < C);
        let expected = LinearMapping::new(kb(492), kb(1024), C).rate_for_queue(kb(600));
        assert_eq!(tx.rate(), expected);
    }

    #[test]
    fn feedback_replenishes() {
        let (mut rx, mut tx) = setup(kb(1024), kb(492));
        for _ in 0..600 {
            tx.on_packet_sent(1024);
        }
        // All 600 packets arrive and drain at the receiver.
        for _ in 0..600 {
            rx.on_packet_received(1024);
            rx.on_packet_drained(1024);
        }
        let rate = tx.on_feedback(rx.make_feedback());
        assert_eq!(rate, C);
        assert_eq!(tx.effective_queue(), 0);
    }

    #[test]
    fn closed_loop_no_starvation_under_theorem_bound() {
        // Receiver drains at 5G; sender paced at the mapped rate with
        // feedback every T and applied after τ. The credit gate must never
        // engage and the queue must stabilize.
        let buffer = kb(1024);
        let tau = Dur::from_micros(90);
        let period = Dur::from_micros_f64(52.4);
        let b0 = time_based_b0_bound(buffer, C, tau, period).unwrap().min(kb(492));
        let (mut rx, mut tx) = setup(buffer, b0);

        let tick = Dur::from_micros(1);
        let drain = Rate::from_gbps(5);
        // Chunks queued at the receiver: drained in the same sizes they
        // arrived so block accounting stays consistent.
        let mut backlog: std::collections::VecDeque<u64> = Default::default();
        let mut t_ps = 0u64;
        let mut next_feedback = period.0;
        let mut pending: std::collections::VecDeque<(u64, u64)> = Default::default(); // (due, fccl)
        let mut carry_in = 0f64;
        let mut drain_budget = 0f64;
        for _ in 0..2_000_000u64 {
            t_ps += tick.0;
            // Sender transmits at its mapped rate (fluidized per tick).
            carry_in += tx.rate().0 as f64 * tick.0 as f64 / 8e12;
            let send = carry_in as u64;
            if send > 0 {
                assert!(tx.can_send(send), "credit gate engaged at t={t_ps}ps");
                tx.on_packet_sent(send);
                rx.on_packet_received(send);
                backlog.push_back(send);
                carry_in -= send as f64;
            }
            // Receiver drains whole arrived chunks.
            drain_budget += drain.0 as f64 * tick.0 as f64 / 8e12;
            while backlog.front().is_some_and(|&c| c as f64 <= drain_budget) {
                let c = backlog.pop_front().unwrap();
                rx.on_packet_drained(c);
                drain_budget -= c as f64;
            }
            if backlog.is_empty() {
                drain_budget = 0.0; // an idle drain accrues no budget
            }
            if t_ps >= next_feedback {
                next_feedback += period.0;
                pending.push_back((t_ps + tau.0, rx.make_feedback()));
            }
            while pending.front().is_some_and(|(due, _)| *due <= t_ps) {
                let (_, fccl) = pending.pop_front().unwrap();
                tx.on_feedback(fccl);
            }
        }
        assert_eq!(tx.starvations(), 0);
        assert!(tx.rate() > Rate::ZERO);
        // Long-run the sender must match the drain rate (within a stage of
        // slack from fluidization).
        let r = tx.rate().as_gbps_f64();
        assert!((r - 5.0).abs() < 1.0, "steady rate {r} Gbps");
    }
}
