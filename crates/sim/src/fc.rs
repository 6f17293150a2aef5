//! Per-port flow-control state: the bridge between the simulator's queues
//! and the backend pair in `gfc_core::backend`.
//!
//! Each ingress `(port, priority)` holds a [`gfc_core::AnyRx`] directly;
//! each egress `(port, priority)` owns an [`FcSender`], which wraps a
//! [`gfc_core::AnyTx`]. Both enums are built by
//! [`FcConfig::make_rx_any`](gfc_core::FcConfig::make_rx_any) /
//! [`FcConfig::make_tx_any`](gfc_core::FcConfig::make_tx_any): the
//! simulator calls the backend interface and never matches on the
//! scheme. The sender additionally owns the §5.3 rate limiter and applies
//! [`CtrlOutcome::set_rate`] to it, keeping pacing a simulator concern.
//!
//! Control messages between the halves are [`CtrlPayload`]s; the wire
//! payloads are round-tripped through the real codecs in
//! `gfc_core::frames` so the simulation exercises exactly what a
//! firmware implementation would emit.

use crate::config::SimConfig;
use gfc_core::backend::FcTx;
use gfc_core::rate_limiter::RateLimiter;
use gfc_core::units::{Dur, Rate, Time};
use gfc_core::{AnyTx, PortIdent};

pub use gfc_core::backend::{
    CtrlOutcome, CtrlPayload, DcfitTag, QueueCtx, SchemeMismatch, Sense, TxHead,
};

/// The verdict of the sender-side gate for a candidate packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// May start transmitting now.
    Ready,
    /// Pacing: retry at this instant.
    WaitUntil(Time),
    /// Blocked until a flow-control message changes the state
    /// (pause / credit exhaustion).
    Blocked,
}

/// Sender-side (egress) flow-control state for one `(port, priority)`.
#[derive(Debug, Clone)]
pub struct FcSender {
    inner: AnyTx,
    /// The §5.3 rate limiter; always present (line rate when unused).
    pub limiter: RateLimiter,
}

impl FcSender {
    /// Build the sender backend for a config at the given port.
    pub fn for_config(cfg: &SimConfig, ident: PortIdent) -> FcSender {
        let mut limiter = RateLimiter::with_min_unit(cfg.capacity, cfg.min_rate_unit);
        limiter.set_rate(cfg.capacity);
        FcSender { inner: cfg.fc.make_tx_any(cfg.capacity, cfg.buffer_bytes, ident), limiter }
    }

    /// Human-readable name of the scheme this sender runs.
    pub fn scheme(&self) -> &'static str {
        self.inner.scheme()
    }

    /// Apply a received control message at `now`, programming the rate
    /// limiter if the backend asks. The outcome carries whether the hard
    /// gate may have opened (kick the transmitter) and any DCFIT
    /// detection; [`SchemeMismatch`] means the payload belongs to a
    /// different scheme than this sender runs.
    pub fn on_ctrl(
        &mut self,
        payload: CtrlPayload,
        now: Time,
    ) -> Result<CtrlOutcome, SchemeMismatch> {
        let outcome = self.inner.on_ctrl(payload, now)?;
        if let Some(rate) = outcome.set_rate {
            self.limiter.set_rate(rate);
        }
        Ok(outcome)
    }

    /// Whether the head-of-line packet may start transmitting at `now`,
    /// combining the scheme's hard gate with the rate limiter. (Schemes
    /// without a hard gate — the GFC family, BFC for other flows — fall
    /// through to pure pacing; that is precisely how GFC avoids
    /// hold-and-wait, per §5.2.)
    pub fn gate(&mut self, head: &TxHead, now: Time) -> Gate {
        if !self.inner.hard_open(head, now) {
            return Gate::Blocked;
        }
        let t = self.limiter.earliest_send(now);
        if t == Time::MAX {
            Gate::Blocked
        } else if t <= now {
            Gate::Ready
        } else {
            Gate::WaitUntil(t)
        }
    }

    /// Account a transmission: the packet's serialization took `tx_time`
    /// and finishes at `completion`.
    pub fn on_sent(&mut self, head: &TxHead, tx_time: Dur, completion: Time) {
        self.inner.on_sent(head);
        self.limiter.on_packet_sent(tx_time, completion);
    }

    /// The rate currently assigned to this queue's limiter.
    pub fn assigned_rate(&self) -> Rate {
        self.limiter.rate()
    }

    /// Whether the scheme's hard gate (pause / credits / per-flow pause)
    /// is currently shut for `head` — i.e. the queue is in a
    /// *hold-and-wait* state if it has packets. Non-mutating (no
    /// starvation accounting); used by the wait-for-graph deadlock
    /// detector.
    pub fn hard_blocked(&self, head: &TxHead, now: Time) -> bool {
        self.inner.hard_blocked(head, now)
    }

    /// Hold-and-wait episodes entered so far (PFC pauses / credit
    /// starvations / BFC per-flow pauses); 0 for schemes without a gate.
    pub fn hold_and_wait_episodes(&self) -> u64 {
        self.inner.hold_and_wait_episodes()
    }

    /// DCFIT: the tag of the pause currently applied at this egress.
    pub fn applied_tag(&self) -> Option<DcfitTag> {
        self.inner.applied_tag()
    }

    /// DCFIT: circular-wait detections witnessed at this egress.
    pub fn detections(&self) -> u64 {
        self.inner.detections()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfc_core::bfc::BfcConfig;
    use gfc_core::fc_config::FcConfig;
    use gfc_core::pfc::PfcEvent;
    use gfc_core::units::kb;
    use gfc_core::{AnyRx, FcRx};

    const IDENT: PortIdent = PortIdent { node: 0, port: 0 };

    fn cfg(fc: FcConfig) -> SimConfig {
        let mut c = SimConfig::default_10g();
        c.fc = fc;
        c.validate();
        c
    }

    fn receiver(c: &SimConfig, ident: PortIdent) -> AnyRx {
        c.fc.make_rx_any(c.capacity, c.buffer_bytes, c.mtu, ident)
    }

    fn ctx(q_bytes: u64, pkt_bytes: u64) -> QueueCtx {
        QueueCtx { q_bytes, pkt_bytes, flow: 1, inherited_tag: None }
    }

    fn head(bytes: u64) -> TxHead {
        TxHead { bytes, flow: 1 }
    }

    fn one(
        rx: &mut AnyRx,
        f: impl FnOnce(&mut AnyRx, &mut Vec<CtrlPayload>),
    ) -> Option<CtrlPayload> {
        let mut out = Vec::new();
        f(rx, &mut out);
        assert!(out.len() <= 1, "expected at most one message, got {out:?}");
        out.pop()
    }

    #[test]
    fn pfc_pair_pause_resume() {
        let c = cfg(FcConfig::pfc(kb(280), kb(277)));
        let mut rx = receiver(&c, IDENT);
        let mut tx = FcSender::for_config(&c, IDENT);
        assert_eq!(tx.gate(&head(1500), Time::ZERO), Gate::Ready);
        let msg =
            one(&mut rx, |r, out| r.on_arrival(&ctx(kb(281), 1500), out)).expect("pause expected");
        assert!(!tx.on_ctrl(msg, Time::ZERO).unwrap().opened);
        assert_eq!(tx.gate(&head(1500), Time::ZERO), Gate::Blocked);
        let msg =
            one(&mut rx, |r, out| r.on_drain(&ctx(kb(276), 1500), out)).expect("resume expected");
        assert!(tx.on_ctrl(msg, Time::ZERO).unwrap().opened);
        assert_eq!(tx.gate(&head(1500), Time::ZERO), Gate::Ready);
    }

    #[test]
    fn gfc_buffer_pair_sets_rate() {
        let c = cfg(FcConfig::gfc_buffer(kb(300), kb(281)));
        let mut rx = receiver(&c, IDENT);
        let mut tx = FcSender::for_config(&c, IDENT);
        let msg =
            one(&mut rx, |r, out| r.on_arrival(&ctx(kb(282), 1500), out)).expect("stage change");
        assert!(tx.on_ctrl(msg, Time::ZERO).unwrap().opened);
        assert_eq!(tx.assigned_rate(), Rate::from_gbps(5));
        // GFC never hard-blocks.
        assert!(!tx.hard_blocked(&head(1500), Time::ZERO));
        match tx.gate(&head(1500), Time::ZERO) {
            Gate::Ready | Gate::WaitUntil(_) => {}
            Gate::Blocked => panic!("buffer-based GFC must never block"),
        }
    }

    #[test]
    fn cbfc_pair_credits_through_wire_wrap() {
        let c = cfg(FcConfig::cbfc(Dur::from_micros(52)));
        let mut rx = receiver(&c, IDENT);
        let mut tx = FcSender::for_config(&c, IDENT);
        // Consume all credits.
        let buffer = c.buffer_bytes;
        let mut sent = 0;
        while let Gate::Ready = tx.gate(&head(1500), Time::ZERO) {
            tx.on_sent(&head(1500), Dur::from_nanos(1200), Time::ZERO);
            sent += 1500;
            if sent > buffer + 10_000 {
                panic!("credit gate never closed");
            }
        }
        assert!(sent <= buffer);
        // Receiver got & drained everything: periodic feedback reopens.
        let mut out = Vec::new();
        rx.on_arrival(&ctx(0, sent), &mut out);
        rx.on_drain(&ctx(0, sent), &mut out);
        assert!(out.is_empty(), "CBFC feedback is periodic");
        let msg = rx.periodic().expect("periodic FCCL");
        assert!(tx.on_ctrl(msg, Time::ZERO).unwrap().opened);
        assert_eq!(tx.gate(&head(1500), Time::ZERO), Gate::Ready);
    }

    #[test]
    fn gfc_time_pair_rate_follows_credits() {
        let c = cfg(FcConfig::gfc_time(kb(100), kb(300), Dur::from_micros(52)));
        let mut rx = receiver(&c, IDENT);
        let mut tx = FcSender::for_config(&c, IDENT);
        assert_eq!(tx.assigned_rate(), Rate::from_gbps(10));
        let mut sent = 0u64;
        while sent < kb(200) {
            tx.on_sent(&head(1024), Dur::from_nanos(819), Time::ZERO);
            sent += 1024;
        }
        // Packets arrived but NOT drained: occupancy = sent.
        let mut out = Vec::new();
        rx.on_arrival(&ctx(sent, sent), &mut out);
        let msg = rx.periodic().unwrap();
        tx.on_ctrl(msg, Time::ZERO).unwrap();
        let r = tx.assigned_rate();
        assert!(r < Rate::from_gbps(10) && r > Rate::ZERO, "rate {r}");
    }

    #[test]
    fn conceptual_pair_linear() {
        let c = cfg(FcConfig::conceptual(kb(50), kb(100), Dur::from_micros(25)));
        let mut rx = receiver(&c, IDENT);
        let mut tx = FcSender::for_config(&c, IDENT);
        let msg = one(&mut rx, |r, out| r.on_arrival(&ctx(kb(75), 1500), out)).unwrap();
        tx.on_ctrl(msg, Time::ZERO).unwrap();
        assert_eq!(tx.assigned_rate(), Rate::from_gbps(5));
    }

    #[test]
    fn bfc_pair_per_flow_gate() {
        let mut c = SimConfig::default_10g();
        c.fc = FcConfig::Bfc(BfcConfig::derive(c.buffer_bytes, c.mtu));
        c.validate();
        let mut rx = receiver(&c, IDENT);
        let mut tx = FcSender::for_config(&c, IDENT);
        let flow7 = |q| QueueCtx { q_bytes: q, pkt_bytes: 1500, flow: 7, inherited_tag: None };
        // Build flow 7's footprint past flow_xoff (8 MTU by derivation).
        let mut out = Vec::new();
        let mut q = 0;
        while out.is_empty() {
            q += 1500;
            rx.on_arrival(&flow7(q), &mut out);
            assert!(q < c.buffer_bytes, "per-flow pause never fired");
        }
        let pause = out.pop().unwrap();
        assert_eq!(pause, CtrlPayload::Bfc { flow: 7, pause: true });
        assert!(!tx.on_ctrl(pause, Time::ZERO).unwrap().opened);
        // Flow 7 blocks; an unrelated flow on the same queue does not.
        assert_eq!(tx.gate(&TxHead { bytes: 1500, flow: 7 }, Time::ZERO), Gate::Blocked);
        assert_eq!(tx.gate(&TxHead { bytes: 1500, flow: 8 }, Time::ZERO), Gate::Ready);
        // Drain it back below flow_xon: the resume reopens the gate.
        let mut resumes = Vec::new();
        while resumes.is_empty() && q > 0 {
            q -= 1500;
            rx.on_drain(&flow7(q), &mut resumes);
        }
        assert_eq!(resumes, vec![CtrlPayload::Bfc { flow: 7, pause: false }]);
        assert!(tx.on_ctrl(resumes[0], Time::ZERO).unwrap().opened);
        assert_eq!(tx.gate(&TxHead { bytes: 1500, flow: 7 }, Time::ZERO), Gate::Ready);
    }

    #[test]
    fn dcfit_pair_detects_own_tag() {
        let c = cfg(FcConfig::dcfit(kb(280), kb(277)));
        let mut rx = receiver(&c, PortIdent { node: 4, port: 2 });
        let mut tx = FcSender::for_config(&c, PortIdent { node: 4, port: 0 });
        assert!(rx.wants_fwd_tag());
        // Fresh pause minted at node 4 → applied at node 4's own egress:
        // the chain closed in one hop (self-loop), detection fires.
        let msg = one(&mut rx, |r, out| r.on_arrival(&ctx(kb(281), 1500), out)).unwrap();
        let outcome = tx.on_ctrl(msg, Time::ZERO).unwrap();
        assert!(!outcome.opened);
        let tag = outcome.detection.expect("own tag must be detected");
        assert_eq!((tag.node, tag.port), (4, 2));
        assert_eq!(tx.detections(), 1);
        assert_eq!(tx.applied_tag(), Some(tag));
        // A foreign-origin pause applied here is inheritance, not a hit.
        let foreign = DcfitTag { node: 9, port: 1, seq: 0 };
        let outcome = tx
            .on_ctrl(
                CtrlPayload::DcfitPfc { ev: PfcEvent::Pause { quanta: u16::MAX }, tag: foreign },
                Time::ZERO,
            )
            .unwrap();
        assert!(outcome.detection.is_none());
        assert_eq!(tx.applied_tag(), Some(foreign));
    }

    #[test]
    fn mismatched_ctrl_is_a_typed_error() {
        let c = cfg(FcConfig::pfc(kb(280), kb(277)));
        let mut tx = FcSender::for_config(&c, IDENT);
        let err = tx.on_ctrl(CtrlPayload::GfcStage(1), Time::ZERO).unwrap_err();
        assert_eq!(err.payload, CtrlPayload::GfcStage(1));
        assert_eq!(err.payload_scheme, "buffer-based GFC");
        assert_eq!(err.sender_scheme, "PFC");
        assert!(err.to_string().contains("does not match a PFC sender"), "{err}");
    }
}
