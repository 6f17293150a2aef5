//! Conceptual GFC (§4.1): continuous feedback of the instantaneous ingress
//! queue length, linear mapping to the upstream rate.
//!
//! The conceptual scheme assumes the Message Generator can emit feedback
//! continuously. In a packet-level simulation "continuous" means: a fresh
//! queue-length sample accompanies every enqueue/dequeue event, delivered
//! to the Rate Adjuster after the feedback latency τ. The bandwidth cost of
//! this firehose is exactly why §4.2 replaces it with the step function —
//! we keep it for Fig. 5 and for validating Theorem 4.1.

use crate::backend::{
    CtrlOutcome, CtrlPayload, FcRx, FcTx, QueueCtx, SchemeMismatch, Sense, TxHead,
};
use crate::mapping::LinearMapping;
use crate::units::{Rate, Time};

/// Receiver side: every queue change emits a sample carrying the new
/// queue length.
#[derive(Debug, Clone)]
pub struct ConceptualReceiver {
    /// `B0` of the mapping, for the soft-assert sense classification.
    b0: u64,
    messages_sent: u64,
}

impl ConceptualReceiver {
    /// New receiver for a mapping starting at `b0`.
    pub fn new(b0: u64) -> Self {
        ConceptualReceiver { b0, messages_sent: 0 }
    }
}

impl FcRx for ConceptualReceiver {
    fn scheme(&self) -> &'static str {
        "conceptual GFC"
    }
    fn on_arrival(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        self.messages_sent += 1;
        out.push(CtrlPayload::QueueSample(ctx.q_bytes));
    }
    fn on_drain(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        self.on_arrival(ctx, out); // both are queue updates
    }
    fn sense(&self, payload: &CtrlPayload, _ing_bytes: u64) -> Sense {
        match payload {
            CtrlPayload::QueueSample(q) if *q >= self.b0 => Sense::AssertSoft,
            _ => Sense::Clear,
        }
    }
    fn messages_sent(&self) -> u64 {
        self.messages_sent
    }
}

/// Sender side: maps the fed-back queue length to a rate via the linear
/// mapping of Fig. 4(b).
#[derive(Debug, Clone)]
pub struct ConceptualSender {
    mapping: LinearMapping,
    rate: Rate,
}

impl ConceptualSender {
    /// New sender starting at line rate.
    pub fn new(mapping: LinearMapping) -> Self {
        let rate = mapping.capacity;
        ConceptualSender { mapping, rate }
    }

    /// Apply a feedback sample; returns the new rate.
    pub fn on_feedback(&mut self, queue_len: u64) -> Rate {
        self.rate = self.mapping.rate_for_queue(queue_len);
        self.rate
    }

    /// The currently assigned rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// The mapping in force.
    pub fn mapping(&self) -> LinearMapping {
        self.mapping
    }
}

impl FcTx for ConceptualSender {
    fn scheme(&self) -> &'static str {
        "conceptual GFC"
    }
    fn on_ctrl(&mut self, payload: CtrlPayload, _now: Time) -> Result<CtrlOutcome, SchemeMismatch> {
        match payload {
            CtrlPayload::QueueSample(q) => Ok(CtrlOutcome::rate(self.on_feedback(q).max(Rate(1)))),
            other => Err(SchemeMismatch::new(other, self.scheme())),
        }
    }
    fn hard_open(&mut self, _head: &TxHead, _now: Time) -> bool {
        true
    }
    fn hard_blocked(&self, _head: &TxHead, _now: Time) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::kb;

    #[test]
    fn tracks_mapping() {
        let m = LinearMapping::new(kb(50), kb(100), Rate::from_gbps(10));
        let mut tx = ConceptualSender::new(m);
        assert_eq!(tx.rate(), Rate::from_gbps(10));
        assert_eq!(tx.on_feedback(kb(75)), Rate::from_gbps(5));
        assert_eq!(tx.on_feedback(kb(25)), Rate::from_gbps(10));
    }

    #[test]
    fn receiver_samples_every_change() {
        let mut rx = ConceptualReceiver::new(kb(50));
        let mut out = Vec::new();
        for q in 0..100 {
            let ctx = QueueCtx { q_bytes: q, pkt_bytes: 1, flow: 0, inherited_tag: None };
            if q % 2 == 0 {
                rx.on_arrival(&ctx, &mut out);
            } else {
                rx.on_drain(&ctx, &mut out);
            }
        }
        assert_eq!(out, (0..100).map(CtrlPayload::QueueSample).collect::<Vec<_>>());
        assert_eq!(rx.messages_sent(), 100);
    }
}
