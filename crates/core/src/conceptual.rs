//! Conceptual GFC (§4.1): continuous feedback of the instantaneous ingress
//! queue length, linear mapping to the upstream rate.
//!
//! The conceptual scheme assumes the Message Generator can emit feedback
//! continuously. In a packet-level simulation "continuous" means: a fresh
//! queue-length sample accompanies every enqueue/dequeue event, delivered
//! to the Rate Adjuster after the feedback latency τ. The bandwidth cost of
//! this firehose is exactly why §4.2 replaces it with the step function —
//! we keep it for Fig. 5 and for validating Theorem 4.1.

use crate::mapping::LinearMapping;
use crate::units::Rate;

/// Receiver side: samples the ingress queue on every change.
#[derive(Debug, Clone)]
pub struct ConceptualReceiver {
    messages_sent: u64,
}

impl ConceptualReceiver {
    /// New receiver.
    pub fn new() -> Self {
        ConceptualReceiver { messages_sent: 0 }
    }

    /// Emit a feedback sample carrying the current queue length. In the
    /// conceptual design *every* queue change produces a message.
    pub fn on_queue_update(&mut self, q: u64) -> u64 {
        self.messages_sent += 1;
        q
    }

    /// Messages generated so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }
}

impl Default for ConceptualReceiver {
    fn default() -> Self {
        Self::new()
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
    fn receiver_counts_messages() {
        let mut rx = ConceptualReceiver::new();
        for q in 0..100 {
            assert_eq!(rx.on_queue_update(q), q);
        }
        assert_eq!(rx.messages_sent(), 100);
    }
}
