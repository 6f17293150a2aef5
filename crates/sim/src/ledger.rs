//! Flow-completion accounting: FCT and the paper's *slowdown* metric
//! (actual FCT divided by the FCT of the same flow on an unloaded
//! network, §6.2.3). The engine owns the mutators: it registers a flow
//! when the flow starts and stamps it when its last byte is delivered.

use serde::{Deserialize, Serialize};

/// Lifecycle record of one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Flow identity.
    pub id: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Start instant (first packet handed to the source NIC), ps.
    pub start_ps: u64,
    /// Completion instant (last byte delivered), ps; `None` = unfinished.
    pub end_ps: Option<u64>,
    /// Number of links on the flow's path (for the unloaded baseline).
    pub path_links: u32,
}

impl FlowRecord {
    /// Actual flow completion time in ps, if finished.
    pub fn fct_ps(&self) -> Option<u64> {
        self.end_ps.map(|e| e.saturating_sub(self.start_ps))
    }

    /// The shortest possible FCT on an unloaded network: store-and-forward
    /// of `bytes` over `path_links` hops of `capacity_bps` plus the path's
    /// propagation delay. Packetization detail (cut-through vs
    /// store-and-forward of individual MTUs) is absorbed by using one MTU
    /// of serialization per intermediate hop.
    pub fn ideal_fct_ps(&self, capacity_bps: u64, link_delay_ps: u64, mtu: u64) -> u64 {
        let ser = |bytes: u64| {
            bytes.saturating_mul(8).saturating_mul(1_000_000) / (capacity_bps / 1_000_000)
        };
        let body = ser(self.bytes);
        let per_hop = ser(mtu.min(self.bytes));
        let hops = self.path_links.max(1) as u64;
        body + per_hop * (hops - 1) + link_delay_ps * hops
    }

    /// Slowdown = actual FCT / unloaded FCT (≥ ~1); `None` if unfinished.
    pub fn slowdown(&self, capacity_bps: u64, link_delay_ps: u64, mtu: u64) -> Option<f64> {
        let fct = self.fct_ps()? as f64;
        let ideal = self.ideal_fct_ps(capacity_bps, link_delay_ps, mtu) as f64;
        Some(fct / ideal.max(1.0))
    }
}

/// Aggregate flow accounting for one simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowLedger {
    records: Vec<FlowRecord>,
}

impl FlowLedger {
    /// Empty ledger.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Register a started flow; ids must be unique and dense enough to
    /// index (they are assigned by the simulator).
    pub(crate) fn on_start(&mut self, id: u64, bytes: u64, start_ps: u64, path_links: u32) {
        self.records.push(FlowRecord { id, bytes, start_ps, end_ps: None, path_links });
    }

    /// Mark a flow finished.
    pub(crate) fn on_finish(&mut self, id: u64, end_ps: u64) {
        let r = self
            .records
            .iter_mut()
            .rev()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("finish for unknown flow {id}"));
        assert!(r.end_ps.is_none(), "flow {id} finished twice");
        assert!(end_ps >= r.start_ps);
        r.end_ps = Some(end_ps);
    }

    /// All records.
    pub fn records(&self) -> &[FlowRecord] {
        &self.records
    }

    /// Adopt finish times from another ledger over the *same* flow
    /// population (records must align index-by-index). The sharded engine
    /// registers every flow in every shard but finishes each flow only in
    /// its destination's shard; the coordinator merges the per-shard
    /// ledgers with this.
    ///
    /// # Panics
    /// If the ledgers disagree on a record's identity, or both claim a
    /// finish with different times.
    pub(crate) fn adopt_finishes(&mut self, other: &FlowLedger) {
        assert_eq!(self.records.len(), other.records.len(), "ledgers cover different flows");
        for (r, o) in self.records.iter_mut().zip(&other.records) {
            assert_eq!(r.id, o.id, "ledger records misaligned");
            match (r.end_ps, o.end_ps) {
                (Some(a), Some(b)) => assert_eq!(a, b, "flow {} finished twice", r.id),
                (None, Some(e)) => r.end_ps = Some(e),
                _ => {}
            }
        }
    }

    /// Finished-flow count.
    pub fn finished(&self) -> usize {
        self.records.iter().filter(|r| r.end_ps.is_some()).count()
    }

    /// Unfinished-flow count.
    pub fn unfinished(&self) -> usize {
        self.records.len() - self.finished()
    }

    /// Slowdowns of all finished flows.
    pub fn slowdowns(&self, capacity_bps: u64, link_delay_ps: u64, mtu: u64) -> Vec<f64> {
        self.records.iter().filter_map(|r| r.slowdown(capacity_bps, link_delay_ps, mtu)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fct_and_slowdown() {
        let mut l = FlowLedger::new();
        l.on_start(1, 1_250_000, 0, 2); // 1.25 MB over 2 links at 10G
        l.on_finish(1, 2_000_000_000); // 2 ms
        let r = l.records()[0];
        assert_eq!(r.fct_ps(), Some(2_000_000_000));
        // Unloaded: 1 ms serialization + 1 MTU hop + 2 µs propagation ≈ 1 ms.
        let ideal = r.ideal_fct_ps(10_000_000_000, 1_000_000, 1500);
        assert!(ideal > 1_000_000_000 && ideal < 1_010_000_000, "{ideal}");
        let sd = r.slowdown(10_000_000_000, 1_000_000, 1500).unwrap();
        assert!(sd > 1.9 && sd < 2.1, "slowdown {sd}");
    }

    #[test]
    fn unfinished_flows_counted() {
        let mut l = FlowLedger::new();
        l.on_start(1, 100, 0, 1);
        l.on_start(2, 100, 0, 1);
        l.on_finish(2, 50);
        assert_eq!(l.finished(), 1);
        assert_eq!(l.unfinished(), 1);
        assert_eq!(l.slowdowns(10_000_000_000, 0, 1500).len(), 1);
    }

    #[test]
    fn tiny_flow_slowdown_is_near_one_when_unloaded() {
        let mut l = FlowLedger::new();
        let cap = 10_000_000_000u64;
        // 1500 B over 3 links, 1 µs/link: ideal ≈ 1.2µs·3(ser) + 3µs.
        l.on_start(7, 1500, 0, 3);
        let ideal = l.records()[0].ideal_fct_ps(cap, 1_000_000, 1500);
        l.on_finish(7, ideal);
        let sd = l.records()[0].slowdown(cap, 1_000_000, 1500).unwrap();
        assert!((sd - 1.0).abs() < 1e-9);
    }

    #[test]
    fn record_debug_text_is_pinned() {
        // The benchmark's outcome digest hashes this text; a renamed type
        // or field must fail here, not only in the digest check.
        let mut l = FlowLedger::new();
        l.on_start(3, 1500, 10, 2);
        l.on_start(4, 9000, 20, 4);
        l.on_finish(3, 42);
        assert_eq!(
            format!("{:?}", l.records()),
            "[FlowRecord { id: 3, bytes: 1500, start_ps: 10, end_ps: Some(42), path_links: 2 }, \
             FlowRecord { id: 4, bytes: 9000, start_ps: 20, end_ps: None, path_links: 4 }]"
        );
    }

    #[test]
    #[should_panic(expected = "unknown flow")]
    fn finish_unknown_panics() {
        let mut l = FlowLedger::new();
        l.on_finish(9, 1);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_finish_panics() {
        let mut l = FlowLedger::new();
        l.on_start(1, 1, 0, 1);
        l.on_finish(1, 1);
        l.on_finish(1, 2);
    }
}
