//! Buffer-based GFC (§5.1): the practical scheme for CEE/PFC fabrics.
//!
//! The Message Generator reuses PFC's threshold machinery but with the
//! multi-stage thresholds of Eq. (5): whenever the ingress queue length
//! crosses from one stage to another (in either direction), it emits a
//! feedback frame carrying the new stage ID in the repurposed
//! `Time[priority]` field of the PFC frame. The Rate Adjuster looks the
//! stage up in a precomputed table (no arithmetic in the fast path) and
//! programs the egress Rate Limiter.

use crate::mapping::StageTable;
use crate::units::Rate;
use std::sync::Arc;

/// Receiver side: stage tracker / message generator.
#[derive(Debug, Clone)]
pub struct GfcBufferReceiver {
    /// Shared by every receiver and sender built for one network (see
    /// [`crate::fc_config::FcBackends`]).
    table: Arc<StageTable>,
    current_stage: usize,
    /// `[lo, hi)`: the queue lengths of `current_stage`, so an update
    /// that stays inside it — almost all of them — skips the table's
    /// binary search. An update outside it, or any update while it is
    /// empty, looks the stage up again and refreshes it.
    bounds: (u64, u64),
    messages_sent: u64,
}

impl GfcBufferReceiver {
    /// New receiver starting in stage 0 (empty queue).
    pub fn new(table: impl Into<Arc<StageTable>>) -> Self {
        let table = table.into();
        let bounds = stage_bounds(&table, 0);
        GfcBufferReceiver { table, current_stage: 0, bounds, messages_sent: 0 }
    }

    /// The stage table in force.
    pub fn table(&self) -> &StageTable {
        &self.table
    }

    /// The stage the queue currently sits in.
    pub fn current_stage(&self) -> usize {
        self.current_stage
    }

    /// Feedback messages generated so far (each is one 64 B frame).
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Report the new ingress queue length; if it moved to a different
    /// stage, returns the stage ID to feed back.
    pub fn on_queue_update(&mut self, q: u64) -> Option<u16> {
        let (lo, hi) = self.bounds;
        if lo <= q && q < hi {
            return None;
        }
        let stage = self.table.stage_for_queue(q);
        self.bounds = stage_bounds(&self.table, stage);
        if stage != self.current_stage {
            self.current_stage = stage;
            self.messages_sent += 1;
            Some(stage as u16)
        } else {
            None
        }
    }
}

/// The queue lengths `[start, next start)` of stage `i`; the deepest
/// stage's interval is open above.
fn stage_bounds(table: &StageTable, i: usize) -> (u64, u64) {
    let hi = if i < table.num_stages() { table.stage_start(i + 1) } else { u64::MAX };
    (table.stage_start(i), hi)
}

/// Sender side: stage → rate lookup (the Rate Adjuster).
#[derive(Debug, Clone)]
pub struct GfcBufferSender {
    /// Shared like the receiver's.
    table: Arc<StageTable>,
    rate: Rate,
}

impl GfcBufferSender {
    /// New sender starting at line rate.
    pub fn new(table: impl Into<Arc<StageTable>>) -> Self {
        let table = table.into();
        let rate = table.capacity();
        GfcBufferSender { table, rate }
    }

    /// Apply a received stage ID; returns the new rate to program into the
    /// Rate Limiter. Unknown (too-deep) stage IDs saturate to the deepest
    /// stage rather than blocking.
    pub fn on_feedback(&mut self, stage: u16) -> Rate {
        self.rate = self.table.rate_for_stage(stage as usize);
        self.rate
    }

    /// Currently assigned rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// The stage table in force.
    pub fn table(&self) -> &StageTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::kb;

    fn table() -> StageTable {
        StageTable::new(kb(300), kb(281), Rate::from_gbps(10))
    }

    #[test]
    fn emits_on_stage_crossings_only() {
        let mut rx = GfcBufferReceiver::new(table());
        assert_eq!(rx.on_queue_update(kb(100)), None);
        assert_eq!(rx.on_queue_update(kb(280)), None);
        assert_eq!(rx.on_queue_update(kb(282)), Some(1));
        assert_eq!(rx.on_queue_update(kb(283)), None); // same stage
                                                       // kb(295) lies in stage 2: B2 = 300K − 9.5K = 290.5K ≤ 295K < B3.
        assert_eq!(rx.on_queue_update(kb(295)), Some(2));
        // Back down across two stages in one update.
        assert_eq!(rx.on_queue_update(kb(100)), Some(0));
        assert_eq!(rx.messages_sent(), 3);
    }

    #[test]
    fn cached_bounds_agree_with_the_table_lookup() {
        // Seeded random walks of the queue length: ±1–2 MTU steps, jumps
        // to 0, onto a stage boundary (either side), and past Bm (into the
        // deepest stage, whose interval is open above), which every walk
        // must reach. Every update must report what a receiver that
        // runs the table's binary search each time reports — also on a
        // one-stage table, and after the bounds were reset to the empty
        // interval, which forces the next update down the lookup path.
        const MTU: i64 = 1500;
        let tables = [
            table(),
            StageTable::with_ratio(kb(300), kb(200), Rate::from_gbps(100), 3, 4),
            StageTable::new(kb(300), kb(281), Rate(1)),
        ];
        assert_eq!(tables[2].num_stages(), 0, "one-stage table");
        for (n, tbl) in tables.iter().enumerate() {
            let bm = tbl.bm() as i64;
            for seed in 1..=20u64 {
                let mut rng = seed;
                let mut next = || {
                    rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    rng >> 33
                };
                let mut rx = GfcBufferReceiver::new(tbl.clone());
                let mut reference = tbl.stage_for_queue(0);
                let mut q = bm - 20 * MTU;
                let mut deepest = false;
                for step in 0..5_000 {
                    q = match next() % 100 {
                        0 => 0,
                        1 => bm + (next() % 4) as i64 * MTU,
                        2 => {
                            tbl.stage_start(next() as usize % (tbl.num_stages() + 1)) as i64
                                - (next() % 2) as i64
                        }
                        3 => {
                            rx = GfcBufferReceiver { bounds: Default::default(), ..rx };
                            q
                        }
                        r => q + [-2, -1, 1, 2][r as usize % 4] * MTU,
                    }
                    .max(0);
                    let stage = tbl.stage_for_queue(q as u64);
                    let want = (stage != reference).then_some(stage as u16);
                    reference = stage;
                    let got = rx.on_queue_update(q as u64);
                    assert_eq!(got, want, "table {n}, seed {seed}, step {step}, q {q}");
                    assert_eq!(rx.current_stage(), stage);
                    deepest |= stage == tbl.num_stages();
                }
                assert!(deepest, "table {n}, seed {seed}: the walk missed the deepest stage");
            }
        }
    }

    #[test]
    fn sender_follows_stage_ids() {
        let mut tx = GfcBufferSender::new(table());
        assert_eq!(tx.rate(), Rate::from_gbps(10));
        assert_eq!(tx.on_feedback(1), Rate::from_gbps(5));
        assert_eq!(tx.on_feedback(2), Rate(2_500_000_000));
        assert_eq!(tx.on_feedback(0), Rate::from_gbps(10));
    }

    #[test]
    fn deep_stage_saturates() {
        let mut tx = GfcBufferSender::new(table());
        let deepest = tx.table.rate_for_stage(tx.table.num_stages());
        assert_eq!(tx.on_feedback(u16::MAX), deepest);
        assert!(deepest > Rate::ZERO, "GFC never maps to a zero rate");
    }

    #[test]
    fn closed_loop_converges_without_zero_rate() {
        // A crude fluid loop: drain at 5G, sender at table rates with a
        // 10 µs delay discretized in 1 µs ticks. The queue must stabilize
        // strictly below Bm and the rate must never hit zero.
        let tbl = table();
        let mut rx = GfcBufferReceiver::new(tbl.clone());
        let mut tx = GfcBufferSender::new(tbl.clone());
        let drain = Rate::from_gbps(5);
        let mut q: i64 = 0;
        let mut pipeline: std::collections::VecDeque<Option<u16>> =
            std::collections::VecDeque::from(vec![None; 10]);
        for _ in 0..20_000 {
            let in_bytes = tx.rate().0 as i64 / 8 / 1_000_000; // per µs
            let out_bytes = drain.0 as i64 / 8 / 1_000_000;
            q = (q + in_bytes - out_bytes).max(0);
            assert!(q < kb(300) as i64, "queue exceeded Bm");
            assert!(tx.rate() > Rate::ZERO, "rate hit zero");
            pipeline.push_back(rx.on_queue_update(q as u64));
            if let Some(Some(stage)) = pipeline.pop_front() {
                tx.on_feedback(stage);
            }
        }
        // Steady state: the rate must be pinned at the stage matching the
        // drain rate (5G = stage 1).
        assert_eq!(tx.rate(), Rate::from_gbps(5));
    }
}
