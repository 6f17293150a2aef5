//! Queue-length → sending-rate mapping functions (§4 of the paper).
//!
//! * [`LinearMapping`] is the conceptual design of Fig. 4(b): full rate up
//!   to `B0`, then a linear descent reaching zero at `Bm`.
//! * [`StageTable`] is the practical multi-stage step function of Fig. 6:
//!   `R_k = C / 2^k` and `B_m − B_k = (B_m − B_1) / 2^{k−1}` (Eq. 4/5).

use crate::units::Rate;

/// The conceptual continuous mapping of Fig. 4(b).
///
/// For queue length `q` (bytes):
/// * `q ≤ b0` → capacity `C`;
/// * `b0 < q < bm` → `C · (bm − q) / (bm − b0)`;
/// * `q ≥ bm` → zero (never reached when Theorem 4.1 holds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearMapping {
    /// Threshold below which the sender keeps line rate (bytes).
    pub b0: u64,
    /// Queue length at which the mapped rate reaches zero (bytes).
    pub bm: u64,
    /// Link capacity.
    pub capacity: Rate,
}

impl LinearMapping {
    /// Create a mapping; panics if `b0 >= bm` (the descent would be empty).
    pub fn new(b0: u64, bm: u64, capacity: Rate) -> Self {
        assert!(b0 < bm, "LinearMapping requires b0 < bm (got {b0} >= {bm})");
        LinearMapping { b0, bm, capacity }
    }

    /// Map an instantaneous queue length to the upstream sending rate.
    pub fn rate_for_queue(&self, q: u64) -> Rate {
        if q <= self.b0 {
            self.capacity
        } else if q >= self.bm {
            Rate::ZERO
        } else {
            self.capacity.mul_frac(self.bm - q, self.bm - self.b0)
        }
    }

    /// The slope magnitude `C / (Bm − B0)` in bits-per-second per byte;
    /// useful for analytical checks.
    pub fn slope_bps_per_byte(&self) -> f64 {
        self.capacity.0 as f64 / (self.bm - self.b0) as f64
    }
}

/// One stage of the practical step mapping: queue lengths in
/// `[start, next.start)` map to `rate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    /// First queue length (bytes) belonging to this stage.
    pub start: u64,
    /// Sending rate while the downstream queue sits in this stage.
    pub rate: Rate,
}

/// The multi-stage step mapping of §4.2 / Fig. 6.
///
/// Stage 0 covers `[0, B1)` at full capacity (the paper removes the
/// original "stage 0" because it maps to line rate anyway). Stage `k ≥ 1`
/// starts at `B_k = Bm − (Bm − B1)/2^{k−1}` and maps to `R_k = C/2^k`.
/// Construction stops once consecutive thresholds are less than one byte
/// apart (the paper's "`B_N − B_{N−1} ≤ 8 bits`" rule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTable {
    stages: Vec<Stage>,
    capacity: Rate,
    bm: u64,
}

impl StageTable {
    /// Build the table from `(Bm, B1, C)` with the paper's halving ratio
    /// (`R_k = R_{k−1}/2`, Eq. 4).
    ///
    /// Panics if `b1 >= bm`. The caller is responsible for the safety
    /// condition `Bm − B1 ≥ 2·C·τ` (checked by
    /// [`crate::theorems::buffer_based_b1_bound`]); violating it does not
    /// break the table, only the hold-and-wait guarantee.
    pub fn new(bm: u64, b1: u64, capacity: Rate) -> Self {
        Self::with_ratio(bm, b1, capacity, 1, 2)
    }

    /// Build a table with an arbitrary per-stage ratio `R_k = R_{k−1}·n/d`
    /// (`0 < n/d < 1`). Eq. (3) admits any ratio ≤ 3/4 under Theorem 4.1;
    /// the paper selects 1/2. Generalizing Eq. (5):
    /// `Bm − B_k = (Bm − B1)·(n/d)^{k−1}`. Construction stops once
    /// consecutive thresholds are less than one byte apart or the stage
    /// rate reaches zero.
    pub fn with_ratio(bm: u64, b1: u64, capacity: Rate, num: u64, den: u64) -> Self {
        assert!(b1 < bm, "StageTable requires b1 < bm (got {b1} >= {bm})");
        assert!(num > 0 && num < den, "stage ratio must be in (0, 1)");
        let mut stages = vec![Stage { start: 0, rate: capacity }];
        let span = (bm - b1) as u128; // Bm − B1
        let mut dist = span; // (Bm − B1)·(n/d)^{k−1}
        let mut rate = capacity.0 as u128;
        loop {
            rate = rate * num as u128 / den as u128;
            if dist == 0 || rate == 0 {
                break;
            }
            let start = bm - dist as u64;
            stages.push(Stage { start, rate: Rate(rate as u64) });
            let next_dist = dist * num as u128 / den as u128;
            if dist - next_dist == 0 {
                break; // stage narrower than a byte
            }
            dist = next_dist;
        }
        StageTable { stages, capacity, bm }
    }

    /// Total number of rate-reducing stages `N` (excludes the full-rate
    /// stage 0).
    pub fn num_stages(&self) -> usize {
        self.stages.len() - 1
    }

    /// Link capacity the table was built for.
    pub fn capacity(&self) -> Rate {
        self.capacity
    }

    /// `Bm`: the queue length the table treats as "buffer exhausted".
    pub fn bm(&self) -> u64 {
        self.bm
    }

    /// The stage index for a queue length (0 = full rate).
    pub fn stage_for_queue(&self, q: u64) -> usize {
        // Stages are sorted by start; binary search for the last stage whose
        // start is <= q.
        match self.stages.binary_search_by(|s| s.start.cmp(&q)) {
            Ok(i) => i,
            Err(i) => i - 1, // i >= 1 because stage 0 starts at 0
        }
    }

    /// The sending rate assigned to stage `i`; saturates to the deepest
    /// stage for out-of-range indices (a forward-compatible decode of a
    /// stage ID from a peer with a deeper table).
    pub fn rate_for_stage(&self, i: usize) -> Rate {
        let i = i.min(self.stages.len() - 1);
        self.stages[i].rate
    }

    /// The first queue length of stage `i`.
    pub fn stage_start(&self, i: usize) -> u64 {
        self.stages[i.min(self.stages.len() - 1)].start
    }

    /// Iterate over `(stage index, Stage)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Stage)> + '_ {
        self.stages.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::kb;

    #[test]
    fn linear_endpoints() {
        let m = LinearMapping::new(kb(50), kb(100), Rate::from_gbps(10));
        assert_eq!(m.rate_for_queue(0), Rate::from_gbps(10));
        assert_eq!(m.rate_for_queue(kb(50)), Rate::from_gbps(10));
        assert_eq!(m.rate_for_queue(kb(100)), Rate::ZERO);
        assert_eq!(m.rate_for_queue(kb(200)), Rate::ZERO);
    }

    #[test]
    fn linear_midpoint_is_half_rate() {
        let m = LinearMapping::new(kb(50), kb(100), Rate::from_gbps(10));
        assert_eq!(m.rate_for_queue(kb(75)), Rate::from_gbps(5));
    }

    #[test]
    fn linear_is_monotone_nonincreasing() {
        let m = LinearMapping::new(kb(50), kb(100), Rate::from_gbps(10));
        let mut last = Rate(u64::MAX);
        for q in (0..=kb(110)).step_by(64) {
            let r = m.rate_for_queue(q);
            assert!(r <= last, "rate increased at q={q}");
            last = r;
        }
    }

    #[test]
    #[should_panic(expected = "b0 < bm")]
    fn linear_rejects_degenerate() {
        LinearMapping::new(kb(100), kb(100), Rate::from_gbps(10));
    }

    #[test]
    fn stage_table_structure_fig6() {
        // Paper §6.2.2: Bm = 300 KB, B1 = 281 KB, 10 Gb/s, so
        // B_{n+1} − B_n = 19 KB / 2^n.
        let t = StageTable::new(kb(300), kb(281), Rate::from_gbps(10));
        assert_eq!(t.stage_start(1), kb(281));
        assert_eq!(t.rate_for_stage(0), Rate::from_gbps(10));
        assert_eq!(t.rate_for_stage(1), Rate::from_gbps(5));
        assert_eq!(t.rate_for_stage(2), Rate(2_500_000_000));
        // B2 − B1 = (Bm − B1)/2 = 9.5 KB.
        assert_eq!(t.stage_start(2) - t.stage_start(1), kb(19) / 2);
    }

    #[test]
    fn stage_count_matches_paper_order() {
        // §5.4: with 10 Gb/s and Bm − B1 ≈ 18.5 KB the paper reports
        // N = 16; the exact N depends on rounding of 2Cτ, accept 14..=17.
        let t = StageTable::new(kb(300), kb(300) - 18_944, Rate::from_gbps(10));
        assert!((14..=17).contains(&t.num_stages()), "unexpected N = {}", t.num_stages());
    }

    #[test]
    fn stage_lookup_brackets() {
        let t = StageTable::new(kb(300), kb(281), Rate::from_gbps(10));
        assert_eq!(t.stage_for_queue(0), 0);
        assert_eq!(t.stage_for_queue(kb(281) - 1), 0);
        assert_eq!(t.stage_for_queue(kb(281)), 1);
        assert_eq!(t.stage_for_queue(kb(300)), t.num_stages());
        assert_eq!(t.stage_for_queue(u64::MAX), t.num_stages());
    }

    #[test]
    fn stage_rates_halve() {
        let t = StageTable::new(kb(300), kb(281), Rate::from_gbps(10));
        for i in 1..=t.num_stages() {
            assert_eq!(t.rate_for_stage(i).0, t.rate_for_stage(i - 1).0 / 2);
        }
        // Deepest stage never maps to exactly zero for realistic C.
        assert!(t.rate_for_stage(t.num_stages()) > Rate::ZERO);
    }

    #[test]
    fn stage_rate_saturates_beyond_table() {
        let t = StageTable::new(kb(300), kb(281), Rate::from_gbps(10));
        assert_eq!(t.rate_for_stage(usize::MAX), t.rate_for_stage(t.num_stages()));
    }

    #[test]
    fn ratio_three_quarters_matches_eq3_bound() {
        // Eq. (3) admits R_k ≤ (3/4)·R_{k−1}; the generalized table
        // implements it with denser stages.
        let half = StageTable::new(kb(300), kb(281), Rate::from_gbps(10));
        let tq = StageTable::with_ratio(kb(300), kb(281), Rate::from_gbps(10), 3, 4);
        assert!(tq.num_stages() > half.num_stages(), "3/4 ratio must need more stages");
        assert_eq!(tq.rate_for_stage(0), Rate::from_gbps(10));
        assert_eq!(tq.rate_for_stage(1), Rate(7_500_000_000));
        assert_eq!(tq.rate_for_stage(2), Rate(5_625_000_000));
        // Same B1 anchor.
        assert_eq!(tq.stage_start(1), kb(281));
    }

    #[test]
    fn ratio_tables_keep_invariants() {
        for (n, d) in [(1u64, 2u64), (1, 4), (3, 4), (2, 3)] {
            let t = StageTable::with_ratio(kb(300), kb(281), Rate::from_gbps(10), n, d);
            let mut prev = None;
            for (_, s) in t.iter() {
                if let Some(p) = prev {
                    assert!(s.start > p, "ratio {n}/{d}: starts must increase");
                }
                prev = Some(s.start);
            }
            assert!(t.rate_for_stage(t.num_stages()) > Rate::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn rejects_ratio_of_one() {
        StageTable::with_ratio(kb(300), kb(281), Rate::from_gbps(10), 2, 2);
    }

    #[test]
    fn stage_starts_strictly_increase() {
        let t = StageTable::new(kb(1024), kb(750), Rate::from_gbps(10));
        let mut prev = None;
        for (_, s) in t.iter() {
            if let Some(p) = prev {
                assert!(s.start > p, "stage starts must strictly increase");
            }
            prev = Some(s.start);
        }
    }
}
