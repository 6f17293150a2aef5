//! Engine self-profiler: where does the event loop's wall time go?
//!
//! The [`EngineProbe`] answers three questions the metrics registry
//! cannot: how much *host* (not simulated) time each event class costs,
//! how the scheduler's storage splits between the heap, the FIFO lanes
//! and the payload pool, and how well the pool recycles slots. It is
//! deliberately simulator-agnostic — classes are opaque indices with
//! caller-supplied labels — and the embedder owns the wiring (see
//! `gfc_sim::Network`): only when a probe is installed, the dispatch
//! loop reads `Instant::now()` once after each handler and charges the
//! interval since the previous read (the event's pop plus its handler)
//! to that event's class, so the disabled configuration pays a single
//! `Option` discriminant test per event.
//!
//! Wall-clock durations land in power-of-two bucket histograms: bucket
//! `b` holds durations whose bit length is `b` (so bucket 5 covers
//! 16–31 ns). Recording is branch-light — one `leading_zeros` and three
//! array writes — and the 64-bucket span covers sub-nanosecond noise up
//! to multi-second stalls without configuration.

use crate::registry::Snapshot;

/// Number of power-of-two histogram buckets (durations are clamped to
/// bit length 63, i.e. ~9.2 s, far beyond any per-event cost).
const BUCKETS: usize = 64;

/// Per-event-class wall-time profile plus scheduler occupancy gauges.
///
/// All state is dense arrays indexed by class, sized once at
/// construction; recording never allocates.
#[derive(Debug, Clone)]
pub struct EngineProbe {
    labels: Vec<&'static str>,
    counts: Vec<u64>,
    sum_ns: Vec<u64>,
    hist: Vec<[u64; BUCKETS]>,
    /// `(current, high_water)` per occupancy gauge, in
    /// [`EngineProbe::GAUGE_NAMES`] order.
    gauges: [(u64, u64); Self::GAUGE_NAMES.len()],
    /// Events scheduled inline (payload-free slot encoding).
    pub pushes_inline: u64,
    /// Events that stored a payload (in a FIFO lane, or a pool slot for
    /// heap events); with `pushes_inline`, every scheduled event.
    pub pushes_pooled: u64,
    /// Pool slots allocated because the free list was empty — growth, as
    /// opposed to recycling.
    pub pool_grown: u64,
    /// Per FIFO lane (in [`EngineProbe::LANE_LABELS`] order), pushes
    /// that sorted before the lane's tail and went to the heap instead.
    pub lane_diverted: [u64; Self::LANE_LABELS.len()],
}

impl EngineProbe {
    /// The scheduler's FIFO lanes, in lane order: each has a
    /// `probe.queue.lane_<label>` occupancy gauge and a
    /// `probe.queue.lane_<label>.diverted` counter.
    pub const LANE_LABELS: [&'static str; 5] = ["arrive", "ctrl", "ctrl_oob", "tx", "inbound"];

    /// Occupancy gauges sampled via [`EngineProbe::queue_sample`], in
    /// storage order: heap keys, the five FIFO lanes, live pool slots,
    /// free (recyclable) pool slots, and queued control frames.
    pub const GAUGE_NAMES: [&'static str; 9] = [
        "probe.queue.heap",
        "probe.queue.lane_arrive",
        "probe.queue.lane_ctrl",
        "probe.queue.lane_ctrl_oob",
        "probe.queue.lane_tx",
        "probe.queue.lane_inbound",
        "probe.pool.slots",
        "probe.pool.free",
        "probe.ctrl.backlog_frames",
    ];

    /// A probe for `labels.len()` event classes. Labels are static so the
    /// embedder's class table stays the single source of truth.
    pub fn new(labels: &[&'static str]) -> EngineProbe {
        EngineProbe {
            labels: labels.to_vec(),
            counts: vec![0; labels.len()],
            sum_ns: vec![0; labels.len()],
            hist: vec![[0; BUCKETS]; labels.len()],
            gauges: [(0, 0); Self::GAUGE_NAMES.len()],
            pushes_inline: 0,
            pushes_pooled: 0,
            pool_grown: 0,
            lane_diverted: [0; Self::LANE_LABELS.len()],
        }
    }

    /// Record one dispatched event of `class` costing `wall_ns`.
    #[inline]
    pub fn record(&mut self, class: usize, wall_ns: u64) {
        self.counts[class] += 1;
        self.sum_ns[class] += wall_ns;
        self.hist[class][bucket_of(wall_ns)] += 1;
    }

    /// Update the occupancy gauges (heap keys, per-lane queue depths,
    /// total/free pool slots, queued ctrl frames), tracking high-water
    /// marks. Called off the hot path (e.g. on monitor ticks).
    pub fn queue_sample(
        &mut self,
        heap: u64,
        lanes: [u64; Self::LANE_LABELS.len()],
        pool_slots: u64,
        pool_free: u64,
        ctrl_backlog: u64,
    ) {
        let [a, b, c, d, e] = lanes;
        let vals = [heap, a, b, c, d, e, pool_slots, pool_free, ctrl_backlog];
        for (g, v) in self.gauges.iter_mut().zip(vals) {
            g.0 = v;
            g.1 = g.1.max(v);
        }
    }

    /// Events recorded for `class`.
    pub fn count(&self, class: usize) -> u64 {
        self.counts[class]
    }

    /// Total wall nanoseconds recorded for `class`.
    pub fn sum_ns(&self, class: usize) -> u64 {
        self.sum_ns[class]
    }

    /// Total events recorded across all classes.
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Nearest-rank `p`-th percentile (0–100) of `class`'s wall time,
    /// resolved to the containing power-of-two bucket's upper bound in
    /// nanoseconds. `None` if the class recorded nothing.
    pub fn percentile_ns(&self, class: usize, p: f64) -> Option<u64> {
        let count = self.counts[class];
        if count == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.hist[class].iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper_ns(b));
            }
        }
        Some(bucket_upper_ns(BUCKETS - 1))
    }

    /// Append the profile as derived `probe.*` snapshot entries: per
    /// class `count`/`sum_ns`/`p50_ns`/`p99_ns` counters, the occupancy
    /// gauges, the pool-recycling counters, and the per-lane diversions.
    pub fn append_to(&self, snap: &mut Snapshot) {
        for (c, label) in self.labels.iter().enumerate() {
            snap.push_counter(&format!("probe.dispatch.{label}.count"), self.counts[c]);
            snap.push_counter(&format!("probe.dispatch.{label}.sum_ns"), self.sum_ns[c]);
            snap.push_counter(
                &format!("probe.dispatch.{label}.p50_ns"),
                self.percentile_ns(c, 50.0).unwrap_or(0),
            );
            snap.push_counter(
                &format!("probe.dispatch.{label}.p99_ns"),
                self.percentile_ns(c, 99.0).unwrap_or(0),
            );
        }
        for (name, (value, hwm)) in Self::GAUGE_NAMES.iter().zip(self.gauges) {
            snap.push_gauge(name, value, hwm);
        }
        snap.push_counter("probe.pool.pushes_inline", self.pushes_inline);
        snap.push_counter("probe.pool.pushes_pooled", self.pushes_pooled);
        snap.push_counter("probe.pool.grown", self.pool_grown);
        for (label, n) in Self::LANE_LABELS.iter().zip(self.lane_diverted) {
            snap.push_counter(&format!("probe.queue.lane_{label}.diverted"), n);
        }
    }
}

/// Bucket index of a duration: its bit length, clamped to the table.
#[inline]
fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Largest duration a bucket covers: `2^b − 1` ns (bucket 0 holds only
/// zero-length observations).
fn bucket_upper_ns(b: usize) -> u64 {
    (1u64 << b) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_bit_lengths() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(16), 5);
        assert_eq!(bucket_of(31), 5);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_ns(5), 31);
    }

    #[test]
    fn records_counts_sums_and_percentiles() {
        let mut p = EngineProbe::new(&["arrive", "tx"]);
        for _ in 0..99 {
            p.record(0, 20); // bucket 5 (16..=31)
        }
        p.record(0, 5000); // bucket 13 (4096..=8191)
        p.record(1, 0);
        assert_eq!(p.count(0), 100);
        assert_eq!(p.sum_ns(0), 99 * 20 + 5000);
        assert_eq!(p.total_events(), 101);
        assert_eq!(p.percentile_ns(0, 50.0), Some(31));
        assert_eq!(p.percentile_ns(0, 99.0), Some(31));
        assert_eq!(p.percentile_ns(0, 100.0), Some(8191));
        assert_eq!(p.percentile_ns(1, 50.0), Some(0));
        assert_eq!(p.percentile_ns(1, 0.0), Some(0), "p0 resolves to the first sample");
    }

    #[test]
    fn empty_class_has_no_percentile() {
        let p = EngineProbe::new(&["only"]);
        assert_eq!(p.percentile_ns(0, 50.0), None);
    }

    #[test]
    fn queue_gauges_track_high_water() {
        let mut p = EngineProbe::new(&[]);
        p.queue_sample(10, [1, 2, 3, 6, 8], 40, 5, 7);
        p.queue_sample(4, [0, 0, 0, 2, 1], 40, 39, 0);
        let mut snap = Snapshot::default();
        p.append_to(&mut snap);
        assert_eq!(snap.gauge("probe.queue.heap"), Some((4, 10)));
        assert_eq!(snap.gauge("probe.queue.lane_ctrl_oob"), Some((0, 3)));
        assert_eq!(snap.gauge("probe.queue.lane_tx"), Some((2, 6)));
        assert_eq!(snap.gauge("probe.queue.lane_inbound"), Some((1, 8)));
        assert_eq!(snap.gauge("probe.pool.free"), Some((39, 39)));
        assert_eq!(snap.gauge("probe.ctrl.backlog_frames"), Some((0, 7)));
    }

    #[test]
    fn snapshot_entries_are_named_by_label() {
        let mut p = EngineProbe::new(&["arrive"]);
        p.record(0, 100);
        p.pushes_inline = 3;
        p.pushes_pooled = 2;
        p.pool_grown = 1;
        p.lane_diverted = [4, 0, 0, 9, 2];
        let mut snap = Snapshot::default();
        p.append_to(&mut snap);
        assert_eq!(snap.counter("probe.dispatch.arrive.count"), Some(1));
        assert_eq!(snap.counter("probe.dispatch.arrive.sum_ns"), Some(100));
        assert_eq!(snap.counter("probe.dispatch.arrive.p50_ns"), Some(127));
        assert_eq!(snap.counter("probe.pool.pushes_inline"), Some(3));
        assert_eq!(snap.counter("probe.pool.pushes_pooled"), Some(2));
        assert_eq!(snap.counter("probe.pool.grown"), Some(1));
        assert_eq!(snap.counter("probe.queue.lane_arrive.diverted"), Some(4));
        assert_eq!(snap.counter("probe.queue.lane_ctrl_oob.diverted"), Some(0));
        assert_eq!(snap.counter("probe.queue.lane_tx.diverted"), Some(9));
        assert_eq!(snap.counter("probe.queue.lane_inbound.diverted"), Some(2));
    }
}
