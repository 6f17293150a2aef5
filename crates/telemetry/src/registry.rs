//! Typed metrics registry with a zero-cost-when-disabled fast path.
//!
//! The simulator registers its counters/gauges/histograms once at
//! construction and then updates them through copyable integer handles
//! ([`CounterId`], [`GaugeId`], [`HistId`]). Every update method starts
//! with a single predictable branch on `enabled`, so a disabled registry
//! costs one comparison per call site — cheap enough to leave the hooks
//! in the event-loop hot path during perf sweeps.
//!
//! [`MetricsRegistry::snapshot`] freezes the current values into a
//! [`Snapshot`], which the embedder may extend with *derived* entries
//! (values it can compute on demand, e.g. delivered bytes from
//! `SimStats`) before exporting to JSON or CSV.

use core::fmt::Write as _;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

#[derive(Debug, Clone, Default)]
struct GaugeState {
    value: u64,
    high_water: u64,
}

#[derive(Debug, Clone)]
struct HistState {
    /// Upper bucket bounds (inclusive), strictly increasing. A value `v`
    /// lands in the first bucket with `v <= bound`; values above the last
    /// bound land in the implicit overflow bucket.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` bucket counts (last is the overflow bucket).
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

/// Registry of named metrics, updated through typed handles.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, GaugeState)>,
    hists: Vec<(String, HistState)>,
}

impl MetricsRegistry {
    /// A registry that records updates.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            enabled: true,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
        }
    }

    /// A registry whose update methods are no-ops (registration still
    /// hands out valid ids, so call sites need no `Option` plumbing).
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry { enabled: false, ..MetricsRegistry::new() }
    }

    /// Whether updates are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Register a counter under `name`. Names should be unique; a
    /// duplicate registration returns a fresh id whose entry shadows
    /// nothing (both appear in the snapshot).
    pub fn counter(&mut self, name: &str) -> CounterId {
        self.counters.push((name.to_owned(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Register a gauge under `name`.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        self.gauges.push((name.to_owned(), GaugeState::default()));
        GaugeId(self.gauges.len() - 1)
    }

    /// Register a histogram under `name` with the given inclusive upper
    /// bucket bounds (must be strictly increasing; an overflow bucket is
    /// added implicitly).
    pub fn histogram(&mut self, name: &str, bounds: &[u64]) -> HistId {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must increase");
        let state = HistState {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        };
        self.hists.push((name.to_owned(), state));
        HistId(self.hists.len() - 1)
    }

    /// Add `by` to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        if self.enabled {
            self.counters[id.0].1 += by;
        }
    }

    /// Set a gauge's current value, tracking its high-water mark.
    #[inline]
    pub fn gauge_set(&mut self, id: GaugeId, value: u64) {
        if self.enabled {
            let g = &mut self.gauges[id.0].1;
            g.value = value;
            g.high_water = g.high_water.max(value);
        }
    }

    /// Ratchet a gauge: keep the maximum of the current value and
    /// `value`, so the gauge *is* its high-water mark. Max is commutative
    /// and associative, which makes such gauges mergeable across shards
    /// of a partitioned run — unlike last-write `gauge_set` values, which
    /// depend on observation order.
    #[inline]
    pub fn gauge_set_max(&mut self, id: GaugeId, value: u64) {
        if self.enabled {
            let g = &mut self.gauges[id.0].1;
            g.value = g.value.max(value);
            g.high_water = g.high_water.max(value);
        }
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistId, value: u64) {
        if self.enabled {
            let h = &mut self.hists[id.0].1;
            let bucket = h.bounds.iter().position(|&b| value <= b).unwrap_or(h.bounds.len());
            h.counts[bucket] += 1;
            h.count += 1;
            h.sum += value;
        }
    }

    /// Freeze the current values into a [`Snapshot`].
    ///
    /// A disabled registry yields an empty snapshot (the embedder may
    /// still append derived entries).
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        if !self.enabled {
            return snap;
        }
        for (name, v) in &self.counters {
            snap.push_counter(name, *v);
        }
        for (name, g) in &self.gauges {
            snap.push_gauge(name, g.value, g.high_water);
        }
        for (name, h) in &self.hists {
            snap.entries.push(MetricEntry {
                name: name.clone(),
                value: MetricValue::Histogram {
                    bounds: h.bounds.clone(),
                    counts: h.counts.clone(),
                    count: h.count,
                    sum: h.sum,
                },
            });
        }
        snap
    }
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

/// A frozen metric value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Instantaneous value plus the high-water mark seen so far.
    Gauge {
        /// Last value set.
        value: u64,
        /// Largest value ever set.
        high_water: u64,
    },
    /// Bucketed distribution.
    Histogram {
        /// Inclusive upper bucket bounds.
        bounds: Vec<u64>,
        /// Per-bucket counts; one longer than `bounds` (overflow last).
        counts: Vec<u64>,
        /// Total number of observations.
        count: u64,
        /// Sum of all observed values.
        sum: u64,
    },
}

/// One named metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    /// Metric name (see [`names`] for the simulator's conventions).
    pub name: String,
    /// Frozen value.
    pub value: MetricValue,
}

/// A point-in-time copy of every metric, plus derived entries appended
/// by the embedder. Exportable as JSON or CSV.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All entries, registry metrics first, derived entries after.
    pub entries: Vec<MetricEntry>,
}

impl Snapshot {
    /// Append a derived counter entry.
    pub fn push_counter(&mut self, name: &str, value: u64) {
        self.entries
            .push(MetricEntry { name: name.to_owned(), value: MetricValue::Counter(value) });
    }

    /// Append a derived gauge entry.
    pub fn push_gauge(&mut self, name: &str, value: u64, high_water: u64) {
        self.entries.push(MetricEntry {
            name: name.to_owned(),
            value: MetricValue::Gauge { value, high_water },
        });
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|e| match &e.value {
            MetricValue::Counter(v) if e.name == name => Some(*v),
            _ => None,
        })
    }

    /// Look up a gauge by name, returning `(value, high_water)`.
    pub fn gauge(&self, name: &str) -> Option<(u64, u64)> {
        self.entries.iter().find_map(|e| match &e.value {
            MetricValue::Gauge { value, high_water } if e.name == name => {
                Some((*value, *high_water))
            }
            _ => None,
        })
    }

    /// The simulated instant this snapshot was taken, in picoseconds
    /// (the [`names::SIM_TIME_PS`] derived entry).
    pub fn t_ps(&self) -> u64 {
        self.counter(names::SIM_TIME_PS).unwrap_or(0)
    }

    /// Aggregate goodput since simulation start, in bits per second:
    /// delivered payload bytes over simulated time.
    pub fn goodput_bps(&self) -> f64 {
        let t = self.t_ps();
        if t == 0 {
            return 0.0;
        }
        let bytes = self.counter(names::DELIVERED_BYTES).unwrap_or(0);
        bytes as f64 * 8.0 / (t as f64 / 1e12)
    }

    /// Aggregate goodput over the window between `earlier` and this
    /// snapshot, in bits per second. Returns 0 for an empty window.
    pub fn delta_goodput_bps(&self, earlier: &Snapshot) -> f64 {
        let dt = self.t_ps().saturating_sub(earlier.t_ps());
        if dt == 0 {
            return 0.0;
        }
        let now = self.counter(names::DELIVERED_BYTES).unwrap_or(0);
        let then = earlier.counter(names::DELIVERED_BYTES).unwrap_or(0);
        now.saturating_sub(then) as f64 * 8.0 / (dt as f64 / 1e12)
    }

    /// Approximate `p`-th percentile (0–100) of a histogram metric,
    /// linearly interpolated inside the containing bucket. Observations
    /// in the overflow bucket resolve to the last bound (a lower bound on
    /// the true value). `None` if the metric is missing, not a histogram,
    /// or empty.
    pub fn percentile(&self, name: &str, p: f64) -> Option<f64> {
        let (bounds, counts, count) = self.entries.iter().find_map(|e| match &e.value {
            MetricValue::Histogram { bounds, counts, count, .. } if e.name == name => {
                Some((bounds, counts, *count))
            }
            _ => None,
        })?;
        if count == 0 {
            return None;
        }
        let rank = (p.clamp(0.0, 100.0) / 100.0) * count as f64;
        let mut seen = 0.0;
        for (i, &c) in counts.iter().enumerate() {
            let next = seen + c as f64;
            if next >= rank && c > 0 {
                let Some(&hi) = bounds.get(i) else {
                    // Overflow bucket: the last finite bound is all we know.
                    return Some(bounds.last().copied().unwrap_or(0) as f64);
                };
                let lo = if i == 0 { 0 } else { bounds[i - 1] };
                let frac = ((rank - seen) / c as f64).clamp(0.0, 1.0);
                return Some(lo as f64 + frac * (hi - lo) as f64);
            }
            seen = next;
        }
        Some(bounds.last().copied().unwrap_or(0) as f64)
    }

    /// One-line human summary: time, delivered bytes, goodput, drops,
    /// control messages, hold-and-wait episodes.
    pub fn brief(&self) -> String {
        format!(
            "t={:.3}ms delivered={}B goodput={:.3}Gbps drops={} ctrl={} hold-and-wait={}",
            self.t_ps() as f64 / 1e9,
            self.counter(names::DELIVERED_BYTES).unwrap_or(0),
            self.goodput_bps() / 1e9,
            self.counter(names::DROPS).unwrap_or(0),
            self.counter(names::CTRL_MSGS).unwrap_or(0),
            self.counter(names::HOLD_AND_WAIT).unwrap_or(0),
        )
    }

    /// Export as a JSON object keyed by metric name.
    ///
    /// Hand-rolled: the build environment's `serde` is an API-stub (see
    /// `vendor/serde`), so derives compile but do not serialize.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, e) in self.entries.iter().enumerate() {
            let _ = write!(out, "  {}: ", json_str(&e.name));
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "{v}");
                }
                MetricValue::Gauge { value, high_water } => {
                    let _ = write!(out, "{{\"value\": {value}, \"high_water\": {high_water}}}");
                }
                MetricValue::Histogram { bounds, counts, count, sum } => {
                    let _ = write!(
                        out,
                        "{{\"bounds\": {}, \"counts\": {}, \"count\": {count}, \"sum\": {sum}}}",
                        json_u64_array(bounds),
                        json_u64_array(counts),
                    );
                }
            }
            out.push_str(if i + 1 == self.entries.len() { "\n" } else { ",\n" });
        }
        out.push('}');
        out
    }

    /// Export as CSV with header `metric,field,value`; gauges contribute
    /// `value`/`high_water` rows, histograms one `le_<bound>` row per
    /// bucket (`le_inf` for overflow) plus `count` and `sum`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,field,value\n");
        for e in &self.entries {
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{},value,{v}", e.name);
                }
                MetricValue::Gauge { value, high_water } => {
                    let _ = writeln!(out, "{},value,{value}", e.name);
                    let _ = writeln!(out, "{},high_water,{high_water}", e.name);
                }
                MetricValue::Histogram { bounds, counts, count, sum } => {
                    for (i, c) in counts.iter().enumerate() {
                        match bounds.get(i) {
                            Some(b) => {
                                let _ = writeln!(out, "{},le_{b},{c}", e.name);
                            }
                            None => {
                                let _ = writeln!(out, "{},le_inf,{c}", e.name);
                            }
                        }
                    }
                    let _ = writeln!(out, "{},count,{count}", e.name);
                    let _ = writeln!(out, "{},sum,{sum}", e.name);
                }
            }
        }
        out
    }
}

/// Nearest-rank `p`-th percentile (0–100) of unsorted `samples`; `None`
/// if empty. The shared primitive behind FCT-span and experiment
/// statistics — use this instead of per-experiment sort-and-index math.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// The p50/p95/p99 triple of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
}

impl Percentiles {
    /// Compute all three from unsorted samples; `None` if empty.
    pub fn of(samples: &[f64]) -> Option<Percentiles> {
        Some(Percentiles {
            p50: percentile(samples, 50.0)?,
            p95: percentile(samples, 95.0)?,
            p99: percentile(samples, 99.0)?,
        })
    }

    /// The same triple with every value multiplied by `k` — unit
    /// conversion for display (e.g. picoseconds to ms with `1e-9`).
    pub fn scaled(&self, k: f64) -> Percentiles {
        Percentiles { p50: self.p50 * k, p95: self.p95 * k, p99: self.p99 * k }
    }
}

impl core::fmt::Display for Percentiles {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "p50={:.3} p95={:.3} p99={:.3}", self.p50, self.p95, self.p99)
    }
}

/// Summary statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Compute over a sample slice; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Summary { n, mean, stddev: var.sqrt(), min, max })
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_u64_array(vals: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// Metric-name constants shared between the simulator (producer) and
/// experiments/examples (consumers), so lookups never drift from the
/// registration site.
pub mod names {
    /// Simulated time of the snapshot, ps (derived).
    pub const SIM_TIME_PS: &str = "sim.time_ps";
    /// Packets delivered to their destination host (derived).
    pub const DELIVERED_PACKETS: &str = "sim.delivered.packets";
    /// Payload bytes delivered to their destination host (derived).
    pub const DELIVERED_BYTES: &str = "sim.delivered.bytes";
    /// Data packets dropped at ingress admission (derived).
    pub const DROPS: &str = "sim.drops";
    /// Control messages received across all ports (derived).
    pub const CTRL_MSGS: &str = "sim.ctrl.msgs";
    /// Control bytes received across all ports (derived).
    pub const CTRL_BYTES: &str = "sim.ctrl.bytes";
    /// Data bytes admitted at switch ingress, all ports (derived).
    pub const INGRESS_BYTES: &str = "sim.ingress.bytes";
    /// Data bytes still queued in the fabric at snapshot time (derived).
    pub const BACKLOG_BYTES: &str = "sim.backlog.bytes";
    /// Hold-and-wait episodes across all senders: pauses honored or
    /// credit starvations entered (derived).
    pub const HOLD_AND_WAIT: &str = "fc.hold_and_wait.episodes";
    /// Feedback messages generated by all flow-control receivers
    /// (derived).
    pub const FEEDBACK_GENERATED: &str = "fc.feedback.generated";
    /// Event-loop events handled per simulated second (derived).
    pub const EVENTS_PER_SIM_SEC: &str = "loop.events_per_sim_sec";

    /// Event-loop events handled.
    pub const EVENTS: &str = "loop.events";
    /// Data packets enqueued at switch ingress.
    pub const ENQUEUES: &str = "sim.enqueue.packets";
    /// PFC Pause frames received.
    pub const PAUSE_RX: &str = "fc.pause.rx";
    /// PFC Resume frames received.
    pub const RESUME_RX: &str = "fc.resume.rx";
    /// GFC stage-feedback frames received.
    pub const STAGE_RX: &str = "fc.stage.rx";
    /// CBFC credit/FCCL wire updates received.
    pub const CREDIT_RX: &str = "fc.credit.rx";
    /// Queue-sample frames received (conceptual GFC).
    pub const SAMPLE_RX: &str = "fc.sample.rx";
    /// Control frames transmitted.
    pub const CTRL_TX: &str = "fc.ctrl.tx";
    /// Wire bytes of PFC Pause frames received.
    pub const PAUSE_RX_BYTES: &str = "fc.pause.rx_bytes";
    /// Wire bytes of PFC Resume frames received.
    pub const RESUME_RX_BYTES: &str = "fc.resume.rx_bytes";
    /// Wire bytes of GFC stage-feedback frames received.
    pub const STAGE_RX_BYTES: &str = "fc.stage.rx_bytes";
    /// Wire bytes of CBFC credit/FCCL updates received.
    pub const CREDIT_RX_BYTES: &str = "fc.credit.rx_bytes";
    /// Wire bytes of queue-sample frames received (0 by construction:
    /// conceptual GFC's samples are out-of-band).
    pub const SAMPLE_RX_BYTES: &str = "fc.sample.rx_bytes";
    /// Wire bytes of control frames transmitted.
    pub const CTRL_TX_BYTES: &str = "fc.ctrl.tx_bytes";
    /// Rate-limiter reassignments observed on control receipt.
    pub const RATE_CHANGES: &str = "fc.rate.changes";
    /// Transmission attempts denied outright (pause in force or zero
    /// credit — the credit-stall counter).
    pub const GATE_BLOCKED: &str = "limiter.gate.blocked";
    /// Transmission attempts deferred by the rate limiter's pacing.
    pub const GATE_PACED: &str = "limiter.gate.paced";
    /// Picoseconds ports spent idle with backlog while gated
    /// (accumulated pacing/pause delay).
    pub const LIMITER_IDLE_PS: &str = "limiter.idle_ps";
    /// Per-port ingress occupancy high-water mark, bytes (gauge).
    pub const INGRESS_HWM: &str = "queue.ingress.high_water_bytes";
    /// Ingress occupancy observed at each enqueue, bytes (histogram).
    pub const OCCUPANCY_HIST: &str = "queue.ingress.occupancy_bytes";
    /// GFC feedback stage observed at each stage-frame receipt
    /// (histogram).
    pub const STAGE_HIST: &str = "fc.stage.values";

    /// Flow spans that finished before the horizon (derived, spans on).
    pub const SPANS_FINISHED: &str = "flow.spans.finished";
    /// Flow spans still unfinished at the horizon (derived, spans on).
    pub const SPANS_STALLED: &str = "flow.spans.stalled_at_end";
    /// Median flow completion time, ps (derived, spans on).
    pub const FCT_P50_PS: &str = "flow.fct.p50_ps";
    /// 95th-percentile flow completion time, ps (derived, spans on).
    pub const FCT_P95_PS: &str = "flow.fct.p95_ps";
    /// 99th-percentile flow completion time, ps (derived, spans on).
    pub const FCT_P99_PS: &str = "flow.fct.p99_ps";
    /// Median FCT slowdown vs. the ideal, in thousandths (derived).
    pub const SLOWDOWN_P50_MILLI: &str = "flow.slowdown.p50_milli";
    /// 95th-percentile slowdown, thousandths (derived).
    pub const SLOWDOWN_P95_MILLI: &str = "flow.slowdown.p95_milli";
    /// 99th-percentile slowdown, thousandths (derived).
    pub const SLOWDOWN_P99_MILLI: &str = "flow.slowdown.p99_milli";
    /// Median accumulated stall time across all spans, ps (derived).
    pub const STALL_P50_PS: &str = "flow.stall.p50_ps";
    /// 95th-percentile stall time, ps (derived).
    pub const STALL_P95_PS: &str = "flow.stall.p95_ps";
    /// 99th-percentile stall time, ps (derived).
    pub const STALL_P99_PS: &str = "flow.stall.p99_ps";

    /// Backpressure episodes recorded (derived, causal layer on).
    pub const CAUSAL_EPISODES: &str = "causal.episodes";
    /// Hard (pause / credit-exhaustion) episodes (derived, causal on).
    pub const CAUSAL_EPISODES_HARD: &str = "causal.episodes.hard";
    /// Pause-propagation trees (derived, causal on).
    pub const CAUSAL_TREES: &str = "causal.trees";
    /// Deepest hard episode across all trees — the scheme-separating
    /// propagation depth (derived, causal on).
    pub const CAUSAL_DEPTH_MAX: &str = "causal.depth.max";
    /// Deepest episode of any kind (derived, causal on).
    pub const CAUSAL_DEPTH_MAX_ALL: &str = "causal.depth.max_all";
    /// Stalled flows blamed on a tree rooted on their own path
    /// (derived, causal on).
    pub const CAUSAL_FLOWS_ROOT: &str = "causal.flows.congestion_root";
    /// Stalled flows blamed on a tree rooted elsewhere — propagation
    /// victims (derived, causal on).
    pub const CAUSAL_FLOWS_VICTIM: &str = "causal.flows.victim";
    /// Stalled flows whose path crosses the forensics wait-for cycle
    /// (derived, causal on).
    pub const CAUSAL_FLOWS_DEADLOCK: &str = "causal.flows.deadlock";
    /// Total stall time blamed on any propagation tree, ps (derived,
    /// causal on).
    pub const CAUSAL_BLAMED_STALL_PS: &str = "causal.stall.blamed_ps";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing_inclusive_bounds_and_overflow() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("h", &[10, 100, 1000]);
        for v in [0, 10, 11, 100, 999, 1000, 1001, 5000] {
            reg.observe(h, v);
        }
        let snap = reg.snapshot();
        let Some(MetricValue::Histogram { bounds, counts, count, sum }) =
            snap.entries.iter().find(|e| e.name == "h").map(|e| e.value.clone())
        else {
            panic!("histogram entry missing");
        };
        assert_eq!(bounds, vec![10, 100, 1000]);
        // 0,10 <= 10; 11,100 <= 100; 999,1000 <= 1000; 1001,5000 overflow.
        assert_eq!(counts, vec![2, 2, 2, 2]);
        assert_eq!(count, 8);
        assert_eq!(sum, 10 + 11 + 100 + 999 + 1000 + 1001 + 5000);
    }

    #[test]
    fn disabled_registry_is_a_no_op() {
        let mut reg = MetricsRegistry::disabled();
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let h = reg.histogram("h", &[1]);
        reg.inc(c, 5);
        reg.gauge_set(g, 7);
        reg.observe(h, 3);
        assert!(!reg.is_enabled());
        assert!(reg.snapshot().entries.is_empty());
    }

    #[test]
    fn gauge_tracks_high_water() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("g");
        reg.gauge_set(g, 10);
        reg.gauge_set(g, 3);
        assert_eq!(reg.snapshot().gauge("g"), Some((3, 10)));
    }

    #[test]
    fn ratcheted_gauge_keeps_the_maximum() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("g");
        reg.gauge_set_max(g, 10);
        reg.gauge_set_max(g, 3);
        assert_eq!(reg.snapshot().gauge("g"), Some((10, 10)), "value must equal the high-water");
    }

    #[test]
    fn snapshot_lookups_and_derived_entries() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("live");
        reg.inc(c, 2);
        let mut snap = reg.snapshot();
        snap.push_counter(names::SIM_TIME_PS, 2_000_000_000_000); // 2 s
        snap.push_counter(names::DELIVERED_BYTES, 250);
        assert_eq!(snap.counter("live"), Some(2));
        assert_eq!(snap.t_ps(), 2_000_000_000_000);
        assert!((snap.goodput_bps() - 1000.0).abs() < 1e-9); // 250 B * 8 / 2 s
    }

    #[test]
    fn delta_goodput_over_window() {
        let mut a = Snapshot::default();
        a.push_counter(names::SIM_TIME_PS, 1_000_000_000_000);
        a.push_counter(names::DELIVERED_BYTES, 100);
        let mut b = Snapshot::default();
        b.push_counter(names::SIM_TIME_PS, 3_000_000_000_000);
        b.push_counter(names::DELIVERED_BYTES, 350);
        // 250 B * 8 bits over 2 s = 1000 bps.
        assert!((b.delta_goodput_bps(&a) - 1000.0).abs() < 1e-9);
        assert_eq!(a.delta_goodput_bps(&a), 0.0);
    }

    #[test]
    fn json_and_csv_exports() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("sim.x");
        let g = reg.gauge("q.hwm");
        let h = reg.histogram("occ", &[8]);
        reg.inc(c, 3);
        reg.gauge_set(g, 4);
        reg.observe(h, 7);
        reg.observe(h, 9);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"sim.x\": 3"), "json was: {json}");
        assert!(json.contains("\"high_water\": 4"));
        assert!(json.contains("\"bounds\": [8]"));
        assert!(json.contains("\"counts\": [1, 1]"));
        let csv = snap.to_csv();
        assert!(csv.starts_with("metric,field,value\n"));
        assert!(csv.contains("sim.x,value,3\n"));
        assert!(csv.contains("q.hwm,high_water,4\n"));
        assert!(csv.contains("occ,le_8,1\n"));
        assert!(csv.contains("occ,le_inf,1\n"));
        assert!(csv.contains("occ,sum,16\n"));
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        // Unsorted input is handled.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        let p = Percentiles::of(&v).unwrap();
        assert_eq!((p.p50, p.p95, p.p99), (50.0, 95.0, 99.0));
        assert_eq!(format!("{p}"), "p50=50.000 p95=95.000 p99=99.000");
    }

    #[test]
    fn percentile_single_sample_and_boundaries() {
        // A single sample answers every percentile, including the p0/p100
        // boundaries and out-of-range requests (clamped).
        assert_eq!(percentile(&[42.0], 0.0), Some(42.0));
        assert_eq!(percentile(&[42.0], 50.0), Some(42.0));
        assert_eq!(percentile(&[42.0], 100.0), Some(42.0));
        assert_eq!(percentile(&[42.0], -5.0), Some(42.0));
        assert_eq!(percentile(&[42.0], 250.0), Some(42.0));
        // Two samples: p0 clamps to the first, p100 to the last; the
        // nearest-rank median of an even set is the lower element.
        assert_eq!(percentile(&[1.0, 9.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 9.0], 50.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 9.0], 50.1), Some(9.0));
        assert_eq!(percentile(&[1.0, 9.0], 100.0), Some(9.0));
    }

    #[test]
    fn snapshot_percentile_empty_and_wrong_kind() {
        let mut reg = MetricsRegistry::new();
        let _h = reg.histogram("empty", &[10, 100]);
        let c = reg.counter("not.a.hist");
        reg.inc(c, 5);
        let snap = reg.snapshot();
        // A registered-but-empty histogram has no percentile.
        assert_eq!(snap.percentile("empty", 50.0), None);
        // Counters and missing names answer None, not a bogus value.
        assert_eq!(snap.percentile("not.a.hist", 50.0), None);
        assert_eq!(snap.percentile("absent", 50.0), None);
    }

    #[test]
    fn snapshot_percentile_single_observation_and_clamping() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("one", &[10, 100]);
        reg.observe(h, 50);
        let snap = reg.snapshot();
        // All percentiles resolve inside the single occupied bucket
        // (10, 100]; p0 sits at its lower edge, p100 at its upper.
        assert_eq!(snap.percentile("one", 0.0), Some(10.0));
        assert_eq!(snap.percentile("one", 100.0), Some(100.0));
        // Out-of-range p is clamped, not an error.
        assert_eq!(snap.percentile("one", -10.0), Some(10.0));
        assert_eq!(snap.percentile("one", 900.0), Some(100.0));
    }

    #[test]
    fn snapshot_percentile_overflow_only_histogram() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("over", &[10, 100]);
        // Every observation beyond the last bound: the overflow bucket is
        // all we have, and each percentile is lower-bounded by the last
        // finite bound rather than invented.
        for v in [500, 1000, 2000] {
            reg.observe(h, v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.percentile("over", 0.0), Some(100.0));
        assert_eq!(snap.percentile("over", 50.0), Some(100.0));
        assert_eq!(snap.percentile("over", 100.0), Some(100.0));
        // The overflow count still shows up in the bucket export.
        let Some(MetricValue::Histogram { counts, count, .. }) =
            snap.entries.iter().find(|e| e.name == "over").map(|e| e.value.clone())
        else {
            panic!("histogram entry missing");
        };
        assert_eq!(counts, vec![0, 0, 3]);
        assert_eq!(count, 3);
    }

    #[test]
    fn snapshot_histogram_percentile_interpolates() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("occ", &[100, 200]);
        // 10 observations ≤ 100, 10 in (100, 200].
        for _ in 0..10 {
            reg.observe(h, 50);
        }
        for _ in 0..10 {
            reg.observe(h, 150);
        }
        let snap = reg.snapshot();
        // Median rank 10 lands exactly at the top of the first bucket.
        assert_eq!(snap.percentile("occ", 50.0), Some(100.0));
        // Rank 15 is halfway through the second bucket.
        assert_eq!(snap.percentile("occ", 75.0), Some(150.0));
        assert_eq!(snap.percentile("missing", 50.0), None);
        // Overflow observations clamp to the last bound.
        reg.observe(h, 1000);
        let snap = reg.snapshot();
        assert_eq!(snap.percentile("occ", 100.0), Some(200.0));
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.stddev - 1.118).abs() < 0.001);
        assert_eq!(Summary::of(&[]), None);
    }
}
