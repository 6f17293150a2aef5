//! Timeline layer: periodic samplers and per-flow spans.
//!
//! Snapshots and the flight recorder answer *what happened by the end*
//! and *what happened just before the end*; the timeline answers *how
//! the run unfolded*. Two pieces:
//!
//! * [`SamplerSet`] — fixed-cadence per-port time series (ingress
//!   occupancy, assigned limiter rate, hold-and-wait state, link
//!   utilization) in compact columnar buffers. Memory is bounded: when a
//!   track exceeds its sample budget the whole set is decimated by two
//!   and the cadence doubles, so an arbitrarily long run costs a fixed
//!   number of samples at progressively coarser resolution.
//! * [`FlowSpans`] — one [`FlowSpan`] per flow from start to finish (or
//!   to the end of the run), accumulating delivery-gap stall time. Every
//!   flow classifies into exactly one [`SpanOutcome`].
//!
//! [`TimeSeries`] is the step-semantics `(t, value)` series the figures
//! compute on (time-weighted means, extremes, decimation).
//!
//! Samplers and spans render to Chrome trace-event JSON through
//! [`export::ChromeTrace`](crate::export::ChromeTrace) and to CSV for
//! plotting (the Fig. 13-style occupancy curves).

use std::collections::HashMap;
use std::fmt::Write as _;

/// What the timeline records. Embedded in
/// [`TelemetryConfig`](crate::TelemetryConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineConfig {
    /// Sampler cadence in picoseconds; 0 disables the samplers. See
    /// DESIGN.md §10 for choosing a cadence relative to the feedback
    /// latency `τ` and period `T`.
    pub sample_period_ps: u64,
    /// Per-track sample budget (≥ 2). When exceeded, every track is
    /// decimated by two and the effective cadence doubles, bounding
    /// memory over arbitrarily long runs.
    pub max_samples: usize,
    /// Track per-flow spans (start/finish/stall intervals).
    pub spans: bool,
    /// Delivery gap beyond which a flow counts as stalled, picoseconds.
    /// 0 selects a default of 100 µs.
    pub stall_gap_ps: u64,
}

impl TimelineConfig {
    /// Timeline off (the default inside `TelemetryConfig::default()`).
    pub fn off() -> TimelineConfig {
        TimelineConfig { sample_period_ps: 0, max_samples: 4096, spans: false, stall_gap_ps: 0 }
    }

    /// Samplers at 10 µs cadence plus spans — the single-run debugging
    /// configuration (`TelemetryConfig::full()` uses this).
    pub fn full() -> TimelineConfig {
        TimelineConfig {
            sample_period_ps: 10_000_000, // 10 µs
            max_samples: 4096,
            spans: true,
            stall_gap_ps: 0,
        }
    }

    /// Whether the periodic samplers are on.
    pub fn sampling(&self) -> bool {
        self.sample_period_ps > 0
    }

    /// The stall-gap threshold with the default applied.
    pub fn stall_gap_or_default(&self) -> u64 {
        if self.stall_gap_ps == 0 {
            100_000_000 // 100 µs
        } else {
            self.stall_gap_ps
        }
    }
}

impl Default for TimelineConfig {
    fn default() -> TimelineConfig {
        TimelineConfig::off()
    }
}

/// What a sampler track measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackKind {
    /// Ingress buffer occupancy, bytes (summed across priorities).
    IngressOccupancy,
    /// Assigned egress-limiter rate, bits per second (priority 0).
    AssignedRate,
    /// Hold-and-wait state: 1 while the egress is hard-blocked (paused /
    /// credit-starved) with backlog, else 0 (priority 0).
    HoldState,
    /// Link utilization over the last sample interval, in [0, 1].
    LinkUtilization,
}

impl TrackKind {
    /// Unit label used in track names and counter args.
    pub fn unit(&self) -> &'static str {
        match self {
            TrackKind::IngressOccupancy => "bytes",
            TrackKind::AssignedRate => "bps",
            TrackKind::HoldState => "state",
            TrackKind::LinkUtilization => "ratio",
        }
    }

    /// Short suffix used in track names.
    pub fn suffix(&self) -> &'static str {
        match self {
            TrackKind::IngressOccupancy => "ingress",
            TrackKind::AssignedRate => "rate",
            TrackKind::HoldState => "hold",
            TrackKind::LinkUtilization => "util",
        }
    }
}

/// Identity and labeling of one sampler track.
#[derive(Debug, Clone)]
pub struct TrackMeta {
    /// Display name, e.g. `"S1:p2 ingress"`.
    pub name: String,
    /// Node the observation point lives on.
    pub node: u32,
    /// Port index on that node.
    pub port: u16,
    /// What the track measures.
    pub kind: TrackKind,
}

/// Fixed-cadence columnar time series over a set of tracks.
///
/// All tracks share one timestamp column; a sample tick appends one value
/// per track. See the module docs for the decimation contract.
#[derive(Debug, Clone)]
pub struct SamplerSet {
    period_ps: u64,
    max_samples: usize,
    decimations: u32,
    t_ps: Vec<u64>,
    tracks: Vec<TrackMeta>,
    /// `values[track][sample]`, aligned with `t_ps`.
    values: Vec<Vec<f64>>,
}

impl SamplerSet {
    /// A sampler set at `period_ps` cadence keeping at most
    /// `max_samples` samples per track (minimum 2).
    pub fn new(period_ps: u64, max_samples: usize) -> SamplerSet {
        assert!(period_ps > 0, "sampler period must be positive");
        SamplerSet {
            period_ps,
            max_samples: max_samples.max(2),
            decimations: 0,
            t_ps: Vec::new(),
            tracks: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Register one track; must happen before the first [`Self::sample`].
    /// Returns the track's index (its position in every sample row).
    pub fn track(&mut self, meta: TrackMeta) -> usize {
        assert!(self.t_ps.is_empty(), "register tracks before sampling");
        self.tracks.push(meta);
        self.values.push(Vec::new());
        self.tracks.len() - 1
    }

    /// Register the four standard per-port tracks (ingress occupancy,
    /// assigned rate, hold state, link utilization) labeled
    /// `"{label} {suffix}"`. Returns the index of the first.
    pub fn register_port(&mut self, node: u32, port: u16, label: &str) -> usize {
        let first = self.tracks.len();
        for kind in [
            TrackKind::IngressOccupancy,
            TrackKind::AssignedRate,
            TrackKind::HoldState,
            TrackKind::LinkUtilization,
        ] {
            self.track(TrackMeta { name: format!("{label} {}", kind.suffix()), node, port, kind });
        }
        first
    }

    /// The current effective cadence (doubles on each decimation).
    pub fn period_ps(&self) -> u64 {
        self.period_ps
    }

    /// How many times the set has been decimated by two.
    pub fn decimations(&self) -> u32 {
        self.decimations
    }

    /// Registered tracks, in row order.
    pub fn tracks(&self) -> &[TrackMeta] {
        &self.tracks
    }

    /// Shared timestamp column, picoseconds.
    pub fn times(&self) -> &[u64] {
        &self.t_ps
    }

    /// Number of retained samples (per track).
    pub fn len(&self) -> usize {
        self.t_ps.len()
    }

    /// Whether no samples have been taken.
    pub fn is_empty(&self) -> bool {
        self.t_ps.is_empty()
    }

    /// One track's values, aligned with [`Self::times`].
    pub fn track_values(&self, idx: usize) -> &[f64] {
        &self.values[idx]
    }

    /// One track's `(t_ps, value)` points.
    pub fn series(&self, idx: usize) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.t_ps.iter().copied().zip(self.values[idx].iter().copied())
    }

    /// Append one sample row (`row[i]` belongs to track `i`; the length
    /// must match). Timestamps must be non-decreasing. Triggers a
    /// decimation pass when the budget is exceeded.
    pub fn sample(&mut self, t_ps: u64, row: &[f64]) {
        assert_eq!(row.len(), self.tracks.len(), "row length must match track count");
        if let Some(&last) = self.t_ps.last() {
            assert!(t_ps >= last, "samples must be appended in time order");
        }
        self.t_ps.push(t_ps);
        for (col, &v) in self.values.iter_mut().zip(row) {
            col.push(v);
        }
        if self.t_ps.len() > self.max_samples {
            self.decimate();
        }
    }

    /// Drop every other sample (keeping the even indices, so the first
    /// sample survives) and double the cadence.
    fn decimate(&mut self) {
        retain_even(&mut self.t_ps);
        for col in &mut self.values {
            retain_even(col);
        }
        self.period_ps = self.period_ps.saturating_mul(2);
        self.decimations += 1;
    }

    /// Export all tracks as CSV: header `t_ps,<track>,...`, one row per
    /// sample. Track names containing commas or quotes are quoted.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_ps");
        for tr in &self.tracks {
            out.push(',');
            out.push_str(&csv_field(&tr.name));
        }
        out.push('\n');
        for (i, &t) in self.t_ps.iter().enumerate() {
            let _ = write!(out, "{t}");
            for col in &self.values {
                let _ = write!(out, ",{}", col[i]);
            }
            out.push('\n');
        }
        out
    }
}

fn retain_even<T: Copy>(v: &mut Vec<T>) {
    let mut keep = 0;
    for i in (0..v.len()).step_by(2) {
        v[keep] = v[i];
        keep += 1;
    }
    v.truncate(keep);
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// How a flow's span ended. Every span classifies into exactly one
/// variant: [`FlowSpans::outcome`] is total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// The flow delivered its last byte before the horizon.
    Finished,
    /// The flow had not finished by the horizon; `idle_ps` is how long it
    /// had been without a delivery when the run ended (0 if it was still
    /// moving — an infinite source cut off mid-transfer also lands here).
    StalledAtEnd {
        /// Picoseconds since the span's last delivery (or start).
        idle_ps: u64,
    },
}

/// Lifecycle record of one flow on the timeline.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpan {
    /// Flow id (simulator-assigned).
    pub id: u64,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Priority class.
    pub prio: u8,
    /// Payload size; `None` = infinite source.
    pub bytes: Option<u64>,
    /// Number of links on the flow's path.
    pub path_links: u32,
    /// Start instant, ps.
    pub start_ps: u64,
    /// Bytes delivered so far.
    pub delivered: u64,
    /// Last delivery instant, ps (`None` before the first delivery).
    pub last_delivery_ps: Option<u64>,
    /// Completion instant, ps (`None` while unfinished).
    pub end_ps: Option<u64>,
    /// Accumulated stall time: the sum of delivery gaps that exceeded
    /// the configured threshold, ps.
    pub stall_ps: u64,
    /// Number of such stall intervals.
    pub stalls: u32,
}

impl FlowSpan {
    /// Flow completion time, ps, if finished.
    pub fn fct_ps(&self) -> Option<u64> {
        self.end_ps.map(|e| e.saturating_sub(self.start_ps))
    }

    /// The instant of the span's most recent progress (last delivery, or
    /// its start if nothing was delivered yet).
    pub fn last_progress_ps(&self) -> u64 {
        self.last_delivery_ps.unwrap_or(self.start_ps)
    }
}

/// Per-flow span tracking for one run.
///
/// The simulator calls [`Self::on_start`] / [`Self::on_delivery`] /
/// [`Self::on_finish`]; delivery gaps larger than the stall threshold
/// accumulate into [`FlowSpan::stall_ps`].
#[derive(Debug, Clone, Default)]
pub struct FlowSpans {
    stall_gap_ps: u64,
    spans: Vec<FlowSpan>,
    index: HashMap<u64, usize>,
}

impl FlowSpans {
    /// Span tracking with the given stall-gap threshold (ps, > 0).
    pub fn new(stall_gap_ps: u64) -> FlowSpans {
        assert!(stall_gap_ps > 0, "stall gap must be positive");
        FlowSpans { stall_gap_ps, spans: Vec::new(), index: HashMap::new() }
    }

    /// The stall-gap threshold, ps.
    pub fn stall_gap_ps(&self) -> u64 {
        self.stall_gap_ps
    }

    /// A flow started.
    #[allow(clippy::too_many_arguments)] // one scalar per FlowSpan identity field
    pub fn on_start(
        &mut self,
        id: u64,
        src: u32,
        dst: u32,
        prio: u8,
        bytes: Option<u64>,
        path_links: u32,
        t_ps: u64,
    ) {
        let idx = self.spans.len();
        self.spans.push(FlowSpan {
            id,
            src,
            dst,
            prio,
            bytes,
            path_links,
            start_ps: t_ps,
            delivered: 0,
            last_delivery_ps: None,
            end_ps: None,
            stall_ps: 0,
            stalls: 0,
        });
        self.index.insert(id, idx);
    }

    /// `bytes` of the flow arrived at its destination at `t_ps`.
    pub fn on_delivery(&mut self, id: u64, bytes: u64, t_ps: u64) {
        let Some(&idx) = self.index.get(&id) else { return };
        let s = &mut self.spans[idx];
        let gap = t_ps.saturating_sub(s.last_progress_ps());
        if gap > self.stall_gap_ps {
            s.stall_ps += gap;
            s.stalls += 1;
        }
        s.delivered += bytes;
        s.last_delivery_ps = Some(t_ps);
    }

    /// The flow's last byte was delivered at `t_ps`.
    pub fn on_finish(&mut self, id: u64, t_ps: u64) {
        let Some(&idx) = self.index.get(&id) else { return };
        let s = &mut self.spans[idx];
        debug_assert!(s.end_ps.is_none(), "flow {id} finished twice");
        s.end_ps = Some(t_ps);
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[FlowSpan] {
        &self.spans
    }

    /// Look up one flow's span.
    pub fn span(&self, id: u64) -> Option<&FlowSpan> {
        self.index.get(&id).map(|&i| &self.spans[i])
    }

    /// Classify a span at the end of a run that stopped at `horizon_ps`.
    /// Total: every span is exactly one of finished / stalled-at-end.
    pub fn outcome(&self, span: &FlowSpan, horizon_ps: u64) -> SpanOutcome {
        match span.end_ps {
            Some(_) => SpanOutcome::Finished,
            None => SpanOutcome::StalledAtEnd {
                idle_ps: horizon_ps.saturating_sub(span.last_progress_ps()),
            },
        }
    }

    /// `(finished, stalled_at_end)` span counts at `horizon_ps`.
    pub fn outcome_counts(&self, horizon_ps: u64) -> (usize, usize) {
        let mut fin = 0;
        let mut stalled = 0;
        for s in &self.spans {
            match self.outcome(s, horizon_ps) {
                SpanOutcome::Finished => fin += 1,
                SpanOutcome::StalledAtEnd { .. } => stalled += 1,
            }
        }
        (fin, stalled)
    }

    /// FCTs of all finished flows, ps (as f64 for percentile math).
    pub fn fcts_ps(&self) -> Vec<f64> {
        self.spans.iter().filter_map(|s| s.fct_ps().map(|f| f as f64)).collect()
    }

    /// Accumulated stall time of every span, ps.
    pub fn stall_times_ps(&self) -> Vec<f64> {
        self.spans.iter().map(|s| s.stall_ps as f64).collect()
    }
}

/// An append-only `(time_ps, value)` series with step (sample-and-hold)
/// semantics: the figure-side view of one sampler track, a per-flow
/// DCQCN rate trace, or a binned throughput meter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    /// Samples in non-decreasing time order.
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample; panics if time goes backwards.
    pub fn push(&mut self, t_ps: u64, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t_ps >= last, "time series must be appended in order");
        }
        self.points.push((t_ps, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The raw samples.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Last sample value, if any.
    pub fn last(&self) -> Option<(u64, f64)> {
        self.points.last().copied()
    }

    /// The value in force at `t_ps` under step (sample-and-hold)
    /// semantics; `None` before the first sample.
    pub fn value_at(&self, t_ps: u64) -> Option<f64> {
        match self.points.binary_search_by(|&(t, _)| t.cmp(&t_ps)) {
            Ok(mut i) => {
                // Several samples may share a timestamp; take the last.
                while i + 1 < self.points.len() && self.points[i + 1].0 == t_ps {
                    i += 1;
                }
                Some(self.points[i].1)
            }
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// Maximum value over the whole series.
    pub fn max(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// Minimum value over the whole series.
    pub fn min(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v))))
    }

    /// Time-weighted mean over `[from_ps, to_ps)` under step semantics.
    /// `None` if the window starts before the first sample.
    pub fn time_weighted_mean(&self, from_ps: u64, to_ps: u64) -> Option<f64> {
        assert!(from_ps < to_ps);
        let mut cur = self.value_at(from_ps)?;
        let mut t = from_ps;
        let mut acc = 0.0;
        for &(ts, v) in self.points.iter().filter(|&&(ts, _)| ts > from_ps && ts < to_ps) {
            acc += cur * (ts - t) as f64;
            cur = v;
            t = ts;
        }
        acc += cur * (to_ps - t) as f64;
        Some(acc / (to_ps - from_ps) as f64)
    }

    /// Keep at most `n` samples by uniform decimation (for report output).
    pub fn decimated(&self, n: usize) -> TimeSeries {
        assert!(n >= 2);
        if self.points.len() <= n {
            return self.clone();
        }
        let step = (self.points.len() - 1) as f64 / (n - 1) as f64;
        let points = (0..n).map(|i| self.points[(i as f64 * step).round() as usize]).collect();
        TimeSeries { points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(name: &str) -> TrackMeta {
        TrackMeta { name: name.to_owned(), node: 0, port: 0, kind: TrackKind::IngressOccupancy }
    }

    #[test]
    fn sampler_records_in_registration_order() {
        let mut s = SamplerSet::new(10, 100);
        s.track(meta("a"));
        s.track(meta("b"));
        s.sample(0, &[1.0, 2.0]);
        s.sample(10, &[3.0, 4.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.series(0).collect::<Vec<_>>(), vec![(0, 1.0), (10, 3.0)]);
        assert_eq!(s.series(1).collect::<Vec<_>>(), vec![(0, 2.0), (10, 4.0)]);
    }

    #[test]
    fn downsampling_bounds_memory_and_doubles_cadence() {
        // Feed the sampler the way the scheduler does: at its (adaptive)
        // cadence. A long run then costs a bounded number of samples at
        // progressively coarser resolution.
        let mut s = SamplerSet::new(1, 8);
        s.track(meta("a"));
        let mut t = 0u64;
        while t < 100_000 {
            s.sample(t, &[t as f64]);
            assert!(s.len() <= 8, "budget exceeded at t={t}: {}", s.len());
            t += s.period_ps();
        }
        assert!(s.decimations() >= 10, "expected repeated decimation, got {}", s.decimations());
        assert_eq!(s.period_ps(), 1 << s.decimations());
        // The first sample survives every decimation; order is preserved.
        let pts: Vec<(u64, f64)> = s.series(0).collect();
        assert_eq!(pts[0], (0, 0.0));
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn hammering_past_the_cadence_still_stays_bounded() {
        // Even a caller that ignores the adaptive cadence cannot grow the
        // buffers or overflow the period.
        let mut s = SamplerSet::new(u64::MAX / 2, 4);
        s.track(meta("a"));
        for t in 0..1000u64 {
            s.sample(t, &[0.0]);
            assert!(s.len() <= 4);
        }
        assert_eq!(s.period_ps(), u64::MAX);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut s = SamplerSet::new(10, 100);
        s.track(meta("S1:p0 ingress"));
        s.track(meta("weird,name"));
        s.sample(0, &[5.0, 1.5]);
        let csv = s.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("t_ps,S1:p0 ingress,\"weird,name\""));
        assert_eq!(lines.next(), Some("0,5,1.5"));
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn sampler_rejects_wrong_row_length() {
        let mut s = SamplerSet::new(10, 100);
        s.track(meta("a"));
        s.sample(0, &[1.0, 2.0]);
    }

    #[test]
    fn span_lifecycle_and_stalls() {
        let mut fs = FlowSpans::new(100);
        fs.on_start(7, 0, 1, 0, Some(3000), 2, 0);
        fs.on_delivery(7, 1000, 50); // gap 50 ≤ 100: not a stall
        fs.on_delivery(7, 1000, 400); // gap 350 > 100: stall
        fs.on_delivery(7, 1000, 450);
        fs.on_finish(7, 450);
        let s = fs.span(7).unwrap();
        assert_eq!(s.delivered, 3000);
        assert_eq!(s.fct_ps(), Some(450));
        assert_eq!(s.stalls, 1);
        assert_eq!(s.stall_ps, 350);
        assert_eq!(fs.outcome(s, 1000), SpanOutcome::Finished);
    }

    #[test]
    fn every_span_has_exactly_one_outcome() {
        let mut fs = FlowSpans::new(100);
        fs.on_start(1, 0, 1, 0, Some(10), 1, 0);
        fs.on_delivery(1, 10, 20);
        fs.on_finish(1, 20);
        fs.on_start(2, 1, 0, 0, None, 1, 0); // infinite, never finishes
        fs.on_delivery(2, 10, 600);
        fs.on_start(3, 2, 0, 0, Some(10), 1, 0); // never delivers at all
        let (fin, stalled) = fs.outcome_counts(1000);
        assert_eq!((fin, stalled), (1, 2));
        assert_eq!(
            fs.outcome(fs.span(2).unwrap(), 1000),
            SpanOutcome::StalledAtEnd { idle_ps: 400 }
        );
        assert_eq!(
            fs.outcome(fs.span(3).unwrap(), 1000),
            SpanOutcome::StalledAtEnd { idle_ps: 1000 }
        );
    }

    #[test]
    fn config_presets() {
        assert!(!TimelineConfig::off().sampling());
        assert!(TimelineConfig::full().sampling());
        assert!(TimelineConfig::full().spans);
        assert_eq!(TimelineConfig::off().stall_gap_or_default(), 100_000_000);
        let explicit = TimelineConfig { stall_gap_ps: 7, ..TimelineConfig::off() };
        assert_eq!(explicit.stall_gap_or_default(), 7);
    }

    fn steps() -> TimeSeries {
        let mut s = TimeSeries::new();
        s.push(0, 1.0);
        s.push(100, 2.0);
        s.push(200, 4.0);
        s
    }

    #[test]
    fn step_lookup() {
        let s = steps();
        assert_eq!(s.value_at(0), Some(1.0));
        assert_eq!(s.value_at(99), Some(1.0));
        assert_eq!(s.value_at(100), Some(2.0));
        assert_eq!(s.value_at(1000), Some(4.0));
    }

    #[test]
    fn duplicate_timestamps_take_last() {
        let mut s = TimeSeries::new();
        s.push(10, 1.0);
        s.push(10, 2.0);
        s.push(10, 3.0);
        assert_eq!(s.value_at(10), Some(3.0));
        assert_eq!(s.value_at(11), Some(3.0));
    }

    #[test]
    fn before_first_is_none() {
        let mut s = TimeSeries::new();
        s.push(50, 9.0);
        assert_eq!(s.value_at(49), None);
    }

    #[test]
    fn time_weighted_mean_steps() {
        let s = steps();
        // [0,200): 1.0 for 100, 2.0 for 100 → 1.5.
        assert_eq!(s.time_weighted_mean(0, 200), Some(1.5));
        // [150,250): 2.0 for 50, 4.0 for 50 → 3.0.
        assert_eq!(s.time_weighted_mean(150, 250), Some(3.0));
    }

    #[test]
    fn extremes() {
        let s = steps();
        assert_eq!(s.max(), Some(4.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(TimeSeries::new().max(), None);
    }

    #[test]
    fn decimation_keeps_endpoints() {
        let mut s = TimeSeries::new();
        for i in 0..1000u64 {
            s.push(i, i as f64);
        }
        let d = s.decimated(10);
        assert_eq!(d.len(), 10);
        assert_eq!(d.points()[0], (0, 0.0));
        assert_eq!(d.points()[9], (999, 999.0));
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn rejects_time_travel() {
        let mut s = TimeSeries::new();
        s.push(10, 1.0);
        s.push(9, 1.0);
    }
}
