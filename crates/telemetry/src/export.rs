//! Chrome trace-event export: renders timeline samplers, flow spans, and
//! flight-recorder events as a JSON trace loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Mapping onto the trace-event model:
//!
//! * sampler tracks → counter events (`"ph":"C"`), one counter track per
//!   sampler track, grouped under the owning node's process;
//! * flow spans → async nestable spans (`"ph":"b"` / `"ph":"e"`,
//!   `cat:"flow"`), begun at flow start and closed at finish — or at the
//!   horizon, tagged `"outcome":"stalled-at-end"`;
//! * flight-recorder events → instant events (`"ph":"i"`) for the sparse
//!   kinds (stage crossings, hold-and-wait enter/exit, drops, rate
//!   changes); the dense kinds (enqueue/deliver/ctrl) are already
//!   summarized by the counter tracks and are skipped.
//!
//! Timestamps are microseconds (the trace-event unit); one simulated
//! picosecond is 1e-6 µs, so sub-microsecond structure survives as
//! fractional timestamps. JSON is hand-rolled, as in
//! [`Snapshot::to_json`](crate::Snapshot::to_json): the workspace has no
//! serialization dependency.

use crate::causal::CausalReport;
use crate::recorder::{EventRecord, RecordKind};
use crate::registry::json_str;
use crate::timeline::{FlowSpan, FlowSpans, SamplerSet, SpanOutcome};
use std::fmt::Write as _;

/// Builder for one Chrome trace-event JSON document.
///
/// Feed it any combination of samplers, spans, recorder events, and
/// process labels, then render with [`ChromeTrace::to_json`].
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
    counter_events: usize,
    span_begins: usize,
    span_ends: usize,
    instant_events: usize,
    flow_arrows: usize,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Label node `pid`'s process track (`"ph":"M"` metadata).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_str(name)
        ));
    }

    /// One counter sample on track `name` under node `pid`; `unit` is the
    /// series key shown in the counter's args.
    pub fn counter(&mut self, t_ps: u64, pid: u32, name: &str, unit: &str, value: f64) {
        self.events.push(format!(
            "{{\"ph\":\"C\",\"name\":{},\"pid\":{pid},\"tid\":0,\"ts\":{},\
             \"args\":{{{}:{}}}}}",
            json_str(name),
            ts_us(t_ps),
            json_str(unit),
            json_f64(value),
        ));
        self.counter_events += 1;
    }

    /// Render every sampler track as a counter track under its node.
    pub fn add_samplers(&mut self, samplers: &SamplerSet) {
        for (idx, meta) in samplers.tracks().iter().enumerate() {
            let unit = meta.kind.unit();
            for (t_ps, v) in samplers.series(idx) {
                self.counter(t_ps, meta.node, &meta.name, unit, v);
            }
        }
    }

    /// Render every flow span as an async nestable span under its source
    /// node; unfinished spans are closed at `horizon_ps` and tagged with
    /// their [`SpanOutcome`].
    pub fn add_spans(&mut self, spans: &FlowSpans, horizon_ps: u64) {
        for span in spans.spans() {
            self.add_span(span, spans.outcome(span, horizon_ps), horizon_ps);
        }
    }

    fn add_span(&mut self, s: &FlowSpan, outcome: SpanOutcome, horizon_ps: u64) {
        let name = json_str(&format!("flow {} {}->{}", s.id, s.src, s.dst));
        let common = format!("\"cat\":\"flow\",\"id\":\"0x{:x}\",\"pid\":{}", s.id, s.src);
        let bytes = match s.bytes {
            Some(b) => b.to_string(),
            None => "\"inf\"".to_owned(),
        };
        self.events.push(format!(
            "{{\"ph\":\"b\",\"name\":{name},{common},\"tid\":0,\"ts\":{},\
             \"args\":{{\"dst\":{},\"prio\":{},\"bytes\":{bytes},\"path_links\":{}}}}}",
            ts_us(s.start_ps),
            s.dst,
            s.prio,
            s.path_links,
        ));
        self.span_begins += 1;
        let (end_ps, verdict) = match outcome {
            SpanOutcome::Finished => (s.end_ps.unwrap_or(horizon_ps), "\"finished\"".to_owned()),
            SpanOutcome::StalledAtEnd { idle_ps } => {
                (horizon_ps, format!("\"stalled-at-end\",\"idle_ps\":{idle_ps}"))
            }
        };
        self.events.push(format!(
            "{{\"ph\":\"e\",\"name\":{name},{common},\"tid\":0,\"ts\":{},\
             \"args\":{{\"delivered\":{},\"stalls\":{},\"stall_ps\":{},\"outcome\":{verdict}}}}}",
            ts_us(end_ps),
            s.delivered,
            s.stalls,
            s.stall_ps,
        ));
        self.span_ends += 1;
    }

    /// Render the sparse flight-recorder kinds as instant events (thread
    /// = port); returns how many were emitted.
    pub fn add_recorder_events<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a EventRecord>,
    ) -> usize {
        let mut emitted = 0;
        for r in records {
            let (name, detail) = match r.kind {
                RecordKind::StageCross { stage } => ("stage-cross", format!("\"stage\":{stage}")),
                RecordKind::PauseEnter => ("hold-enter", String::new()),
                RecordKind::PauseExit => ("hold-exit", String::new()),
                RecordKind::Drop { bytes } => ("drop", format!("\"bytes\":{bytes}")),
                RecordKind::RateChange { bps } => ("rate-change", format!("\"bps\":{bps}")),
                RecordKind::Enqueue { .. }
                | RecordKind::Deliver { .. }
                | RecordKind::CtrlTx { .. }
                | RecordKind::CtrlRx { .. } => continue,
            };
            let mut args = format!("\"prio\":{}", r.prio);
            if !detail.is_empty() {
                let _ = write!(args, ",{detail}");
            }
            self.events.push(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{name}\",\"pid\":{},\"tid\":{},\
                 \"ts\":{},\"args\":{{{args}}}}}",
                r.node,
                r.port,
                ts_us(r.t_ps),
            ));
            emitted += 1;
            self.instant_events += 1;
        }
        emitted
    }

    /// One Perfetto flow arrow (`"ph":"s"` / `"ph":"f"` pair) from
    /// `(src_pid, src_tid)` at `src_ps` to `(dst_pid, dst_tid)` at
    /// `dst_ps`; `id` must be unique per arrow within `cat`.
    pub fn flow_arrow(
        &mut self,
        cat: &str,
        name: &str,
        id: u64,
        src: (u32, u32, u64),
        dst: (u32, u32, u64),
    ) {
        let (src_pid, src_tid, src_ps) = src;
        let (dst_pid, dst_tid, dst_ps) = dst;
        let head =
            format!("\"cat\":{},\"name\":{},\"id\":\"0x{id:x}\"", json_str(cat), json_str(name));
        self.events.push(format!(
            "{{\"ph\":\"s\",{head},\"pid\":{src_pid},\"tid\":{src_tid},\"ts\":{}}}",
            ts_us(src_ps),
        ));
        self.events.push(format!(
            "{{\"ph\":\"f\",\"bp\":\"e\",{head},\"pid\":{dst_pid},\"tid\":{dst_tid},\"ts\":{}}}",
            ts_us(dst_ps.max(src_ps)),
        ));
        self.flow_arrows += 1;
    }

    /// Render a causal report: one async span per backpressure episode
    /// (`cat:"causal"`, thread = port) and one flow arrow per
    /// parent→child propagation edge, linking cause to effect.
    pub fn add_causal(&mut self, report: &CausalReport) {
        for e in &report.episodes {
            let name = json_str(&format!(
                "{} {} d={}",
                if e.hard { "pause" } else { "throttle" },
                e.label(),
                e.depth
            ));
            let common = format!(
                "\"cat\":\"causal\",\"id\":\"0xc{:x}\",\"pid\":{},\"tid\":{}",
                e.id, e.node, e.port
            );
            self.events.push(format!(
                "{{\"ph\":\"b\",\"name\":{name},{common},\"ts\":{},\
                 \"args\":{{\"prio\":{},\"hard\":{},\"root\":{},\"depth\":{}}}}}",
                ts_us(e.start_ps),
                e.prio,
                e.hard,
                e.root,
                e.depth,
            ));
            self.span_begins += 1;
            self.events.push(format!(
                "{{\"ph\":\"e\",\"name\":{name},{common},\"ts\":{},\"args\":{{}}}}",
                ts_us(e.end_ps.unwrap_or(report.horizon_ps)),
            ));
            self.span_ends += 1;
        }
        for e in &report.episodes {
            if let Some(p) = e.parent {
                let parent = &report.episodes[p as usize];
                self.flow_arrow(
                    "causal",
                    "backpressure",
                    u64::from(e.id),
                    (parent.node, u32::from(parent.port), e.start_ps),
                    (e.node, u32::from(e.port), e.start_ps),
                );
            }
        }
    }

    /// Number of flow arrows emitted so far.
    pub fn flow_arrows(&self) -> usize {
        self.flow_arrows
    }

    /// Number of counter events emitted so far.
    pub fn counter_events(&self) -> usize {
        self.counter_events
    }

    /// Number of async span begin events emitted so far.
    pub fn span_begins(&self) -> usize {
        self.span_begins
    }

    /// Number of async span end events emitted so far (always paired
    /// with begins by this builder).
    pub fn span_ends(&self) -> usize {
        self.span_ends
    }

    /// Number of instant events emitted so far.
    pub fn instant_events(&self) -> usize {
        self.instant_events
    }

    /// Total events (including metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Render the JSON document (`{"displayTimeUnit":…,"traceEvents":[…]}`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(e);
            out.push_str(if i + 1 == self.events.len() { "\n" } else { ",\n" });
        }
        out.push_str("]}\n");
        out
    }
}

/// Picoseconds → trace-event microseconds.
fn ts_us(t_ps: u64) -> String {
    json_f64(t_ps as f64 / 1e6)
}

/// Render a finite f64 as a JSON number (Rust's `Display` for finite
/// floats never emits exponents, so the output is JSON-safe); non-finite
/// values fall back to 0 rather than poisoning the document.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::CtrlClass;
    use crate::timeline::{TrackKind, TrackMeta};

    #[test]
    fn counters_from_sampler_tracks() {
        let mut s = SamplerSet::new(1_000_000, 100);
        s.track(TrackMeta {
            name: "S1:p0 ingress".into(),
            node: 1,
            port: 0,
            kind: TrackKind::IngressOccupancy,
        });
        s.sample(0, &[12.0]);
        s.sample(1_000_000, &[34.5]);
        let mut tr = ChromeTrace::new();
        tr.process_name(1, "S1");
        tr.add_samplers(&s);
        assert_eq!(tr.counter_events(), 2);
        let json = tr.to_json();
        assert!(json.contains("\"ph\":\"C\""), "json: {json}");
        assert!(json.contains("\"name\":\"S1:p0 ingress\""));
        assert!(json.contains("\"ts\":1,\"args\":{\"bytes\":34.5}"), "json: {json}");
        assert!(json.contains("\"process_name\""));
    }

    #[test]
    fn spans_close_finished_and_stalled() {
        let mut fs = FlowSpans::new(100);
        fs.on_start(1, 0, 2, 0, Some(1000), 3, 0);
        fs.on_delivery(1, 1000, 5_000_000);
        fs.on_finish(1, 5_000_000);
        fs.on_start(2, 1, 3, 0, None, 2, 0);
        let mut tr = ChromeTrace::new();
        tr.add_spans(&fs, 10_000_000);
        assert_eq!(tr.span_begins(), 2);
        assert_eq!(tr.span_ends(), 2);
        let json = tr.to_json();
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"outcome\":\"finished\""));
        assert!(json.contains("\"outcome\":\"stalled-at-end\""));
        assert!(json.contains("\"bytes\":\"inf\""));
        assert!(json.contains("\"id\":\"0x2\""));
    }

    #[test]
    fn recorder_instants_filter_dense_kinds() {
        let recs = [
            EventRecord {
                t_ps: 10,
                node: 0,
                port: 1,
                prio: 0,
                kind: RecordKind::StageCross { stage: 2 },
            },
            EventRecord { t_ps: 20, node: 0, port: 1, prio: 0, kind: RecordKind::PauseEnter },
            EventRecord {
                t_ps: 30,
                node: 0,
                port: 1,
                prio: 0,
                kind: RecordKind::Enqueue { bytes: 1, occupancy: 1 },
            },
            EventRecord {
                t_ps: 40,
                node: 0,
                port: 1,
                prio: 0,
                kind: RecordKind::CtrlRx { ctrl: CtrlClass::Pause },
            },
        ];
        let mut tr = ChromeTrace::new();
        let n = tr.add_recorder_events(recs.iter());
        assert_eq!(n, 2);
        assert_eq!(tr.instant_events(), 2);
        let json = tr.to_json();
        assert!(json.contains("\"name\":\"stage-cross\""));
        assert!(json.contains("\"stage\":2"));
        assert!(!json.contains("enqueue"));
    }

    #[test]
    fn causal_report_renders_spans_and_arrows() {
        use crate::causal::{CausalTracker, CtrlSense};
        let mut t = CausalTracker::new(100);
        let root = t.on_ctrl_tx(1_000_000, 2, 0, 0, CtrlSense::AssertHard, None);
        t.on_ctrl_apply(1, 3, 0, root);
        t.on_ctrl_tx(2_000_000, 1, 0, 0, CtrlSense::AssertHard, Some(3));
        let r = t.report(5_000_000, &[]);
        let mut tr = ChromeTrace::new();
        tr.add_causal(&r);
        assert_eq!(tr.span_begins(), 2);
        assert_eq!(tr.span_ends(), 2);
        assert_eq!(tr.flow_arrows(), 1);
        let json = tr.to_json();
        assert!(json.contains("\"cat\":\"causal\""), "json: {json}");
        assert!(json.contains("\"ph\":\"s\""), "json: {json}");
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\""), "json: {json}");
        assert!(json.contains("pause n2:p0/0 d=0"), "json: {json}");
        assert!(json.contains("\"hard\":true"), "json: {json}");
    }

    #[test]
    fn json_document_shape() {
        let tr = ChromeTrace::new();
        assert!(tr.is_empty());
        assert_eq!(tr.to_json(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(1.25), "1.25");
    }
}
