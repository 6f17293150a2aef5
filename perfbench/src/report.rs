//! Metric names, units and the result line the benchmark prints last.

use std::fmt::Write as _;

/// A reported metric's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
}

fn spec(name: &str, unit: &'static str) -> MetricSpec {
    MetricSpec { name: name.to_owned(), unit }
}

/// The end-to-end metrics (untraced runs), in report order.
pub fn end_to_end() -> Vec<MetricSpec> {
    vec![
        spec("run_s", "s"),
        spec("events_per_s", "1/s"),
        spec("setup_s", "s"),
        spec("peak_rss_mb", "MB"),
        spec("goodput_gbps", "Gb/s"),
        spec("pass_share", "share"),
    ]
}

/// Event classes whose dispatch profile the traced pass reports.
pub const DISPATCH_CLASSES: [&str; 7] =
    ["arrive", "ctrl_apply", "tx_kick", "tx_complete", "host_tick", "source_done", "monitor_tick"];

/// The per-layer metrics (traced pass), in report order.
pub fn per_layer() -> Vec<MetricSpec> {
    let mut v = vec![
        spec("network.new_s", "s"),
        spec("network.start_s", "s"),
        spec("network.slice_ms.p50", "ms"),
        spec("network.slice_ms.p99", "ms"),
        spec("network.events", "count"),
        spec("event.push_pop_ns", "ns"),
        spec("event.replay_ops", "count"),
        spec("event.heap_hwm", "count"),
        spec("event.lane_arrive_hwm", "count"),
        spec("event.lane_ctrl_hwm", "count"),
        spec("event.pool_grown", "count"),
        spec("event.inline_share", "share"),
    ];
    for class in DISPATCH_CLASSES {
        v.push(spec(&format!("dispatch.{class}.count"), "count"));
        v.push(spec(&format!("dispatch.{class}.p50_ns"), "ns"));
        v.push(spec(&format!("dispatch.{class}.sum_ms"), "ms"));
    }
    v.extend([
        spec("fc.rx_update_ns", "ns"),
        spec("fc.tx_ctrl_ns", "ns"),
        spec("fc.tx_gate_ns", "ns"),
        spec("fc.replay_ops", "count"),
        spec("fc.ctrl_msgs", "count"),
        spec("fc.ctrl_per_kpkt", "1/kpkt"),
        spec("fc.pause_rx", "count"),
        spec("fc.stage_rx", "count"),
        spec("fc.hold_and_wait", "count"),
        spec("limiter.gate_ns", "ns"),
        spec("limiter.replay_ops", "count"),
        spec("limiter.paced_share", "share"),
        spec("limiter.blocked_share", "share"),
        spec("routing.cold_us", "us"),
        spec("routing.warm_ns", "ns"),
        spec("routing.lookups", "count"),
        spec("topology.depgraph_ms", "ms"),
        spec("verify.preflight_s", "s"),
        spec("workload.sample_ns", "ns"),
        spec("flowgen.flows_started", "count"),
        spec("flowgen.flows_finished", "count"),
        spec("trace_overhead", "share"),
        spec("telemetry.metrics_overhead", "share"),
        spec("shard.speedup_w2", "x"),
        spec("shard.w1_overhead", "share"),
        spec("shard.new_s", "s"),
        spec("shard.rss_ratio", "x"),
        spec("shard.domain_events_max_share", "share"),
    ]);
    v
}

/// Whether `name` is a valid metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics` (`name → {value, unit}`, in `specs` order). `value`
/// looks a metric up by name; a spec without a value is a bug.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    specs: &[MetricSpec],
    value: impl Fn(&str) -> Option<f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, s) in specs.iter().enumerate() {
        let v = value(&s.name).unwrap_or_else(|| panic!("metric {} was not measured", s.name));
        let v = if v.is_finite() { v } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", s.name, s.unit)
            .expect("write to String");
    }
    out.push_str("}}");
    out
}
