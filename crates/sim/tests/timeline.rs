//! Timeline layer end-to-end: the samplers stay within their memory
//! budget over arbitrarily long runs, the standard per-port tracks carry
//! physically sensible values, and every flow span classifies into
//! exactly one outcome — on both a healthy run and a wedged one.

use gfc_core::units::{kb, Dur, Time};
use gfc_sim::config::PumpPolicy;
use gfc_sim::{
    FcConfig, Network, PreflightPolicy, SimConfig, SpanOutcome, TelemetryConfig, TimelineConfig,
    TraceConfig,
};
use gfc_telemetry::TrackKind;
use gfc_topology::{Incast, Ring, Routing};

fn ring_network(fc: FcConfig, pump: PumpPolicy, timeline: TimelineConfig) -> Network {
    let ring = Ring::new(3);
    let mut cfg = SimConfig::default_10g();
    cfg.fc = fc;
    cfg.pump = pump;
    cfg.preflight = PreflightPolicy::Acknowledge;
    cfg.telemetry = TelemetryConfig::default();
    cfg.telemetry.timeline = timeline;
    let routing = Routing::fixed(ring.clockwise_routes());
    let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    for (src, dst) in ring.clockwise_flows() {
        net.start_flow(src, dst, None, 0).expect("clockwise route");
    }
    net
}

#[test]
fn sampler_memory_stays_bounded_over_a_long_run() {
    // 1 µs cadence with a 64-sample budget over 50 ms: 50_000 raw ticks
    // must decimate down to the budget, with the cadence doubling each
    // pass and coverage still spanning the whole run.
    let tl = TimelineConfig {
        sample_period_ps: Dur::from_micros(1).0,
        max_samples: 64,
        spans: false,
        stall_gap_ps: 0,
    };
    let mut net = ring_network(FcConfig::gfc_buffer(kb(300), kb(281)), PumpPolicy::RoundRobin, tl);
    net.run_until(Time::from_millis(50));
    let s = net.timeline_samplers().expect("sampling on");
    assert!(s.len() <= 64, "budget exceeded: {} samples", s.len());
    assert!(s.decimations() >= 9, "expected repeated decimation, got {}", s.decimations());
    assert_eq!(s.period_ps(), Dur::from_micros(1).0 << s.decimations());
    let times = s.times();
    // The first tick fires one period after t = 0 and survives every
    // decimation (decimation keeps the even indices).
    assert_eq!(times.first(), Some(&Dur::from_micros(1).0));
    assert!(
        *times.last().expect("samples") > Time::from_millis(40).0,
        "coverage must span the run, last sample at {} ps",
        times.last().expect("samples")
    );
    // CSV export reflects the decimated buffers, not the raw tick count.
    let csv = net.timeline_csv().expect("sampling on");
    assert_eq!(csv.lines().count(), s.len() + 1);
}

#[test]
fn standard_tracks_carry_sensible_values() {
    let mut net = ring_network(
        FcConfig::gfc_buffer(kb(300), kb(281)),
        PumpPolicy::RoundRobin,
        TimelineConfig::full(),
    );
    net.run_until(Time::from_millis(5));
    let s = net.timeline_samplers().expect("sampling on");
    assert!(!s.is_empty());
    let buffer = SimConfig::default_10g().buffer_bytes as f64;
    let mut saw_occupancy = false;
    let mut saw_util = false;
    for (i, tr) in s.tracks().iter().enumerate() {
        for v in s.track_values(i) {
            match tr.kind {
                TrackKind::IngressOccupancy => {
                    assert!(*v >= 0.0 && *v <= buffer, "{}: occupancy {v}", tr.name);
                    saw_occupancy |= *v > 0.0;
                }
                TrackKind::AssignedRate => {
                    assert!(*v >= 0.0 && *v <= 10e9, "{}: rate {v}", tr.name);
                }
                TrackKind::HoldState => {
                    assert!(*v == 0.0 || *v == 1.0, "{}: hold {v}", tr.name);
                }
                TrackKind::LinkUtilization => {
                    assert!(*v >= 0.0 && *v <= 1.0, "{}: util {v}", tr.name);
                    saw_util |= *v > 0.5;
                }
            }
        }
    }
    assert!(saw_occupancy, "a loaded ring must show nonzero occupancy somewhere");
    assert!(saw_util, "a loaded ring must drive some link past 50% utilization");
}

#[test]
fn every_span_has_exactly_one_outcome_wedged_and_healthy() {
    for (fc, pump, expect_stalled) in [
        (FcConfig::pfc(kb(280), kb(277)), PumpPolicy::OutputQueued, true),
        (FcConfig::gfc_buffer(kb(300), kb(281)), PumpPolicy::RoundRobin, false),
    ] {
        let horizon = Time::from_millis(20);
        let mut net = ring_network(fc, pump, TimelineConfig::full());
        net.run_until(horizon);
        let spans = net.flow_spans().expect("spans on");
        assert_eq!(spans.spans().len(), 3, "one span per started flow");
        // Totality: the two outcome arms partition the span set.
        let (fin, stalled) = spans.outcome_counts(horizon.0);
        assert_eq!(fin + stalled, spans.spans().len());
        // Infinite sources never finish, so every span is open at the
        // horizon; the idle tail is what separates wedged from healthy.
        assert_eq!(fin, 0);
        for sp in spans.spans() {
            let SpanOutcome::StalledAtEnd { idle_ps } = spans.outcome(sp, horizon.0) else {
                panic!("infinite flow {} classified as finished", sp.id);
            };
            if expect_stalled {
                // The terminal freeze shows up as the idle tail, not as
                // accumulated stall_ps: stall intervals are only banked
                // when a later delivery closes the gap, and in a wedge no
                // delivery ever comes.
                assert!(
                    idle_ps > Dur::from_millis(10).0,
                    "wedged flow {} idle only {idle_ps} ps",
                    sp.id
                );
            } else {
                assert!(
                    idle_ps < Dur::from_millis(1).0,
                    "healthy flow {} idle {idle_ps} ps at the horizon",
                    sp.id
                );
                assert_eq!(sp.stalls, 0, "healthy flow {} saw a delivery gap", sp.id);
            }
        }
    }
}

#[test]
fn finite_flows_finish_with_spans_and_fcts() {
    let inc = Incast::new(2);
    let mut cfg = SimConfig::default_10g();
    cfg.telemetry.timeline = TimelineConfig::full();
    let mut net = Network::new(inc.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
    net.start_flow(inc.senders[0], inc.receiver, Some(1_000_000), 0).expect("route");
    net.start_flow(inc.senders[1], inc.receiver, Some(1_000_000), 0).expect("route");
    net.run_until(Time::from_millis(10));
    let spans = net.flow_spans().expect("spans on");
    let (fin, stalled) = spans.outcome_counts(Time::from_millis(10).0);
    assert_eq!((fin, stalled), (2, 0));
    for sp in spans.spans() {
        assert_eq!(sp.delivered, 1_000_000);
        let fct = sp.fct_ps().expect("finished");
        // Two 1 MB flows share a 10 Gb/s bottleneck: each needs at least
        // 0.8 ms (aggregate serialization) and well under the horizon.
        assert!(fct > 800_000_000 && fct < 10_000_000_000, "fct {fct} ps");
    }
    // The spans feed the snapshot's FCT percentiles.
    let snap = net.metrics_snapshot();
    assert_eq!(snap.counter(gfc_telemetry::names::SPANS_FINISHED), Some(2));
    assert_eq!(snap.counter(gfc_telemetry::names::SPANS_STALLED), Some(0));
    let p50 = snap.counter(gfc_telemetry::names::FCT_P50_PS).expect("fct p50 recorded");
    assert!(p50 > 800_000_000, "p50 {p50} ps");
}

#[test]
fn chrome_trace_export_contains_counters_and_spans() {
    let mut net = ring_network(
        FcConfig::gfc_buffer(kb(300), kb(281)),
        PumpPolicy::RoundRobin,
        TimelineConfig::full(),
    );
    net.run_until(Time::from_millis(2));
    let json = net.chrome_trace().to_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    assert!(json.contains("\"ph\":\"C\""), "counter events missing");
    assert!(json.contains("\"ph\":\"b\""), "async span begins missing");
    assert!(json.contains("\"ph\":\"e\""), "async span ends missing");
    assert!(json.contains("\"ph\":\"M\""), "process-name metadata missing");
    assert_eq!(
        json.matches("\"ph\":\"b\"").count(),
        json.matches("\"ph\":\"e\"").count(),
        "every span begin needs an end"
    );
}

#[test]
fn timeline_off_costs_nothing_and_returns_none() {
    let mut net = ring_network(
        FcConfig::gfc_buffer(kb(300), kb(281)),
        PumpPolicy::RoundRobin,
        TimelineConfig::off(),
    );
    net.run_until(Time::from_millis(2));
    assert!(net.timeline_samplers().is_none());
    assert!(net.flow_spans().is_none());
    assert!(net.timeline_csv().is_none());
    // The trace still renders (metadata only — no counters, no spans).
    let json = net.chrome_trace().to_json();
    assert!(!json.contains("\"ph\":\"C\""));
    assert!(!json.contains("\"ph\":\"b\""));
}
