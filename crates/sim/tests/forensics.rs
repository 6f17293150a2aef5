//! Deadlock forensics end-to-end: the Fig. 1 PFC ring must yield an
//! automatic post-mortem whose wait-for cycle matches the structural
//! verdict, while a clean buffer-based GFC run yields none.

use gfc_core::units::{kb, Dur, Time};
use gfc_sim::config::PumpPolicy;
use gfc_sim::{FcConfig, Network, PreflightPolicy, SimConfig, TelemetryConfig, TraceConfig};
use gfc_telemetry::ForensicsTrigger;
use gfc_topology::{Ring, Routing};

fn ring_network(fc: FcConfig, pump: PumpPolicy, telemetry: TelemetryConfig) -> Network {
    let ring = Ring::new(3);
    let mut cfg = SimConfig::default_10g();
    cfg.fc = fc;
    cfg.pump = pump;
    cfg.progress_window = Dur::from_millis(2);
    cfg.preflight = PreflightPolicy::Acknowledge;
    cfg.telemetry = telemetry;
    let routing = Routing::fixed(ring.clockwise_routes());
    let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    for (src, dst) in ring.clockwise_flows() {
        net.start_flow(src, dst, None, 0).expect("clockwise route");
    }
    net
}

fn pfc() -> FcConfig {
    FcConfig::pfc(kb(280), kb(277))
}

fn gfc() -> FcConfig {
    FcConfig::gfc_buffer(kb(300), kb(281))
}

#[test]
fn pfc_ring_produces_a_forensics_report() {
    let mut net = ring_network(pfc(), PumpPolicy::OutputQueued, TelemetryConfig::full());
    net.run_until(Time::from_millis(20));
    assert!(net.structurally_deadlocked(), "scenario must deadlock");

    let report = net.forensics().expect("deadlocked run must capture forensics");
    assert_eq!(report.trigger, ForensicsTrigger::WaitForCycle);
    // Captured the instant the structural detector first saw the cycle.
    assert_eq!(Some(Time(report.t_ps)), net.structural_deadlock_at());
    assert!(!report.cycle.is_empty(), "cycle vertices recorded");
    // The live graph still contains the same cycle at the end of the run.
    assert!(net.waitfor_cycle_exists());

    // Every cycle vertex names a ring-switch port, and the cycle ports all
    // appear in the occupancy table with queued bytes.
    assert!(!report.occupancies.is_empty());
    for &v in &report.cycle {
        let vx = &report.graph.vertices()[v];
        assert!(
            report.occupancies.iter().any(|o| o.node == vx.node && o.port == vx.port),
            "cycle vertex {} missing from occupancies",
            vx.label
        );
    }
    assert!(
        report.occupancies.iter().any(|o| o.ingress_bytes + o.egress_bytes > 0),
        "a wedged cycle must hold queued bytes"
    );

    // The recorder was enabled, so the report carries trailing events that
    // all touch cycle ports and precede the capture instant.
    assert!(report.recorder_enabled);
    assert!(!report.trailing_events.is_empty());
    for ev in &report.trailing_events {
        assert!(ev.t_ps <= report.t_ps);
    }

    // Render + DOT both name the first cycle vertex.
    let label = &report.graph.vertices()[report.cycle[0]].label;
    assert!(report.render().contains(label.as_str()));
    assert!(report.to_dot().contains(label.as_str()));
}

#[test]
fn forensics_works_without_the_flight_recorder() {
    // Default telemetry: metrics + forensics on, recorder off — the report
    // must still capture the cycle, just without trailing events.
    let mut net = ring_network(pfc(), PumpPolicy::OutputQueued, TelemetryConfig::default());
    net.run_until(Time::from_millis(20));
    let report = net.forensics().expect("forensics captured without recorder");
    assert!(!report.recorder_enabled);
    assert!(report.trailing_events.is_empty());
    assert!(!report.cycle.is_empty());
}

#[test]
fn clean_gfc_run_produces_no_forensics() {
    let mut net = ring_network(gfc(), PumpPolicy::RoundRobin, TelemetryConfig::full());
    net.run_until(Time::from_millis(20));
    assert!(!net.structurally_deadlocked());
    assert!(net.forensics().is_none(), "clean run must not capture forensics");
    // The recorder still saw ordinary traffic.
    assert!(net.flight_recorder().total_recorded() > 0);
}

#[test]
fn disabled_forensics_captures_nothing_even_on_deadlock() {
    let mut net = ring_network(pfc(), PumpPolicy::OutputQueued, TelemetryConfig::off());
    net.run_until(Time::from_millis(20));
    assert!(net.structurally_deadlocked(), "deadlock verdicts are independent of telemetry");
    assert!(net.forensics().is_none());
    assert!(!net.flight_recorder().is_enabled());
}
