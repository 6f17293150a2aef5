//! Quickstart: the paper's Fig. 1 deadlock ring, PFC vs buffer-based GFC.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Three switches in a triangle, one host each, every host streaming to
//! the host two hops away (clockwise). The buffer dependencies form a
//! cycle; PFC's pauses freeze it into a deadlock, GFC's gentle rate
//! control keeps every flow moving at its 5 Gb/s fair share.

use gfc::prelude::*;
use gfc_sim::config::PumpPolicy;

fn run(label: &str, fc: FcConfig, pump: PumpPolicy) {
    let ring = Ring::new(3);
    let mut cfg = SimConfig::default_10g();
    cfg.fc = fc;
    cfg.pump = pump;
    // gfc-verify statically flags PFC-on-the-clockwise-ring as deadlock
    // prone (error[GFC011]) — demonstrating exactly that is the point
    // here, so acknowledge the report instead of aborting. Run
    // `cargo run --example preflight` to see the diagnostics themselves.
    cfg.preflight = gfc_sim::PreflightPolicy::Acknowledge;
    let routing = Routing::fixed(ring.clockwise_routes());
    let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    for (src, dst) in ring.clockwise_flows() {
        net.start_flow(src, dst, None, 0).expect("clockwise route");
    }
    let horizon = Time::from_millis(20);
    net.run_until(horizon);
    let snap = net.metrics_snapshot();
    println!(
        "{label:<22} deadlocked={:<5} aggregate goodput={:>6.2} Gb/s  drops={} hold-and-wait={}",
        net.structurally_deadlocked(),
        snap.goodput_bps() / 1e9,
        snap.counter(metric_names::DROPS).unwrap_or(0),
        snap.counter(metric_names::HOLD_AND_WAIT).unwrap_or(0),
    );
}

fn main() {
    println!("Fig. 1 ring, three clockwise flows, 20 ms:");
    // PFC under the classic proportional-sharing switch model (where the
    // deadlock literature lives) — wedges permanently.
    run("PFC:", FcConfig::pfc(kb(280), kb(277)), PumpPolicy::OutputQueued);
    // Buffer-based GFC with the paper's parameters — every port keeps
    // flowing; the queue parks one stage above B1 and each flow gets 5G.
    run("buffer-based GFC:", FcConfig::gfc_buffer(kb(300), kb(281)), PumpPolicy::RoundRobin);
}
