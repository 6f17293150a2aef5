//! Deadlock forensics walkthrough: wedge the Fig. 1 ring under PFC and
//! dump the automatic post-mortem — wait-for cycle, per-port queue
//! occupancies, the trailing flight-recorder events, and the DOT graph —
//! then rerun under buffer-based GFC and confirm the run stays clean.
//!
//! ```text
//! cargo run --release --example forensics
//! ```
//!
//! Exits non-zero if the PFC run fails to produce a forensics report or
//! the GFC run produces one, so CI can use it as a smoke test.

use gfc::prelude::*;
use gfc_sim::config::PumpPolicy;
use gfc_sim::PreflightPolicy;

fn ring(fc: FcConfig, pump: PumpPolicy) -> Network {
    let ring = Ring::new(3);
    let mut cfg = SimConfig::default_10g();
    cfg.fc = fc;
    cfg.pump = pump;
    // The PFC scenario is deliberately deadlock-prone (that is the point);
    // acknowledge the static preflight errors instead of refusing to build.
    cfg.preflight = PreflightPolicy::Acknowledge;
    cfg.stop_on_deadlock = true;
    // Metrics + a 4096-event flight recorder + automatic forensics.
    cfg.telemetry = TelemetryConfig::full();
    let routing = Routing::fixed(ring.clockwise_routes());
    let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    for (src, dst) in ring.clockwise_flows() {
        net.start_flow(src, dst, None, 0).expect("clockwise route");
    }
    net
}

fn main() {
    println!("== PFC on the Fig. 1 ring (XOFF 280 KB / XON 277 KB) ==\n");
    let mut net = ring(FcConfig::pfc(kb(280), kb(277)), PumpPolicy::OutputQueued);
    net.run_until(Time::from_millis(20));

    let Some(report) = net.forensics() else {
        eprintln!("expected a forensics report from the PFC ring, got none");
        std::process::exit(1);
    };
    println!("{}", report.render());
    println!("-- wait-for graph (DOT; pipe into `dot -Tsvg`) --\n");
    println!("{}", report.to_dot());
    println!(
        "flight recorder: {} events buffered ({} recorded in total)",
        net.flight_recorder().len(),
        net.flight_recorder().total_recorded(),
    );
    println!("metrics: {}\n", net.metrics_snapshot().brief());

    println!("== buffer-based GFC on the same ring (Bm 300 KB / B1 281 KB) ==\n");
    let mut net = ring(FcConfig::gfc_buffer(kb(300), kb(281)), PumpPolicy::RoundRobin);
    net.run_until(Time::from_millis(20));
    if let Some(r) = net.forensics() {
        eprintln!("GFC run unexpectedly produced forensics:\n{}", r.render());
        std::process::exit(1);
    }
    println!("no forensics report — no wait-for cycle ever formed");
    println!("metrics: {}", net.metrics_snapshot().brief());
}
