//! Sharded-engine smoke check: the parallel engine must replay the
//! *same simulation* as the sequential one, bit for bit.
//!
//! ```text
//! cargo run --release --example sharded
//! ```
//!
//! A k = 8 fat-tree (128 hosts) under cross-pod permutation traffic is
//! run three ways — on the sequential engine, and on the sharded engine
//! with the pod partition at 1 and at 4 workers — for a pause-based
//! backend (PFC) and a rate-based one (buffer-based GFC), so both
//! control-plane styles cross the domain boundaries. The process exits
//! non-zero
//! unless every sharded fingerprint (event count, full metrics
//! snapshot, flow ledger, deadlock verdicts) equals the sequential one.
//! CI runs this as the determinism gate of `gfc_sim::shard`; the full
//! backend × partition × worker matrix lives in
//! `crates/sim/tests/sharded_determinism.rs`, and the k = 16 scaling
//! curve in `cargo bench -p gfc-bench --bench sharded_scaling`.

use gfc::prelude::*;
use gfc_sim::config::PumpPolicy;
use gfc_sim::PreflightPolicy;

/// Everything observable about one finished run.
#[derive(PartialEq)]
struct Fingerprint {
    events: u64,
    metrics: Vec<gfc_telemetry::MetricEntry>,
    ledger: String,
    deadlocked: bool,
    structural: bool,
}

fn config(fc: FcConfig, pump: PumpPolicy) -> SimConfig {
    let mut cfg = SimConfig::default_10g();
    cfg.fc = fc;
    cfg.pump = pump;
    cfg.buffer_bytes = kb(300) + 4 * 1500;
    cfg.seed = 17;
    cfg.progress_window = Dur::from_millis(2);
    // Acknowledge any preflight findings: this is a determinism gate,
    // and both engines run the same acknowledged configuration.
    cfg.preflight = PreflightPolicy::Acknowledge;
    cfg
}

/// Cross-pod permutation: host `i` streams a finite flow to the host
/// half a fabric away, so every flow crosses the core.
fn flows(ft: &FatTree) -> Vec<(gfc_topology::NodeId, gfc_topology::NodeId)> {
    let h = ft.hosts.len();
    (0..h).map(|i| (ft.hosts[i], ft.hosts[(i + h / 2) % h])).collect()
}

fn main() {
    let ft = FatTree::new(8);
    let part = Partition::by_pods(&ft);
    let horizon = Time::from_millis(1);
    let backends = [
        ("PFC", FcConfig::pfc(kb(280), kb(277)), PumpPolicy::OutputQueued),
        ("buffer-based GFC", FcConfig::gfc_buffer(kb(300), kb(281)), PumpPolicy::RoundRobin),
    ];
    println!(
        "sharded smoke: k=8 fat-tree ({} nodes, {} flows, {} pod domains), {} ms horizon",
        ft.topo.num_nodes(),
        flows(&ft).len(),
        part.num_domains(),
        horizon.as_millis_f64()
    );

    for (label, fc, pump) in backends {
        let cfg = config(fc, pump);

        let mut seq =
            Network::new(ft.topo.clone(), Routing::spf(), cfg.clone(), TraceConfig::none());
        for &(s, d) in &flows(&ft) {
            seq.start_flow(s, d, Some(500_000), 0).expect("cross-pod route");
        }
        seq.run_until(horizon);
        let snap = seq.metrics_snapshot();
        let reference = Fingerprint {
            events: snap.counter(metric_names::EVENTS).unwrap_or(0),
            metrics: snap.entries,
            ledger: format!("{:?}", seq.ledger()),
            deadlocked: seq.deadlocked(),
            structural: seq.structurally_deadlocked(),
        };

        for workers in [1usize, 4] {
            let mut net =
                ShardedNetwork::new(ft.topo.clone(), Routing::spf(), cfg.clone(), &part, workers);
            for &(s, d) in &flows(&ft) {
                net.start_flow(s, d, Some(500_000), 0).expect("cross-pod route");
            }
            net.run_until(horizon);
            let snap = net.metrics_snapshot();
            let sharded = Fingerprint {
                events: snap.counter(metric_names::EVENTS).unwrap_or(0),
                metrics: snap.entries,
                ledger: format!("{:?}", net.ledger()),
                deadlocked: net.deadlocked(),
                structural: net.structurally_deadlocked(),
            };
            assert_eq!(
                sharded.events, reference.events,
                "{label} w{workers}: event count diverged from sequential"
            );
            assert!(
                sharded.metrics == reference.metrics,
                "{label} w{workers}: metrics snapshot diverged from sequential"
            );
            assert_eq!(
                sharded.ledger, reference.ledger,
                "{label} w{workers}: flow ledger diverged from sequential"
            );
            assert_eq!(
                (sharded.deadlocked, sharded.structural),
                (reference.deadlocked, reference.structural),
                "{label} w{workers}: deadlock verdicts diverged from sequential"
            );
        }
        println!(
            "  {label:<18} {:>9} events, deadlocked={:<5} — w1 and w4 fingerprints bit-identical",
            reference.events, reference.structural
        );
    }
    println!("sharded smoke passed");
}
