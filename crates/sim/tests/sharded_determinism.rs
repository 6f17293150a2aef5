//! Cross-engine determinism matrix: the sharded parallel engine's replay
//! fingerprint (full metrics snapshot + flow-ledger records) must be
//! **bit-identical** to the sequential engine's, for every flow-control
//! backend, on every partition, at every worker count. This is the
//! tentpole contract of `gfc_sim::shard` — the windows, mailboxes, and
//! merge rules are allowed to change the wall-clock schedule, never the
//! simulation.

use gfc_core::bfc::BfcConfig;
use gfc_core::units::{kb, Dur, Time};
use gfc_sim::config::{FcConfig, PumpPolicy};
use gfc_sim::{Network, PreflightPolicy, ShardedNetwork, SimConfig, TraceConfig};
use gfc_telemetry::names;
use gfc_topology::fattree::{find_fig11_failures, FatTree, FIG11_FLOWS};
use gfc_topology::{NodeId, Partition, Ring, Routing, SpfRouting, Topology};
use std::sync::Arc;
use std::sync::OnceLock;

/// Every observable of one finished run, in directly comparable form.
#[derive(PartialEq)]
struct Fingerprint {
    metrics: Vec<gfc_telemetry::MetricEntry>,
    ledger: String,
    deadlocked: bool,
    structural: bool,
}

/// The six flow-control backends of the shootout matrix, with the pump
/// discipline each is studied under.
fn backends() -> [(&'static str, FcConfig, PumpPolicy); 6] {
    let period = gfc_core::theorems::cbfc_recommended_period(gfc_core::units::Rate::from_gbps(10));
    [
        ("pfc", FcConfig::pfc(kb(280), kb(277)), PumpPolicy::OutputQueued),
        ("cbfc", FcConfig::cbfc(period), PumpPolicy::OutputQueued),
        ("gfc-buffer", FcConfig::gfc_buffer(kb(300), kb(281)), PumpPolicy::RoundRobin),
        ("gfc-time", FcConfig::gfc_time(kb(159), kb(300), period), PumpPolicy::RoundRobin),
        ("bfc", FcConfig::Bfc(BfcConfig::derive(kb(300) + 4 * 1500, 1500)), PumpPolicy::RoundRobin),
        ("dcfit", FcConfig::dcfit(kb(280), kb(277)), PumpPolicy::OutputQueued),
    ]
}

fn base_cfg(fc: FcConfig, pump: PumpPolicy) -> SimConfig {
    let mut cfg = SimConfig::default_10g();
    cfg.buffer_bytes = kb(300) + 4 * 1500;
    cfg.fc = fc;
    cfg.pump = pump;
    cfg.seed = 11;
    cfg.progress_window = Dur::from_millis(2);
    cfg.preflight = PreflightPolicy::Acknowledge;
    cfg
}

/// A flow pinned to an explicit path: `(src, dst, bytes, links)`.
type PinnedFlow = (NodeId, NodeId, Option<u64>, Arc<[gfc_topology::LinkId]>);

/// One explicit-flow scenario both engines run: a topology, routing,
/// and a set of `(src, dst, bytes)` flows (explicit-path variant below).
struct Scenario {
    topo: Topology,
    routing: Routing,
    flows: Vec<(NodeId, NodeId, Option<u64>)>,
    pinned: Vec<PinnedFlow>,
    horizon: Time,
}

/// The Fig. 1 three-switch ring with its clockwise cycle flows — finite,
/// so live schemes drain and finish while hard-gated ones wedge.
fn ring_scenario() -> Scenario {
    let ring = Ring::new(3);
    let flows = ring.clockwise_flows().into_iter().map(|(s, d)| (s, d, Some(600_000))).collect();
    Scenario {
        topo: ring.topo.clone(),
        routing: Routing::fixed(ring.clockwise_routes()),
        flows,
        pinned: Vec::new(),
        horizon: Time::from_millis(6),
    }
}

/// The cached Fig. 11 case: the degraded fat-tree and the per-flow ECMP
/// hashes that realize the CBD paths.
fn fig11_case() -> &'static (FatTree, [u64; 4]) {
    static SCENARIO: OnceLock<(FatTree, [u64; 4])> = OnceLock::new();
    SCENARIO.get_or_init(|| {
        let (ft, sc) = find_fig11_failures(64).expect("fig11 failure set exists");
        let hashes = sc.flow_hashes;
        (ft, hashes)
    })
}

/// The Fig. 11 k = 4 fat-tree: the four case-study flows pinned onto
/// their CBD paths, plus finite cross-pod traffic on SPF routes.
fn fattree_scenario() -> Scenario {
    let (ft, hashes) = fig11_case();
    let mut r = SpfRouting::new();
    let mut pinned = Vec::new();
    for (i, &(s, d)) in FIG11_FLOWS.iter().enumerate() {
        let p = r.path(&ft.topo, ft.hosts[s], ft.hosts[d], hashes[i]).expect("cbd path");
        pinned.push((ft.hosts[s], ft.hosts[d], Some(400_000), pin(p)));
    }
    // Background traffic across pods, routed by SPF.
    let flows = vec![
        (ft.hosts[2], ft.hosts[10], Some(250_000)),
        (ft.hosts[6], ft.hosts[14], Some(250_000)),
        (ft.hosts[11], ft.hosts[3], Some(250_000)),
        (ft.hosts[15], ft.hosts[7], Some(250_000)),
    ];
    Scenario {
        topo: ft.topo.clone(),
        routing: Routing::spf(),
        flows,
        pinned,
        horizon: Time::from_millis(4),
    }
}

fn pin(path: Vec<gfc_topology::LinkId>) -> Arc<[gfc_topology::LinkId]> {
    Arc::from(path.into_boxed_slice())
}

fn run_sequential(sc: &Scenario, cfg: SimConfig) -> Fingerprint {
    let mut net = Network::new(sc.topo.clone(), sc.routing.clone(), cfg, TraceConfig::none());
    for &(s, d, b) in &sc.flows {
        net.start_flow(s, d, b, 0).expect("route exists");
    }
    for (s, d, b, p) in &sc.pinned {
        net.start_flow_on_path(*s, *d, *b, 0, Arc::clone(p)).expect("pinned route");
    }
    net.run_until(sc.horizon);
    let snap = net.metrics_snapshot();
    Fingerprint {
        metrics: snap.entries,
        ledger: format!("{:?}", net.ledger()),
        deadlocked: net.deadlocked(),
        structural: net.structurally_deadlocked(),
    }
}

fn run_sharded(sc: &Scenario, cfg: SimConfig, part: &Partition, workers: usize) -> Fingerprint {
    let mut net = ShardedNetwork::new(sc.topo.clone(), sc.routing.clone(), cfg, part, workers);
    for &(s, d, b) in &sc.flows {
        net.start_flow(s, d, b, 0).expect("route exists");
    }
    for (s, d, b, p) in &sc.pinned {
        net.start_flow_on_path(*s, *d, *b, 0, Arc::clone(p)).expect("pinned route");
    }
    net.run_until(sc.horizon);
    let snap = net.metrics_snapshot();
    Fingerprint {
        metrics: snap.entries,
        ledger: format!("{:?}", net.ledger()),
        deadlocked: net.deadlocked(),
        structural: net.structurally_deadlocked(),
    }
}

fn assert_identical(seq: &Fingerprint, shd: &Fingerprint, what: &str) {
    assert_eq!(seq.metrics.len(), shd.metrics.len(), "{what}: snapshot layouts differ");
    for (a, b) in seq.metrics.iter().zip(&shd.metrics) {
        assert_eq!(a, b, "{what}: metric {} diverged", a.name);
    }
    assert_eq!(seq.ledger, shd.ledger, "{what}: flow ledgers diverged");
    assert_eq!(seq.deadlocked, shd.deadlocked, "{what}: progress verdicts diverged");
    assert_eq!(seq.structural, shd.structural, "{what}: structural verdicts diverged");
}

/// The full matrix on the ring: six backends × arc partitions × worker
/// counts 1/2/4/8, every cell bit-identical to the sequential run.
#[test]
fn ring_matrix_matches_sequential_at_every_worker_count() {
    let ring = Ring::new(3);
    let sc = ring_scenario();
    for (name, fc, pump) in backends() {
        let cfg = base_cfg(fc, pump);
        let seq = run_sequential(&sc, cfg.clone());
        let events = seq.metrics.iter().find(|e| e.name == names::EVENTS);
        assert!(events.is_some(), "{name}: sequential run recorded no events");
        for arcs in [2usize, 3] {
            let part = Partition::ring_arcs(&ring, arcs);
            for workers in [1usize, 2, 4, 8] {
                let shd = run_sharded(&sc, cfg.clone(), &part, workers);
                assert_identical(&seq, &shd, &format!("ring:{name}:arcs{arcs}:w{workers}"));
            }
        }
    }
}

/// The full matrix on the Fig. 11 fat-tree under the pod partition.
#[test]
fn fattree_matrix_matches_sequential_at_every_worker_count() {
    let sc = fattree_scenario();
    let part = Partition::by_pods(&fig11_case().0);
    for (name, fc, pump) in backends() {
        let cfg = base_cfg(fc, pump);
        let seq = run_sequential(&sc, cfg.clone());
        for workers in [1usize, 2, 4, 8] {
            let shd = run_sharded(&sc, cfg.clone(), &part, workers);
            assert_identical(&seq, &shd, &format!("fattree:{name}:pods:w{workers}"));
        }
    }
}

/// The partition must be *free*: any assignment of nodes to domains
/// yields the same fingerprint. Randomized via proptest.
mod random_partitions {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn any_partition_of_the_ring_is_fingerprint_free(
            doms in proptest::collection::vec(0u32..3, 6),
            workers in 1usize..5,
        ) {
            // Compact sparse ids into a dense 0..P relabelling.
            let mut relabel = std::collections::HashMap::new();
            let dense: Vec<u32> = doms
                .iter()
                .map(|&d| {
                    let next = u32::try_from(relabel.len()).unwrap();
                    *relabel.entry(d).or_insert(next)
                })
                .collect();
            let part = Partition::from_domain_of(dense);
            let sc = ring_scenario();
            let (_, fc, pump) = backends()[2]; // buffer-GFC: live scheme
            let cfg = base_cfg(fc, pump);
            let seq = run_sequential(&sc, cfg.clone());
            let shd = run_sharded(&sc, cfg, &part, workers);
            assert_identical(&seq, &shd, &format!("random partition {doms:?} w{workers}"));
        }
    }
}
