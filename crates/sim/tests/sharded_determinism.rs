//! Cross-engine determinism matrix: the sharded parallel engine's replay
//! fingerprint (full metrics snapshot, flow-ledger records, run
//! statistics and deadlock verdicts) must be **bit-identical** to the
//! sequential engine's, for every flow-control backend, on every
//! partition, at every worker count. This is the tentpole contract of `gfc_sim::shard` — the windows, mailboxes, and
//! merge rules are allowed to change the wall-clock schedule, never the
//! simulation.

use gfc_core::bfc::BfcConfig;
use gfc_core::units::{kb, Dur, Time};
use gfc_sim::config::{FcConfig, PumpPolicy};
use gfc_sim::{
    Network, PreflightPolicy, ShardedNetwork, SimConfig, SimStats, SyncStats, TraceConfig,
};
use gfc_telemetry::names;
use gfc_topology::fattree::{find_fig11_failures, FatTree, Fig11Scenario, FIG11_FLOWS};
use gfc_topology::{NodeId, Partition, Ring, Routing, Topology};
use std::sync::Arc;
use std::sync::OnceLock;

/// Every observable of one finished run, in directly comparable form.
#[derive(PartialEq)]
struct Fingerprint {
    metrics: Vec<gfc_telemetry::MetricEntry>,
    ledger: String,
    stats: SimStats,
    deadlocked: bool,
    structural: bool,
    deadlock_at: Option<Time>,
    structural_deadlock_at: Option<Time>,
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

/// The cached Fig. 11 case: the degraded fat-tree and the four CBD paths.
fn fig11_case() -> &'static (FatTree, Fig11Scenario) {
    static SCENARIO: OnceLock<(FatTree, Fig11Scenario)> = OnceLock::new();
    SCENARIO.get_or_init(|| find_fig11_failures(64).expect("fig11 failure set exists"))
}

/// The Fig. 11 k = 4 fat-tree: the four case-study flows pinned onto
/// their CBD paths, plus finite cross-pod traffic on SPF routes.
fn fattree_scenario() -> Scenario {
    let (ft, sc) = fig11_case();
    let pinned = FIG11_FLOWS
        .iter()
        .zip(&sc.paths)
        .map(|(&(s, d), p)| (ft.hosts[s], ft.hosts[d], Some(400_000), Arc::from(p.as_slice())))
        .collect();
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
        stats: net.stats(),
        deadlocked: net.deadlocked(),
        structural: net.structurally_deadlocked(),
        deadlock_at: net.deadlock_at(),
        structural_deadlock_at: net.structural_deadlock_at(),
    }
}

/// The sharded run, driven by one `run_until` call per entry of `ends`.
fn run_sharded(
    sc: &Scenario,
    cfg: SimConfig,
    part: &Partition,
    workers: usize,
    ends: &[Time],
) -> Fingerprint {
    run_sharded_with_sync(sc, cfg, part, workers, ends).0
}

/// [`run_sharded`], also returning the coordinator's sync counters.
fn run_sharded_with_sync(
    sc: &Scenario,
    cfg: SimConfig,
    part: &Partition,
    workers: usize,
    ends: &[Time],
) -> (Fingerprint, SyncStats) {
    let mut net = ShardedNetwork::new(sc.topo.clone(), sc.routing.clone(), cfg, part, workers);
    for &(s, d, b) in &sc.flows {
        net.start_flow(s, d, b, 0).expect("route exists");
    }
    for (s, d, b, p) in &sc.pinned {
        net.start_flow_on_path(*s, *d, *b, 0, Arc::clone(p)).expect("pinned route");
    }
    for &t in ends {
        net.run_until(t);
    }
    let snap = net.metrics_snapshot();
    let fp = Fingerprint {
        metrics: snap.entries,
        ledger: format!("{:?}", net.ledger()),
        stats: net.stats(),
        deadlocked: net.deadlocked(),
        structural: net.structurally_deadlocked(),
        deadlock_at: net.deadlock_at(),
        structural_deadlock_at: net.structural_deadlock_at(),
    };
    (fp, net.sync_stats())
}

/// Uneven slice ends over `horizon`, the way a caller that reports
/// progress cuts a run: pseudo-random steps, every monitor barrier
/// (multiples of `interval`) as an end of its own, one end repeated, and
/// the horizon last.
fn slice_ends(horizon: Time, interval: Dur) -> Vec<Time> {
    let mut ends: Vec<Time> =
        (1..).map(|k| Time(interval.0 * k)).take_while(|&b| b < horizon).collect();
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    let mut t = 0;
    while t < horizon.0 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t = (t + 1 + x % (interval.0 * 2 / 3)).min(horizon.0);
        ends.push(Time(t));
    }
    ends.sort_unstable();
    let mid = ends.len() / 2;
    ends.insert(mid, ends[mid]);
    ends
}

/// Every backend on `sc`, the sharded run driven through many uneven
/// `run_until` slices at 1, 2 and 8 workers, against the sequential run
/// in one call.
fn assert_sliced_matches(sc: &Scenario, part: &Partition, what: &str) {
    for (name, fc, pump) in backends() {
        let cfg = base_cfg(fc, pump);
        let ends = slice_ends(sc.horizon, cfg.monitor_interval);
        assert!(ends.len() > 60, "too few slices");
        assert_eq!(ends.last(), Some(&sc.horizon));
        let seq = run_sequential(sc, cfg.clone());
        for workers in [1usize, 2, 8] {
            let shd = run_sharded(sc, cfg.clone(), part, workers, &ends);
            assert_identical(&seq, &shd, &format!("{what}:{name}:sliced:w{workers}"));
        }
    }
}

fn assert_identical(seq: &Fingerprint, shd: &Fingerprint, what: &str) {
    assert_eq!(seq.metrics.len(), shd.metrics.len(), "{what}: snapshot layouts differ");
    for (a, b) in seq.metrics.iter().zip(&shd.metrics) {
        assert_eq!(a, b, "{what}: metric {} diverged", a.name);
    }
    assert_eq!(seq.ledger, shd.ledger, "{what}: flow ledgers diverged");
    assert_eq!(seq.stats, shd.stats, "{what}: run statistics diverged");
    assert_eq!(seq.deadlocked, shd.deadlocked, "{what}: progress verdicts diverged");
    assert_eq!(seq.structural, shd.structural, "{what}: structural verdicts diverged");
    assert_eq!(seq.deadlock_at, shd.deadlock_at, "{what}: progress verdict times diverged");
    assert_eq!(
        seq.structural_deadlock_at, shd.structural_deadlock_at,
        "{what}: structural verdict times diverged"
    );
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
                let shd = run_sharded(&sc, cfg.clone(), &part, workers, &[sc.horizon]);
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
            let shd = run_sharded(&sc, cfg.clone(), &part, workers, &[sc.horizon]);
            assert_identical(&seq, &shd, &format!("fattree:{name}:pods:w{workers}"));
        }
    }
}

/// Monitor barriers clip the windows they fall inside: with a monitor
/// interval that is no multiple of the lookahead, the clipped windows
/// land off the lookahead grid, and the fingerprints still match. Every
/// cross-shard arrival rides the inbound lane: arrivals are due one
/// propagation delay after they leave, and each window leaves strictly
/// after the last, so no injected batch can start behind the lane's
/// tail — clipped windows included.
#[test]
fn clipped_windows_match_sequential() {
    let sc = fattree_scenario();
    let part = Partition::by_pods(&fig11_case().0);
    for (name, fc, pump) in backends() {
        let mut cfg = base_cfg(fc, pump);
        cfg.monitor_interval = Dur(cfg.prop_delay.0 * 37 + cfg.prop_delay.0 / 3);
        let seq = run_sequential(&sc, cfg.clone());
        let mut w1_sync = None;
        for workers in [1usize, 4] {
            let what = format!("clipped:{name}:w{workers}");
            let (shd, sync) =
                run_sharded_with_sync(&sc, cfg.clone(), &part, workers, &[sc.horizon]);
            assert_identical(&seq, &shd, &what);
            assert!(sync.clipped_windows > 0, "{what}: no window was clipped: {sync:?}");
            assert!(sync.inbound_lane > 0, "{what}: no arrival crossed shards: {sync:?}");
            assert_eq!(sync.inbound_diverted, 0, "{what}: an inbound arrival left the lane");
            // The window schedule is a function of the event set, not of
            // how the shards are lent out to workers.
            let w1 = *w1_sync.get_or_insert(sync);
            assert_eq!(sync, w1, "{what}: sync counters differ from w1's");
        }
    }
}

/// Halted runs: greedy flows on the ring, `stop_on_deadlock` is on, and
/// both engines stop at the same monitor barrier in the same state. The
/// sharded run is driven by two `run_until` calls, so whichever one the
/// halt lands in, every call after it must change nothing.
/// Output-queued PFC, BFC and DCFIT halt on a wait-for cycle in the
/// first call (at 1.1, 0.2 and 1.1 ms), output-queued CBFC in the second
/// (2.2 ms). Round-robin GFC never wedges the ring, so each GFC variant
/// halts on the progress verdict with a window shorter than the ring's
/// first delivery: a 5 µs window (1 µs monitor interval) halts at 5 µs,
/// in the first call; 1 ms links push the first delivery past 3 ms, and
/// a 2.5 ms window halts at 2.5 ms, in the second call.
#[test]
fn halted_runs_match_sequential() {
    let ring = Ring::new(3);
    let mut sc = ring_scenario();
    for flow in &mut sc.flows {
        flow.2 = None;
    }
    let mut cases = Vec::new();
    for (name, fc, pump) in backends() {
        if !fc.is_gfc() {
            cases.push((format!("{name}:oq"), base_cfg(fc, PumpPolicy::OutputQueued)));
            continue;
        }
        let mut cfg = base_cfg(fc, pump);
        cfg.monitor_interval = Dur::from_micros(1);
        cfg.progress_window = Dur::from_micros(5);
        cases.push((format!("{name}:short-window"), cfg));
        let mut cfg = base_cfg(fc, pump);
        cfg.prop_delay = Dur::from_millis(1);
        cfg.progress_window = Dur::from_micros(2500);
        cases.push((format!("{name}:long-links"), cfg));
    }
    for (name, mut cfg) in cases {
        cfg.stop_on_deadlock = true;
        let seq = run_sequential(&sc, cfg.clone());
        if cfg.fc.is_gfc() {
            assert!(seq.deadlocked && !seq.structural, "{name}: no progress-verdict halt");
        } else {
            assert!(seq.structural, "{name}: sequential run found no wait-for cycle");
        }
        for arcs in [2usize, 3] {
            let part = Partition::ring_arcs(&ring, arcs);
            for workers in [1usize, 2, 4] {
                let ends = [Time::from_millis(2), sc.horizon];
                let shd = run_sharded(&sc, cfg.clone(), &part, workers, &ends);
                assert_identical(&seq, &shd, &format!("halted:{name}:arcs{arcs}:w{workers}"));
            }
        }
    }
}

/// Sliced runs on the ring: a caller invoking `run_until` over and over
/// (ends on barriers, repeated ends) sees the one-call simulation.
#[test]
fn ring_sliced_runs_match_sequential() {
    let ring = Ring::new(3);
    assert_sliced_matches(&ring_scenario(), &Partition::ring_arcs(&ring, 3), "ring");
}

/// Sliced runs on the Fig. 11 fat-tree under the pod partition.
#[test]
fn fattree_sliced_runs_match_sequential() {
    let part = Partition::by_pods(&fig11_case().0);
    assert_sliced_matches(&fattree_scenario(), &part, "fattree");
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
            let shd = run_sharded(&sc, cfg, &part, workers, &[sc.horizon]);
            assert_identical(&seq, &shd, &format!("random partition {doms:?} w{workers}"));
        }
    }
}
