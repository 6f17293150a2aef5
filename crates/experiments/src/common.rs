//! Shared scaffolding for the per-figure experiment modules.

use gfc_core::bfc::BfcConfig;
use gfc_core::theorems;
use gfc_core::units::{kb, Dur, Rate, Time};
use gfc_sim::config::{FcConfig, PumpPolicy};
use gfc_sim::flowgen::{ClosedLoopWorkload, Workload};
use gfc_sim::{Network, PreflightPolicy, SimConfig};
use gfc_telemetry::{SamplerSet, TimeSeries, TrackKind};
use gfc_topology::cbd::{all_pairs_depgraph, realize_cycle};
use gfc_topology::fattree::{find_fig11_failures, FatTree, Fig11Scenario, RouteMap, FIG11_FLOWS};
use gfc_topology::{LinkId, NodeId, Ring, Routing, SpfRouting, Topology};
use gfc_workload::{DestPolicy, EmpiricalCdf, FlowSizeDist};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::{Arc, OnceLock};

/// The flow-control schemes under comparison: the paper's four plus the
/// two backends beyond the paper (BFC, DCFIT) the shootout pits against them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// IEEE 802.1Qbb Priority Flow Control (baseline).
    Pfc,
    /// InfiniBand credit-based flow control (baseline).
    Cbfc,
    /// Buffer-based GFC (§5.1).
    GfcBuffer,
    /// Time-based GFC (§5.2).
    GfcTime,
    /// Backpressure Flow Control: per-flow pause/resume (arXiv 1909.09923).
    Bfc,
    /// PFC plus DCFIT initial-trigger deadlock detection (arXiv 2009.13446).
    Dcfit,
}

impl Scheme {
    /// The paper's four schemes in its column order (the per-figure
    /// experiments reproduce published tables, which have exactly these
    /// columns).
    pub const ALL: [Scheme; 4] = [Scheme::Pfc, Scheme::GfcBuffer, Scheme::Cbfc, Scheme::GfcTime];

    /// Every scheme, for the cross-backend shootout.
    pub const SHOOTOUT: [Scheme; 6] =
        [Scheme::Pfc, Scheme::Dcfit, Scheme::Cbfc, Scheme::Bfc, Scheme::GfcBuffer, Scheme::GfcTime];

    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Pfc => "PFC",
            Scheme::Cbfc => "CBFC",
            Scheme::GfcBuffer => "Buffer-based GFC",
            Scheme::GfcTime => "Time-based GFC",
            Scheme::Bfc => "BFC",
            Scheme::Dcfit => "DCFIT",
        }
    }

    /// Whether this is one of the paper's GFC contributions.
    pub fn is_gfc(&self) -> bool {
        matches!(self, Scheme::GfcBuffer | Scheme::GfcTime)
    }

    /// The paper's §6.2.2 parameterization on 300 KB buffers at 10 Gb/s:
    /// PFC XOFF/XON = 280/277 KB, buffer-GFC B1 = 281 KB, time-GFC
    /// B0 = 159 KB, CBFC/time-GFC period = 65535 B worth (52.4 µs).
    /// DCFIT runs PFC's thresholds (it *is* PFC plus detection); BFC
    /// derives its per-flow/aggregate thresholds from the buffer and MTU.
    pub fn fc_config_300k(&self) -> FcConfig {
        let c = Rate::from_gbps(10);
        let period = theorems::cbfc_recommended_period(c);
        match self {
            Scheme::Pfc => FcConfig::pfc(kb(280), kb(277)),
            Scheme::Cbfc => FcConfig::cbfc(period),
            Scheme::GfcBuffer => FcConfig::gfc_buffer(kb(300), kb(281)),
            Scheme::GfcTime => FcConfig::gfc_time(kb(159), kb(300), period),
            Scheme::Bfc => FcConfig::Bfc(BfcConfig::derive(kb(300) + 4 * 1500, 1500)),
            Scheme::Dcfit => FcConfig::dcfit(kb(280), kb(277)),
        }
    }

    /// The paper's §6.1.1 testbed parameterization on 1 MB buffers:
    /// PFC XOFF/XON = 800/797 KB, buffer-GFC B1 = 750 KB, time-GFC
    /// B0 = 492 KB.
    pub fn fc_config_testbed(&self) -> FcConfig {
        let c = Rate::from_gbps(10);
        let period = theorems::cbfc_recommended_period(c);
        match self {
            Scheme::Pfc => FcConfig::pfc(kb(800), kb(797)),
            Scheme::Cbfc => FcConfig::cbfc(period),
            Scheme::GfcBuffer => FcConfig::gfc_buffer(kb(1024), kb(750)),
            Scheme::GfcTime => FcConfig::gfc_time(kb(492), kb(1024), period),
            Scheme::Bfc => FcConfig::Bfc(BfcConfig::derive(kb(1024) + 4 * 1500, 1500)),
            Scheme::Dcfit => FcConfig::dcfit(kb(800), kb(797)),
        }
    }

    /// The switch discipline under which this scheme's *deadlock panel*
    /// runs (see DESIGN.md §8): proportional sharing for the hard-gated
    /// baselines (the literature's deadlock model), fair sharing for the
    /// gateless/per-flow schemes (GFC's testbed forwarding loop, where
    /// its trajectories reproduce; BFC's per-flow gates need per-flow
    /// fairness to show their selectivity).
    pub fn headline_pump(&self) -> PumpPolicy {
        if self.is_gfc() || matches!(self, Scheme::Bfc) {
            PumpPolicy::RoundRobin
        } else {
            PumpPolicy::OutputQueued
        }
    }
}

/// Base simulator configuration for the §6.2.2 fat-tree simulations:
/// 10 Gb/s, 1 µs propagation, 300 KB buffers (+4 MTU of creep headroom
/// for GFC, see EXPERIMENTS.md), 1.5 KB MTU.
pub fn sim_config_300k(scheme: Scheme, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::default_10g();
    cfg.buffer_bytes = kb(300) + 4 * 1500;
    cfg.fc = scheme.fc_config_300k();
    cfg.pump = scheme.headline_pump();
    cfg.seed = seed;
    cfg.progress_window = Dur::from_millis(2);
    // The deadlock studies are adversarial by design (baselines on
    // CBD-prone routes); the harness reports the static verdict alongside
    // the runtime one instead of refusing to run.
    cfg.preflight = PreflightPolicy::Acknowledge;
    cfg.validate();
    cfg
}

/// Base simulator configuration for the §6.1 testbed scenarios (1 MB
/// buffers, measured τ = 90 µs modeled via the control-processing delay).
pub fn sim_config_testbed(scheme: Scheme, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::default_10g();
    cfg.buffer_bytes = kb(1024) + 4 * 1500;
    cfg.fc = scheme.fc_config_testbed();
    cfg.pump = scheme.headline_pump();
    cfg.ctrl_proc_delay = Dur::from_micros(86); // τ ≈ 90 µs end to end
    cfg.seed = seed;
    cfg.progress_window = Dur::from_millis(2);
    cfg.preflight = PreflightPolicy::Acknowledge; // see sim_config_300k
    cfg.validate();
    cfg
}

/// The `gfc-verify` static verdict for a scenario, as the one-line summary
/// every figure records next to its runtime deadlock verdict (e.g.
/// `"CBD + hard gate: deadlock reachable (1 errors, 0 warnings)"`).
pub fn static_verdict(topo: &Topology, routing: &Routing, cfg: &SimConfig) -> String {
    gfc_sim::preflight(topo, routing, cfg).verdict().to_string()
}

/// The memoized Fig. 11 scenario (k = 4 fat-tree, three failed links whose
/// SPF re-routing gives the four flows a CBD), with the four case-study
/// paths resolved once.
pub fn fig11_scenario() -> &'static (FatTree, Fig11Scenario) {
    static SCENARIO: OnceLock<(FatTree, Fig11Scenario)> = OnceLock::new();
    SCENARIO.get_or_init(|| {
        find_fig11_failures(8).expect("a 3-failure Fig. 11 scenario must exist on the k=4 fat-tree")
    })
}

/// A flow pinned to an explicit path: `(src, dst, path)`.
pub type PinnedFlow = (NodeId, NodeId, Arc<[LinkId]>);

/// One paper case: a topology plus the flows pinned onto it. Every path
/// is resolved once, when the case is built, so the static preflight
/// (over [`PinnedCase::routes`]) and the simulator see the same object.
/// The figures start the flows with [`start_flows`], each in its own
/// order and timing.
#[derive(Debug, Clone)]
pub struct PinnedCase {
    /// Case name used in reports.
    pub name: &'static str,
    /// The (possibly failure-degraded) topology.
    pub topo: Topology,
    /// Host ids in index order; host-index pairs such as
    /// [`FIG11_FLOWS`] refer to these.
    pub hosts: Vec<NodeId>,
    /// Whether the case admits a CBD: on its pinned routes for the ring
    /// and Fig. 11 cases, under all-pairs SPF for a failed fat-tree.
    pub cbd_prone: bool,
    /// The flows that close the CBD (empty when there is none, or when
    /// no flow combination realizes it).
    pub cycle_flows: Vec<PinnedFlow>,
    /// Further flows: Fig. 14's victim, or the shootout's probes.
    pub extra_flows: Vec<PinnedFlow>,
}

impl PinnedCase {
    /// The Fig. 1 / §6.1 testbed ring: three switches, one host each,
    /// and the three clockwise two-hop cycle flows `H_i → H_{i+2}`.
    pub fn ring() -> Self {
        let ring = Ring::new(3);
        let cycle_flows = (0..ring.len())
            .map(|i| {
                let (s, d, p) = ring.clockwise_path(i);
                (s, d, Arc::from(p))
            })
            .collect();
        PinnedCase {
            name: "ring-3",
            hosts: ring.hosts,
            topo: ring.topo,
            cbd_prone: true,
            cycle_flows,
            extra_flows: Vec::new(),
        }
    }

    /// The Fig. 11 case: the failed k = 4 fat-tree with the four
    /// case-study flows on their CBD paths, plus `extra` host-index pairs
    /// (Fig. 14's victim) pinned by [`Self::spf_flows`]: ECMP hash 0, the
    /// path `fig14::find_victim` checks against the CBD.
    pub fn fig11(extra: &[(usize, usize)]) -> Self {
        let (ft, sc) = fig11_scenario();
        let cycle_flows = FIG11_FLOWS
            .iter()
            .zip(&sc.paths)
            .map(|(&(s, d), p)| (ft.hosts[s], ft.hosts[d], Arc::from(p.as_slice())))
            .collect();
        let mut case = PinnedCase {
            name: "fat-tree-fig11",
            topo: ft.topo.clone(),
            hosts: ft.hosts.clone(),
            cbd_prone: true,
            cycle_flows,
            extra_flows: Vec::new(),
        };
        case.extra_flows = case.spf_flows(extra);
        case
    }

    /// A k-ary fat-tree whose fabric links each fail with probability
    /// `failure_prob` under `seed`, with its all-pairs SPF CBD realized as
    /// cycle flows: the adversarial combination the enterprise churn
    /// would eventually produce (§6.2.3). The topology may be
    /// disconnected; callers that need every host reachable check
    /// [`Topology::hosts_connected`].
    pub fn failed_fat_tree(k: usize, failure_prob: f64, seed: u64) -> Self {
        let mut ft = FatTree::new(k);
        ft.inject_failures(&mut StdRng::seed_from_u64(seed), failure_prob);
        let cycle = all_pairs_depgraph(&ft.topo).find_cycle();
        let cycle_flows = cycle
            .as_ref()
            .and_then(|c| realize_cycle(&ft.topo, c))
            .unwrap_or_default()
            .into_iter()
            .map(|(s, d, p)| (s, d, Arc::from(p)))
            .collect();
        PinnedCase {
            name: "failed-fat-tree",
            hosts: ft.hosts,
            topo: ft.topo,
            cbd_prone: cycle.is_some(),
            cycle_flows,
            extra_flows: Vec::new(),
        }
    }

    /// Pin host-index pairs onto their SPF paths under ECMP hash 0.
    pub fn spf_flows(&self, pairs: &[(usize, usize)]) -> Vec<PinnedFlow> {
        let mut r = SpfRouting::new();
        pairs
            .iter()
            .map(|&(s, d)| {
                let (src, dst) = (self.hosts[s], self.hosts[d]);
                (src, dst, Arc::from(r.path(&self.topo, src, dst, 0).expect("pinned flow route")))
            })
            .collect()
    }

    /// Every pinned path as a static route map: what the fixed-route
    /// figures simulate and what the preflight checks.
    pub fn routes(&self) -> RouteMap {
        self.cycle_flows
            .iter()
            .chain(&self.extra_flows)
            .map(|(s, d, p)| ((*s, *d), p.to_vec()))
            .collect()
    }
}

/// The connected [`PinnedCase::failed_fat_tree`]s drawn from seeds
/// `seed + 1`, `seed + 2`, … in order: the case scan of Figs. 16–18.
pub fn connected_failed_fat_trees(
    k: usize,
    failure_prob: f64,
    seed: u64,
) -> impl Iterator<Item = PinnedCase> {
    (1..)
        .map(move |i| PinnedCase::failed_fat_tree(k, failure_prob, seed.wrapping_add(i)))
        .filter(|case| case.topo.hosts_connected())
}

/// Start `flows` on their pinned paths, each carrying `bytes` (`None`:
/// infinite, at line rate). With a `stagger`, flow `i` starts at
/// `i·stagger` and the clock runs to each start, `t = 0` included;
/// without one, all start at the current instant.
pub fn start_flows(
    net: &mut Network,
    flows: &[PinnedFlow],
    bytes: Option<u64>,
    stagger: Option<Dur>,
) {
    for (i, (s, d, p)) in flows.iter().enumerate() {
        if let Some(stagger) = stagger {
            net.run_until(Time(stagger.0 * i as u64));
        }
        net.start_flow_on_path(*s, *d, bytes, 0, p.clone()).expect("pinned flow start");
    }
}

/// The §6.2.3 closed-loop enterprise churn on a fat-tree case: every host
/// keeps one flow in flight, sizes from the enterprise CDF, destinations
/// in another rack (behind another edge switch).
pub fn enterprise_churn(case: &PinnedCase) -> Box<dyn Workload> {
    let racks = case
        .hosts
        .iter()
        .map(|&h| case.topo.neighbors(h).next().expect("host has a live link").0 .0)
        .collect();
    Box::new(ClosedLoopWorkload {
        sizes: FlowSizeDist::Empirical(EmpiricalCdf::enterprise()),
        dests: DestPolicy::inter_rack(racks),
        num_hosts: case.hosts.len(),
        prio: 0,
        stop_after: None,
    })
}

/// Experiment scale: `Quick` for benches/tests, `Paper` approaches the
/// paper's sample counts (hours of CPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sample counts, minutes of CPU.
    Quick,
    /// Paper-scale sample counts.
    Paper,
}

/// Render a two-column paper-vs-measured table row.
pub fn row(label: &str, paper: &str, measured: &str) -> String {
    format!("{label:<44} | paper: {paper:<24} | measured: {measured}\n")
}

/// Every timeline-sampler track of `kind` (see
/// [`gfc_sim::Network::timeline_samplers`]) with its name, in
/// registration order — how the figure modules read their per-port
/// curves.
pub fn tracks_of_kind(samplers: &SamplerSet, kind: TrackKind) -> Vec<(String, TimeSeries)> {
    samplers
        .tracks()
        .iter()
        .enumerate()
        .filter(|(_, meta)| meta.kind == kind)
        .map(|(idx, meta)| (meta.name.clone(), series_of(samplers, idx)))
        .collect()
}

/// Exactly one named timeline-sampler track, for figures that watch one
/// observation point. Panics (with the name) when the track is absent, so
/// a renamed port label fails loudly rather than plotting an empty
/// series.
pub fn track(samplers: &SamplerSet, name: &str) -> TimeSeries {
    let mut hits = samplers.tracks().iter().enumerate().filter(|(_, meta)| meta.name == name);
    match (hits.next(), hits.next()) {
        (Some((idx, _)), None) => series_of(samplers, idx),
        _ => panic!("expected exactly one timeline track named {name:?}"),
    }
}

fn series_of(samplers: &SamplerSet, idx: usize) -> TimeSeries {
    let mut s = TimeSeries::new();
    for (t, v) in samplers.series(idx) {
        s.push(t, v);
    }
    s
}

/// Run `work` over every case on a scoped worker pool and return the
/// results **in case order**.
///
/// The sweep experiments (Figs. 16/17, Table 1) fan independent
/// simulations out over threads; each previously hand-rolled its own
/// `thread::scope` + shared-`Mutex` pool and merged results in *completion*
/// order — harmless for integer censuses, but order-sensitive for
/// floating-point sample aggregation. This helper centralizes the
/// pattern: cases are claimed from an atomic cursor (work-stealing, so an
/// expensive case never stalls the queue behind it), every worker buffers
/// `(index, result)` pairs locally, and the merge places results by index
/// — the output is identical to a sequential `cases.iter().map(...)` run,
/// regardless of thread count or scheduling.
///
/// Determinism contract: `work` must derive any randomness from its
/// `(index, case)` arguments alone (per-case seeds), never from shared
/// mutable state.
pub fn parallel_cases<T, R>(
    threads: usize,
    cases: &[T],
    work: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(cases.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= cases.len() {
                            break;
                        }
                        local.push((i, work(i, &cases[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("sweep worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("case skipped by the worker pool")).collect()
}

/// The result grid of a `scenarios × schemes` sweep, scenario-major: cell
/// `(si, ki)` holds the result of scheme `schemes[ki]` on scenario `si`.
#[derive(Debug, Clone)]
pub struct MatrixReport<R> {
    /// The scheme columns, in run order.
    pub schemes: Vec<Scheme>,
    /// Row-major (scenario-major) results: `cells[si * schemes.len() + ki]`.
    pub cells: Vec<R>,
}

impl<R> MatrixReport<R> {
    /// Number of scenario rows.
    pub fn num_scenarios(&self) -> usize {
        if self.schemes.is_empty() {
            0
        } else {
            self.cells.len() / self.schemes.len()
        }
    }

    /// The result of `scheme` on scenario row `si`. Panics when the
    /// scheme was not part of the sweep.
    pub fn cell(&self, si: usize, scheme: Scheme) -> &R {
        let ki = self
            .schemes
            .iter()
            .position(|&s| s == scheme)
            .unwrap_or_else(|| panic!("{} was not part of this sweep", scheme.name()));
        &self.cells[si * self.schemes.len() + ki]
    }

    /// One scenario row, in scheme order.
    pub fn row(&self, si: usize) -> &[R] {
        let w = self.schemes.len();
        &self.cells[si * w..(si + 1) * w]
    }
}

/// Run every `(scenario, scheme)` pair of the cross-product through `run`
/// on a worker pool and collect the grid. Built on [`parallel_cases`], so
/// the result order — and any floating-point aggregation the caller does
/// over it — is identical to a sequential sweep regardless of thread
/// count. `run` receives the scenario index, the scenario, and the
/// scheme; per-case seeds must derive from those alone.
pub fn run_matrix<S, R>(
    threads: usize,
    scenarios: &[S],
    schemes: &[Scheme],
    run: impl Fn(usize, &S, Scheme) -> R + Sync,
) -> MatrixReport<R>
where
    S: Sync,
    R: Send,
{
    let pairs: Vec<(usize, Scheme)> =
        (0..scenarios.len()).flat_map(|si| schemes.iter().map(move |&k| (si, k))).collect();
    let cells = parallel_cases(threads, &pairs, |_, &(si, scheme)| run(si, &scenarios[si], scheme));
    MatrixReport { schemes: schemes.to_vec(), cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfc_sim::TraceConfig;

    #[test]
    fn all_schemes_have_valid_300k_configs() {
        for s in Scheme::SHOOTOUT {
            sim_config_300k(s, 1);
        }
    }

    #[test]
    fn all_schemes_have_valid_testbed_configs() {
        for s in Scheme::SHOOTOUT {
            sim_config_testbed(s, 1);
        }
    }

    #[test]
    fn headline_disciplines() {
        assert_eq!(Scheme::Pfc.headline_pump(), PumpPolicy::OutputQueued);
        assert_eq!(Scheme::Dcfit.headline_pump(), PumpPolicy::OutputQueued);
        assert_eq!(Scheme::GfcBuffer.headline_pump(), PumpPolicy::RoundRobin);
        assert_eq!(Scheme::Bfc.headline_pump(), PumpPolicy::RoundRobin);
    }

    #[test]
    fn run_matrix_is_scenario_major_and_thread_independent() {
        let scenarios = ["a", "b", "c"];
        let schemes = [Scheme::Pfc, Scheme::Bfc];
        let expect: Vec<String> = scenarios
            .iter()
            .flat_map(|s| schemes.iter().map(move |k| format!("{s}/{}", k.name())))
            .collect();
        for threads in [1, 4] {
            let m =
                run_matrix(threads, &scenarios, &schemes, |_, s, k| format!("{s}/{}", k.name()));
            assert_eq!(m.cells, expect, "threads={threads}");
            assert_eq!(m.num_scenarios(), 3);
            assert_eq!(m.cell(1, Scheme::Bfc), "b/BFC");
            assert_eq!(m.row(2), &expect[4..6]);
        }
    }

    fn two_port_samplers() -> SamplerSet {
        let mut s = SamplerSet::new(50, 100);
        s.register_port(1, 0, "S1:p0");
        s.register_port(2, 3, "odd,name");
        s.sample(0, &[100.0, 1e9, 0.0, 0.5, 7.0, 2.5e9, 1.0, 0.1]);
        s.sample(50, &[200.0, 5e8, 1.0, 0.25, 8.0, 1.0 / 3.0, 0.0, 0.2]);
        s
    }

    #[test]
    fn track_lookup_returns_the_sampler_points() {
        let s = two_port_samplers();
        assert_eq!(track(&s, "S1:p0 ingress").points(), &[(0, 100.0), (50, 200.0)]);
        assert_eq!(track(&s, "odd,name rate").points(), &[(0, 2.5e9), (50, 1.0 / 3.0)]);
        let occ = tracks_of_kind(&s, TrackKind::IngressOccupancy);
        assert_eq!(occ.len(), 2);
        assert_eq!(occ[0].0, "S1:p0 ingress");
        assert_eq!(occ[0].1.points(), &[(0, 100.0), (50, 200.0)]);
        assert_eq!(occ[1].0, "odd,name ingress");
        assert_eq!(occ[1].1.points(), &[(0, 7.0), (50, 8.0)]);
        let util = tracks_of_kind(&s, TrackKind::LinkUtilization);
        assert_eq!(util[1].0, "odd,name util");
        assert_eq!(util[1].1.points(), &[(0, 0.1), (50, 0.2)]);
    }

    #[test]
    #[should_panic(expected = "\"S1:p7 ingress\"")]
    fn track_lookup_names_a_missing_track() {
        track(&two_port_samplers(), "S1:p7 ingress");
    }

    #[test]
    fn parallel_cases_matches_sequential_order() {
        let cases: Vec<u64> = (0..48).collect();
        let sequential: Vec<u64> =
            cases.iter().enumerate().map(|(i, &c)| ((i as u64) << 8) | (c * 3)).collect();
        for threads in [1, 3, 8] {
            let parallel = parallel_cases(threads, &cases, |i, &c| {
                // Finish later cases sooner to shuffle completion order.
                std::thread::sleep(std::time::Duration::from_micros(2 * (48 - c)));
                ((i as u64) << 8) | (c * 3)
            });
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn ring_case_pins_the_clockwise_routes_and_one_hop_probes() {
        let ring = Ring::new(3);
        let case = crate::shootout::ring_case();
        let cycle = PinnedCase { extra_flows: Vec::new(), ..case.clone() };
        assert_eq!(cycle.routes(), ring.clockwise_routes());
        // Each probe H_i → H_{i+1} takes the one ring link it shares
        // with the cycle.
        for (i, (s, d, p)) in case.extra_flows.iter().enumerate() {
            let j = (i + 1) % 3;
            assert_eq!((*s, *d), (ring.hosts[i], ring.hosts[j]));
            assert_eq!(&p[..], &[ring.host_links[i], ring.ring_links[i], ring.host_links[j]]);
        }
    }

    #[test]
    fn fig11_case_carries_the_resolved_paths() {
        let (ft, sc) = fig11_scenario();
        let case = PinnedCase::fig11(&[(2, 14)]);
        for (i, (s, d, p)) in case.cycle_flows.iter().enumerate() {
            let (si, di) = FIG11_FLOWS[i];
            assert_eq!((*s, *d), (ft.hosts[si], ft.hosts[di]));
            assert_eq!(&p[..], &sc.paths[i][..]);
        }
        let mut r = SpfRouting::new();
        let victim = r.path(&ft.topo, ft.hosts[2], ft.hosts[14], 0).expect("victim route");
        assert_eq!(&case.extra_flows[0].2[..], &victim[..]);
        assert_eq!(case.routes().len(), 5);
    }

    #[test]
    fn failed_fat_tree_cycle_flows_close_a_cbd() {
        let (mut prone, mut realized) = (0, 0);
        for seed in 0..40 {
            let case = PinnedCase::failed_fat_tree(4, 0.08, 77 ^ (4 << 32) ^ seed);
            assert_eq!(case.cbd_prone, all_pairs_depgraph(&case.topo).has_cycle());
            prone += usize::from(case.cbd_prone);
            if case.cycle_flows.is_empty() {
                continue;
            }
            realized += 1;
            assert!(case.cbd_prone);
            let flows: Vec<_> = case.cycle_flows.iter().map(|(s, _, p)| (*s, p.to_vec())).collect();
            assert!(gfc_topology::cbd::depgraph_for_flows(&case.topo, &flows).has_cycle());
        }
        assert!(realized > 0 && prone >= realized, "prone {prone}, realized {realized}");
    }

    #[test]
    fn start_flows_steps_the_clock_only_when_staggered() {
        let case = PinnedCase::ring();
        let cfg = sim_config_testbed(Scheme::GfcBuffer, 1);
        let new_net = || {
            Network::new(
                case.topo.clone(),
                Routing::fixed(case.routes()),
                cfg.clone(),
                TraceConfig::none(),
            )
        };
        let mut net = new_net();
        start_flows(&mut net, &case.cycle_flows, None, None);
        assert_eq!(net.now(), Time::ZERO);
        let mut net = new_net();
        start_flows(&mut net, &case.cycle_flows, Some(1_000_000), Some(Dur::from_micros(5)));
        assert_eq!(net.now(), Time(Dur::from_micros(10).0));
        assert_eq!(net.ledger().unfinished(), 3, "three finite flows, none finished yet");
    }

    #[test]
    fn fig11_scenario_is_reusable() {
        let (ft, sc) = fig11_scenario();
        assert_eq!(sc.failed.len(), 3);
        assert!(ft.topo.hosts_connected());
    }
}
