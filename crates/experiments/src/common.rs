//! Shared scaffolding for the per-figure experiment modules.

use gfc_core::bfc::BfcConfig;
use gfc_core::theorems;
use gfc_core::units::{kb, Dur, Rate};
use gfc_sim::config::{FcConfig, PumpPolicy};
use gfc_sim::{PreflightPolicy, SimConfig};
use gfc_telemetry::{SamplerSet, TimeSeries, TrackKind};
use gfc_topology::fattree::{find_fig11_failures, FatTree, Fig11Scenario};
use gfc_topology::{Routing, Topology};
use std::sync::OnceLock;

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

/// Render the full preflight report for a scenario, prefixed with the
/// scheme name — printed by the experiment harness before each run.
pub fn preflight_banner(
    label: &str,
    topo: &Topology,
    routing: &Routing,
    cfg: &SimConfig,
) -> String {
    let report = gfc_sim::preflight(topo, routing, cfg);
    let mut out = format!("[preflight] {label}: {}\n", report.summary());
    for line in report.render().lines() {
        out.push_str("    ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The memoized Fig. 11 scenario (k = 4 fat-tree, three failed links whose
/// SPF re-routing gives the four flows a CBD).
pub fn fig11_scenario() -> &'static (FatTree, Fig11Scenario) {
    static SCENARIO: OnceLock<(FatTree, Fig11Scenario)> = OnceLock::new();
    SCENARIO.get_or_init(|| {
        find_fig11_failures(8).expect("a 3-failure Fig. 11 scenario must exist on the k=4 fat-tree")
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
    fn fig11_scenario_is_reusable() {
        let (ft, sc) = fig11_scenario();
        assert_eq!(sc.failed.len(), 3);
        assert!(ft.topo.hosts_connected());
    }
}
