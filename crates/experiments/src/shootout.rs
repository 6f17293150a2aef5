//! **Shootout** — the cross-backend comparison the `FcBackend` trait
//! exists for: every flow-control scheme (the paper's four plus BFC and
//! DCFIT) on the same `topology × failure × workload` matrix, reporting
//! deadlock incidence, probe-flow completion and FCT slowdown
//! percentiles, and feedback-bandwidth overhead from the per-port
//! control-RX counters.
//!
//! Two scenarios, both CBD-prone by construction: the Fig. 1 three-switch
//! ring with its clockwise cycle flows, and the Fig. 11 k = 4 fat-tree
//! with three failed links routing the four case-study flows into a CBD.
//! Each scenario runs its infinite cycle flows from the start; once the
//! hard-gated baselines have had time to wedge, a set of finite *probe*
//! flows starts across the congested region. A scheme that deadlocks
//! strands the probes (FCT = never); a live scheme finishes them, and the
//! probes' slowdown distribution measures what the scheme's flow control
//! costs the flows that should be unaffected.

use crate::common::{
    fig11_scenario, run_matrix, sim_config_300k, static_verdict, MatrixReport, Scheme,
};
use gfc_core::units::{Dur, Time};
use gfc_sim::{Network, TraceConfig};
use gfc_telemetry::registry::percentile;
use gfc_topology::fattree::FIG11_FLOWS;
use gfc_topology::{LinkId, NodeId, Ring, Routing, SpfRouting, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// Parameters of the shootout.
#[derive(Debug, Clone)]
pub struct ShootoutParams {
    /// Simulated horizon.
    pub horizon: Time,
    /// When the finite probe flows start (after the cycle flows have had
    /// time to wedge the hard-gated schemes).
    pub probe_start: Time,
    /// Probe flow size, bytes.
    pub probe_bytes: u64,
    /// Start offset between consecutive cycle flows.
    pub stagger: Dur,
    /// RNG seed base; each `(scenario, scheme)` cell derives its own.
    pub seed: u64,
    /// Worker threads for the matrix sweep.
    pub threads: usize,
}

impl Default for ShootoutParams {
    fn default() -> Self {
        ShootoutParams {
            horizon: Time::from_millis(16),
            probe_start: Time::from_millis(8),
            probe_bytes: 150_000,
            stagger: Dur::from_micros(150),
            seed: 7,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        }
    }
}

/// One scenario of the matrix: a topology plus pinned cycle and probe
/// flows. Everything is pre-routed so the preflight verdict and the
/// simulated paths are the same object.
#[derive(Debug, Clone)]
pub struct ShootoutScenario {
    /// Scenario name used in reports.
    pub name: &'static str,
    /// The (possibly failure-degraded) topology.
    pub topo: Topology,
    /// Pinned routes for every flow pair, fed to both the static
    /// preflight and the simulator.
    pub pinned: HashMap<(NodeId, NodeId), Vec<LinkId>>,
    /// Infinite cycle flows `(src, dst, path)` forming the CBD.
    pub cycle_flows: Vec<(NodeId, NodeId, Arc<[LinkId]>)>,
    /// Finite probe flows `(src, dst, path)` crossing the congested
    /// region.
    pub probes: Vec<(NodeId, NodeId, Arc<[LinkId]>)>,
}

fn pin(path: Vec<LinkId>) -> Arc<[LinkId]> {
    Arc::from(path.into_boxed_slice())
}

/// The Fig. 1 ring scenario: three clockwise two-hop cycle flows
/// (`H_i → H_{i+2}`) plus three one-hop probes (`H_i → H_{i+1}`), each
/// probe sharing its ring link with the cycle.
pub fn ring_scenario() -> ShootoutScenario {
    let n = 3;
    let ring = Ring::new(n);
    let mut pinned = ring.clockwise_routes();
    let cycle_flows = (0..n)
        .map(|i| {
            let (s, d, p) = ring.clockwise_path(i);
            (s, d, pin(p))
        })
        .collect();
    let probes = (0..n)
        .map(|i| {
            let (src, dst) = (ring.hosts[i], ring.hosts[(i + 1) % n]);
            let path = vec![ring.host_links[i], ring.ring_links[i], ring.host_links[(i + 1) % n]];
            pinned.insert((src, dst), path.clone());
            (src, dst, pin(path))
        })
        .collect();
    ShootoutScenario { name: "ring-3", topo: ring.topo, pinned, cycle_flows, probes }
}

/// The Fig. 11 fat-tree scenario: the four case-study cycle flows on
/// their CBD paths, probed by four finite flows on those *same* paths —
/// a probe only finishes if the region the cycle wedges is still moving.
pub fn fattree_scenario() -> ShootoutScenario {
    let (ft, sc) = fig11_scenario();
    let mut r = SpfRouting::new();
    let mut pinned = HashMap::new();
    let mut cycle_flows = Vec::new();
    let mut probes = Vec::new();
    for (i, &(s, d)) in FIG11_FLOWS.iter().enumerate() {
        let p =
            r.path(&ft.topo, ft.hosts[s], ft.hosts[d], sc.flow_hashes[i]).expect("scenario path");
        pinned.insert((ft.hosts[s], ft.hosts[d]), p.clone());
        let path = pin(p);
        cycle_flows.push((ft.hosts[s], ft.hosts[d], path.clone()));
        probes.push((ft.hosts[s], ft.hosts[d], path));
    }
    ShootoutScenario { name: "fat-tree-fig11", topo: ft.topo.clone(), pinned, cycle_flows, probes }
}

/// One `(scenario, scheme)` cell of the shootout matrix.
#[derive(Debug, Clone)]
pub struct ShootoutCell {
    /// Scenario name.
    pub scenario: String,
    /// Scheme under test.
    pub scheme: Scheme,
    /// Strict structural verdict: a wait-for cycle was observed.
    pub structural_deadlock: bool,
    /// Progress-monitor verdict (backlogged, zero deliveries for a
    /// window).
    pub stalled: bool,
    /// When the deadlock/stall began, ms.
    pub deadlock_at_ms: Option<f64>,
    /// Runtime deadlock detections raised by the backend itself (DCFIT's
    /// initial trigger; 0 for every other scheme).
    pub detections: u64,
    /// When the first runtime detection fired, ms.
    pub first_detection_ms: Option<f64>,
    /// Probe flows that finished before the horizon.
    pub probes_finished: usize,
    /// Probe flows launched.
    pub probes_total: usize,
    /// Median probe FCT slowdown (finished probes only).
    pub slowdown_p50: Option<f64>,
    /// 99th-percentile probe FCT slowdown.
    pub slowdown_p99: Option<f64>,
    /// Total control bytes received across all ports.
    pub ctrl_bytes: u64,
    /// Total control messages received across all ports.
    pub ctrl_msgs: u64,
    /// Worst per-port feedback-bandwidth share: max over ports of
    /// `ctrl_bytes·8 / (C·horizon)`.
    pub ctrl_overhead_peak: f64,
    /// Static preflight: the scheme is susceptible on these routes
    /// (GFC011/GFC012 `deadlock reachable`).
    pub static_susceptible: bool,
    /// Packet drops (must stay 0: every scheme here is lossless).
    pub drops: u64,
}

/// The full shootout result.
#[derive(Debug, Clone)]
pub struct ShootoutResult {
    /// Parameters used.
    pub params: ShootoutParams,
    /// Scenario names, row order.
    pub scenarios: Vec<String>,
    /// The `scenarios × schemes` grid.
    pub matrix: MatrixReport<ShootoutCell>,
}

fn run_cell(
    params: &ShootoutParams,
    sc: &ShootoutScenario,
    scheme: Scheme,
    seed: u64,
) -> ShootoutCell {
    let cfg = sim_config_300k(scheme, seed);
    let routing = Routing::fixed(sc.pinned.clone());
    let verdict = static_verdict(&sc.topo, &routing, &cfg);
    let static_susceptible = verdict.contains("deadlock reachable");

    let mut net = Network::new(sc.topo.clone(), routing, cfg, TraceConfig::none());
    for (i, (s, d, p)) in sc.cycle_flows.iter().enumerate() {
        net.run_until(Time(params.stagger.0 * i as u64));
        net.start_flow_on_path(*s, *d, None, 0, p.clone()).expect("cycle flow start");
    }
    net.run_until(params.probe_start);
    for (s, d, p) in &sc.probes {
        net.start_flow_on_path(*s, *d, Some(params.probe_bytes), 0, p.clone())
            .expect("probe start");
    }
    net.run_until(params.horizon);

    let cfg = net.config();
    let slowdowns = net.ledger().slowdowns(cfg.capacity.0, cfg.prop_delay.0, cfg.mtu);
    let horizon_s = params.horizon.as_secs_f64();
    let line_bits = cfg.capacity.0 as f64 * horizon_s;
    let (mut ctrl_bytes, mut ctrl_msgs, mut ctrl_overhead_peak) = (0u64, 0u64, 0f64);
    for (_, _, b, m) in net.ctrl_rx_per_port() {
        ctrl_bytes += b;
        ctrl_msgs += m;
        ctrl_overhead_peak = ctrl_overhead_peak.max(b as f64 * 8.0 / line_bits);
    }

    ShootoutCell {
        scenario: sc.name.to_string(),
        scheme,
        structural_deadlock: net.structurally_deadlocked(),
        stalled: net.deadlocked(),
        deadlock_at_ms: net.structural_deadlock_at().or(net.deadlock_at()).map(Time::as_millis_f64),
        detections: net.fc_detections(),
        first_detection_ms: net.first_fc_detection_at().map(Time::as_millis_f64),
        probes_finished: net.ledger().finished(),
        probes_total: sc.probes.len(),
        slowdown_p50: percentile(&slowdowns, 50.0),
        slowdown_p99: percentile(&slowdowns, 99.0),
        ctrl_bytes,
        ctrl_msgs,
        ctrl_overhead_peak,
        static_susceptible,
        drops: net.stats().drops,
    }
}

/// Run the shootout over `schemes` (typically [`Scheme::SHOOTOUT`]) on
/// the ring and fat-tree scenarios.
pub fn run_schemes(params: ShootoutParams, schemes: &[Scheme]) -> ShootoutResult {
    let scenarios = [ring_scenario(), fattree_scenario()];
    let matrix = run_matrix(params.threads, &scenarios, schemes, |si, sc, scheme| {
        // Per-cell seed: scenario-major, stable across thread counts.
        let seed = params.seed ^ ((si as u64) << 32) ^ (scheme as u64 + 1);
        run_cell(&params, sc, scheme, seed)
    });
    ShootoutResult {
        params,
        scenarios: scenarios.iter().map(|s| s.name.to_string()).collect(),
        matrix,
    }
}

/// Run the shootout over every scheme.
pub fn run(params: ShootoutParams) -> ShootoutResult {
    run_schemes(params, &Scheme::SHOOTOUT)
}

fn opt(v: Option<f64>) -> String {
    v.map_or_else(|| "—".into(), |x| format!("{x:.2}"))
}

impl ShootoutResult {
    /// Render the per-scheme table, one block per scenario.
    pub fn report(&self) -> String {
        let mut s = String::from("SHOOTOUT — every backend on the same deadlock matrix\n");
        for si in 0..self.matrix.num_scenarios() {
            s += &format!("\n  scenario: {}\n", self.scenarios[si]);
            s += &format!(
                "  {:<17} {:>9} {:>7} {:>7} {:>9} {:>9} {:>10} {:>9} {:>7}\n",
                "scheme",
                "deadlock",
                "detect",
                "probes",
                "sd p50",
                "sd p99",
                "ctrl KB",
                "ctrl bw",
                "static"
            );
            for cell in self.matrix.row(si) {
                let deadlock = if cell.structural_deadlock {
                    format!("@{:.1}ms", cell.deadlock_at_ms.unwrap_or(0.0))
                } else if cell.stalled {
                    "stall".into()
                } else {
                    "no".into()
                };
                s += &format!(
                    "  {:<17} {:>9} {:>7} {:>7} {:>9} {:>9} {:>10.1} {:>8.2}% {:>7}\n",
                    cell.scheme.name(),
                    deadlock,
                    cell.detections,
                    format!("{}/{}", cell.probes_finished, cell.probes_total),
                    opt(cell.slowdown_p50),
                    opt(cell.slowdown_p99),
                    cell.ctrl_bytes as f64 / 1024.0,
                    cell.ctrl_overhead_peak * 100.0,
                    if cell.static_susceptible { "at-risk" } else { "immune" },
                );
            }
        }
        s
    }

    /// CSV export, one row per `(scenario, scheme)` cell.
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "scenario,scheme,structural_deadlock,stalled,deadlock_at_ms,detections,\
             first_detection_ms,probes_finished,probes_total,slowdown_p50,slowdown_p99,\
             ctrl_bytes,ctrl_msgs,ctrl_overhead_peak,static_susceptible,drops\n",
        );
        for cell in &self.matrix.cells {
            s += &format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                cell.scenario,
                cell.scheme.name(),
                cell.structural_deadlock,
                cell.stalled,
                cell.deadlock_at_ms.map_or(String::new(), |x| format!("{x:.3}")),
                cell.detections,
                cell.first_detection_ms.map_or(String::new(), |x| format!("{x:.3}")),
                cell.probes_finished,
                cell.probes_total,
                cell.slowdown_p50.map_or(String::new(), |x| format!("{x:.4}")),
                cell.slowdown_p99.map_or(String::new(), |x| format!("{x:.4}")),
                cell.ctrl_bytes,
                cell.ctrl_msgs,
                cell.ctrl_overhead_peak,
                cell.static_susceptible,
                cell.drops,
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shootout_separates_the_backends() {
        let r = run(ShootoutParams::default());
        assert_eq!(r.scenarios, ["ring-3", "fat-tree-fig11"]);
        assert_eq!(r.matrix.cells.len(), 2 * Scheme::SHOOTOUT.len());

        for si in 0..2 {
            let pfc = r.matrix.cell(si, Scheme::Pfc);
            let dcfit = r.matrix.cell(si, Scheme::Dcfit);
            assert!(pfc.structural_deadlock, "PFC must wedge on {}: {pfc:?}", r.scenarios[si]);
            assert!(
                dcfit.structural_deadlock,
                "DCFIT is PFC underneath and must wedge on {}",
                r.scenarios[si]
            );
            assert!(
                dcfit.detections >= 1,
                "DCFIT must raise its initial trigger on {}: {dcfit:?}",
                r.scenarios[si]
            );
            assert_eq!(pfc.probes_finished, 0, "probes through a wedged {} moved", r.scenarios[si]);
            for scheme in [Scheme::GfcBuffer, Scheme::GfcTime, Scheme::Bfc] {
                let cell = r.matrix.cell(si, scheme);
                assert!(
                    !cell.structural_deadlock && !cell.stalled,
                    "{} wedged on {}: {cell:?}",
                    scheme.name(),
                    r.scenarios[si]
                );
                assert_eq!(
                    cell.probes_finished,
                    cell.probes_total,
                    "{} stranded probes on {}: {cell:?}",
                    scheme.name(),
                    r.scenarios[si]
                );
                assert!(cell.slowdown_p50.unwrap() >= 1.0, "slowdown below ideal");
                assert_eq!(cell.detections, 0, "only DCFIT detects");
            }
            for cell in r.matrix.row(si) {
                assert_eq!(cell.drops, 0, "{} dropped on {}", cell.scheme.name(), cell.scenario);
                // Runtime detections only ever fire where the static
                // analysis already flagged susceptibility.
                if cell.detections > 0 {
                    assert!(cell.static_susceptible, "detection without static risk: {cell:?}");
                }
                // Hard-gated schemes are flagged by preflight; GFC is immune.
                if cell.scheme.is_gfc() {
                    assert!(!cell.static_susceptible, "GFC flagged at risk: {cell:?}");
                }
            }
        }
        // The report and CSV render every cell.
        let rep = r.report();
        for k in Scheme::SHOOTOUT {
            assert!(rep.contains(k.name()), "report misses {}", k.name());
        }
        assert_eq!(r.to_csv().lines().count(), 1 + r.matrix.cells.len());
    }
}
