//! **Figs. 16 & 17** — overall performance (§6.2.3): average available
//! bandwidth per server (Fig. 16) and average flow slowdown (Fig. 17),
//! on (a) CBD-free random failed fat-trees and (b) deadlock-prone ones.
//!
//! Expected shapes: on CBD-free cases all four schemes perform similarly
//! (GFC introduces no bandwidth waste or FCT inflation; its throughput
//! deviation is *smaller* because rates adjust at a finer granularity);
//! on deadlock-prone cases PFC/CBFC collapse to ~zero bandwidth and
//! unbounded slowdown (unfinished flows) while GFC stays close to the
//! CBD-free numbers.

use crate::common::{parallel_cases, row, sim_config_300k, Scale, Scheme};
use gfc_core::units::Time;
use gfc_sim::config::PumpPolicy;
use gfc_sim::flowgen::ClosedLoopWorkload;
use gfc_sim::{Network, TraceConfig};
use gfc_telemetry::Summary;
use gfc_topology::cbd::{all_pairs_depgraph, realize_cycle};
use gfc_topology::fattree::FatTree;
use gfc_topology::Routing;
use gfc_workload::{DestPolicy, EmpiricalCdf, FlowSizeDist};
use std::collections::HashMap;

/// Parameters for the performance comparison.
#[derive(Debug, Clone)]
pub struct PerfParams {
    /// Fat-tree arity.
    pub k: usize,
    /// Number of CBD-free cases.
    pub cbd_free_cases: usize,
    /// Number of deadlock-prone cases.
    pub prone_cases: usize,
    /// Per-link failure probability.
    pub failure_prob: f64,
    /// Horizon of each simulation.
    pub horizon: Time,
    /// Base seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Size of each cycle-covering flow in the prone panel. Finite and
    /// large: big enough to fill the CBD buffers and wedge the baselines,
    /// but — per the paper's §6.2.3 observation — under GFC "once any flow
    /// in this combination is finished, the CBD is naturally broken and
    /// there is no further side-effect".
    pub cycle_flow_bytes: u64,
}

impl PerfParams {
    /// Parameters for a scale tier (the paper uses 100 cases per panel).
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => PerfParams {
                k: 4,
                cbd_free_cases: 8,
                prone_cases: 6,
                failure_prob: 0.08,
                horizon: Time::from_millis(15),
                seed: 76,
                threads: 8,
                cycle_flow_bytes: 2 * 1024 * 1024,
            },
            Scale::Paper => PerfParams {
                k: 8,
                cbd_free_cases: 100,
                prone_cases: 100,
                failure_prob: 0.05,
                horizon: Time::from_millis(40),
                seed: 4242,
                threads: 16,
                cycle_flow_bytes: 8 * 1024 * 1024,
            },
        }
    }
}

impl Default for PerfParams {
    fn default() -> Self {
        PerfParams::at_scale(Scale::Quick)
    }
}

/// Per-scheme aggregate metrics over one panel's cases.
#[derive(Debug, Clone)]
pub struct SchemePerf {
    /// Per-case mean per-server goodput samples (bits/s).
    pub throughput_samples: Vec<f64>,
    /// Per-case mean slowdown samples.
    pub slowdown_samples: Vec<f64>,
    /// Flows left unfinished across cases (∞-slowdown markers).
    pub unfinished: usize,
    /// Finished flows across cases.
    pub finished: usize,
    /// Structural deadlocks observed across cases.
    pub deadlocks: usize,
    /// Control messages received across cases (registry `sim.ctrl.msgs`).
    pub ctrl_msgs: u64,
    /// Control bytes received across cases (registry `sim.ctrl.bytes`) —
    /// the Fig. 16/19-style overhead numerator, scheme-attributed.
    pub ctrl_bytes: u64,
    /// Data bytes delivered across cases (overhead denominator).
    pub delivered_bytes: u64,
}

impl SchemePerf {
    fn new() -> Self {
        SchemePerf {
            throughput_samples: Vec::new(),
            slowdown_samples: Vec::new(),
            unfinished: 0,
            finished: 0,
            deadlocks: 0,
            ctrl_msgs: 0,
            ctrl_bytes: 0,
            delivered_bytes: 0,
        }
    }

    /// Summary of per-case mean goodput.
    pub fn throughput(&self) -> Option<Summary> {
        Summary::of(&self.throughput_samples)
    }

    /// Summary of per-case mean slowdown (finished flows only).
    pub fn slowdown(&self) -> Option<Summary> {
        Summary::of(&self.slowdown_samples)
    }

    /// Control-plane byte overhead as a fraction of delivered data bytes.
    pub fn ctrl_overhead(&self) -> f64 {
        self.ctrl_bytes as f64 / self.delivered_bytes.max(1) as f64
    }
}

/// The combined Fig. 16/17 result.
#[derive(Debug, Clone)]
pub struct PerfResult {
    /// Parameters used.
    pub params: PerfParams,
    /// Panel (a): CBD-free cases.
    pub cbd_free: HashMap<String, SchemePerf>,
    /// Panel (b): deadlock-prone cases (cycle flows instantiated).
    pub prone: HashMap<String, SchemePerf>,
}

/// What one `(case, scheme)` simulation contributes to its panel.
struct CaseOutcome {
    goodput_per_server: f64,
    mean_slowdown: Option<f64>,
    finished: usize,
    unfinished: usize,
    deadlocked: bool,
    ctrl_msgs: u64,
    ctrl_bytes: u64,
    delivered_bytes: u64,
}

fn run_case(
    ft: &FatTree,
    cycle_flows: Option<&[(gfc_topology::NodeId, gfc_topology::NodeId, Vec<gfc_topology::LinkId>)]>,
    scheme: Scheme,
    params: &PerfParams,
    seed: u64,
) -> CaseOutcome {
    let mut cfg = sim_config_300k(scheme, seed);
    // Panel (a) compares raw performance: use the fair discipline for all
    // schemes so differences come from the flow control, not the fabric.
    if cycle_flows.is_none() {
        cfg.pump = PumpPolicy::RoundRobin;
    }
    let racks: Vec<u32> = (0..ft.hosts.len()).map(|h| ft.rack_of_host(h) as u32).collect();
    let mut net = Network::new(ft.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
    net.install_workload(Box::new(ClosedLoopWorkload {
        sizes: FlowSizeDist::Empirical(EmpiricalCdf::enterprise()),
        dests: DestPolicy::inter_rack(racks),
        num_hosts: ft.hosts.len(),
        prio: 0,
        stop_after: None,
    }));
    if let Some(flows) = cycle_flows {
        for (s, d, p) in flows {
            net.start_flow_on_path(
                *s,
                *d,
                Some(params.cycle_flow_bytes),
                0,
                std::sync::Arc::from(p.clone().into_boxed_slice()),
            )
            .expect("cycle flow");
        }
    }
    net.run_until(params.horizon);
    let snap = net.metrics_snapshot();
    assert_eq!(
        snap.counter(gfc_telemetry::names::DROPS).unwrap_or(0),
        0,
        "lossless config dropped packets"
    );
    let goodput_per_server = snap.goodput_bps() / ft.hosts.len() as f64;
    let slowdowns = net.ledger().slowdowns(
        net.config().capacity.0,
        net.config().prop_delay.0,
        net.config().mtu,
    );
    let mean_sd = Summary::of(&slowdowns).map(|s| s.mean);
    CaseOutcome {
        goodput_per_server,
        mean_slowdown: mean_sd,
        finished: net.ledger().finished(),
        unfinished: net.ledger().unfinished(),
        deadlocked: net.structurally_deadlocked(),
        ctrl_msgs: snap.counter(gfc_telemetry::names::CTRL_MSGS).unwrap_or(0),
        ctrl_bytes: snap.counter(gfc_telemetry::names::CTRL_BYTES).unwrap_or(0),
        delivered_bytes: snap.counter(gfc_telemetry::names::DELIVERED_BYTES).unwrap_or(0),
    }
}

/// Run the Fig. 16/17 experiment.
pub fn run(params: PerfParams) -> PerfResult {
    use rand::{rngs::StdRng, SeedableRng};
    // Collect case topologies first (deterministic scan).
    let mut free_cases = Vec::new();
    let mut prone_cases = Vec::new();
    let mut seed_cursor = params.seed;
    while free_cases.len() < params.cbd_free_cases || prone_cases.len() < params.prone_cases {
        seed_cursor = seed_cursor.wrapping_add(1);
        let mut ft = FatTree::new(params.k);
        let mut rng = StdRng::seed_from_u64(seed_cursor);
        ft.inject_failures(&mut rng, params.failure_prob);
        if !ft.topo.hosts_connected() {
            continue;
        }
        let g = all_pairs_depgraph(&ft.topo);
        match g.find_cycle() {
            None if free_cases.len() < params.cbd_free_cases => free_cases.push((ft, None)),
            Some(cycle) if prone_cases.len() < params.prone_cases => {
                if let Some(flows) = realize_cycle(&ft.topo, &cycle) {
                    prone_cases.push((ft, Some(flows)));
                }
            }
            _ => {}
        }
    }

    // One unit per (case, scheme) pair — the granularity the shared pool
    // steals at — merged back in unit order, so the per-scheme sample
    // vectors (and their floating-point summaries) are independent of
    // thread scheduling.
    let run_panel = |cases: &[(FatTree, Option<Vec<_>>)]| {
        let units: Vec<(usize, usize)> =
            (0..cases.len()).flat_map(|c| (0..Scheme::ALL.len()).map(move |s| (c, s))).collect();
        let results = parallel_cases(params.threads, &units, |_, &(case_idx, scheme_idx)| {
            let (ft, flows) = &cases[case_idx];
            run_case(
                ft,
                flows.as_deref(),
                Scheme::ALL[scheme_idx],
                &params,
                params.seed ^ (case_idx as u64) << 16 ^ scheme_idx as u64,
            )
        });
        let mut out: HashMap<String, SchemePerf> =
            Scheme::ALL.iter().map(|s| (s.name().to_string(), SchemePerf::new())).collect();
        for (&(_, scheme_idx), o) in units.iter().zip(results) {
            let e = out.get_mut(Scheme::ALL[scheme_idx].name()).expect("scheme row");
            e.throughput_samples.push(o.goodput_per_server);
            if let Some(sd) = o.mean_slowdown {
                e.slowdown_samples.push(sd);
            }
            e.finished += o.finished;
            e.unfinished += o.unfinished;
            e.deadlocks += o.deadlocked as usize;
            e.ctrl_msgs += o.ctrl_msgs;
            e.ctrl_bytes += o.ctrl_bytes;
            e.delivered_bytes += o.delivered_bytes;
        }
        out
    };

    let cbd_free = run_panel(&free_cases);
    let prone = run_panel(&prone_cases);
    PerfResult { params, cbd_free, prone }
}

impl PerfResult {
    /// Fig. 16 (bandwidth) paper-vs-measured report.
    pub fn report_fig16(&self) -> String {
        let mut s = String::from("FIG 16 — average available bandwidth per server\n");
        for (panel, data, paper) in [
            ("CBD-free", &self.cbd_free, "similar across all four schemes"),
            ("deadlock-prone", &self.prone, "PFC/CBFC ~0; GFC ≈ CBD-free level"),
        ] {
            for scheme in Scheme::ALL {
                let p = &data[scheme.name()];
                let t = p.throughput().map(|x| x.mean / 1e9).unwrap_or(0.0);
                let sd = p.throughput().map(|x| x.stddev / 1e9).unwrap_or(0.0);
                s += &row(
                    &format!("{panel}: {}", scheme.name()),
                    paper,
                    &format!(
                        "{t:.2} ± {sd:.2} Gb/s, deadlocks {}, ctrl {:.3} % ({} msgs)",
                        p.deadlocks,
                        p.ctrl_overhead() * 100.0,
                        p.ctrl_msgs
                    ),
                );
            }
        }
        s
    }

    /// Fig. 17 (slowdown) paper-vs-measured report.
    pub fn report_fig17(&self) -> String {
        let mut s = String::from("FIG 17 — average slowdown (FCT / unloaded FCT)\n");
        for (panel, data, paper) in [
            ("CBD-free", &self.cbd_free, "similar across all four schemes"),
            ("deadlock-prone", &self.prone, "PFC/CBFC unbounded (unfinished flows); GFC normal"),
        ] {
            for scheme in Scheme::ALL {
                let p = &data[scheme.name()];
                let sd = p.slowdown().map(|x| x.mean).unwrap_or(f64::NAN);
                s += &row(
                    &format!("{panel}: {}", scheme.name()),
                    paper,
                    &format!(
                        "mean slowdown {sd:.2}, finished {} / unfinished {}",
                        p.finished, p.unfinished
                    ),
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fig16_17_shape() {
        let params = PerfParams {
            cbd_free_cases: 3,
            prone_cases: 6,
            horizon: Time::from_millis(15),
            ..Default::default()
        };
        let r = run(params);
        // Panel (a): every scheme moves traffic; GFC within 2x of PFC.
        let tp = |panel: &HashMap<String, SchemePerf>, n: &str| {
            panel[n].throughput().map(|s| s.mean).unwrap_or(0.0)
        };
        let pfc_free = tp(&r.cbd_free, "PFC");
        let gfc_free = tp(&r.cbd_free, "Buffer-based GFC");
        assert!(pfc_free > 1e8, "PFC CBD-free goodput {pfc_free}");
        assert!(gfc_free > 0.5 * pfc_free, "GFC wastes bandwidth: {gfc_free} vs {pfc_free}");
        // Panel (b): baselines deadlock on some prone cases, GFC never.
        assert!(
            r.prone["PFC"].deadlocks + r.prone["CBFC"].deadlocks > 0,
            "no baseline deadlock in the prone panel"
        );
        assert_eq!(r.prone["Buffer-based GFC"].deadlocks, 0);
        assert_eq!(r.prone["Time-based GFC"].deadlocks, 0);
        // GFC stays functional on prone cases (the CBD breaks once the
        // adversarial flows finish).
        // At this short horizon the CBD transient (the 4 MB adversarial
        // flows) occupies a large fraction of the run, so the prone-panel
        // goodput sits well below the CBD-free level but far above a
        // collapse.
        let gfc_prone = tp(&r.prone, "Buffer-based GFC");
        assert!(
            gfc_prone > 0.2 * gfc_free,
            "GFC prone goodput collapsed: {gfc_prone} vs free {gfc_free}"
        );
        // Slowdowns exist for finished flows.
        assert!(r.cbd_free["PFC"].slowdown().is_some());
        // Control-plane accounting populated from the registry: every
        // scheme moved feedback, and the byte overhead stays a small
        // fraction of delivered data.
        for scheme in Scheme::ALL {
            let p = &r.cbd_free[scheme.name()];
            assert!(p.ctrl_msgs > 0, "{} recorded no control messages", scheme.name());
            assert!(p.delivered_bytes > 0);
            assert!(
                p.ctrl_overhead() < 0.05,
                "{} ctrl overhead {:.3} %",
                scheme.name(),
                p.ctrl_overhead() * 100.0
            );
        }
    }
}
