//! **Table 1** — the §6.2.3 deadlock census: fat-trees at k = 4/8/16 with
//! 5 % random fabric-link failures, shortest-path-first routing, and the
//! closed-loop enterprise workload. Topologies are prefiltered with the
//! all-pairs CBD-prone test (exactly the paper's filter); each CBD-prone
//! topology is simulated repeatedly per scheme, and counts as a *deadlock
//! case* for a scheme if any repeat reaches a structural deadlock.
//!
//! The paper's absolute counts (k=4: 32, k=8: 12, k=16: 2 out of 10 000
//! random networks, identical for PFC and CBFC, zero for both GFC
//! variants) depend on its random generator; the qualitative claims this
//! module checks are: GFC counts are zero, PFC/CBFC counts are positive
//! on CBD-prone topologies, and the CBD-prone fraction falls as k grows.

use crate::common::{parallel_cases, row, run_matrix, sim_config_300k, Scale, Scheme};
use gfc_core::units::Time;
use gfc_sim::flowgen::ClosedLoopWorkload;
use gfc_sim::{Network, TraceConfig};
use gfc_topology::fattree::FatTree;
use gfc_topology::Routing;
use gfc_workload::{DestPolicy, EmpiricalCdf, FlowSizeDist};
use std::collections::HashMap;

/// Census parameters.
#[derive(Debug, Clone)]
pub struct Table1Params {
    /// Fat-tree arities to sweep.
    pub ks: Vec<usize>,
    /// Random topologies per arity.
    pub topologies_per_k: usize,
    /// Simulation repeats per CBD-prone topology and scheme.
    pub repeats: usize,
    /// Per-link failure probability.
    pub failure_prob: f64,
    /// Horizon of each simulation.
    pub horizon: Time,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for the topology sweep.
    pub threads: usize,
}

impl Table1Params {
    /// Parameters for a scale tier. `Quick` keeps the census to minutes;
    /// `Paper` approaches the published sample counts.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Table1Params {
                ks: vec![4, 8],
                topologies_per_k: 40,
                repeats: 2,
                failure_prob: 0.08,
                horizon: Time::from_millis(15),
                seed: 77,
                threads: 8,
            },
            Scale::Paper => Table1Params {
                ks: vec![4, 8, 16],
                topologies_per_k: 10_000,
                repeats: 100,
                failure_prob: 0.05,
                horizon: Time::from_millis(20),
                seed: 1000,
                threads: 16,
            },
        }
    }
}

impl Default for Table1Params {
    fn default() -> Self {
        Table1Params::at_scale(Scale::Quick)
    }
}

/// Census counts for one arity.
#[derive(Debug, Clone)]
pub struct KCensus {
    /// Fat-tree arity.
    pub k: usize,
    /// Topologies sampled.
    pub sampled: usize,
    /// Topologies whose all-pairs dependency graph has a cycle.
    pub cbd_prone: usize,
    /// Structural-deadlock cases per scheme.
    pub deadlock_cases: HashMap<String, usize>,
    /// CBD-prone topologies the `gfc-verify` static analysis marks
    /// deadlock-susceptible, per scheme — the static prediction recorded
    /// next to the runtime census above. Static analysis over-approximates:
    /// every runtime case must also be a static case.
    pub static_cases: HashMap<String, usize>,
}

/// The Table 1 result.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// Parameters used.
    pub params: Table1Params,
    /// Per-arity counts.
    pub per_k: Vec<KCensus>,
}

/// One census simulation: the realized cycle-covering flows (the
/// adversarial combination churn would eventually produce) run as
/// line-rate flows on top of the closed-loop enterprise churn from every
/// other host. Returns the structural-deadlock verdict.
fn simulate_once(
    ft: &FatTree,
    cycle_flows: &[(gfc_topology::NodeId, gfc_topology::NodeId, Vec<gfc_topology::LinkId>)],
    scheme: Scheme,
    horizon: Time,
    seed: u64,
) -> bool {
    let mut cfg = sim_config_300k(scheme, seed);
    cfg.stop_on_deadlock = true;
    let racks: Vec<u32> = (0..ft.hosts.len()).map(|h| ft.rack_of_host(h) as u32).collect();
    let mut net = Network::new(ft.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
    net.install_workload(Box::new(ClosedLoopWorkload {
        sizes: FlowSizeDist::Empirical(EmpiricalCdf::enterprise()),
        dests: DestPolicy::inter_rack(racks),
        num_hosts: ft.hosts.len(),
        prio: 0,
        stop_after: None,
    }));
    for (s, d, p) in cycle_flows {
        net.start_flow_on_path(*s, *d, None, 0, std::sync::Arc::from(p.clone().into_boxed_slice()))
            .expect("cycle flow start");
    }
    net.run_until(horizon);
    assert_eq!(net.stats().drops, 0, "lossless config dropped packets");
    net.structurally_deadlocked()
}

/// One CBD-prone topology, prepared for the scheme matrix: the failed
/// fat-tree plus the realized adversarial flow combination (`None` when
/// the cycle is unrealizable — still CBD-prone, never simulated).
struct CensusScenario {
    topo_seed: u64,
    ft: FatTree,
    cycle_flows:
        Option<Vec<(gfc_topology::NodeId, gfc_topology::NodeId, Vec<gfc_topology::LinkId>)>>,
}

/// One `(topology, scheme)` cell of the census matrix.
struct CensusCell {
    /// `gfc-verify` flags this pair deadlock-susceptible.
    static_flag: bool,
    /// Some repeat reached a structural deadlock.
    deadlocked: bool,
}

/// Run the census.
pub fn run(params: Table1Params) -> Table1Result {
    let mut per_k = Vec::new();
    for &k in &params.ks {
        // Phase 1 — discover the CBD-prone topologies (the paper's
        // prefilter), one unit per topology on the shared sweep pool.
        // Seeds derive from (k, t) alone, so the census is independent of
        // thread count and scheduling.
        let topos: Vec<usize> = (0..params.topologies_per_k).collect();
        let scenarios: Vec<CensusScenario> = parallel_cases(params.threads, &topos, |_, &t| {
            use rand::{rngs::StdRng, SeedableRng};
            let topo_seed = params.seed ^ ((k as u64) << 32) ^ t as u64;
            let mut ft = FatTree::new(k);
            let mut rng = StdRng::seed_from_u64(topo_seed);
            ft.inject_failures(&mut rng, params.failure_prob);
            let g = gfc_topology::cbd::all_pairs_depgraph(&ft.topo);
            let cycle = g.find_cycle()?;
            // Realize the adversarial flow combination once per topology
            // (the paper waits for churn to find it); an unrealizable
            // cycle still counts as CBD-prone.
            let cycle_flows = gfc_topology::cbd::realize_cycle(&ft.topo, &cycle);
            Some(CensusScenario { topo_seed, ft, cycle_flows })
        })
        .into_iter()
        .flatten()
        .collect();
        // Phase 2 — the (topology × scheme) matrix over the survivors.
        let matrix = run_matrix(params.threads, &scenarios, &Scheme::ALL, |_, sc, scheme| {
            // Static prediction for this (topology, scheme) pair,
            // recorded next to the runtime census.
            let cfg = sim_config_300k(scheme, sc.topo_seed);
            let verdict = gfc_sim::preflight(&sc.ft.topo, &Routing::spf(), &cfg).verdict();
            let mut cell =
                CensusCell { static_flag: verdict.deadlock_susceptible, deadlocked: false };
            if let Some(cycle_flows) = &sc.cycle_flows {
                for r in 0..params.repeats {
                    let run_seed = sc.topo_seed.wrapping_mul(31).wrapping_add(r as u64);
                    if simulate_once(&sc.ft, cycle_flows, scheme, params.horizon, run_seed) {
                        cell.deadlocked = true;
                        break; // one deadlock makes this a case
                    }
                }
            }
            cell
        });
        let mut census = KCensus {
            k,
            sampled: params.topologies_per_k,
            cbd_prone: scenarios.len(),
            deadlock_cases: Scheme::ALL.iter().map(|s| (s.name().to_string(), 0)).collect(),
            static_cases: Scheme::ALL.iter().map(|s| (s.name().to_string(), 0)).collect(),
        };
        for si in 0..matrix.num_scenarios() {
            for &scheme in &Scheme::ALL {
                let cell = matrix.cell(si, scheme);
                if cell.static_flag {
                    *census.static_cases.get_mut(scheme.name()).expect("scheme row") += 1;
                }
                if cell.deadlocked {
                    *census.deadlock_cases.get_mut(scheme.name()).expect("scheme row") += 1;
                }
            }
        }
        per_k.push(census);
    }
    Table1Result { params, per_k }
}

impl Table1Result {
    /// Paper-vs-measured report.
    pub fn report(&self) -> String {
        let mut s = String::from("TABLE 1 — deadlock census (structural verdicts)\n");
        let paper = |k: usize| match k {
            4 => "PFC 32 / CBFC 32 / GFC 0 (of 10000)",
            8 => "PFC 12 / CBFC 12 / GFC 0 (of 10000)",
            16 => "PFC 2 / CBFC 2 / GFC 0 (of 10000)",
            _ => "-",
        };
        for c in &self.per_k {
            let get = |n: &str| c.deadlock_cases.get(n).copied().unwrap_or(0);
            s += &row(
                &format!("k={}: deadlock cases", c.k),
                paper(c.k),
                &format!(
                    "PFC {} / CBFC {} / bGFC {} / tGFC {} (of {}, {} CBD-prone)",
                    get("PFC"),
                    get("CBFC"),
                    get("Buffer-based GFC"),
                    get("Time-based GFC"),
                    c.sampled,
                    c.cbd_prone
                ),
            );
            let stat = |n: &str| c.static_cases.get(n).copied().unwrap_or(0);
            s += &row(
                &format!("k={}: static susceptible", c.k),
                "baselines = CBD-prone, GFC 0",
                &format!(
                    "PFC {} / CBFC {} / bGFC {} / tGFC {}",
                    stat("PFC"),
                    stat("CBFC"),
                    stat("Buffer-based GFC"),
                    stat("Time-based GFC"),
                ),
            );
        }
        s
    }

    /// The census for arity `k`, if it was swept.
    pub fn census_for(&self, k: usize) -> Option<&KCensus> {
        self.per_k.iter().find(|c| c.k == k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_census_matches_paper_shape() {
        // Tiny but meaningful: enough k=4 topologies that at least one is
        // CBD-prone, one repeat each.
        let params = Table1Params {
            ks: vec![4],
            topologies_per_k: 40,
            repeats: 1,
            failure_prob: 0.08,
            horizon: Time::from_millis(8),
            seed: 77,
            threads: 8,
        };
        let r = run(params);
        let c = r.census_for(4).unwrap();
        assert!(c.cbd_prone > 0, "no CBD-prone topology in the sample — raise the sample");
        let get = |n: &str| c.deadlock_cases.get(n).copied().unwrap_or(0);
        assert_eq!(get("Buffer-based GFC"), 0, "buffer GFC must never deadlock");
        assert_eq!(get("Time-based GFC"), 0, "time GFC must never deadlock");
        assert!(
            get("PFC") + get("CBFC") > 0,
            "no baseline deadlock among {} CBD-prone topologies",
            c.cbd_prone
        );
        // The static analysis must over-approximate the runtime census:
        // every topology that deadlocked at runtime was flagged, and no
        // GFC run is ever flagged.
        let stat = |n: &str| c.static_cases.get(n).copied().unwrap_or(0);
        assert!(stat("PFC") >= get("PFC"), "static PFC missed a runtime deadlock");
        assert!(stat("CBFC") >= get("CBFC"), "static CBFC missed a runtime deadlock");
        assert_eq!(stat("Buffer-based GFC"), 0, "static analysis flagged buffer GFC");
        assert_eq!(stat("Time-based GFC"), 0, "static analysis flagged time GFC");
    }
}
