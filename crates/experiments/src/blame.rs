//! **Blame report** — causal stall attribution across schemes: who paused
//! whom, how deep the backpressure propagated, and which flows paid.
//!
//! This is the observability companion of Figs. 5 and 9: the paper argues
//! PFC's pauses *cascade* (a congested port silences its upstream, which
//! fills and silences *its* upstream, hop by hop toward the sources —
//! §2.2's victim-flow and deadlock mechanics), while GFC's feedback stays
//! a one-hop rate adjustment. The causal tracker
//! ([`gfc_telemetry::CausalTracker`]) turns that argument into a measured
//! artifact: pause-propagation trees with per-tree hard depth, plus a
//! per-flow verdict (congestion root / propagation victim /
//! deadlock participant) with blamed stall time.
//!
//! Two scenarios, each PFC vs buffer-based GFC:
//!
//! * the §6.1 testbed ring (Fig. 9's deadlock construction) — under PFC
//!   the staggered startup chains pauses multiple hops around the ring
//!   before the wait-for cycle closes; under GFC no message ever hard
//!   stops anything, so the hard-propagation depth stays 0;
//! * the failed fat-tree case study with Fig. 14's victim flow — under
//!   PFC the victim (whose path shares links with the CBD flows but
//!   avoids the cycle) stalls on propagated pauses it did nothing to
//!   cause; under GFC it keeps delivering.

use crate::common::{row, sim_config_300k, sim_config_testbed, Scheme};
use crate::fig09::RingParams;
use crate::fig14::find_victim;
use gfc_core::units::{Dur, Time};
use gfc_sim::{Network, TraceConfig};
use gfc_telemetry::FlowClass;
use gfc_topology::fattree::FIG11_FLOWS;
use gfc_topology::{Ring, Routing, SpfRouting};
use std::sync::Arc;

/// Parameters of the blame report.
#[derive(Debug, Clone)]
pub struct BlameParams {
    /// Ring scenario parameters (Fig. 9's defaults).
    pub ring: RingParams,
    /// Fat-tree horizon.
    pub fattree_horizon: Time,
    /// Fat-tree RNG seed.
    pub fattree_seed: u64,
    /// Start offset between consecutive case-study flows.
    pub fattree_stagger: Dur,
}

impl Default for BlameParams {
    fn default() -> Self {
        BlameParams {
            ring: RingParams { horizon: Time::from_millis(30), ..Default::default() },
            fattree_horizon: Time::from_millis(30),
            fattree_seed: 11,
            fattree_stagger: Dur::from_micros(500),
        }
    }
}

/// One scheme's causal summary on one scenario, with the exportable
/// artifacts (DOT tree, episode/blame CSVs) attached.
#[derive(Debug, Clone)]
pub struct SchemeBlame {
    /// Scheme name.
    pub scheme: String,
    /// Backpressure episodes observed (hard + soft).
    pub episodes: u64,
    /// Hard (pause / credit-exhaustion) episodes among them.
    pub hard_episodes: u64,
    /// Distinct propagation trees.
    pub trees: u64,
    /// Maximum propagation depth over *all* episodes (root = 0).
    pub max_depth_all: u32,
    /// Maximum propagation depth over *hard* episodes — the paper's
    /// cascade metric. 0 means no pause was ever provoked by another.
    pub max_hard_depth: u32,
    /// Hard-episode count per depth (index = depth).
    pub hard_depth_hist: Vec<u64>,
    /// Flows classified as congestion roots.
    pub congestion_roots: u64,
    /// Flows classified as propagation victims.
    pub victims: u64,
    /// Flows classified as deadlock-cycle participants.
    pub deadlock_participants: u64,
    /// Flows that stalled with no overlapping episode to blame.
    pub unattributed: u64,
    /// Stall time attributed to some tree root, ms.
    pub blamed_stall_ms: f64,
    /// Structural (wait-for-cycle) deadlock verdict of the run.
    pub structural_deadlock: bool,
    /// Graphviz rendering of the propagation trees.
    pub dot: String,
    /// Episode table as CSV.
    pub episodes_csv: String,
    /// Per-flow blame table as CSV.
    pub blame_csv: String,
    /// Human-readable tree + verdict rendering.
    pub rendered: String,
}

/// Summarize a finished causal-enabled run.
fn blame_of(scheme: Scheme, net: &Network) -> SchemeBlame {
    let report = net.causal_report().expect("causal tracking is enabled for blame runs");
    SchemeBlame {
        scheme: scheme.name().to_string(),
        episodes: report.episodes.len() as u64,
        hard_episodes: report.episodes.iter().filter(|e| e.hard).count() as u64,
        trees: report.trees.len() as u64,
        max_depth_all: report.max_depth(),
        max_hard_depth: report.max_hard_depth(),
        hard_depth_hist: report.depth_histogram(true),
        congestion_roots: report.flows_classified(FlowClass::CongestionRoot) as u64,
        victims: report.flows_classified(FlowClass::PropagationVictim) as u64,
        deadlock_participants: report.flows_classified(FlowClass::DeadlockParticipant) as u64,
        unattributed: report.flows_classified(FlowClass::Unattributed) as u64,
        blamed_stall_ms: report.blamed_stall_ps() as f64 / 1e9,
        structural_deadlock: net.structurally_deadlocked(),
        dot: report.to_dot(),
        episodes_csv: report.episodes_csv(),
        blame_csv: report.blame_csv(),
        rendered: report.render(),
    }
}

/// Run one scheme on the testbed ring with causal tracking on.
pub fn run_ring_scheme(params: &RingParams, scheme: Scheme) -> SchemeBlame {
    let ring = Ring::new(3);
    let mut cfg = sim_config_testbed(scheme, params.seed);
    cfg.telemetry.causal = true;
    let routing = Routing::fixed(ring.clockwise_routes());
    let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    for (i, (src, dst)) in ring.clockwise_flows().into_iter().enumerate() {
        net.run_until(Time(params.stagger.0 * i as u64));
        net.start_flow(src, dst, None, 0).expect("clockwise route");
    }
    net.run_until(params.horizon);
    blame_of(scheme, &net)
}

/// Run one scheme on the failed fat-tree (Fig. 11 scenario, four
/// case-study flows plus Fig. 14's victim) with causal tracking on.
pub fn run_fattree_scheme(params: &BlameParams, scheme: Scheme) -> SchemeBlame {
    let (ft, sc) = crate::common::fig11_scenario();
    let victim = find_victim();
    let mut cfg = sim_config_300k(scheme, params.fattree_seed);
    cfg.telemetry.causal = true;
    let mut net = Network::new(ft.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
    let mut r = SpfRouting::new();
    // The victim starts at t = 0 on its ECMP-hash-0 path (the one
    // Fig. 14's selection validated against the CBD structure), then the
    // four case-study flows come up staggered — as in Fig. 14.
    let (vs, vd) = victim;
    let p = r.path(&ft.topo, ft.hosts[vs], ft.hosts[vd], 0).expect("victim route");
    net.start_flow_on_path(ft.hosts[vs], ft.hosts[vd], None, 0, Arc::from(p.into_boxed_slice()))
        .expect("victim start");
    for (i, &(s, d)) in FIG11_FLOWS.iter().enumerate() {
        net.run_until(Time(params.fattree_stagger.0 * i as u64));
        let p =
            r.path(&ft.topo, ft.hosts[s], ft.hosts[d], sc.flow_hashes[i]).expect("scenario path");
        net.start_flow_on_path(ft.hosts[s], ft.hosts[d], None, 0, Arc::from(p.into_boxed_slice()))
            .expect("flow start");
    }
    net.run_until(params.fattree_horizon);
    blame_of(scheme, &net)
}

/// The blame report: both scenarios, PFC vs buffer-based GFC.
#[derive(Debug, Clone)]
pub struct BlameResult {
    /// Parameters used.
    pub params: BlameParams,
    /// PFC on the testbed ring.
    pub ring_pfc: SchemeBlame,
    /// Buffer-based GFC on the testbed ring.
    pub ring_gfc: SchemeBlame,
    /// PFC on the failed fat-tree with the victim flow.
    pub fattree_pfc: SchemeBlame,
    /// Buffer-based GFC on the failed fat-tree with the victim flow.
    pub fattree_gfc: SchemeBlame,
}

/// Run the full blame report.
pub fn run(params: BlameParams) -> BlameResult {
    let ring_pfc = run_ring_scheme(&params.ring, Scheme::Pfc);
    let ring_gfc = run_ring_scheme(&params.ring, Scheme::GfcBuffer);
    let fattree_pfc = run_fattree_scheme(&params, Scheme::Pfc);
    let fattree_gfc = run_fattree_scheme(&params, Scheme::GfcBuffer);
    BlameResult { params, ring_pfc, ring_gfc, fattree_pfc, fattree_gfc }
}

impl BlameResult {
    /// Paper-vs-measured report.
    pub fn report(&self) -> String {
        let depth = |b: &SchemeBlame| {
            format!(
                "hard depth {} (episodes {}/{} hard, {} trees), blamed stall {:.1} ms",
                b.max_hard_depth, b.hard_episodes, b.episodes, b.trees, b.blamed_stall_ms
            )
        };
        let verdicts = |b: &SchemeBlame| {
            format!(
                "{} roots / {} victims / {} deadlock participants",
                b.congestion_roots, b.victims, b.deadlock_participants
            )
        };
        let mut s = String::from("BLAME — causal stall attribution, PFC vs buffer-based GFC\n");
        s += &row("ring: PFC pause cascade", "pauses chain multi-hop", &depth(&self.ring_pfc));
        s += &row("ring: PFC flow verdicts", "all in the cycle", &verdicts(&self.ring_pfc));
        s += &row("ring: GFC cascade", "no hard stops (depth 0)", &depth(&self.ring_gfc));
        s += &row("ring: GFC flow verdicts", "no victims", &verdicts(&self.ring_gfc));
        s += &row(
            "fat-tree: PFC victim flow",
            "innocent flow stalled (§2.2)",
            &verdicts(&self.fattree_pfc),
        );
        s += &row("fat-tree: PFC cascade", "pauses chain multi-hop", &depth(&self.fattree_pfc));
        s += &row("fat-tree: GFC victim flow", "unharmed", &verdicts(&self.fattree_gfc));
        s += &row("fat-tree: GFC cascade", "no hard stops (depth 0)", &depth(&self.fattree_gfc));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_blame_separates_schemes() {
        let params = BlameParams::default();
        let pfc = run_ring_scheme(&params.ring, Scheme::Pfc);
        let gfc = run_ring_scheme(&params.ring, Scheme::GfcBuffer);
        // PFC: the staggered ring chains pauses at least two hops deep
        // before the wait-for cycle closes, and the wedged flows classify
        // as deadlock participants.
        assert!(pfc.structural_deadlock, "PFC must deadlock on the ring");
        assert!(pfc.max_hard_depth >= 2, "PFC hard depth {} must cascade", pfc.max_hard_depth);
        assert!(pfc.deadlock_participants > 0, "wedged flows must blame the cycle");
        assert!(pfc.blamed_stall_ms > 0.0, "stall time must be attributed");
        assert!(pfc.dot.contains("digraph causes"), "DOT artifact rendered");
        // GFC: soft throttling only — no hard episode anywhere, no
        // victims, nothing deadlocked.
        assert!(!gfc.structural_deadlock);
        assert_eq!(gfc.hard_episodes, 0, "GFC must never hard-stop a port");
        assert_eq!(gfc.max_hard_depth, 0);
        assert_eq!(gfc.victims, 0, "GFC must not create propagation victims");
        assert_eq!(gfc.deadlock_participants, 0);
        assert!(gfc.episodes > 0, "GFC soft episodes are still tracked");
        assert!(pfc.max_hard_depth > gfc.max_hard_depth, "the separating metric");
    }

    #[test]
    fn fattree_blame_finds_the_victim() {
        let params = BlameParams::default();
        let pfc = run_fattree_scheme(&params, Scheme::Pfc);
        let gfc = run_fattree_scheme(&params, Scheme::GfcBuffer);
        // PFC: the cascade reaches beyond the CBD — the victim flow (path
        // disjoint from the cycle) stalls on propagated pauses.
        assert!(pfc.max_hard_depth >= 2, "PFC hard depth {} must cascade", pfc.max_hard_depth);
        assert!(
            pfc.victims + pfc.deadlock_participants > 0,
            "stalled flows must be attributed (victims {}, participants {})",
            pfc.victims,
            pfc.deadlock_participants
        );
        assert!(pfc.victims >= 1, "the Fig. 14 victim must classify as a propagation victim");
        // GFC: no hard stops, no victims.
        assert_eq!(gfc.hard_episodes, 0);
        assert_eq!(gfc.max_hard_depth, 0);
        assert_eq!(gfc.victims, 0, "GFC must keep the victim flow running");
    }
}
