//! Static-vs-runtime agreement: `gfc-verify` is an *over-approximation*
//! of the simulator's structural-deadlock detector. Two directions are
//! checked on randomized scenarios:
//!
//! * soundness — whenever a run actually wedges into a structural
//!   wait-for cycle, the preflight must have called the scenario
//!   deadlock-susceptible beforehand (equivalently: statically "safe"
//!   scenarios never deadlock at runtime);
//! * GFC immunity — the analyzer never flags a GFC scheme as
//!   susceptible, matching Theorems 4.1/5.1.
//!
//! The converse (statically susceptible ⇒ runtime deadlock) is *not* a
//! property in general: reaching a deadlock needs the right traffic,
//! which a static analysis cannot know. The experiment harness covers
//! that direction on the paper's case studies (Figs. 9/12, Table 1), and
//! `pfc_ring_susceptibility_is_witnessed_at_runtime` below pins it on
//! the canonical clockwise ring.
//!
//! GFC012 exactness is additionally exercised on the sparse ring: a
//! fabric the conservative GFC011 prefilter calls CBD-prone, whose
//! peeling certificate says *exactly deadlock-free* — so no scheme, PFC
//! included, may ever wedge on it under any traffic.

use gfc_core::theorems::cbfc_recommended_period;
use gfc_core::units::{kb, Dur, Rate, Time};
use gfc_sim::config::PumpPolicy;
use gfc_sim::flowgen::ClosedLoopWorkload;
use gfc_sim::{FcConfig, Network, PreflightPolicy, SimConfig, TraceConfig};
use gfc_topology::{FatTree, Ring, Routing, SparseRing};
use gfc_workload::{DestPolicy, FlowSizeDist};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// The paper's §6.2.2 parameterization on the `default_10g` fabric.
fn scheme(idx: usize) -> FcConfig {
    let period = cbfc_recommended_period(Rate::from_gbps(10));
    match idx % 4 {
        0 => FcConfig::pfc(kb(280), kb(277)),
        1 => FcConfig::cbfc(period),
        2 => FcConfig::gfc_buffer(kb(300), kb(281)),
        _ => FcConfig::gfc_time(kb(159), kb(300), period),
    }
}

fn config(scheme_idx: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::default_10g();
    cfg.fc = scheme(scheme_idx);
    // Baselines run under the deadlock literature's proportional-sharing
    // switch, GFC under the testbed's fair discipline (DESIGN.md §8).
    cfg.pump = if scheme_idx % 4 >= 2 { PumpPolicy::RoundRobin } else { PumpPolicy::OutputQueued };
    cfg.seed = seed;
    cfg.progress_window = Dur::from_millis(1);
    // These cases are adversarial on purpose: record the verdict and run.
    cfg.preflight = PreflightPolicy::Acknowledge;
    cfg.validate();
    cfg
}

/// `(static susceptible, runtime structural deadlock)` on an `n`-switch
/// clockwise ring.
fn ring_case(n: usize, scheme_idx: usize, seed: u64) -> (bool, bool) {
    let ring = Ring::new(n);
    let routing = Routing::fixed(ring.clockwise_routes());
    let cfg = config(scheme_idx, seed);
    let susceptible = gfc_sim::preflight(&ring.topo, &routing, &cfg).verdict().deadlock_susceptible;
    let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    for (i, (src, dst)) in ring.clockwise_flows().into_iter().enumerate() {
        net.run_until(Time(Dur::from_micros(200).0 * i as u64));
        net.start_flow(src, dst, None, 0).expect("clockwise route");
    }
    net.run_until(Time::from_millis(12));
    (susceptible, net.structurally_deadlocked())
}

/// `(static susceptible, runtime structural deadlock)` on a k=4 fat-tree
/// with random link failures under a random closed-loop workload.
fn fattree_case(seed: u64, scheme_idx: usize, failure_prob: f64) -> (bool, bool) {
    let mut ft = FatTree::new(4);
    let mut rng = StdRng::seed_from_u64(seed);
    ft.inject_failures(&mut rng, failure_prob);
    let cfg = config(scheme_idx, seed);
    let susceptible =
        gfc_sim::preflight(&ft.topo, &Routing::spf(), &cfg).verdict().deadlock_susceptible;
    let racks: Vec<u32> = (0..ft.hosts.len()).map(|h| ft.rack_of_host(h) as u32).collect();
    let mut net = Network::new(ft.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
    net.install_workload(Box::new(ClosedLoopWorkload {
        sizes: FlowSizeDist::Uniform { min: 2_000, max: 400_000 },
        dests: DestPolicy::inter_rack(racks),
        num_hosts: ft.hosts.len(),
        prio: 0,
        stop_after: Some(Time::from_millis(2)),
    }));
    net.run_until(Time::from_millis(4));
    (susceptible, net.structurally_deadlocked())
}

/// `(static verdict, runtime structural deadlock)` on an `n`-switch
/// sparse ring (hosts on alternating switches) under persistent
/// all-pairs traffic.
fn sparse_ring_case(n: usize, scheme_idx: usize, seed: u64) -> (gfc_verify::StaticVerdict, bool) {
    let ring = SparseRing::new(n, 2);
    let routing = Routing::spf();
    let cfg = config(scheme_idx, seed);
    let verdict = gfc_sim::preflight(&ring.topo, &routing, &cfg).verdict();
    let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    let mut i = 0u64;
    for &src in &ring.hosts {
        for &dst in &ring.hosts {
            if src != dst {
                net.run_until(Time(Dur::from_micros(200).0 * i));
                net.start_flow(src, dst, None, 0).expect("spf route");
                i += 1;
            }
        }
    }
    net.run_until(Time::from_millis(10));
    (verdict, net.structurally_deadlocked())
}

/// The converse direction, pinned on the canonical susceptible fabric:
/// preflight calls the PFC clockwise ring deadlock-reachable, and the run
/// indeed wedges into a structural wait-for cycle — the static Error is
/// not a false alarm.
#[test]
fn pfc_ring_susceptibility_is_witnessed_at_runtime() {
    let (susceptible, deadlocked) = ring_case(3, 0, 7);
    assert!(susceptible, "preflight must flag the PFC clockwise ring");
    assert!(deadlocked, "the flagged ring must actually wedge under saturating flows");
}

/// DCFIT config on the §6.2.2 thresholds (PFC's gate plus the
/// initial-trigger detector).
fn dcfit_config(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::default_10g();
    cfg.fc = FcConfig::dcfit(kb(280), kb(277));
    cfg.pump = PumpPolicy::OutputQueued;
    cfg.seed = seed;
    cfg.progress_window = Dur::from_millis(1);
    cfg.preflight = PreflightPolicy::Acknowledge;
    cfg.validate();
    cfg
}

/// `(static susceptible, runtime detections)` for DCFIT on the `n`-ring.
fn dcfit_ring_case(n: usize, seed: u64) -> (bool, u64) {
    let ring = Ring::new(n);
    let routing = Routing::fixed(ring.clockwise_routes());
    let cfg = dcfit_config(seed);
    let susceptible = gfc_sim::preflight(&ring.topo, &routing, &cfg).verdict().deadlock_susceptible;
    let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    for (i, (src, dst)) in ring.clockwise_flows().into_iter().enumerate() {
        net.run_until(Time(Dur::from_micros(200).0 * i as u64));
        net.start_flow(src, dst, None, 0).expect("clockwise route");
    }
    net.run_until(Time::from_millis(12));
    (susceptible, net.fc_detections())
}

/// DCFIT's runtime witness agrees with the static lints in both
/// directions the paper's model supports: its initial-trigger detection
/// fires on the statically susceptible ring (the GFC011/GFC012 Error is
/// corroborated by an actual circular wait), and it never fires on the
/// sparse ring whose peeling certificate says *exactly deadlock-free* —
/// runtime detections are a subset of the statically flagged scenarios.
#[test]
fn dcfit_detections_subset_of_static_susceptibility() {
    let (susceptible, detections) = dcfit_ring_case(3, 7);
    assert!(susceptible, "preflight must flag the DCFIT (hard-gated) clockwise ring");
    assert!(detections >= 1, "DCFIT must witness the circular wait the lints predicted");

    // The certified-safe fabric: CBD-prone by the prefilter, exactly
    // deadlock-free by peeling. All-pairs saturating traffic must
    // produce zero detections — a detection here would be a false
    // positive the static certificate proves impossible.
    let ring = SparseRing::new(6, 2);
    let routing = Routing::spf();
    let cfg = dcfit_config(11);
    let verdict = gfc_sim::preflight(&ring.topo, &routing, &cfg).verdict();
    assert!(verdict.exact_deadlock_free && !verdict.deadlock_susceptible);
    let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    let mut i = 0u64;
    for &src in &ring.hosts {
        for &dst in &ring.hosts {
            if src != dst {
                net.run_until(Time(Dur::from_micros(200).0 * i));
                net.start_flow(src, dst, None, 0).expect("spf route");
                i += 1;
            }
        }
    }
    net.run_until(Time::from_millis(10));
    assert!(!net.structurally_deadlocked(), "certified-safe fabric wedged");
    assert_eq!(net.fc_detections(), 0, "DCFIT detected on a certified deadlock-free fabric");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Rings: runtime structural deadlock implies the static flag, and
    /// GFC is never statically susceptible.
    #[test]
    fn ring_static_verdict_covers_runtime(
        n in 3usize..6,
        scheme_idx in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let (susceptible, deadlocked) = ring_case(n, scheme_idx, seed);
        if deadlocked {
            prop_assert!(
                susceptible,
                "scheme {scheme_idx} deadlocked on the {n}-ring but preflight called it safe"
            );
        }
        if scheme_idx >= 2 {
            prop_assert!(!susceptible, "GFC statically flagged on the {n}-ring");
        }
    }

    /// Failed fat-trees under random traffic: a statically "safe" scenario
    /// never wedges, and GFC is never statically susceptible.
    #[test]
    fn fattree_static_verdict_covers_runtime(
        seed in 0u64..10_000,
        scheme_idx in 0usize..4,
        failure_idx in 0usize..3,
    ) {
        let failure_prob = [0.0, 0.05, 0.1][failure_idx];
        let (susceptible, deadlocked) = fattree_case(seed, scheme_idx, failure_prob);
        if !susceptible {
            prop_assert!(
                !deadlocked,
                "scheme {scheme_idx} wedged at p={failure_prob} though preflight called it safe"
            );
        }
        if scheme_idx >= 2 {
            prop_assert!(!susceptible, "GFC statically flagged on the fat-tree");
        }
    }

    /// The GFC012 certificate is exact in both directions on the 6-switch
    /// sparse ring (every host pair is exactly two ring hops apart, so no
    /// realizable flow chains through another host's switch): the
    /// prefilter cries wolf (CBD-prone), the peeling verdict certifies
    /// deadlock-freedom, and no scheme ever wedges at runtime under
    /// saturating all-pairs traffic. Larger sparse rings (n ≥ 8) are
    /// genuinely susceptible — antipodal ECMP pairs realize the full ring
    /// cycle — and are covered by the susceptible direction above.
    #[test]
    fn sparse_ring_certificate_holds_at_runtime(
        scheme_idx in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let (v, deadlocked) = sparse_ring_case(6, scheme_idx, seed);
        prop_assert!(v.cbd_prone, "the all-pairs union on the 6-sparse-ring should cycle");
        prop_assert!(
            v.exact_deadlock_free && !v.deadlock_susceptible,
            "peeling must certify the 6-sparse-ring deadlock-free"
        );
        prop_assert!(
            !deadlocked,
            "scheme {scheme_idx} wedged on the certified-safe 6-sparse-ring (seed {seed})"
        );
    }
}
