//! Property-based simulator invariants: losslessness under every scheme,
//! bit-identical determinism, and conservation of delivered bytes.

use gfc_core::theorems::cbfc_recommended_period;
use gfc_core::units::{kb, Rate, Time};
use gfc_sim::flowgen::ClosedLoopWorkload;
use gfc_sim::{FcConfig, Network, PreflightPolicy, SimConfig, TraceConfig};
use gfc_topology::{FatTree, Routing};
use gfc_workload::{DestPolicy, FlowSizeDist};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn scheme(idx: usize) -> FcConfig {
    let period = cbfc_recommended_period(Rate::from_gbps(10));
    match idx % 4 {
        0 => FcConfig::pfc(kb(280), kb(277)),
        1 => FcConfig::cbfc(period),
        2 => FcConfig::gfc_buffer(kb(300), kb(281)),
        _ => FcConfig::gfc_time(kb(159), kb(300), period),
    }
}

fn run_once(seed: u64, scheme_idx: usize, failure_prob: f64) -> (u64, u64, u64, usize) {
    let mut ft = FatTree::new(4);
    let mut rng = StdRng::seed_from_u64(seed);
    ft.inject_failures(&mut rng, failure_prob);
    let mut cfg = SimConfig::default_10g();
    cfg.buffer_bytes = kb(300) + 6000;
    cfg.fc = scheme(scheme_idx);
    cfg.seed = seed;
    // Random failures can hand SPF a CBD-forming re-route, which preflight
    // flags under the baselines — losslessness must hold regardless.
    cfg.preflight = PreflightPolicy::Acknowledge;
    let racks: Vec<u32> = (0..ft.hosts.len()).map(|h| ft.rack_of_host(h) as u32).collect();
    let mut net = Network::new(ft.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
    net.install_workload(Box::new(ClosedLoopWorkload {
        sizes: FlowSizeDist::Uniform { min: 2_000, max: 400_000 },
        dests: DestPolicy::inter_rack(racks),
        num_hosts: ft.hosts.len(),
        prio: 0,
        stop_after: Some(Time::from_millis(2)),
    }));
    net.run_until(Time::from_millis(5));
    (
        net.stats().drops,
        net.stats().delivered_bytes,
        net.stats().delivered_packets,
        net.ledger().finished(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// No scheme ever drops a packet on a correctly parameterized fabric,
    /// regardless of topology failures or workload randomness.
    #[test]
    fn every_scheme_is_lossless(seed in 0u64..10_000, scheme_idx in 0usize..4) {
        let (drops, delivered, _, finished) = run_once(seed, scheme_idx, 0.05);
        prop_assert_eq!(drops, 0, "scheme {} dropped", scheme_idx);
        prop_assert!(delivered > 0, "nothing moved at all");
        prop_assert!(finished > 0, "no flow completed");
    }

    /// Same seed, same everything: simulations replay bit-identically.
    #[test]
    fn runs_are_bit_identical(seed in 0u64..10_000, scheme_idx in 0usize..4) {
        let a = run_once(seed, scheme_idx, 0.05);
        let b = run_once(seed, scheme_idx, 0.05);
        prop_assert_eq!(a, b);
    }

    /// Different seeds give different traffic (the RNG is actually wired
    /// through), except for vanishingly unlikely coincidences.
    #[test]
    fn seeds_differentiate_runs(seed in 0u64..10_000) {
        let a = run_once(seed, 2, 0.05);
        let b = run_once(seed.wrapping_add(1), 2, 0.05);
        prop_assert_ne!(a.1, b.1, "delivered bytes identical across seeds");
    }
}
