//! Cross-crate integration: workload-driven simulations over generated
//! topologies, exercising the full public API the way a downstream user
//! would.

use gfc::prelude::*;
use gfc_sim::config::PumpPolicy;

fn base_cfg(fc: FcConfig, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::default_10g();
    // Packet-granular stage crossings can overshoot Bm by a few frames in
    // coupled scenarios; keep the experiments' 4-MTU headroom above Bm.
    cfg.buffer_bytes = kb(300) + 4 * 1500;
    cfg.fc = fc;
    cfg.seed = seed;
    cfg
}

fn gfc_mode() -> FcConfig {
    FcConfig::gfc_buffer(kb(300), kb(281))
}

#[test]
fn closed_loop_enterprise_on_failed_fat_tree_completes_flows() {
    let mut ft = FatTree::new(4);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    ft.inject_failures(&mut rng, 0.05);
    let racks: Vec<u32> = (0..ft.hosts.len()).map(|h| ft.rack_of_host(h) as u32).collect();
    let mut net = Network::new(
        ft.topo.clone(),
        Routing::spf(),
        base_cfg(gfc_mode(), 99),
        TraceConfig::none(),
    );
    net.install_workload(Box::new(ClosedLoopWorkload {
        sizes: FlowSizeDist::Empirical(EmpiricalCdf::enterprise()),
        dests: DestPolicy::inter_rack(racks),
        num_hosts: ft.hosts.len(),
        prio: 0,
        stop_after: Some(Time::from_millis(8)),
    }));
    net.run_until(Time::from_millis(20));
    assert_eq!(net.stats().drops, 0, "lossless violated");
    assert!(net.ledger().finished() > 100, "only {} flows finished", net.ledger().finished());
    // Slowdowns are sane: every finished flow took at least the unloaded time.
    let sds = net.ledger().slowdowns(10_000_000_000, 1_000_000, 1500);
    assert!(!sds.is_empty());
    for (i, &sd) in sds.iter().enumerate() {
        assert!(sd > 0.99, "flow {i} finished faster than physics: slowdown {sd}");
    }
}

#[test]
fn all_schemes_are_lossless_under_incast() {
    use gfc_core::theorems::cbfc_recommended_period;
    let period = cbfc_recommended_period(Rate::from_gbps(10));
    let schemes = [
        FcConfig::pfc(kb(280), kb(277)),
        FcConfig::cbfc(period),
        FcConfig::gfc_buffer(kb(300), kb(281)),
        FcConfig::gfc_time(kb(159), kb(300), period),
    ];
    for fc in schemes {
        for senders in [2usize, 4, 8] {
            let inc = Incast::new(senders);
            let mut net = Network::new(
                inc.topo.clone(),
                Routing::spf(),
                base_cfg(fc, 5),
                TraceConfig::none(),
            );
            for &s in &inc.senders {
                net.start_flow(s, inc.receiver, Some(2_000_000), 0).expect("route");
            }
            net.run_until(Time::from_millis(40));
            assert_eq!(net.stats().drops, 0, "{fc:?} with {senders} senders dropped");
            assert_eq!(
                net.ledger().finished(),
                senders,
                "{fc:?} with {senders} senders: flows unfinished"
            );
        }
    }
    use gfc_core::units::Rate;
}

#[test]
fn incast_fair_share_is_respected() {
    // 4-to-1 incast, equal flows: completion times within 25% of each
    // other under GFC (fine-grained rate control is fair).
    let inc = Incast::new(4);
    let mut net = Network::new(
        inc.topo.clone(),
        Routing::spf(),
        base_cfg(gfc_mode(), 6),
        TraceConfig::none(),
    );
    for &s in &inc.senders {
        net.start_flow(s, inc.receiver, Some(3_000_000), 0).expect("route");
    }
    net.run_until(Time::from_millis(50));
    let fcts: Vec<f64> =
        net.ledger().records().iter().map(|r| r.fct_ps().expect("finished") as f64).collect();
    assert_eq!(fcts.len(), 4);
    let max = fcts.iter().cloned().fold(0.0, f64::max);
    let min = fcts.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(max / min < 1.25, "unfair incast: FCTs {fcts:?}");
    // Aggregate ≈ bottleneck capacity: 12 MB over a 10 Gb/s link ≈ 9.6 ms.
    assert!(max < 13e9, "incast too slow: {max} ps");
}

#[test]
fn output_queued_and_round_robin_both_work_when_uncongested() {
    for pump in [PumpPolicy::OutputQueued, PumpPolicy::RoundRobin] {
        let ft = FatTree::new(4);
        let mut cfg = base_cfg(gfc_mode(), 7);
        cfg.pump = pump;
        let mut net = Network::new(ft.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
        // A permutation at half load: no congestion, all finish fast.
        for i in 0..8usize {
            net.start_flow(ft.hosts[i], ft.hosts[15 - i], Some(500_000), 0).expect("route");
        }
        net.run_until(Time::from_millis(10));
        assert_eq!(net.stats().drops, 0, "{pump:?} dropped");
        assert_eq!(net.ledger().finished(), 8, "{pump:?}: unfinished flows");
    }
}

#[test]
fn multi_priority_queues_isolate_traffic() {
    // Two priorities on a 2-to-1 incast: per-priority GFC feedback.
    let inc = Incast::new(2);
    let mut cfg = base_cfg(gfc_mode(), 8);
    cfg.num_priorities = 2;
    let mut net = Network::new(inc.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
    net.start_flow(inc.senders[0], inc.receiver, Some(2_000_000), 0).expect("route");
    net.start_flow(inc.senders[1], inc.receiver, Some(2_000_000), 1).expect("route");
    net.run_until(Time::from_millis(30));
    assert_eq!(net.stats().drops, 0);
    assert_eq!(net.ledger().finished(), 2);
}

#[test]
fn conceptual_gfc_runs_end_to_end() {
    let inc = Incast::new(2);
    let mut cfg = base_cfg(FcConfig::conceptual(kb(50), kb(100), Dur::from_micros(10)), 9);
    cfg.buffer_bytes = kb(120);
    let mut net = Network::new(inc.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
    for &s in &inc.senders {
        net.start_flow(s, inc.receiver, Some(1_000_000), 0).expect("route");
    }
    net.run_until(Time::from_millis(20));
    assert_eq!(net.stats().drops, 0);
    assert_eq!(net.ledger().finished(), 2);
}

#[test]
fn unroutable_destinations_are_skipped_gracefully() {
    // Partition the fat-tree: flows to unreachable hosts must not be
    // started, and the workload retries other destinations.
    let mut ft = FatTree::new(4);
    // Fail every uplink of SE0 so hosts 0/1 are isolated.
    let se0 = ft.edges[0];
    let links: Vec<_> = ft.topo.ports(se0).iter().map(|&(_, l)| l).collect();
    for l in links {
        let link = ft.topo.link(l);
        // Keep host links, cut edge-agg uplinks.
        if ft.aggs.contains(&link.a) || ft.aggs.contains(&link.b) {
            ft.topo.fail_link(l);
        }
    }
    let mut net = Network::new(
        ft.topo.clone(),
        Routing::spf(),
        base_cfg(gfc_mode(), 10),
        TraceConfig::none(),
    );
    // Direct attempt across the partition fails cleanly.
    assert!(net.start_flow(ft.hosts[0], ft.hosts[8], Some(1000), 0).is_none());
    // Same-rack traffic still flows.
    assert!(net.start_flow(ft.hosts[0], ft.hosts[1], Some(100_000), 0).is_some());
    net.run_until(Time::from_millis(5));
    assert_eq!(net.ledger().finished(), 1);
}
