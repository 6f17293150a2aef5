//! End-to-end validation of the paper's headline claim on the Fig. 1
//! ring: PFC and CBFC deadlock, all GFC variants keep traffic flowing.
//!
//! ## Switch-discipline note (see DESIGN.md §"Model fidelity")
//!
//! The baselines' ring deadlock is driven by *proportional* output sharing
//! (FIFO output queues — the standard packet-simulator switch and the
//! model of the PFC-deadlock literature): line-rate sources outcompete
//! throttled transit traffic, ring ingresses overflow their thresholds,
//! and the pause/credit freeze locks the cycle. Under an idealized
//! per-input fair switch the same symmetric ring stabilizes instead —
//! a genuine sensitivity this reproduction documents. GFC is validated
//! under both disciplines: it *never* forms a structural wait-for cycle
//! (it has no hard gate to freeze), and under the fair discipline its
//! trajectories match the paper's testbed quantitatively (queue parked in
//! stage 1, 5 Gb/s shares).

use gfc_core::params::LinkClass;
use gfc_core::theorems;
use gfc_core::units::{kb, Dur, Rate, Time};
use gfc_sim::config::PumpPolicy;
use gfc_sim::{FcConfig, Network, PreflightPolicy, ShardedNetwork, SimConfig, TraceConfig};
use gfc_telemetry::names;
use gfc_topology::{Partition, Ring, Routing};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Build the Fig. 1 ring scenario: 3 switches, clockwise two-hop routes,
/// every host sending an infinite flow at line rate. Parameters follow the
/// paper's §6.2.2 values (300 KB buffers, 10 Gb/s).
fn ring_network(fc: FcConfig, pump: PumpPolicy, seed: u64) -> Network {
    let ring = Ring::new(3);
    let mut cfg = SimConfig::default_10g();
    cfg.fc = fc;
    cfg.pump = pump;
    cfg.seed = seed;
    cfg.progress_window = Dur::from_millis(2);
    // These tests *verify* the deadlocks the static analyzer predicts —
    // acknowledge the preflight errors instead of refusing to build.
    cfg.preflight = PreflightPolicy::Acknowledge;
    let routing = Routing::fixed(ring.clockwise_routes());
    let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    for (src, dst) in ring.clockwise_flows() {
        net.start_flow(src, dst, None, 0).expect("clockwise route");
    }
    net
}

fn link() -> LinkClass {
    LinkClass::cee(Rate::from_gbps(10))
}

fn pfc_mode() -> FcConfig {
    // Paper §6.2.2: XOFF = 280 KB, XON = 277 KB.
    FcConfig::pfc(kb(280), kb(277))
}

fn gfc_buffer_mode() -> FcConfig {
    // Paper §6.2.2: B1 = 281 KB of a 300 KB buffer — a few packets of
    // slack below the Bm − 2·C·τ bound.
    let bound = theorems::buffer_based_b1_bound(kb(300), link().capacity, link().tau()).unwrap();
    let b1 = kb(281);
    assert!(b1 <= bound, "paper B1 must satisfy the bound");
    FcConfig::gfc_buffer(kb(300), b1)
}

fn cbfc_mode() -> FcConfig {
    FcConfig::cbfc(theorems::cbfc_recommended_period(link().capacity))
}

fn gfc_time_mode() -> FcConfig {
    // Paper §6.2.2: B0 = 159 KB of a 300 KB buffer (below the Theorem 5.1
    // bound for these parameters).
    let period = theorems::cbfc_recommended_period(link().capacity);
    FcConfig::gfc_time(kb(159), kb(300), period)
}

#[test]
fn pfc_deadlocks_on_the_ring() {
    let mut net = ring_network(pfc_mode(), PumpPolicy::OutputQueued, 7);
    net.run_until(Time::from_millis(20));
    assert_eq!(net.stats().drops, 0, "PFC must stay lossless even while deadlocking");
    assert!(net.deadlocked(), "PFC on the clockwise ring must deadlock");
    assert!(net.structurally_deadlocked(), "a wait-for cycle among paused ports must be present");
    assert!(net.waitfor_cycle_exists(), "the cycle persists at the end of the run");
    // Once dead, nothing moves: delivered bytes stop growing.
    let frozen = net.stats().delivered_bytes;
    net.run_until(Time::from_millis(30));
    assert_eq!(net.stats().delivered_bytes, frozen, "deadlock must be permanent");
}

#[test]
fn cbfc_deadlocks_on_the_ring() {
    let mut net = ring_network(cbfc_mode(), PumpPolicy::OutputQueued, 7);
    net.run_until(Time::from_millis(20));
    assert_eq!(net.stats().drops, 0);
    assert!(net.structurally_deadlocked(), "CBFC on the clockwise ring must deadlock");
    assert!(net.waitfor_cycle_exists());
}

#[test]
fn gfc_buffer_keeps_the_ring_alive() {
    let mut net = ring_network(gfc_buffer_mode(), PumpPolicy::RoundRobin, 7);
    let horizon = Time::from_millis(20);
    net.run_until(horizon);
    assert_eq!(net.stats().drops, 0, "GFC must be lossless");
    assert!(!net.deadlocked(), "buffer-based GFC must avoid deadlock");
    assert!(!net.structurally_deadlocked());
    assert!(!net.waitfor_cycle_exists());
    // Three flows, each bottlenecked at ~5 Gb/s (two flows per ring link):
    // aggregate goodput ≈ 15 Gb/s over the run (minus ramp-up).
    let agg_gbps = net.stats().delivered_bytes as f64 * 8.0 / horizon.as_secs_f64() / 1e9;
    assert!(agg_gbps > 12.0, "aggregate goodput only {agg_gbps:.2} Gb/s");
    assert!(agg_gbps < 15.5, "aggregate goodput impossibly high: {agg_gbps:.2} Gb/s");
}

#[test]
fn gfc_time_keeps_the_ring_alive() {
    let mut net = ring_network(gfc_time_mode(), PumpPolicy::RoundRobin, 7);
    let horizon = Time::from_millis(20);
    net.run_until(horizon);
    assert_eq!(net.stats().drops, 0, "time-based GFC must be lossless");
    assert!(!net.deadlocked(), "time-based GFC must avoid deadlock");
    assert!(!net.structurally_deadlocked());
    let agg_gbps = net.stats().delivered_bytes as f64 * 8.0 / horizon.as_secs_f64() / 1e9;
    assert!(agg_gbps > 11.0, "aggregate goodput only {agg_gbps:.2} Gb/s");
}

#[test]
fn gfc_never_forms_a_waitfor_cycle_under_either_discipline() {
    // The paper's core claim — GFC eliminates hold-and-wait — holds under
    // BOTH sharing disciplines, including the adversarial proportional one
    // where its throughput degrades: ports are never hard-blocked, so no
    // structural deadlock can form.
    for pump in [PumpPolicy::OutputQueued, PumpPolicy::RoundRobin] {
        let mut net = ring_network(gfc_buffer_mode(), pump, 7);
        net.run_until(Time::from_millis(20));
        assert!(
            !net.structurally_deadlocked(),
            "buffer-based GFC formed a wait-for cycle under {pump:?}"
        );
        assert_eq!(
            net.metrics_snapshot().counter(names::HOLD_AND_WAIT).unwrap_or(0),
            0,
            "buffer-based GFC has no hard gate, hence no hold-and-wait"
        );
    }
}

#[test]
fn baselines_enter_hold_and_wait() {
    let mut pfc = ring_network(pfc_mode(), PumpPolicy::OutputQueued, 3);
    pfc.run_until(Time::from_millis(10));
    let pfc_episodes = pfc.metrics_snapshot().counter(names::HOLD_AND_WAIT).unwrap_or(0);
    assert!(pfc_episodes > 0, "PFC must pause upstream ports");

    let mut cbfc = ring_network(cbfc_mode(), PumpPolicy::OutputQueued, 3);
    cbfc.run_until(Time::from_millis(10));
    assert!(
        cbfc.metrics_snapshot().counter(names::HOLD_AND_WAIT).unwrap_or(0) > 0,
        "CBFC must starve for credits"
    );
}

#[test]
fn runs_are_deterministic() {
    let run = |seed| {
        let mut net = ring_network(gfc_buffer_mode(), PumpPolicy::RoundRobin, seed);
        net.run_until(Time::from_millis(5));
        (
            net.stats().delivered_packets,
            net.stats().delivered_bytes,
            net.stats().ctrl_msgs,
            net.metrics_snapshot().counter(names::FEEDBACK_GENERATED).unwrap_or(0),
        )
    };
    assert_eq!(run(42), run(42), "same seed must replay identically");
}

#[test]
fn larger_rings_behave_the_same() {
    // 5-switch ring: same qualitative split.
    let build = |fc: FcConfig, pump| {
        let ring = Ring::new(5);
        let mut cfg = SimConfig::default_10g();
        cfg.fc = fc;
        cfg.pump = pump;
        cfg.progress_window = Dur::from_millis(2);
        cfg.preflight = PreflightPolicy::Acknowledge;
        let routing = Routing::fixed(ring.clockwise_routes());
        let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
        for (src, dst) in ring.clockwise_flows() {
            net.start_flow(src, dst, None, 0).expect("route");
        }
        net
    };
    let mut pfc = build(pfc_mode(), PumpPolicy::OutputQueued);
    pfc.run_until(Time::from_millis(20));
    assert!(pfc.structurally_deadlocked(), "PFC must deadlock on the 5-ring");
    let mut gfc = build(gfc_buffer_mode(), PumpPolicy::RoundRobin);
    gfc.run_until(Time::from_millis(20));
    assert!(!gfc.deadlocked(), "GFC must keep the 5-ring alive");
    assert_eq!(gfc.stats().drops, 0);
}

#[test]
fn cbfc_deadlocks_even_under_fair_switching_with_staggered_starts() {
    // The credit gate engages at full-buffer occupancy with no hysteresis,
    // so the freeze propagates even under per-input fair sharing once
    // staggered starts let a ring ingress fill with pure transit traffic.
    // The wedge is timing-dependent (feedback-clock phases): roughly half
    // the seeds lock within a few ms (33/64 over seeds 1..=64 with the
    // vendored deterministic RNG) — assert that a solid fraction of a
    // seed sample wedges while every run stays lossless.
    let mut wedged = 0;
    for seed in 1u64..=16 {
        let ring = Ring::new(3);
        let mut cfg = SimConfig::default_10g();
        cfg.fc = cbfc_mode();
        cfg.pump = PumpPolicy::RoundRobin;
        cfg.seed = seed;
        cfg.progress_window = Dur::from_millis(2);
        cfg.preflight = PreflightPolicy::Acknowledge;
        let routing = Routing::fixed(ring.clockwise_routes());
        let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
        for (i, (src, dst)) in ring.clockwise_flows().into_iter().enumerate() {
            net.run_until(Time::from_micros(i as u64 * 500));
            net.start_flow(src, dst, None, 0).expect("route");
        }
        net.run_until(Time::from_millis(20));
        assert_eq!(net.stats().drops, 0, "seed {seed} dropped");
        if net.structurally_deadlocked() {
            wedged += 1;
        }
    }
    assert!(wedged >= 4, "only {wedged}/16 seeds wedged — CBFC freeze lost");
}

/// The builders' preflight gate on the Fig. 1 PFC ring with clockwise
/// routes, a circular buffer dependency under a hard gate: `build` must
/// panic with the gate's message under the default `Enforce`, and build
/// under `Acknowledge`.
fn assert_gated(build: impl Fn(SimConfig)) {
    let mut cfg = SimConfig::default_10g();
    cfg.fc = pfc_mode();
    assert_eq!(cfg.preflight, PreflightPolicy::Enforce, "Enforce is the default");
    let panic = catch_unwind(AssertUnwindSafe(|| build(cfg.clone())))
        .expect_err("Enforce built a deadlock-prone configuration");
    let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
    assert!(msg.contains("preflight rejected"), "unexpected panic: {msg}");
    cfg.preflight = PreflightPolicy::Acknowledge;
    build(cfg);
}

#[test]
fn network_new_gates_the_pfc_ring_on_preflight() {
    let ring = Ring::new(3);
    assert_gated(|cfg| {
        let routing = Routing::fixed(ring.clockwise_routes());
        Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    });
}

#[test]
fn sharded_network_new_gates_the_pfc_ring_on_preflight() {
    let ring = Ring::new(3);
    let part = Partition::ring_arcs(&ring, 3);
    assert_gated(|cfg| {
        let routing = Routing::fixed(ring.clockwise_routes());
        ShardedNetwork::new(ring.topo.clone(), routing, cfg, &part, 2);
    });
}
