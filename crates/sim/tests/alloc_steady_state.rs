//! A steady-state run allocates nothing: once the packet store, the
//! queues' deques, the event pool and the control-message buffer have
//! grown to the working set, every further event reuses them. And a
//! sharded build shares the fabric: its shards add a bounded number of
//! allocations each to the sequential build, not a copy of the topology.
//!
//! A counting global allocator counts the allocations of the calling
//! thread only, so tests running in parallel do not pollute the count.

use gfc_core::units::{kb, Dur, Time};
use gfc_sim::config::{FcConfig, PumpPolicy};
use gfc_sim::{Network, PreflightPolicy, ShardedNetwork, SimConfig, TraceConfig};
use gfc_telemetry::names;
use gfc_topology::{FatTree, Partition, Ring, Routing};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc`/`alloc_zeroed`/`realloc` calls
/// per thread.
struct Counting;

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn events(net: &Network) -> u64 {
    net.metrics_snapshot().counter(names::EVENTS).expect("event counter")
}

/// Buffer-based GFC on the testbed's 1 MB buffers, on the round-robin
/// pump, built without the preflight analysis.
fn gfc_1mb() -> SimConfig {
    let mut cfg = SimConfig::default_10g();
    cfg.buffer_bytes = kb(1024) + 4 * 1500;
    cfg.fc = FcConfig::gfc_buffer(kb(1024), kb(750));
    cfg.pump = PumpPolicy::RoundRobin;
    cfg.ctrl_proc_delay = Dur::from_micros(86);
    cfg.progress_window = Dur::from_millis(2);
    cfg.preflight = PreflightPolicy::Acknowledge;
    cfg
}

/// The Fig. 9 ring under buffer-based GFC on the testbed's 1 MB buffers
/// (the `ring3_gfc` benchmark scenario): three staggered greedy clockwise
/// flows on the round-robin pump. Once the stage feedback has throttled
/// the senders, every packet takes a store slot, crosses two switches'
/// FIFOs and egress queues and rides the event lanes.
#[test]
fn ring3_gfc_steady_state_allocates_nothing() {
    let ring = Ring::new(3);
    let cfg = gfc_1mb();
    let routing = Routing::fixed(ring.clockwise_routes());
    let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
    for (i, (src, dst)) in ring.clockwise_flows().into_iter().enumerate() {
        net.run_until(Time::from_micros(400 * i as u64));
        net.start_flow(src, dst, None, 0).expect("clockwise route");
    }
    // Warm-up: queues fill, the stage feedback loop settles, every
    // buffer reaches its working size.
    net.run_until(Time::from_millis(40));
    let (events_before, allocs_before) = (events(&net), allocs());
    net.run_until(Time::from_millis(60));
    let allocated = allocs() - allocs_before;
    let dispatched = events(&net) - events_before;
    assert!(dispatched >= 100_000, "only {dispatched} events measured");
    assert!(net.stats().ctrl_msgs > 0, "no stage feedback: the scenario proved nothing");
    assert_eq!(allocated, 0, "{allocated} allocations over {dispatched} steady-state events");
}

/// Allocations a shard may add to the sequential build: its own mutable
/// state (port table, event queue, flow ledger, telemetry registry, host
/// and per-node tables) and its copies of the config and the routing.
/// Measured 32, pinned with a little headroom. A shard that copied the
/// topology (node names, adjacency lists) would add about 420 more.
const PER_SHARD_ALLOCS: u64 = 36;

/// The sharded engine builds the fabric once: over the pod partition of
/// a k = 8 fat-tree (8 shards), `ShardedNetwork::new` makes at most the
/// allocations of `Network::new` on the same fabric plus
/// [`PER_SHARD_ALLOCS`] per shard. Measured (buffer GFC, 1 MB buffers,
/// no preflight): 51 allocations sequential, 307 sharded
/// (51 + 8 × 32).
#[test]
fn sharded_build_allocates_the_fabric_once() {
    let ft = FatTree::new(8);
    let part = Partition::by_pods(&ft);
    let cfg = gfc_1mb();
    let (topo, cfg_seq) = (ft.topo.clone(), cfg.clone());
    let before = allocs();
    let seq = Network::new(topo, Routing::spf(), cfg_seq, TraceConfig::none());
    let seq_allocs = allocs() - before;
    drop(seq);
    let topo = ft.topo.clone();
    let before = allocs();
    let net = ShardedNetwork::new(topo, Routing::spf(), cfg, &part, 1);
    let sharded_allocs = allocs() - before;
    let shards = net.num_domains() as u64;
    assert_eq!(shards, 8);
    assert!(
        sharded_allocs <= seq_allocs + shards * PER_SHARD_ALLOCS,
        "{sharded_allocs} allocations for {shards} shards, over {seq_allocs} + \
         {shards} × {PER_SHARD_ALLOCS}"
    );
}

/// A steady-state window of the sharded engine allocates nothing either:
/// the k = 8 half-rotation permutation under buffer GFC (every flow
/// crosses pods) on the pod partition's 8 shards, one worker. Each
/// window's outboxes, the shards' inboxes and the coordinator's hand-off
/// reuse their buffers. Only the `run_until` call's own setup (its
/// thread scope, hand-back channel and chunk list) allocates, a few times
/// per call however many windows it runs.
#[test]
fn sharded_steady_state_windows_allocate_nothing() {
    let ft = FatTree::new(8);
    let part = Partition::by_pods(&ft);
    let mut net = ShardedNetwork::new(ft.topo.clone(), Routing::spf(), gfc_1mb(), &part, 1);
    let h = ft.hosts.len();
    for i in 0..h {
        net.start_flow(ft.hosts[i], ft.hosts[(i + h / 2) % h], None, 0).expect("fat-tree route");
    }
    // Warm-up: every buffer, inbox and outbox reaches its working size.
    net.run_until(Time::from_millis(4));
    let (before, ctrl_before, allocs_before) = (net.sync_stats(), net.stats().ctrl_msgs, allocs());
    net.run_until(Time::from_millis(8));
    let allocated = allocs() - allocs_before;
    let after = net.sync_stats();
    let windows = after.windows - before.windows;
    let crossed = after.inbound_lane - before.inbound_lane;
    let ctrl = net.stats().ctrl_msgs - ctrl_before;
    assert!(windows >= 1_000, "only {windows} windows measured");
    assert!(crossed >= 10_000, "only {crossed} packets crossed shards");
    assert!(ctrl > 0, "no stage feedback in the measured windows");
    assert!(allocated <= 4, "{allocated} allocations over {windows} steady-state windows");
}
