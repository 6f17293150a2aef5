//! A steady-state run allocates nothing: once the packet store, the
//! queues' deques, the event pool and the control-message buffer have
//! grown to the working set, every further event reuses them.
//!
//! A counting global allocator counts the allocations of the calling
//! thread only, so tests running in parallel do not pollute the count.

use gfc_core::units::{kb, Dur, Time};
use gfc_sim::config::{FcConfig, PumpPolicy};
use gfc_sim::{Network, PreflightPolicy, SimConfig, TraceConfig};
use gfc_telemetry::names;
use gfc_topology::{Ring, Routing};
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

/// The Fig. 9 ring under buffer-based GFC on the testbed's 1 MB buffers
/// (the `ring3_gfc` benchmark scenario): three staggered greedy clockwise
/// flows on the round-robin pump. Once the stage feedback has throttled
/// the senders, every packet takes a store slot, crosses two switches'
/// FIFOs and egress queues and rides the event lanes.
#[test]
fn ring3_gfc_steady_state_allocates_nothing() {
    let ring = Ring::new(3);
    let mut cfg = SimConfig::default_10g();
    cfg.buffer_bytes = kb(1024) + 4 * 1500;
    cfg.fc = FcConfig::gfc_buffer(kb(1024), kb(750));
    cfg.pump = PumpPolicy::RoundRobin;
    cfg.ctrl_proc_delay = Dur::from_micros(86);
    cfg.progress_window = Dur::from_millis(2);
    cfg.preflight = PreflightPolicy::Acknowledge;
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
