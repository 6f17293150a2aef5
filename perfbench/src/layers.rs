//! Layer replays: each inner layer's public API driven from the
//! benchmark's own code, on inputs taken from the workload's traced run.
//! Every replay reports host nanoseconds per operation and its op count.

use crate::stats::median;
use crate::workload::Inputs;
use gfc_core::backend::{FcRx, FcTx};
use gfc_core::rate_limiter::RateLimiter;
use gfc_core::units::{Dur, Rate, Time};
use gfc_core::PortIdent;
use gfc_sim::event::{Event, EventQueue};
use gfc_sim::fc::{CtrlPayload, QueueCtx, TxHead};
use gfc_sim::packet::Packet;
use gfc_sim::{SamplerSet, SimConfig, Workload};
use gfc_telemetry::{CauseToken, TrackKind};
use gfc_topology::{LinkId, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of each replay; the median is reported.
const REPS: usize = 5;

/// A replay result: median host ns per operation and the ops per repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replay {
    /// Median host nanoseconds per operation (0 when there was nothing to
    /// replay).
    pub ns_per_op: f64,
    /// Operations per repetition.
    pub ops: u64,
}

/// Time `f` (which performs `ops` operations) [`REPS`] times.
fn replay(ops: u64, mut f: impl FnMut()) -> Replay {
    if ops == 0 {
        return Replay::default();
    }
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    Replay { ns_per_op: median(&times), ops }
}

/// A deterministic 64-bit LCG (Knuth's MMIX constants), top bits out.
#[derive(Debug, Clone, Copy)]
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

/// `EventQueue` push/pop over the workload's event-class mix
/// (`mix[class]` = dispatched events of that class, in
/// [`Event::CLASS_LABELS`] order) at its pending depth: the queue is
/// filled to `depth` events, then each operation pops the earliest event
/// and pushes one of a class drawn from the mix — arrivals and control
/// applications on their FIFO lanes at the configured constant delays,
/// everything else on the heap.
pub fn event_queue(cfg: &SimConfig, mix: &[u64], depth: usize, ops: u64) -> Replay {
    let total: u64 = mix.iter().sum();
    if total == 0 {
        return Replay::default();
    }
    let pkt = Packet {
        id: 0,
        flow: 0,
        src: NodeId(0),
        dst: NodeId(1),
        bytes: cfg.mtu,
        prio: 0,
        path: Arc::from(vec![LinkId(0)].into_boxed_slice()),
        hop: 0,
        ecn_marked: false,
    };
    let prop = cfg.prop_delay.0;
    let ctrl = prop + cfg.ctrl_proc_delay.0;
    let push = |q: &mut EventQueue, rng: &mut Lcg, now: Time| {
        let mut pick = rng.next() % total;
        let class = mix.iter().position(|&c| {
            pick < c || {
                pick -= c;
                false
            }
        });
        let node = NodeId((rng.next() % 64) as u32);
        let port = (rng.next() % 8) as usize;
        let flow = rng.next() % 1024;
        let jitter = Dur(rng.next() % (2 * prop).max(1));
        match class.expect("pick < total") {
            0 => q.push_fifo(
                EventQueue::LANE_ARRIVE,
                now + Dur(prop),
                Event::Arrive { node, port, pkt: pkt.clone() },
            ),
            1 => q.push_fifo(
                EventQueue::LANE_CTRL,
                now + Dur(ctrl),
                Event::CtrlApply {
                    node,
                    port,
                    prio: 0,
                    payload: CtrlPayload::GfcStage(1),
                    cause: CauseToken::NONE,
                },
            ),
            c => {
                let ev = match c {
                    2 => Event::TxKick { node, port },
                    3 => Event::TxComplete { node, port },
                    4 => Event::PeriodicFeedback { node, port },
                    5 => Event::HostTick { host: node },
                    6 => Event::DcqcnTimer { host: node, flow },
                    7 => Event::Cnp { host: node, flow },
                    8 => Event::MonitorTick,
                    9 => Event::TimelineSample,
                    _ => Event::SourceDone { host: node, flow },
                };
                q.push(now + jitter, ev);
            }
        }
    };
    replay(ops, || {
        let mut q = EventQueue::new();
        let mut rng = Lcg(0x5EED);
        for _ in 0..depth.max(1) {
            push(&mut q, &mut rng, Time::ZERO);
        }
        for _ in 0..ops {
            let (now, ev) = q.pop().expect("the queue never drains");
            black_box(ev);
            push(&mut q, &mut rng, now);
        }
        black_box(q.len());
    })
}

/// Arrival/drain steps reconstructed from the sampler's per-port ingress
/// occupancy tracks: between consecutive samples the queue moves one MTU
/// per step. Each step is `(is_arrival, queue bytes after the step)`.
pub fn occupancy_steps(samplers: &SamplerSet, mtu: u64, cap: usize) -> Vec<(bool, u64)> {
    let mut steps = Vec::new();
    for (i, track) in samplers.tracks().iter().enumerate() {
        if track.kind != TrackKind::IngressOccupancy {
            continue;
        }
        let mut q = 0u64;
        for &v in samplers.track_values(i) {
            let target = v.max(0.0) as u64;
            while q + mtu <= target && steps.len() < cap {
                q += mtu;
                steps.push((true, q));
            }
            while q >= target + mtu && steps.len() < cap {
                q -= mtu;
                steps.push((false, q));
            }
        }
    }
    steps
}

/// Assigned limiter rates from the sampler's rate tracks, in sample order
/// (zero rates — a fully blocked queue — left out).
pub fn sampled_rates(samplers: &SamplerSet, cap: usize) -> Vec<Rate> {
    samplers
        .tracks()
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind == TrackKind::AssignedRate)
        .flat_map(|(i, _)| samplers.track_values(i).iter())
        .filter(|&&bps| bps >= 1.0)
        .map(|&bps| Rate(bps as u64))
        .take(cap)
        .collect()
}

/// The flow-control backend replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct FcReplays {
    /// `on_arrival`/`on_drain` per occupancy step.
    pub rx: Replay,
    /// `on_ctrl` per control payload the receiver emitted.
    pub ctrl: Replay,
    /// `hard_open` per step, with the payloads applied in between.
    pub gate: Replay,
}

/// Drive a fresh receiver/sender pair built by `make_rx_any`/`make_tx_any`
/// from the workload's config over `steps`, repeated until at least
/// `min_ops` steps: the receiver sees every arrival and drain, the sender
/// applies every payload the receiver emits, and asks its hard gate once
/// per step.
pub fn fc_backend(cfg: &SimConfig, steps: &[(bool, u64)], min_ops: usize) -> FcReplays {
    if steps.is_empty() {
        return FcReplays::default();
    }
    let steps: Vec<(bool, u64)> =
        steps.iter().copied().cycle().take(min_ops.div_ceil(steps.len()) * steps.len()).collect();
    let steps = &steps[..];
    let ident = PortIdent { node: 0, port: 0 };
    let make_rx = || cfg.fc.make_rx_any(cfg.capacity, cfg.buffer_bytes, cfg.mtu, ident);
    let make_tx = || cfg.fc.make_tx_any(cfg.capacity, cfg.buffer_bytes, ident);
    let ctx = |q: u64| QueueCtx { q_bytes: q, pkt_bytes: cfg.mtu, flow: 0, inherited_tag: None };
    let step_ps = Dur::for_bytes(cfg.mtu, cfg.capacity).0;
    // Payloads tagged with the step that emitted them.
    let mut payloads: Vec<(usize, CtrlPayload)> = Vec::new();
    let mut out = Vec::new();
    let mut rx = make_rx();
    for (i, &(arrival, q)) in steps.iter().enumerate() {
        if arrival {
            rx.on_arrival(&ctx(q), &mut out);
        } else {
            rx.on_drain(&ctx(q), &mut out);
        }
        payloads.extend(out.drain(..).map(|p| (i, p)));
    }
    let rx_replay = replay(steps.len() as u64, || {
        let mut rx = make_rx();
        let mut out = Vec::new();
        for &(arrival, q) in steps {
            if arrival {
                rx.on_arrival(&ctx(q), &mut out);
            } else {
                rx.on_drain(&ctx(q), &mut out);
            }
            out.clear();
        }
        black_box(rx.messages_sent());
    });
    let head = TxHead { bytes: cfg.mtu, flow: 0 };
    // `with_gate` false: payloads only; true: payloads plus one gate per
    // step. The gate's cost is the difference.
    let drive = |with_gate: bool| {
        let mut tx = make_tx();
        let mut next = 0;
        let mut open = 0u64;
        for i in 0..steps.len() {
            let now = Time(i as u64 * step_ps);
            while let Some(&(_, p)) = payloads.get(next).filter(|(s, _)| *s == i) {
                black_box(tx.on_ctrl(p, now).expect("payload of the sender's own scheme"));
                next += 1;
            }
            if with_gate {
                open += u64::from(tx.hard_open(&head, now));
            }
        }
        black_box(open);
    };
    let ctrl = replay(payloads.len() as u64, || drive(false));
    let both = replay(steps.len() as u64, || drive(true));
    let ctrl_total = ctrl.ns_per_op * ctrl.ops as f64;
    let gate = Replay {
        ns_per_op: ((both.ns_per_op * both.ops as f64 - ctrl_total) / both.ops.max(1) as f64)
            .max(0.0),
        ops: both.ops,
    };
    FcReplays { rx: rx_replay, ctrl, gate }
}

/// The `RateLimiter` gate over a sequence of assigned rates: each rate is
/// programmed with `set_rate`, then `pkts` back-to-back MTU packets pass
/// the gate (`earliest_send`, `may_send`, `on_packet_sent`).
pub fn rate_limiter(cfg: &SimConfig, rates: &[Rate], pkts: u64) -> Replay {
    let tx_time = Dur::for_bytes(cfg.mtu, cfg.capacity);
    replay(rates.len() as u64 * pkts, || {
        let mut lim = RateLimiter::new(cfg.capacity);
        let mut now = Time::ZERO;
        let mut sent = 0u64;
        for &r in rates {
            lim.set_rate(r);
            for _ in 0..pkts {
                let lim = black_box(&mut lim);
                let t = lim.earliest_send(now);
                sent += u64::from(lim.may_send(t));
                lim.on_packet_sent(tx_time, t + tx_time);
                now = t + tx_time;
            }
        }
        black_box(sent);
    })
}

/// The (src, dst) pairs the workload routes: its explicit flows, or for a
/// closed-loop workload a draw of `closed_loop_flows` destinations from
/// its own policy.
pub fn route_pairs(inputs: &Inputs, closed_loop_flows: usize) -> Vec<(NodeId, NodeId)> {
    let Some(w) = &inputs.workload else {
        return inputs.flows.iter().map(|f| (f.src, f.dst)).collect();
    };
    let hosts = inputs.topo.hosts();
    let mut rng = StdRng::seed_from_u64(inputs.cfg.seed);
    (0..closed_loop_flows)
        .filter_map(|i| {
            let src = i % hosts.len();
            w.dests.pick(src, hosts.len(), &mut rng).map(|d| (hosts[src], hosts[d]))
        })
        .collect()
}

/// `Routing::path` over `pairs`: the first pass on a fresh router (cold:
/// each new destination pays its shortest-path tree) in µs per lookup,
/// then warm passes in ns per lookup.
pub fn routing(inputs: &Inputs, pairs: &[(NodeId, NodeId)], warm_ops: u64) -> (Replay, Replay) {
    let topo = &inputs.topo;
    let lookup = |r: &mut gfc_topology::Routing, i: usize| {
        let (s, d) = pairs[i % pairs.len()];
        black_box(r.path(topo, s, d, i as u64).expect("benchmark pairs are routable"));
    };
    let cold = replay(pairs.len() as u64, || {
        let mut r = inputs.routing.clone();
        for i in 0..pairs.len() {
            lookup(&mut r, i);
        }
    });
    let mut r = inputs.routing.clone();
    for i in 0..pairs.len() {
        lookup(&mut r, i);
    }
    let warm_ops = if pairs.is_empty() { 0 } else { warm_ops };
    let warm = replay(warm_ops, || {
        for i in 0..warm_ops as usize {
            lookup(&mut r, i);
        }
    });
    (Replay { ns_per_op: cold.ns_per_op / 1e3, ops: cold.ops }, warm)
}

/// The closed-loop workload's `next_flow` (flow-size and destination
/// draws), if the workload has one.
pub fn workload_sampler(inputs: &Inputs, ops: u64) -> Replay {
    let Some(w) = &inputs.workload else {
        return Replay::default();
    };
    let hosts = w.num_hosts;
    replay(ops, || {
        let mut w = w.clone();
        let mut rng = StdRng::seed_from_u64(inputs.cfg.seed);
        for i in 0..ops as usize {
            black_box(w.next_flow(i % hosts, Time::ZERO, &mut rng));
        }
    })
}
