//! # Sharded parallel engine: per-domain event queues under τ-lookahead
//! window synchronization
//!
//! [`ShardedNetwork`] partitions the fabric into domains (per-pod in a
//! fat-tree, contiguous arcs in a ring — any [`Partition`]) and runs one
//! event queue per domain on a scoped worker pool, **bit-identical** to
//! the sequential [`Network`]: the replay fingerprint (metrics snapshot,
//! flow ledger, delivered/drop counters) matches the sequential engine
//! exactly, at every worker count.
//!
//! ## How it stays exact
//!
//! * **One copy of the physics.** Each shard *is* a full [`Network`] over
//!   the complete topology, restricted to animating its own domain's
//!   nodes. Every event handler is the sequential code, byte for byte;
//!   the only divergence is at push time, where an event bound for a
//!   foreign node diverts to a per-shard outbox.
//! * **Conservative windows.** Every cross-node event carries at least
//!   the fabric *lookahead* of delay: the link propagation delay for wire
//!   traffic (data arrivals, control frames, CNPs, completion notices)
//!   or the out-of-band τ for conceptual GFC. The coordinator therefore
//!   lets every shard run freely in `[m, m + lookahead)` where `m` is the
//!   global minimum pending timestamp — no event generated inside the
//!   window can affect another shard within it.
//! * **Canonical intra-instant order.** Both engines' queues pop the
//!   events due at one instant in [`Event::order_major`] rank order
//!   (ties in insertion order, so same-source events keep generation
//!   order). The order within an instant is thus a pure function of the
//!   event set, not of which queue the events waited in.
//! * **Deterministic merge.** At each window barrier the coordinator
//!   drains the per-shard outboxes in shard-index order and injects each
//!   event into its destination shard's queue; within one
//!   `(time, rank)` group all events come from a single causal source
//!   (one upstream peer per `(node, port)`, one destination per flow),
//!   so concatenation order reproduces the sequential FIFO order.
//! * **Coordinator-owned observers.** The progress monitor and the
//!   deadlock verdicts run on the coordinator at the exact instants the
//!   sequential engine would run its `MonitorTick`, over merged state
//!   (summed deliveries, OR-ed backlog, unioned wait-for graphs).
//!
//! Shared-RNG coupling is eliminated at the source: ECN mark draws and
//! periodic-feedback phases are pure counter/port hashes (see
//! `network.rs`), identical in both engines.
//!
//! ## v1 contract
//!
//! Explicit flows only (no [`Workload`](crate::Workload) installation),
//! and the per-event observability layers that thread global state
//! through the dispatch order — timeline sampling, flow spans, causal
//! attribution — must be off. Metrics, the flow ledger, and the engine
//! probe are fully supported; forensic post-mortems are not captured
//! (the deadlock *verdicts* themselves are identical).

use crate::config::SimConfig;
use crate::event::Event;
use crate::network::{Network, SimStats};
use crate::trace::TraceConfig;
use gfc_analysis::{FlowLedger, ProgressMonitor};
use gfc_core::units::{Dur, Time};
use gfc_telemetry::{names, MetricValue, Snapshot, WaitForGraph};
use gfc_topology::{NodeId, Partition, Routing, Topology};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// One shard's window result: `(shard index, outbox, earliest pending
/// event)` — what a worker reports back per owned shard after a `Run`.
type RanShard = (usize, Vec<(Time, Event)>, Option<Time>);

/// Commands the coordinator broadcasts to the worker pool. The protocol
/// is strict lockstep: one broadcast, then one reply per worker, before
/// the next broadcast — reply types never interleave.
enum Cmd {
    /// Run start-of-run setup so peek times become meaningful.
    Prime,
    /// Inject cross-shard events, then drain each owned shard's queue up
    /// to (exclusive) `until`.
    Run { until: Time, inject: Vec<(usize, Vec<(Time, Event)>)> },
    /// Monitor barrier: advance clocks to `at` and report merged-progress
    /// inputs.
    Monitor { at: Time },
    /// Snapshot each owned shard's wait-for graph (stalled ticks only).
    Graph,
    /// Advance clocks to the end of the run horizon.
    Finish { at: Time },
    /// Tear down the pool.
    Exit,
}

enum Reply {
    /// `(shard index, earliest pending event)` per owned shard.
    Primed(Vec<(usize, Option<Time>)>),
    /// One [`RanShard`] per owned shard.
    Ran(Vec<RanShard>),
    /// OR-ed backlog and summed deliveries over owned shards.
    Monitored {
        backlogged: bool,
        delivered: u64,
    },
    /// `(shard index, graph)` per owned shard.
    Graphs(Vec<(usize, WaitForGraph)>),
    Finished,
}

fn worker_loop(base: usize, shards: &mut [Network], rx: &Receiver<Cmd>, tx: &Sender<Reply>) {
    while let Ok(cmd) = rx.recv() {
        let reply = match cmd {
            Cmd::Prime => Reply::Primed(
                shards
                    .iter_mut()
                    .enumerate()
                    .map(|(i, n)| {
                        n.prime();
                        (base + i, n.next_event_time())
                    })
                    .collect(),
            ),
            Cmd::Run { until, inject } => {
                for (idx, evs) in inject {
                    let n = &mut shards[idx - base];
                    for (t, ev) in evs {
                        n.inject(t, ev);
                    }
                }
                Reply::Ran(
                    shards
                        .iter_mut()
                        .enumerate()
                        .map(|(i, n)| {
                            if n.next_event_time().is_some_and(|t| t < until) {
                                n.run_window(until);
                            }
                            (base + i, n.take_outbox(), n.next_event_time())
                        })
                        .collect(),
                )
            }
            Cmd::Monitor { at } => {
                let mut backlogged = false;
                let mut delivered = 0;
                for n in shards.iter_mut() {
                    n.set_now(at);
                    n.probe_queue_sample();
                    backlogged |= n.backlogged();
                    delivered += n.stats().delivered_packets;
                }
                Reply::Monitored { backlogged, delivered }
            }
            Cmd::Graph => Reply::Graphs(
                shards.iter().enumerate().map(|(i, n)| (base + i, n.waitfor_graph())).collect(),
            ),
            Cmd::Finish { at } => {
                for n in shards.iter_mut() {
                    n.set_now(at);
                }
                Reply::Finished
            }
            Cmd::Exit => break,
        };
        if tx.send(reply).is_err() {
            break;
        }
    }
}

/// The destination shard of a cross-domain event.
fn target_of(ev: &Event) -> NodeId {
    match ev {
        Event::Arrive { node, .. } | Event::CtrlApply { node, .. } => *node,
        Event::Cnp { host, .. } | Event::SourceDone { host, .. } => *host,
        _ => unreachable!("event class never crosses domains"),
    }
}

/// Sum / max / bucket-wise merge of one metric across shards.
fn merge_value(a: &mut MetricValue, b: MetricValue) {
    match (a, b) {
        (MetricValue::Counter(x), MetricValue::Counter(y)) => *x += y,
        (
            MetricValue::Gauge { value, high_water },
            MetricValue::Gauge { value: v2, high_water: h2 },
        ) => {
            // Every gauge the simulator registers is a ratcheted
            // high-water mark, so max is the exact merge.
            *value = (*value).max(v2);
            *high_water = (*high_water).max(h2);
        }
        (
            MetricValue::Histogram { bounds, counts, count, sum },
            MetricValue::Histogram { bounds: b2, counts: c2, count: n2, sum: s2 },
        ) => {
            assert_eq!(*bounds, b2, "histogram bucket layouts diverged across shards");
            for (c, d) in counts.iter_mut().zip(c2) {
                *c += d;
            }
            *count += n2;
            *sum += s2;
        }
        _ => panic!("metric kind diverged across shards"),
    }
}

/// The parallel engine: a sequential-identical simulation run sharded
/// across per-domain event queues. See the module docs for the
/// synchronization scheme and the exactness argument.
pub struct ShardedNetwork {
    shards: Vec<Network>,
    domain_of: Arc<[u32]>,
    workers: usize,
    /// Minimum cross-domain event delay: the safe window width.
    lookahead: Dur,
    now: Time,
    halted: bool,
    /// Coordinator-owned progress monitor (shards never tick their own).
    monitor: ProgressMonitor,
    /// Next monitor barrier; scheduled on the first run, then advances by
    /// `monitor_interval` exactly like the sequential tick chain.
    monitor_due: Option<Time>,
    /// Barrier ticks taken so far — the sequential engine dispatches each
    /// tick as an event, so the merged event counter adds these back.
    monitor_ticks: u64,
    last_monitor_delivered: u64,
    structural_deadlock_at: Option<Time>,
    /// Cross-shard events awaiting injection, per destination shard, in
    /// (window, source-shard, generation) order.
    pending: Vec<Vec<(Time, Event)>>,
}

impl ShardedNetwork {
    /// Build a sharded simulator over `topo`, one shard per domain of
    /// `partition`, driven by up to `workers` threads (clamped to the
    /// domain count). Preflight (if configured) runs once, not per shard.
    ///
    /// # Panics
    /// On a v1-contract violation: a partition that does not cover the
    /// topology, timeline sampling / spans / causal attribution enabled,
    /// or a configuration with zero cross-domain lookahead (conceptual
    /// GFC with `tau = 0`).
    pub fn new(
        topo: Topology,
        routing: Routing,
        cfg: SimConfig,
        partition: &Partition,
        workers: usize,
    ) -> Self {
        assert_eq!(partition.len(), topo.num_nodes(), "partition does not cover the topology");
        assert!(partition.num_domains() >= 1, "need at least one domain");
        assert!(
            cfg.telemetry.timeline.sample_period_ps == 0 && !cfg.telemetry.timeline.spans,
            "sharded engine v1 does not support the timeline layer"
        );
        assert!(!cfg.telemetry.causal, "sharded engine v1 does not support causal attribution");
        let mut lookahead = cfg.prop_delay;
        let tau = cfg.fc.oob_latency();
        if tau.0 > 0 {
            lookahead = lookahead.min(tau);
        }
        assert!(
            lookahead.0 > 0,
            "zero cross-domain lookahead: prop_delay (and conceptual tau) must be positive"
        );
        // Preflight once, against the caller's policy; shards skip it.
        if cfg.preflight != gfc_verify::PreflightPolicy::Skip {
            let report = gfc_verify::preflight(&topo, &routing, &cfg.fabric_spec());
            if cfg.preflight == gfc_verify::PreflightPolicy::Enforce && report.has_errors() {
                panic!(
                    "preflight rejected this configuration (set SimConfig::preflight to \
                     PreflightPolicy::Acknowledge to run it anyway):\n{}",
                    report.render()
                );
            }
        }
        let domain_of: Arc<[u32]> = Arc::from(partition.domains().to_vec().into_boxed_slice());
        let num_domains = partition.num_domains();
        let mut shard_cfg = cfg;
        shard_cfg.preflight = gfc_verify::PreflightPolicy::Skip;
        let monitor = ProgressMonitor::new(shard_cfg.progress_window.0);
        let mut shards = Vec::with_capacity(num_domains);
        for d in 0..num_domains {
            let mut net =
                Network::new(topo.clone(), routing.clone(), shard_cfg.clone(), TraceConfig::none());
            net.set_domain(Arc::clone(&domain_of), u32::try_from(d).expect("domain fits u32"));
            shards.push(net);
        }
        ShardedNetwork {
            shards,
            domain_of,
            workers: workers.clamp(1, num_domains),
            lookahead,
            now: Time::ZERO,
            halted: false,
            monitor,
            monitor_due: None,
            monitor_ticks: 0,
            last_monitor_delivered: 0,
            structural_deadlock_at: None,
            pending: vec![Vec::new(); num_domains],
        }
    }

    /// Number of domains (= shards).
    pub fn num_domains(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads driving the shards.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Start an explicit flow; returns its id, or `None` if no route
    /// exists. Every shard registers the flow (ledger and telemetry stay
    /// in lockstep); only the source's shard packetizes.
    pub fn start_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<u64>,
        prio: u8,
    ) -> Option<u64> {
        let mut id = None;
        for net in &mut self.shards {
            let this = net.start_flow(src, dst, bytes, prio);
            match (id, this) {
                (None, _) => id = Some(this),
                (Some(prev), _) => assert_eq!(prev, this, "shards disagreed on flow admission"),
            }
        }
        id.expect("at least one shard")
    }

    /// Start a flow on an explicit path (scenario constructions).
    pub fn start_flow_on_path(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<u64>,
        prio: u8,
        path: Arc<[gfc_topology::LinkId]>,
    ) -> Option<u64> {
        let mut id = None;
        for net in &mut self.shards {
            let this = net.start_flow_on_path(src, dst, bytes, prio, Arc::clone(&path));
            match (id, this) {
                (None, _) => id = Some(this),
                (Some(prev), _) => assert_eq!(prev, this, "shards disagreed on flow admission"),
            }
        }
        id.expect("at least one shard")
    }

    /// Run to virtual time `t_end` (inclusive), a deadlock halt (when
    /// configured), or event exhaustion — the sequential
    /// [`Network::run_until`] contract, executed in parallel windows.
    pub fn run_until(&mut self, t_end: Time) {
        if self.halted || t_end < self.now {
            return;
        }
        let interval = self.shards[0].config().monitor_interval;
        let stop_on_deadlock = self.shards[0].config().stop_on_deadlock;
        let lookahead = self.lookahead;
        let workers = self.workers;
        let num_shards = self.shards.len();
        let chunk = num_shards.div_ceil(workers);
        let monitor_due = &mut self.monitor_due;
        let monitor = &mut self.monitor;
        let monitor_ticks = &mut self.monitor_ticks;
        let last_delivered = &mut self.last_monitor_delivered;
        let structural_at = &mut self.structural_deadlock_at;
        let pending = &mut self.pending;
        let now = &mut self.now;
        let halted = &mut self.halted;
        let domain_of = &self.domain_of;
        let shards = &mut self.shards;
        std::thread::scope(|s| {
            let (reply_tx, reply_rx) = std::sync::mpsc::channel::<Reply>();
            let mut cmd_txs: Vec<Sender<Cmd>> = Vec::new();
            let mut base = 0;
            for chunk_shards in shards.chunks_mut(chunk) {
                let (tx, rx) = std::sync::mpsc::channel::<Cmd>();
                let rtx = reply_tx.clone();
                let b = base;
                base += chunk_shards.len();
                cmd_txs.push(tx);
                s.spawn(move || worker_loop(b, chunk_shards, &rx, &rtx));
            }
            drop(reply_tx);
            let pool = cmd_txs.len();
            let send_all = |cmd: &dyn Fn() -> Cmd| {
                for tx in &cmd_txs {
                    tx.send(cmd()).expect("worker alive");
                }
            };
            // Peek times, refreshed from every Run reply.
            let mut peeks: Vec<Option<Time>> = vec![None; num_shards];
            send_all(&|| Cmd::Prime);
            for _ in 0..pool {
                match reply_rx.recv().expect("worker alive") {
                    Reply::Primed(rows) => {
                        for (idx, t) in rows {
                            peeks[idx] = t;
                        }
                    }
                    _ => unreachable!("lockstep protocol"),
                }
            }
            let mut due = *monitor_due.get_or_insert(*now + interval);
            loop {
                // Global minimum pending timestamp: shard queues plus
                // cross-shard events not yet injected.
                let m = peeks
                    .iter()
                    .flatten()
                    .copied()
                    .chain(pending.iter().flatten().map(|(t, _)| *t))
                    .min();
                let next_ev = m.filter(|t| *t <= t_end);
                if next_ev.is_none() && due > t_end {
                    break;
                }
                // The conservative window edge. Everything strictly
                // before it is causally closed; the monitor barrier and
                // the run horizon clip it.
                let w1 = match next_ev {
                    Some(t) => (t + lookahead).min(due).min(Time(t_end.0 + 1)),
                    None => due,
                };
                if next_ev.is_some_and(|t| t < w1) {
                    let mut inject: Vec<Vec<(Time, Event)>> =
                        pending.iter_mut().map(std::mem::take).collect();
                    for (w, tx) in cmd_txs.iter().enumerate() {
                        let lo = w * chunk;
                        let hi = (lo + chunk).min(num_shards);
                        let mut per: Vec<(usize, Vec<(Time, Event)>)> = Vec::new();
                        for (i, evs) in inject.iter_mut().enumerate().take(hi).skip(lo) {
                            if !evs.is_empty() {
                                per.push((i, std::mem::take(evs)));
                            }
                        }
                        tx.send(Cmd::Run { until: w1, inject: per }).expect("worker alive");
                    }
                    let mut ran: Vec<RanShard> = Vec::with_capacity(num_shards);
                    for _ in 0..pool {
                        match reply_rx.recv().expect("worker alive") {
                            Reply::Ran(rows) => ran.extend(rows),
                            _ => unreachable!("lockstep protocol"),
                        }
                    }
                    // Source-shard order: the deterministic concatenation
                    // the exactness argument relies on.
                    ran.sort_by_key(|(idx, ..)| *idx);
                    for (idx, outbox, peek) in ran {
                        peeks[idx] = peek;
                        for (t, ev) in outbox {
                            debug_assert!(t >= w1, "cross-shard event inside its own window");
                            let dest = domain_of[target_of(&ev).0 as usize] as usize;
                            pending[dest].push((t, ev));
                        }
                    }
                }
                if w1 == due && due <= t_end {
                    // Monitor barrier — the sequential MonitorTick,
                    // replayed at the same instant over merged state.
                    send_all(&|| Cmd::Monitor { at: due });
                    let mut backlogged = false;
                    let mut delivered = 0;
                    for _ in 0..pool {
                        match reply_rx.recv().expect("worker alive") {
                            Reply::Monitored { backlogged: b, delivered: d } => {
                                backlogged |= b;
                                delivered += d;
                            }
                            _ => unreachable!("lockstep protocol"),
                        }
                    }
                    *monitor_ticks += 1;
                    let progressed = delivered > *last_delivered;
                    *last_delivered = delivered;
                    monitor.sample(due.0, delivered, backlogged);
                    if structural_at.is_none() && backlogged && !progressed {
                        send_all(&|| Cmd::Graph);
                        let mut graphs: Vec<(usize, WaitForGraph)> = Vec::new();
                        for _ in 0..pool {
                            match reply_rx.recv().expect("worker alive") {
                                Reply::Graphs(rows) => graphs.extend(rows),
                                _ => unreachable!("lockstep protocol"),
                            }
                        }
                        graphs.sort_by_key(|(idx, _)| *idx);
                        let mut union = WaitForGraph::new();
                        for (_, g) in &graphs {
                            let map: Vec<usize> = g
                                .vertices()
                                .iter()
                                .map(|v| union.vertex(v.side, v.node, v.port, &v.label))
                                .collect();
                            for vi in 0..g.len() {
                                for &succ in g.successors(vi) {
                                    union.edge(map[vi], map[succ]);
                                }
                            }
                        }
                        if union.find_cycle().is_some() {
                            *structural_at = Some(due);
                        }
                    }
                    let dead = monitor.deadlocked() || structural_at.is_some();
                    *now = due;
                    due += interval;
                    if dead && stop_on_deadlock {
                        *halted = true;
                        break;
                    }
                }
            }
            *monitor_due = Some(due);
            if !*halted {
                send_all(&|| Cmd::Finish { at: t_end });
                for _ in 0..pool {
                    match reply_rx.recv().expect("worker alive") {
                        Reply::Finished => {}
                        _ => unreachable!("lockstep protocol"),
                    }
                }
                *now = t_end;
            }
            send_all(&|| Cmd::Exit);
        });
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Merged run statistics.
    pub fn stats(&self) -> SimStats {
        let mut total = SimStats::default();
        for s in &self.shards {
            let st = s.stats();
            total.delivered_packets += st.delivered_packets;
            total.delivered_bytes += st.delivered_bytes;
            total.drops += st.drops;
            total.ctrl_msgs += st.ctrl_msgs;
            total.ctrl_bytes += st.ctrl_bytes;
        }
        total
    }

    /// Merged flow ledger: every shard registers every flow; finishes
    /// land in the destination's shard and are adopted into one ledger.
    pub fn ledger(&self) -> FlowLedger {
        let mut merged = self.shards[0].ledger().clone();
        for s in &self.shards[1..] {
            merged.adopt_finishes(s.ledger());
        }
        merged
    }

    /// Progress-monitor verdict (see [`Network::deadlocked`]).
    pub fn deadlocked(&self) -> bool {
        self.monitor.deadlocked()
    }

    /// When the fatal stall began, if a progress-monitor verdict landed.
    pub fn deadlock_at(&self) -> Option<Time> {
        self.monitor.deadlock_at_ps().map(Time)
    }

    /// Strict structural verdict (see [`Network::structurally_deadlocked`]).
    pub fn structurally_deadlocked(&self) -> bool {
        self.structural_deadlock_at.is_some()
    }

    /// When the structural deadlock was first observed.
    pub fn structural_deadlock_at(&self) -> Option<Time> {
        self.structural_deadlock_at
    }

    /// Whether any queue in any shard still holds packets.
    pub fn backlogged(&self) -> bool {
        self.shards.iter().any(Network::backlogged)
    }

    /// The merged metrics snapshot: registry entries merged entry-by-entry
    /// (the registration schema is identical across shards), then the
    /// derived entries recomputed over merged totals — reproducing
    /// [`Network::metrics_snapshot`]'s layout exactly. Engine-probe
    /// entries (when the probe is on) are appended per domain under a
    /// `domain<d>.` prefix.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.shards[0].raw_metrics();
        for s in &self.shards[1..] {
            let other = s.raw_metrics();
            assert_eq!(snap.entries.len(), other.entries.len(), "registry schemas diverged");
            for (a, b) in snap.entries.iter_mut().zip(other.entries) {
                assert_eq!(a.name, b.name, "registry schemas diverged");
                merge_value(&mut a.value, b.value);
            }
        }
        // The sequential engine dispatches each monitor tick as an event;
        // the coordinator's barrier ticks stand in for them.
        if let Some(e) = snap.entries.iter_mut().find(|e| e.name == names::EVENTS) {
            if let MetricValue::Counter(c) = &mut e.value {
                *c += self.monitor_ticks;
            }
        }
        let stats = self.stats();
        snap.push_counter(names::SIM_TIME_PS, self.now.0);
        snap.push_counter(names::DELIVERED_PACKETS, stats.delivered_packets);
        snap.push_counter(names::DELIVERED_BYTES, stats.delivered_bytes);
        snap.push_counter(names::DROPS, stats.drops);
        snap.push_counter(names::CTRL_MSGS, stats.ctrl_msgs);
        snap.push_counter(names::CTRL_BYTES, stats.ctrl_bytes);
        let hw: u64 = self.shards.iter().map(Network::sum_hold_and_wait).sum();
        let fg: u64 = self.shards.iter().map(Network::sum_feedback_generated).sum();
        snap.push_counter(names::HOLD_AND_WAIT, hw);
        snap.push_counter(names::FEEDBACK_GENERATED, fg);
        let ingress: u64 = self.shards.iter().map(Network::ingress_bytes_total).sum();
        let egress: u64 = self.shards.iter().map(Network::egress_bytes_total).sum();
        snap.push_counter(names::INGRESS_BYTES, ingress);
        snap.push_counter(names::BACKLOG_BYTES, ingress + egress);
        if self.now.0 > 0 {
            if let Some(events) = snap.counter(names::EVENTS) {
                let per_sec = events as f64 / self.now.as_secs_f64();
                snap.push_counter(names::EVENTS_PER_SIM_SEC, per_sec as u64);
            }
        }
        for (d, s) in self.shards.iter().enumerate() {
            for entry in s.probe_entries() {
                let mut entry = entry;
                entry.name = format!("domain{d}.{}", entry.name);
                snap.entries.push(entry);
            }
        }
        snap
    }
}
