//! # Sharded parallel engine: per-domain event queues under τ-lookahead
//! window synchronization
//!
//! [`ShardedNetwork`] partitions the fabric into domains (per-pod in a
//! fat-tree, contiguous arcs in a ring — any [`Partition`]) and runs one
//! event queue per domain, **bit-identical** to the sequential
//! [`Network`]: the replay fingerprint (metrics snapshot, flow ledger,
//! delivered/drop counters) matches the sequential engine exactly, at
//! every worker count.
//!
//! ## Workers
//!
//! The shards are cut into `workers` contiguous chunks. During a
//! [`ShardedNetwork::run_until`] the calling thread is worker 0: it
//! serves the first chunk itself and spawns one scoped thread per
//! further chunk, so one worker means no thread and no channel hand-off
//! at all. Each window is one lockstep round — a command to every
//! worker, then one reply from each.
//!
//! ## How it stays exact
//!
//! * **One copy of the physics.** Each shard is a [`Network`] that knows
//!   the whole topology and registers every flow, but holds ports only
//!   for its own domain's nodes and animates only those. Every event
//!   handler is the sequential code, byte for byte, and touches only the
//!   ports of the node it runs at; the only divergence is at push time,
//!   where an event bound for a foreign node diverts to a per-shard
//!   outbox. Each flow's route is resolved once, on the first shard,
//!   and handed to every shard.
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
//!   drains the per-shard outboxes in shard-index order into one batch
//!   per destination shard. Within one `(time, rank)` group all events
//!   come from a single causal source (one upstream peer per
//!   `(node, port)`, one destination per flow), so concatenation order
//!   reproduces the sequential FIFO order. The destination stable-sorts
//!   its batch by `(time, rank)`, which keeps that order, and injects
//!   it: data arrivals onto its inbound FIFO lane
//!   ([`EventQueue::LANE_INBOUND`]), everything else into its heap. Each
//!   key equals the one a heap push would get, since every injected
//!   event is due at or after the window edge — checked on every
//!   cross-shard event, release builds included.
//! * **Coordinator-owned observers.** The progress monitor and the
//!   deadlock verdicts run on the coordinator at the exact instants the
//!   sequential engine would run its `MonitorTick`, over merged state
//!   (summed deliveries, OR-ed backlog, unioned wait-for graphs).
//!
//! Shared-RNG coupling is eliminated at the source: ECN mark draws and
//! periodic-feedback phases are pure counter/port hashes (see
//! `network.rs`), identical in both engines.
//!
//! ## Sync counters
//!
//! [`ShardedNetwork::sync_stats`] counts the windows (and those a
//! barrier or the run horizon clipped), the monitor barriers, the
//! injected events by where they went, and the largest batch. They stay
//! out of the metrics snapshot, whose layout is the sequential engine's.
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
use crate::event::{Event, EventQueue};
use crate::ledger::FlowLedger;
use crate::network::{Network, SimStats};
use crate::progress::ProgressMonitor;
use crate::trace::TraceConfig;
use gfc_core::units::{Dur, Time};
use gfc_telemetry::{names, MetricValue, Snapshot, WaitForGraph};
use gfc_topology::{LinkId, NodeId, Partition, Routing, Topology};
use std::sync::mpsc::Sender;
use std::sync::Arc;

/// One shard's window result: `(shard index, outbox, earliest pending
/// event)` — what a worker reports back per owned shard after a `Run`.
type RanShard = (usize, Vec<(Time, Event)>, Option<Time>);

/// Commands the coordinator broadcasts to the workers. The protocol is
/// strict lockstep: one command per worker, then one reply per worker,
/// before the next round — reply types never interleave.
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
}

enum Reply {
    /// One [`RanShard`] per owned shard (`Prime` answers with empty
    /// outboxes).
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

/// Execute one command on a worker's chunk of shards, whose first shard
/// has index `base`. Spawned workers call this in a loop; the calling
/// thread calls it directly for the first chunk.
fn serve(base: usize, shards: &mut [Network], cmd: Cmd) -> Reply {
    match cmd {
        Cmd::Prime => Reply::Ran(
            shards
                .iter_mut()
                .enumerate()
                .map(|(i, n)| {
                    n.prime();
                    (base + i, Vec::new(), n.next_event_time())
                })
                .collect(),
        ),
        Cmd::Run { until, inject } => {
            for (idx, mut evs) in inject {
                // Canonical order, so the batch's arrivals stay on the
                // inbound lane; the sort is stable, keeping the source
                // order of `(time, rank)` ties.
                evs.sort_by_key(|(t, ev)| (*t, ev.order_major()));
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
    }
}

/// Fold one round of `Ran` replies for the window ending at `until` into
/// the coordinator's view, in source-shard order (the deterministic
/// concatenation the exactness argument relies on): refresh each shard's
/// peek time, queue its outbox for the destination shards, and count the
/// queued events into `sync`. Returns the earliest queued due time.
fn absorb(
    replies: Vec<Reply>,
    until: Time,
    domain_of: &[u32],
    peeks: &mut [Option<Time>],
    pending: &mut [Vec<(Time, Event)>],
    sync: &mut SyncStats,
) -> Option<Time> {
    let mut ran: Vec<RanShard> = Vec::with_capacity(peeks.len());
    for reply in replies {
        let Reply::Ran(rows) = reply else { unreachable!("lockstep protocol") };
        ran.extend(rows);
    }
    ran.sort_by_key(|(idx, ..)| *idx);
    let mut earliest = None;
    for (idx, outbox, peek) in ran {
        peeks[idx] = peek;
        for (t, ev) in outbox {
            assert!(t >= until, "cross-shard event inside its own window");
            earliest = Some(earliest.map_or(t, |e: Time| e.min(t)));
            *injected_count(sync, &ev) += 1;
            let dest = domain_of[target_of(&ev).0 as usize] as usize;
            pending[dest].push((t, ev));
        }
    }
    earliest
}

/// The counter of `sync` that an injected event like `ev` adds to.
fn injected_count<'a>(sync: &'a mut SyncStats, ev: &Event) -> &'a mut u64 {
    match ev {
        Event::Arrive { .. } => &mut sync.inbound_lane,
        _ => &mut sync.injected_heap,
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

/// Window-synchronization counters of a [`ShardedNetwork`] run (see
/// [`ShardedNetwork::sync_stats`]). They describe the coordinator, not
/// the simulation, so they stay out of the metrics snapshot, whose
/// layout equals the sequential engine's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Lockstep windows run (one `Run` round each).
    pub windows: u64,
    /// Windows a monitor barrier or the run horizon cut short of the
    /// full lookahead.
    pub clipped_windows: u64,
    /// Monitor barriers taken (the sequential engine's monitor ticks).
    pub monitor_barriers: u64,
    /// Injected data arrivals that stayed on the inbound FIFO lane.
    pub inbound_lane: u64,
    /// Injected data arrivals whose key sorted before the inbound lane's
    /// tail, so they went to the heap.
    pub inbound_diverted: u64,
    /// Other injected events (control frames, CNPs, completion
    /// notices), all pushed to the heap.
    pub injected_heap: u64,
    /// The most events injected into one shard in one window.
    pub max_batch: u64,
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
    structural_deadlock_at: Option<Time>,
    /// Cross-shard events awaiting injection, per destination shard, in
    /// (window, source-shard, generation) order.
    pending: Vec<Vec<(Time, Event)>>,
    /// Coordinator counters. The injected counts also cover the events
    /// still in `pending`, and `inbound_lane` the diverted arrivals;
    /// [`Self::sync_stats`] takes both out.
    sync: SyncStats,
}

impl ShardedNetwork {
    /// Build a sharded simulator over `topo`, one shard per domain of
    /// `partition`, driven by up to `workers` workers (clamped to the
    /// domain count; see [`Self::workers`]). Preflight (if configured)
    /// runs once, not per shard.
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
        crate::preflight_gate(&topo, &routing, &cfg);
        let domain_of: Arc<[u32]> = Arc::from(partition.domains().to_vec().into_boxed_slice());
        let mut shard_cfg = cfg;
        shard_cfg.preflight = gfc_verify::PreflightPolicy::Skip;
        let monitor = ProgressMonitor::new(shard_cfg.progress_window.0);
        let shards: Vec<Network> = (0..partition.num_domains())
            .map(|d| {
                let d = u32::try_from(d).expect("domain fits u32");
                Network::build(
                    topo.clone(),
                    routing.clone(),
                    shard_cfg.clone(),
                    TraceConfig::none(),
                    Some((Arc::clone(&domain_of), d)),
                )
            })
            .collect();
        let num_domains = shards.len();
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
            structural_deadlock_at: None,
            pending: vec![Vec::new(); num_domains],
            sync: SyncStats::default(),
        }
    }

    /// Number of domains (= shards).
    pub fn num_domains(&self) -> usize {
        self.shards.len()
    }

    /// Workers driving the shards, the calling thread included: each
    /// [`Self::run_until`] serves the first chunk of shards on the calling
    /// thread and spawns one thread per further chunk — at most
    /// `workers() - 1`, none for one worker.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Start an explicit flow; returns its id, or `None` if no route
    /// exists. The route is resolved once, on the first shard (every
    /// shard's flow-id counter, hence the ECMP hash, is the same), and
    /// every shard registers the flow on that one path (ledger and
    /// telemetry stay in lockstep); only the source's shard packetizes.
    pub fn start_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<u64>,
        prio: u8,
    ) -> Option<u64> {
        let path = self.shards[0].route(src, dst)?;
        self.start_flow_on_path(src, dst, bytes, prio, path)
    }

    /// Start a flow on an explicit path (scenario constructions).
    pub fn start_flow_on_path(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<u64>,
        prio: u8,
        path: Arc<[LinkId]>,
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
        let num_shards = self.shards.len();
        let chunk = num_shards.div_ceil(self.workers);
        let pool = num_shards.div_ceil(chunk);
        let monitor_due = &mut self.monitor_due;
        let monitor = &mut self.monitor;
        let monitor_ticks = &mut self.monitor_ticks;
        let structural_at = &mut self.structural_deadlock_at;
        let pending = &mut self.pending;
        let sync = &mut self.sync;
        let now = &mut self.now;
        let halted = &mut self.halted;
        let domain_of = &self.domain_of;
        let (own, rest) = self.shards.split_at_mut(chunk);
        std::thread::scope(|s| {
            // Worker 0 is this thread, serving `own`; workers 1.. each get
            // a thread and a later chunk. Dropping `cmd_txs` at the end of
            // the scope ends their loops.
            let (reply_tx, reply_rx) = std::sync::mpsc::channel::<Reply>();
            let cmd_txs: Vec<Sender<Cmd>> = rest
                .chunks_mut(chunk)
                .enumerate()
                .map(|(w, part)| {
                    let (tx, rx) = std::sync::mpsc::channel::<Cmd>();
                    let reply_tx = reply_tx.clone();
                    let base = (w + 1) * chunk;
                    s.spawn(move || {
                        while let Ok(cmd) = rx.recv() {
                            if reply_tx.send(serve(base, part, cmd)).is_err() {
                                break;
                            }
                        }
                    });
                    tx
                })
                .collect();
            drop(reply_tx);
            // One lockstep round, `cmds[w]` for worker `w`: hand the
            // spawned workers their commands, serve our own chunk, then
            // collect the other replies (in any order).
            let mut round = |cmds: Vec<Cmd>| -> Vec<Reply> {
                let mut cmds = cmds.into_iter();
                let first = cmds.next().expect("one command per worker");
                for (tx, cmd) in cmd_txs.iter().zip(cmds) {
                    tx.send(cmd).expect("worker alive");
                }
                let mut replies = Vec::with_capacity(pool);
                replies.push(serve(0, own, first));
                replies.extend(cmd_txs.iter().map(|_| reply_rx.recv().expect("worker alive")));
                replies
            };
            let every = |cmd: &dyn Fn() -> Cmd| (0..pool).map(|_| cmd()).collect::<Vec<_>>();
            // Peek times, refreshed from every Run reply.
            let mut peeks: Vec<Option<Time>> = vec![None; num_shards];
            absorb(round(every(&|| Cmd::Prime)), Time::ZERO, domain_of, &mut peeks, pending, sync);
            // Earliest cross-shard event not yet injected: what the last
            // call left over, then each window's outboxes.
            let mut queued = pending.iter().flatten().map(|(t, _)| *t).min();
            let mut due = *monitor_due.get_or_insert(*now + interval);
            loop {
                // Global minimum pending timestamp: shard queues plus
                // cross-shard events not yet injected.
                let m = peeks.iter().flatten().copied().chain(queued).min();
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
                if let Some(m) = next_ev.filter(|t| *t < w1) {
                    sync.windows += 1;
                    sync.clipped_windows += u64::from(w1 < m + lookahead);
                    let batch = pending.iter().map(Vec::len).max().unwrap_or(0);
                    sync.max_batch = sync.max_batch.max(batch as u64);
                    let cmds = pending
                        .chunks_mut(chunk)
                        .enumerate()
                        .map(|(w, part)| {
                            // Each batch leaves a buffer of its size behind:
                            // the next window's is about as large.
                            let inject = part
                                .iter_mut()
                                .enumerate()
                                .filter(|(_, evs)| !evs.is_empty())
                                .map(|(i, evs)| {
                                    let next = Vec::with_capacity(evs.capacity());
                                    (w * chunk + i, std::mem::replace(evs, next))
                                })
                                .collect();
                            Cmd::Run { until: w1, inject }
                        })
                        .collect();
                    queued = absorb(round(cmds), w1, domain_of, &mut peeks, pending, sync);
                }
                if w1 == due && due <= t_end {
                    // Monitor barrier — the sequential MonitorTick,
                    // replayed at the same instant over merged state.
                    let mut backlogged = false;
                    let mut delivered = 0;
                    for reply in round(every(&|| Cmd::Monitor { at: due })) {
                        let Reply::Monitored { backlogged: b, delivered: d } = reply else {
                            unreachable!("lockstep protocol")
                        };
                        backlogged |= b;
                        delivered += d;
                    }
                    *monitor_ticks += 1;
                    sync.monitor_barriers += 1;
                    let progressed = monitor.sample(due.0, delivered, backlogged);
                    if structural_at.is_none() && backlogged && !progressed {
                        let mut graphs: Vec<(usize, WaitForGraph)> = Vec::new();
                        for reply in round(every(&|| Cmd::Graph)) {
                            let Reply::Graphs(rows) = reply else {
                                unreachable!("lockstep protocol")
                            };
                            graphs.extend(rows);
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
                for reply in round(every(&|| Cmd::Finish { at: t_end })) {
                    debug_assert!(matches!(reply, Reply::Finished), "lockstep protocol");
                }
                *now = t_end;
            }
        });
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The coordinator's window-synchronization counters so far (see
    /// [`SyncStats`]).
    pub fn sync_stats(&self) -> SyncStats {
        let mut sync = self.sync;
        // Counted when queued; not injected yet.
        for (_, ev) in self.pending.iter().flatten() {
            *injected_count(&mut sync, ev) -= 1;
        }
        let diverted: u64 = self
            .shards
            .iter()
            .map(|s| s.queue_stats().lane_diverted[EventQueue::LANE_INBOUND])
            .sum();
        sync.inbound_lane -= diverted;
        sync.inbound_diverted = diverted;
        sync
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

#[cfg(test)]
mod tests {
    use super::*;
    use gfc_topology::fattree::FatTree;

    fn cfg() -> SimConfig {
        let mut cfg = SimConfig::default_10g();
        cfg.preflight = gfc_verify::PreflightPolicy::Skip;
        cfg
    }

    /// Each shard holds ports for its own domain only, and the shards
    /// together hold exactly the sequential table.
    #[test]
    fn shards_hold_only_their_own_domains_ports() {
        let ft = FatTree::new(4);
        let part = Partition::by_pods(&ft);
        let seq = Network::new(ft.topo.clone(), Routing::spf(), cfg(), TraceConfig::none());
        let net = ShardedNetwork::new(ft.topo.clone(), Routing::spf(), cfg(), &part, 2);
        assert!(net.num_domains() > 1);
        let mut total = 0;
        for (d, shard) in net.shards.iter().enumerate() {
            let table = shard.port_table();
            for (n, ports) in table.nodes().enumerate() {
                let full = ft.topo.ports(NodeId(n as u32)).len();
                let want = if part.domains()[n] as usize == d { full } else { 0 };
                assert_eq!(ports.len(), want, "shard {d}, node {n}");
            }
            total += table.all().len();
        }
        assert_eq!(total, seq.port_table().all().len());
    }

    /// A flow's route is resolved once, on the first shard: no other
    /// shard builds an SPF tree.
    #[test]
    fn routes_are_resolved_on_the_first_shard_only() {
        let ft = FatTree::new(4);
        let part = Partition::by_pods(&ft);
        let mut net = ShardedNetwork::new(ft.topo.clone(), Routing::spf(), cfg(), &part, 2);
        for (s, d) in [(0, 15), (5, 9), (12, 1)] {
            net.start_flow(ft.hosts[s], ft.hosts[d], Some(50_000), 0).expect("route");
        }
        assert_eq!(net.shards[0].routing().cached_trees(), 3);
        assert!(net.shards[1..].iter().all(|s| s.routing().cached_trees() == 0));
    }

    /// An unroutable flow is refused before any shard registers it, so
    /// every shard's flow-id counter stays in lockstep.
    #[test]
    fn unroutable_flow_leaves_every_shard_in_lockstep() {
        let mut ft = FatTree::new(4);
        let (_, access) = ft.topo.ports(ft.hosts[15])[0];
        ft.topo.fail_link(access);
        let part = Partition::by_pods(&ft);
        let mut net = ShardedNetwork::new(ft.topo.clone(), Routing::spf(), cfg(), &part, 2);
        assert_eq!(net.start_flow(ft.hosts[0], ft.hosts[8], None, 0), Some(0));
        assert_eq!(net.start_flow(ft.hosts[0], ft.hosts[15], None, 0), None);
        assert!(net.shards.iter().all(|s| s.next_flow_id() == 1));
        assert_eq!(net.start_flow(ft.hosts[4], ft.hosts[8], None, 0), Some(1));
        assert!(net.shards.iter().all(|s| s.next_flow_id() == 2));
    }
}
