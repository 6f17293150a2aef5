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
//! The shards are cut into `workers` contiguous chunks, and the
//! coordinator — the thread in [`ShardedNetwork::run_until`] — holds
//! them all between windows. For each window it lends chunk `w` to
//! worker `w` as one job (the chunk, the cross-shard events bound for
//! it, the window edge), and the worker hands the chunk back with each
//! shard's outbox and next event time. Worker 0 is the calling thread
//! itself, so one worker means no thread and no channel hand-off at all;
//! `W` workers spawn `W − 1` scoped threads per call. Every barrier step
//! (start-of-run priming, the monitor tick and its wait-for check, the
//! end-of-run clock) runs on the coordinator, directly on the shards it
//! holds.
//!
//! ## How it stays exact
//!
//! * **One copy of the physics.** Each shard is a [`Network`], and every
//!   shard shares one immutable fabric: the topology, the per-link port
//!   table, the host tables and the flow-control backend factory (with
//!   the GFC stage table) are built once per run and held behind one
//!   `Arc`. What stays per shard is the mutable state: the ports of its
//!   own domain's nodes (the only ones it animates), its packet store,
//!   per-node and per-host state, event queue and outbox, its flow
//!   records (every shard registers every flow), routing cache and
//!   telemetry. Every event handler is the sequential code, byte for
//!   byte, and touches only the ports of the node it runs at; the only
//!   divergence is at push time, where an event bound for a foreign node
//!   diverts to a per-shard outbox. Each flow's route is resolved once,
//!   on the first shard, and handed to every shard.
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
//! * **Deterministic merge.** When a window's chunks come back, the
//!   coordinator queues their shards' outboxes in shard-index order,
//!   whichever worker finished first, into one batch per destination
//!   shard. Within one `(time, rank)` group all events come from a
//!   single causal source (one upstream peer per `(node, port)`, one
//!   destination per flow), so concatenation order reproduces the
//!   sequential FIFO order. The destination stable-sorts
//!   its batch by `(time, rank)`, which keeps that order, and injects
//!   it: data arrivals onto its inbound FIFO lane
//!   ([`EventQueue::LANE_INBOUND`]), everything else into its heap. Each
//!   key equals the one a heap push would get, since every injected
//!   event is due at or after the window edge — checked on every
//!   cross-shard event, release builds included.
//! * **One observer step.** The coordinator takes the sequential engine's
//!   own monitor step (`DeadlockMonitor`, `progress.rs`) at the instants
//!   that engine would dispatch its `MonitorTick`, over every shard; the
//!   run statistics and derived snapshot entries are one sum over them.
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
//! (only the sequential `MonitorTick` handler takes them, after the
//! shared monitor step; the deadlock *verdicts* themselves are identical).

use crate::config::SimConfig;
use crate::event::{Event, EventQueue};
use crate::fabric::Fabric;
use crate::ledger::FlowLedger;
use crate::network::{push_derived, Network, SimStats};
use crate::progress::DeadlockMonitor;
use crate::trace::TraceConfig;
use gfc_core::units::{Dur, Time};
use gfc_telemetry::{names, MetricValue, Snapshot};
use gfc_topology::{LinkId, NodeId, Partition, Routing, Topology};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;

/// One shard's window result: `(shard index, outbox, earliest pending
/// event)`.
type RanShard = (usize, Vec<(Time, Event)>, Option<Time>);

/// Cross-shard events for one chunk: `(destination shard index, batch)`.
type Inject = Vec<(usize, Vec<(Time, Event)>)>;

/// A window's job for one worker: its chunk of shards, the events to
/// inject into them, and the (exclusive) window edge.
type Job<'a> = (&'a mut [Network], Inject, Time);

/// Run one window on a chunk of shards whose first shard has index
/// `base`: inject the chunk's cross-shard events, then dispatch each
/// shard's events strictly before `until`.
fn run_chunk(base: usize, shards: &mut [Network], inject: Inject, until: Time) -> Vec<RanShard> {
    for (idx, mut evs) in inject {
        // Canonical order, so the batch's arrivals stay on the inbound
        // lane; the sort is stable, keeping the source order of
        // `(time, rank)` ties.
        evs.sort_by_key(|(t, ev)| (*t, ev.order_major()));
        let n = &mut shards[idx - base];
        for (t, ev) in evs {
            n.inject(t, ev);
        }
    }
    shards
        .iter_mut()
        .enumerate()
        .map(|(i, n)| {
            if n.next_event_time().is_some_and(|t| t < until) {
                // Inclusive horizon: the window's last instant.
                n.run_until(Time(until.0 - 1));
            }
            (base + i, n.take_outbox(), n.next_event_time())
        })
        .collect()
}

/// Fold one window's shard results (window edge `until`) into the
/// coordinator's view, in source-shard order — the deterministic
/// concatenation the exactness argument relies on, whatever order the
/// workers finished in: refresh each shard's peek time, queue its outbox
/// for the destination shards, and count the queued events into `sync`.
/// Returns the earliest queued due time.
fn absorb(
    mut ran: Vec<RanShard>,
    until: Time,
    domain_of: &[u32],
    peeks: &mut [Option<Time>],
    pending: &mut [Vec<(Time, Event)>],
    sync: &mut SyncStats,
) -> Option<Time> {
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
    /// Windows run (one job per worker each).
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
    /// The run's deadlock verdicts and halt, stepped at each monitor
    /// barrier over every shard (shards never step their own).
    verdicts: DeadlockMonitor,
    /// Next monitor barrier; scheduled on the first run, then advances by
    /// `monitor_interval` exactly like the sequential tick chain.
    monitor_due: Option<Time>,
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
    /// domain count; see [`Self::workers`]). The preflight gate (see
    /// [`SimConfig::preflight`]) and the fabric (topology, port wiring,
    /// host tables, backend factory) are each built once, not per shard.
    ///
    /// # Panics
    /// When the preflight gate rejects the configuration (the panic
    /// [`Network::new`] raises), or on a v1-contract violation: a
    /// partition that does not cover the topology, timeline sampling /
    /// spans / causal attribution enabled, or a configuration with zero
    /// cross-domain lookahead (conceptual GFC with `tau = 0`).
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
        crate::preflight_gate(&topo, &routing, &cfg);
        let fab = Arc::new(Fabric::new(topo, &cfg));
        let domain_of: Arc<[u32]> = Arc::from(partition.domains().to_vec().into_boxed_slice());
        let verdicts = DeadlockMonitor::new(&cfg);
        let shards: Vec<Network> = (0..partition.num_domains())
            .map(|d| {
                let d = u32::try_from(d).expect("domain fits u32");
                Network::build(
                    Arc::clone(&fab),
                    routing.clone(),
                    cfg.clone(),
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
            verdicts,
            monitor_due: None,
            pending: vec![Vec::new(); num_domains],
            sync: SyncStats::default(),
        }
    }

    /// Number of domains (= shards).
    pub fn num_domains(&self) -> usize {
        self.shards.len()
    }

    /// Workers driving the shards, the calling thread included: each
    /// [`Self::run_until`] runs the first chunk of shards on the calling
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
        if self.verdicts.halted() || t_end < self.now {
            return;
        }
        let ShardedNetwork {
            shards,
            domain_of,
            workers,
            lookahead,
            now,
            verdicts,
            monitor_due,
            pending,
            sync,
        } = self;
        let interval = shards[0].config().monitor_interval;
        // Start-of-run setup first, so the peek times mean something.
        let mut peeks: Vec<Option<Time>> = shards
            .iter_mut()
            .map(|n| {
                n.ensure_started();
                n.next_event_time()
            })
            .collect();
        // Earliest cross-shard event not yet injected: what the last call
        // left over, then each window's outboxes.
        let mut queued = pending.iter().flatten().map(|(t, _)| *t).min();
        let mut due = *monitor_due.get_or_insert(*now + interval);
        let chunk = shards.len().div_ceil(*workers);
        // Chunk `w` is worker `w`'s, lent for each window; an empty slot
        // is a chunk out on loan.
        let mut parts: Vec<&mut [Network]> = shards.chunks_mut(chunk).collect();
        std::thread::scope(|s| {
            // Worker 0 is this thread; workers 1.. each get a thread that
            // runs the jobs it is sent and hands each chunk back. Dropping
            // `jobs` at the end of the scope ends their loops.
            let (done_tx, done_rx) = mpsc::channel::<(usize, &mut [Network], Vec<RanShard>)>();
            let jobs: Vec<Sender<Job<'_>>> = (1..parts.len())
                .map(|w| {
                    let (tx, rx) = mpsc::channel::<Job<'_>>();
                    let done_tx = done_tx.clone();
                    s.spawn(move || {
                        for (part, inject, until) in rx {
                            let ran = run_chunk(w * chunk, part, inject, until);
                            if done_tx.send((w, part, ran)).is_err() {
                                break;
                            }
                        }
                    });
                    tx
                })
                .collect();
            drop(done_tx);
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
                    Some(t) => (t + *lookahead).min(due).min(Time(t_end.0 + 1)),
                    None => due,
                };
                if let Some(m) = next_ev.filter(|t| *t < w1) {
                    sync.windows += 1;
                    sync.clipped_windows += u64::from(w1 < m + *lookahead);
                    let batch = pending.iter().map(Vec::len).max().unwrap_or(0);
                    sync.max_batch = sync.max_batch.max(batch as u64);
                    let mut lent = parts.iter_mut().zip(pending.chunks_mut(chunk)).enumerate().map(
                        |(w, (part, batches))| {
                            // Each batch leaves a buffer of its size
                            // behind: the next window's is about as large.
                            let inject = batches
                                .iter_mut()
                                .enumerate()
                                .filter(|(_, evs)| !evs.is_empty())
                                .map(|(i, evs)| {
                                    let next = Vec::with_capacity(evs.capacity());
                                    (w * chunk + i, std::mem::replace(evs, next))
                                })
                                .collect();
                            (std::mem::take(part), inject)
                        },
                    );
                    let (own, own_inject) = lent.next().expect("worker 0's chunk");
                    for (job, (part, inject)) in jobs.iter().zip(lent) {
                        job.send((part, inject, w1)).expect("worker alive");
                    }
                    let mut ran = run_chunk(0, own, own_inject, w1);
                    parts[0] = own;
                    for _ in &jobs {
                        let (w, part, rows) = done_rx.recv().expect("worker alive");
                        parts[w] = part;
                        ran.extend(rows);
                    }
                    queued = absorb(ran, w1, domain_of, &mut peeks, pending, sync);
                }
                if w1 == due && due <= t_end {
                    // Monitor barrier — the sequential MonitorTick's
                    // step, at the same instant, over every shard.
                    let mut nets: Vec<&mut Network> =
                        parts.iter_mut().flat_map(|p| p.iter_mut()).collect();
                    verdicts.step(due, &mut nets);
                    sync.monitor_barriers += 1;
                    *now = due;
                    due += interval;
                    if verdicts.halted() {
                        break;
                    }
                }
            }
        });
        *monitor_due = Some(due);
        if !verdicts.halted() {
            for n in shards.iter_mut() {
                n.set_now(t_end);
            }
            *now = t_end;
        }
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

    /// Run statistics summed over every shard (see [`Network::stats`]).
    pub fn stats(&self) -> SimStats {
        SimStats::of(&self.shards)
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
        self.verdicts.deadlock_at().is_some()
    }

    /// When the fatal stall began, if a progress-monitor verdict landed.
    pub fn deadlock_at(&self) -> Option<Time> {
        self.verdicts.deadlock_at()
    }

    /// Strict structural verdict (see [`Network::structurally_deadlocked`]).
    pub fn structurally_deadlocked(&self) -> bool {
        self.verdicts.structural_at().is_some()
    }

    /// When the structural deadlock was first observed.
    pub fn structural_deadlock_at(&self) -> Option<Time> {
        self.verdicts.structural_at()
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
        // the coordinator's barriers stand in for them.
        if let Some(e) = snap.entries.iter_mut().find(|e| e.name == names::EVENTS) {
            if let MetricValue::Counter(c) = &mut e.value {
                *c += self.sync.monitor_barriers;
            }
        }
        push_derived(&mut snap, self.now, &self.shards);
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
        cfg.preflight = gfc_verify::PreflightPolicy::Acknowledge;
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
    /// shard builds an SPF tree. The three destinations sit on three
    /// different ToRs, so the first shard holds three anchor trees.
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

    /// Every shard of a k = 8 pod partition holds the one fabric.
    #[test]
    fn shards_share_one_fabric() {
        let ft = FatTree::new(8);
        let part = Partition::by_pods(&ft);
        let net = ShardedNetwork::new(ft.topo.clone(), Routing::spf(), cfg(), &part, 1);
        assert_eq!(net.num_domains(), 8);
        let fab = net.shards[0].fabric();
        assert!(net.shards.iter().all(|s| Arc::ptr_eq(s.fabric(), fab)));
    }

    /// Every port's peer port, wired from the fabric's link table, is
    /// the port its cable occupies on the peer.
    fn assert_peer_ports(name: &str, topo: &Topology, nets: &[Network]) {
        let mut seen = 0;
        for net in nets {
            for (n, ports) in net.port_table().nodes().enumerate() {
                for (p, port) in ports.iter().enumerate() {
                    assert_eq!(topo.ports(NodeId(n as u32))[p], (port.peer, port.link));
                    let want = topo.port_of(port.peer, port.link);
                    assert_eq!(port.peer_port, want, "{name}: node {n} port {p}");
                    seen += 1;
                }
            }
        }
        let total: usize = topo.node_ids().map(|n| topo.ports(n).len()).sum();
        assert_eq!(seen, total, "{name}: ports wired");
    }

    #[test]
    fn peer_ports_match_the_topology() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut ft = FatTree::new(8);
        ft.inject_failures(&mut StdRng::seed_from_u64(16), 0.05);
        assert!(ft.topo.link_ids().any(|l| !ft.topo.link_alive(l)));
        let part = Partition::by_pods(&ft);
        let net = ShardedNetwork::new(ft.topo.clone(), Routing::spf(), cfg(), &part, 1);
        assert_peer_ports("failed k = 8 fat-tree", &ft.topo, &net.shards);

        // Two cables between the same two switches, wired in an order
        // that gives each cable different port numbers at its two ends.
        let mut topo = Topology::new();
        let (s0, s1) = (topo.add_switch("S0"), topo.add_switch("S1"));
        let (h0, h1) = (topo.add_host("H0"), topo.add_host("H1"));
        topo.add_link(s1, h1);
        topo.add_link(s0, s1);
        topo.add_link(s0, s1);
        topo.add_link(h0, s0);
        let seq = Network::new(topo.clone(), Routing::spf(), cfg(), TraceConfig::none());
        assert_peer_ports("double-cabled pair", &topo, std::slice::from_ref(&seq));
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
