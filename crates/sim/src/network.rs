//! The network simulator: wiring, the event loop, and all handlers.
//!
//! ## Model
//!
//! * **Switches** are shared-buffer, ingress-accounted devices: a packet
//!   arriving on port *p* (priority *c*) is charged against the `(p, c)`
//!   ingress counter from full reception until its last bit leaves the
//!   chosen egress link. Flow control observes that counter — exactly the
//!   "ingress queue length" the paper's mechanisms act on.
//! * **Egress** ports transmit one frame at a time. Control frames
//!   (PAUSE/stage/FCP) have strict priority over data but cannot preempt
//!   the frame in flight — which is what creates the `MTU/C` terms of the
//!   Eq. (6) feedback latency. Data priorities are served round-robin.
//! * **Hosts** are single-port devices. The source side packetizes active
//!   flows (round-robin, DCQCN-paced when enabled) into a short NIC queue
//!   whose egress runs the same flow-control machinery as any switch
//!   port; the sink side drains instantly (an infinite-speed receiver),
//!   which is why host ingress feedback never throttles the fabric.
//! * **Determinism**: a single seeded RNG, and a totally ordered event
//!   queue. Two runs with the same seed are bit-identical.

use crate::config::{PumpPolicy, SimConfig};
use crate::event::{Event, EventQueue, QueueStats};
use crate::fabric::Fabric;
use crate::fc::{CtrlPayload, Gate, QueueCtx, Sense, TxHead};
use crate::flowgen::{FlowRequest, Workload};
use crate::ledger::FlowLedger;
use crate::packet::Packet;
use crate::port::{IngressPacket, PacketStore, PortIx, PortSpan, PortState, PortTable, QueuedCtrl};
use crate::progress::DeadlockMonitor;
use crate::telemetry::{PortSample, SimTelemetry};
use crate::trace::{ThroughputMeter, TraceConfig, Traces};
use gfc_core::fc_config::PortIdent;
use gfc_core::fxhash::FxHashMap;
use gfc_core::units::{Dur, Rate, Time};
use gfc_core::FcRx;
use gfc_dcqcn::{CnpGenerator, ReactionPoint};
use gfc_telemetry::{
    names, CausalReport, CauseToken, ChromeTrace, CtrlSense, EngineProbe, FlightRecorder,
    FlowSpans, ForensicsReport, ForensicsTrigger, Percentiles, PortOccupancy, SamplerSet, Snapshot,
    WaitForGraph, WfSide,
};
use gfc_topology::{LinkId, NodeId, NodeKind, Routing, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Egress staging depth per (port, priority) of an input-queued switch:
/// one packet on the wire and one ready behind it keep the link busy.
/// A FIFO head whose egress holds this many waits at its ingress.
const STAGE_SLOTS: usize = 2;

/// One active flow at its source host.
#[derive(Debug)]
struct HostFlow {
    id: u64,
    dst: NodeId,
    remaining: Option<u64>,
    path: Arc<[LinkId]>,
    prio: u8,
    rp: Option<ReactionPoint>,
    next_eligible: Time,
}

/// Host device state.
#[derive(Debug, Default)]
struct HostState {
    index: usize,
    flows: Vec<HostFlow>,
    rr: usize,
    tick_at: Option<Time>,
    /// Per-flow CNP pacing at the *receiver* side. Keys are the few flows
    /// currently being ECN-marked toward this host — genuinely sparse, so
    /// a hash map (Fx: cheap, deterministic) beats a dense table here.
    cnp_gens: FxHashMap<u64, CnpGenerator>,
    /// The workload returned `None`; stop polling it for this host.
    workload_done: bool,
}

/// Per-node switching state: the pump's cursor and masks and the node's
/// ECN-draw counter, in one record so a handler reaches all of it
/// through one index.
#[derive(Debug, Clone, Copy, Default)]
struct NodeSw {
    /// Rotating start port for fair ingress pumping.
    pump_rr: usize,
    /// Bitmask of ports whose ingress FIFOs hold packets, so
    /// [`Network::pump`] exits in one load on the (common) empty case and
    /// skips idle ports otherwise. Nodes with more than 64 ports are
    /// pinned at `u64::MAX` (= always scan; correctness never depends on
    /// a clear bit).
    ing_pending: u64,
    /// Bitmask of ports whose ingress FIFO heads are known head-of-line
    /// blocked (every non-empty priority's head targets an egress with no
    /// free staging slot). Maintained only on the round-robin ≤ 64-port
    /// fast path; a set bit is *exact*, never stale: it is cleared on
    /// every transition that can make the head movable again — a staging
    /// slot freeing at a target egress (see [`Network::start_data_tx`]
    /// waking that egress's [`PortState::head_waiters`]), or an arrival
    /// installing a new head in an empty priority FIFO of the port. An
    /// arrival behind an existing head leaves the bit alone.
    ing_blocked: u64,
    /// Counter driving the node-local ECN mark draws: draw `k` at node
    /// `n` hashes `(seed, n, k)` through splitmix64, so the sequence a
    /// node sees is independent of every other node's activity — the
    /// property that lets a sharded run reproduce the sequential engine's
    /// draws exactly.
    ecn_seq: u64,
}

/// Global metadata of a flow (live at source, counted at destination).
#[derive(Debug)]
struct FlowMeta {
    src: NodeId,
    total: Option<u64>,
    delivered: u64,
    cnp_delay: Dur,
    finished: bool,
}

/// Aggregate run statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Packets delivered to destination hosts.
    pub delivered_packets: u64,
    /// Bytes delivered to destination hosts.
    pub delivered_bytes: u64,
    /// Packets dropped at overflowing ingress buffers (must stay 0 in a
    /// correctly parameterized lossless configuration).
    pub drops: u64,
    /// Control messages received across all ports.
    pub ctrl_msgs: u64,
    /// Control bytes received across all ports.
    pub ctrl_bytes: u64,
}

impl SimStats {
    /// The run statistics of `nets` — the one network of a sequential
    /// run, or every shard of a sharded one: each network's deliveries,
    /// plus drops and received control traffic summed over the per-port
    /// counters of the ports it holds.
    pub(crate) fn of(nets: &[Network]) -> SimStats {
        let mut s = SimStats::default();
        for n in nets {
            s.delivered_packets += n.delivered_packets;
            s.delivered_bytes += n.delivered_bytes;
            for p in n.ports.all() {
                s.drops += p.drops;
                s.ctrl_msgs += p.ctrl_msgs_rx;
                s.ctrl_bytes += p.ctrl_bytes_rx;
            }
        }
        s
    }
}

/// Push the snapshot entries derived from the simulator's own
/// accounting, summed over `nets` — the one network of a sequential
/// run, or every shard of a sharded one (whose registries `snap` already
/// holds merged): the clock, deliveries, drops, control traffic,
/// hold-and-wait episodes, feedback generated, ingress and backlog bytes,
/// and the event rate. One builder, so both engines' layouts agree.
pub(crate) fn push_derived(snap: &mut Snapshot, now: Time, nets: &[Network]) {
    let sum = |f: &dyn Fn(&Network) -> u64| nets.iter().map(f).sum::<u64>();
    let stats = SimStats::of(nets);
    snap.push_counter(names::SIM_TIME_PS, now.0);
    snap.push_counter(names::DELIVERED_PACKETS, stats.delivered_packets);
    snap.push_counter(names::DELIVERED_BYTES, stats.delivered_bytes);
    snap.push_counter(names::DROPS, stats.drops);
    snap.push_counter(names::CTRL_MSGS, stats.ctrl_msgs);
    snap.push_counter(names::CTRL_BYTES, stats.ctrl_bytes);
    snap.push_counter(names::HOLD_AND_WAIT, sum(&Network::sum_hold_and_wait));
    snap.push_counter(names::FEEDBACK_GENERATED, sum(&Network::sum_feedback_generated));
    let ingress = sum(&Network::ingress_bytes_total);
    snap.push_counter(names::INGRESS_BYTES, ingress);
    snap.push_counter(names::BACKLOG_BYTES, ingress + sum(&Network::egress_bytes_total));
    if now.0 > 0 {
        if let Some(events) = snap.counter(names::EVENTS) {
            let per_sec = events as f64 / now.as_secs_f64();
            snap.push_counter(names::EVENTS_PER_SIM_SEC, per_sec as u64);
        }
    }
}

/// The simulator.
pub struct Network {
    /// The topology, port wiring, host tables and backend factory; shared
    /// by every shard of a sharded run.
    fab: Arc<Fabric>,
    cfg: SimConfig,
    routing: Routing,
    /// Every port of every node. Handlers resolve each `(node, port)`
    /// once into a [`PortIx`] and pass it on (see `port.rs`).
    ports: PortTable,
    /// Every packet held at a port of this network; the ports' queues
    /// hold slot handles into it (see `port.rs`).
    store: PacketStore,
    /// Per-node switching state, by node id.
    sw: Vec<NodeSw>,
    /// Host state, dense by host index (the fabric's `host_list` order).
    hosts: Vec<HostState>,
    queue: EventQueue,
    now: Time,
    rng: StdRng,
    /// Sharded-mode node filter: `Some((domain_of, my_domain))` when this
    /// network instance is one shard of a partitioned run. Events
    /// targeting nodes of other domains divert to [`Self::outbox`]
    /// instead of the local queue; `None` (the sequential engine) keeps
    /// everything local.
    domain_filter: Option<(Arc<[u32]>, u32)>,
    /// Cross-domain events generated this window, in generation order.
    outbox: Vec<(Time, Event)>,
    workload: Option<Box<dyn Workload>>,
    ledger: FlowLedger,
    /// The run's deadlock verdicts (a shard's coordinator steps its own).
    monitor: DeadlockMonitor,
    traces: Traces,
    trace_cfg: TraceConfig,
    /// Flow metadata, dense by flow id (ids are assigned 0, 1, 2, …).
    flows: Vec<FlowMeta>,
    next_flow_id: u64,
    next_pkt_id: u64,
    /// Packets and bytes delivered to destination hosts (the rest of
    /// [`SimStats`] lives in the per-port counters).
    delivered_packets: u64,
    delivered_bytes: u64,
    started: bool,
    halted: bool,
    /// First runtime deadlock detection raised by the flow-control backend
    /// itself (DCFIT's initial-trigger check), if any.
    first_fc_detection_at: Option<Time>,
    /// Observability state: metrics registry, flight recorder, forensics.
    tel: SimTelemetry,
}

impl Network {
    /// Build a simulator over `topo` with the given routing and config.
    ///
    /// Under the default `cfg.preflight` (`Enforce`), the `gfc-verify`
    /// static analysis runs first and the builder panics (with the full
    /// lint report) on Error-level findings — a theorem-precondition
    /// violation, an unsound PFC threshold, or a hard-gated scheme on a
    /// routing whose host-realizable dependency graph sustains a circular
    /// wait (the exact GFC012 peeling verdict; a routing that is merely
    /// CBD-prone by the conservative GFC011 prefilter but peels clean is
    /// admitted with an Info note). Adversarial experiments that run
    /// unsound configurations on purpose (the Fig. 9/12 deadlock studies)
    /// set `Acknowledge`, which builds without the gate;
    /// [`crate::preflight`] still reports on such a setup.
    pub fn new(topo: Topology, routing: Routing, cfg: SimConfig, trace_cfg: TraceConfig) -> Self {
        crate::preflight_gate(&topo, &routing, &cfg);
        let fab = Arc::new(Fabric::new(topo, &cfg));
        Self::build(fab, routing, cfg, trace_cfg, None)
    }

    /// The mutable state of a simulator over the fabric `fab` (built from
    /// `cfg`), without the preflight gate: the ports, the packet store,
    /// the per-node and per-host state, the event queue, the flow
    /// records and the telemetry. Optionally one shard of a partitioned
    /// run: `domain = Some((domain_of, d))` restricts the instance to the
    /// nodes of domain `d` (see the shard plumbing below) and builds ports
    /// for those nodes only — foreign nodes get empty port slices. Every
    /// shard of a run shares the one `fab`.
    pub(crate) fn build(
        fab: Arc<Fabric>,
        routing: Routing,
        cfg: SimConfig,
        trace_cfg: TraceConfig,
        domain: Option<(Arc<[u32]>, u32)>,
    ) -> Self {
        let topo = &fab.topo;
        if let Some((domain_of, _)) = &domain {
            assert_eq!(domain_of.len(), topo.num_nodes(), "partition table size mismatch");
        }
        let num_nodes = topo.num_nodes();
        // A shard builds ports for its own domain's nodes only; foreign
        // nodes get empty slices, which no handler ever indexes.
        let wired = |n: NodeId| {
            let foreign = domain.as_ref().is_some_and(|(dom, me)| dom[n.0 as usize] != *me);
            if foreign {
                &[][..]
            } else {
                topo.ports(n)
            }
        };
        let num_ports = topo.node_ids().map(|n| wired(n).len()).sum();
        let (c, f) = (&cfg, &*fab);
        let nodes = (0..num_nodes as u32).map(NodeId).map(|n| {
            wired(n).iter().enumerate().map(move |(idx, &(peer, link))| {
                let ident =
                    PortIdent { node: n.0, port: u16::try_from(idx).expect("port index fits u16") };
                PortState::new(c, &f.fc, ident, link, peer, f.port_of(peer, link))
            })
        });
        let ports = PortTable::new(nodes, num_ports);
        let hosts = (0..fab.host_list.len())
            .map(|index| HostState { index, ..Default::default() })
            .collect();
        let monitor = DeadlockMonitor::new(&cfg);
        let mut tel = SimTelemetry::new(&cfg.telemetry, cfg.buffer_bytes, cfg.capacity.0);
        // Register the timeline sampler tracks in the same (node, port)
        // order the sampler tick will walk the port table; with sampling
        // off there is nothing to register, so no label is formatted.
        if tel.samplers.is_some() {
            for n in topo.node_ids() {
                for p in 0..ports[n.0 as usize].len() {
                    tel.register_timeline_port(n, p, &format!("{}:p{p}", topo.node(n).name));
                }
            }
        }
        let traces = Traces::for_config(&trace_cfg);
        let rng = StdRng::seed_from_u64(cfg.seed);
        let sw = ports
            .nodes()
            .map(|np| NodeSw {
                ing_pending: if np.len() > 64 { u64::MAX } else { 0 },
                ..NodeSw::default()
            })
            .collect();
        Network {
            fab,
            routing,
            ports,
            store: PacketStore::default(),
            sw,
            hosts,
            queue: EventQueue::new(),
            now: Time::ZERO,
            rng,
            domain_filter: domain,
            outbox: Vec::new(),
            workload: None,
            ledger: FlowLedger::new(),
            monitor,
            traces,
            trace_cfg,
            flows: Vec::new(),
            next_flow_id: 0,
            next_pkt_id: 0,
            delivered_packets: 0,
            delivered_bytes: 0,
            started: false,
            halted: false,
            first_fc_detection_at: None,
            tel,
            cfg,
        }
    }

    /// Whether `node` is a host, via the dense host table (the `Node`
    /// metadata record carries a name `String`; keep it off the per-event
    /// dispatch path).
    #[inline]
    fn is_host(&self, node: NodeId) -> bool {
        self.fab.host_index(node) != u32::MAX
    }

    /// The port `link` occupies on `node` (O(1); see [`Fabric::port_of`]).
    #[inline]
    fn out_port(&self, node: NodeId, link: LinkId) -> usize {
        self.fab.port_of(node, link)
    }

    /// The host state of `node`. Panics if `node` is not a host.
    #[inline]
    fn host(&self, node: NodeId) -> &HostState {
        let idx = self.fab.host_index(node);
        debug_assert_ne!(idx, u32::MAX, "{node:?} is not a host");
        &self.hosts[idx as usize]
    }

    /// Mutable host state of `node`. Panics if `node` is not a host.
    #[inline]
    fn host_mut(&mut self, node: NodeId) -> &mut HostState {
        let idx = self.fab.host_index(node);
        debug_assert_ne!(idx, u32::MAX, "{node:?} is not a host");
        &mut self.hosts[idx as usize]
    }

    /// Install a workload; each host is primed with its first flow when the
    /// run starts.
    pub fn install_workload(&mut self, w: Box<dyn Workload>) {
        assert!(!self.started, "install the workload before running");
        self.workload = Some(w);
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The topology being simulated (immutable during a run).
    pub fn topo(&self) -> &Topology {
        &self.fab.topo
    }

    /// The shared fabric this network (or shard) runs on.
    #[cfg(test)]
    pub(crate) fn fabric(&self) -> &Arc<Fabric> {
        &self.fab
    }

    /// Run statistics so far.
    pub fn stats(&self) -> SimStats {
        SimStats::of(std::slice::from_ref(self))
    }

    /// Packets delivered to destination hosts so far.
    pub(crate) fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Flow ledger (FCT records).
    pub fn ledger(&self) -> &FlowLedger {
        &self.ledger
    }

    /// Collected traces.
    pub fn traces(&self) -> &Traces {
        &self.traces
    }

    /// Progress-monitor verdict: the network was backlogged with zero
    /// deliveries for a full window. Catches standstills but also flags
    /// pathological near-zero-rate crawls; see
    /// [`Self::structurally_deadlocked`] for the strict verdict.
    pub fn deadlocked(&self) -> bool {
        self.monitor.deadlock_at().is_some()
    }

    /// When the fatal stall began, if a progress-monitor verdict was
    /// reached.
    pub fn deadlock_at(&self) -> Option<Time> {
        self.monitor.deadlock_at()
    }

    /// Strict deadlock verdict in the paper's sense (§1): a circular
    /// hold-and-wait — a wait-for cycle among paused/credit-starved ports —
    /// was observed while the network made no progress. GFC provably never
    /// reaches this state (its ports are never hard-blocked).
    pub fn structurally_deadlocked(&self) -> bool {
        self.monitor.structural_at().is_some()
    }

    /// When the structural deadlock was first observed.
    pub fn structural_deadlock_at(&self) -> Option<Time> {
        self.monitor.structural_at()
    }

    /// Runtime deadlock detections raised by the flow-control backend
    /// itself — DCFIT's initial-trigger check firing when a pause tag
    /// returns to its minting port. Zero for every other scheme.
    pub fn fc_detections(&self) -> u64 {
        self.ports.all().iter().flat_map(PortState::pqs).map(|pq| pq.tx_fc.detections()).sum()
    }

    /// When the backend's first runtime deadlock detection fired.
    pub fn first_fc_detection_at(&self) -> Option<Time> {
        self.first_fc_detection_at
    }

    /// The configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Cumulative received control traffic per port: one
    /// `(node, port, ctrl_bytes_rx, ctrl_msgs_rx)` row for every port of
    /// every node, in table order. Always available (the counters are part
    /// of the port state, not gated on any telemetry option). Dividing the
    /// byte counts by the run horizon reproduces the Fig. 19 per-port
    /// control-bandwidth fractions without the deprecated binned meters.
    pub fn ctrl_rx_per_port(&self) -> Vec<(NodeId, usize, u64, u64)> {
        let mut rows = Vec::new();
        for (n, node_ports) in self.ports.nodes().enumerate() {
            for (p, ps) in node_ports.iter().enumerate() {
                rows.push((NodeId(n as u32), p, ps.ctrl_bytes_rx, ps.ctrl_msgs_rx));
            }
        }
        rows
    }

    fn sum_feedback_generated(&self) -> u64 {
        self.ports.all().iter().flat_map(PortState::pqs).map(|pq| pq.ing_rx.messages_sent()).sum()
    }

    fn sum_hold_and_wait(&self) -> u64 {
        self.ports
            .all()
            .iter()
            .flat_map(PortState::pqs)
            .map(|pq| pq.tx_fc.hold_and_wait_episodes())
            .sum()
    }

    /// Total ingress occupancy across every port (bytes).
    fn ingress_bytes_total(&self) -> u64 {
        self.ports.all().iter().map(PortState::ingress_backlog).sum()
    }

    /// Total egress staging occupancy across every port (bytes).
    fn egress_bytes_total(&self) -> u64 {
        self.ports.all().iter().map(PortState::egress_backlog).sum()
    }

    /// Freeze every metric into a [`Snapshot`]: the live registry
    /// counters (when `cfg.telemetry.metrics` is on) plus derived
    /// entries computed from the simulator's own accounting — delivered
    /// packets/bytes, drops, control traffic, ingress/backlog bytes,
    /// hold-and-wait episodes, and feedback messages generated. The
    /// derived entries are present even with metrics disabled, so
    /// snapshot-based throughput summaries work everywhere.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.tel.reg.snapshot();
        push_derived(&mut snap, self.now, std::slice::from_ref(self));
        // Span-derived distribution entries (timeline spans on): outcome
        // counts plus FCT / slowdown / stall percentiles, so experiments
        // read tails through the snapshot instead of ad-hoc math.
        if let Some(spans) = &self.tel.spans {
            let (fin, stalled) = spans.outcome_counts(self.now.0);
            snap.push_counter(names::SPANS_FINISHED, fin as u64);
            snap.push_counter(names::SPANS_STALLED, stalled as u64);
            if let Some(p) = Percentiles::of(&spans.fcts_ps()) {
                snap.push_counter(names::FCT_P50_PS, p.p50 as u64);
                snap.push_counter(names::FCT_P95_PS, p.p95 as u64);
                snap.push_counter(names::FCT_P99_PS, p.p99 as u64);
            }
            let slowdowns =
                self.ledger.slowdowns(self.cfg.capacity.0, self.cfg.prop_delay.0, self.cfg.mtu);
            if let Some(p) = Percentiles::of(&slowdowns) {
                snap.push_counter(names::SLOWDOWN_P50_MILLI, (p.p50 * 1000.0) as u64);
                snap.push_counter(names::SLOWDOWN_P95_MILLI, (p.p95 * 1000.0) as u64);
                snap.push_counter(names::SLOWDOWN_P99_MILLI, (p.p99 * 1000.0) as u64);
            }
            if let Some(p) = Percentiles::of(&spans.stall_times_ps()) {
                snap.push_counter(names::STALL_P50_PS, p.p50 as u64);
                snap.push_counter(names::STALL_P95_PS, p.p95 as u64);
                snap.push_counter(names::STALL_P99_PS, p.p99 as u64);
            }
        }
        // Causal blame entries (tracker on): tree/episode counts, hard
        // propagation depth, and the per-class flow verdicts. Pushed only
        // when the tracker is live, so off-snapshots are bit-identical.
        if let Some(report) = self.causal_report() {
            report.push_summary(&mut snap);
        }
        // Engine-probe entries (dispatch histograms, queue/pool gauges).
        // The snapshot borrows `self` immutably, so refresh a clone with
        // the instantaneous occupancies rather than mutating the live
        // probe — the gauges here are exact at snapshot time, the
        // high-water marks reflect the monitor-tick samples.
        if let Some(probe) = self.tel.probe.as_deref() {
            let mut p = probe.clone();
            sample_queue(&self.queue, self.ports.ctrl_backlog_frames(), &mut p);
            p.append_to(&mut snap);
        }
        snap
    }

    /// The flight recorder (empty and disabled unless
    /// `cfg.telemetry.flight_recorder > 0`).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.tel.rec
    }

    /// The timeline samplers — per-port ingress-occupancy / assigned-rate /
    /// hold-state / link-utilization series — or `None` unless
    /// `cfg.telemetry.timeline.sample_period_ps > 0`.
    pub fn timeline_samplers(&self) -> Option<&SamplerSet> {
        self.tel.samplers.as_ref()
    }

    /// Per-flow spans (start/finish/stall intervals), or `None` unless
    /// `cfg.telemetry.timeline.spans` is on.
    pub fn flow_spans(&self) -> Option<&FlowSpans> {
        self.tel.spans.as_ref()
    }

    /// The sampler series as CSV (`t_ps,<track>,...`), or `None` with
    /// sampling off. The plotting-friendly companion of
    /// [`Self::chrome_trace`] — Fig-13-style occupancy curves come from
    /// these columns.
    pub fn timeline_csv(&self) -> Option<String> {
        self.tel.samplers.as_ref().map(SamplerSet::to_csv)
    }

    /// Render everything the timeline knows about this run — sampler
    /// counter tracks, per-flow async spans (closed at the current
    /// instant), and the sparse flight-recorder events as instants — as a
    /// Chrome trace-event document for Perfetto / `chrome://tracing`.
    /// Always valid; empty sections are simply absent.
    pub fn chrome_trace(&self) -> ChromeTrace {
        let mut tr = ChromeTrace::new();
        for n in self.fab.topo.node_ids() {
            tr.process_name(n.0, &self.fab.topo.node(n).name);
        }
        if let Some(samplers) = &self.tel.samplers {
            tr.add_samplers(samplers);
        }
        if let Some(spans) = &self.tel.spans {
            tr.add_spans(spans, self.now.0);
        }
        tr.add_recorder_events(self.tel.rec.iter());
        if let Some(report) = self.causal_report() {
            tr.add_causal(&report);
        }
        tr
    }

    /// The causal blame report — pause-propagation trees plus per-flow
    /// stall attribution — or `None` unless `cfg.telemetry.causal` is on.
    /// Flows whose paths cross the forensics wait-for cycle's ingress
    /// ports (when a cycle was captured) classify as deadlock
    /// participants — ingress ports only, because a flow riding the
    /// *reverse* direction of a full-duplex cycle link is a bystander,
    /// not a participant. Episodes and stalls still open are closed at
    /// the current instant.
    pub fn causal_report(&self) -> Option<CausalReport> {
        let tracker = self.tel.causal.as_deref()?;
        let cycle = self
            .tel
            .forensics
            .as_ref()
            .map(ForensicsReport::cycle_ingress_ports)
            .unwrap_or_default();
        Some(tracker.report(self.now.0, &cycle))
    }

    /// The deadlock post-mortem, captured automatically when the first
    /// deadlock verdict (structural or progress-based) lands — `None`
    /// for a healthy run or with `cfg.telemetry.forensics` off.
    pub fn forensics(&self) -> Option<&ForensicsReport> {
        self.tel.forensics.as_ref()
    }

    /// Whether any queue in the network still holds packets.
    pub fn backlogged(&self) -> bool {
        self.ports
            .all()
            .iter()
            .any(|p| p.ingress_backlog() > 0 || p.egress_backlog() > 0 || !p.ctrl_q.is_empty())
    }

    /// Start an explicit flow; returns its id, or `None` if no route
    /// exists. `bytes = None` makes a greedy line-rate source. Flow ids
    /// are assigned 0, 1, 2, … and must fit `u32` (a packet carries its
    /// flow's id in 4 bytes); the 2^32-th flow panics.
    pub fn start_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<u64>,
        prio: u8,
    ) -> Option<u64> {
        let path = self.route(src, dst)?;
        self.start_flow_on_path(src, dst, bytes, prio, path)
    }

    /// The path the next started flow from `src` to `dst` takes: the
    /// routing's choice under the ECMP hash of the next flow id, or `None`
    /// if no route exists.
    pub(crate) fn route(&mut self, src: NodeId, dst: NodeId) -> Option<Arc<[LinkId]>> {
        let path =
            self.routing.path(&self.fab.topo, src, dst, splitmix(self.next_flow_id ^ 0xF10))?;
        Some(Arc::from(path.into_boxed_slice()))
    }

    /// Start a flow on an explicit path (scenario constructions). The
    /// flow's id must fit `u32`, as for [`Self::start_flow`], and the path
    /// may have at most `u16::MAX` links.
    pub fn start_flow_on_path(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<u64>,
        prio: u8,
        path: Arc<[LinkId]>,
    ) -> Option<u64> {
        assert!(self.fab.topo.node(src).kind == NodeKind::Host, "source must be a host");
        assert!(self.fab.topo.node(dst).kind == NodeKind::Host, "destination must be a host");
        assert!((prio as usize) < self.cfg.num_priorities, "priority out of range");
        assert!(!path.is_empty(), "empty path");
        assert!(path.len() <= usize::from(u16::MAX), "path longer than a packet's hop counter");
        let id = self.next_flow_id;
        assert!(u32::try_from(id).is_ok(), "flow id {id} does not fit a packet's u32 flow field");
        self.next_flow_id += 1;
        let cnp_delay = self.cfg.prop_delay.mul_u64(path.len() as u64) + self.cfg.ctrl_proc_delay;
        if let Some(total) = bytes {
            self.ledger.on_start(id, total, self.now.0, path.len() as u32);
        }
        self.tel.on_flow_start(id, src, dst, prio, bytes, path.len() as u32, self.now.0);
        if self.tel.causal_on() {
            // Register the ingress (node, port) the flow's packets occupy
            // at each hop — the ports whose backpressure episodes can be
            // blamed for this flow's stalls.
            let mut cur = src;
            let mut path_ports = Vec::with_capacity(path.len());
            for &l in path.iter() {
                let out = self.out_port(cur, l);
                let ps = &self.ports[self.ports.ix(cur.0 as usize, out)];
                path_ports.push((ps.peer.0, ps.peer_port as u16));
                cur = ps.peer;
            }
            self.tel.causal_flow_start(id, prio, path_ports, self.now.0);
        }
        debug_assert_eq!(id as usize, self.flows.len(), "flow ids must stay dense");
        self.flows.push(FlowMeta { src, total: bytes, delivered: 0, cnp_delay, finished: false });
        // Everything below animates the *source* host. A shard that does
        // not own the source still records the flow (ledger, telemetry,
        // dense `flows` metadata stay in lockstep across shards) but must
        // not packetize or run its congestion-control timers.
        if !self.is_local(src) {
            return Some(id);
        }
        let rp = self.cfg.dcqcn.map(ReactionPoint::new);
        if let Some(p) = &rp {
            let rate = p.rate_bps();
            self.trace_dcqcn(id, rate);
            let period = Dur(self.cfg.dcqcn.expect("dcqcn cfg").increase_timer_ps);
            self.queue.push(self.now + period, Event::DcqcnTimer { host: src, flow: id });
        }
        let now = self.now;
        let hs = self.host_mut(src);
        hs.flows.push(HostFlow { id, dst, remaining: bytes, path, prio, rp, next_eligible: now });
        self.refill_host(src);
        Some(id)
    }

    /// Run the event loop until virtual time `t_end` (inclusive), a
    /// deadlock halt (when configured), or event exhaustion.
    pub fn run_until(&mut self, t_end: Time) {
        self.ensure_started();
        if self.tel.probe.is_some() {
            self.run_events_probed(t_end);
        } else {
            self.run_events(t_end);
        }
        if !self.halted && self.now < t_end {
            self.now = t_end;
        }
    }

    /// The dispatch loop: pop events due at or before `horizon`, in the
    /// queue's canonical order — same-instant events by
    /// [`Event::order_major`] rank, so the order *within an instant* is a
    /// pure function of the events, identical whether they waited in one
    /// sequential queue or in per-domain shard queues (see `shard.rs`).
    /// Ties on the rank keep insertion order, which the
    /// single-causal-source structure of the event graph (one upstream
    /// peer per `(node, port)`, one destination per flow) makes
    /// engine-independent. A halt (the monitor ranks first at its
    /// instant) leaves the rest of the instant undispatched, matching the
    /// sharded coordinator's barrier halt.
    fn run_events(&mut self, horizon: Time) {
        while !self.halted {
            let Some((t, ev)) = self.queue.pop_at_or_before(horizon) else {
                break;
            };
            debug_assert!(t >= self.now, "event time went backwards");
            self.now = t;
            self.handle(ev);
        }
    }

    /// The probed twin of [`Self::run_events`]: times every dispatch with
    /// a monotonic clock and feeds the per-class histograms. The clock is
    /// read once per dispatch, after the handler; the interval since the
    /// previous read — this event's pop plus its handler — is charged to
    /// the class just dispatched. Kept out of line so the unprofiled loop
    /// carries exactly one predictable branch for the whole feature.
    #[cold]
    fn run_events_probed(&mut self, horizon: Time) {
        let mut last = std::time::Instant::now();
        while !self.halted {
            let Some((t, ev)) = self.queue.pop_at_or_before(horizon) else {
                break;
            };
            debug_assert!(t >= self.now, "event time went backwards");
            self.now = t;
            let class = ev.class();
            self.handle(ev);
            let now = std::time::Instant::now();
            let wall_ns = u64::try_from((now - last).as_nanos()).unwrap_or(u64::MAX);
            last = now;
            if let Some(p) = self.tel.probe.as_deref_mut() {
                p.record(class, wall_ns);
            }
        }
    }

    // ----------------------------------------------------------------
    // Shard plumbing (see `shard.rs`)
    //
    // A sharded run builds one `Network` per domain (see `Self::build`):
    // each knows the whole topology and every flow, but holds ports only
    // for its own domain's nodes and *animates* only those. Every event
    // handler is shared verbatim with the sequential engine (the
    // bit-identity argument needs exactly one copy of the physics) and
    // touches only the ports of the node it runs at; the one divergence
    // is at push time — an event bound for a foreign node diverts to the
    // outbox for the coordinator to deliver.
    // Every cross-node event carries at least the fabric lookahead of
    // delay (propagation, control processing, or the OOB τ), which is
    // what makes the coordinator's conservative windows safe.
    // ----------------------------------------------------------------

    /// Whether `node` is animated by this instance (always true for the
    /// sequential engine).
    #[inline]
    fn is_local(&self, node: NodeId) -> bool {
        match &self.domain_filter {
            None => true,
            Some((dom, me)) => dom[node.0 as usize] == *me,
        }
    }

    /// Push a wire event (FIFO lane) bound for `target`, diverting to the
    /// outbox when the target belongs to another shard. The far side
    /// injects it (see [`Self::inject`]): within one `(time,
    /// dispatch-rank)` group all events share a single causal source, so
    /// outbox order — preserved end-to-end by the coordinator — reproduces
    /// the lane's FIFO order.
    #[inline]
    fn push_wire(&mut self, lane: usize, t: Time, target: NodeId, ev: Event) {
        if self.is_local(target) {
            self.queue.push_fifo(lane, t, ev);
        } else {
            self.outbox.push((t, ev));
        }
    }

    /// Heap-ordered twin of [`Self::push_wire`] for events that don't ride
    /// a FIFO lane (CNPs, source-done notifications).
    #[inline]
    fn push_heap_routed(&mut self, t: Time, target: NodeId, ev: Event) {
        if self.is_local(target) {
            self.queue.push(t, ev);
        } else {
            self.outbox.push((t, ev));
        }
    }

    /// This instance's port table (tests of the domain-sized shards).
    #[cfg(test)]
    pub(crate) fn port_table(&self) -> &PortTable {
        &self.ports
    }

    /// The id the next started flow gets.
    #[cfg(test)]
    pub(crate) fn next_flow_id(&self) -> u64 {
        self.next_flow_id
    }

    /// The routing oracle (tests of route resolution in sharded runs).
    #[cfg(test)]
    pub(crate) fn routing(&self) -> &Routing {
        &self.routing
    }

    /// Earliest pending local event, if any.
    pub(crate) fn next_event_time(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// Inject a cross-shard event delivered by the coordinator, which
    /// hands over each window's batch sorted by `(time, dispatch rank)`.
    /// Data arrivals ride [`EventQueue::LANE_INBOUND`]: every batch is
    /// due at or after the window edge, so it gets the same key it would
    /// in the heap and the lane stays sorted (a key behind the tail still
    /// goes to the heap). Every other class goes to the heap.
    pub(crate) fn inject(&mut self, t: Time, ev: Event) {
        debug_assert!(t >= self.now, "injected event in this shard's past");
        if let Event::Arrive { .. } = ev {
            self.queue.push_fifo(EventQueue::LANE_INBOUND, t, ev);
        } else {
            self.queue.push(t, ev);
        }
    }

    /// The event queue's push counters (see [`QueueStats`]).
    pub(crate) fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Drain the cross-domain events generated since the last call, in
    /// generation order. The outbox starts over at the same capacity, so
    /// it does not grow anew every window.
    pub(crate) fn take_outbox(&mut self) -> Vec<(Time, Event)> {
        let next = Vec::with_capacity(self.outbox.capacity());
        std::mem::replace(&mut self.outbox, next)
    }

    /// Advance the local clock to a barrier instant (monitor ticks and
    /// end-of-run live on the coordinator in sharded mode).
    pub(crate) fn set_now(&mut self, t: Time) {
        debug_assert!(t >= self.now, "clock moved backwards");
        self.now = t;
    }

    /// The raw metric registry snapshot (no derived entries), for the
    /// coordinator's cross-shard merge.
    pub(crate) fn raw_metrics(&self) -> Snapshot {
        self.tel.reg.snapshot()
    }

    /// This shard's engine-probe entries (dispatch histograms and queue
    /// gauges, refreshed with the instantaneous occupancies), for the
    /// coordinator's per-domain probe section. Empty with the probe off.
    pub(crate) fn probe_entries(&self) -> Vec<gfc_telemetry::MetricEntry> {
        let Some(probe) = self.tel.probe.as_deref() else {
            return Vec::new();
        };
        let mut p = probe.clone();
        sample_queue(&self.queue, self.ports.ctrl_backlog_frames(), &mut p);
        let mut snap = Snapshot { entries: Vec::new() };
        p.append_to(&mut snap);
        snap.entries
    }

    /// Run deferred start-of-run work (timers, monitor scheduling, the
    /// workload's first flows) once, before the first dispatch — and, in
    /// a sharded run, before the coordinator's first
    /// [`Self::next_event_time`] peek.
    pub(crate) fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Monitor + timeline samplers run on the coordinator when the
        // network is one shard of a partitioned run, never per shard.
        if self.domain_filter.is_none() {
            self.queue.push(self.now + self.cfg.monitor_interval, Event::MonitorTick);
            if let Some(period) = self.tel.sampler_period_ps() {
                self.queue.push(self.now + Dur(period), Event::TimelineSample);
            }
        }
        // Periodic feedback timers (CBFC / time-based GFC) on every port.
        if let Some(period) = self.cfg.fc.period() {
            // Desynchronize the per-port feedback clocks: each port's
            // firmware timer starts at an independent phase. Synchronized
            // phases are physically unrealistic and make the coupled
            // rate dynamics fragile (phase-locked oscillation modes).
            // The phase is a pure hash of (seed, node, port) — not a
            // stream draw — so every shard of a partitioned run derives
            // the identical phase for any port it owns.
            let nodes: Vec<NodeId> = self.fab.topo.node_ids().collect();
            for n in nodes {
                if !self.is_local(n) {
                    continue;
                }
                for p in 0..self.ports[n.0 as usize].len() {
                    let h = splitmix(self.cfg.seed ^ ((u64::from(n.0) << 20) | p as u64));
                    let phase = Dur(h % period.0 + 1);
                    self.queue.push(self.now + phase, Event::PeriodicFeedback { node: n, port: p });
                }
            }
        }
        // Prime the workload.
        if self.workload.is_some() {
            for i in 0..self.fab.host_list.len() {
                self.spawn_from_workload(i);
            }
        }
    }

    /// Ask the workload for the next flow of host `idx`, retrying a bounded
    /// number of times when the picked destination is unroutable (possible
    /// under link failures).
    fn spawn_from_workload(&mut self, idx: usize) {
        let host = self.fab.host_list[idx];
        if self.hosts[idx].workload_done {
            return;
        }
        let Some(mut w) = self.workload.take() else {
            return;
        };
        for _attempt in 0..64 {
            match w.next_flow(idx, self.now, &mut self.rng) {
                None => {
                    self.hosts[idx].workload_done = true;
                    break;
                }
                Some(FlowRequest { dst_index, bytes, prio }) => {
                    let dst = self.fab.host_list[dst_index];
                    if dst == host {
                        continue; // degenerate pick; try again
                    }
                    if self.start_flow(host, dst, bytes, prio).is_some() {
                        break;
                    }
                    // Unroutable destination (failed links); try another.
                }
            }
        }
        self.workload = Some(w);
    }

    // ----------------------------------------------------------------
    // Event dispatch
    // ----------------------------------------------------------------

    fn handle(&mut self, ev: Event) {
        self.tel.on_event();
        match ev {
            Event::Arrive { node, port, pkt } => self.on_arrive(node, port, pkt),
            Event::CtrlApply { node, port, prio, payload, cause } => {
                self.on_ctrl_apply(node, port, prio, payload, cause);
            }
            Event::TxKick { node, port } => {
                let px = self.ports.ix(node.0 as usize, port);
                let ps = &mut self.ports[px];
                if ps.kick_at.is_some_and(|t| t <= self.now) {
                    ps.kick_at = None;
                }
                self.try_transmit(node, port, px);
            }
            Event::TxComplete { node, port } => self.on_tx_complete(node, port),
            Event::PeriodicFeedback { node, port } => self.on_periodic_feedback(node, port),
            Event::HostTick { host } => {
                self.host_mut(host).tick_at = None;
                self.refill_host(host);
            }
            Event::DcqcnTimer { host, flow } => self.on_dcqcn_timer(host, flow),
            Event::Cnp { host, flow } => self.on_cnp(host, flow),
            Event::SourceDone { host, flow } => self.on_source_done(host, flow),
            Event::MonitorTick => self.on_monitor_tick(),
            Event::TimelineSample => self.on_timeline_sample(),
        }
    }

    /// One sampler tick: collect the per-port observations, feed them to
    /// the sampler set, and reschedule at its *current* cadence (which
    /// doubles whenever the sample budget forces a decimation, so long
    /// runs stay bounded). Pure observation — never perturbs the run.
    fn on_timeline_sample(&mut self) {
        if self.tel.sampler_period_ps().is_none() {
            return;
        }
        let now = self.now;
        let mtu = self.cfg.mtu;
        let mut rows: Vec<PortSample> = Vec::new();
        for ps in self.ports.all() {
            let pq = ps.pq(0);
            let head = match pq.eg.q.front() {
                Some(slot) => self.store.tx_head(slot),
                None => TxHead { bytes: mtu, flow: 0 },
            };
            rows.push(PortSample {
                ingress_bytes: ps.ingress_backlog(),
                rate_bps: pq.tx_fc.assigned_rate().0,
                held: pq.eg.bytes > 0 && pq.tx_fc.hard_blocked(&head, now),
                tx_bytes_cum: ps.bytes_tx,
            });
        }
        self.tel.on_timeline_sample(now.0, &rows);
        // Re-read the cadence: this very sample may have tripped a
        // decimation, doubling it.
        let period = self.tel.sampler_period_ps().expect("samplers checked on");
        self.queue.push(now + Dur(period), Event::TimelineSample);
    }

    fn on_arrive(&mut self, node: NodeId, port: usize, pkt: Packet) {
        if self.is_host(node) {
            self.deliver_at_host(node, port, pkt);
        } else {
            self.forward_at_switch(node, port, pkt);
        }
    }

    fn deliver_at_host(&mut self, node: NodeId, port: usize, pkt: Packet) {
        debug_assert!(pkt.at_destination(), "packet arrived at a non-final host");
        debug_assert_eq!(pkt.dst, node, "packet delivered to the wrong host");
        let flow = u64::from(pkt.flow);
        self.delivered_packets += 1;
        self.delivered_bytes += pkt.bytes;
        self.tel.on_deliver(self.now.0, node, port, pkt.prio, pkt.bytes);
        self.tel.on_flow_delivery(flow, pkt.bytes, self.now.0);
        // Keep credit accounting alive on the host's ingress (the switch's
        // egress towards us spends credits) — the sink drains instantly.
        let px = self.ports.ix(node.0 as usize, port);
        self.ports[px].pq_mut(pkt.prio as usize).ing_rx.on_host_delivery(pkt.bytes);
        // ECN → CNP at the receiver.
        if pkt.ecn_marked {
            if let Some(dc) = self.cfg.dcqcn {
                let now_ps = self.now.0;
                let fire = {
                    let hs = self.host_mut(node);
                    hs.cnp_gens
                        .entry(flow)
                        .or_insert_with(|| CnpGenerator::new(dc.cnp_interval_ps))
                        .on_marked_packet(now_ps)
                };
                if fire {
                    if let Some(meta) = self.flows.get(flow as usize) {
                        let due = self.now + meta.cnp_delay;
                        let src = meta.src;
                        self.push_heap_routed(due, src, Event::Cnp { host: src, flow });
                    }
                }
            }
        }
        // Throughput attribution to the source host.
        if let Some(bin) = self.trace_cfg.host_throughput_bin {
            if let Some(meta) = self.flows.get(flow as usize) {
                let src = meta.src;
                self.traces
                    .host_throughput
                    .entry(src)
                    .or_insert_with(|| ThroughputMeter::new(bin.0))
                    .record(self.now.0, pkt.bytes);
            }
        }
        // Flow completion. Destination-side accounting happens here; the
        // *source* host retires the flow via a `SourceDone` event one
        // control-RTT later, so completion never mutates remote state at
        // the delivery instant (the source may live in another shard).
        let finished = {
            let Some(meta) = self.flows.get_mut(flow as usize) else {
                return;
            };
            meta.delivered += pkt.bytes;
            match meta.total {
                Some(total) if !meta.finished && meta.delivered >= total => {
                    meta.finished = true;
                    Some((meta.src, meta.cnp_delay))
                }
                _ => None,
            }
        };
        if let Some((src, cnp_delay)) = finished {
            self.ledger.on_finish(flow, self.now.0);
            self.tel.on_flow_finish(flow, self.now.0);
            self.host_mut(node).cnp_gens.remove(&flow);
            let due = self.now + cnp_delay;
            self.push_heap_routed(due, src, Event::SourceDone { host: src, flow });
        }
    }

    /// The completion notification reaching the source host: drop the
    /// flow from its active set and let the workload backfill the slot.
    fn on_source_done(&mut self, host: NodeId, flow: u64) {
        let src_index = self.host(host).index;
        self.host_mut(host).flows.retain(|f| f.id != flow);
        if self.workload.is_some() {
            self.spawn_from_workload(src_index);
        }
    }

    fn forward_at_switch(&mut self, node: NodeId, port: usize, mut pkt: Packet) {
        let prio = pkt.prio as usize;
        let bytes = pkt.bytes;
        let n = node.0 as usize;
        let span = self.ports.span(n);
        let ing_ix = span.ix(port);
        // Ingress admission.
        let ps = &mut self.ports[ing_ix];
        if ps.pq(prio).ing_bytes + bytes > self.cfg.buffer_bytes {
            ps.drops += 1;
            self.tel.on_drop(self.now.0, node, port, pkt.prio, bytes);
            return;
        }
        let q = {
            let cnt = &mut ps.pq_mut(prio).ing_bytes;
            *cnt += bytes;
            *cnt
        };
        self.tel.on_enqueue(self.now.0, node, port, pkt.prio, bytes, q);
        // Route first: backends that chain causality along the forwarding
        // direction (DCFIT) need the forward egress resolved before the
        // arrival hook runs, so a tag applied there can be inherited here.
        let link = pkt
            .next_link()
            .unwrap_or_else(|| panic!("packet {} stranded at switch {node:?}", pkt.id));
        debug_assert!(self.fab.topo.link_alive(link), "routing used a failed link");
        let out_port = self.out_port(node, link);
        let out = span.ix(out_port);
        let inherited_tag = if self.ports[ing_ix].pq(prio).ing_rx.wants_fwd_tag() {
            self.ports[out].pq(prio).tx_fc.applied_tag()
        } else {
            None
        };
        let ctx =
            QueueCtx { q_bytes: q, pkt_bytes: bytes, flow: u64::from(pkt.flow), inherited_tag };
        let mut msgs = Vec::new();
        self.ports[ing_ix].pq_mut(prio).ing_rx.on_arrival(&ctx, &mut msgs);
        for payload in msgs {
            let fwd = if self.tel.causal_on() {
                self.causal_fwd_hint(node, port, prio, &pkt)
            } else {
                None
            };
            self.send_ctrl(node, port, ing_ix, pkt.prio, payload, fwd);
        }
        pkt.hop += 1;
        // The packet's one write into this node: from here to its
        // transmission the queues carry its slot.
        let slot = self.store.insert(pkt, port as u32);
        let eg = &mut self.ports[out].pq_mut(prio).eg;
        eg.voq_bytes += bytes;
        if self.cfg.pump == PumpPolicy::OutputQueued {
            // Output-queued switch: the packet joins its egress queue on
            // arrival. There is no ingress FIFO to wait in — the egress is
            // unbounded, so a pump would move every head at once anyway.
            eg.bytes += bytes;
            eg.q.push_back(&mut self.store, slot);
            self.try_transmit(node, out_port, out);
            return;
        }
        // Input-buffered switch: queue in the ingress FIFO; the packet
        // moves to its egress only when a staging slot frees.
        let ing_q = &mut self.ports[ing_ix].pq_mut(prio).ing_q;
        let new_head = ing_q.is_empty();
        ing_q.push_back(IngressPacket { slot, out_port: out_port as u32 });
        if new_head && span.len() <= 64 {
            // The arrival installed a new (maybe movable) head. Behind an
            // existing head it changes nothing: that head is still
            // registered in its target's `head_waiters` if blocked, and
            // the port's pending bit is already set.
            let sw = &mut self.sw[n];
            sw.ing_pending |= 1 << port;
            sw.ing_blocked &= !(1 << port);
        }
        self.pump(node, span);
    }

    /// Move packets from ingress FIFOs into free egress staging slots,
    /// kicking each egress that receives work. Runs to a fixed point. Each
    /// round grants one packet to the first movable FIFO head in
    /// round-robin port order ([`PumpPolicy::RoundRobin`]); an
    /// output-queued switch has no ingress FIFO and never pumps (see
    /// [`Self::forward_at_switch`]). `span` is the node's range of the
    /// port table, resolved once by the caller; every port the pump
    /// touches is checked against it.
    fn pump(&mut self, node: NodeId, span: PortSpan) {
        debug_assert!(self.cfg.pump != PumpPolicy::OutputQueued, "output-queued switch pumped");
        let n = node.0 as usize;
        let num_ports = span.len();
        let np = self.cfg.num_priorities;
        loop {
            // One load answers the common case: no ingress FIFO holds
            // anything, nothing to move.
            let pending = self.sw[n].ing_pending;
            if pending == 0 {
                return;
            }
            // Find a movable head: an (ingress port, prio) whose target
            // egress has a free staging slot.
            let best: Option<(usize, usize)> = if num_ports <= 64 {
                // Fast path: walk only the set bits of the pending-and-
                // not-blocked mask, in rotated order, and take the first
                // movable head — the same selection the generic scan
                // below makes, without touching idle or known-blocked
                // ports. Ports that turn out blocked are
                // recorded in `ing_blocked` + the target's
                // `head_waiters`, so a node whose every waiting head is
                // staged-out resolves the next pump in two loads.
                let start = self.sw[n].pump_rr; // < num_ports <= 64
                let avail = pending & !self.sw[n].ing_blocked;
                let lo = (1u64 << start) - 1;
                let mut found = None;
                'scan: for m0 in [avail & !lo, avail & lo] {
                    let mut m = m0;
                    while m != 0 {
                        let ing = m.trailing_zeros() as usize;
                        let ing_ix = span.ix(ing);
                        let mut any_head = false;
                        for prio in 0..np {
                            let Some(head) = self.ports[ing_ix].pq(prio).ing_q.front() else {
                                continue;
                            };
                            any_head = true;
                            let out = span.ix(head.out_port as usize);
                            if self.ports[out].pq(prio).eg.q.len() < STAGE_SLOTS {
                                found = Some((ing, prio));
                                break 'scan;
                            }
                            // Head-of-line wait: wake this ingress when
                            // the target egress frees a slot.
                            self.ports[out].head_waiters |= 1 << ing;
                        }
                        if any_head {
                            self.sw[n].ing_blocked |= 1 << ing;
                        }
                        m &= m - 1;
                    }
                }
                found
            } else {
                // Generic scan, the only path for nodes of more than 64
                // ports (their pending mask is pinned at MAX): the first
                // movable head in rotated port order, priorities low to
                // high within a port.
                let start = self.sw[n].pump_rr;
                (0..num_ports).map(|i| (start + i) % num_ports).find_map(|ing| {
                    (0..np).find_map(|prio| {
                        let head = self.ports[span.ix(ing)].pq(prio).ing_q.front()?;
                        let out = span.ix(head.out_port as usize);
                        // A full egress is a head-of-line wait.
                        (self.ports[out].pq(prio).eg.q.len() < STAGE_SLOTS).then_some((ing, prio))
                    })
                })
            };
            let Some((ing, prio)) = best else { return };
            // Grant: move the chosen head into its egress staging.
            let ing_ix = span.ix(ing);
            let IngressPacket { slot, out_port } =
                self.ports[ing_ix].pq_mut(prio).ing_q.pop_front().expect("selected head");
            let out_port = out_port as usize;
            let out = span.ix(out_port);
            debug_assert!(
                self.ports[out].pq(prio).eg.q.len() < STAGE_SLOTS,
                "pump granted a head whose egress staging is full"
            );
            let bytes = self.store.get(slot).bytes;
            let eg = &mut self.ports[out].pq_mut(prio).eg;
            eg.bytes += bytes;
            eg.q.push_back(&mut self.store, slot);
            self.try_transmit(node, out_port, out);
            if num_ports <= 64 && self.ports[ing_ix].pqs().all(|pq| pq.ing_q.is_empty()) {
                self.sw[n].ing_pending &= !(1 << ing);
            }
            self.sw[n].pump_rr = if ing + 1 >= num_ports { 0 } else { ing + 1 };
        }
    }

    fn on_ctrl_apply(
        &mut self,
        node: NodeId,
        port: usize,
        prio: u8,
        payload: CtrlPayload,
        cause: CauseToken,
    ) {
        let wire = payload.wire_bytes();
        let px = self.ports.ix(node.0 as usize, port);
        let ps = &mut self.ports[px];
        ps.ctrl_bytes_rx += wire;
        ps.ctrl_msgs_rx += 1;
        let tx_fc = &mut ps.pq_mut(prio as usize).tx_fc;
        let rate_before = tx_fc.assigned_rate();
        let outcome = tx_fc
            .on_ctrl(payload, self.now)
            .expect("control payload matches the scheme fixed at construction");
        let rate_after = tx_fc.assigned_rate();
        self.tel.on_ctrl_rx(
            self.now.0,
            node,
            port,
            prio,
            &payload,
            (rate_before.0, rate_after.0),
            cause,
        );
        if outcome.detection.is_some() {
            self.on_fc_detection();
        }
        if outcome.opened {
            self.try_transmit(node, port, px);
        }
    }

    /// The backend raised a runtime deadlock detection (DCFIT's tag came
    /// home). Record the first occurrence and, when forensics are armed,
    /// capture the wait-for graph at the detection instant — the moment
    /// the scheme itself claims a cycle exists.
    fn on_fc_detection(&mut self) {
        if self.first_fc_detection_at.is_some() {
            return;
        }
        self.first_fc_detection_at = Some(self.now);
        if self.tel.forensics_on && self.tel.forensics.is_none() {
            let graph = self.waitfor_graph();
            let cycle = graph.find_cycle().unwrap_or_default();
            self.capture_forensics(ForensicsTrigger::DcfitDetection, graph, cycle);
        }
    }

    fn on_periodic_feedback(&mut self, node: NodeId, port: usize) {
        let Some(period) = self.cfg.fc.period() else {
            return;
        };
        let px = self.ports.ix(node.0 as usize, port);
        for prio in 0..self.cfg.num_priorities {
            let msg = self.ports[px].pq_mut(prio).ing_rx.periodic();
            if let Some(payload) = msg {
                // Lineage hint: where this ingress's queued traffic heads —
                // the FIFO head's routed egress (None when idle or a host).
                let fwd = if self.tel.causal_on() {
                    self.ports[px].pq(prio).ing_q.front().map(|h| h.out_port as u16)
                } else {
                    None
                };
                self.send_ctrl(node, port, px, prio as u8, payload, fwd);
            }
        }
        self.queue.push(self.now + period, Event::PeriodicFeedback { node, port });
    }

    fn on_dcqcn_timer(&mut self, host: NodeId, flow: u64) {
        let Some(dc) = self.cfg.dcqcn else { return };
        let rate = {
            let hs = self.host_mut(host);
            let Some(f) = hs.flows.iter_mut().find(|f| f.id == flow) else {
                return;
            };
            let Some(rp) = &mut f.rp else { return };
            rp.on_alpha_timer();
            rp.on_increase_timer();
            rp.rate_bps()
        };
        self.trace_dcqcn(flow, rate);
        self.queue.push(self.now + Dur(dc.increase_timer_ps), Event::DcqcnTimer { host, flow });
        // A higher rate may make the flow eligible sooner than the pending
        // tick assumed.
        self.refill_host(host);
    }

    fn on_cnp(&mut self, host: NodeId, flow: u64) {
        let rate = {
            let hs = self.host_mut(host);
            let Some(f) = hs.flows.iter_mut().find(|f| f.id == flow) else {
                return;
            };
            let Some(rp) = &mut f.rp else { return };
            rp.on_cnp();
            rp.rate_bps()
        };
        self.trace_dcqcn(flow, rate);
    }

    /// Engine-probe occupancy sample, at the monitor cadence (so the hot
    /// dispatch path never pays for gauge updates). Also the sharded
    /// engine's per-shard barrier hook.
    pub(crate) fn probe_queue_sample(&mut self) {
        if let Some(p) = self.tel.probe.as_deref_mut() {
            sample_queue(&self.queue, self.ports.ctrl_backlog_frames(), p);
        }
    }

    fn on_monitor_tick(&mut self) {
        let mut monitor = self.monitor;
        let found = monitor.step(self.now, &mut [&mut *self]);
        self.monitor = monitor;
        if let Some((graph, cycle)) = found {
            self.capture_forensics(ForensicsTrigger::WaitForCycle, graph, cycle);
        }
        // A progress-monitor verdict without a structural cycle (a
        // pathological crawl rather than a standstill) still deserves a
        // post-mortem; capture once, on the first verdict.
        if self.deadlocked() && self.tel.forensics_on && self.tel.forensics.is_none() {
            let graph = self.waitfor_graph();
            let cycle = graph.find_cycle().unwrap_or_default();
            self.capture_forensics(ForensicsTrigger::ProgressMonitor, graph, cycle);
        }
        if monitor.halted() {
            self.halted = true;
            return;
        }
        self.queue.push(self.now + self.cfg.monitor_interval, Event::MonitorTick);
    }

    // ----------------------------------------------------------------
    // Transmission machinery
    // ----------------------------------------------------------------

    /// The lineage hint for a feedback message born at a backlogged
    /// ingress: the local egress that ingress is *waiting on*, mirroring
    /// the wait-for relation ([`Self::waitfor_graph`]) so parent linkage
    /// follows the same edges forensics would draw. In preference order:
    /// the ingress FIFO's head-of-line target (input-buffered case — the
    /// head is what the FIFO is stuck behind, not the packet that
    /// happened to arrive last), the arriving packet's routed egress if
    /// that egress is hard-blocked, any other hard-blocked egress holding
    /// staged packets charged to this ingress (output-queued case, where
    /// the backlog lives in egress staging), and finally the arriving
    /// packet's route. A pure read; only evaluated with the tracker on.
    fn causal_fwd_hint(&self, node: NodeId, port: usize, prio: usize, pkt: &Packet) -> Option<u16> {
        let node_ports = &self.ports[node.0 as usize];
        if let Some(head) = node_ports[port].pq(prio).ing_q.front() {
            return Some(head.out_port as u16);
        }
        let routed = pkt.next_link().map(|l| self.out_port(node, l));
        let blocked = |p: usize| {
            let pq = node_ports[p].pq(prio);
            let head = pq.eg.q.front().map(|slot| self.store.tx_head(slot));
            head.is_some_and(|h| pq.tx_fc.hard_blocked(&h, self.now))
        };
        if let Some(out) = routed {
            if blocked(out) {
                return Some(out as u16);
            }
        }
        for (p, ps) in node_ports.iter().enumerate() {
            if Some(p) == routed || !blocked(p) {
                continue;
            }
            let mut staged = ps.pq(prio).eg.q.iter(&self.store);
            if staged.any(|slot| self.store.ingress(slot) == Some(port)) {
                return Some(p as u16);
            }
        }
        routed.map(|o| o as u16)
    }

    /// Queue a feedback message generated by ingress `(node, port, prio)`
    /// (resolved as `px`) for transmission to the upstream peer.
    /// `fwd_egress` is the local egress this ingress's traffic forwards
    /// through (the causal layer's lineage hint; callers pass `None` when
    /// the tracker is off or the forwarding direction is unknown).
    fn send_ctrl(
        &mut self,
        node: NodeId,
        port: usize,
        px: PortIx,
        prio: u8,
        payload: CtrlPayload,
        fwd_egress: Option<u16>,
    ) {
        debug_assert_eq!(payload.codec_roundtrip(prio), payload, "codec would corrupt payload");
        let sense = self.tel.causal_on().then(|| {
            // The generating receiver classifies its own message — it is
            // the only party that knows the scheme's assert/clear intent.
            let pq = self.ports[px].pq(prio as usize);
            let sense = match pq.ing_rx.sense(&payload, pq.ing_bytes) {
                Sense::AssertHard => CtrlSense::AssertHard,
                Sense::AssertSoft => CtrlSense::AssertSoft,
                Sense::Clear => CtrlSense::Clear,
            };
            (sense, fwd_egress)
        });
        let cause = self.tel.on_ctrl_tx(self.now.0, node, port, prio, &payload, sense);
        if payload.wire_bytes() == 0 {
            // Conceptual out-of-band channel: fixed latency τ.
            let tau = self.cfg.fc.oob_latency();
            let ps = &self.ports[px];
            let (peer, peer_port) = (ps.peer, ps.peer_port);
            self.push_wire(
                EventQueue::LANE_CTRL_OOB,
                self.now + tau,
                peer,
                Event::CtrlApply { node: peer, port: peer_port, prio, payload, cause },
            );
            return;
        }
        self.ports[px].ctrl_q.push_back(QueuedCtrl { payload, prio, cause });
        self.try_transmit(node, port, px);
    }

    /// Attempt to start a transmission on `(node, port)`, resolved as
    /// `px`.
    fn try_transmit(&mut self, node: NodeId, port: usize, px: PortIx) {
        let np = self.cfg.num_priorities;
        let now = self.now;
        let ps = &mut self.ports[px];
        if ps.tx_busy {
            return;
        }
        // Control frames first (strict priority, immune to pause).
        if let Some(ctrl) = ps.ctrl_q.pop_front() {
            let wire = ctrl.payload.wire_bytes();
            let tx_time = Dur::for_bytes(wire, self.cfg.capacity);
            let done = now + tx_time;
            ps.bytes_tx += wire;
            ps.tx_busy = true;
            ps.current_ctrl = Some(ctrl);
            self.queue.push_fifo(EventQueue::LANE_TX, done, Event::TxComplete { node, port });
            return;
        }
        // Data: round-robin across priorities.
        let mut wake: Option<Time> = None;
        for i in 0..np {
            // wrr_next < np, i < np: one conditional subtract is an exact
            // modulo (hardware division is too hot on this path).
            let ps = &mut self.ports[px];
            let mut prio = ps.wrr_next + i;
            if prio >= np {
                prio -= np;
            }
            let pq = ps.pq_mut(prio);
            let head = match pq.eg.q.front() {
                Some(slot) => self.store.tx_head(slot),
                None => continue,
            };
            match pq.tx_fc.gate(&head, now) {
                Gate::Blocked => {
                    self.tel.on_gate_blocked();
                    continue;
                }
                Gate::WaitUntil(t) => {
                    wake = Some(wake.map_or(t, |w: Time| w.min(t)));
                    continue;
                }
                Gate::Ready => {
                    self.start_data_tx(node, port, px, prio);
                    return;
                }
            }
        }
        if let Some(t) = wake {
            let ps = &mut self.ports[px];
            if ps.kick_at.is_none_or(|pending| t < pending) {
                ps.kick_at = Some(t);
                self.tel.on_gate_paced(t.0 - now.0);
                self.queue.push(t, Event::TxKick { node, port });
            }
        }
    }

    fn start_data_tx(&mut self, node: NodeId, port: usize, px: PortIx, prio: usize) {
        let n = node.0 as usize;
        let now = self.now;
        // ECN marking at switch egress, based on the egress queue length
        // including the departing packet.
        let mark = match (self.is_host(node), self.cfg.ecn) {
            (false, Some(m)) => {
                // Mark against the virtual output queue: everything in the
                // node currently destined to this egress. The uniform draw
                // is a node-local counter hash (see `NodeSw::ecn_seq`), not
                // a shared-stream draw, so the sequence is identical
                // whether this node runs in the sequential engine or in a
                // shard.
                let qlen = self.ports[px].pq(prio).eg.voq_bytes;
                let k = self.sw[n].ecn_seq;
                self.sw[n].ecn_seq = k + 1;
                let h =
                    splitmix(self.cfg.seed ^ 0x9E37_79B9_7F4A_7C15 ^ (u64::from(node.0) << 40) ^ k);
                let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                m.should_mark(qlen, u)
            }
            _ => false,
        };
        let ps = &mut self.ports[px];
        let pq = ps.pq_mut(prio);
        let slot = pq.eg.q.pop_front(&mut self.store).expect("gate passed on empty queue");
        let pkt = self.store.get_mut(slot);
        if mark {
            pkt.ecn_marked = true;
        }
        let head = TxHead { bytes: pkt.bytes, flow: u64::from(pkt.flow) };
        pq.eg.bytes -= head.bytes;
        let tx_time = Dur::for_bytes(head.bytes, self.cfg.capacity);
        let done = now + tx_time;
        pq.tx_fc.on_sent(&head, tx_time, done);
        ps.bytes_tx += head.bytes;
        ps.tx_busy = true;
        ps.current_data = Some((slot, prio as u8));
        ps.wrr_next = if prio + 1 >= self.cfg.num_priorities { 0 } else { prio + 1 };
        // This egress just freed a staging slot: ingress FIFO heads that
        // head-of-line blocked on it are movable again.
        let w = std::mem::take(&mut ps.head_waiters);
        if w != 0 {
            self.sw[n].ing_blocked &= !w;
        }
        self.queue.push_fifo(EventQueue::LANE_TX, done, Event::TxComplete { node, port });
    }

    fn on_tx_complete(&mut self, node: NodeId, port: usize) {
        let span = self.ports.span(node.0 as usize);
        let px = span.ix(port);
        let ps = &mut self.ports[px];
        ps.tx_busy = false;
        let (peer, peer_port) = (ps.peer, ps.peer_port);
        if let Some(ctrl) = ps.current_ctrl.take() {
            let due = self.now + self.cfg.prop_delay + self.cfg.ctrl_proc_delay;
            self.push_wire(
                EventQueue::LANE_CTRL,
                due,
                peer,
                Event::CtrlApply {
                    node: peer,
                    port: peer_port,
                    prio: ctrl.prio,
                    payload: ctrl.payload,
                    cause: ctrl.cause,
                },
            );
            self.try_transmit(node, port, px);
            return;
        }
        let (slot, prio) = ps.current_data.take().expect("tx completed with no frame");
        let ingress = self.store.ingress(slot);
        // The packet's one write out of this node.
        let pkt = self.store.take(slot);
        let bytes = pkt.bytes;
        let flow = u64::from(pkt.flow);
        // Hand the frame to the wire — moved into the arrival lane by
        // value, no per-hop clone. Constant propagation delay ⇒ arrivals
        // are due in push order: they ride the O(1) FIFO lane.
        self.push_wire(
            EventQueue::LANE_ARRIVE,
            self.now + self.cfg.prop_delay,
            peer,
            Event::Arrive { node: peer, port: peer_port, pkt },
        );
        // Release the local ingress charge (switch transit traffic).
        if let Some(ing) = ingress {
            {
                let voq = &mut self.ports[px].pq_mut(prio as usize).eg.voq_bytes;
                debug_assert!(*voq >= bytes, "VOQ accounting underflow");
                *voq -= bytes;
            }
            let ing_ix = span.ix(ing);
            let ing_pq = self.ports[ing_ix].pq_mut(prio as usize);
            debug_assert!(ing_pq.ing_bytes >= bytes, "ingress accounting underflow");
            ing_pq.ing_bytes -= bytes;
            let ctx =
                QueueCtx { q_bytes: ing_pq.ing_bytes, pkt_bytes: bytes, flow, inherited_tag: None };
            let mut msgs = Vec::new();
            ing_pq.ing_rx.on_drain(&ctx, &mut msgs);
            for payload in msgs {
                // Lineage hint: the drain happened through this egress.
                let fwd = if self.tel.causal_on() { Some(port as u16) } else { None };
                self.send_ctrl(node, ing, ing_ix, prio, payload, fwd);
            }
            // A staging slot freed: pull waiting ingress FIFO heads.
            if self.cfg.pump != PumpPolicy::OutputQueued {
                self.pump(node, span);
            }
        } else {
            // Host NIC: feed DCQCN's byte counter and top the queue up.
            if self.cfg.dcqcn.is_some() {
                let hs = self.host_mut(node);
                if let Some(f) = hs.flows.iter_mut().find(|f| f.id == flow) {
                    if let Some(rp) = &mut f.rp {
                        rp.on_bytes_sent(bytes);
                    }
                }
            }
            self.refill_host(node);
        }
        self.try_transmit(node, port, px);
    }

    // ----------------------------------------------------------------
    // Host packetization
    // ----------------------------------------------------------------

    /// Top up a host's NIC queue from its active flows (round-robin among
    /// eligible flows), keeping at most two frames staged.
    fn refill_host(&mut self, host: NodeId) {
        let mtu = self.cfg.mtu;
        let now = self.now;
        enum Step {
            Idle,
            Wake(Time),
            Send { pkt: Packet },
        }
        let px = self.ports.ix(host.0 as usize, 0);
        loop {
            let staged: usize = self.ports[px].pqs().map(|pq| pq.eg.q.len()).sum();
            if staged >= 2 {
                return;
            }
            let next_pkt_id = self.next_pkt_id;
            let step = {
                let hs = self.host_mut(host);
                if hs.flows.is_empty() {
                    Step::Idle
                } else {
                    let len = hs.flows.len();
                    let mut chosen: Option<usize> = None;
                    let mut earliest: Option<Time> = None;
                    for i in 0..len {
                        // `rr` can exceed `len` after flow removals; the
                        // subtract loop is an exact modulo without the
                        // hardware division (twice per sourced packet).
                        let mut idx = hs.rr + i;
                        while idx >= len {
                            idx -= len;
                        }
                        let f = &hs.flows[idx];
                        if f.remaining == Some(0) {
                            continue; // fully enqueued, awaiting delivery
                        }
                        if f.next_eligible <= now {
                            chosen = Some(idx);
                            break;
                        }
                        earliest = Some(
                            earliest.map_or(f.next_eligible, |e: Time| e.min(f.next_eligible)),
                        );
                    }
                    match chosen {
                        None => match earliest {
                            Some(t) if hs.tick_at.is_none_or(|cur| t < cur) => {
                                hs.tick_at = Some(t);
                                Step::Wake(t)
                            }
                            _ => Step::Idle,
                        },
                        Some(idx) => {
                            hs.rr = if idx + 1 >= len { 0 } else { idx + 1 };
                            let f = &mut hs.flows[idx];
                            let size = match f.remaining {
                                Some(rem) => {
                                    let s = rem.min(mtu);
                                    f.remaining = Some(rem - s);
                                    s
                                }
                                None => mtu,
                            };
                            if let Some(rp) = &f.rp {
                                let rate = Rate(rp.rate_bps());
                                f.next_eligible = now + Dur::for_bytes(size, rate);
                            }
                            Step::Send {
                                pkt: Packet {
                                    id: next_pkt_id,
                                    // Fits: `start_flow_on_path` checks it.
                                    flow: f.id as u32,
                                    src: host,
                                    dst: f.dst,
                                    bytes: size,
                                    prio: f.prio,
                                    path: f.path.clone(),
                                    // Staged at the host egress: the access
                                    // link is about to be traversed.
                                    hop: 1,
                                    ecn_marked: false,
                                },
                            }
                        }
                    }
                }
            };
            match step {
                Step::Idle => return,
                Step::Wake(t) => {
                    self.queue.push(t, Event::HostTick { host });
                    return;
                }
                Step::Send { pkt } => {
                    self.next_pkt_id += 1;
                    let prio = pkt.prio as usize;
                    let bytes = pkt.bytes;
                    let slot = self.store.insert(pkt, PacketStore::SOURCED);
                    let eg = &mut self.ports[px].pq_mut(prio).eg;
                    eg.bytes += bytes;
                    eg.q.push_back(&mut self.store, slot);
                    self.try_transmit(host, 0, px);
                }
            }
        }
    }

    // ----------------------------------------------------------------
    // Tracing helpers
    // ----------------------------------------------------------------

    fn trace_dcqcn(&mut self, flow: u64, rate_bps: u64) {
        if let Some(s) = self.traces.dcqcn_rate.get_mut(&flow) {
            s.push(self.now.0, rate_bps as f64);
        }
    }

    // ----------------------------------------------------------------
    // Structural deadlock detection
    // ----------------------------------------------------------------

    /// Instantaneous wait-for-graph cycle check (the structural companion
    /// of the progress monitor): a cycle in [`Self::waitfor_graph`] means
    /// circular hold-and-wait — if the involved flow-control states can
    /// only change through the blocked queues themselves, this is a
    /// deadlock.
    pub fn waitfor_cycle_exists(&self) -> bool {
        self.waitfor_graph().find_cycle().is_some()
    }

    /// Build the instantaneous wait-for relation: an egress queue that
    /// holds packets but is hard-blocked (paused / out of credits) *waits
    /// for* the downstream ingress; an ingress charged for staged packets
    /// waits for the local egress holding them; an ingress FIFO head
    /// waits for its target egress.
    pub fn waitfor_graph(&self) -> WaitForGraph {
        let mut g = WaitForGraph::new();
        self.add_waitfor_edges(&mut g);
        g
    }

    /// Add this network's wait-for edges (see [`Self::waitfor_graph`]) to
    /// `g`, over the ports it holds. The sharded coordinator folds every
    /// shard into one graph this way, in shard order.
    pub(crate) fn add_waitfor_edges(&self, g: &mut WaitForGraph) {
        let vertex = |g: &mut WaitForGraph, side: WfSide, n: usize, p: usize| {
            let name = &self.fab.topo.node(NodeId(n as u32)).name;
            let dir = match side {
                WfSide::Egress => "out",
                WfSide::Ingress => "in",
            };
            g.vertex(side, n as u32, p as u16, &format!("{name}:{dir}{p}"))
        };
        for (n, node_ports) in self.ports.nodes().enumerate() {
            for (p, ps) in node_ports.iter().enumerate() {
                for pq in ps.pqs() {
                    let eq = &pq.eg;
                    // Staged packets charge local ingresses: those
                    // ingresses wait on this egress to drain.
                    for slot in eq.q.iter(&self.store) {
                        if let Some(ing) = self.store.ingress(slot) {
                            let from = vertex(g, WfSide::Ingress, n, ing);
                            let to = vertex(g, WfSide::Egress, n, p);
                            g.edge(from, to);
                        }
                    }
                    let Some(head) = eq.q.front() else { continue };
                    // Egress blocked → waits on the downstream ingress.
                    if pq.tx_fc.hard_blocked(&self.store.tx_head(head), self.now) {
                        let from = vertex(g, WfSide::Egress, n, p);
                        let to = vertex(g, WfSide::Ingress, ps.peer.0 as usize, ps.peer_port);
                        g.edge(from, to);
                    }
                }
                // Ingress FIFO heads wait on their target egress.
                for pq in ps.pqs() {
                    if let Some(head) = pq.ing_q.front() {
                        let from = vertex(g, WfSide::Ingress, n, p);
                        let to = vertex(g, WfSide::Egress, n, head.out_port as usize);
                        g.edge(from, to);
                    }
                }
            }
        }
    }

    /// Assemble and store the deadlock post-mortem (at most once per run;
    /// a no-op with forensics disabled): the wait-for graph and cycle,
    /// queue occupancies of the implicated ports, and the trailing
    /// flight-recorder events touching them.
    fn capture_forensics(
        &mut self,
        trigger: ForensicsTrigger,
        graph: WaitForGraph,
        cycle: Vec<usize>,
    ) {
        if !self.tel.forensics_on || self.tel.forensics.is_some() {
            return;
        }
        // Ports implicated: the cycle's, or every blocked/backlogged port
        // when the progress monitor tripped without a structural cycle.
        let mut port_set: Vec<(u32, u16)> = if cycle.is_empty() {
            graph.vertices().iter().map(|v| (v.node, v.port)).collect()
        } else {
            cycle.iter().map(|&v| (graph.vertices()[v].node, graph.vertices()[v].port)).collect()
        };
        port_set.sort_unstable();
        port_set.dedup();
        let occupancies = port_set
            .iter()
            .map(|&(n, p)| {
                let ps = &self.ports[self.ports.ix(n as usize, p as usize)];
                PortOccupancy {
                    label: format!("{}:p{p}", self.fab.topo.node(NodeId(n)).name),
                    node: n,
                    port: p,
                    ingress_bytes: ps.ingress_backlog(),
                    egress_bytes: ps.egress_backlog(),
                    ctrl_queued: ps.ctrl_q.len(),
                }
            })
            .collect();
        const TRAILING: usize = 32;
        let trailing_events = self.tel.trailing_events(&port_set, TRAILING);
        self.tel.forensics = Some(ForensicsReport {
            t_ps: self.now.0,
            trigger,
            last_progress_ps: self.monitor.last_progress_ps(),
            graph,
            cycle,
            occupancies,
            trailing_events,
            recorder_enabled: self.tel.rec.is_enabled(),
        });
    }
}

/// Copy the queue's occupancy gauges and push counters into `p`.
fn sample_queue(queue: &EventQueue, ctrl_backlog: u64, p: &mut EngineProbe) {
    let qs = queue.stats();
    p.pushes_inline = qs.pushes_inline;
    p.pushes_pooled = qs.pushes_pooled;
    p.pool_grown = qs.pool_grown;
    p.lane_diverted = qs.lane_diverted;
    p.queue_sample(
        queue.heap_len() as u64,
        queue.lane_lens().map(|l| l as u64),
        queue.pool_slots() as u64,
        queue.free_slots() as u64,
        ctrl_backlog,
    );
}

/// splitmix64 mixer for flow-id hashing.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowgen::ClosedLoopWorkload;
    use gfc_core::units::kb;
    use gfc_core::{AnyRx, AnyTx, FcConfig, StageTable};
    use gfc_topology::fattree::FatTree;
    use gfc_topology::Ring;
    use gfc_workload::{DestPolicy, EmpiricalCdf, FlowSizeDist};

    impl Network {
        /// Check the pump's masks against the FIFOs they summarise, at a
        /// node of at most 64 ports: a port's `ing_pending` bit is set iff
        /// its ingress holds a packet, and an `ing_blocked` bit means every
        /// non-empty head targets a full egress whose `head_waiters` has
        /// the port's bit. A wider node keeps `ing_pending` pinned at
        /// `u64::MAX` and never marks a head blocked. Returns the number of
        /// ports marked blocked.
        fn assert_pump_masks(&self) -> u32 {
            let mut blocked = 0;
            for (n, node_ports) in self.ports.nodes().enumerate() {
                let sw = &self.sw[n];
                if node_ports.len() > 64 {
                    assert_eq!(sw.ing_pending, u64::MAX, "node {n}: wide node's pending mask");
                    assert_eq!(sw.ing_blocked, 0, "node {n}: wide node marked a head blocked");
                    assert!(node_ports.iter().all(|ps| ps.head_waiters == 0), "node {n}");
                    continue;
                }
                for (p, ps) in node_ports.iter().enumerate() {
                    let bit = 1u64 << p;
                    let holds = ps.pqs().any(|pq| !pq.ing_q.is_empty());
                    assert_eq!(sw.ing_pending & bit != 0, holds, "node {n} port {p}: pending bit");
                    if sw.ing_blocked & bit == 0 {
                        continue;
                    }
                    blocked += 1;
                    for prio in 0..self.cfg.num_priorities {
                        let Some(head) = ps.pq(prio).ing_q.front() else { continue };
                        let target = &node_ports[head.out_port as usize];
                        assert!(
                            target.pq(prio).eg.q.len() >= STAGE_SLOTS,
                            "node {n} port {p}: marked blocked, but egress {} has a free slot",
                            head.out_port
                        );
                        assert!(
                            target.head_waiters & bit != 0,
                            "node {n} port {p}: blocked on egress {} without its waiter bit",
                            head.out_port
                        );
                    }
                }
            }
            blocked
        }

        /// Check the packet store against the queues that hold its
        /// slots: each egress list walks, without a cycle, to its cached
        /// length and ends at its tail; every live slot is on exactly one
        /// egress list, ingress FIFO or wire, and a slot off the egress
        /// lists links to nothing; no queue names a free slot; and live
        /// plus free slots (the free list walked) make up the store.
        /// Returns the number of live packets.
        fn assert_packet_store(&self) -> usize {
            let store = &self.store;
            let mut refs = vec![0u32; store.len()];
            for (n, node_ports) in self.ports.nodes().enumerate() {
                for (p, ps) in node_ports.iter().enumerate() {
                    let mut note = |slot: u32, queue: &str| {
                        assert!(store.is_live(slot), "node {n} {queue}{p}: free slot {slot}");
                        refs[slot as usize] += 1;
                    };
                    for pq in ps.pqs() {
                        for h in &pq.ing_q {
                            note(h.slot, "in");
                            assert_eq!(store.next_of(h.slot), None, "node {n} in{p}: linked slot");
                        }
                        let mut walked = 0;
                        for slot in pq.eg.q.iter(store).take(store.len() + 1) {
                            note(slot, "out");
                            walked += 1;
                            assert!(walked <= store.len(), "node {n} out{p}: list has a cycle");
                            if store.next_of(slot).is_none() {
                                assert_eq!(Some(slot), pq.eg.q.back(), "node {n} out{p}: tail");
                            }
                        }
                        assert_eq!(walked, pq.eg.q.len(), "node {n} out{p}: cached len");
                    }
                    if let Some((slot, _)) = ps.current_data {
                        note(slot, "wire");
                        assert_eq!(store.next_of(slot), None, "node {n} wire{p}: linked slot");
                    }
                }
            }
            let mut live = 0;
            for (slot, &r) in refs.iter().enumerate() {
                let is_live = store.is_live(slot as u32);
                live += usize::from(is_live);
                assert!(r <= 1, "slot {slot} referenced {r} times");
                assert_eq!(is_live, r == 1, "slot {slot}: live {is_live}, referenced {r} times");
            }
            assert_eq!(live + store.free_len(), store.len(), "live + free != slots");
            live
        }
    }

    /// Run `net` to `horizon` one event at a time — so also across every
    /// instant boundary — calling `check` after each. Within an instant
    /// the invariants must hold too: a stale bit can be repaired by a
    /// later event of the same instant, which a per-instant check would
    /// miss.
    fn run_checking(mut net: Network, horizon: Time, mut check: impl FnMut(&Network)) -> Network {
        net.ensure_started();
        while let Some((t, ev)) = net.queue.pop_at_or_before(horizon) {
            net.now = t;
            net.handle(ev);
            check(&net);
        }
        net
    }

    /// [`run_checking`] on the pump masks; returns how many checks saw a
    /// port marked blocked.
    fn run_checking_masks(net: Network, horizon: Time) -> u64 {
        let mut checks_blocked = 0;
        run_checking(net, horizon, |net| {
            checks_blocked += u64::from(net.assert_pump_masks() > 0);
        });
        checks_blocked
    }

    /// [`run_checking`] on the packet store; at the end the store holds
    /// exactly as many slots as the most packets ever live at once (no
    /// slack), and that many is returned.
    fn run_checking_store(net: Network, horizon: Time) -> usize {
        let mut most_live = 0;
        let net = run_checking(net, horizon, |net| {
            most_live = most_live.max(net.assert_packet_store());
        });
        assert_eq!(net.store.len(), most_live, "store slots vs most packets live at once");
        most_live
    }

    fn gfc_cfg(prios: u8) -> SimConfig {
        let mut cfg = SimConfig::default_10g();
        cfg.buffer_bytes = kb(300) + 4 * 1500;
        cfg.fc = FcConfig::gfc_buffer(kb(300), kb(281));
        cfg.pump = PumpPolicy::RoundRobin;
        cfg.num_priorities = usize::from(prios);
        cfg.preflight = gfc_verify::PreflightPolicy::Acknowledge;
        cfg
    }

    /// The Fig. 1 ring with every clockwise flow on each of `prios`
    /// priorities.
    fn ring(prios: u8) -> Network {
        let ring = Ring::new(3);
        let routing = Routing::fixed(ring.clockwise_routes());
        let mut net = Network::new(ring.topo.clone(), routing, gfc_cfg(prios), TraceConfig::none());
        for (src, dst) in ring.clockwise_flows() {
            for prio in 0..prios {
                net.start_flow(src, dst, None, prio).expect("clockwise route");
            }
        }
        net
    }

    /// One switch with `hosts` hosts: hosts `2k` and `2k + 1` both send to
    /// host `2k + 2`, and every host also sends half the star away (on
    /// priority 1 when there are two), so FIFO heads block on two
    /// egresses.
    fn star(hosts: usize, prios: u8) -> Network {
        let mut topo = Topology::new();
        let sw = topo.add_switch("S");
        let hs: Vec<NodeId> = (0..hosts).map(|i| topo.add_host(format!("H{i}"))).collect();
        for &h in &hs {
            topo.add_link(h, sw);
        }
        let mut net = Network::new(topo, Routing::spf(), gfc_cfg(prios), TraceConfig::none());
        for i in 0..hosts {
            let far = (i + hosts / 2) % hosts;
            net.start_flow(hs[i], hs[(i / 2 * 2 + 2) % hosts], None, 0).expect("star route");
            net.start_flow(hs[i], hs[far], None, prios - 1).expect("star route");
        }
        net
    }

    #[test]
    fn pump_masks_stay_exact_on_a_round_robin_gfc_ring() {
        for prios in [1, 2] {
            let blocked = run_checking_masks(ring(prios), Time::from_millis(5));
            assert!(
                blocked > 0,
                "{prios} priorities: no head ever blocked, the check proved nothing"
            );
        }
    }

    #[test]
    fn pump_masks_stay_exact_on_a_40_port_star() {
        for prios in [1, 2] {
            let blocked = run_checking_masks(star(40, prios), Time::from_millis(1));
            assert!(
                blocked > 0,
                "{prios} priorities: no head ever blocked, the check proved nothing"
            );
        }
    }

    #[test]
    fn pump_masks_stay_pinned_on_a_70_port_star() {
        run_checking_masks(star(70, 1), Time::from_millis(1));
    }

    /// The k = 4 fat-tree under PFC on output-queued switches, with
    /// closed-loop enterprise flows to other racks: flows start and
    /// finish throughout, and egress queues build and drain.
    fn fat_tree_enterprise_pfc() -> Network {
        let ft = FatTree::new(4);
        let mut cfg = SimConfig::default_10g();
        cfg.buffer_bytes = kb(300) + 4 * 1500;
        cfg.fc = FcConfig::pfc(kb(280), kb(277));
        cfg.pump = PumpPolicy::OutputQueued;
        cfg.seed = 4242;
        cfg.preflight = gfc_verify::PreflightPolicy::Acknowledge;
        let racks = (0..ft.hosts.len()).map(|h| ft.rack_of_host(h) as u32).collect();
        let mut net = Network::new(ft.topo, Routing::spf(), cfg, TraceConfig::none());
        net.install_workload(Box::new(ClosedLoopWorkload {
            sizes: FlowSizeDist::Empirical(EmpiricalCdf::enterprise()),
            dests: DestPolicy::inter_rack(racks),
            num_hosts: ft.hosts.len(),
            prio: 0,
            stop_after: None,
        }));
        net
    }

    #[test]
    fn packet_store_matches_the_queues_on_a_round_robin_gfc_ring() {
        for prios in [1, 2] {
            let most = run_checking_store(ring(prios), Time::from_millis(5));
            assert!(most > 100, "{prios} priorities: only {most} packets ever live");
        }
    }

    #[test]
    fn packet_store_matches_the_queues_on_a_round_robin_70_port_star() {
        let most = run_checking_store(star(70, 1), Time::from_micros(200));
        assert!(most > 100, "only {most} packets ever live");
    }

    #[test]
    fn packet_store_matches_the_queues_on_an_output_queued_pfc_fat_tree() {
        let most = run_checking_store(fat_tree_enterprise_pfc(), Time::from_millis(1));
        assert!(most > 100, "only {most} packets ever live");
    }

    #[test]
    fn every_gfc_port_shares_one_stage_table() {
        let net = ring(2);
        let cfg = net.config();
        let FcConfig::GfcBuffer(p) = cfg.fc else { panic!("ring runs buffer-based GFC") };
        let (num, den) = p.stage_ratio;
        let expect = StageTable::with_ratio(p.bm, p.b1, cfg.capacity, num, den);
        let mut tables: Vec<&StageTable> = Vec::new();
        for pq in net.ports.all().iter().flat_map(PortState::pqs) {
            let AnyRx::GfcBuffer(rx) = &pq.ing_rx else { panic!("GFC receiver") };
            let AnyTx::GfcBuffer(tx) = pq.tx_fc.backend() else { panic!("GFC sender") };
            tables.extend([rx.0.table(), tx.0.table()]);
        }
        assert_eq!(tables.len(), 2 * 2 * net.ports.all().len());
        assert_eq!(*tables[0], expect);
        assert!(tables.iter().all(|&t| std::ptr::eq(t, tables[0])), "a port built its own table");
    }
}
