//! Per-port simulator state: ingress accounting, egress queues, control
//! queue, and the transmission scheduler's bookkeeping.
//!
//! ## Layout
//!
//! Per-priority state is grouped in [`PrioState`] — one struct per
//! `(port, priority)` instead of five parallel `Vec`s — so the fields a
//! forwarding step touches together (ingress occupancy, FIFO, receiver,
//! egress, sender) sit in one cache region. Priority 0 is stored inline
//! in [`PortState`]: the headline configurations run a single priority,
//! and inlining it removes the last pointer chase from the per-packet
//! path. All ports of all nodes live in one contiguous [`PortTable`]
//! indexed as `ports[node][port]`; a shard of a sharded run builds only
//! its own domain's ports, and every foreign node's slice is empty.

use crate::config::SimConfig;
use crate::fc::{CtrlPayload, FcSender};
use crate::packet::Packet;
use gfc_core::{AnyRx, PortIdent};
use gfc_telemetry::CauseToken;
use gfc_topology::{LinkId, NodeId};
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

/// A packet staged at an egress, remembering which local ingress buffer is
/// charged for it (None for locally sourced traffic, i.e. host NICs).
#[derive(Debug, Clone)]
pub struct StagedPacket {
    /// The packet.
    pub pkt: Packet,
    /// The local ingress port charged for the packet's buffer occupancy.
    pub ingress_port: Option<usize>,
}

/// A packet waiting in an ingress FIFO with its forwarding decision.
#[derive(Debug, Clone)]
pub struct IngressPacket {
    /// The packet.
    pub pkt: Packet,
    /// The egress port it will leave through.
    pub out_port: usize,
    /// Node-local arrival sequence number (for arrival-ordered pumping).
    pub arrival_seq: u64,
}

/// One egress priority queue. Under the input-buffered pump policies it
/// is a *small* staging area (per the paper's Fig. 2, packets wait in
/// ingress FIFOs and move to the egress only when a staging slot frees);
/// an output-queued switch enqueues every arrival here directly.
#[derive(Debug, Clone, Default)]
pub struct EgressQueue {
    /// FIFO of staged packets: at most `SimConfig::stage_slots` under the
    /// input-buffered pump policies, unbounded under
    /// `PumpPolicy::OutputQueued`.
    pub q: VecDeque<StagedPacket>,
    /// Total bytes staged.
    pub bytes: u64,
    /// Virtual-output-queue byte count: everything in this node currently
    /// destined to this egress/priority (staged, waiting in ingress FIFOs,
    /// or in flight on this port). This is the congestion signal ECN marks
    /// against.
    pub voq_bytes: u64,
}

/// A control message queued for transmission on the reverse channel.
#[derive(Debug, Clone)]
pub struct QueuedCtrl {
    /// Decoded payload.
    pub payload: CtrlPayload,
    /// Priority / VL it addresses.
    pub prio: u8,
    /// Causal lineage tag (see `gfc_telemetry::causal`); always
    /// [`CauseToken::NONE`] when the causal layer is off.
    pub cause: CauseToken,
}

/// Everything one `(port, priority)` pair owns: the per-event hot set.
#[derive(Debug, Clone)]
pub struct PrioState {
    /// Ingress buffer occupancy, bytes (FIFO + staged + in-flight;
    /// released when the last bit leaves the node).
    pub ing_bytes: u64,
    /// Ingress FIFO (the input buffer of Fig. 2; subject to head-of-line
    /// blocking exactly like the paper's switches). Always empty on an
    /// output-queued switch.
    pub ing_q: VecDeque<IngressPacket>,
    /// Ingress flow-control receiver.
    pub ing_rx: AnyRx,
    /// Egress queue.
    pub eg: EgressQueue,
    /// Egress flow-control sender (+ rate limiter).
    pub tx_fc: FcSender,
}

impl PrioState {
    fn new(cfg: &SimConfig, ident: PortIdent) -> Self {
        PrioState {
            ing_bytes: 0,
            ing_q: VecDeque::new(),
            ing_rx: cfg.fc.make_rx_any(cfg.capacity, cfg.buffer_bytes, cfg.mtu, ident),
            eg: EgressQueue::default(),
            tx_fc: FcSender::for_config(cfg, ident),
        }
    }
}

/// Everything one port of one node owns.
#[derive(Debug, Clone)]
pub struct PortState {
    /// The attached cable.
    pub link: LinkId,
    /// The node on the other end.
    pub peer: NodeId,
    /// The port index this cable occupies on the peer.
    pub peer_port: usize,
    /// Priority 0's state, inline (see the module docs).
    pq0: PrioState,
    /// Priorities `1..num_priorities`, if any.
    pq_rest: Box<[PrioState]>,
    /// Control frames awaiting the wire (strict priority over data).
    pub ctrl_q: VecDeque<QueuedCtrl>,
    /// Whether a transmission is in flight on this port.
    pub tx_busy: bool,
    /// The control frame in flight, if the current transmission is one.
    pub current_ctrl: Option<QueuedCtrl>,
    /// The data frame in flight (with its priority), if any.
    pub current_data: Option<(StagedPacket, u8)>,
    /// Weighted-round-robin pointer across priorities.
    pub wrr_next: usize,
    /// Earliest outstanding `TxKick` for this port, if any. Scheduling a
    /// kick earlier than this replaces the bound (the stale later kick
    /// still fires but is a harmless no-op); without tracking the time, a
    /// port that once scheduled a far-future wakeup (deep-stage pacing)
    /// would refuse earlier wakeups after its rate recovered.
    pub kick_at: Option<gfc_core::units::Time>,
    /// Received feedback bytes (Fig. 19 accounting).
    pub ctrl_bytes_rx: u64,
    /// Received feedback message count.
    pub ctrl_msgs_rx: u64,
    /// Packets dropped at this ingress (buffer overflow — must stay 0 in
    /// lossless configs).
    pub drops: u64,
    /// Cumulative bytes this port has put on the wire (data frames plus
    /// control frames) — the basis of the timeline's link-utilization
    /// track.
    pub bytes_tx: u64,
}

impl PortState {
    /// Fresh port state wired to `(link, peer, peer_port)`. `ident` names
    /// this port itself — the identity DCFIT backends stamp into the
    /// deadlock-detection tags they mint.
    pub fn new(
        cfg: &SimConfig,
        ident: PortIdent,
        link: LinkId,
        peer: NodeId,
        peer_port: usize,
    ) -> Self {
        PortState {
            link,
            peer,
            peer_port,
            pq0: PrioState::new(cfg, ident),
            pq_rest: (1..cfg.num_priorities).map(|_| PrioState::new(cfg, ident)).collect(),
            ctrl_q: VecDeque::new(),
            tx_busy: false,
            current_ctrl: None,
            current_data: None,
            wrr_next: 0,
            kick_at: None,
            ctrl_bytes_rx: 0,
            ctrl_msgs_rx: 0,
            drops: 0,
            bytes_tx: 0,
        }
    }

    /// The state of priority `prio`.
    #[inline]
    pub fn pq(&self, prio: usize) -> &PrioState {
        if prio == 0 {
            &self.pq0
        } else {
            &self.pq_rest[prio - 1]
        }
    }

    /// Mutable state of priority `prio`.
    #[inline]
    pub fn pq_mut(&mut self, prio: usize) -> &mut PrioState {
        if prio == 0 {
            &mut self.pq0
        } else {
            &mut self.pq_rest[prio - 1]
        }
    }

    /// All priorities in order.
    pub fn pqs(&self) -> impl Iterator<Item = &PrioState> {
        std::iter::once(&self.pq0).chain(self.pq_rest.iter())
    }

    /// Total bytes staged across all egress priorities.
    pub fn egress_backlog(&self) -> u64 {
        self.pqs().map(|pq| pq.eg.bytes).sum()
    }

    /// Total ingress occupancy across priorities.
    pub fn ingress_backlog(&self) -> u64 {
        self.pqs().map(|pq| pq.ing_bytes).sum()
    }

    /// Control frames awaiting or occupying this port's wire — queued
    /// plus in flight. The engine probe samples this network-wide to
    /// gauge reverse-channel pressure.
    pub fn ctrl_backlog_frames(&self) -> u64 {
        self.ctrl_q.len() as u64 + u64::from(self.current_ctrl.is_some())
    }
}

/// All ports of all nodes in one contiguous slab, indexed
/// `table[node][port]` — `table[node]` yields the node's ports as a
/// slice. One allocation instead of one per node, so sweeping the fabric
/// (pump scans, timeline samples, backlog sums) walks memory linearly.
/// A node may have an empty slice (a foreign node in a shard's table).
#[derive(Debug)]
pub struct PortTable {
    states: Vec<PortState>,
    /// `base[n]..base[n + 1]` is node `n`'s slice of `states`.
    base: Vec<u32>,
}

impl PortTable {
    /// Flatten the per-node port lists into one table.
    pub fn new(nested: Vec<Vec<PortState>>) -> Self {
        let mut base = Vec::with_capacity(nested.len() + 1);
        let mut states = Vec::with_capacity(nested.iter().map(Vec::len).sum());
        base.push(0);
        for node_ports in nested {
            states.extend(node_ports);
            base.push(u32::try_from(states.len()).expect("port count fits u32"));
        }
        PortTable { states, base }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.base.len() - 1
    }

    /// Every port of every node, in node order.
    pub fn all(&self) -> &[PortState] {
        &self.states
    }

    /// Per-node port slices, in node order.
    pub fn nodes(&self) -> impl Iterator<Item = &[PortState]> {
        self.base.windows(2).map(|w| &self.states[w[0] as usize..w[1] as usize])
    }

    /// Control frames queued or in flight across every port — the
    /// probe's reverse-channel pressure gauge. One linear slab walk.
    pub fn ctrl_backlog_frames(&self) -> u64 {
        self.states.iter().map(PortState::ctrl_backlog_frames).sum()
    }
}

impl Index<usize> for PortTable {
    type Output = [PortState];

    #[inline]
    fn index(&self, node: usize) -> &[PortState] {
        &self.states[self.base[node] as usize..self.base[node + 1] as usize]
    }
}

impl IndexMut<usize> for PortTable {
    #[inline]
    fn index_mut(&mut self, node: usize) -> &mut [PortState] {
        &mut self.states[self.base[node] as usize..self.base[node + 1] as usize]
    }
}
