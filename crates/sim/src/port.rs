//! Per-port simulator state: ingress accounting, egress queues, control
//! queue, and the transmission scheduler's bookkeeping, plus the
//! [`PacketStore`] that holds the packets those queues refer to.
//!
//! ## Layout
//!
//! A packet a network holds lives in that network's [`PacketStore`], one
//! slot per packet, from the hop that takes it in (a switch ingress, or a
//! host NIC packetizing a flow) until its transmission completes and it
//! moves into the next `Event::Arrive`. A slot is 56 B: the 48-B
//! [`Packet`], the ingress port charged for it, and a `next` link. The
//! queues between those two points hold slot numbers, not packets: an
//! ingress FIFO holds [`IngressPacket`]s (16 B: the slot plus the
//! forwarding decision and arrival number the pump reads at every head);
//! an egress queue is a [`SlotFifo`], a head/tail/length triple whose
//! list is threaded through the slots' `next` links, the way a
//! shared-buffer switch chains each output queue's cells through one
//! packet memory; and a port's frame in flight is its slot. The free
//! slots form one more list through the same links. A hop so writes the
//! full packet twice, into the store and out of it, however many queues
//! it crosses; and queue memory follows the live packets, not each
//! queue's deepest moment: the packets share one store sized to the
//! network's largest live population, and an egress queue costs 12 B at
//! any depth.
//!
//! Per-priority state is grouped in [`PrioState`] — one struct per
//! `(port, priority)` instead of five parallel `Vec`s — so the fields a
//! forwarding step touches together (ingress occupancy, FIFO, receiver,
//! egress, sender) sit in one cache region. Priority 0 is stored inline
//! in [`PortState`]: the headline configurations run a single priority,
//! and inlining it removes the last pointer chase from the per-packet
//! path. All ports of all nodes live in one contiguous [`PortTable`]; a
//! shard of a sharded run builds only its own domain's ports, and every
//! foreign node's slice is empty.
//!
//! ## Addressing
//!
//! A handler resolves each `(node, port)` it touches once, with
//! [`PortTable::ix`] (or [`PortSpan::ix`] after resolving the node with
//! [`PortTable::span`]), and carries the flat [`PortIx`] to every helper
//! it calls; `table[ix]` is then one slab load. Resolution keeps the
//! range check of a slice index: a port past the node's last one panics
//! instead of aliasing the next node's first port. `table[node]` still
//! yields a node's ports as a slice, for code that sweeps a whole node.

use crate::config::SimConfig;
use crate::fc::{CtrlPayload, FcSender, TxHead};
use crate::packet::Packet;
use gfc_core::{AnyRx, FcBackends, PortIdent};
use gfc_telemetry::CauseToken;
use gfc_topology::{LinkId, NodeId};
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

/// A free slot's, or a list's last slot's, `next`: no slot.
const NIL: u32 = u32::MAX;

/// One [`PacketStore`] slot: the packet, the link that chains the slot
/// into its egress queue or into the free list, and the ingress port
/// charged for the packet's buffer occupancy.
#[derive(Debug)]
struct Slot {
    /// `None` marks a free slot (`Option<Packet>` is no larger than
    /// `Packet`: its path pointer is never null).
    pkt: Option<Packet>,
    /// The next slot of the list this one is on ([`NIL`] at a list's
    /// end, and while the packet waits in an ingress FIFO or is on the
    /// wire).
    next: u32,
    /// The charged local ingress port, or [`PacketStore::SOURCED`].
    ingress_port: u32,
}

/// The packets one network holds, one slot each (see the module docs).
/// Freed slots go on a LIFO free list threaded through their `next`
/// links and are reused first, so the store grows only while the live
/// population reaches a new high, its slot count is that high-water
/// mark, and a steady-state run stops allocating.
#[derive(Debug)]
pub struct PacketStore {
    slots: Vec<Slot>,
    /// The most recently freed slot, heading the free list; [`NIL`] when
    /// no slot is free.
    free: u32,
}

impl Default for PacketStore {
    fn default() -> Self {
        PacketStore { slots: Vec::new(), free: NIL }
    }
}

impl PacketStore {
    /// The `ingress` of locally sourced traffic: no ingress is charged.
    pub const SOURCED: u32 = u32::MAX;

    /// Store `pkt`, charged to local ingress port `ingress`
    /// ([`Self::SOURCED`] for traffic a host NIC packetized itself),
    /// returning its slot.
    #[inline]
    pub fn insert(&mut self, pkt: Packet, ingress: u32) -> u32 {
        if self.free == NIL {
            let slot = u32::try_from(self.slots.len()).expect("packet slot fits u32");
            assert_ne!(slot, NIL, "packet store full");
            self.slots.push(Slot { pkt: Some(pkt), next: NIL, ingress_port: ingress });
            return slot;
        }
        let slot = self.free;
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.pkt.is_none(), "packet slot {slot} reused while occupied");
        self.free = s.next;
        *s = Slot { pkt: Some(pkt), next: NIL, ingress_port: ingress };
        slot
    }

    /// The packet in `slot`. Panics if the slot is free.
    #[inline]
    pub fn get(&self, slot: u32) -> &Packet {
        self.slots[slot as usize].pkt.as_ref().expect("read of a free packet slot")
    }

    /// Mutable access to the packet in `slot`. Panics if the slot is free.
    #[inline]
    pub fn get_mut(&mut self, slot: u32) -> &mut Packet {
        self.slots[slot as usize].pkt.as_mut().expect("write to a free packet slot")
    }

    /// The charged local ingress port of the packet in `slot`; `None` for
    /// locally sourced traffic.
    #[inline]
    pub fn ingress(&self, slot: u32) -> Option<usize> {
        let ing = self.slots[slot as usize].ingress_port;
        (ing != Self::SOURCED).then_some(ing as usize)
    }

    /// The transmit gate's view of the packet in `slot`.
    #[inline]
    pub fn tx_head(&self, slot: u32) -> TxHead {
        let pkt = self.get(slot);
        TxHead { bytes: pkt.bytes, flow: u64::from(pkt.flow) }
    }

    /// Move the packet out of `slot` and free the slot. Panics if the slot
    /// is already free (a double take), before the free list could hold
    /// it twice. The slot must not be on an egress list.
    #[inline]
    pub fn take(&mut self, slot: u32) -> Packet {
        let s = &mut self.slots[slot as usize];
        let pkt = s.pkt.take().expect("take from a free packet slot");
        s.next = self.free;
        self.free = slot;
        pkt
    }

    /// Slots ever used: the largest number of packets held at once.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Slots on the free list, walked.
    #[cfg(test)]
    pub(crate) fn free_len(&self) -> usize {
        let mut n = 0;
        let mut at = self.free;
        while at != NIL {
            assert!(self.slots[at as usize].pkt.is_none(), "live slot {at} on the free list");
            n += 1;
            assert!(n <= self.slots.len(), "the free list has a cycle");
            at = self.slots[at as usize].next;
        }
        n
    }

    /// Whether `slot` holds a packet.
    #[cfg(test)]
    pub(crate) fn is_live(&self, slot: u32) -> bool {
        self.slots.get(slot as usize).is_some_and(|s| s.pkt.is_some())
    }

    /// The `next` link of `slot`, or `None` at a list's end.
    #[cfg(test)]
    pub(crate) fn next_of(&self, slot: u32) -> Option<u32> {
        let next = self.slots[slot as usize].next;
        (next != NIL).then_some(next)
    }
}

/// A FIFO list of [`PacketStore`] slots, threaded through the slots'
/// `next` links: the queue itself is three words, whatever its depth, and
/// its memory is the live packets' own slots. A slot is on at most one
/// list at a time; every operation takes the store that holds the links.
#[derive(Debug, Clone, Copy)]
pub struct SlotFifo {
    head: u32,
    tail: u32,
    len: u32,
}

impl Default for SlotFifo {
    fn default() -> Self {
        SlotFifo { head: NIL, tail: NIL, len: 0 }
    }
}

impl SlotFifo {
    /// Number of slots on the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first slot, if any.
    #[inline]
    pub fn front(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    /// The last slot, if any.
    #[cfg(test)]
    pub(crate) fn back(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Append live `slot`, which must be on no list, at the back. A slot
    /// off the lists already links to nothing: [`PacketStore::insert`]
    /// and [`Self::pop_front`] leave its `next` at `NIL`.
    #[inline]
    pub fn push_back(&mut self, store: &mut PacketStore, slot: u32) {
        let s = &store.slots[slot as usize];
        debug_assert!(s.pkt.is_some() && s.next == NIL, "slot {slot} free or already linked");
        if self.tail == NIL {
            self.head = slot;
        } else {
            store.slots[self.tail as usize].next = slot;
        }
        self.tail = slot;
        self.len += 1;
    }

    /// Unlink and return the first slot, if any.
    #[inline]
    pub fn pop_front(&mut self, store: &mut PacketStore) -> Option<u32> {
        let slot = self.front()?;
        let s = &mut store.slots[slot as usize];
        self.head = std::mem::replace(&mut s.next, NIL);
        if self.head == NIL {
            self.tail = NIL;
        }
        self.len -= 1;
        Some(slot)
    }

    /// The slots on the list, front to back.
    pub fn iter<'a>(&self, store: &'a PacketStore) -> impl Iterator<Item = u32> + 'a {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let slot = (at != NIL).then_some(at)?;
            at = store.slots[slot as usize].next;
            Some(slot)
        })
    }
}

/// A packet waiting in an ingress FIFO with its forwarding decision: its
/// store slot plus the two fields the pump reads at every FIFO head, so
/// choosing a head never touches the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngressPacket {
    /// The packet's [`PacketStore`] slot.
    pub slot: u32,
    /// The egress port it will leave through.
    pub out_port: u32,
    /// Node-local arrival sequence number (for arrival-ordered pumping).
    pub arrival_seq: u64,
}

/// One egress priority queue. Under the input-buffered pump policies it
/// is a *small* staging area (per the paper's Fig. 2, packets wait in
/// ingress FIFOs and move to the egress only when a staging slot frees);
/// an output-queued switch enqueues every arrival here directly.
#[derive(Debug, Clone, Default)]
pub struct EgressQueue {
    /// FIFO of staged packets' slots, linked through the network's
    /// [`PacketStore`]: at most `SimConfig::stage_slots` under the
    /// input-buffered pump policies, unbounded under
    /// `PumpPolicy::OutputQueued`.
    pub q: SlotFifo,
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
    /// blocking exactly like the paper's switches) of packet handles, the
    /// packets themselves in the network's [`PacketStore`]. Always empty
    /// on an output-queued switch.
    pub ing_q: VecDeque<IngressPacket>,
    /// Ingress flow-control receiver.
    pub ing_rx: AnyRx,
    /// Egress queue.
    pub eg: EgressQueue,
    /// Egress flow-control sender (+ rate limiter).
    pub tx_fc: FcSender,
}

impl PrioState {
    fn new(cfg: &SimConfig, fc: &FcBackends, ident: PortIdent) -> Self {
        PrioState {
            ing_bytes: 0,
            ing_q: VecDeque::new(),
            ing_rx: fc.rx(cfg.mtu, ident),
            eg: EgressQueue::default(),
            tx_fc: FcSender::new(cfg, fc.tx(ident)),
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
    /// The data frame in flight (its store slot, with its priority), if
    /// any; the packet stays in the store until the transmission
    /// completes.
    pub current_data: Option<(u32, u8)>,
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
    /// Bitmask of this node's ingress ports whose blocked FIFO head
    /// targets this egress (round-robin pump, nodes of at most 64 ports).
    /// Cleared wholesale when the egress frees a staging slot — the woken
    /// ingresses are re-checked and re-marked if still blocked — so a bit
    /// may linger after a head unblocks by other means; a spurious wake
    /// is a harmless re-check.
    pub head_waiters: u64,
}

impl PortState {
    /// Fresh port state wired to `(link, peer, peer_port)`, its backends
    /// built by the network's `fc`. `ident` names this port itself — the
    /// identity DCFIT backends stamp into the deadlock-detection tags they
    /// mint.
    pub fn new(
        cfg: &SimConfig,
        fc: &FcBackends,
        ident: PortIdent,
        link: LinkId,
        peer: NodeId,
        peer_port: usize,
    ) -> Self {
        PortState {
            link,
            peer,
            peer_port,
            pq0: PrioState::new(cfg, fc, ident),
            pq_rest: (1..cfg.num_priorities).map(|_| PrioState::new(cfg, fc, ident)).collect(),
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
            head_waiters: 0,
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

/// A flat index into a [`PortTable`]: one port of one node, resolved
/// once by [`PortTable::ix`] or [`PortSpan::ix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortIx(u32);

/// One node's range of a [`PortTable`]: its first flat index and its
/// port count.
#[derive(Debug, Clone, Copy)]
pub struct PortSpan {
    base: u32,
    len: u32,
}

impl PortSpan {
    /// Number of ports on the node.
    #[inline]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the node has no ports (a foreign node in a shard's table).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The flat index of `port`. Panics if the node has no such port.
    #[inline]
    pub fn ix(self, port: usize) -> PortIx {
        assert!(port < self.len as usize, "port {port} out of range ({} ports)", self.len);
        PortIx(self.base + port as u32)
    }
}

/// All ports of all nodes in one contiguous slab, one allocation instead
/// of one per node, so sweeping the fabric (pump scans, timeline samples,
/// backlog sums) walks memory linearly. `table[ix]` addresses one port by
/// its [`PortIx`]; `table[node]` yields a node's ports as a slice. A node
/// may have an empty slice (a foreign node in a shard's table).
#[derive(Debug)]
pub struct PortTable {
    states: Vec<PortState>,
    /// `base[n]..base[n + 1]` is node `n`'s slice of `states`.
    base: Vec<u32>,
}

impl PortTable {
    /// Build the table in one pass from each node's ports, in node order;
    /// `num_ports` is their total, so the slab is allocated once and no
    /// port state is copied after it is built.
    pub fn new<P>(nodes: impl ExactSizeIterator<Item = P>, num_ports: usize) -> Self
    where
        P: IntoIterator<Item = PortState>,
    {
        let mut base = Vec::with_capacity(nodes.len() + 1);
        let mut states = Vec::with_capacity(num_ports);
        base.push(0);
        for node_ports in nodes {
            states.extend(node_ports);
            base.push(u32::try_from(states.len()).expect("port count fits u32"));
        }
        debug_assert_eq!(states.len(), num_ports, "port count hint");
        PortTable { states, base }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.base.len() - 1
    }

    /// Node `node`'s range of the table.
    #[inline]
    pub fn span(&self, node: usize) -> PortSpan {
        let base = self.base[node];
        PortSpan { base, len: self.base[node + 1] - base }
    }

    /// The flat index of `(node, port)`. Panics if `node` has no such
    /// port, exactly as `table[node][port]` would.
    #[inline]
    pub fn ix(&self, node: usize, port: usize) -> PortIx {
        self.span(node).ix(port)
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

impl Index<PortIx> for PortTable {
    type Output = PortState;

    #[inline]
    fn index(&self, ix: PortIx) -> &PortState {
        &self.states[ix.0 as usize]
    }
}

impl IndexMut<PortIx> for PortTable {
    #[inline]
    fn index_mut(&mut self, ix: PortIx) -> &mut PortState {
        &mut self.states[ix.0 as usize]
    }
}

impl Index<usize> for PortTable {
    type Output = [PortState];

    #[inline]
    fn index(&self, node: usize) -> &[PortState] {
        &self.states[self.base[node] as usize..self.base[node + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node 0 has 2 ports, node 1 none (a shard's foreign node), node 2
    /// has 3. Each port's `peer_port` is its flat position, so a lookup
    /// shows where it landed.
    fn table() -> PortTable {
        let cfg = SimConfig::default_10g();
        let fc = FcBackends::new(cfg.fc, cfg.capacity, cfg.buffer_bytes);
        let mut flat = 0;
        let mut node = |n: u32, ports: usize| -> Vec<PortState> {
            (0..ports)
                .map(|p| {
                    let ident = PortIdent { node: n, port: p as u16 };
                    flat += 1;
                    PortState::new(&cfg, &fc, ident, LinkId(0), NodeId(0), flat - 1)
                })
                .collect()
        };
        let nodes = vec![node(0, 2), node(1, 0), node(2, 3)];
        PortTable::new(nodes.into_iter(), 5)
    }

    #[test]
    fn ix_addresses_the_same_port_as_the_node_slice() {
        let t = table();
        for n in 0..t.num_nodes() {
            assert_eq!(t.span(n).len(), t[n].len());
            for p in 0..t[n].len() {
                assert_eq!(t[t.ix(n, p)].peer_port, t[n][p].peer_port, "node {n} port {p}");
            }
        }
        assert!(t.span(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ix_rejects_the_port_one_past_the_last() {
        let t = table();
        t.ix(2, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ix_rejects_a_port_in_the_next_nodes_range() {
        // Flat 3 is node 2's port 1: an unchecked `base + port` would
        // alias it.
        let t = table();
        t.ix(0, 3);
    }

    #[test]
    fn queue_handles_stay_small() {
        use std::mem::size_of;
        assert!(size_of::<IngressPacket>() <= 16);
        assert!(size_of::<SlotFifo>() <= 12);
        assert_eq!(size_of::<Packet>(), 48);
        assert!(size_of::<crate::event::Event>() <= 64);
        assert!(size_of::<Slot>() <= 56);
        // A free store slot costs no more than a packet.
        assert_eq!(size_of::<Option<Packet>>(), size_of::<Packet>());
    }

    fn packet(id: u64) -> Packet {
        Packet {
            id,
            flow: 0,
            src: NodeId(0),
            dst: NodeId(1),
            bytes: 1500,
            prio: 0,
            path: std::sync::Arc::from(vec![LinkId(0)].into_boxed_slice()),
            hop: 0,
            ecn_marked: false,
        }
    }

    /// Several lists share one store, under interleaved inserts, pushes,
    /// pops, takes and walks; a `VecDeque` per list is the model. Each
    /// packet's id names it, so a walk shows which packets a list holds.
    #[test]
    fn slot_fifos_sharing_a_store_match_a_deque_model() {
        const LISTS: usize = 4;
        let mut store = PacketStore::default();
        let mut fifos = [SlotFifo::default(); LISTS];
        let mut model: [VecDeque<(u32, u64)>; LISTS] = Default::default();
        let mut most_live = 0;
        let mut next_id = 0u64;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let list = (x % LISTS as u64) as usize;
            // Pushes outnumber pops while the lists are short, then
            // pops catch up, so the lists grow, drain and regrow.
            let grow = (x >> 8) % 100 < if step % 5000 < 3000 { 60 } else { 40 };
            if grow {
                let slot = store.insert(packet(next_id), list as u32);
                fifos[list].push_back(&mut store, slot);
                model[list].push_back((slot, next_id));
                next_id += 1;
            } else {
                let got = fifos[list].pop_front(&mut store);
                let want = model[list].pop_front();
                assert_eq!(got, want.map(|(slot, _)| slot), "step {step} list {list}");
                if let Some((slot, id)) = want {
                    assert_eq!(store.ingress(slot), Some(list));
                    assert_eq!(store.take(slot).id, id, "step {step}: wrong packet");
                }
            }
            let live: usize = model.iter().map(VecDeque::len).sum();
            most_live = most_live.max(live);
            if step % 97 == 0 || live == 0 {
                for (f, m) in fifos.iter().zip(&model) {
                    assert_eq!(f.len(), m.len());
                    assert_eq!(f.is_empty(), m.is_empty());
                    assert_eq!(f.front(), m.front().map(|&(slot, _)| slot));
                    assert_eq!(f.back(), m.back().map(|&(slot, _)| slot));
                    let walked: Vec<u64> = f.iter(&store).map(|slot| store.get(slot).id).collect();
                    let want: Vec<u64> = m.iter().map(|&(_, id)| id).collect();
                    assert_eq!(walked, want, "step {step}");
                }
                assert_eq!(live + store.free_len(), store.len());
            }
        }
        assert!(most_live > 100, "the lists never grew: {most_live}");
        // Freed slots are reused first: the store never outgrows the most
        // packets live at once.
        assert_eq!(store.len(), most_live);
    }

    #[test]
    #[should_panic(expected = "free packet slot")]
    fn a_slot_cannot_be_taken_twice() {
        let mut store = PacketStore::default();
        let slot = store.insert(packet(0), PacketStore::SOURCED);
        assert_eq!(store.ingress(slot), None);
        store.take(slot);
        store.take(slot);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ix_rejects_every_port_of_a_foreign_node() {
        let t = table();
        t.ix(1, 0);
    }
}
