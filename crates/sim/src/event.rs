//! The discrete-event queue.
//!
//! `pop` returns events in *canonical dispatch order*, the total order
//! `(time, generation, rank, seq)`:
//!
//! * `rank` is [`Event::order_major`], so same-instant events pop by
//!   `(class, node, port/flow)` — a pure function of the events, which is
//!   what lets the sharded engine reproduce the sequential schedule;
//! * `generation` separates zero-delay cascades: an event pushed *for* the
//!   instant being dispatched pops after every event already due then,
//!   whatever its rank (generation `g + 1` while dispatching generation
//!   `g`; every push into the future is generation 0);
//! * `seq` is assigned at insertion and breaks the remaining ties (same
//!   coordinate, same instant), so every run with the same seed replays
//!   bit-identically.
//!
//! This is exactly the order of collecting each instant's pending events
//! into a batch and stable-sorting it by rank, without the batch.
//!
//! ## Layout
//!
//! The heap itself holds only compact 32-byte keys, so sift-up/sift-down
//! never moves an [`Event`] payload (64 B: `Arrive` inlines a full 48-B
//! [`Packet`]). Heap payloads live in a slab indexed by `EventId`; slots
//! freed by `pop` are recycled by the next `push`, so a steady-state run
//! reaches a fixed pool size and stops allocating entirely. Payloads of
//! FIFO-lane events (below) stay in their lane instead, and an event its
//! key encodes whole has none.
//!
//! A packet travels by value only between two packet stores: an
//! [`Event::Arrive`] carries it from one shard of a sharded run to
//! another, and the receiving shard stores it as it injects the arrival
//! (a network never dispatches a by-value arrival). Within one network the
//! packet is written into the store once, by the host that packetizes
//! it, and read in place at every hop: a completed transmission pushes an
//! [`Event::ArriveSlot`], whose key carries the packet's store slot in
//! what would be padding; the receiving switch re-charges that slot to
//! its ingress, every queue inside the node carries the slot or links it
//! into an egress list through the store (see `port.rs`), and the
//! destination host takes the packet out.
//!
//! ## FIFO lanes
//!
//! Event classes scheduled at a *constant* delay from a monotone clock
//! are pushed with non-decreasing due times. [`EventQueue::push_fifo`]
//! appends them to a per-class `VecDeque` lane instead of the heap, and
//! `pop` takes the minimum of the heap root and the lane fronts. A lane
//! stays in canonical order by construction: a key that would sort
//! before the lane's tail — one dispatch instant fans out to arbitrary
//! receivers, so ranks within an instant arrive in any order, and a
//! shorter frame completes before a longer one started earlier — goes to
//! the heap instead ([`QueueStats::lane_diverted`] counts these). The
//! heap is left with timers, kicks, CNPs, flow-completion notices, the
//! diverted lane pushes, and the non-arrival events injected by the
//! sharded coordinator. A lane keeps the payloads of its keys that need
//! one in a second deque in the same order, so a `CtrlApply` that stays
//! in its lane never touches the pool; only the diverted ones take a pool
//! slot. The two arrival lanes hold keys only: the engine pushes slot
//! arrivals there, which have no payload, diverted or not.
//!
//! | lane | event class | due at | diverted to the heap (ring / enterprise / perm) |
//! |---|---|---|---|
//! | [`EventQueue::LANE_ARRIVE`] | `ArriveSlot`, keys only | `now + prop_delay` | 0.03% / 2.6% / 23% |
//! | [`EventQueue::LANE_CTRL`] | `CtrlApply` | `now + prop_delay + t_r`, or `now + τ` out of band | 0 / 0.04% / 0 |
//! | [`EventQueue::LANE_TX`] | `TxComplete` | `now + tx_time(frame)` | 0.01% / 3.9% / 0.15% |
//! | [`EventQueue::LANE_INBOUND`] | injected arrivals (`ArriveSlot`), keys only | window batch, sorted | idle / idle / 0 |
//!
//! (Diverted shares of each lane's own pushes over the three perfbench
//! workloads, `ring3_gfc`, `ft8_enterprise_pfc`, `ft8_perm_w1`, seed
//! variant 1; `ft8_perm_w1` runs sharded, where 0.82M of its 2.78M
//! arrivals cross a domain and ride the inbound lane.)
//! A transmission completion is due one serialization delay after the
//! frame starts, which is constant for the full-size data frames that
//! make up almost all of them; control frames and short last packets of
//! a flow are the diverted share. Same-instant arrivals fan in from many
//! senders in arbitrary rank order, which is the arrival lane's diverted
//! share — most of it on the synchronized permutation.
//!
//! The inbound lane takes the data arrivals a sharded run hands from one
//! domain to another. The coordinator injects them once per window,
//! stable-sorted by `(time, rank)`, each packet entering the receiving
//! shard's store as it is injected; every one is due at or after the
//! window edge, later than anything the shard has popped, so its key is
//! the one a heap push would give it. A window's arrivals leave strictly
//! after the previous window's, and each is due one propagation delay
//! later, so a batch never starts behind the lane's tail and nothing
//! diverts; the heap fallback stays as on every lane.
//!
//! ## The pop path
//!
//! [`EventQueue::pop_at_or_before`] — the scan over the heap root and
//! the lane fronts, the removal, and the payload take — is always
//! inlined into the event loop, so the chosen source, its key and the
//! popped event stay in registers instead of being returned through the
//! stack. A sampling profile of the ring workload with the pop out of
//! line put about a quarter of its time there, most of it in the reloads
//! after the calls returned.

use crate::fc::CtrlPayload;
use crate::packet::Packet;
use gfc_core::units::Time;
use gfc_telemetry::CauseToken;
use gfc_topology::NodeId;
use std::collections::VecDeque;

/// A scheduled occurrence.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A data packet finished arriving at `(node, port)`, carried by
    /// value: a packet changing stores, from one shard's outbox to the
    /// shard that injects it as an [`Event::ArriveSlot`].
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// Receiving port index.
        port: usize,
        /// The packet.
        pkt: Packet,
    },
    /// A data packet finished arriving at `(node, port)` and stays where
    /// it was: in slot `slot` of the receiving network's packet store.
    /// Every hop within one network arrives this way. Same class and
    /// dispatch rank as [`Event::Arrive`], and its key carries the slot,
    /// so it takes no payload storage.
    ArriveSlot {
        /// Receiving node.
        node: NodeId,
        /// Receiving port index.
        port: usize,
        /// The packet's store slot.
        slot: u32,
    },
    /// A flow-control message takes effect at `(node, port)` (arrival plus
    /// the receiver's processing delay `t_r`).
    CtrlApply {
        /// Node whose egress the message controls.
        node: NodeId,
        /// Port index the message arrived on.
        port: usize,
        /// Priority / virtual lane the message addresses.
        prio: u8,
        /// Decoded payload.
        payload: CtrlPayload,
        /// Causal lineage tag (always [`CauseToken::NONE`] when the
        /// causal layer is off); observation-only.
        cause: CauseToken,
    },
    /// Try to start a transmission on `(node, port)`.
    TxKick {
        /// Transmitting node.
        node: NodeId,
        /// Port index.
        port: usize,
    },
    /// The in-flight transmission on `(node, port)` completes.
    TxComplete {
        /// Transmitting node.
        node: NodeId,
        /// Port index.
        port: usize,
    },
    /// Periodic feedback generation on ingress `(node, port)` (CBFC /
    /// time-based GFC).
    PeriodicFeedback {
        /// Node generating feedback.
        node: NodeId,
        /// Ingress port index.
        port: usize,
    },
    /// Re-evaluate a host's flow packetization.
    HostTick {
        /// The host.
        host: NodeId,
    },
    /// Per-flow DCQCN α/increase timer at the source host.
    DcqcnTimer {
        /// The source host.
        host: NodeId,
        /// The flow id.
        flow: u64,
    },
    /// A CNP reaches the source host.
    Cnp {
        /// The source host.
        host: NodeId,
        /// The flow id.
        flow: u64,
    },
    /// Progress / deadlock monitor sample.
    MonitorTick,
    /// Periodic timeline sampler tick (reschedules itself at the
    /// sampler's current — possibly decimation-doubled — cadence).
    TimelineSample,
    /// A finished flow's completion notice reaches the *source* host
    /// (one source→destination propagation delay after the last byte
    /// delivered, like a CNP): the source retires the flow and asks the
    /// workload for a successor. Keeping retirement an event — instead of
    /// mutating the source host inline at the destination — makes flow
    /// completion shardable: the source may live in another domain.
    SourceDone {
        /// The source host.
        host: NodeId,
        /// The flow id.
        flow: u64,
    },
}

impl Event {
    /// Labels for [`Event::class`], indexed by the returned class — the
    /// single source of truth the engine probe's dispatch profile keys
    /// on.
    pub const CLASS_LABELS: [&'static str; 11] = [
        "arrive",
        "ctrl_apply",
        "tx_kick",
        "tx_complete",
        "periodic_feedback",
        "host_tick",
        "dcqcn_timer",
        "cnp",
        "monitor_tick",
        "timeline_sample",
        "source_done",
    ];

    /// Dense per-variant class index (see [`Event::CLASS_LABELS`]).
    pub fn class(&self) -> usize {
        match self {
            Event::Arrive { .. } | Event::ArriveSlot { .. } => 0,
            Event::CtrlApply { .. } => 1,
            Event::TxKick { .. } => 2,
            Event::TxComplete { .. } => 3,
            Event::PeriodicFeedback { .. } => 4,
            Event::HostTick { .. } => 5,
            Event::DcqcnTimer { .. } => 6,
            Event::Cnp { .. } => 7,
            Event::MonitorTick => 8,
            Event::TimelineSample => 9,
            Event::SourceDone { .. } => 10,
        }
    }

    /// Canonical same-instant dispatch rank (see the sharded-engine docs
    /// in `shard.rs`): when several events share a due time, *both*
    /// engines' queues pop them in this key's order (see
    /// [`EventQueue`]), so the dispatch order is a pure function of the
    /// events themselves — not of which queue (or domain) each one waited
    /// in. The key packs `[class | node | port/prio/flow]`; events that
    /// tie on it are dispatched in insertion order, which the
    /// single-causal-source argument (one upstream peer per
    /// `(node, port)`, one destination per flow) makes engine-independent.
    /// The monitor ranks first so a deadlock verdict halts before any
    /// same-instant work, exactly like the coordinator's barrier.
    pub fn order_major(&self) -> u64 {
        rank_of(self).0
    }
}

/// [`Event::order_major`], whether the rank and the key's argument word
/// encode the event (see [`event_of_rank`]), and that argument: an
/// [`Event::ArriveSlot`]'s packet slot, 0 for every other variant. The
/// encoded variants — the payload-free ones and the slot arrivals —
/// skip the payload pool and the lanes' payload deques. The rank's
/// 20-bit node field holds every node id: `Network::new` rejects
/// topologies of 2^20 nodes or more.
#[inline(always)]
fn rank_of(ev: &Event) -> (u64, bool, u32) {
    #[inline]
    fn key(class: u64, node: NodeId, sub: u64) -> u64 {
        debug_assert!(node.0 < (1 << 20), "node id exceeds the dispatch-rank field");
        debug_assert!(sub < (1 << 40), "sub-key exceeds the dispatch-rank field");
        (class << 60) | (u64::from(node.0) << 40) | sub
    }
    const FLOW_MASK: u64 = (1 << 40) - 1;
    match *ev {
        Event::MonitorTick => (0, true, 0),
        Event::TimelineSample => (1, true, 0),
        Event::Arrive { node, port, .. } => (key(2, node, port as u64), false, 0),
        Event::ArriveSlot { node, port, slot } => (key(2, node, port as u64), true, slot),
        Event::CtrlApply { node, port, prio, .. } => {
            (key(3, node, ((port as u64) << 8) | u64::from(prio)), false, 0)
        }
        Event::TxKick { node, port } => (key(4, node, port as u64), true, 0),
        Event::TxComplete { node, port } => (key(5, node, port as u64), true, 0),
        Event::PeriodicFeedback { node, port } => (key(6, node, port as u64), true, 0),
        Event::HostTick { host } => (key(7, host, 0), true, 0),
        Event::DcqcnTimer { host, flow } => (key(8, host, flow & FLOW_MASK), false, 0),
        Event::Cnp { host, flow } => (key(9, host, flow & FLOW_MASK), false, 0),
        Event::SourceDone { host, flow } => (key(10, host, flow & FLOW_MASK), false, 0),
    }
}

/// Invert [`rank_of`] for an event it reported as rank-encoded, from
/// its rank and argument word.
fn event_of_rank(rank: u64, arg: u32) -> Event {
    let node = NodeId(((rank >> 40) & 0xF_FFFF) as u32);
    let port = (rank & ((1 << 40) - 1)) as usize;
    match rank >> 60 {
        0 if rank == 0 => Event::MonitorTick,
        0 => Event::TimelineSample,
        2 => Event::ArriveSlot { node, port, slot: arg },
        4 => Event::TxKick { node, port },
        5 => Event::TxComplete { node, port },
        6 => Event::PeriodicFeedback { node, port },
        7 => Event::HostTick { host: node },
        class => unreachable!("class {class} carries a payload"),
    }
}

/// Always-on scheduler counters: how pushes split between events their
/// rank encodes and events with a stored payload, how often the pool
/// had to grow instead of recycling a freed slot, and how many lane
/// pushes went to the heap. Cheap enough to never gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Pushes whose rank encodes the whole event (no stored payload).
    pub pushes_inline: u64,
    /// Pushes that stored a payload: in their FIFO lane, or in a pool
    /// slot (recycled or fresh) for heap keys. With `pushes_inline`, this
    /// counts every push.
    pub pushes_pooled: u64,
    /// Pool slots allocated because the free list was empty. The pool
    /// holds heap payloads only.
    pub pool_grown: u64,
    /// Per lane, `push_fifo` calls whose key sorted before the lane's
    /// tail and so went to the heap.
    pub lane_diverted: [u64; EventQueue::NUM_LANES],
}

/// Index of a pooled event payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventId(u32);

/// A queue key in canonical dispatch order `(t, gen, rank, seq)` (see the
/// module docs), the last three packed into the 128-bit word
/// [`Key::order`], stored as two 8-byte halves so the key stays 32 bytes
/// (a `u128` field aligns it to 48, and made the ring and enterprise
/// perfbench workloads 15–20% slower in paired runs). The slot and
/// argument words never decide a comparison (seqs are unique). The slot
/// word locates the payload: [`INLINE`] when the rank and the argument
/// are the whole event, [`LANE`] when the payload waits in the key's FIFO
/// lane, otherwise an [`EventId`] into the pool. The argument word fills
/// what would be padding: an [`Event::ArriveSlot`]'s packet slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    t: Time,
    /// `gen << 48 | rank >> 16`.
    hi: u64,
    /// `rank << 48 | seq`.
    lo: u64,
    slot: u32,
    arg: u32,
}

/// Bits of [`Key::order`] holding the insertion sequence number.
const SEQ_BITS: u32 = 48;
/// Bits of [`Key::order`] holding the generation.
const GEN_BITS: u32 = 128 - 64 - SEQ_BITS;

impl Key {
    /// `gen << 112 | rank << 48 | seq`.
    #[inline]
    fn order(&self) -> u128 {
        u128::from(self.hi) << 64 | u128::from(self.lo)
    }

    fn gen(&self) -> u32 {
        (self.order() >> (64 + SEQ_BITS)) as u32
    }

    fn rank(&self) -> u64 {
        (self.order() >> SEQ_BITS) as u64
    }
}

impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.order()).cmp(&(other.t, other.order()))
    }
}

impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }

    /// The queue's only comparison, without branches: a share of the pops
    /// that share an instant with the previous one (measured 37% on the
    /// ring, 29% on the k=8 enterprise fat-tree, 90% on the synchronized
    /// k=8 permutation) makes a branch on the time unpredictable. The
    /// derived lexicographic compare made those fat-tree workloads 11%
    /// and 31% slower in paired perfbench runs.
    #[inline]
    fn lt(&self, other: &Self) -> bool {
        (self.t < other.t) | ((self.t == other.t) & (self.order() < other.order()))
    }
}

/// Slot word of a key whose rank encodes the whole event (see
/// [`rank_of`]): no pooled payload, and no pool round-trip — the pop-side
/// read of a random pool slot is a near-guaranteed cache miss.
const INLINE: u32 = u32::MAX;

/// Slot word of a FIFO-lane key whose payload waits at the same position
/// of its lane's payload deque ([`EventQueue::push_fifo`]): lane storage
/// is sequential, so the push and the pop hit memory the prefetcher has
/// already brought in, where a recycled pool slot is a random one.
const LANE: u32 = u32::MAX - 1;

/// Min-heap of canonically ordered keys (see the module docs) over a slab
/// of event payloads, merged with FIFO lanes that hold their own.
///
/// The heap is 4-ary: half the depth of a binary heap, and the four
/// children of a node sit in two cache lines, so the pop-side sift
/// touches roughly half the memory of `std::collections::BinaryHeap` —
/// measurably faster at the queue depths the fat-tree sweeps reach.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: Vec<Key>,
    /// Constant-delay FIFO lanes (see the module docs), merged with the
    /// heap at pop time; each holds its keys in canonical order.
    lanes: [VecDeque<Key>; Self::NUM_LANES],
    /// Per lane, the payloads of its [`LANE`] keys, in the same order.
    lane_events: [VecDeque<Event>; Self::NUM_LANES],
    /// Payloads of the heap keys that carry one.
    pool: Vec<Option<Event>>,
    free: Vec<EventId>,
    seq: u64,
    /// Time and generation of the last popped key: the instant being
    /// dispatched, which zero-delay pushes join one generation later.
    cur: (Time, u32),
    stats: QueueStats,
}

impl EventQueue {
    /// Lane for data-packet arrivals (`now + prop_delay`), slot arrivals
    /// in the engine.
    pub const LANE_ARRIVE: usize = 0;
    /// Lane for control applications: over the wire
    /// (`now + prop_delay + t_r`), or conceptual GFC's out-of-band
    /// channel (`now + τ`). A run uses one of the two delays, never both:
    /// the scheme is network-wide, and only conceptual GFC's samples
    /// travel out of band.
    pub const LANE_CTRL: usize = 1;
    /// Lane for transmission completions (`now + tx_time`).
    pub const LANE_TX: usize = 2;
    /// Lane for data arrivals injected by the sharded coordinator, each
    /// window's batch pushed in canonical order (see `shard.rs`).
    pub const LANE_INBOUND: usize = 3;
    /// Number of FIFO lanes.
    pub const NUM_LANES: usize = 4;

    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot word of a heap key for `ev`: [`INLINE`] when its rank
    /// encodes it, otherwise a pool slot holding its payload (a freed
    /// slot recycled if any).
    #[inline(always)]
    fn heap_slot(&mut self, ev: Event, inline: bool) -> u32 {
        if inline {
            self.stats.pushes_inline += 1;
            return INLINE;
        }
        self.stats.pushes_pooled += 1;
        match self.free.pop() {
            Some(id) => {
                debug_assert!(self.pool[id.0 as usize].is_none(), "free slot still occupied");
                self.pool[id.0 as usize] = Some(ev);
                id.0
            }
            None => {
                let id = u32::try_from(self.pool.len()).expect("event pool overflow");
                assert!(id < LANE, "event pool overflow");
                self.stats.pool_grown += 1;
                self.pool.push(Some(ev));
                id
            }
        }
    }

    /// Key an event of dispatch rank `rank` and argument word `arg` due
    /// at `t` into canonical order. The slot word is left [`INLINE`]: the
    /// caller sets it once it knows where the payload goes.
    #[inline(always)]
    fn key(&mut self, t: Time, rank: u64, arg: u32) -> Key {
        debug_assert!(t >= self.cur.0, "event scheduled in the past");
        self.seq += 1;
        let gen = if t == self.cur.0 { self.cur.1 + 1 } else { 0 };
        // Both fields are checked in debug builds only, off the per-push
        // path: 2^48 pushes is months of host time, and 2^16 zero-delay
        // generations at one instant is a livelock.
        debug_assert!(self.seq < 1 << SEQ_BITS, "event sequence overflow");
        debug_assert!(gen < 1 << GEN_BITS, "zero-delay cascade too deep");
        let order = u128::from(gen) << (64 + SEQ_BITS)
            | u128::from(rank) << SEQ_BITS
            | u128::from(self.seq);
        Key { t, hi: (order >> 64) as u64, lo: order as u64, slot: INLINE, arg }
    }

    /// Insert `key` into the heap.
    #[inline(always)]
    fn heap_push(&mut self, key: Key) {
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1);
    }

    /// Schedule `ev` at time `t`. Node ids must be below 2^20, the
    /// width of the rank's node field (checked in debug builds).
    // Always inlined, like `push_fifo`: each call site knows its event's
    // variant, so the rank folds to a constant instead of a jump table.
    #[inline(always)]
    pub fn push(&mut self, t: Time, ev: Event) {
        let (rank, inline, arg) = rank_of(&ev);
        let mut key = self.key(t, rank, arg);
        key.slot = self.heap_slot(ev, inline);
        self.heap_push(key);
    }

    /// Schedule `ev` at time `t` on FIFO `lane`, a hint that `lane`'s
    /// due times never decrease (a constant delay from the monotone
    /// simulation clock). The order of every pop is identical to
    /// [`EventQueue::push`]: a key that would sort before the lane's tail
    /// goes to the heap instead. A payload that stays in the lane is kept
    /// in the lane too, never in the pool.
    #[inline(always)]
    pub fn push_fifo(&mut self, lane: usize, t: Time, ev: Event) {
        let (rank, inline, arg) = rank_of(&ev);
        let mut key = self.key(t, rank, arg);
        if self.lanes[lane].back().is_some_and(|b| key < *b) {
            self.stats.lane_diverted[lane] += 1;
            key.slot = self.heap_slot(ev, inline);
            self.heap_push(key);
        } else if inline {
            self.stats.pushes_inline += 1;
            self.lanes[lane].push_back(key);
        } else {
            self.stats.pushes_pooled += 1;
            key.slot = LANE;
            self.lanes[lane].push_back(key);
            self.lane_events[lane].push_back(ev);
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        self.pop_at_or_before(Time(u64::MAX))
    }

    /// Remove and return the earliest event if it is due at or before
    /// `horizon` — the event loop's single call per dispatch. Always
    /// inlined (see the module docs), so the scan's source and key and
    /// the popped event are not handed back through the stack.
    #[inline(always)]
    pub fn pop_at_or_before(&mut self, horizon: Time) -> Option<(Time, Event)> {
        let mut src = Self::NUM_LANES;
        let mut best = self.heap.first().copied();
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(&k) = lane.front() {
                if best.is_none_or(|b| k < b) {
                    best = Some(k);
                    src = i;
                }
            }
        }
        let key = best.filter(|k| k.t <= horizon)?;
        if src < Self::NUM_LANES {
            self.lanes[src].pop_front();
        } else {
            let last = self.heap.pop().expect("nonempty");
            if !self.heap.is_empty() {
                self.heap[0] = last;
                self.sift_down(0);
            }
        }
        self.cur = (key.t, key.gen());
        let ev = match key.slot {
            INLINE => event_of_rank(key.rank(), key.arg),
            LANE => self.lane_events[src].pop_front().expect("lane key without payload"),
            slot => {
                let ev = self.pool[slot as usize].take().expect("key without pooled payload");
                self.free.push(EventId(slot));
                ev
            }
        };
        Some((key.t, ev))
    }

    /// Restore the heap property upward from `i` (new last element).
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.heap[i] < self.heap[parent] {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Restore the heap property downward from `i` (replaced root).
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first_child = 4 * i + 1;
            if first_child >= len {
                return;
            }
            let mut min = first_child;
            for c in (first_child + 1)..(first_child + 4).min(len) {
                if self.heap[c] < self.heap[min] {
                    min = c;
                }
            }
            if self.heap[min] < self.heap[i] {
                self.heap.swap(i, min);
                i = min;
            } else {
                return;
            }
        }
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        let lanes = self.lanes.iter().filter_map(|lane| lane.front());
        self.heap.first().into_iter().chain(lanes).map(|k| k.t).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(VecDeque::is_empty)
    }

    /// Total payload slots ever allocated (occupied + recycled). Only
    /// heap keys take a slot; lane payloads stay in their lane. A
    /// steady-state run converges to its high-water pending count and
    /// stops growing — observable in tests and capacity planning.
    pub fn pool_slots(&self) -> usize {
        self.pool.len()
    }

    /// Payload slots currently free (on the recycle list).
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Keys currently in the heap (excludes the FIFO lanes).
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Pending keys per FIFO lane, in lane order.
    pub fn lane_lens(&self) -> [usize; Self::NUM_LANES] {
        self.lanes.each_ref().map(VecDeque::len)
    }

    /// The always-on push counters (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// The packet slots of the pending [`Event::ArriveSlot`]s, in the
    /// heap and on the lanes: the store checks' view of packets on the
    /// wire.
    #[cfg(test)]
    pub(crate) fn arrival_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.heap
            .iter()
            .chain(self.lanes.iter().flatten())
            .filter(|k| k.slot == INLINE && k.rank() >> 60 == 2)
            .map(|k| k.arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfc_core::units::Dur;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time(30), Event::MonitorTick);
        q.push(Time(10), Event::MonitorTick);
        q.push(Time(20), Event::MonitorTick);
        assert_eq!(q.pop().unwrap().0, Time(10));
        assert_eq!(q.pop().unwrap().0, Time(20));
        assert_eq!(q.pop().unwrap().0, Time(30));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_instant_pops_in_rank_order() {
        let mut q = EventQueue::new();
        q.push(Time(5), Event::TxComplete { node: NodeId(1), port: 0 });
        q.push(Time(5), Event::TxKick { node: NodeId(2), port: 0 });
        q.push(Time(5), Event::TxKick { node: NodeId(1), port: 3 });
        q.push(Time(5), Event::MonitorTick);
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|(_, ev)| ev)).collect();
        assert_eq!(
            order,
            vec![
                Event::MonitorTick,
                Event::TxKick { node: NodeId(1), port: 3 },
                Event::TxKick { node: NodeId(2), port: 0 },
                Event::TxComplete { node: NodeId(1), port: 0 },
            ]
        );
    }

    #[test]
    fn rank_ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for stage in [3, 1, 2] {
            q.push(Time(5), ctrl(7, stage));
        }
        let stages: Vec<u16> = std::iter::from_fn(|| q.pop())
            .map(|(_, ev)| match ev {
                Event::CtrlApply { payload: CtrlPayload::GfcStage(s), .. } => s,
                other => unreachable!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(stages, vec![3, 1, 2]);
    }

    #[test]
    fn zero_delay_pushes_pop_after_the_current_instant() {
        // Pushes *for* the instant being dispatched form the next
        // generation: they pop after every event already due then, even
        // the ones they outrank.
        let mut q = EventQueue::new();
        q.push(Time(5), Event::TxKick { node: NodeId(4), port: 0 });
        q.push(Time(5), Event::TxKick { node: NodeId(6), port: 0 });
        assert_eq!(q.pop().unwrap().1, Event::TxKick { node: NodeId(4), port: 0 });
        q.push(Time(5), Event::MonitorTick);
        q.push(Time(5), Event::TxKick { node: NodeId(1), port: 0 });
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(5), arrive(0));
        q.push(Time(6), Event::MonitorTick);
        let order: Vec<(Time, Event)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (Time(5), Event::TxKick { node: NodeId(6), port: 0 }),
                (Time(5), Event::MonitorTick),
                (Time(5), arrive(0)),
                (Time(5), Event::TxKick { node: NodeId(1), port: 0 }),
                (Time(6), Event::MonitorTick),
            ]
        );
    }

    #[test]
    fn lane_pushes_behind_the_tail_go_to_the_heap() {
        // A lane key that would sort before the lane's tail — lower rank
        // at the same instant, or an earlier instant — goes to the heap,
        // so the lane stays in canonical order and pops still merge in it.
        let mut q = EventQueue::new();
        for node in [5, 2, 9] {
            q.push_fifo(EventQueue::LANE_ARRIVE, Time(10), arrive(node));
        }
        for node in [3, 1] {
            q.push_fifo(EventQueue::LANE_ARRIVE, Time(20), arrive(node));
        }
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(7), arrive(4));
        q.push(Time(20), Event::TimelineSample);
        assert_eq!(q.lane_lens(), [3, 0, 0, 0], "nodes 5, 9, 3 stay in the lane");
        assert_eq!(q.heap_len(), 4, "nodes 2, 1, 4 and the sample go to the heap");
        assert_eq!(q.stats().lane_diverted, [3, 0, 0, 0]);
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|(t, ev)| match ev {
                Event::Arrive { node, .. } => (t.0, node.0),
                Event::TimelineSample => (t.0, u32::MAX),
                other => unreachable!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            order,
            vec![(7, 4), (10, 2), (10, 5), (10, 9), (20, u32::MAX), (20, 1), (20, 3)]
        );
    }

    #[test]
    fn a_shorter_frame_completing_first_goes_to_the_heap() {
        // Two ports start a frame at the same instant: a full-size data
        // frame, then a 64-byte control frame. The control completion is
        // due first, so it sorts before the lane's tail: it goes to the
        // heap and still pops first.
        let now = Time(1_000);
        let data = Event::TxComplete { node: NodeId(1), port: 0 };
        let ctrl = Event::TxComplete { node: NodeId(2), port: 0 };
        let mut q = EventQueue::new();
        q.push_fifo(EventQueue::LANE_TX, now + Dur(1_200_000), data.clone());
        q.push_fifo(EventQueue::LANE_TX, now + Dur(51_200), ctrl.clone());
        assert_eq!(q.lane_lens(), [0, 0, 1, 0]);
        assert_eq!(q.heap_len(), 1);
        assert_eq!(q.stats().lane_diverted, [0, 0, 1, 0]);
        assert_eq!(q.pop(), Some((now + Dur(51_200), ctrl)));
        assert_eq!(q.pop(), Some((now + Dur(1_200_000), data)));
        assert!(q.is_empty());
    }

    #[test]
    fn matches_the_batch_sort_reference() {
        // The contract: popping one event at a time dispatches exactly
        // what collecting each instant's pending events and stable-sorting
        // them by rank would. Each dispatch pushes a seeded mix of heap
        // events (zero delays included, so cascades form generations) and
        // lane events at constant delays — transmission completions at
        // two serialization delays, so some sort before their lane's tail
        // — over few enough coordinates that ranks tie.
        let mut arrive_diverted = 0;
        for seed in 1..=40u64 {
            let mut q = EventQueue::new();
            let mut reference = BatchSortReference::default();
            let mut rng = seed;
            let mut tx_laned = false;
            for i in 0..20 {
                let t = Time(i % 4);
                let ev = random_event(&mut rng);
                q.push(t, ev.clone());
                reference.push(t, ev);
            }
            for _ in 0..3_000 {
                let got = q.pop();
                assert_eq!(got, reference.pop(), "seed {seed}: dispatch order diverged");
                let Some((now, _)) = got else {
                    break;
                };
                for _ in 0..next(&mut rng) % 3 {
                    let ev = random_event(&mut rng);
                    let (lane, t) = match &ev {
                        Event::Arrive { .. } | Event::ArriveSlot { .. } => {
                            (Some(EventQueue::LANE_ARRIVE), now + Dur(3))
                        }
                        Event::CtrlApply { .. } => (Some(EventQueue::LANE_CTRL), now + Dur(5)),
                        Event::TxComplete { .. } => (
                            Some(EventQueue::LANE_TX),
                            now + Dur([1, 4][next(&mut rng) as usize % 2]),
                        ),
                        _ => (None, now + Dur(next(&mut rng) % 4)),
                    };
                    match lane {
                        Some(lane) => q.push_fifo(lane, t, ev.clone()),
                        None => q.push(t, ev.clone()),
                    }
                    reference.push(t, ev);
                }
                tx_laned |= q.lane_lens()[EventQueue::LANE_TX] > 0;
            }
            let diverted = q.stats().lane_diverted[EventQueue::LANE_TX];
            assert!(diverted > 0 && tx_laned, "seed {seed}: both transmission paths must run");
            arrive_diverted += q.stats().lane_diverted[EventQueue::LANE_ARRIVE];
        }
        // The arrival lane's payloads take the pool only when diverted:
        // that fallback must run too.
        assert!(arrive_diverted > 0, "no arrival was diverted to the heap");
    }

    #[test]
    fn lane_payloads_pop_with_their_keys() {
        // Arrivals and control applications ride their lanes with their
        // payloads; one arrival sorts before its lane's tail and goes to
        // the heap, the only push that takes a pool slot. Pops interleave
        // with pushes, so both lanes' payload deques wrap around, and
        // every event must still pop with its own payload.
        let arrive_id = |id: u64, node: u32| {
            let mut ev = arrive(node);
            if let Event::Arrive { pkt, .. } = &mut ev {
                pkt.id = id;
            }
            ev
        };
        let mut q = EventQueue::new();
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(10), arrive_id(1, 5));
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(10), arrive_id(2, 3)); // diverted
        q.push_fifo(EventQueue::LANE_CTRL, Time(10), ctrl(1, 7));
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(11), arrive_id(3, 1));
        assert_eq!(q.stats().lane_diverted, [1, 0, 0, 0]);
        assert_eq!(q.pool_slots(), 1, "only the diverted arrival takes a pool slot");
        assert_eq!(q.lane_lens(), [2, 1, 0, 0]);
        assert_eq!(q.pop(), Some((Time(10), arrive_id(2, 3))));
        assert_eq!(q.pop(), Some((Time(10), arrive_id(1, 5))));
        q.push_fifo(EventQueue::LANE_CTRL, Time(12), ctrl(2, 8));
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(12), arrive_id(4, 2));
        assert_eq!(q.pop(), Some((Time(10), ctrl(1, 7))));
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(13), arrive_id(5, 0));
        let rest: Vec<(Time, Event)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            rest,
            vec![
                (Time(11), arrive_id(3, 1)),
                (Time(12), arrive_id(4, 2)),
                (Time(12), ctrl(2, 8)),
                (Time(13), arrive_id(5, 0)),
            ]
        );
        assert_eq!(q.pool_slots(), 1, "lane payloads never touch the pool");
        let s = q.stats();
        assert_eq!(s.pushes_inline + s.pushes_pooled, 7, "every push is counted once");
        assert!(q.is_empty());
    }

    #[test]
    fn sorted_inbound_batches_pop_like_heap_pushes_in_source_order() {
        // The sharded coordinator's contract for the inbound lane: a
        // window's batch of injected events, stable-sorted by `(time,
        // rank)` with its arrivals on the lane, pops exactly as the same
        // batch pushed to the heap in source order would. Batches span
        // `span` past their window edge and the edge advances by `step`;
        // each round pops up to a pseudo-random point before the new
        // edge, as a clipped window does, so the lane is not always empty
        // when a batch lands. With `span <= step` every batch starts at or
        // after the lane's tail; with `span > step` some start behind it
        // and their early keys divert to the heap.
        for (step, span, diverts) in [(6, 6, false), (4, 9, true)] {
            let mut diverted = 0;
            let mut landed_on_keys = false;
            for seed in 1..=30u64 {
                let mut rng = seed;
                let mut laned = EventQueue::new();
                let mut heap = EventQueue::new();
                let mut edge = 0;
                for _ in 0..40 {
                    let mut batch: Vec<(Time, Event)> = (0..next(&mut rng) % 8)
                        .map(|_| (Time(edge + next(&mut rng) % span), random_event(&mut rng)))
                        .filter(|(_, ev)| !matches!(ev, Event::MonitorTick))
                        .collect();
                    for (t, ev) in &batch {
                        heap.push(*t, ev.clone());
                    }
                    batch.sort_by_key(|(t, ev)| (*t, ev.order_major()));
                    landed_on_keys |= laned.lane_lens()[EventQueue::LANE_INBOUND] > 0;
                    for (t, ev) in batch {
                        match ev {
                            Event::Arrive { .. } => {
                                laned.push_fifo(EventQueue::LANE_INBOUND, t, ev);
                            }
                            _ => laned.push(t, ev),
                        }
                    }
                    edge += step;
                    let horizon = Time(edge - 1 - next(&mut rng) % step);
                    loop {
                        let got = laned.pop_at_or_before(horizon);
                        assert_eq!(got, heap.pop_at_or_before(horizon), "seed {seed}");
                        if got.is_none() {
                            break;
                        }
                    }
                }
                let rest: Vec<(Time, Event)> = std::iter::from_fn(|| laned.pop()).collect();
                assert_eq!(rest, std::iter::from_fn(|| heap.pop()).collect::<Vec<_>>());
                diverted += laned.stats().lane_diverted[EventQueue::LANE_INBOUND];
            }
            assert!(landed_on_keys, "step {step}: no batch landed on a non-empty lane");
            assert_eq!(diverted > 0, diverts, "step {step}, span {span}: {diverted} diverted");
        }
    }

    /// The same-instant dispatch rule as a batch: pop everything due at
    /// the earliest instant in `(time, seq)` order, stable-sort it by
    /// rank, hand it out; pushes made meanwhile wait for the next batch.
    #[derive(Default)]
    struct BatchSortReference {
        pending: Vec<(Time, u64, Event)>,
        batch: VecDeque<(Time, Event)>,
        seq: u64,
    }

    impl BatchSortReference {
        fn push(&mut self, t: Time, ev: Event) {
            self.seq += 1;
            self.pending.push((t, self.seq, ev));
        }

        fn pop(&mut self) -> Option<(Time, Event)> {
            if self.batch.is_empty() {
                let t = self.pending.iter().map(|&(t, _, _)| t).min()?;
                self.pending.sort_by_key(|&(t, seq, _)| (t, seq));
                let rest = self.pending.split_off(self.pending.partition_point(|e| e.0 == t));
                let mut batch = std::mem::replace(&mut self.pending, rest);
                batch.sort_by_key(|(_, _, ev)| ev.order_major());
                self.batch = batch.into_iter().map(|(t, _, ev)| (t, ev)).collect();
            }
            self.batch.pop_front()
        }
    }

    fn next(rng: &mut u64) -> u64 {
        *rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *rng >> 33
    }

    /// An event over three nodes and two ports of each lane and heap
    /// class, inline and pooled, arrivals by value and by slot.
    fn random_event(rng: &mut u64) -> Event {
        let node = NodeId((next(rng) % 3) as u32);
        let port = (next(rng) % 2) as usize;
        match next(rng) % 7 {
            0 => Event::Arrive { node, port, pkt: pkt(next(rng) as u32) },
            5 => Event::ArriveSlot { node, port, slot: next(rng) as u32 },
            1 => ctrl(node.0, (next(rng) % 4) as u16),
            2 => Event::TxKick { node, port },
            3 => Event::TxComplete { node, port },
            4 => Event::Cnp { host: node, flow: next(rng) % 2 },
            _ => Event::MonitorTick,
        }
    }

    /// A stage-feedback application at `(node, port 0)`.
    fn ctrl(node: u32, stage: u16) -> Event {
        Event::CtrlApply {
            node: NodeId(node),
            port: 0,
            prio: 0,
            payload: CtrlPayload::GfcStage(stage),
            cause: CauseToken::NONE,
        }
    }

    #[test]
    fn slot_arrivals_ride_their_keys() {
        // A slot arrival is rank-encoded: its key carries the slot, on its
        // lane and diverted to the heap alike, so neither a payload deque
        // nor the pool holds it. It ranks like a by-value arrival at the
        // same port and pops among them in canonical order.
        let at = |node: u32, slot: u32| Event::ArriveSlot { node: NodeId(node), port: 0, slot };
        assert_eq!(at(4, 9).order_major(), arrive(4).order_major());
        assert_eq!(at(4, 9).class(), arrive(4).class());
        let mut q = EventQueue::new();
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(10), at(5, 7));
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(10), at(3, u32::MAX)); // diverted
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(10), arrive(4)); // diverted, pooled
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(11), at(1, 0));
        assert_eq!(q.stats().lane_diverted, [2, 0, 0, 0]);
        assert_eq!(q.lane_lens(), [2, 0, 0, 0]);
        assert_eq!(q.pool_slots(), 1, "only the by-value arrival takes a pool slot");
        assert!(q.lane_events.iter().all(VecDeque::is_empty), "a slot arrival left a payload");
        let mut slots: Vec<u32> = q.arrival_slots().collect();
        slots.sort_unstable();
        assert_eq!(slots, vec![0, 7, u32::MAX]);
        let order: Vec<(Time, Event)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (Time(10), at(3, u32::MAX)),
                (Time(10), arrive(4)),
                (Time(10), at(5, 7)),
                (Time(11), at(1, 0)),
            ]
        );
        let s = q.stats();
        assert_eq!((s.pushes_inline, s.pushes_pooled), (3, 1));
    }

    #[test]
    fn event_and_key_layouts_stay_small() {
        // The per-event cost rests on these sizes: a by-value arrival
        // inlines its 48-B packet into a 64-B event, and a slot arrival's
        // slot fills the key's padding. A `u128` key field once made the
        // key 48 B and the ring and enterprise workloads 15–20% slower.
        assert_eq!(std::mem::size_of::<Event>(), 64);
        assert_eq!(std::mem::size_of::<Key>(), 32);
    }

    #[test]
    fn peek_does_not_pop() {
        let mut q = EventQueue::new();
        q.push(Time(7), Event::MonitorTick);
        assert_eq!(q.peek_time(), Some(Time(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn rank_ties_keep_insertion_order_in_recycled_slots() {
        // Interleave pushes and pops so later pushes land in *recycled*
        // pool slots with lower EventId than live earlier events: among
        // same-instant events of one rank (stage applications at one
        // coordinate), insertion order must still win.
        let mut q = EventQueue::new();
        q.push(Time(1), ctrl(1, 90));
        q.push(Time(2), ctrl(1, 91));
        for stage in 0..4u16 {
            q.push(Time(100), ctrl(0, stage));
        }
        // Drain the two earlier events to free the lowest pool slots, then
        // push two more same-instant events into those recycled slots.
        assert_eq!(q.pop().unwrap().0, Time(1));
        assert_eq!(q.pop().unwrap().0, Time(2));
        for stage in 4..6u16 {
            q.push(Time(100), ctrl(0, stage));
        }
        assert_eq!(q.pool_slots(), 6, "the last pushes must reuse freed slots");
        for expect in 0..6u16 {
            match q.pop().unwrap() {
                (t, Event::CtrlApply { payload: CtrlPayload::GfcStage(stage), .. }) => {
                    assert_eq!(t, Time(100));
                    assert_eq!(stage, expect, "rank tie popped out of insertion order");
                }
                other => unreachable!("unexpected event {other:?}"),
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn payload_free_events_skip_the_pool() {
        let mut q = EventQueue::new();
        q.push(Time(1), Event::TxComplete { node: NodeId(7), port: 3 });
        q.push(Time(2), Event::TxKick { node: NodeId((1 << 20) - 1), port: 1 << 30 });
        q.push(Time(3), Event::HostTick { host: NodeId(11) });
        q.push(Time(4), Event::PeriodicFeedback { node: NodeId(5), port: 2 });
        q.push(Time(5), Event::TimelineSample);
        q.push(Time(6), Event::MonitorTick);
        assert_eq!(q.pool_slots(), 0, "payload-free events must not allocate pool slots");
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|(_, ev)| ev)).collect();
        assert_eq!(
            order,
            vec![
                Event::TxComplete { node: NodeId(7), port: 3 },
                Event::TxKick { node: NodeId((1 << 20) - 1), port: 1 << 30 },
                Event::HostTick { host: NodeId(11) },
                Event::PeriodicFeedback { node: NodeId(5), port: 2 },
                Event::TimelineSample,
                Event::MonitorTick,
            ],
            "rank round-trip"
        );
    }

    #[test]
    fn fifo_lanes_merge_in_total_order() {
        // Interleave heap pushes with lane pushes at equal and distinct
        // times: pops must follow the canonical order exactly as if
        // everything had gone through the heap.
        let mut q = EventQueue::new();
        q.push(Time(10), Event::TxComplete { node: NodeId(1), port: 0 }); // seq 1
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(10), arrive(2)); // seq 2
        q.push(Time(5), Event::TxComplete { node: NodeId(3), port: 0 }); // seq 3
        q.push_fifo(EventQueue::LANE_CTRL, Time(10), Event::Cnp { host: NodeId(4), flow: 0 }); // 4
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(12), arrive(5)); // seq 5
        let order: Vec<Time> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![Time(5), Time(10), Time(10), Time(10), Time(12)]);

        let mut q = EventQueue::new();
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(10), arrive(1));
        q.push(Time(10), Event::TxComplete { node: NodeId(2), port: 0 });
        q.push_fifo(EventQueue::LANE_ARRIVE, Time(10), arrive(3));
        // Same instant: lane, heap, lane — rank order must win across
        // sources (arrivals before transmission completions).
        for expect in [1, 3, 2u32] {
            match q.pop().unwrap().1 {
                Event::Arrive { node, .. } | Event::TxComplete { node, .. } => {
                    assert_eq!(node, NodeId(expect), "same-instant cross-source order violated");
                }
                other => unreachable!("unexpected event {other:?}"),
            }
        }
        assert!(q.is_empty());
    }

    /// A minimal pooled `Arrive` for lane tests.
    fn arrive(node: u32) -> Event {
        Event::Arrive {
            node: NodeId(node),
            port: 0,
            pkt: crate::packet::Packet {
                id: 0,
                flow: 0,
                src: NodeId(0),
                dst: NodeId(node),
                bytes: 1500,
                prio: 0,
                path: std::sync::Arc::from(vec![].into_boxed_slice()),
                hop: 0,
                ecn_marked: false,
            },
        }
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(Time(10), Event::MonitorTick);
        q.push(Time(20), Event::MonitorTick);
        assert!(q.pop_at_or_before(Time(5)).is_none());
        assert_eq!(q.pop_at_or_before(Time(10)).unwrap().0, Time(10));
        assert_eq!(q.pop_at_or_before(Time(30)).unwrap().0, Time(20));
        assert!(q.pop_at_or_before(Time(u64::MAX)).is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn class_indices_match_labels() {
        // Every variant maps into the label table, and distinct variants
        // get distinct classes.
        let events = [
            arrive(1),
            Event::CtrlApply {
                node: NodeId(0),
                port: 0,
                prio: 0,
                payload: CtrlPayload::GfcStage(1),
                cause: CauseToken::NONE,
            },
            Event::TxKick { node: NodeId(0), port: 0 },
            Event::TxComplete { node: NodeId(0), port: 0 },
            Event::PeriodicFeedback { node: NodeId(0), port: 0 },
            Event::HostTick { host: NodeId(0) },
            Event::DcqcnTimer { host: NodeId(0), flow: 0 },
            Event::Cnp { host: NodeId(0), flow: 0 },
            Event::MonitorTick,
            Event::TimelineSample,
            Event::SourceDone { host: NodeId(0), flow: 0 },
        ];
        let classes: Vec<usize> = events.iter().map(Event::class).collect();
        assert_eq!(classes, (0..Event::CLASS_LABELS.len()).collect::<Vec<_>>());
        assert_eq!(Event::CLASS_LABELS[events[0].class()], "arrive");
    }

    #[test]
    fn dispatch_rank_puts_monitor_first_and_separates_coordinates() {
        // The monitor outranks (sorts before) every other same-instant
        // event, and distinct (class, node, port) coordinates get
        // distinct ranks — the properties the canonical order needs.
        assert!(Event::MonitorTick.order_major() < Event::TimelineSample.order_major());
        assert!(Event::TimelineSample.order_major() < arrive(0).order_major());
        let a = Event::TxComplete { node: NodeId(3), port: 1 };
        let b = Event::TxComplete { node: NodeId(3), port: 2 };
        let c = Event::TxComplete { node: NodeId(4), port: 1 };
        let d = Event::TxKick { node: NodeId(3), port: 1 };
        assert!(a.order_major() < b.order_major());
        assert!(b.order_major() < c.order_major());
        assert_ne!(a.order_major(), d.order_major());
        // Within a class, node is the most significant coordinate.
        assert!(
            Event::Arrive { node: NodeId(1), port: 9, pkt: pkt(1) }.order_major()
                < Event::Arrive { node: NodeId(2), port: 0, pkt: pkt(2) }.order_major()
        );
    }

    /// A minimal packet for rank tests.
    fn pkt(node: u32) -> crate::packet::Packet {
        match arrive(node) {
            Event::Arrive { pkt, .. } => pkt,
            _ => unreachable!(),
        }
    }

    #[test]
    fn push_counters_split_inline_vs_pooled() {
        let mut q = EventQueue::new();
        q.push(Time(1), Event::MonitorTick); // inline
        q.push(Time(2), Event::Cnp { host: NodeId(0), flow: 0 }); // pool grows
        q.pop().unwrap();
        q.pop().unwrap();
        q.push(Time(3), Event::Cnp { host: NodeId(0), flow: 1 }); // recycled
        let s = q.stats();
        assert_eq!(s.pushes_inline, 1);
        assert_eq!(s.pushes_pooled, 2);
        assert_eq!(s.pool_grown, 1, "second pooled push must recycle, not grow");
        assert_eq!(q.heap_len(), 1);
        assert_eq!(q.lane_lens(), [0; EventQueue::NUM_LANES]);
        assert_eq!(q.free_slots(), 0);
        q.pop().unwrap();
        assert_eq!(q.free_slots(), 1);
    }

    #[test]
    fn pool_slots_are_recycled() {
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.push(Time(i), Event::Cnp { host: NodeId(0), flow: i });
        }
        assert_eq!(q.pool_slots(), 8);
        for _ in 0..8 {
            q.pop().unwrap();
        }
        // A second wave of the same pending depth reuses the freed slots.
        for i in 0..8 {
            q.push(Time(100 + i), Event::Cnp { host: NodeId(0), flow: i });
        }
        assert_eq!(q.pool_slots(), 8, "freed slots must be recycled, not leaked");
        assert_eq!(q.len(), 8);
    }
}
