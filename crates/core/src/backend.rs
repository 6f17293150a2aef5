//! The flow-control backend API: the trait pair every scheme implements
//! plus the control-payload vocabulary shared by all of them.
//!
//! A scheme is a **receiver** ([`FcRx`], one per watched ingress
//! `(port, priority)`) that turns queue observations into control
//! payloads, and a **sender** ([`FcTx`], one per controlled egress
//! `(port, priority)`) that applies those payloads to its gate and rate.
//! The simulator owns clocks, queues, and the §5.3 rate limiter; backends
//! own nothing but their protocol state. The simulator holds the
//! [`crate::AnyRx`]/[`crate::AnyTx`] enums and dispatches by match, so
//! adding a scheme means implementing the pair plus one variant in
//! [`crate::fc_config::FcConfig`] and in each enum — no simulator matches.
//!
//! ## Contract
//!
//! * **Determinism.** Backends must be pure functions of their call
//!   sequence: no clocks, no randomness, no iteration over
//!   nondeterministically-ordered containers when emitting messages.
//! * **Accounting.** Every emitted payload is counted in
//!   [`FcRx::messages_sent`]; every payload knows its wire cost
//!   ([`CtrlPayload::wire_bytes`]) and its accounting class
//!   ([`CtrlPayload::class`]).
//! * **Mismatch is an error.** A sender receiving a payload from a
//!   different scheme returns [`SchemeMismatch`] naming both sides.
//! * **Hard vs soft.** [`FcTx::hard_open`] may mutate (hold-and-wait edge
//!   accounting); [`FcTx::hard_blocked`] must not (it backs the wait-for
//!   graph detector). Schemes without a hard gate return `true`/`false`
//!   respectively, unconditionally.

use crate::cbfc::{wrap16_advance, CbfcReceiver, CbfcSender};
use crate::conceptual::{ConceptualReceiver, ConceptualSender};
use crate::frames::{
    BfcFrame, DcfitFrame, FcpFrame, FcpOp, PfcFrame, BFC_FRAME_WIRE_BYTES,
    CONTROL_FRAME_WIRE_BYTES, DCFIT_FRAME_WIRE_BYTES, FCP_WIRE_BYTES,
};
use crate::gfc_buffer::{GfcBufferReceiver, GfcBufferSender};
use crate::gfc_time::{GfcTimeReceiver, GfcTimeSender};
use crate::pfc::{PfcEvent, PfcReceiver, PfcSender};
use crate::units::{Rate, Time};
use serde::{Deserialize, Serialize};

/// Control-plane accounting class of a feedback message. Each class maps
/// 1:1 onto the mechanism that emits it (pause/resume → PFC-style stops,
/// stage → buffer-based GFC, credit → CBFC / time-based GFC, sample →
/// conceptual GFC), so per-class counters *are* the per-mechanism
/// overhead breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CtrlClass {
    /// A stop assertion (PFC PAUSE, BFC per-flow pause, DCFIT tagged PAUSE).
    Pause,
    /// A stop clearance (PFC RESUME and friends).
    Resume,
    /// Buffer-based GFC stage feedback.
    Stage,
    /// CBFC / time-based GFC credit advertisement.
    Credit,
    /// Conceptual GFC instantaneous queue sample.
    Sample,
}

impl CtrlClass {
    /// All classes, in display order.
    pub const ALL: [CtrlClass; 5] = [
        CtrlClass::Pause,
        CtrlClass::Resume,
        CtrlClass::Stage,
        CtrlClass::Credit,
        CtrlClass::Sample,
    ];

    /// Stable lowercase label (used in metric names).
    pub fn label(&self) -> &'static str {
        match self {
            CtrlClass::Pause => "pause",
            CtrlClass::Resume => "resume",
            CtrlClass::Stage => "stage",
            CtrlClass::Credit => "credit",
            CtrlClass::Sample => "sample",
        }
    }
}

impl std::fmt::Display for CtrlClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// DCFIT's initial-trigger tag: the identity of the ingress whose XOFF
/// crossing originated a pause chain, carried in every propagated pause.
/// A pause arriving back at its originating node witnesses a circular
/// buffer-wait — the in-data-plane deadlock detection signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DcfitTag {
    /// Node that originated the pause chain.
    pub node: u32,
    /// Ingress port on that node.
    pub port: u16,
    /// Per-ingress sequence number distinguishing successive chains.
    pub seq: u16,
}

/// A decoded flow-control message, as applied at the controlled egress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlPayload {
    /// PFC PAUSE/RESUME.
    Pfc(PfcEvent),
    /// Buffer-based GFC stage feedback.
    GfcStage(u16),
    /// CBFC / time-based GFC credit limit, 16-bit wire encoding.
    FcclWire(u16),
    /// Conceptual GFC instantaneous queue sample (bytes). Out-of-band:
    /// the conceptual design has no wire format.
    QueueSample(u64),
    /// BFC per-flow pause (`pause == true`) / resume.
    Bfc {
        /// The flow being paused or resumed.
        flow: u64,
        /// `true` = pause, `false` = resume.
        pause: bool,
    },
    /// DCFIT: a PFC event carrying the initial-trigger tag.
    DcfitPfc {
        /// The underlying PAUSE/RESUME.
        ev: PfcEvent,
        /// The originating ingress of the pause chain.
        tag: DcfitTag,
    },
}

impl CtrlPayload {
    /// On-wire size of the frame carrying this payload (0 for the
    /// conceptual out-of-band channel).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            CtrlPayload::Pfc(_) | CtrlPayload::GfcStage(_) => CONTROL_FRAME_WIRE_BYTES,
            CtrlPayload::FcclWire(_) => FCP_WIRE_BYTES,
            CtrlPayload::QueueSample(_) => 0,
            CtrlPayload::Bfc { .. } => BFC_FRAME_WIRE_BYTES,
            CtrlPayload::DcfitPfc { .. } => DCFIT_FRAME_WIRE_BYTES,
        }
    }

    /// Classify this payload for control-plane accounting (see
    /// [`CtrlClass`]).
    pub fn class(&self) -> CtrlClass {
        match self {
            CtrlPayload::Pfc(PfcEvent::Pause { .. }) => CtrlClass::Pause,
            CtrlPayload::Pfc(PfcEvent::Resume) => CtrlClass::Resume,
            CtrlPayload::GfcStage(_) => CtrlClass::Stage,
            CtrlPayload::FcclWire(_) => CtrlClass::Credit,
            CtrlPayload::QueueSample(_) => CtrlClass::Sample,
            CtrlPayload::Bfc { pause: true, .. } => CtrlClass::Pause,
            CtrlPayload::Bfc { pause: false, .. } => CtrlClass::Resume,
            CtrlPayload::DcfitPfc { ev: PfcEvent::Pause { .. }, .. } => CtrlClass::Pause,
            CtrlPayload::DcfitPfc { ev: PfcEvent::Resume, .. } => CtrlClass::Resume,
        }
    }

    /// Human-readable name of the scheme this payload belongs to (for
    /// [`SchemeMismatch`] diagnostics).
    pub fn scheme_name(&self) -> &'static str {
        match self {
            CtrlPayload::Pfc(_) => "PFC",
            CtrlPayload::GfcStage(_) => "buffer-based GFC",
            CtrlPayload::FcclWire(_) => "CBFC / time-based GFC",
            CtrlPayload::QueueSample(_) => "conceptual GFC",
            CtrlPayload::Bfc { .. } => "BFC",
            CtrlPayload::DcfitPfc { .. } => "DCFIT",
        }
    }

    /// Encode to wire bytes and decode back — a self-check that the real
    /// codecs carry this payload faithfully. Returns the decoded payload.
    /// (Debug builds of the network run every generated message through
    /// this.)
    pub fn codec_roundtrip(&self, prio: u8) -> CtrlPayload {
        const SRC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x42];
        match *self {
            CtrlPayload::Pfc(ev) => {
                let quanta = match ev {
                    PfcEvent::Pause { quanta } => quanta,
                    PfcEvent::Resume => 0,
                };
                let f = PfcFrame::pause(SRC, prio, quanta);
                let d = PfcFrame::decode(f.encode()).expect("PFC frame roundtrip");
                let q = d.value_for(prio).expect("priority bit lost");
                CtrlPayload::Pfc(if q == 0 {
                    PfcEvent::Resume
                } else {
                    PfcEvent::Pause { quanta: q }
                })
            }
            CtrlPayload::GfcStage(stage) => {
                let f = PfcFrame::gfc_stage(SRC, prio, stage);
                let d = PfcFrame::decode(f.encode()).expect("GFC frame roundtrip");
                CtrlPayload::GfcStage(d.value_for(prio).expect("priority bit lost"))
            }
            CtrlPayload::FcclWire(w) => {
                let f = FcpFrame::new(FcpOp::Normal, prio & 0xF, 0, w);
                let d = FcpFrame::decode(f.encode()).expect("FCP roundtrip");
                CtrlPayload::FcclWire(d.fccl)
            }
            CtrlPayload::QueueSample(q) => CtrlPayload::QueueSample(q),
            CtrlPayload::Bfc { flow, pause } => {
                let f = BfcFrame::new(SRC, prio, flow, pause);
                let d = BfcFrame::decode(f.encode()).expect("BFC frame roundtrip");
                CtrlPayload::Bfc { flow: d.flow, pause: d.pause }
            }
            CtrlPayload::DcfitPfc { ev, tag } => {
                let quanta = match ev {
                    PfcEvent::Pause { quanta } => quanta,
                    PfcEvent::Resume => 0,
                };
                let f = DcfitFrame::new(SRC, prio, quanta, tag.node, tag.port, tag.seq);
                let d = DcfitFrame::decode(f.encode()).expect("DCFIT frame roundtrip");
                CtrlPayload::DcfitPfc {
                    ev: if d.quanta == 0 {
                        PfcEvent::Resume
                    } else {
                        PfcEvent::Pause { quanta: d.quanta }
                    },
                    tag: DcfitTag { node: d.tag_node, port: d.tag_port, seq: d.tag_seq },
                }
            }
        }
    }
}

/// The causal intent of a feedback message: does it assert backpressure
/// (hard stop vs. soft throttle) or clear it? The wire payloads don't
/// carry this, so the *receiver* that generated the message classifies it
/// (it knows the scheme and the queue state that drove the emission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// The message stops the upstream outright (pause / credit exhaustion).
    AssertHard,
    /// The message throttles the upstream without stopping it.
    AssertSoft,
    /// The message clears or relaxes earlier backpressure.
    Clear,
}

/// Queue observation handed to [`FcRx::on_arrival`] / [`FcRx::on_drain`].
#[derive(Debug, Clone, Copy)]
pub struct QueueCtx {
    /// Ingress queue length (bytes) *after* the arrival or drain.
    pub q_bytes: u64,
    /// Size of the packet that arrived / drained.
    pub pkt_bytes: u64,
    /// Flow the packet belongs to (per-flow schemes key on this).
    pub flow: u64,
    /// DCFIT tag inheritance: the tag currently applied at the egress this
    /// ingress forwards through, if any. Only populated for backends that
    /// request it via [`FcRx::wants_fwd_tag`].
    pub inherited_tag: Option<DcfitTag>,
}

/// The head-of-line packet a sender gate is being asked about.
#[derive(Debug, Clone, Copy)]
pub struct TxHead {
    /// Packet size in bytes.
    pub bytes: u64,
    /// Flow the packet belongs to.
    pub flow: u64,
}

/// The effect of applying a control payload at a sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrlOutcome {
    /// The hard gate may have opened — the caller should kick the
    /// transmitter.
    pub opened: bool,
    /// New rate to program into the egress rate limiter, if the scheme is
    /// rate-based. Already floored above zero by the backend.
    pub set_rate: Option<Rate>,
    /// DCFIT only: the payload's tag names *this* node as the pause
    /// chain's originator — a runtime deadlock detection.
    pub detection: Option<DcfitTag>,
}

impl CtrlOutcome {
    /// An outcome that only reports gate state.
    pub fn gate(opened: bool) -> CtrlOutcome {
        CtrlOutcome { opened, set_rate: None, detection: None }
    }

    /// An outcome that programs a rate (gate considered open).
    pub fn rate(r: Rate) -> CtrlOutcome {
        CtrlOutcome { opened: true, set_rate: Some(r), detection: None }
    }
}

/// A control payload delivered to a sender running a different scheme.
///
/// The receiver/sender pairing is fixed at network construction, so this
/// error indicates miswired plumbing (a message routed to the wrong port
/// state), never a runtime condition of a correctly built network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeMismatch {
    /// The payload that could not be applied.
    pub payload: CtrlPayload,
    /// Human-readable name of the scheme the payload belongs to.
    pub payload_scheme: &'static str,
    /// Human-readable name of the scheme the sender is running.
    pub sender_scheme: &'static str,
}

impl SchemeMismatch {
    /// Build the error for `payload` arriving at a `sender_scheme` sender.
    pub fn new(payload: CtrlPayload, sender_scheme: &'static str) -> SchemeMismatch {
        SchemeMismatch { payload, payload_scheme: payload.scheme_name(), sender_scheme }
    }
}

impl std::fmt::Display for SchemeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flow-control message {:?} (a {} payload) does not match a {} sender",
            self.payload, self.payload_scheme, self.sender_scheme
        )
    }
}

impl std::error::Error for SchemeMismatch {}

/// Receiver side of a flow-control backend: one per watched ingress
/// `(port, priority)`. Turns queue observations into control payloads.
pub trait FcRx: std::fmt::Debug + Send {
    /// Human-readable scheme name.
    fn scheme(&self) -> &'static str;

    /// Account an arrived packet; append any feedback messages to `out`
    /// (in emission order — the simulator sends them in sequence).
    fn on_arrival(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>);

    /// Account a drained packet (its last bit left this node); append any
    /// feedback messages to `out`.
    fn on_drain(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>);

    /// The periodic feedback message, for time-triggered schemes. The
    /// period itself lives in [`crate::fc_config::FcConfig::period`].
    fn periodic(&mut self) -> Option<CtrlPayload> {
        None
    }

    /// A packet was consumed instantly at a host sink (arrival and drain
    /// collapse into one observation; the queue never builds).
    fn on_host_delivery(&mut self, _bytes: u64) {}

    /// Classify a payload this receiver just generated for the causal
    /// layer, given the ingress occupancy that drove it.
    fn sense(&self, payload: &CtrlPayload, ing_bytes: u64) -> Sense;

    /// Whether [`QueueCtx::inherited_tag`] should be populated on arrivals
    /// (DCFIT tag inheritance). Kept as a cheap flag so non-DCFIT runs
    /// never pay for the egress lookup.
    fn wants_fwd_tag(&self) -> bool {
        false
    }

    /// Feedback messages generated so far.
    fn messages_sent(&self) -> u64;
}

/// Sender side of a flow-control backend: one per controlled egress
/// `(port, priority)`. Applies control payloads; answers gate queries.
pub trait FcTx: std::fmt::Debug + Send {
    /// Human-readable scheme name.
    fn scheme(&self) -> &'static str;

    /// Apply a received control payload at `now`.
    fn on_ctrl(&mut self, payload: CtrlPayload, now: Time) -> Result<CtrlOutcome, SchemeMismatch>;

    /// Whether the scheme's hard gate admits `head` at `now`. May mutate
    /// (hold-and-wait edge accounting). Rate pacing is the simulator's
    /// rate limiter's job, not the backend's.
    fn hard_open(&mut self, head: &TxHead, now: Time) -> bool;

    /// Non-mutating form of the gate query (no episode accounting) — used
    /// by observers such as the wait-for-graph deadlock detector.
    fn hard_blocked(&self, head: &TxHead, now: Time) -> bool;

    /// Account a transmitted packet (credit spend, register updates).
    fn on_sent(&mut self, _head: &TxHead) {}

    /// Hold-and-wait episodes entered so far; 0 for schemes without a
    /// hard gate.
    fn hold_and_wait_episodes(&self) -> u64 {
        0
    }

    /// DCFIT: the tag of the pause currently applied at this egress, for
    /// inheritance by congested ingresses on the same node that forward
    /// through it. `None` for other schemes or when not paused.
    fn applied_tag(&self) -> Option<DcfitTag> {
        None
    }

    /// DCFIT: runtime deadlock detections witnessed at this egress.
    fn detections(&self) -> u64 {
        0
    }
}

// ----------------------------------------------------------------------
// Backends for the paper's five schemes
// ----------------------------------------------------------------------

/// Scheme name used by the lossy (no flow control) backend.
pub const LOSSY_SCHEME: &str = "lossy (no flow control)";

/// Lossy receiver: no feedback.
#[derive(Debug, Clone, Default)]
pub struct NoneRx;

impl FcRx for NoneRx {
    fn scheme(&self) -> &'static str {
        LOSSY_SCHEME
    }
    fn on_arrival(&mut self, _ctx: &QueueCtx, _out: &mut Vec<CtrlPayload>) {}
    fn on_drain(&mut self, _ctx: &QueueCtx, _out: &mut Vec<CtrlPayload>) {}
    fn sense(&self, _payload: &CtrlPayload, _ing_bytes: u64) -> Sense {
        Sense::Clear
    }
    fn messages_sent(&self) -> u64 {
        0
    }
}

/// Lossy sender: always open, rejects every payload.
#[derive(Debug, Clone, Default)]
pub struct NoneTx;

impl FcTx for NoneTx {
    fn scheme(&self) -> &'static str {
        LOSSY_SCHEME
    }
    fn on_ctrl(&mut self, payload: CtrlPayload, _now: Time) -> Result<CtrlOutcome, SchemeMismatch> {
        Err(SchemeMismatch::new(payload, self.scheme()))
    }
    fn hard_open(&mut self, _head: &TxHead, _now: Time) -> bool {
        true
    }
    fn hard_blocked(&self, _head: &TxHead, _now: Time) -> bool {
        false
    }
}

/// PFC receiver backend (threshold watcher).
#[derive(Debug, Clone)]
pub struct PfcRx(pub PfcReceiver);

impl FcRx for PfcRx {
    fn scheme(&self) -> &'static str {
        "PFC"
    }
    fn on_arrival(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        if let Some(ev) = self.0.on_queue_update(ctx.q_bytes) {
            out.push(CtrlPayload::Pfc(ev));
        }
    }
    fn on_drain(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        if let Some(ev) = self.0.on_queue_update(ctx.q_bytes) {
            out.push(CtrlPayload::Pfc(ev));
        }
    }
    fn sense(&self, payload: &CtrlPayload, _ing_bytes: u64) -> Sense {
        match payload {
            CtrlPayload::Pfc(PfcEvent::Pause { .. }) => Sense::AssertHard,
            _ => Sense::Clear,
        }
    }
    fn messages_sent(&self) -> u64 {
        self.0.messages_sent()
    }
}

/// PFC sender backend (pause state).
#[derive(Debug, Clone)]
pub struct PfcTx(pub PfcSender);

impl FcTx for PfcTx {
    fn scheme(&self) -> &'static str {
        "PFC"
    }
    fn on_ctrl(&mut self, payload: CtrlPayload, now: Time) -> Result<CtrlOutcome, SchemeMismatch> {
        match payload {
            CtrlPayload::Pfc(ev) => {
                self.0.on_event(ev, now);
                Ok(CtrlOutcome::gate(!self.0.is_paused(now)))
            }
            other => Err(SchemeMismatch::new(other, self.scheme())),
        }
    }
    fn hard_open(&mut self, _head: &TxHead, now: Time) -> bool {
        !self.0.is_paused(now)
    }
    fn hard_blocked(&self, _head: &TxHead, now: Time) -> bool {
        self.0.is_paused(now)
    }
    fn hold_and_wait_episodes(&self) -> u64 {
        self.0.pauses_entered()
    }
}

/// CBFC receiver backend (credit accountant + periodic advertiser).
#[derive(Debug, Clone)]
pub struct CbfcRx {
    inner: CbfcReceiver,
    /// Fabric buffer size, for the hard-assert sense classification.
    buffer_bytes: u64,
    /// Fabric MTU: feedback sent while a full frame no longer fits is a
    /// hard assert (the advertised window stops the upstream).
    mtu: u64,
}

impl CbfcRx {
    /// New CBFC receiver over `buffer_bytes`.
    pub fn new(buffer_bytes: u64, mtu: u64) -> CbfcRx {
        CbfcRx { inner: CbfcReceiver::new(buffer_bytes), buffer_bytes, mtu }
    }
}

impl FcRx for CbfcRx {
    fn scheme(&self) -> &'static str {
        "CBFC"
    }
    fn on_arrival(&mut self, ctx: &QueueCtx, _out: &mut Vec<CtrlPayload>) {
        self.inner.on_packet_received(ctx.pkt_bytes); // feedback is periodic
    }
    fn on_drain(&mut self, ctx: &QueueCtx, _out: &mut Vec<CtrlPayload>) {
        self.inner.on_packet_drained(ctx.pkt_bytes);
    }
    fn periodic(&mut self) -> Option<CtrlPayload> {
        Some(CtrlPayload::FcclWire((self.inner.make_feedback() & 0xFFFF) as u16))
    }
    fn on_host_delivery(&mut self, bytes: u64) {
        self.inner.on_packet_received(bytes);
        self.inner.on_packet_drained(bytes);
    }
    fn sense(&self, payload: &CtrlPayload, ing_bytes: u64) -> Sense {
        match payload {
            // The upstream stops once the advertised window no longer
            // admits a full frame — a hard assert.
            CtrlPayload::FcclWire(_) if ing_bytes + self.mtu > self.buffer_bytes => {
                Sense::AssertHard
            }
            _ => Sense::Clear,
        }
    }
    fn messages_sent(&self) -> u64 {
        self.inner.messages_sent()
    }
}

/// CBFC sender backend (credit gate with 16-bit wire reconstruction).
#[derive(Debug, Clone)]
pub struct CbfcTx {
    tx: CbfcSender,
    /// Monotone FCCL reconstructed from 16-bit wire values.
    fccl_recon: u64,
}

impl CbfcTx {
    /// New CBFC sender with the full-buffer initial credit limit.
    pub fn new(buffer_bytes: u64) -> CbfcTx {
        let blocks = buffer_bytes / crate::cbfc::BLOCK_BYTES;
        CbfcTx { tx: CbfcSender::new(blocks), fccl_recon: blocks }
    }
}

impl FcTx for CbfcTx {
    fn scheme(&self) -> &'static str {
        "CBFC"
    }
    fn on_ctrl(&mut self, payload: CtrlPayload, _now: Time) -> Result<CtrlOutcome, SchemeMismatch> {
        match payload {
            CtrlPayload::FcclWire(w) => {
                self.fccl_recon = wrap16_advance(self.fccl_recon, w);
                self.tx.on_feedback(self.fccl_recon);
                Ok(CtrlOutcome::gate(true))
            }
            other => Err(SchemeMismatch::new(other, self.scheme())),
        }
    }
    fn hard_open(&mut self, head: &TxHead, _now: Time) -> bool {
        self.tx.can_send(head.bytes)
    }
    fn hard_blocked(&self, head: &TxHead, _now: Time) -> bool {
        !self.tx.would_allow(head.bytes)
    }
    fn on_sent(&mut self, head: &TxHead) {
        self.tx.on_packet_sent(head.bytes);
    }
    fn hold_and_wait_episodes(&self) -> u64 {
        self.tx.starvations()
    }
}

/// Buffer-based GFC receiver backend (stage tracker).
#[derive(Debug, Clone)]
pub struct GfcBufferRx(pub GfcBufferReceiver);

impl FcRx for GfcBufferRx {
    fn scheme(&self) -> &'static str {
        "buffer-based GFC"
    }
    fn on_arrival(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        if let Some(stage) = self.0.on_queue_update(ctx.q_bytes) {
            out.push(CtrlPayload::GfcStage(stage));
        }
    }
    fn on_drain(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        if let Some(stage) = self.0.on_queue_update(ctx.q_bytes) {
            out.push(CtrlPayload::GfcStage(stage));
        }
    }
    fn sense(&self, payload: &CtrlPayload, _ing_bytes: u64) -> Sense {
        match payload {
            // Stage s throttles to C/2^s — any nonzero stage asserts
            // (softly), stage 0 restores line rate.
            CtrlPayload::GfcStage(s) if *s > 0 => Sense::AssertSoft,
            _ => Sense::Clear,
        }
    }
    fn messages_sent(&self) -> u64 {
        self.0.messages_sent()
    }
}

/// Buffer-based GFC sender backend (stage → rate lookup).
#[derive(Debug, Clone)]
pub struct GfcBufferTx(pub GfcBufferSender);

impl FcTx for GfcBufferTx {
    fn scheme(&self) -> &'static str {
        "buffer-based GFC"
    }
    fn on_ctrl(&mut self, payload: CtrlPayload, _now: Time) -> Result<CtrlOutcome, SchemeMismatch> {
        match payload {
            CtrlPayload::GfcStage(stage) => Ok(CtrlOutcome::rate(self.0.on_feedback(stage))),
            other => Err(SchemeMismatch::new(other, self.scheme())),
        }
    }
    fn hard_open(&mut self, _head: &TxHead, _now: Time) -> bool {
        true
    }
    fn hard_blocked(&self, _head: &TxHead, _now: Time) -> bool {
        false
    }
}

/// Time-based GFC receiver backend (CBFC accountant + period).
#[derive(Debug, Clone)]
pub struct GfcTimeRx {
    inner: GfcTimeReceiver,
    /// `B0` of the mapping, for the soft-assert sense classification.
    b0: u64,
}

impl GfcTimeRx {
    /// New time-based GFC receiver.
    pub fn new(inner: GfcTimeReceiver, b0: u64) -> GfcTimeRx {
        GfcTimeRx { inner, b0 }
    }
}

impl FcRx for GfcTimeRx {
    fn scheme(&self) -> &'static str {
        "time-based GFC"
    }
    fn on_arrival(&mut self, ctx: &QueueCtx, _out: &mut Vec<CtrlPayload>) {
        self.inner.on_packet_received(ctx.pkt_bytes); // feedback is periodic
    }
    fn on_drain(&mut self, ctx: &QueueCtx, _out: &mut Vec<CtrlPayload>) {
        self.inner.on_packet_drained(ctx.pkt_bytes);
    }
    fn periodic(&mut self) -> Option<CtrlPayload> {
        Some(CtrlPayload::FcclWire((self.inner.make_feedback() & 0xFFFF) as u16))
    }
    fn on_host_delivery(&mut self, bytes: u64) {
        self.inner.on_packet_received(bytes);
        self.inner.on_packet_drained(bytes);
    }
    fn sense(&self, payload: &CtrlPayload, ing_bytes: u64) -> Sense {
        match payload {
            // Occupancy beyond B0 starts the gentle slowdown (the rate
            // floor keeps it soft).
            CtrlPayload::FcclWire(_) if ing_bytes > self.b0 => Sense::AssertSoft,
            _ => Sense::Clear,
        }
    }
    fn messages_sent(&self) -> u64 {
        self.inner.messages_sent()
    }
}

/// Time-based GFC sender backend (credit registers + linear rate
/// adjuster; purely rate-based — no hard gate, per §5.2).
#[derive(Debug, Clone)]
pub struct GfcTimeTx {
    tx: GfcTimeSender,
    fccl_recon: u64,
}

impl GfcTimeTx {
    /// New time-based GFC sender with the full-buffer credit limit.
    pub fn new(tx: GfcTimeSender, initial_fccl: u64) -> GfcTimeTx {
        GfcTimeTx { tx, fccl_recon: initial_fccl }
    }
}

impl FcTx for GfcTimeTx {
    fn scheme(&self) -> &'static str {
        "time-based GFC"
    }
    fn on_ctrl(&mut self, payload: CtrlPayload, _now: Time) -> Result<CtrlOutcome, SchemeMismatch> {
        match payload {
            CtrlPayload::FcclWire(w) => {
                self.fccl_recon = wrap16_advance(self.fccl_recon, w);
                // §7: the limiter's minimum rate unit floors the mapping —
                // the input rate never reaches exactly zero, which is what
                // eliminates hold-and-wait.
                Ok(CtrlOutcome::rate(self.tx.on_feedback(self.fccl_recon).max(Rate(1))))
            }
            other => Err(SchemeMismatch::new(other, self.scheme())),
        }
    }
    fn hard_open(&mut self, _head: &TxHead, _now: Time) -> bool {
        true
    }
    fn hard_blocked(&self, _head: &TxHead, _now: Time) -> bool {
        false
    }
    fn on_sent(&mut self, head: &TxHead) {
        // FCTBS bookkeeping (the rate mapping depends on it); the mapped
        // rate floor keeps the port trickling even at zero reconstructed
        // credit.
        self.tx.on_packet_sent_unchecked(head.bytes);
    }
    fn hold_and_wait_episodes(&self) -> u64 {
        self.tx.starvations()
    }
}

/// Conceptual GFC receiver backend (continuous sampler).
#[derive(Debug, Clone)]
pub struct ConceptualRx {
    inner: ConceptualReceiver,
    /// `B0` of the mapping, for the soft-assert sense classification.
    b0: u64,
}

impl ConceptualRx {
    /// New conceptual receiver.
    pub fn new(b0: u64) -> ConceptualRx {
        ConceptualRx { inner: ConceptualReceiver::new(), b0 }
    }
}

impl FcRx for ConceptualRx {
    fn scheme(&self) -> &'static str {
        "conceptual GFC"
    }
    fn on_arrival(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        out.push(CtrlPayload::QueueSample(self.inner.on_queue_update(ctx.q_bytes)));
    }
    fn on_drain(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        out.push(CtrlPayload::QueueSample(self.inner.on_queue_update(ctx.q_bytes)));
    }
    fn sense(&self, payload: &CtrlPayload, _ing_bytes: u64) -> Sense {
        match payload {
            CtrlPayload::QueueSample(q) if *q >= self.b0 => Sense::AssertSoft,
            _ => Sense::Clear,
        }
    }
    fn messages_sent(&self) -> u64 {
        self.inner.messages_sent()
    }
}

/// Conceptual GFC sender backend (linear mapping).
#[derive(Debug, Clone)]
pub struct ConceptualTx(pub ConceptualSender);

impl FcTx for ConceptualTx {
    fn scheme(&self) -> &'static str {
        "conceptual GFC"
    }
    fn on_ctrl(&mut self, payload: CtrlPayload, _now: Time) -> Result<CtrlOutcome, SchemeMismatch> {
        match payload {
            CtrlPayload::QueueSample(q) => {
                Ok(CtrlOutcome::rate(self.0.on_feedback(q).max(Rate(1))))
            }
            other => Err(SchemeMismatch::new(other, self.scheme())),
        }
    }
    fn hard_open(&mut self, _head: &TxHead, _now: Time) -> bool {
        true
    }
    fn hard_blocked(&self, _head: &TxHead, _now: Time) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_partition_the_payloads() {
        assert_eq!(CtrlPayload::Pfc(PfcEvent::Pause { quanta: 1 }).class(), CtrlClass::Pause);
        assert_eq!(CtrlPayload::Pfc(PfcEvent::Resume).class(), CtrlClass::Resume);
        assert_eq!(CtrlPayload::GfcStage(2).class(), CtrlClass::Stage);
        assert_eq!(CtrlPayload::FcclWire(7).class(), CtrlClass::Credit);
        assert_eq!(CtrlPayload::QueueSample(9).class(), CtrlClass::Sample);
        assert_eq!(CtrlPayload::Bfc { flow: 3, pause: true }.class(), CtrlClass::Pause);
        assert_eq!(CtrlPayload::Bfc { flow: 3, pause: false }.class(), CtrlClass::Resume);
        let tag = DcfitTag { node: 1, port: 2, seq: 3 };
        assert_eq!(
            CtrlPayload::DcfitPfc { ev: PfcEvent::Pause { quanta: u16::MAX }, tag }.class(),
            CtrlClass::Pause
        );
        assert_eq!(CtrlPayload::DcfitPfc { ev: PfcEvent::Resume, tag }.class(), CtrlClass::Resume);
        // The out-of-band sample class is the only zero-byte class — the
        // invariant the per-class byte accounting leans on.
        assert_eq!(CtrlPayload::QueueSample(9).wire_bytes(), 0);
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(CtrlPayload::Pfc(PfcEvent::Resume).wire_bytes(), 64);
        assert_eq!(CtrlPayload::GfcStage(1).wire_bytes(), 64);
        assert_eq!(CtrlPayload::FcclWire(0).wire_bytes(), 8);
        assert_eq!(CtrlPayload::QueueSample(0).wire_bytes(), 0);
        assert_eq!(CtrlPayload::Bfc { flow: 9, pause: true }.wire_bytes(), 64);
        let tag = DcfitTag { node: 0, port: 0, seq: 0 };
        assert_eq!(CtrlPayload::DcfitPfc { ev: PfcEvent::Resume, tag }.wire_bytes(), 72);
    }

    #[test]
    fn codec_roundtrips_are_lossless() {
        let tag = DcfitTag { node: 77, port: 4, seq: 1000 };
        for p in [
            CtrlPayload::Pfc(PfcEvent::Pause { quanta: 0xFFFF }),
            CtrlPayload::Pfc(PfcEvent::Resume),
            CtrlPayload::GfcStage(13),
            CtrlPayload::FcclWire(64_000),
            CtrlPayload::QueueSample(123_456),
            CtrlPayload::Bfc { flow: u64::MAX - 17, pause: true },
            CtrlPayload::Bfc { flow: 0, pause: false },
            CtrlPayload::DcfitPfc { ev: PfcEvent::Pause { quanta: 0xFFFF }, tag },
            CtrlPayload::DcfitPfc { ev: PfcEvent::Resume, tag },
        ] {
            assert_eq!(p.codec_roundtrip(3), p, "payload {p:?} corrupted by codec");
        }
    }

    #[test]
    fn mismatch_names_both_schemes() {
        let mut tx = PfcTx(PfcSender::new(crate::pfc::PauseMode::UntilResume, Rate::from_gbps(10)));
        let err = tx.on_ctrl(CtrlPayload::GfcStage(1), Time::ZERO).unwrap_err();
        assert_eq!(err.payload_scheme, "buffer-based GFC");
        assert_eq!(err.sender_scheme, "PFC");
        let msg = err.to_string();
        assert!(msg.contains("does not match a PFC sender"), "{msg}");
        assert!(msg.contains("buffer-based GFC payload"), "{msg}");
    }
}
