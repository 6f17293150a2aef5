//! Unified flow-control configuration: one enum-of-structs carrying the
//! scheme *and* its parameters, and the factories that turn it into a
//! backend pair ([`AnyRx`] / [`AnyTx`]).
//!
//! Each variant owns every parameter its scheme needs, so adding a scheme
//! means one variant here, one in each backend enum, and the adapters in
//! its own module.

use crate::backend::{
    CtrlOutcome, CtrlPayload, DcfitTag, FcRx, FcTx, QueueCtx, SchemeMismatch, Sense, TxHead,
};
use crate::bfc::{BfcReceiver, BfcRx, BfcSender, BfcTx};
use crate::cbfc::BLOCK_BYTES;
use crate::conceptual::ConceptualSender;
use crate::dcfit::{DcfitReceiver, DcfitRx, DcfitSender, DcfitTx};
use crate::gfc_buffer::{GfcBufferReceiver, GfcBufferSender};
use crate::gfc_time::{GfcTimeReceiver, GfcTimeSender};
use crate::mapping::{LinearMapping, StageTable};
use crate::pfc::{PauseMode, PfcReceiver, PfcSender};
use crate::units::{Dur, Rate, Time};
use std::sync::Arc;

pub use crate::bfc::BfcConfig;

/// Identity of the port a backend instance is attached to — DCFIT stamps
/// it into minted tags; other schemes ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortIdent {
    /// Node index in the fabric.
    pub node: u32,
    /// Port index on the node.
    pub port: u16,
}

/// PFC parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfcParams {
    /// Ingress occupancy that asserts PAUSE.
    pub xoff: u64,
    /// Ingress occupancy that clears it.
    pub xon: u64,
}

/// CBFC parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CbfcParams {
    /// Credit advertisement period.
    pub period: Dur,
}

/// Buffer-based GFC parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GfcBufferParams {
    /// Buffer ceiling `B_m` of the stage table.
    pub bm: u64,
    /// First stage boundary `B_1`.
    pub b1: u64,
    /// Stage-width geometric ratio as (numerator, denominator); the
    /// paper's halving is (1, 2).
    pub stage_ratio: (u64, u64),
}

/// Time-based GFC parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GfcTimeParams {
    /// Linear-mapping start `B_0`.
    pub b0: u64,
    /// Buffer ceiling `B_m`.
    pub bm: u64,
    /// Credit advertisement period.
    pub period: Dur,
}

/// Conceptual GFC parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConceptualParams {
    /// Linear-mapping start `B_0`.
    pub b0: u64,
    /// Buffer ceiling `B_m`.
    pub bm: u64,
    /// Feedback latency of the idealized out-of-band channel.
    pub tau: Dur,
}

/// DCFIT parameters: PFC thresholds (the pause machinery is PFC's; the
/// tags ride on top).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcfitParams {
    /// Ingress occupancy that asserts PAUSE.
    pub xoff: u64,
    /// Ingress occupancy that clears it.
    pub xon: u64,
}

/// Flow-control scheme + parameters, the single source of truth a
/// network or spec carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FcConfig {
    /// Lossy: no flow control, drops on overflow.
    None,
    /// Priority Flow Control (hop-by-hop pause).
    Pfc(PfcParams),
    /// Credit-based flow control.
    Cbfc(CbfcParams),
    /// Buffer-based Gentle Flow Control (§5.1).
    GfcBuffer(GfcBufferParams),
    /// Time-based Gentle Flow Control (§5.2).
    GfcTime(GfcTimeParams),
    /// Conceptual GFC (§4, idealized feedback).
    Conceptual(ConceptualParams),
    /// Backpressure Flow Control (per-flow pause).
    Bfc(BfcConfig),
    /// DCFIT: PFC plus initial-trigger deadlock detection.
    Dcfit(DcfitParams),
}

impl FcConfig {
    /// PFC pausing at `xoff` and resuming at `xon` bytes.
    pub const fn pfc(xoff: u64, xon: u64) -> FcConfig {
        FcConfig::Pfc(PfcParams { xoff, xon })
    }

    /// CBFC advertising credits every `period`.
    pub const fn cbfc(period: Dur) -> FcConfig {
        FcConfig::Cbfc(CbfcParams { period })
    }

    /// Buffer-based GFC over `[b1, bm)` with the paper's halving stage
    /// ratio `(1, 2)`.
    pub const fn gfc_buffer(bm: u64, b1: u64) -> FcConfig {
        FcConfig::GfcBuffer(GfcBufferParams { bm, b1, stage_ratio: (1, 2) })
    }

    /// Time-based GFC: linear mapping over `[b0, bm)`, credit feedback
    /// every `period`.
    pub const fn gfc_time(b0: u64, bm: u64, period: Dur) -> FcConfig {
        FcConfig::GfcTime(GfcTimeParams { b0, bm, period })
    }

    /// Conceptual GFC: linear mapping over `[b0, bm)`, out-of-band
    /// feedback with latency `tau`.
    pub const fn conceptual(b0: u64, bm: u64, tau: Dur) -> FcConfig {
        FcConfig::Conceptual(ConceptualParams { b0, bm, tau })
    }

    /// DCFIT on PFC thresholds `xoff`/`xon`.
    pub const fn dcfit(xoff: u64, xon: u64) -> FcConfig {
        FcConfig::Dcfit(DcfitParams { xoff, xon })
    }

    /// Human-readable scheme name.
    pub fn name(&self) -> &'static str {
        match self {
            FcConfig::None => "lossy",
            FcConfig::Pfc(_) => "PFC",
            FcConfig::Cbfc(_) => "CBFC",
            FcConfig::GfcBuffer(_) => "buffer-based GFC",
            FcConfig::GfcTime(_) => "time-based GFC",
            FcConfig::Conceptual(_) => "conceptual GFC",
            FcConfig::Bfc(_) => "BFC",
            FcConfig::Dcfit(_) => "DCFIT",
        }
    }

    /// Whether the scheme stops a sender outright on a whole traffic
    /// class (the hold-and-wait ingredient of circular buffer deadlock).
    /// BFC's gate is per-flow and its backpressure chains terminate at
    /// hosts, so it does not count.
    pub fn has_hard_gate(&self) -> bool {
        matches!(self, FcConfig::Pfc(_) | FcConfig::Cbfc(_) | FcConfig::Dcfit(_))
    }

    /// Whether this is one of the paper's GFC variants.
    pub fn is_gfc(&self) -> bool {
        matches!(self, FcConfig::GfcBuffer(_) | FcConfig::GfcTime(_) | FcConfig::Conceptual(_))
    }

    /// The periodic-feedback interval, for time-triggered schemes.
    pub fn period(&self) -> Option<Dur> {
        match self {
            FcConfig::Cbfc(p) => Some(p.period),
            FcConfig::GfcTime(p) => Some(p.period),
            _ => None,
        }
    }

    /// Latency of the out-of-band feedback channel (zero for every wire
    /// scheme; the conceptual design's τ).
    pub fn oob_latency(&self) -> Dur {
        match self {
            FcConfig::Conceptual(p) => p.tau,
            _ => Dur::ZERO,
        }
    }

    /// Build the receiver backend for one watched ingress
    /// `(port, priority)`: [`FcBackends::rx`] of a one-port set.
    pub fn make_rx_any(
        &self,
        capacity: Rate,
        buffer_bytes: u64,
        mtu: u64,
        ident: PortIdent,
    ) -> AnyRx {
        FcBackends::new(*self, capacity, buffer_bytes).rx(mtu, ident)
    }

    /// Build the sender backend for one controlled egress
    /// `(port, priority)`: [`FcBackends::tx`] of a one-port set.
    pub fn make_tx_any(&self, capacity: Rate, buffer_bytes: u64, ident: PortIdent) -> AnyTx {
        FcBackends::new(*self, capacity, buffer_bytes).tx(ident)
    }
}

/// The backend factory of every port of one network: one [`FcConfig`] at
/// one link capacity and buffer size, plus what the scheme derives from
/// them, built once and shared by every port's backends — the
/// buffer-based GFC stage table, which every receiver and sender would
/// otherwise rebuild (a loop of 128-bit multiply-divides each).
#[derive(Debug, Clone)]
pub struct FcBackends {
    fc: FcConfig,
    capacity: Rate,
    buffer_bytes: u64,
    /// Buffer-based GFC's stage table; `None` for every other scheme.
    stages: Option<Arc<StageTable>>,
}

impl FcBackends {
    /// The factory for ports of `capacity` with `buffer_bytes` ingress
    /// buffers under `fc`.
    pub fn new(fc: FcConfig, capacity: Rate, buffer_bytes: u64) -> Self {
        let stages = match fc {
            FcConfig::GfcBuffer(GfcBufferParams { bm, b1, stage_ratio: (n, d) }) => {
                Some(Arc::new(StageTable::with_ratio(bm, b1, capacity, n, d)))
            }
            _ => None,
        };
        FcBackends { fc, capacity, buffer_bytes, stages }
    }

    /// The shared stage table, for buffer-based GFC.
    fn stages(&self) -> Arc<StageTable> {
        Arc::clone(self.stages.as_ref().expect("stage table built for buffer-based GFC"))
    }

    /// The receiver backend of one watched ingress `(port, priority)`
    /// carrying frames of at most `mtu` bytes.
    pub fn rx(&self, mtu: u64, ident: PortIdent) -> AnyRx {
        use crate::backend as be;
        match self.fc {
            FcConfig::None => AnyRx::None(be::NoneRx),
            FcConfig::Pfc(pfc) => AnyRx::Pfc(be::PfcRx(PfcReceiver::new(pfc))),
            FcConfig::Cbfc(_) => AnyRx::Cbfc(be::CbfcRx::new(self.buffer_bytes, mtu)),
            FcConfig::GfcBuffer(_) => {
                AnyRx::GfcBuffer(be::GfcBufferRx(GfcBufferReceiver::new(self.stages())))
            }
            FcConfig::GfcTime(GfcTimeParams { b0, period, .. }) => AnyRx::GfcTime(
                be::GfcTimeRx::new(GfcTimeReceiver::new(self.buffer_bytes, period), b0),
            ),
            FcConfig::Conceptual(ConceptualParams { b0, .. }) => {
                AnyRx::Conceptual(be::ConceptualRx::new(b0))
            }
            FcConfig::Bfc(cfg) => AnyRx::Bfc(BfcRx(BfcReceiver::new(cfg))),
            FcConfig::Dcfit(DcfitParams { xoff, xon }) => AnyRx::Dcfit(DcfitRx(
                DcfitReceiver::new(PfcParams { xoff, xon }, ident.node, ident.port),
            )),
        }
    }

    /// The sender backend of one controlled egress `(port, priority)`.
    /// (The egress rate limiter stays with the simulator; backends only
    /// program it via [`crate::backend::CtrlOutcome::set_rate`].)
    pub fn tx(&self, ident: PortIdent) -> AnyTx {
        use crate::backend as be;
        let capacity = self.capacity;
        match self.fc {
            FcConfig::None => AnyTx::None(be::NoneTx),
            FcConfig::Pfc(_) => {
                AnyTx::Pfc(be::PfcTx(PfcSender::new(PauseMode::UntilResume, capacity)))
            }
            FcConfig::Cbfc(_) => AnyTx::Cbfc(be::CbfcTx::new(self.buffer_bytes)),
            FcConfig::GfcBuffer(_) => {
                AnyTx::GfcBuffer(be::GfcBufferTx(GfcBufferSender::new(self.stages())))
            }
            FcConfig::GfcTime(GfcTimeParams { b0, bm, .. }) => {
                let blocks = self.buffer_bytes / BLOCK_BYTES;
                let mapping = LinearMapping::new(b0, bm, capacity);
                AnyTx::GfcTime(be::GfcTimeTx::new(GfcTimeSender::new(blocks, mapping), blocks))
            }
            FcConfig::Conceptual(ConceptualParams { b0, bm, .. }) => AnyTx::Conceptual(
                be::ConceptualTx(ConceptualSender::new(LinearMapping::new(b0, bm, capacity))),
            ),
            FcConfig::Bfc(_) => AnyTx::Bfc(BfcTx(BfcSender::new())),
            FcConfig::Dcfit(_) => AnyTx::Dcfit(DcfitTx(DcfitSender::new(
                PfcSender::new(PauseMode::UntilResume, capacity),
                ident.node,
            ))),
        }
    }
}

/// A receiver backend, one enum variant per scheme, so the per-packet
/// `on_arrival`/`on_drain` calls dispatch by match (statically, with the
/// common variants branch-predicted). A new scheme adds one variant.
#[derive(Debug, Clone)]
pub enum AnyRx {
    /// Lossy (no flow control).
    None(crate::backend::NoneRx),
    /// PFC ingress.
    Pfc(crate::backend::PfcRx),
    /// CBFC ingress.
    Cbfc(crate::backend::CbfcRx),
    /// Buffer-based GFC ingress.
    GfcBuffer(crate::backend::GfcBufferRx),
    /// Time-based GFC ingress.
    GfcTime(crate::backend::GfcTimeRx),
    /// Conceptual GFC ingress.
    Conceptual(crate::backend::ConceptualRx),
    /// BFC ingress.
    Bfc(BfcRx),
    /// DCFIT ingress.
    Dcfit(DcfitRx),
}

macro_rules! any_rx {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            AnyRx::None($inner) => $body,
            AnyRx::Pfc($inner) => $body,
            AnyRx::Cbfc($inner) => $body,
            AnyRx::GfcBuffer($inner) => $body,
            AnyRx::GfcTime($inner) => $body,
            AnyRx::Conceptual($inner) => $body,
            AnyRx::Bfc($inner) => $body,
            AnyRx::Dcfit($inner) => $body,
        }
    };
}

impl FcRx for AnyRx {
    fn scheme(&self) -> &'static str {
        any_rx!(self, rx => rx.scheme())
    }

    #[inline]
    fn on_arrival(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        any_rx!(self, rx => rx.on_arrival(ctx, out));
    }

    #[inline]
    fn on_drain(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        any_rx!(self, rx => rx.on_drain(ctx, out));
    }

    fn periodic(&mut self) -> Option<CtrlPayload> {
        any_rx!(self, rx => rx.periodic())
    }

    #[inline]
    fn on_host_delivery(&mut self, bytes: u64) {
        any_rx!(self, rx => rx.on_host_delivery(bytes));
    }

    fn sense(&self, payload: &CtrlPayload, ing_bytes: u64) -> Sense {
        any_rx!(self, rx => rx.sense(payload, ing_bytes))
    }

    #[inline]
    fn wants_fwd_tag(&self) -> bool {
        any_rx!(self, rx => rx.wants_fwd_tag())
    }

    fn messages_sent(&self) -> u64 {
        any_rx!(self, rx => rx.messages_sent())
    }
}

/// A sender backend, one enum variant per scheme — the counterpart of
/// [`AnyRx`] for the hot `hard_open`/`hard_blocked`/`on_sent` gate calls.
#[derive(Debug, Clone)]
pub enum AnyTx {
    /// Lossy (no flow control).
    None(crate::backend::NoneTx),
    /// PFC egress.
    Pfc(crate::backend::PfcTx),
    /// CBFC egress.
    Cbfc(crate::backend::CbfcTx),
    /// Buffer-based GFC egress.
    GfcBuffer(crate::backend::GfcBufferTx),
    /// Time-based GFC egress.
    GfcTime(crate::backend::GfcTimeTx),
    /// Conceptual GFC egress.
    Conceptual(crate::backend::ConceptualTx),
    /// BFC egress.
    Bfc(BfcTx),
    /// DCFIT egress.
    Dcfit(DcfitTx),
}

macro_rules! any_tx {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            AnyTx::None($inner) => $body,
            AnyTx::Pfc($inner) => $body,
            AnyTx::Cbfc($inner) => $body,
            AnyTx::GfcBuffer($inner) => $body,
            AnyTx::GfcTime($inner) => $body,
            AnyTx::Conceptual($inner) => $body,
            AnyTx::Bfc($inner) => $body,
            AnyTx::Dcfit($inner) => $body,
        }
    };
}

impl FcTx for AnyTx {
    fn scheme(&self) -> &'static str {
        any_tx!(self, tx => tx.scheme())
    }

    fn on_ctrl(&mut self, payload: CtrlPayload, now: Time) -> Result<CtrlOutcome, SchemeMismatch> {
        any_tx!(self, tx => tx.on_ctrl(payload, now))
    }

    #[inline]
    fn hard_open(&mut self, head: &TxHead, now: Time) -> bool {
        any_tx!(self, tx => tx.hard_open(head, now))
    }

    #[inline]
    fn hard_blocked(&self, head: &TxHead, now: Time) -> bool {
        any_tx!(self, tx => tx.hard_blocked(head, now))
    }

    #[inline]
    fn on_sent(&mut self, head: &TxHead) {
        any_tx!(self, tx => tx.on_sent(head));
    }

    fn hold_and_wait_episodes(&self) -> u64 {
        any_tx!(self, tx => tx.hold_and_wait_episodes())
    }

    fn applied_tag(&self) -> Option<DcfitTag> {
        any_tx!(self, tx => tx.applied_tag())
    }

    fn detections(&self) -> u64 {
        any_tx!(self, tx => tx.detections())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CtrlPayload, QueueCtx, TxHead};
    use crate::units::Time;

    const IDENT: PortIdent = PortIdent { node: 3, port: 1 };

    fn all_configs() -> Vec<FcConfig> {
        vec![
            FcConfig::None,
            FcConfig::pfc(280_000, 277_000),
            FcConfig::cbfc(Dur::from_micros(52)),
            FcConfig::gfc_buffer(300_000, 281_000),
            FcConfig::gfc_time(100_000, 300_000, Dur::from_micros(52)),
            FcConfig::conceptual(50_000, 100_000, Dur::from_micros(25)),
            FcConfig::Bfc(BfcConfig::derive(300_000, 1500)),
            FcConfig::dcfit(280_000, 277_000),
        ]
    }

    #[test]
    fn constructors_equal_their_struct_literals() {
        let cases = [
            (FcConfig::pfc(10, 5), FcConfig::Pfc(PfcParams { xoff: 10, xon: 5 })),
            (FcConfig::cbfc(Dur(7)), FcConfig::Cbfc(CbfcParams { period: Dur(7) })),
            (
                FcConfig::gfc_buffer(9, 4),
                FcConfig::GfcBuffer(GfcBufferParams { bm: 9, b1: 4, stage_ratio: (1, 2) }),
            ),
            (
                FcConfig::gfc_time(1, 2, Dur(3)),
                FcConfig::GfcTime(GfcTimeParams { b0: 1, bm: 2, period: Dur(3) }),
            ),
            (
                FcConfig::conceptual(1, 2, Dur(3)),
                FcConfig::Conceptual(ConceptualParams { b0: 1, bm: 2, tau: Dur(3) }),
            ),
            (FcConfig::dcfit(10, 5), FcConfig::Dcfit(DcfitParams { xoff: 10, xon: 5 })),
        ];
        for (built, literal) in cases {
            assert_eq!(built, literal);
        }
    }

    #[test]
    fn classification() {
        // (has_hard_gate, is_gfc) per scheme, in `all_configs` order.
        let expect = [
            (false, false), // lossy
            (true, false),  // PFC
            (true, false),  // CBFC
            (false, true),  // buffer-based GFC
            (false, true),  // time-based GFC
            (false, true),  // conceptual GFC
            (false, false), // BFC: per-flow gate only
            (true, false),  // DCFIT
        ];
        for (fc, (hard, gfc)) in all_configs().into_iter().zip(expect) {
            assert_eq!(fc.has_hard_gate(), hard, "{}", fc.name());
            assert_eq!(fc.is_gfc(), gfc, "{}", fc.name());
        }
    }

    #[test]
    fn factories_build_matching_pairs() {
        // Every scheme's own payloads apply cleanly; every receiver
        // reports the same scheme name as its sender.
        let cap = Rate::from_gbps(10);
        for fc in all_configs() {
            let mut rx = fc.make_rx_any(cap, 300_000, 1500, IDENT);
            let mut tx = fc.make_tx_any(cap, 300_000, IDENT);
            assert_eq!(rx.scheme(), tx.scheme(), "{}", fc.name());
            let mut out = Vec::new();
            let ctx = QueueCtx { q_bytes: 290_000, pkt_bytes: 1500, flow: 1, inherited_tag: None };
            rx.on_arrival(&ctx, &mut out);
            if let Some(p) = rx.periodic() {
                out.push(p);
            }
            for payload in out {
                tx.on_ctrl(payload, Time::ZERO).unwrap_or_else(|e| panic!("{}: {e}", fc.name()));
            }
            // Gate queries answer for both polarities without panicking.
            let head = TxHead { bytes: 1500, flow: 1 };
            let _ = tx.hard_open(&head, Time::ZERO);
            let _ = tx.hard_blocked(&head, Time::ZERO);
        }
    }

    #[test]
    fn every_cross_scheme_payload_is_a_typed_error() {
        // The full (sender scheme × payload scheme) matrix: every
        // off-diagonal cell errors, naming both sides.
        let cap = Rate::from_gbps(10);
        let configs = all_configs();
        // One representative payload per scheme, generated by the
        // matching receiver where possible.
        let payloads: Vec<(&'static str, CtrlPayload)> = vec![
            ("PFC", CtrlPayload::Pfc(crate::pfc::PfcEvent::Resume)),
            ("buffer-based GFC", CtrlPayload::GfcStage(1)),
            ("CBFC / time-based GFC", CtrlPayload::FcclWire(9)),
            ("conceptual GFC", CtrlPayload::QueueSample(4)),
            ("BFC", CtrlPayload::Bfc { flow: 8, pause: true }),
            (
                "DCFIT",
                CtrlPayload::DcfitPfc {
                    ev: crate::pfc::PfcEvent::Resume,
                    tag: crate::backend::DcfitTag { node: 0, port: 0, seq: 0 },
                },
            ),
        ];
        for fc in &configs {
            let mut tx = fc.make_tx_any(cap, 300_000, IDENT);
            for (pname, payload) in &payloads {
                let compatible = match fc {
                    FcConfig::None => false,
                    FcConfig::Pfc(_) => *pname == "PFC",
                    FcConfig::Cbfc(_) | FcConfig::GfcTime(_) => *pname == "CBFC / time-based GFC",
                    FcConfig::GfcBuffer(_) => *pname == "buffer-based GFC",
                    FcConfig::Conceptual(_) => *pname == "conceptual GFC",
                    FcConfig::Bfc(_) => *pname == "BFC",
                    FcConfig::Dcfit(_) => *pname == "DCFIT",
                };
                let res = tx.on_ctrl(*payload, Time::ZERO);
                if compatible {
                    assert!(res.is_ok(), "{} should accept {pname}", fc.name());
                } else {
                    let err = res.unwrap_err();
                    assert_eq!(err.payload_scheme, *pname);
                    assert_eq!(err.sender_scheme, tx.scheme());
                    let msg = err.to_string();
                    assert!(
                        msg.contains(err.payload_scheme)
                            && msg.contains(&format!(
                                "does not match a {} sender",
                                err.sender_scheme
                            )),
                        "{msg}"
                    );
                }
            }
        }
    }
}
