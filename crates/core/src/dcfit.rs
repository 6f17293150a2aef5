//! DCFIT: PFC with in-data-plane deadlock detection by initial trigger.
//!
//! DCFIT (arXiv 2009.13446) leaves PFC's pause machinery untouched and
//! adds a *tag* to every PAUSE identifying the ingress whose XOFF
//! crossing originated the pause chain. A switch whose own congestion is
//! caused by a paused egress does not mint a new tag — it *inherits* the
//! tag applied at that egress, so the originator's identity rides the
//! chain hop by hop. When a PAUSE arrives carrying the receiving node's
//! own identity, the chain has closed on itself: a circular buffer wait
//! exists *right now*, and the sender reports a runtime deadlock
//! detection. Resumes carry (and clear) the tag of the pause they end.
//!
//! This is pure detection — the gate behaves exactly like PFC, deadlocks
//! still wedge the fabric, and throughput is PFC's. What DCFIT buys is
//! the witness: the detection fires only when a circular wait actually
//! forms, so runtime detections must be a subset of the scenarios the
//! static GFC011/GFC012 susceptibility lints flag (checked in
//! `gfc-verify`'s agreement tests).

use crate::backend::{
    CtrlOutcome, CtrlPayload, DcfitTag, FcRx, FcTx, QueueCtx, SchemeMismatch, Sense, TxHead,
};
use crate::pfc::{PfcConfig, PfcEvent, PfcReceiver, PfcSender};
use crate::units::Time;

/// Ingress-side DCFIT state: a PFC threshold watcher plus tag minting /
/// inheritance.
#[derive(Debug, Clone)]
pub struct DcfitReceiver {
    pfc: PfcReceiver,
    node: u32,
    port: u16,
    next_seq: u16,
    last_tag: Option<DcfitTag>,
    refreshes: u64,
}

impl DcfitReceiver {
    /// New receiver watching with `cfg` thresholds at ingress
    /// `(node, port)` (the identity stamped into minted tags).
    pub fn new(cfg: PfcConfig, node: u32, port: u16) -> DcfitReceiver {
        DcfitReceiver {
            pfc: PfcReceiver::new(cfg),
            node,
            port,
            next_seq: 0,
            last_tag: None,
            refreshes: 0,
        }
    }

    /// Queue update with optional tag inheritance: `inherited` is the tag
    /// applied at the egress this ingress's head-of-line traffic forwards
    /// through (if that egress is itself paused). Returns the event plus
    /// the tag to put on the wire.
    pub fn on_queue_update(
        &mut self,
        q_bytes: u64,
        inherited: Option<DcfitTag>,
    ) -> Option<(PfcEvent, DcfitTag)> {
        if let Some(ev) = self.pfc.on_queue_update(q_bytes) {
            let tag = match ev {
                PfcEvent::Pause { .. } => {
                    let tag = inherited.unwrap_or_else(|| {
                        let seq = self.next_seq;
                        self.next_seq = self.next_seq.wrapping_add(1);
                        DcfitTag { node: self.node, port: self.port, seq }
                    });
                    self.last_tag = Some(tag);
                    tag
                }
                // The resume clears the pause it ends, so it carries that
                // pause's tag (own identity if the book was somehow empty).
                PfcEvent::Resume => self.last_tag.take().unwrap_or(DcfitTag {
                    node: self.node,
                    port: self.port,
                    seq: 0,
                }),
            };
            return Some((ev, tag));
        }
        // Pause refresh: a pause is outstanding and the egress this
        // traffic forwards through has since been paused under a
        // *different* chain. Re-advertise the pause carrying the
        // inherited tag, so chains keep propagating through a region
        // whose queues froze above XOFF before the upstream pause landed
        // (real PFC re-sends pauses periodically; DCFIT's tags ride those
        // refreshes). Emitting only on a tag change keeps this quiescent:
        // a frozen wedge stops producing pause events, so applied tags
        // stop changing and refreshes stop with them.
        if self.pfc.pause_asserted() {
            if let Some(tag) = inherited {
                if self.last_tag != Some(tag) {
                    self.last_tag = Some(tag);
                    self.refreshes += 1;
                    return Some((PfcEvent::Pause { quanta: u16::MAX }, tag));
                }
            }
        }
        None
    }

    /// Messages generated so far (threshold crossings plus refreshes).
    pub fn messages_sent(&self) -> u64 {
        self.pfc.messages_sent() + self.refreshes
    }
}

/// Egress-side DCFIT state: a PFC pause gate plus the applied tag and the
/// detection counter.
#[derive(Debug, Clone)]
pub struct DcfitSender {
    pfc: PfcSender,
    node: u32,
    applied: Option<DcfitTag>,
    detections: u64,
}

impl DcfitSender {
    /// New sender at `node` wrapping the given PFC pause state.
    pub fn new(pfc: PfcSender, node: u32) -> DcfitSender {
        DcfitSender { pfc, node, applied: None, detections: 0 }
    }

    /// Apply a tagged PFC event; returns the detection witness if the
    /// tag names this node as the chain's originator.
    pub fn on_event(&mut self, ev: PfcEvent, tag: DcfitTag, now: Time) -> Option<DcfitTag> {
        self.pfc.on_event(ev, now);
        match ev {
            PfcEvent::Pause { .. } => {
                self.applied = Some(tag);
                if tag.node == self.node {
                    self.detections += 1;
                    return Some(tag);
                }
                None
            }
            PfcEvent::Resume => {
                self.applied = None;
                None
            }
        }
    }

    /// Whether transmission is paused at `now`.
    pub fn is_paused(&self, now: Time) -> bool {
        self.pfc.is_paused(now)
    }

    /// The tag of the currently applied pause, if any.
    pub fn applied_tag(&self) -> Option<DcfitTag> {
        self.applied
    }

    /// Circular-wait detections witnessed at this egress.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Pause episodes entered (PFC accounting).
    pub fn pauses_entered(&self) -> u64 {
        self.pfc.pauses_entered()
    }
}

/// DCFIT receiver backend adapter. Requests the forward-egress tag via
/// [`FcRx::wants_fwd_tag`].
#[derive(Debug, Clone)]
pub struct DcfitRx(pub DcfitReceiver);

impl DcfitRx {
    fn update(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        if let Some((ev, tag)) = self.0.on_queue_update(ctx.q_bytes, ctx.inherited_tag) {
            out.push(CtrlPayload::DcfitPfc { ev, tag });
        }
    }
}

impl FcRx for DcfitRx {
    fn scheme(&self) -> &'static str {
        "DCFIT"
    }
    fn on_arrival(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        self.update(ctx, out);
    }
    fn on_drain(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        self.update(ctx, out);
    }
    fn sense(&self, payload: &CtrlPayload, _ing_bytes: u64) -> Sense {
        match payload {
            CtrlPayload::DcfitPfc { ev: PfcEvent::Pause { .. }, .. } => Sense::AssertHard,
            _ => Sense::Clear,
        }
    }
    fn wants_fwd_tag(&self) -> bool {
        true
    }
    fn messages_sent(&self) -> u64 {
        self.0.messages_sent()
    }
}

/// DCFIT sender backend adapter.
#[derive(Debug, Clone)]
pub struct DcfitTx(pub DcfitSender);

impl FcTx for DcfitTx {
    fn scheme(&self) -> &'static str {
        "DCFIT"
    }
    fn on_ctrl(&mut self, payload: CtrlPayload, now: Time) -> Result<CtrlOutcome, SchemeMismatch> {
        match payload {
            CtrlPayload::DcfitPfc { ev, tag } => {
                let detection = self.0.on_event(ev, tag, now);
                Ok(CtrlOutcome { opened: !self.0.is_paused(now), set_rate: None, detection })
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
    fn applied_tag(&self) -> Option<DcfitTag> {
        self.0.applied_tag()
    }
    fn detections(&self) -> u64 {
        self.0.detections()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfc::PauseMode;
    use crate::units::Rate;

    fn rx(node: u32, port: u16) -> DcfitReceiver {
        DcfitReceiver::new(PfcConfig::new(3000, 2000), node, port)
    }

    #[test]
    fn fresh_tag_when_uninherited_and_sequences_advance() {
        let mut r = rx(5, 2);
        let (ev, tag) = r.on_queue_update(3000, None).unwrap();
        assert!(matches!(ev, PfcEvent::Pause { .. }));
        assert_eq!(tag, DcfitTag { node: 5, port: 2, seq: 0 });
        let (ev, tag2) = r.on_queue_update(1000, None).unwrap();
        assert!(matches!(ev, PfcEvent::Resume));
        assert_eq!(tag2, tag, "resume carries the pause's tag");
        let (_, tag3) = r.on_queue_update(4000, None).unwrap();
        assert_eq!(tag3.seq, 1, "next chain gets a fresh sequence");
    }

    #[test]
    fn inherited_tag_rides_the_chain() {
        let origin = DcfitTag { node: 9, port: 0, seq: 7 };
        let mut r = rx(5, 2);
        let (_, tag) = r.on_queue_update(3000, Some(origin)).unwrap();
        assert_eq!(tag, origin, "congested-by-pause switch propagates, not mints");
        let (_, tag) = r.on_queue_update(1000, None).unwrap();
        assert_eq!(tag, origin, "resume clears the inherited pause");
    }

    #[test]
    fn detection_fires_only_on_own_tag() {
        let pfc = || PfcSender::new(PauseMode::UntilResume, Rate::from_gbps(10));
        let mut tx = DcfitSender::new(pfc(), 5);
        let foreign = DcfitTag { node: 9, port: 0, seq: 0 };
        let own = DcfitTag { node: 5, port: 3, seq: 0 };
        assert!(tx.on_event(PfcEvent::Pause { quanta: u16::MAX }, foreign, Time(1)).is_none());
        assert!(tx.is_paused(Time(1)));
        assert_eq!(tx.applied_tag(), Some(foreign));
        assert!(tx.on_event(PfcEvent::Resume, foreign, Time(2)).is_none());
        assert_eq!(tx.applied_tag(), None);
        // A pause whose chain started at this very node: the circle closed.
        assert_eq!(tx.on_event(PfcEvent::Pause { quanta: u16::MAX }, own, Time(3)), Some(own));
        assert_eq!(tx.detections(), 1);
    }

    #[test]
    fn three_node_ring_chain_closes() {
        // Minimal end-to-end walk of the mechanism: ingress congestion at
        // node 0 starts a chain; nodes 2 and 1 inherit; the pause arriving
        // back at node 0's egress carries node 0's tag.
        let pfc = || PfcSender::new(PauseMode::UntilResume, Rate::from_gbps(10));
        let mut rx0 = rx(0, 0);
        let mut rx2 = rx(2, 0);
        let mut rx1 = rx(1, 0);
        let mut tx0 = DcfitSender::new(pfc(), 0);

        let (_, t0) = rx0.on_queue_update(3000, None).unwrap();
        // Node 2's egress toward node 0 is paused with t0; node 2's
        // ingress congests and inherits it — and so on around the ring.
        let (_, t2) = rx2.on_queue_update(3000, Some(t0)).unwrap();
        let (_, t1) = rx1.on_queue_update(3000, Some(t2)).unwrap();
        assert_eq!(t1, t0);
        // The chain reaches node 0's own upstream-facing egress.
        let hit = tx0.on_event(PfcEvent::Pause { quanta: u16::MAX }, t1, Time(10));
        assert_eq!(hit, Some(t0), "circular wait witnessed at the originator");
    }

    #[test]
    fn refresh_re_advertises_on_inherited_tag_change() {
        let origin = DcfitTag { node: 9, port: 0, seq: 7 };
        let mut r = rx(5, 2);
        // Crossing with nothing to inherit: mints its own tag.
        let (_, own) = r.on_queue_update(3000, None).unwrap();
        assert_eq!(own.node, 5);
        // Still above XON, same (absent) inheritance: quiescent.
        assert!(r.on_queue_update(2500, None).is_none());
        // The forward egress got paused under a foreign chain: refresh.
        let (ev, tag) = r.on_queue_update(2500, Some(origin)).unwrap();
        assert!(matches!(ev, PfcEvent::Pause { .. }));
        assert_eq!(tag, origin);
        // Unchanged inheritance: no repeat.
        assert!(r.on_queue_update(2500, Some(origin)).is_none());
        // Resume carries the refreshed chain's tag.
        let (ev, tag) = r.on_queue_update(1000, None).unwrap();
        assert!(matches!(ev, PfcEvent::Resume));
        assert_eq!(tag, origin);
        assert_eq!(r.messages_sent(), 3, "pause + refresh + resume");
    }
}
