//! Backpressure Flow Control (BFC): per-hop, per-flow pause/resume.
//!
//! BFC (Goyal et al., arXiv 1909.09923) keeps PFC's hop-by-hop hard stop
//! but moves the granularity from the whole priority class to individual
//! flows: the upstream pauses only the flows actually building queue,
//! so victims of head-of-line blocking keep flowing and the circular
//! buffer-wait that wedges PFC cannot form out of innocent-bystander
//! traffic alone.
//!
//! ## Model and simplifications
//!
//! The real design assigns each active flow a dedicated physical queue.
//! This simulator keeps the existing shared FIFO per `(port, priority)`
//! and models only the *signaling*: per-flow byte accounting at the
//! ingress, per-flow pause bits at the upstream egress. Two consequences:
//!
//! * A paused flow's packets already in the shared FIFO still block
//!   packets behind them (HOL blocking a real BFC switch would not have).
//!   Reported FCTs for BFC are therefore pessimistic.
//! * Because pause decisions key on the flow — and the host sink drains
//!   instantly, so the *final* hop never pauses anything — every per-flow
//!   backpressure chain terminates at a host and is acyclic: the scheme
//!   is deadlock-free in this model even on routing cycles. Under extreme
//!   incast the shared buffer can still overflow before per-flow pauses
//!   bite; overflow drops (not asserted away) are reported.
//!
//! Thresholds: a flow is paused when its own footprint crosses
//! `flow_xoff` **or** the aggregate queue crosses `agg_xoff` (the
//! aggregate backstop bounds total occupancy the way PFC's XOFF does).
//! Resume requires the flow to fall to `flow_xon` *and* the aggregate to
//! fall to `agg_xon`; an aggregate fall can therefore release several
//! flows at once, so the drain path returns a *batch* of resumes.

use crate::backend::{
    CtrlOutcome, CtrlPayload, FcRx, FcTx, QueueCtx, SchemeMismatch, Sense, TxHead,
};
use crate::units::Time;
use std::collections::{BTreeMap, BTreeSet};

/// BFC threshold set (bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfcConfig {
    /// Pause a flow when its own ingress footprint reaches this.
    pub flow_xoff: u64,
    /// Resume a paused flow when its footprint falls to this (and the
    /// aggregate allows).
    pub flow_xon: u64,
    /// Pause any arriving flow while the aggregate queue is at or above
    /// this (the PFC-style backstop that bounds total occupancy).
    pub agg_xoff: u64,
    /// Aggregate level below which pending resumes are released.
    pub agg_xon: u64,
}

impl BfcConfig {
    /// Derive thresholds from the fabric's per-port buffer and MTU:
    /// per-flow XOFF at 8 MTU (enough for a healthy flow's BDP share,
    /// small enough that one flow can't hog the buffer), XON one MTU
    /// below it; aggregate XOFF leaves 8 MTU of headroom for in-flight
    /// arrivals (covering C·τ at 10 Gb/s with microsecond-scale control
    /// latencies, per the GFC004 headroom lint), XON two MTU below that.
    pub fn derive(buffer_bytes: u64, mtu: u64) -> BfcConfig {
        let flow_xoff = (8 * mtu).min(buffer_bytes / 2).max(mtu);
        let flow_xon = flow_xoff.saturating_sub(mtu).max(1);
        let agg_xoff = buffer_bytes.saturating_sub(8 * mtu).max(flow_xoff);
        let agg_xon = agg_xoff.saturating_sub(2 * mtu).max(flow_xon);
        BfcConfig { flow_xoff, flow_xon, agg_xoff, agg_xon }
    }

    /// Threshold sanity: XON at or below XOFF on both axes, nothing zero.
    pub fn is_valid(&self) -> bool {
        self.flow_xon >= 1
            && self.flow_xon <= self.flow_xoff
            && self.agg_xon <= self.agg_xoff
            && self.flow_xoff <= self.agg_xoff
    }
}

/// Ingress-side BFC state: per-flow byte accounting plus the pause book.
///
/// Iteration orders are `BTreeMap`/`BTreeSet` (flow id order) so batch
/// resumes are emitted deterministically.
#[derive(Debug, Clone)]
pub struct BfcReceiver {
    cfg: BfcConfig,
    flow_bytes: BTreeMap<u64, u64>,
    paused: BTreeSet<u64>,
    agg_bytes: u64,
    messages_sent: u64,
}

impl BfcReceiver {
    /// New receiver with the given thresholds.
    pub fn new(cfg: BfcConfig) -> BfcReceiver {
        BfcReceiver {
            cfg,
            flow_bytes: BTreeMap::new(),
            paused: BTreeSet::new(),
            agg_bytes: 0,
            messages_sent: 0,
        }
    }

    /// Account an arrival of `bytes` for `flow`; returns `true` when the
    /// flow must be paused (emit a pause upstream).
    pub fn flow_arrived(&mut self, flow: u64, bytes: u64) -> bool {
        self.agg_bytes += bytes;
        let fb = self.flow_bytes.entry(flow).or_insert(0);
        *fb += bytes;
        let should_pause = !self.paused.contains(&flow)
            && (*fb >= self.cfg.flow_xoff || self.agg_bytes >= self.cfg.agg_xoff);
        if should_pause {
            self.paused.insert(flow);
            self.messages_sent += 1;
        }
        should_pause
    }

    /// Account a drain of `bytes` for `flow`; appends the flows to
    /// *resume* (in flow-id order) to `resumed`. An aggregate fall can
    /// release flows other than the draining one, hence the batch.
    pub fn flow_drained(&mut self, flow: u64, bytes: u64, resumed: &mut Vec<u64>) {
        self.agg_bytes = self.agg_bytes.saturating_sub(bytes);
        if let Some(fb) = self.flow_bytes.get_mut(&flow) {
            *fb = fb.saturating_sub(bytes);
            if *fb == 0 {
                self.flow_bytes.remove(&flow);
            }
        }
        if self.agg_bytes > self.cfg.agg_xon {
            // Aggregate backstop still engaged: nothing resumes, even a
            // flow that individually fell to zero.
            return;
        }
        let before = resumed.len();
        for &f in &self.paused {
            let fb = self.flow_bytes.get(&f).copied().unwrap_or(0);
            if fb <= self.cfg.flow_xon {
                resumed.push(f);
            }
        }
        for &f in &resumed[before..] {
            self.paused.remove(&f);
        }
        self.messages_sent += (resumed.len() - before) as u64;
    }

    /// Flows currently paused at this ingress.
    pub fn paused_flows(&self) -> usize {
        self.paused.len()
    }

    /// Aggregate occupancy this receiver believes in (bytes).
    pub fn agg_bytes(&self) -> u64 {
        self.agg_bytes
    }
}

impl FcRx for BfcReceiver {
    fn scheme(&self) -> &'static str {
        "BFC"
    }
    fn on_arrival(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        if self.flow_arrived(ctx.flow, ctx.pkt_bytes) {
            out.push(CtrlPayload::Bfc { flow: ctx.flow, pause: true });
        }
    }
    fn on_drain(&mut self, ctx: &QueueCtx, out: &mut Vec<CtrlPayload>) {
        let mut resumed = Vec::new();
        self.flow_drained(ctx.flow, ctx.pkt_bytes, &mut resumed);
        out.extend(resumed.into_iter().map(|flow| CtrlPayload::Bfc { flow, pause: false }));
    }
    fn sense(&self, payload: &CtrlPayload, _ing_bytes: u64) -> Sense {
        match payload {
            CtrlPayload::Bfc { pause: true, .. } => Sense::AssertHard,
            _ => Sense::Clear,
        }
    }
    fn messages_sent(&self) -> u64 {
        self.messages_sent
    }
}

/// Egress-side BFC state: the set of flows the downstream has paused.
#[derive(Debug, Clone, Default)]
pub struct BfcSender {
    paused: BTreeSet<u64>,
    pauses_entered: u64,
}

impl BfcSender {
    /// New sender with every flow runnable.
    pub fn new() -> BfcSender {
        BfcSender::default()
    }

    /// Apply a pause/resume for `flow`; returns `true` if the flow is now
    /// runnable.
    pub fn set_paused(&mut self, flow: u64, pause: bool) -> bool {
        if pause {
            if self.paused.insert(flow) {
                self.pauses_entered += 1;
            }
        } else {
            self.paused.remove(&flow);
        }
        !pause
    }

    /// Whether `flow` may transmit.
    pub fn may_send(&self, flow: u64) -> bool {
        !self.paused.contains(&flow)
    }

    /// Distinct pause episodes entered (per-flow).
    pub fn pauses_entered(&self) -> u64 {
        self.pauses_entered
    }
}

/// The hard gate is per-flow: it answers for the specific head-of-line
/// packet it is asked about.
impl FcTx for BfcSender {
    fn scheme(&self) -> &'static str {
        "BFC"
    }
    fn on_ctrl(&mut self, payload: CtrlPayload, _now: Time) -> Result<CtrlOutcome, SchemeMismatch> {
        match payload {
            CtrlPayload::Bfc { flow, pause } => Ok(CtrlOutcome::gate(self.set_paused(flow, pause))),
            other => Err(SchemeMismatch::new(other, self.scheme())),
        }
    }
    fn hard_open(&mut self, head: &TxHead, _now: Time) -> bool {
        self.may_send(head.flow)
    }
    fn hard_blocked(&self, head: &TxHead, _now: Time) -> bool {
        !self.may_send(head.flow)
    }
    fn hold_and_wait_episodes(&self) -> u64 {
        self.pauses_entered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BfcConfig {
        BfcConfig { flow_xoff: 3000, flow_xon: 2000, agg_xoff: 10_000, agg_xon: 8000 }
    }

    #[test]
    fn derive_is_valid_across_sizes() {
        for (buf, mtu) in [(300_000, 1500), (12_000, 1500), (4096, 1024), (1500, 1500)] {
            let c = BfcConfig::derive(buf, mtu);
            assert!(c.is_valid(), "derive({buf},{mtu}) gave invalid {c:?}");
        }
    }

    #[test]
    fn per_flow_pause_and_resume() {
        let mut rx = BfcReceiver::new(cfg());
        assert!(!rx.flow_arrived(7, 1500));
        assert!(rx.flow_arrived(7, 1500), "second MTU crosses flow_xoff");
        assert!(!rx.flow_arrived(7, 1500), "already paused: no duplicate message");
        // A different small flow is untouched.
        assert!(!rx.flow_arrived(8, 1500));
        let mut resumed = Vec::new();
        rx.flow_drained(7, 1500, &mut resumed);
        assert!(resumed.is_empty(), "still above flow_xon");
        rx.flow_drained(7, 1500, &mut resumed);
        assert_eq!(resumed, vec![7], "fell to flow_xon with aggregate clear");
        assert_eq!(rx.paused_flows(), 0);
        assert_eq!(rx.messages_sent(), 2); // one pause + one resume
    }

    #[test]
    fn aggregate_backstop_pauses_and_batch_resumes() {
        let mut rx = BfcReceiver::new(cfg());
        // Four distinct flows fill the aggregate without any crossing
        // flow_xoff individually (2500 < 3000 each).
        for f in 0..3 {
            assert!(!rx.flow_arrived(f, 2500));
        }
        assert!(rx.flow_arrived(3, 2500), "aggregate hits 10000 = agg_xoff");
        // More arrivals from the *other* flows now pause them too.
        assert!(rx.flow_arrived(0, 100));
        assert!(rx.flow_arrived(1, 100));
        assert_eq!(rx.paused_flows(), 3);
        // The paused flows sit at 2600/2600/2500, above flow_xon 2000.
        // Drain each below its own threshold first while the aggregate is
        // still high — nothing resumes until the backstop clears.
        let mut resumed = Vec::new();
        rx.flow_drained(0, 700, &mut resumed); // flow 0 → 1900, agg 9500 > agg_xon
        assert!(resumed.is_empty(), "aggregate backstop still engaged");
        rx.flow_drained(1, 700, &mut resumed); // flow 1 → 1900, agg 8800 > agg_xon
        assert!(resumed.is_empty());
        rx.flow_drained(2, 2500, &mut resumed); // agg 6300 <= agg_xon: release
        assert_eq!(resumed, vec![0, 1], "batch resume in flow-id order");
        assert_eq!(rx.paused_flows(), 1, "flow 3 still above flow_xon");
    }

    #[test]
    fn sender_gate_is_per_flow() {
        let mut tx = BfcSender::new();
        assert!(tx.may_send(1) && tx.may_send(2));
        assert!(!tx.set_paused(1, true));
        assert!(!tx.may_send(1));
        assert!(tx.may_send(2), "other flows unaffected");
        assert!(tx.set_paused(1, false));
        assert!(tx.may_send(1));
        // Duplicate pauses count one episode.
        tx.set_paused(5, true);
        tx.set_paused(5, true);
        assert_eq!(tx.pauses_entered(), 2);
    }

    #[test]
    fn backend_emits_batch_resumes() {
        let mut rx = BfcReceiver::new(cfg());
        let mut out = Vec::new();
        let ctx =
            |flow, pkt_bytes, q| QueueCtx { q_bytes: q, pkt_bytes, flow, inherited_tag: None };
        for f in 0..4u64 {
            rx.on_arrival(&ctx(f, 2500, 2500 * (f + 1)), &mut out);
        }
        assert_eq!(out, vec![CtrlPayload::Bfc { flow: 3, pause: true }]);
        out.clear();
        rx.on_arrival(&ctx(0, 100, 10_100), &mut out);
        rx.on_arrival(&ctx(1, 100, 10_200), &mut out);
        assert_eq!(out.len(), 2);
        out.clear();
        rx.on_drain(&ctx(0, 700, 9500), &mut out);
        rx.on_drain(&ctx(1, 700, 8800), &mut out);
        assert!(out.is_empty());
        rx.on_drain(&ctx(2, 2500, 6300), &mut out);
        assert_eq!(
            out,
            vec![
                CtrlPayload::Bfc { flow: 0, pause: false },
                CtrlPayload::Bfc { flow: 1, pause: false },
            ]
        );
    }
}
