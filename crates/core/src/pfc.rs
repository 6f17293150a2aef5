//! Priority Flow Control (IEEE 802.1Qbb) state machines (§2.2.1).
//!
//! The **receiver** (downstream ingress) watches its per-priority ingress
//! queue length and emits PAUSE when it crosses `XOFF` and RESUME when it
//! falls back below `XON`. The **sender** (upstream egress) stops
//! transmitting on that priority while paused.
//!
//! Pause semantics are configurable:
//!
//! * [`PauseMode::UntilResume`] (default, and what packet-level PFC models
//!   such as the paper's use): a PAUSE holds until an explicit RESUME. Real
//!   switches approximate this by refreshing the maximum pause quanta while
//!   the queue stays above XOFF, so the observable behaviour is identical.
//! * [`PauseMode::Quanta`]: honor the 16-bit quanta field (1 quantum =
//!   512 bit-times); the pause expires on its own. Exposed for protocol
//!   fidelity tests.

use crate::fc_config::PfcParams;
use crate::units::{Dur, Rate, Time};

/// How a sender interprets the pause duration of a PFC frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PauseMode {
    /// PAUSE lasts until a RESUME arrives (refresh semantics).
    UntilResume,
    /// PAUSE lasts exactly the carried quanta.
    Quanta,
}

/// A flow-control decision emitted by the receiver for one priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfcEvent {
    /// Tell the upstream to stop this priority (`quanta` of 512 bit-times).
    Pause {
        /// Pause duration in quanta; 0xFFFF is the customary "indefinite".
        quanta: u16,
    },
    /// Tell the upstream to resume this priority (quanta = 0 on the wire).
    Resume,
}

/// Receiver-side PFC: ingress-queue watcher and message generator.
#[derive(Debug, Clone)]
pub struct PfcReceiver {
    cfg: PfcParams,
    /// Whether we have an outstanding PAUSE towards the upstream.
    pause_asserted: bool,
    /// Count of generated messages (for overhead accounting).
    messages_sent: u64,
}

impl PfcReceiver {
    /// New receiver pausing at `cfg.xoff` and resuming at `cfg.xon`
    /// bytes; panics unless `xon < xoff`.
    pub fn new(cfg: PfcParams) -> Self {
        let PfcParams { xoff, xon } = cfg;
        assert!(xon < xoff, "PFC requires XON < XOFF (got xon={xon}, xoff={xoff})");
        PfcReceiver { cfg, pause_asserted: false, messages_sent: 0 }
    }

    /// Whether a PAUSE is currently asserted towards the upstream.
    pub fn pause_asserted(&self) -> bool {
        self.pause_asserted
    }

    /// Total feedback messages generated so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Report the new ingress queue length; returns the message to emit, if
    /// any. Hysteresis: PAUSE at `q ≥ XOFF` when not yet paused, RESUME at
    /// `q ≤ XON` when paused.
    pub fn on_queue_update(&mut self, q: u64) -> Option<PfcEvent> {
        if !self.pause_asserted && q >= self.cfg.xoff {
            self.pause_asserted = true;
            self.messages_sent += 1;
            Some(PfcEvent::Pause { quanta: u16::MAX })
        } else if self.pause_asserted && q <= self.cfg.xon {
            self.pause_asserted = false;
            self.messages_sent += 1;
            Some(PfcEvent::Resume)
        } else {
            None
        }
    }
}

/// Sender-side PFC: pause state for one (egress, priority).
#[derive(Debug, Clone)]
pub struct PfcSender {
    mode: PauseMode,
    /// Link speed, needed to convert quanta (512 bit-times) to duration.
    capacity: Rate,
    /// `None` = not paused; `Some(Time::MAX)` = paused until resume;
    /// `Some(t)` = paused until `t`.
    paused_until: Option<Time>,
    /// Count of pause periods entered (for hold-and-wait accounting).
    pauses_entered: u64,
}

impl PfcSender {
    /// New sender in the running state.
    pub fn new(mode: PauseMode, capacity: Rate) -> Self {
        PfcSender { mode, capacity, paused_until: None, pauses_entered: 0 }
    }

    /// Apply a received PFC event at `now`.
    pub fn on_event(&mut self, ev: PfcEvent, now: Time) {
        match ev {
            PfcEvent::Pause { quanta } => {
                if self.paused_until.is_none() {
                    self.pauses_entered += 1;
                }
                self.paused_until = Some(match self.mode {
                    PauseMode::UntilResume => Time::MAX,
                    PauseMode::Quanta => {
                        let bits = quanta as u64 * 512;
                        now + Dur::for_bytes(bits / 8, self.capacity)
                    }
                });
            }
            PfcEvent::Resume => self.paused_until = None,
        }
    }

    /// Whether transmission on this priority is blocked at `now`.
    pub fn is_paused(&self, now: Time) -> bool {
        match self.paused_until {
            None => false,
            Some(t) => now < t,
        }
    }

    /// If paused with a finite quanta, when the pause self-expires.
    pub fn pause_expiry(&self) -> Option<Time> {
        match self.paused_until {
            Some(t) if t != Time::MAX => Some(t),
            _ => None,
        }
    }

    /// Number of distinct pause periods entered so far — each one is a
    /// *hold-and-wait* episode in the paper's terminology.
    pub fn pauses_entered(&self) -> u64 {
        self.pauses_entered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::kb;

    fn cfg() -> PfcParams {
        PfcParams { xoff: kb(80), xon: kb(77) }
    }

    #[test]
    fn pause_on_xoff_resume_on_xon() {
        let mut rx = PfcReceiver::new(cfg());
        assert_eq!(rx.on_queue_update(kb(50)), None);
        assert_eq!(rx.on_queue_update(kb(80)), Some(PfcEvent::Pause { quanta: u16::MAX }));
        // Stays silent in the hysteresis band.
        assert_eq!(rx.on_queue_update(kb(79)), None);
        assert_eq!(rx.on_queue_update(kb(78)), None);
        assert_eq!(rx.on_queue_update(kb(77)), Some(PfcEvent::Resume));
        assert!(!rx.pause_asserted());
        assert_eq!(rx.messages_sent(), 2);
    }

    #[test]
    fn no_duplicate_pause() {
        let mut rx = PfcReceiver::new(cfg());
        assert!(rx.on_queue_update(kb(90)).is_some());
        assert_eq!(rx.on_queue_update(kb(95)), None);
        assert_eq!(rx.on_queue_update(kb(100)), None);
    }

    #[test]
    fn resume_only_after_pause() {
        let mut rx = PfcReceiver::new(cfg());
        assert_eq!(rx.on_queue_update(kb(10)), None);
        assert_eq!(rx.on_queue_update(0), None);
    }

    #[test]
    #[should_panic(expected = "XON < XOFF")]
    fn rejects_inverted_thresholds() {
        PfcReceiver::new(PfcParams { xoff: kb(10), xon: kb(20) });
    }

    #[test]
    fn sender_until_resume() {
        let mut tx = PfcSender::new(PauseMode::UntilResume, Rate::from_gbps(10));
        assert!(!tx.is_paused(Time::ZERO));
        tx.on_event(PfcEvent::Pause { quanta: 1 }, Time::ZERO);
        // Quanta ignored in UntilResume mode: still paused arbitrarily later.
        assert!(tx.is_paused(Time::from_millis(100)));
        assert_eq!(tx.pause_expiry(), None);
        tx.on_event(PfcEvent::Resume, Time::from_millis(100));
        assert!(!tx.is_paused(Time::from_millis(100)));
        assert_eq!(tx.pauses_entered(), 1);
    }

    #[test]
    fn sender_quanta_expiry() {
        let mut tx = PfcSender::new(PauseMode::Quanta, Rate::from_gbps(10));
        tx.on_event(PfcEvent::Pause { quanta: 100 }, Time::ZERO);
        // 100 quanta = 51200 bit-times = 5.12 µs at 10G.
        let expiry = tx.pause_expiry().unwrap();
        assert_eq!(expiry, Time::ZERO + Dur::from_nanos(5120));
        assert!(tx.is_paused(Time(expiry.0 - 1)));
        assert!(!tx.is_paused(expiry));
    }

    #[test]
    fn repause_counts_episodes() {
        let mut tx = PfcSender::new(PauseMode::UntilResume, Rate::from_gbps(10));
        for _ in 0..3 {
            tx.on_event(PfcEvent::Pause { quanta: u16::MAX }, Time::ZERO);
            tx.on_event(PfcEvent::Resume, Time::ZERO);
        }
        assert_eq!(tx.pauses_entered(), 3);
    }

    #[test]
    fn refresh_pause_does_not_double_count() {
        let mut tx = PfcSender::new(PauseMode::UntilResume, Rate::from_gbps(10));
        tx.on_event(PfcEvent::Pause { quanta: u16::MAX }, Time::ZERO);
        tx.on_event(PfcEvent::Pause { quanta: u16::MAX }, Time::from_micros(1));
        assert_eq!(tx.pauses_entered(), 1);
    }
}
