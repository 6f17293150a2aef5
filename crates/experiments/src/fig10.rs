//! **Fig. 10** — the §6.1 testbed experiment, InfiniBand side: CBFC vs
//! time-based GFC on the Fig. 1 ring.
//!
//! Testbed parameters: 1 MB buffers, feedback period T = 52.4 µs (the
//! 65535-byte recommendation at 10 Gb/s), time-GFC B0 = 492 KB. Expected
//! shape: CBFC wedges into a credit-starved deadlock; time-based GFC
//! stabilizes (the paper reports the queue at ~745 KB and the input rate
//! at 5 Gb/s, with a smoother rate evolution than buffer-based GFC's
//! stage jumps).

use crate::common::{row, Scheme};
use crate::fig09::{run_scheme, RingParams, RingTrace};

/// The Fig. 10 result.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// Parameters used.
    pub params: RingParams,
    /// CBFC run.
    pub cbfc: RingTrace,
    /// Time-based GFC run.
    pub gfc: RingTrace,
}

/// Run Fig. 10: CBFC vs time-based GFC on the testbed ring.
pub fn run(params: RingParams) -> Fig10Result {
    let cbfc = run_scheme(&params, Scheme::Cbfc);
    let gfc = run_scheme(&params, Scheme::GfcTime);
    Fig10Result { params, cbfc, gfc }
}

impl Fig10Result {
    /// Paper-vs-measured report.
    pub fn report(&self) -> String {
        let mut s = String::from("FIG 10 — testbed ring: CBFC vs time-based GFC\n");
        s += &row(
            "CBFC traps in deadlock",
            "yes, permanent standstill",
            &format!(
                "structural={} at {:?} ms, tail goodput {:.2} Gb/s",
                self.cbfc.structural_deadlock,
                self.cbfc.deadlock_at_ms,
                self.cbfc.tail_goodput / 1e9
            ),
        );
        s += &row(
            "time-based GFC avoids deadlock",
            "queue steady ~745 KB, rate 5 Gb/s",
            &format!(
                "structural={}, steady queue {:.0} KB, steady rate {:.2} Gb/s",
                self.gfc.structural_deadlock,
                self.gfc.steady_queue / 1024.0,
                self.gfc.steady_rate / 1e9
            ),
        );
        s += &row(
            "losslessness",
            "0 drops",
            &format!("CBFC {} / GFC {}", self.cbfc.drops, self.gfc.drops),
        );
        s += &row(
            "credit starvations (hold-and-wait)",
            "CBFC many / GFC none",
            &format!("CBFC {} / GFC {}", self.cbfc.hold_and_wait, self.gfc.hold_and_wait),
        );
        s += &row("static preflight (CBFC)", "deadlock reachable", &self.cbfc.static_verdict);
        s += &row("static preflight (GFC)", "scheme immune", &self.gfc.static_verdict);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfc_core::units::Time;

    #[test]
    fn reproduces_fig10_shape() {
        // CBFC's credit freeze on the 1 MB testbed ring locks in at ~47 ms;
        // run to 100 ms so the goodput window [50, 100] ms is post-deadlock.
        let r = run(RingParams { horizon: Time::from_millis(100), ..Default::default() });
        assert!(r.cbfc.structural_deadlock, "CBFC must deadlock on the ring");
        assert!(
            r.cbfc.tail_goodput < 1e8,
            "post-deadlock goodput {:.3} Gb/s",
            r.cbfc.tail_goodput / 1e9
        );
        assert!(!r.gfc.structural_deadlock, "time-based GFC must not deadlock");
        assert_eq!(r.gfc.drops, 0);
        assert_eq!(r.gfc.hold_and_wait, 0, "the credit backstop must never engage");
        // The sender's own starvation count cannot move for time GFC (its
        // gate never asks for credit); the engine's gate counter can, and
        // CBFC's credit freeze shows that it does.
        assert_eq!(r.gfc.gate_blocked, 0, "time-based GFC's gate blocked a transmission");
        assert!(r.cbfc.gate_blocked > 0, "CBFC's credit gate never blocked: the check is vacuous");
        // Steady queue between B0 = 492 KB and Bm (paper: 745 KB); rate 5G.
        let q_kb = r.gfc.steady_queue / 1024.0;
        assert!((492.0..1000.0).contains(&q_kb), "GFC-time steady queue {q_kb:.0} KB");
        assert!((r.gfc.steady_rate / 1e9 - 5.0).abs() < 1.0, "GFC-time steady rate");
        assert!(r.gfc.tail_goodput / 1e9 > 12.0);
        assert!(r.cbfc.static_verdict.contains("deadlock reachable"));
        assert!(r.gfc.static_verdict.contains("scheme immune"));
    }
}
