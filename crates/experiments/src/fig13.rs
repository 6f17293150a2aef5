//! **Fig. 13** — the fat-tree case study, InfiniBand side: CBFC vs
//! time-based GFC on the Fig. 11 scenario. Expected: CBFC wedges (all
//! four flows to zero), time-based GFC holds ~5 Gb/s per flow.

use crate::common::{row, Scheme};
use crate::fig12::{run_scheme, FatTreeCaseParams, FatTreeCaseTrace};

/// The Fig. 13 result.
#[derive(Debug, Clone)]
pub struct Fig13Result {
    /// Parameters used.
    pub params: FatTreeCaseParams,
    /// CBFC run.
    pub cbfc: FatTreeCaseTrace,
    /// Time-based GFC run.
    pub gfc: FatTreeCaseTrace,
}

/// Run Fig. 13: CBFC vs time-based GFC on the fat-tree case study.
pub fn run(params: FatTreeCaseParams) -> Fig13Result {
    let cbfc = run_scheme(&params, Scheme::Cbfc);
    let gfc = run_scheme(&params, Scheme::GfcTime);
    Fig13Result { params, cbfc, gfc }
}

impl Fig13Result {
    /// Paper-vs-measured report.
    pub fn report(&self) -> String {
        let mut s = String::from("FIG 13 — fat-tree case study: CBFC vs time-based GFC\n");
        s += &row(
            "CBFC falls into deadlock",
            "all four flows -> 0",
            &format!(
                "structural={} at {:?} ms, tails {:?} Gb/s",
                self.cbfc.structural_deadlock,
                self.cbfc.deadlock_at_ms,
                self.cbfc
                    .flow_tail_mean
                    .iter()
                    .map(|x| (x / 1e8).round() / 10.0)
                    .collect::<Vec<_>>()
            ),
        );
        s += &row(
            "time-based GFC: flows share bandwidth",
            "~5 Gb/s per flow",
            &format!(
                "structural={}, tails {:?} Gb/s",
                self.gfc.structural_deadlock,
                self.gfc
                    .flow_tail_mean
                    .iter()
                    .map(|x| (x / 1e8).round() / 10.0)
                    .collect::<Vec<_>>()
            ),
        );
        s += &row(
            "losslessness",
            "0 drops",
            &format!("CBFC {} / GFC {}", self.cbfc.drops, self.gfc.drops),
        );
        s += &row(
            "peak ingress occupancy (sampler CSV)",
            "<= buffer (lossless)",
            &format!(
                "CBFC {:.0} KB / GFC {:.0} KB across {} / {} active ports",
                self.cbfc.occupancy_peak_bytes / 1024.0,
                self.gfc.occupancy_peak_bytes / 1024.0,
                self.cbfc.occupancy.len(),
                self.gfc.occupancy.len()
            ),
        );
        s += &row(
            "longest end-of-run delivery gap",
            "CBFC ~horizon, GFC ~0",
            &format!(
                "CBFC {:.1} ms / GFC {:.2} ms ({} / {} spans open)",
                self.cbfc.max_end_idle_ms,
                self.gfc.max_end_idle_ms,
                self.cbfc.flows_stalled,
                self.gfc.flows_stalled
            ),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fig13_shape() {
        let r = run(FatTreeCaseParams::default());
        assert!(r.cbfc.structural_deadlock, "CBFC must deadlock on the Fig. 11 scenario");
        for (i, &t) in r.cbfc.flow_tail_mean.iter().enumerate() {
            assert!(t < 2e8, "CBFC flow {i} still moving at {:.2} Gb/s", t / 1e9);
        }
        assert!(!r.gfc.structural_deadlock, "time-based GFC must not deadlock");
        assert_eq!(r.gfc.drops, 0);
        for (i, &t) in r.gfc.flow_tail_mean.iter().enumerate() {
            assert!(
                (t / 1e9 - 5.0).abs() < 2.0,
                "GFC-time flow {i} tail {:.2} Gb/s, expected ~5",
                t / 1e9
            );
        }
        // Occupancy curves, reproduced from the sampler CSV export: both
        // schemes stay within the buffer (losslessness seen from the
        // buffers), and the deadlock is visible as frozen spans.
        let buffer = (300 * 1024 + 4 * 1500) as f64;
        for t in [&r.cbfc, &r.gfc] {
            assert!(!t.occupancy.is_empty(), "sampler CSV must yield occupancy curves");
            assert!(
                t.occupancy_peak_bytes > 0.0 && t.occupancy_peak_bytes <= buffer,
                "peak occupancy {} outside (0, {buffer}]",
                t.occupancy_peak_bytes
            );
        }
        assert!(
            r.cbfc.max_end_idle_ms > 5.0,
            "CBFC spans should be frozen for most of the run, idle {:.2} ms",
            r.cbfc.max_end_idle_ms
        );
        assert!(
            r.gfc.max_end_idle_ms < 1.0,
            "GFC-time spans should deliver up to the horizon, idle {:.2} ms",
            r.gfc.max_end_idle_ms
        );
    }
}
