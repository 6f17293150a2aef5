//! **Fig. 19** — feedback-bandwidth occupation of buffer-based GFC
//! (§6.2.3): the figure is the CDF of per-port occupied bandwidth as a
//! fraction of link capacity. The paper counts in 500 µs windows; here
//! each port's fraction is its received control bytes over the whole
//! horizon. The paper reports an average of 0.21 %, 99 % of ports below
//! 0.4 %, and a maximum of 0.49 %.

use crate::common::{enterprise_churn, row, sim_config_300k, PinnedCase, Scale, Scheme};
use gfc_core::units::Time;
use gfc_sim::{Network, TraceConfig};
use gfc_telemetry::registry::{percentile, Summary};
use gfc_topology::Routing;

/// §4.2's worst-case feedback bandwidth of buffer-based GFC, as a
/// fraction of link capacity.
const FEEDBACK_BOUND: f64 = 0.0069;

/// Parameters of the overhead measurement.
#[derive(Debug, Clone)]
pub struct Fig19Params {
    /// Fat-tree arity (paper: 16).
    pub k: usize,
    /// Per-link failure probability.
    pub failure_prob: f64,
    /// Number of randomly failed topologies to sample.
    pub cases: usize,
    /// Horizon per case.
    pub horizon: Time,
    /// Base seed.
    pub seed: u64,
}

impl Fig19Params {
    /// Parameters for a scale tier.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Fig19Params {
                k: 4,
                failure_prob: 0.05,
                cases: 5,
                horizon: Time::from_millis(15),
                seed: 1900,
            },
            Scale::Paper => Fig19Params {
                k: 16,
                failure_prob: 0.05,
                cases: 100,
                horizon: Time::from_millis(30),
                seed: 1900,
            },
        }
    }
}

impl Default for Fig19Params {
    fn default() -> Self {
        Fig19Params::at_scale(Scale::Quick)
    }
}

/// The Fig. 19 result.
#[derive(Debug, Clone)]
pub struct Fig19Result {
    /// Parameters used.
    pub params: Fig19Params,
    /// Per-port mean occupied bandwidth fractions (0..1), sorted
    /// ascending: the figure's CDF.
    pub port_fraction: Vec<f64>,
    /// Mean fraction across ports.
    pub mean: f64,
    /// 99th-percentile fraction.
    pub p99: f64,
    /// Maximum fraction.
    pub max: f64,
}

/// Run one Fig. 19 case: buffer-based GFC under the enterprise churn on
/// a randomly failed fat-tree (no cycle flows).
fn run_case(params: &Fig19Params, case: usize) -> Network {
    let case_seed = params.seed + case as u64;
    let case = PinnedCase::failed_fat_tree(params.k, params.failure_prob, case_seed);
    let cfg = sim_config_300k(Scheme::GfcBuffer, case_seed);
    let mut net = Network::new(case.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
    net.install_workload(enterprise_churn(&case));
    net.run_until(params.horizon);
    net
}

/// Per-port occupied-bandwidth fractions of a finished case, replicating
/// the legacy meter's float-operation order exactly.
fn port_fractions(net: &Network, horizon: Time) -> Vec<f64> {
    let capacity = net.config().capacity;
    net.ctrl_rx_per_port()
        .into_iter()
        .map(|(_, _, bytes, _)| bytes as f64 * 8.0 * 1e12 / horizon.0 as f64 / capacity.0 as f64)
        .collect()
}

/// Run Fig. 19: buffer-based GFC feedback-bandwidth measurement.
pub fn run(params: Fig19Params) -> Fig19Result {
    let mut samples = Vec::new();
    for case in 0..params.cases {
        let net = run_case(&params, case);
        samples.extend(port_fractions(&net, params.horizon));
    }
    let p99 = percentile(&samples, 99.0).unwrap_or(0.0);
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN port fraction"));
    let summary = Summary::of(&samples);
    Fig19Result {
        mean: summary.map_or(0.0, |s| s.mean),
        p99,
        max: summary.map_or(0.0, |s| s.max),
        port_fraction: samples,
        params,
    }
}

impl Fig19Result {
    /// Paper-vs-measured report.
    pub fn report(&self) -> String {
        let mut s = String::from("FIG 19 — buffer-based GFC feedback-bandwidth occupation\n");
        s += &row("mean occupied bandwidth", "0.21 %", &format!("{:.3} %", self.mean * 100.0));
        s += &row("99 % of ports below", "0.4 %", &format!("{:.3} %", self.p99 * 100.0));
        s += &row("maximum observed", "0.49 %", &format!("{:.3} %", self.max * 100.0));
        // The bound caps a port's feedback rate at any instant; each
        // measured fraction is a mean over the horizon, so a mean above
        // the bound means the rate exceeded it at some point.
        let verdict = if self.max <= FEEDBACK_BOUND {
            "respected"
        } else {
            "exceeded (max is a horizon mean; the peak rate is at least as high)"
        };
        s += &row(
            "worst-case analysis bound (§4.2)",
            "0.69 % (m/8τ steady: 0.086 %)",
            &format!("max {:.3} %: {verdict}", self.max * 100.0),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_row_compares_the_max_with_the_bound() {
        let result = |max: f64| Fig19Result {
            params: Fig19Params::default(),
            port_fraction: vec![max],
            mean: max,
            p99: max,
            max,
        };
        let bound_row = |r: Fig19Result| {
            r.report().lines().find(|l| l.contains("§4.2")).expect("bound row").to_string()
        };
        assert!(bound_row(result(0.005)).ends_with("max 0.500 %: respected"));
        assert!(bound_row(result(FEEDBACK_BOUND)).contains("respected"));
        assert!(bound_row(result(0.0155)).contains("max 1.550 %: exceeded"));
    }

    #[test]
    fn overhead_is_well_below_one_percent() {
        let r = run(Fig19Params::default());
        assert!(r.port_fraction.len() > 50, "too few port samples");
        assert!(r.mean < 0.005, "mean overhead {:.4} % too high", r.mean * 100.0);
        assert!(r.max < 0.02, "max overhead {:.4} % too high", r.max * 100.0);
        assert!(r.p99 <= r.max && r.mean <= r.p99.max(r.mean));
    }
}
