//! **Figs. 11/12** — the §6.2.2 deadlock case study: a k=4 fat-tree with
//! three failed links makes shortest-path routing give four flows
//! (`F1: H0→H8, F2: H4→H12, F3: H9→H1, F4: H13→H5`) a four-link CBD.
//! Fig. 12 compares PFC against buffer-based GFC: under PFC the network
//! deadlocks and every flow's throughput collapses to zero; under GFC
//! each flow holds its ~5 Gb/s share.

use crate::common::{
    row, sim_config_300k, start_flows, static_verdict, tracks_of_kind, PinnedCase, Scheme,
};
use gfc_core::units::{Dur, Time};
use gfc_sim::{Network, SpanOutcome, TimelineConfig, TraceConfig};
use gfc_telemetry::{TimeSeries, TrackKind};
use gfc_topology::Routing;

/// Parameters of the fat-tree case study (shared by Figs. 12/13/14).
#[derive(Debug, Clone)]
pub struct FatTreeCaseParams {
    /// Simulated horizon.
    pub horizon: Time,
    /// RNG seed.
    pub seed: u64,
    /// Start offset between consecutive flows.
    pub stagger: Dur,
}

impl Default for FatTreeCaseParams {
    fn default() -> Self {
        FatTreeCaseParams {
            horizon: Time::from_millis(30),
            seed: 11,
            stagger: Dur::from_micros(500),
        }
    }
}

/// One scheme's fat-tree case run.
#[derive(Debug, Clone)]
pub struct FatTreeCaseTrace {
    /// Per-flow throughput series (bits/s, 100 µs bins), in
    /// [`gfc_topology::fattree::FIG11_FLOWS`] order, then any extra flows.
    pub flow_throughput: Vec<TimeSeries>,
    /// Per-flow tail-mean throughput (bits/s).
    pub flow_tail_mean: Vec<f64>,
    /// Progress-monitor verdict.
    pub deadlocked: bool,
    /// Structural wait-for-cycle verdict.
    pub structural_deadlock: bool,
    /// When the stall began, ms.
    pub deadlock_at_ms: Option<f64>,
    /// Drops (must be 0).
    pub drops: u64,
    /// The `gfc-verify` static preflight verdict over the pinned
    /// case-study paths, recorded next to the runtime verdicts above.
    pub static_verdict: String,
    /// One-line telemetry snapshot at the horizon (`Snapshot::brief`),
    /// recorded next to the verdicts above.
    pub telemetry: String,
    /// Ingress-occupancy curves (bytes), one per port that ever held
    /// data, parsed back out of the timeline sampler's CSV export — the
    /// plotted curves are literally the exported artifact.
    pub occupancy: Vec<(String, TimeSeries)>,
    /// Peak ingress occupancy across all ports, bytes. Must stay within
    /// the configured buffer (losslessness seen from the buffers).
    pub occupancy_peak_bytes: f64,
    /// Flow spans that finished before the horizon (0 here: the case
    /// study's sources are infinite).
    pub flows_finished: u64,
    /// Flow spans still open at the horizon (all of them here).
    pub flows_stalled: u64,
    /// The longest time any span had gone without a delivery when the
    /// run ended, ms — near zero for a healthy run, the tail of the
    /// horizon for a deadlocked one.
    pub max_end_idle_ms: f64,
}

/// Run one scheme on the Fig. 11 scenario with the four case-study flows
/// (infinite, line rate), plus optional extra flows (Fig. 14's victim).
pub fn run_scheme_with_extra(
    params: &FatTreeCaseParams,
    scheme: Scheme,
    extra: &[(usize, usize)],
) -> FatTreeCaseTrace {
    let case = PinnedCase::fig11(extra);
    let mut cfg = sim_config_300k(scheme, params.seed);
    // Timeline on: 50 µs sampler cadence (well under the 2 ms progress
    // window; 600 samples over the 30 ms horizon, no decimation) plus
    // per-flow spans. The occupancy curves below come from this.
    cfg.telemetry.timeline = TimelineConfig {
        sample_period_ps: Dur::from_micros(50).0,
        max_samples: 1024,
        spans: true,
        stall_gap_ps: 0,
    };

    // Static verdict over exactly the paths the flows are pinned to below.
    let verdict = static_verdict(&case.topo, &Routing::fixed(case.routes()), &cfg);

    let mut tc = TraceConfig::none();
    tc.host_throughput_bin = Some(Dur::from_micros(100));
    let mut net = Network::new(case.topo.clone(), Routing::spf(), cfg, tc);

    // Extra flows (Fig. 14's victim) start at t = 0, then the four
    // case-study flows come up staggered. Reporting order: case-study
    // flows first, extras last.
    start_flows(&mut net, &case.extra_flows, None, None);
    start_flows(&mut net, &case.cycle_flows, None, Some(params.stagger));
    let srcs: Vec<_> = case.cycle_flows.iter().chain(&case.extra_flows).map(|f| f.0).collect();
    net.run_until(params.horizon);
    let snap = net.metrics_snapshot();

    let flow_throughput: Vec<TimeSeries> = srcs
        .iter()
        .map(|src| {
            net.traces()
                .host_throughput
                .get(src)
                .map(|m| m.series_bps(params.horizon.0))
                .unwrap_or_default()
        })
        .collect();
    let tail_from = params.horizon.0 * 3 / 4;
    let flow_tail_mean = flow_throughput
        .iter()
        .map(|s| s.time_weighted_mean(tail_from, params.horizon.0).unwrap_or(0.0))
        .collect();

    let samplers = net.timeline_samplers().expect("timeline sampling is enabled above");
    let occupancy: Vec<(String, TimeSeries)> =
        tracks_of_kind(samplers, TrackKind::IngressOccupancy)
            .into_iter()
            .filter(|(_, s)| s.max().unwrap_or(0.0) > 0.0)
            .collect();
    let occupancy_peak_bytes = occupancy.iter().filter_map(|(_, s)| s.max()).fold(0.0, f64::max);

    let spans = net.flow_spans().expect("span tracking is enabled above");
    let (fin, stalled) = spans.outcome_counts(params.horizon.0);
    let max_end_idle_ms = spans
        .spans()
        .iter()
        .map(|s| match spans.outcome(s, params.horizon.0) {
            SpanOutcome::Finished => 0,
            SpanOutcome::StalledAtEnd { idle_ps } => idle_ps,
        })
        .max()
        .unwrap_or(0) as f64
        / 1e9;

    FatTreeCaseTrace {
        flow_throughput,
        flow_tail_mean,
        deadlocked: net.deadlocked(),
        structural_deadlock: net.structurally_deadlocked(),
        deadlock_at_ms: net
            .structural_deadlock_at()
            .or(net.deadlock_at())
            .map(gfc_core::units::Time::as_millis_f64),
        drops: snap.counter(gfc_telemetry::names::DROPS).unwrap_or(0),
        static_verdict: verdict,
        telemetry: snap.brief(),
        occupancy,
        occupancy_peak_bytes,
        flows_finished: fin as u64,
        flows_stalled: stalled as u64,
        max_end_idle_ms,
    }
}

/// Run one scheme with only the four case-study flows.
pub fn run_scheme(params: &FatTreeCaseParams, scheme: Scheme) -> FatTreeCaseTrace {
    run_scheme_with_extra(params, scheme, &[])
}

/// The Fig. 12 result.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// Parameters used.
    pub params: FatTreeCaseParams,
    /// PFC run.
    pub pfc: FatTreeCaseTrace,
    /// Buffer-based GFC run.
    pub gfc: FatTreeCaseTrace,
}

/// Run Fig. 12: PFC vs buffer-based GFC on the fat-tree case study.
pub fn run(params: FatTreeCaseParams) -> Fig12Result {
    let pfc = run_scheme(&params, Scheme::Pfc);
    let gfc = run_scheme(&params, Scheme::GfcBuffer);
    Fig12Result { params, pfc, gfc }
}

impl Fig12Result {
    /// Paper-vs-measured report.
    pub fn report(&self) -> String {
        let mut s = String::from("FIG 12 — fat-tree case study: PFC vs buffer-based GFC\n");
        s += &row(
            "PFC falls into deadlock",
            "all four flows -> 0",
            &format!(
                "structural={} at {:?} ms, tails {:?} Gb/s",
                self.pfc.structural_deadlock,
                self.pfc.deadlock_at_ms,
                self.pfc
                    .flow_tail_mean
                    .iter()
                    .map(|x| (x / 1e8).round() / 10.0)
                    .collect::<Vec<_>>()
            ),
        );
        s += &row(
            "GFC: each flow shares bandwidth normally",
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
            &format!("PFC {} / GFC {}", self.pfc.drops, self.gfc.drops),
        );
        s += &row(
            "peak ingress occupancy (sampler CSV)",
            "<= buffer (lossless)",
            &format!(
                "PFC {:.0} KB / GFC {:.0} KB",
                self.pfc.occupancy_peak_bytes / 1024.0,
                self.gfc.occupancy_peak_bytes / 1024.0
            ),
        );
        s += &row(
            "longest end-of-run delivery gap",
            "PFC ~horizon, GFC ~0",
            &format!(
                "PFC {:.1} ms / GFC {:.2} ms",
                self.pfc.max_end_idle_ms, self.gfc.max_end_idle_ms
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
    fn reproduces_fig12_shape() {
        let r = run(FatTreeCaseParams::default());
        assert!(r.pfc.structural_deadlock, "PFC must deadlock on the Fig. 11 scenario");
        for (i, &t) in r.pfc.flow_tail_mean.iter().enumerate() {
            assert!(t < 2e8, "PFC flow {i} still moving at {:.2} Gb/s", t / 1e9);
        }
        assert!(!r.gfc.structural_deadlock, "GFC must not deadlock");
        assert_eq!(r.gfc.drops, 0);
        for (i, &t) in r.gfc.flow_tail_mean.iter().enumerate() {
            assert!(
                (t / 1e9 - 5.0).abs() < 1.5,
                "GFC flow {i} tail {:.2} Gb/s, expected ~5",
                t / 1e9
            );
        }
        // Static analysis predicted both outcomes from the pinned paths.
        assert!(
            r.pfc.static_verdict.contains("deadlock reachable"),
            "static PFC verdict: {}",
            r.pfc.static_verdict
        );
        assert!(
            r.gfc.static_verdict.contains("scheme immune"),
            "static GFC verdict: {}",
            r.gfc.static_verdict
        );
        // The timeline sees the same story. Occupancy curves come from
        // the sampler's CSV export; deadlock shows up as a frozen span.
        for t in [&r.pfc, &r.gfc] {
            assert!(!t.occupancy.is_empty(), "sampler CSV must yield occupancy curves");
            let buffer = 300 * 1024 + 4 * 1500;
            assert!(
                t.occupancy_peak_bytes > 0.0 && t.occupancy_peak_bytes <= buffer as f64,
                "peak occupancy {} outside (0, {buffer}]",
                t.occupancy_peak_bytes
            );
            assert_eq!(t.flows_finished, 0, "case-study sources are infinite");
            assert_eq!(t.flows_stalled, 4, "every span is open at the horizon");
        }
        assert!(
            r.pfc.max_end_idle_ms > 5.0,
            "PFC spans should be frozen for most of the run, idle {:.2} ms",
            r.pfc.max_end_idle_ms
        );
        assert!(
            r.gfc.max_end_idle_ms < 1.0,
            "GFC spans should be delivering up to the horizon, idle {:.2} ms",
            r.gfc.max_end_idle_ms
        );
    }
}
