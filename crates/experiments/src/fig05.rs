//! **Fig. 5** — conceptual design illustration (§4.1): a 2-to-1 incast
//! under PFC vs conceptual GFC, tracing the evolution of the ingress
//! queue length and the input rate of the congested switch port.
//!
//! Paper parameters: C = 10 Gb/s, feedback latency τ = 25 µs,
//! `Bm` = 100 KB, `B0` = 50 KB, PFC XOFF/XON = 80/77 KB. Expected shape:
//! PFC's queue oscillates in a band around XON/XOFF while the input rate
//! alternates between line rate and zero; conceptual GFC's queue
//! converges to the steady value `Bs = 75 KB` where the mapped rate
//! equals the 5 Gb/s drain rate, and the rate settles at 5 Gb/s.

use crate::common::{row, track};
use gfc_core::units::{kb, Dur, Time};
use gfc_sim::{FcConfig, Network, PreflightPolicy, SimConfig, TraceConfig};
use gfc_telemetry::TimeSeries;
use gfc_topology::{Incast, Routing};
use serde::{Deserialize, Serialize};

/// Parameters of the Fig. 5 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig05Params {
    /// Feedback latency τ.
    pub tau: Dur,
    /// `Bm` (conceptual mapping endpoint; also the buffer size).
    pub bm: u64,
    /// `B0` (conceptual full-rate threshold).
    pub b0: u64,
    /// PFC pause threshold.
    pub xoff: u64,
    /// PFC resume threshold.
    pub xon: u64,
    /// Simulated horizon.
    pub horizon: Time,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig05Params {
    fn default() -> Self {
        Fig05Params {
            tau: Dur::from_micros(25),
            bm: kb(100),
            b0: kb(50),
            xoff: kb(80),
            xon: kb(77),
            horizon: Time::from_millis(3),
            seed: 5,
        }
    }
}

/// Traces of one scheme's run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchemeTrace {
    /// Ingress queue length (bytes) over time.
    pub queue: TimeSeries,
    /// Input rate (bits/s) over time, 10 µs bins.
    pub rate: TimeSeries,
    /// Time-weighted mean queue over the final quarter of the run, bytes.
    pub steady_queue: f64,
    /// Mean input rate over the final quarter, bits/s.
    pub steady_rate: f64,
    /// Peak queue length, bytes.
    pub peak_queue: f64,
    /// Packet drops (must be 0).
    pub drops: u64,
}

/// The Fig. 5 result: PFC vs conceptual GFC.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig05Result {
    /// Parameters used.
    pub params: Fig05Params,
    /// PFC traces.
    pub pfc: SchemeTrace,
    /// Conceptual-GFC traces.
    pub gfc: SchemeTrace,
}

fn run_one(params: &Fig05Params, fc: FcConfig, extra_proc: Dur) -> SchemeTrace {
    let inc = Incast::new(2);
    let mut cfg = SimConfig::default_10g();
    cfg.buffer_bytes = params.bm;
    cfg.fc = fc;
    cfg.seed = params.seed;
    // The figure's PFC column deliberately provisions zero headroom above
    // XOFF (the paper's abstract model) — preflight flags it, we run anyway.
    cfg.preflight = PreflightPolicy::Acknowledge;
    // Model the figure's abstract τ: for PFC the feedback shares the wire,
    // so raise the processing delay until the Eq. (6) total matches τ.
    cfg.ctrl_proc_delay = extra_proc;
    // Observe through the timeline samplers: a 10 µs cadence resolves both
    // the PFC pause cycle (tens of µs at these thresholds) and the GFC
    // convergence, matching the legacy trace's rate-bin width.
    cfg.telemetry.timeline.sample_period_ps = Dur::from_micros(10).0;
    let capacity = cfg.capacity.0 as f64;
    let watched_port = inc.topo.port_of(inc.switch, inc.sender_links[0]);
    let queue_track = format!("{}:p{watched_port} ingress", inc.topo.node(inc.switch).name);
    let util_track = format!("{}:p0 util", inc.topo.node(inc.senders[0]).name);
    let mut net = Network::new(inc.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
    for &s in &inc.senders {
        net.start_flow(s, inc.receiver, None, 0).expect("route");
    }
    net.run_until(params.horizon);

    let samplers = net.timeline_samplers().expect("timeline samplers are on");
    let queue = track(samplers, &queue_track);
    // The watched port's input rate is whatever its sender puts on the
    // access link: the sender NIC's utilization track scaled by C.
    let util = track(samplers, &util_track);
    let mut rate = TimeSeries::new();
    for &(t, v) in util.points() {
        rate.push(t, v * capacity);
    }
    let tail_from = params.horizon.0 * 3 / 4;
    let steady_queue = queue.time_weighted_mean(tail_from, params.horizon.0).unwrap_or(0.0);
    let steady_rate = rate.time_weighted_mean(tail_from, params.horizon.0).unwrap_or(0.0);
    let peak_queue = queue.max().unwrap_or(0.0);
    SchemeTrace { queue, rate, steady_queue, steady_rate, peak_queue, drops: net.stats().drops }
}

/// Run the Fig. 5 experiment.
pub fn run(params: Fig05Params) -> Fig05Result {
    // t_r = τ − 2·MTU/C − 2·t_w  (Eq. 6 solved for the processing delay;
    // MTU 1500 B at 10 Gb/s = 1.2 µs, t_w = 1 µs).
    let pfc_proc = Dur(params.tau.0.saturating_sub(2 * 1_200_000 + 2 * 1_000_000));
    let pfc = run_one(&params, FcConfig::pfc(params.xoff, params.xon), pfc_proc);
    let gfc = run_one(
        &params,
        FcConfig::conceptual(params.b0, params.bm, params.tau),
        Dur::from_micros(3),
    );
    Fig05Result { params, pfc, gfc }
}

impl Fig05Result {
    /// Paper-vs-measured report.
    pub fn report(&self) -> String {
        let mut s = String::from("FIG 5 — conceptual GFC vs PFC, 2-to-1 incast\n");
        s += &row(
            "PFC queue fluctuates near XON..XOFF",
            "oscillation band ~77-95 KB",
            &format!(
                "steady {:.1} KB, peak {:.1} KB",
                self.pfc.steady_queue / 1024.0,
                self.pfc.peak_queue / 1024.0
            ),
        );
        s += &row(
            "PFC input rate alternates 0 <-> line rate",
            "mean = drain = 5 Gb/s",
            &format!("steady mean {:.2} Gb/s", self.pfc.steady_rate / 1e9),
        );
        s += &row(
            "GFC queue converges to Bs",
            "75 KB",
            &format!(
                "steady {:.1} KB, peak {:.1} KB",
                self.gfc.steady_queue / 1024.0,
                self.gfc.peak_queue / 1024.0
            ),
        );
        s += &row(
            "GFC input rate converges",
            "5 Gb/s, no zero dips after convergence",
            &format!("steady mean {:.2} Gb/s", self.gfc.steady_rate / 1e9),
        );
        s += &row(
            "losslessness",
            "0 drops",
            &format!("PFC {} / GFC {}", self.pfc.drops, self.gfc.drops),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fig5_shape() {
        let r = run(Fig05Params::default());
        // Losslessness.
        assert_eq!(r.pfc.drops, 0, "PFC dropped");
        assert_eq!(r.gfc.drops, 0, "GFC dropped");
        // GFC converges to Bs = 75 KB ± 10 KB and ~5 Gb/s.
        assert!(
            (r.gfc.steady_queue / 1024.0 - 75.0).abs() < 10.0,
            "GFC steady queue {:.1} KB",
            r.gfc.steady_queue / 1024.0
        );
        assert!(
            (r.gfc.steady_rate / 1e9 - 5.0).abs() < 0.5,
            "GFC steady rate {:.2} G",
            r.gfc.steady_rate / 1e9
        );
        // PFC hovers in the hysteresis region, mean rate ~5 Gb/s.
        assert!(
            r.pfc.steady_queue / 1024.0 > 60.0 && r.pfc.steady_queue / 1024.0 < 100.0,
            "PFC steady queue {:.1} KB",
            r.pfc.steady_queue / 1024.0
        );
        assert!((r.pfc.steady_rate / 1e9 - 5.0).abs() < 0.8);
        // PFC's rate trace must contain zero bins (pauses); GFC's steady
        // tail must not.
        let tail = r.params.horizon.0 * 3 / 4;
        let pfc_zero_bins =
            r.pfc.rate.points().iter().filter(|&&(t, v)| t >= tail && v == 0.0).count();
        let gfc_zero_bins =
            r.gfc.rate.points().iter().filter(|&&(t, v)| t >= tail && v == 0.0).count();
        assert!(pfc_zero_bins > 0, "PFC never paused?");
        assert_eq!(gfc_zero_bins, 0, "conceptual GFC rate touched zero");
    }
}
