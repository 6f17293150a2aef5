//! **Fig. 20** — interaction with congestion control (§7): an 8-to-1
//! incast with DCQCN at the hosts and buffer-based GFC in the fabric.
//! Three signals are traced for sender H1: the switch ingress queue on its
//! port, the DCQCN flow rate, and the GFC-assigned egress rate.
//!
//! Expected shape: the incast fills the queue faster than DCQCN can react,
//! GFC steps in and pins the port near the fair share (~1.25 Gb/s);
//! DCQCN's CNPs then bring the flow rate below the GFC rate, the queue
//! drains under `B1`, GFC releases the port back to line rate, and DCQCN
//! alone governs the steady state — "GFC only works as a safeguard".

use crate::common::{row, sim_config_300k, track, Scheme};
use gfc_core::units::{kb, Dur, Time};
use gfc_dcqcn::{DcqcnParams, EcnMarker};
use gfc_sim::{Network, TraceConfig};
use gfc_telemetry::TimeSeries;
use gfc_topology::{Incast, Routing};
use serde::{Deserialize, Serialize};

/// Parameters of the DCQCN interaction study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig20Params {
    /// Number of incast senders (paper: 8).
    pub senders: usize,
    /// ECN marking threshold (paper: 40 KB).
    pub ecn_threshold: u64,
    /// Simulated horizon.
    pub horizon: Time,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig20Params {
    fn default() -> Self {
        Fig20Params { senders: 8, ecn_threshold: kb(40), horizon: Time::from_millis(10), seed: 20 }
    }
}

/// The Fig. 20 result (traces for sender H1 = flow 0).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig20Result {
    /// Parameters used.
    pub params: Fig20Params,
    /// Switch ingress queue on H1's port (bytes).
    pub queue: TimeSeries,
    /// DCQCN rate of H1's flow (bits/s).
    pub dcqcn_rate: TimeSeries,
    /// GFC-assigned rate of H1's NIC egress (bits/s).
    pub gfc_rate: TimeSeries,
    /// Tail-mean of the DCQCN rate (bits/s).
    pub steady_dcqcn: f64,
    /// Minimum GFC-assigned rate observed (bits/s).
    pub min_gfc_rate: f64,
    /// GFC-assigned rate at the end of the run (bits/s).
    pub final_gfc_rate: f64,
    /// Peak ingress queue (bytes).
    pub peak_queue: f64,
    /// Drops (must be 0).
    pub drops: u64,
}

/// Run Fig. 20.
pub fn run(params: Fig20Params) -> Fig20Result {
    let inc = Incast::new(params.senders);
    let mut cfg = sim_config_300k(Scheme::GfcBuffer, params.seed);
    cfg.ecn = Some(EcnMarker::threshold(params.ecn_threshold));
    cfg.dcqcn = Some(DcqcnParams::fig20(cfg.capacity.0));
    // The port-level signals come from the timeline samplers: a 10 µs
    // cadence resolves the GFC stage transient (the queue sits above B1
    // for a long stretch of the incast ramp). The per-flow DCQCN rate has
    // no sampler equivalent and stays on the flow-level trace.
    cfg.telemetry.timeline.sample_period_ps = Dur::from_micros(10).0;
    let watched_port = inc.topo.port_of(inc.switch, inc.sender_links[0]);
    let queue_track = format!("{}:p{watched_port} ingress", inc.topo.node(inc.switch).name);
    let rate_track = format!("{}:p0 rate", inc.topo.node(inc.senders[0]).name);
    let mut tc = TraceConfig::none();
    tc.dcqcn_flows.push(0); // first started flow gets id 0
    let mut net = Network::new(inc.topo.clone(), Routing::spf(), cfg, tc);
    for &s in &inc.senders {
        net.start_flow(s, inc.receiver, None, 0).expect("route");
    }
    net.run_until(params.horizon);

    let samplers = net.timeline_samplers().expect("timeline samplers are on");
    let queue = track(samplers, &queue_track);
    let dcqcn_rate = net.traces().dcqcn_rate[&0].clone();
    let gfc_rate = track(samplers, &rate_track);
    let tail_from = params.horizon.0 * 3 / 4;
    Fig20Result {
        steady_dcqcn: dcqcn_rate.time_weighted_mean(tail_from, params.horizon.0).unwrap_or(0.0),
        min_gfc_rate: gfc_rate.min().unwrap_or(f64::NAN),
        final_gfc_rate: gfc_rate.last().map(|(_, v)| v).unwrap_or(10e9),
        peak_queue: queue.max().unwrap_or(0.0),
        drops: net.stats().drops,
        queue,
        dcqcn_rate,
        gfc_rate,
        params,
    }
}

impl Fig20Result {
    /// Paper-vs-measured report.
    pub fn report(&self) -> String {
        let mut s = String::from("FIG 20 — DCQCN + buffer-based GFC, 8-to-1 incast\n");
        s += &row(
            "GFC engages during the incast transient",
            "limits H1 to ~1.25 Gb/s",
            &format!("min assigned rate {:.2} Gb/s", self.min_gfc_rate / 1e9),
        );
        s += &row(
            "DCQCN converges below the GFC rate",
            "steady flow rate ~1.25 Gb/s (C/8)",
            &format!("steady DCQCN rate {:.2} Gb/s", self.steady_dcqcn / 1e9),
        );
        s += &row(
            "GFC disengages in steady state",
            "GFC rate back up; DCQCN governs",
            &format!("final assigned rate {:.2} Gb/s", self.final_gfc_rate / 1e9),
        );
        s += &row(
            "queue stops increasing once GFC engages",
            "bounded, no loss",
            &format!("peak queue {:.0} KB, drops {}", self.peak_queue / 1024.0, self.drops),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fig20_shape() {
        let r = run(Fig20Params::default());
        assert_eq!(r.drops, 0, "lossless");
        // GFC engaged: assigned rate dropped below line rate during the
        // incast transient. (The paper's trace dips to 1.25 Gb/s = stage 3;
        // our DCQCN converges a little faster relative to queue growth, so
        // the dip reaches stage 1 — same safeguard behaviour, recorded in
        // EXPERIMENTS.md.)
        assert!(r.min_gfc_rate < 9e9, "GFC never engaged: min rate {:.2} G", r.min_gfc_rate / 1e9);
        // ...and released once DCQCN took over.
        assert!(
            r.final_gfc_rate > 9e9,
            "GFC still engaged at the end: {:.2} G",
            r.final_gfc_rate / 1e9
        );
        // DCQCN finds the fair share (C/8 = 1.25 G) within a factor of two.
        assert!(
            r.steady_dcqcn > 0.4e9 && r.steady_dcqcn < 2.6e9,
            "DCQCN steady {:.2} G",
            r.steady_dcqcn / 1e9
        );
        // Queue bounded by the GFC stages (never near the 300 KB buffer).
        assert!(r.peak_queue < 300.0 * 1024.0, "peak queue {:.0} KB", r.peak_queue / 1024.0);
        // Steady state: DCQCN governs (its rate is below GFC's assignment).
        assert!(
            r.steady_dcqcn < r.final_gfc_rate + 1e8,
            "DCQCN {:.2} G not below GFC {:.2} G",
            r.steady_dcqcn / 1e9,
            r.final_gfc_rate / 1e9
        );
    }
}
