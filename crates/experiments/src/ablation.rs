//! **Ablation** (not a paper figure): the stage-ratio design choice of
//! §4.2. Eq. (3) admits any per-stage rate ratio `R_k/R_{k−1} ≤ 3/4`
//! under Theorem 4.1; the paper *selects* 1/2 (Eq. 4) without comparing.
//! This study runs the Fig. 1 ring under buffer-based GFC with ratios
//! 1/4, 1/2 (paper), 2/3 and 3/4, and reports steady goodput, steady
//! queue, feedback-message load, and the time to reach the steady rate.
//!
//! Expected trade-off: a smaller ratio (aggressive halving/quartering)
//! converges in fewer feedback messages but quantizes the rate more
//! coarsely (steady point further from the ideal share when the fair
//! share falls between stages); a larger ratio tracks the drain rate more
//! tightly at the cost of more stages and more feedback traffic.

use crate::common::{row, sim_config_300k, start_flows, PinnedCase, Scheme};
use gfc_core::units::Time;
use gfc_sim::Network;
use gfc_sim::TraceConfig;
use gfc_telemetry::names;
use gfc_topology::Routing;

/// Parameters of the ratio ablation.
#[derive(Debug, Clone)]
pub struct AblationParams {
    /// Ratios to sweep, as `(num, den)`.
    pub ratios: Vec<(u64, u64)>,
    /// Simulated horizon.
    pub horizon: Time,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AblationParams {
    fn default() -> Self {
        AblationParams {
            ratios: vec![(1, 4), (1, 2), (2, 3), (3, 4)],
            horizon: Time::from_millis(20),
            seed: 3,
        }
    }
}

/// Result for one ratio.
#[derive(Debug, Clone)]
pub struct RatioOutcome {
    /// The ratio `(num, den)`.
    pub ratio: (u64, u64),
    /// Aggregate goodput over the tail half (bits/s).
    pub tail_goodput: f64,
    /// Feedback messages generated per millisecond of simulation.
    pub feedback_msgs_per_ms: f64,
    /// Drops (must stay 0).
    pub drops: u64,
    /// Structural deadlock (must stay false).
    pub deadlocked: bool,
}

/// The ablation result.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Parameters used.
    pub params: AblationParams,
    /// Per-ratio outcomes.
    pub outcomes: Vec<RatioOutcome>,
}

/// Run the stage-ratio ablation on the Fig. 1 ring.
pub fn run(params: AblationParams) -> AblationResult {
    let mut outcomes = Vec::new();
    for &ratio in &params.ratios {
        let case = PinnedCase::ring();
        let mut cfg = sim_config_300k(Scheme::GfcBuffer, params.seed);
        match &mut cfg.fc {
            gfc_sim::config::FcConfig::GfcBuffer(p) => p.stage_ratio = ratio,
            other => unreachable!("300k GfcBuffer config is {other:?}"),
        }
        let routing = Routing::fixed(case.routes());
        let mut net = Network::new(case.topo, routing, cfg, TraceConfig::none());
        start_flows(&mut net, &case.cycle_flows, None, None);
        let mid = Time(params.horizon.0 / 2);
        net.run_until(mid);
        let mid_snap = net.metrics_snapshot();
        net.run_until(params.horizon);
        let snap = net.metrics_snapshot();
        outcomes.push(RatioOutcome {
            ratio,
            tail_goodput: snap.delta_goodput_bps(&mid_snap),
            feedback_msgs_per_ms: snap.counter(names::FEEDBACK_GENERATED).unwrap_or(0) as f64
                / params.horizon.as_millis_f64(),
            drops: snap.counter(names::DROPS).unwrap_or(0),
            deadlocked: net.structurally_deadlocked(),
        });
    }
    AblationResult { params, outcomes }
}

impl AblationResult {
    /// Report.
    pub fn report(&self) -> String {
        let mut s = String::from("ABLATION — buffer-based GFC stage ratio (paper picks 1/2)\n");
        for o in &self.outcomes {
            s += &row(
                &format!("ratio {}/{}", o.ratio.0, o.ratio.1),
                "no deadlock, goodput ~15 Gb/s",
                &format!(
                    "goodput {:.2} Gb/s, {:.1} feedback msgs/ms, drops {}, deadlock {}",
                    o.tail_goodput / 1e9,
                    o.feedback_msgs_per_ms,
                    o.drops,
                    o.deadlocked
                ),
            );
        }
        s
    }
}

/// τ-sensitivity study: Theorem 4.1 predicts the queue overshoot above
/// `B1` scales with the feedback latency, and losslessness holds while
/// `Bm − B1 ≥ 2·C·τ`. This sweep varies the control-processing delay on
/// the 2-to-1 incast with `B1` derived per §5.4 for each τ, and records
/// the peak ingress queue.
#[derive(Debug, Clone)]
pub struct TauSweepOutcome {
    /// Control-processing delay `t_r` (µs); τ ≈ t_r + 4.4 µs.
    pub t_proc_us: u64,
    /// `B1` derived for this τ (bytes).
    pub b1: u64,
    /// Peak ingress queue (bytes).
    pub peak_queue: f64,
    /// Drops (must stay 0 while the bound is respected).
    pub drops: u64,
}

/// Run the τ sweep. Returns outcomes ordered by increasing τ.
pub fn run_tau_sweep(seed: u64) -> Vec<TauSweepOutcome> {
    use gfc_core::params::LinkClass;
    use gfc_core::theorems::buffer_based_b1_bound;
    use gfc_core::units::{kb, Dur, Rate};
    use gfc_sim::{FcConfig, TraceConfig};
    use gfc_topology::Incast;

    let mut out = Vec::new();
    for t_proc_us in [1u64, 3, 10, 20, 40] {
        let mut link = LinkClass::cee(Rate::from_gbps(10));
        link.t_proc = Dur::from_micros(t_proc_us);
        let bm = kb(300);
        let b1 = buffer_based_b1_bound(bm, link.capacity, link.tau())
            .expect("300 KB admits the bound for these taus");
        let inc = Incast::new(2);
        let mut cfg = sim_config_300k(Scheme::GfcBuffer, seed);
        cfg.fc = FcConfig::gfc_buffer(bm, b1);
        cfg.ctrl_proc_delay = Dur::from_micros(t_proc_us);
        let mut net = gfc_sim::Network::new(
            inc.topo.clone(),
            gfc_topology::Routing::spf(),
            cfg,
            TraceConfig::none(),
        );
        for &s in &inc.senders {
            net.start_flow(s, inc.receiver, None, 0).expect("route");
        }
        net.run_until(Time::from_millis(5));
        // The only ports that queue in a 2-to-1 incast are the congested
        // switch ingresses, so the registry's network-wide per-port
        // high-water mark *is* this sweep's peak queue (observed at every
        // enqueue — change resolution, not sampled).
        let snap = net.metrics_snapshot();
        out.push(TauSweepOutcome {
            t_proc_us,
            b1,
            peak_queue: snap.gauge(names::INGRESS_HWM).map_or(0.0, |(_, hwm)| hwm as f64),
            drops: net.stats().drops,
        });
    }
    out
}

/// Render the τ sweep.
pub fn tau_sweep_report(outcomes: &[TauSweepOutcome]) -> String {
    let mut s = String::from("ABLATION — feedback-latency (τ) sensitivity, 2-to-1 incast\n");
    for o in outcomes {
        s += &row(
            &format!("t_r = {} µs (B1 = {} KB)", o.t_proc_us, o.b1 / 1024),
            "peak < Bm = 300 KB, 0 drops",
            &format!("peak {:.1} KB, drops {}", o.peak_queue / 1024.0, o.drops),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overshoot_scales_with_tau_but_stays_lossless() {
        let sweep = run_tau_sweep(4);
        assert_eq!(sweep.len(), 5);
        for o in &sweep {
            assert_eq!(o.drops, 0, "t_r = {} µs dropped", o.t_proc_us);
            assert!(
                o.peak_queue < 300.0 * 1024.0 + 6001.0,
                "t_r = {} µs peak {:.0} exceeded Bm + headroom",
                o.t_proc_us,
                o.peak_queue
            );
        }
        // Larger τ ⇒ B1 derived lower (more reserve).
        for w in sweep.windows(2) {
            assert!(w[1].b1 < w[0].b1, "B1 must shrink with τ");
        }
    }

    #[test]
    fn all_admissible_ratios_avoid_deadlock() {
        let r = run(AblationParams::default());
        assert_eq!(r.outcomes.len(), 4);
        for o in &r.outcomes {
            assert!(!o.deadlocked, "ratio {:?} deadlocked", o.ratio);
            assert_eq!(o.drops, 0, "ratio {:?} dropped", o.ratio);
            assert!(
                o.tail_goodput > 10e9,
                "ratio {:?} goodput {:.2} Gb/s",
                o.ratio,
                o.tail_goodput / 1e9
            );
        }
        // The paper's 1/2 is no worse than the alternatives on goodput
        // (the ring's fair share 5G sits exactly on a stage for 1/2).
        let by_ratio =
            |n: u64, d: u64| r.outcomes.iter().find(|o| o.ratio == (n, d)).unwrap().tail_goodput;
        assert!(by_ratio(1, 2) >= by_ratio(1, 4) * 0.99);
    }
}
