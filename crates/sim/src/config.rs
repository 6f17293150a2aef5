//! Simulation configuration.

use gfc_core::params::LinkClass;
use gfc_core::units::{Dur, Rate};
use gfc_dcqcn::{DcqcnParams, EcnMarker};
use gfc_verify::FabricSpec;
use serde::{Deserialize, Serialize};

pub use gfc_core::fc_config::{
    BfcConfig, CbfcParams, ConceptualParams, DcfitParams, FcConfig, GfcBufferParams, GfcTimeParams,
    PfcParams,
};
pub use gfc_telemetry::{TelemetryConfig, TimelineConfig};
pub use gfc_verify::PreflightPolicy;

/// How a switch moves packets from ingress FIFOs into free egress staging
/// slots — i.e. how competing inputs share an output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PumpPolicy {
    /// Output-queued switch: packets move to the egress queue immediately
    /// on arrival (no head-of-line blocking); the output FIFO serves
    /// competing inputs in arrival order, i.e. proportionally to their
    /// arrival rates. This is the classic packet-level switch model
    /// (OMNeT/ns-3 style, as in the paper's simulations): line-rate
    /// sources outcompete throttled transit traffic, which is exactly the
    /// imbalance that feeds the deadlock scenarios.
    OutputQueued,
    /// Input-queued with bounded egress staging, arrival order across
    /// ingress FIFO heads: adds head-of-line blocking to the proportional
    /// discipline (a single software forwarding pipeline such as the
    /// paper's DPDK testbed switch).
    ArrivalOrder,
    /// Input-queued with bounded egress staging, round-robin across
    /// ingress ports: fair shares per input, as in VOQ/iSLIP hardware
    /// fabrics.
    RoundRobin,
}

/// Full simulator configuration. Every link shares the same capacity and
/// propagation delay (the paper's scenarios are homogeneous).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Link capacity `C`.
    pub capacity: Rate,
    /// Per-link propagation delay.
    pub prop_delay: Dur,
    /// MTU: flows are packetized into frames of at most this size.
    pub mtu: u64,
    /// Ingress buffer per (port, priority), bytes.
    pub buffer_bytes: u64,
    /// The flow-control scheme under test, with its parameters.
    pub fc: FcConfig,
    /// Output-sharing discipline of the switches.
    pub pump: PumpPolicy,
    /// Packets moved per round-robin pump grant (input-queued policies).
    /// 1 = ideal per-packet fairness; the paper's DPDK testbed switch
    /// forwards in bursts of 32 (test-pipeline's batch size), which is the
    /// burstiness that seeds its PFC ring deadlock.
    pub pump_batch: usize,
    /// Egress staging slots (packets) for input-queued policies. Must be
    /// at least 2 to keep the wire busy; raise alongside `pump_batch`.
    pub stage_slots: usize,
    /// Receiver-side control-message processing delay `t_r`.
    pub ctrl_proc_delay: Dur,
    /// Number of priority classes / virtual lanes in use (1..=8).
    pub num_priorities: usize,
    /// ECN marking at switch egress (enables the DCQCN CP).
    pub ecn: Option<EcnMarker>,
    /// DCQCN at the hosts (per-flow reaction points + CNPs).
    pub dcqcn: Option<DcqcnParams>,
    /// Minimum rate-limiter unit (§7; commodity default 8 Kb/s).
    pub min_rate_unit: Rate,
    /// RNG seed.
    pub seed: u64,
    /// Deadlock verdict window for the progress monitor.
    pub progress_window: Dur,
    /// Progress-monitor sampling interval.
    pub monitor_interval: Dur,
    /// Stop the run as soon as a deadlock verdict is reached.
    pub stop_on_deadlock: bool,
    /// What [`Network::new`](crate::Network::new) does with the static
    /// preflight analysis (`gfc-verify`): refuse Error-level diagnostics
    /// ([`PreflightPolicy::Enforce`], the default), run the analysis but
    /// proceed anyway ([`PreflightPolicy::Acknowledge`] — for deliberately
    /// unsound adversarial setups such as the Fig. 9/12 deadlock studies),
    /// or skip it entirely ([`PreflightPolicy::Skip`]).
    pub preflight: PreflightPolicy,
    /// What the observability layer records: live metrics (on by
    /// default, one branch per update when off), the flight-recorder
    /// ring (opt-in by capacity), and automatic deadlock forensics. See
    /// [`Network::metrics_snapshot`](crate::Network::metrics_snapshot),
    /// [`Network::flight_recorder`](crate::Network::flight_recorder),
    /// and [`Network::forensics`](crate::Network::forensics).
    pub telemetry: TelemetryConfig,
}

impl SimConfig {
    /// Baseline config on a link class: 10G CEE defaults, PFC thresholds
    /// derived per §5.4, 300 KB buffers. Callers override fields freely.
    pub fn default_10g() -> Self {
        let link = LinkClass::cee(Rate::from_gbps(10));
        let buffer = 300 * 1024;
        let pfc = gfc_core::params::derive_pfc(buffer, &link);
        SimConfig {
            capacity: link.capacity,
            prop_delay: Dur::from_micros(1),
            mtu: 1500,
            buffer_bytes: buffer,
            fc: FcConfig::pfc(pfc.xoff, pfc.xon),
            pump: PumpPolicy::RoundRobin,
            pump_batch: 1,
            stage_slots: 2,
            ctrl_proc_delay: link.t_proc,
            num_priorities: 1,
            ecn: None,
            dcqcn: None,
            min_rate_unit: Rate::from_kbps(8),
            seed: 1,
            progress_window: Dur::from_millis(2),
            monitor_interval: Dur::from_micros(100),
            stop_on_deadlock: false,
            preflight: PreflightPolicy::Enforce,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// The physical/flow-control parameters `gfc-verify` analyzes, lifted
    /// out of the full simulator configuration.
    pub fn fabric_spec(&self) -> FabricSpec {
        FabricSpec {
            capacity: self.capacity,
            mtu: self.mtu,
            buffer_bytes: self.buffer_bytes,
            t_wire: self.prop_delay,
            t_proc: self.ctrl_proc_delay,
            fc: self.fc,
            min_rate_unit: self.min_rate_unit,
        }
    }

    /// Validate invariants; panics on inconsistent settings. Called by the
    /// network builder. (Startup-time only — the per-event hot paths
    /// dispatch through the backend traits, never on the scheme.)
    pub fn validate(&self) {
        assert!(self.capacity > Rate::ZERO, "capacity must be positive");
        assert!(self.mtu > 0 && self.mtu <= self.buffer_bytes, "MTU must fit the buffer");
        assert!((1..=8).contains(&self.num_priorities), "1..=8 priorities supported (802.1Qbb)");
        match self.fc {
            FcConfig::Pfc(PfcParams { xoff, xon }) | FcConfig::Dcfit(DcfitParams { xoff, xon }) => {
                assert!(xon < xoff, "XON must be below XOFF");
                assert!(xoff <= self.buffer_bytes, "XOFF beyond buffer");
            }
            FcConfig::GfcBuffer(GfcBufferParams { bm, b1, stage_ratio: (n, d) }) => {
                assert!(b1 < bm, "B1 must be below Bm");
                assert!(bm <= self.buffer_bytes, "Bm beyond buffer");
                assert!(n > 0 && n < d, "stage ratio must be in (0, 1)");
            }
            FcConfig::GfcTime(GfcTimeParams { b0, bm, period }) => {
                assert!(b0 < bm, "B0 must be below Bm");
                assert!(bm <= self.buffer_bytes, "Bm beyond buffer");
                assert!(period.0 > 0, "period must be positive");
            }
            FcConfig::Conceptual(ConceptualParams { b0, bm, .. }) => {
                assert!(b0 < bm, "B0 must be below Bm");
                assert!(bm <= self.buffer_bytes, "Bm beyond buffer");
            }
            FcConfig::Cbfc(CbfcParams { period }) => {
                assert!(period.0 > 0, "period must be positive");
            }
            FcConfig::Bfc(bfc) => {
                assert!(bfc.is_valid(), "BFC thresholds inconsistent");
                assert!(bfc.agg_xoff <= self.buffer_bytes, "aggregate XOFF beyond buffer");
            }
            FcConfig::None => {}
        }
        assert!(self.monitor_interval.0 > 0);
        assert!(self.progress_window >= self.monitor_interval);
        assert!(self.pump_batch >= 1, "pump batch must be at least 1");
        assert!(self.stage_slots >= 2, "need at least 2 staging slots to keep the wire busy");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SimConfig::default_10g().validate();
    }

    #[test]
    #[should_panic(expected = "XON must be below XOFF")]
    fn rejects_bad_pfc() {
        let mut c = SimConfig::default_10g();
        c.fc = FcConfig::pfc(10, 10);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "XON must be below XOFF")]
    fn rejects_bad_dcfit() {
        let mut c = SimConfig::default_10g();
        c.fc = FcConfig::dcfit(10, 10);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "BFC thresholds inconsistent")]
    fn rejects_bad_bfc() {
        let mut c = SimConfig::default_10g();
        c.fc = FcConfig::Bfc(BfcConfig {
            flow_xoff: 100,
            flow_xon: 200,
            agg_xoff: 1000,
            agg_xon: 900,
        });
        c.validate();
    }

    #[test]
    #[should_panic(expected = "MTU must fit")]
    fn rejects_oversize_mtu() {
        let mut c = SimConfig::default_10g();
        c.mtu = c.buffer_bytes + 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "Bm beyond buffer")]
    fn rejects_gfc_bm_beyond_buffer() {
        let mut c = SimConfig::default_10g();
        c.fc = FcConfig::gfc_buffer(c.buffer_bytes + 1, 10);
        c.validate();
    }
}
