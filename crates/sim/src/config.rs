//! Simulation configuration.

use gfc_core::params::LinkClass;
use gfc_core::units::{Dur, Rate};
use gfc_dcqcn::{DcqcnParams, EcnMarker};
use gfc_verify::FabricSpec;

pub use gfc_core::fc_config::{
    BfcConfig, CbfcParams, ConceptualParams, DcfitParams, FcConfig, GfcBufferParams, GfcTimeParams,
    PfcParams,
};
pub use gfc_telemetry::{TelemetryConfig, TimelineConfig};
pub use gfc_verify::PreflightPolicy;

/// How a switch moves packets from ingress FIFOs into free egress staging
/// slots — i.e. how competing inputs share an output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpPolicy {
    /// Output-queued switch: packets move to the egress queue immediately
    /// on arrival (no head-of-line blocking); the output FIFO serves
    /// competing inputs in arrival order, i.e. proportionally to their
    /// arrival rates. This is the classic packet-level switch model
    /// (OMNeT/ns-3 style, as in the paper's simulations): line-rate
    /// sources outcompete throttled transit traffic, which is exactly the
    /// imbalance that feeds the deadlock scenarios.
    OutputQueued,
    /// Input-queued, round-robin across ingress ports: fair shares per
    /// input, as in VOQ/iSLIP hardware fabrics. Each (egress, priority)
    /// stages at most 2 packets (one on the wire, one ready behind it),
    /// and each grant moves one packet from the chosen ingress FIFO, so
    /// a packet whose egress is full waits at its ingress (head-of-line
    /// blocking).
    RoundRobin,
}

/// Full simulator configuration. Every link shares the same capacity and
/// propagation delay (the paper's scenarios are homogeneous).
#[derive(Debug, Clone, PartialEq)]
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
    /// Whether [`Network::new`](crate::Network::new) and
    /// [`ShardedNetwork::new`](crate::ShardedNetwork::new) gate on the
    /// static preflight analysis (`gfc-verify`): run it and refuse
    /// Error-level diagnostics ([`PreflightPolicy::Enforce`], the
    /// default), or build without it ([`PreflightPolicy::Acknowledge`] —
    /// for deliberately unsound adversarial setups such as the Fig. 9/12
    /// deadlock studies).
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
        assert!(self.monitor_interval.0 > 0, "monitor interval must be positive");
        assert!(
            self.progress_window >= self.monitor_interval,
            "progress window shorter than the monitor interval"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn default_is_valid() {
        SimConfig::default_10g().validate();
    }

    /// Every `validate` assert, broken alone on the default config,
    /// panics with its own message. One row per assert; the MTU rule and
    /// the shared PFC/DCFIT XON rule get a row for each way to break them.
    #[test]
    fn each_rule_rejects_its_own_violation() {
        type Break = fn(&mut SimConfig);
        let cases: [(&str, Break); 20] = [
            ("capacity must be positive", |c| c.capacity = Rate::ZERO),
            ("MTU must fit the buffer", |c| c.mtu = c.buffer_bytes + 1),
            ("MTU must fit the buffer", |c| c.mtu = 0),
            ("1..=8 priorities supported", |c| c.num_priorities = 9),
            ("XON must be below XOFF", |c| c.fc = FcConfig::pfc(10, 10)),
            ("XON must be below XOFF", |c| c.fc = FcConfig::dcfit(10, 10)),
            ("XOFF beyond buffer", |c| c.fc = FcConfig::pfc(c.buffer_bytes + 1, 10)),
            ("B1 must be below Bm", |c| c.fc = FcConfig::gfc_buffer(1000, 1000)),
            ("Bm beyond buffer", |c| c.fc = FcConfig::gfc_buffer(c.buffer_bytes + 1, 10)),
            ("stage ratio must be in (0, 1)", |c| {
                c.fc =
                    FcConfig::GfcBuffer(GfcBufferParams { bm: 1000, b1: 10, stage_ratio: (2, 2) });
            }),
            ("B0 must be below Bm", |c| c.fc = FcConfig::gfc_time(1000, 1000, Dur(1))),
            ("Bm beyond buffer", |c| c.fc = FcConfig::gfc_time(10, c.buffer_bytes + 1, Dur(1))),
            ("period must be positive", |c| c.fc = FcConfig::gfc_time(10, 1000, Dur::ZERO)),
            ("B0 must be below Bm", |c| c.fc = FcConfig::conceptual(1000, 1000, Dur::ZERO)),
            ("Bm beyond buffer", |c| {
                c.fc = FcConfig::conceptual(10, c.buffer_bytes + 1, Dur::ZERO);
            }),
            ("period must be positive", |c| c.fc = FcConfig::cbfc(Dur::ZERO)),
            ("BFC thresholds inconsistent", |c| {
                c.fc = FcConfig::Bfc(BfcConfig {
                    flow_xoff: 100,
                    flow_xon: 200,
                    agg_xoff: 1000,
                    agg_xon: 900,
                });
            }),
            ("aggregate XOFF beyond buffer", |c| {
                let agg_xoff = c.buffer_bytes + 1;
                c.fc = FcConfig::Bfc(BfcConfig {
                    flow_xoff: 100,
                    flow_xon: 50,
                    agg_xoff,
                    agg_xon: 900,
                });
            }),
            ("monitor interval must be positive", |c| c.monitor_interval = Dur::ZERO),
            ("progress window shorter than the monitor interval", |c| {
                c.progress_window = Dur::from_micros(50);
            }),
        ];
        for (want, brk) in cases {
            let mut c = SimConfig::default_10g();
            brk(&mut c);
            let err = catch_unwind(AssertUnwindSafe(|| c.validate()))
                .expect_err(&format!("{want}: accepted"));
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| err.downcast_ref::<String>().map(String::as_str))
                .unwrap_or_default();
            assert!(msg.contains(want), "{want}: panicked with {msg:?}");
        }
    }
}
