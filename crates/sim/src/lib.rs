//! # gfc-sim — deterministic packet-level simulator for lossless fabrics
//!
//! A from-scratch discrete-event simulator (the paper's authors used
//! OMNeT++; no Rust equivalent exists) purpose-built for hop-by-hop
//! flow-control studies:
//!
//! * picosecond virtual clock, totally ordered event heap → bit-identical
//!   replays per seed;
//! * ingress-accounted shared-buffer switches with per-priority queues and
//!   the full control-frame path (strict priority, no preemption —
//!   reproducing the Eq. (6) feedback latency);
//! * hosts with closed-loop flow generation, optional per-flow DCQCN;
//! * pluggable flow control per [`FcConfig`]: PFC, CBFC, the three GFC
//!   variants, BFC and DCFIT, all driven by the pure state machines of
//!   `gfc-core`, with every feedback message round-tripped through the
//!   real wire codecs;
//! * built-in measurement — timeline samplers, per-flow DCQCN rate
//!   traces and throughput meters ([`trace`]), the [`FlowLedger`] of FCT
//!   and slowdown records — and two independent deadlock detectors
//!   (progress-based and wait-for-graph).
//!
//! ## Quick example
//!
//! ```
//! use gfc_sim::{Network, SimConfig, TraceConfig};
//! use gfc_topology::{Routing, Incast};
//! use gfc_core::units::Time;
//!
//! // 2-to-1 incast under derived PFC thresholds.
//! let inc = Incast::new(2);
//! let cfg = SimConfig::default_10g();
//! let mut net = Network::new(inc.topo.clone(), Routing::spf(), cfg, TraceConfig::none());
//! net.start_flow(inc.senders[0], inc.receiver, Some(3_000_000), 0);
//! net.start_flow(inc.senders[1], inc.receiver, Some(3_000_000), 0);
//! net.run_until(Time::from_millis(20));
//! assert_eq!(net.stats().drops, 0, "lossless");
//! assert_eq!(net.ledger().finished(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod event;
mod fabric;
pub mod fc;
pub mod flowgen;
mod ledger;
pub mod network;
pub mod packet;
pub mod port;
mod progress;
pub mod shard;
mod telemetry;
pub mod trace;

pub use config::{FcConfig, PreflightPolicy, SimConfig, TelemetryConfig, TimelineConfig};
pub use flowgen::{ClosedLoopWorkload, FlowRequest, ListWorkload, Workload};
pub use gfc_telemetry::{ChromeTrace, FlowSpan, FlowSpans, SamplerSet, SpanOutcome};
pub use ledger::{FlowLedger, FlowRecord};
pub use network::{Network, SimStats};
pub use shard::{ShardedNetwork, SyncStats};
pub use trace::{TraceConfig, Traces};

/// Run the `gfc-verify` static preflight analysis on a full simulator
/// configuration — the ergonomic entry point for vetting a scenario
/// without building a [`Network`] (the builders run the same pass as
/// their gate under [`PreflightPolicy::Enforce`]).
pub fn preflight(
    topo: &gfc_topology::Topology,
    routing: &gfc_topology::Routing,
    cfg: &SimConfig,
) -> gfc_verify::Report {
    gfc_verify::preflight(topo, routing, &cfg.fabric_spec())
}

/// The builders' preflight gate, run once per run by [`Network::new`] and
/// [`ShardedNetwork::new`]: under [`PreflightPolicy::Enforce`], panic
/// with the full [`preflight`] report when it has errors.
pub(crate) fn preflight_gate(
    topo: &gfc_topology::Topology,
    routing: &gfc_topology::Routing,
    cfg: &SimConfig,
) {
    if cfg.preflight == PreflightPolicy::Enforce {
        let report = preflight(topo, routing, cfg);
        assert!(
            !report.has_errors(),
            "preflight rejected this configuration (set SimConfig::preflight to \
             PreflightPolicy::Acknowledge to run it anyway):\n{}",
            report.render()
        );
    }
}
