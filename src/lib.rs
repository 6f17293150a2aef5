//! # gfc — Gentle Flow Control, reproduced in Rust
//!
//! A from-scratch reproduction of *Gentle Flow Control: Avoiding Deadlock
//! in Lossless Networks* (Qian, Cheng, Zhang, Ren — SIGCOMM 2019),
//! including every substrate the paper depends on:
//!
//! * [`core`] — the flow-control state machines (PFC, CBFC, and
//!   the three GFC variants), wire codecs, rate limiter, and the
//!   Theorem 4.1/5.1 parameter mathematics;
//! * [`sim`] — a deterministic packet-level discrete-event
//!   simulator for lossless fabrics, with its flow ledger (FCT and
//!   slowdown) and deadlock verdicts;
//! * [`topology`] — fat-trees, rings, routing, failures,
//!   and cyclic-buffer-dependency analysis;
//! * [`workload`] — empirical flow-size distributions and
//!   traffic patterns;
//! * [`dcqcn`] — DCQCN congestion control for the interaction
//!   study;
//! * [`telemetry`] — the observability layer: metrics
//!   registry with JSON/CSV snapshots, flight recorder, automatic
//!   deadlock forensics (wait-for graph + DOT), timeline samplers, and
//!   the time series and summary statistics the figures compute on;
//! * [`verify`] — static preflight analysis: lint-style
//!   diagnostics (`GFC001`…) for configs, topologies, and the paper's
//!   theorem preconditions;
//! * [`experiments`] — one module per table/figure of
//!   the paper's evaluation.
//!
//! See `README.md` for a tour, `DESIGN.md` for the architecture and
//! model-fidelity notes, and `EXPERIMENTS.md` for paper-vs-measured
//! results.
//!
//! ## Quickstart
//!
//! ```
//! use gfc::prelude::*;
//!
//! // The paper's Fig. 1 scenario: three switches in a ring, clockwise
//! // two-hop flows. Under PFC this deadlocks; under buffer-based GFC the
//! // flows keep moving at their 5 Gb/s fair shares.
//! let ring = Ring::new(3);
//! let mut cfg = SimConfig::default_10g();
//! cfg.fc = FcConfig::gfc_buffer(kb(300), kb(281));
//! let routing = Routing::fixed(ring.clockwise_routes());
//! let mut net = Network::new(ring.topo.clone(), routing, cfg, TraceConfig::none());
//! for (src, dst) in ring.clockwise_flows() {
//!     net.start_flow(src, dst, None, 0).unwrap();
//! }
//! net.run_until(Time::from_millis(5));
//! assert!(!net.structurally_deadlocked());
//! assert_eq!(net.stats().drops, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gfc_core as core;
pub use gfc_dcqcn as dcqcn;
pub use gfc_experiments as experiments;
pub use gfc_sim as sim;
pub use gfc_telemetry as telemetry;
pub use gfc_topology as topology;
pub use gfc_verify as verify;
pub use gfc_workload as workload;

/// The most common imports for driving simulations.
pub mod prelude {
    pub use gfc_core::params::LinkClass;
    pub use gfc_core::units::{kb, mb, Dur, Rate, Time};
    pub use gfc_core::{LinearMapping, RateLimiter, StageTable};
    pub use gfc_sim::{
        ClosedLoopWorkload, FcConfig, FlowRequest, Network, ShardedNetwork, SimConfig, SpanOutcome,
        TelemetryConfig, TimelineConfig, TraceConfig, Workload,
    };
    pub use gfc_telemetry::{names as metric_names, ChromeTrace, Percentiles, Snapshot};
    pub use gfc_topology::{FatTree, Incast, Partition, Ring, Routing, Topology};
    pub use gfc_workload::{DestPolicy, EmpiricalCdf, FlowSizeDist};
}
