//! Observability layer for the GFC reproduction: a zero-cost-when-disabled
//! metrics registry, a bounded flight recorder, and deadlock forensics.
//!
//! This crate is deliberately independent of the simulator: it speaks raw
//! node/port ids and labels, and `gfc-sim` owns the wiring (see
//! `gfc_sim::Network::metrics_snapshot`, `::flight_recorder`, and
//! `::forensics`). The three pieces:
//!
//! * [`MetricsRegistry`] — typed counters/gauges/histograms behind copyable
//!   ids; every update is one branch when disabled. [`Snapshot`] freezes
//!   the values and exports JSON/CSV.
//! * [`FlightRecorder`] — a fixed-capacity ring of structured
//!   [`EventRecord`]s (enqueues, hold-and-wait transitions, stage
//!   crossings, ctrl rx/tx, rate changes), cheap during sweeps, dumpable
//!   on demand.
//! * [`ForensicsReport`] — captured automatically when a deadlock verdict
//!   first lands: the [`WaitForGraph`] with its circular hold-and-wait,
//!   per-port occupancies, and the trailing recorder events, rendered as
//!   text or Graphviz DOT.

pub mod causal;
pub mod export;
pub mod forensics;
pub mod probe;
pub mod recorder;
pub mod registry;
pub mod timeline;

pub use causal::{
    CausalReport, CausalTracker, CauseToken, CtrlSense, Episode, FlowBlame, FlowClass, TreeSummary,
};
pub use export::ChromeTrace;
pub use forensics::{
    ForensicsReport, ForensicsTrigger, PortOccupancy, WaitForGraph, WfSide, WfVertex,
};
pub use probe::EngineProbe;
pub use recorder::{CtrlClass, EventRecord, FlightRecorder, RecordKind};
pub use registry::{
    names, percentile, CounterId, GaugeId, HistId, MetricEntry, MetricValue, MetricsRegistry,
    Percentiles, Snapshot, Summary,
};
pub use timeline::{
    FlowSpan, FlowSpans, SamplerSet, SpanOutcome, TimeSeries, TimelineConfig, TrackKind, TrackMeta,
};

use serde::{Deserialize, Serialize};

/// What the simulator's observability layer records.
///
/// Lives here (rather than in `gfc-sim`'s config) so the layer stays
/// reusable; `SimConfig` embeds one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Record live metrics (counters/gauges/histograms). When off, every
    /// registry update is a single predictable branch.
    pub metrics: bool,
    /// Flight-recorder ring capacity in events; 0 disables recording.
    pub flight_recorder: usize,
    /// Capture a [`ForensicsReport`] when a deadlock verdict first lands.
    pub forensics: bool,
    /// Timeline layer: periodic per-port samplers and per-flow spans
    /// (see [`TimelineConfig`]).
    pub timeline: TimelineConfig,
    /// Engine self-profiler (see [`EngineProbe`]): per-event-class
    /// wall-time histograms and scheduler occupancy gauges. Costs one
    /// `Instant::now()` read per dispatched event when on.
    pub probe: bool,
    /// Causal stall attribution (see [`CausalTracker`]): control-message
    /// lineage, pause-propagation trees, and per-flow blame. When off,
    /// every message carries [`CauseToken::NONE`] and nothing is
    /// tracked — replay fingerprints are bit-identical on↔off.
    pub causal: bool,
}

impl TelemetryConfig {
    /// Everything off — the configuration for perf-sensitive sweeps.
    pub fn off() -> TelemetryConfig {
        TelemetryConfig {
            metrics: false,
            flight_recorder: 0,
            forensics: false,
            timeline: TimelineConfig::off(),
            probe: false,
            causal: false,
        }
    }

    /// Metrics + forensics on, a deep flight recorder, the timeline
    /// layer sampling, the engine probe, and causal attribution — the
    /// configuration for debugging a single run.
    pub fn full() -> TelemetryConfig {
        TelemetryConfig {
            metrics: true,
            flight_recorder: 4096,
            forensics: true,
            timeline: TimelineConfig::full(),
            probe: true,
            causal: true,
        }
    }
}

impl Default for TelemetryConfig {
    /// Metrics and forensics on, flight recorder, timeline, and probe
    /// off: the snapshot API works everywhere, while the per-event and
    /// per-period recording costs are opt-in.
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            metrics: true,
            flight_recorder: 0,
            forensics: true,
            timeline: TimelineConfig::off(),
            probe: false,
            causal: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets() {
        let d = TelemetryConfig::default();
        assert!(d.metrics && d.forensics);
        assert_eq!(d.flight_recorder, 0);
        assert!(!d.timeline.sampling() && !d.timeline.spans);
        assert!(!d.probe && !d.causal);
        let off = TelemetryConfig::off();
        assert!(!off.metrics && !off.forensics && !off.probe && !off.causal);
        assert_eq!(off.flight_recorder, 0);
        assert!(!off.timeline.sampling());
        let full = TelemetryConfig::full();
        assert!(full.flight_recorder > 0);
        assert!(full.timeline.sampling() && full.timeline.spans);
        assert!(full.probe && full.causal);
    }
}
