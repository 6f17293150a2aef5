//! Trace configuration and collected traces.
//!
//! Tracing is opt-in per observation point so that large sweeps pay
//! nothing for instrumentation they don't use.
//!
//! Per-port observation points live in the timeline samplers
//! (`SimConfig::telemetry.timeline`, see
//! [`Network::timeline_samplers`](crate::Network::timeline_samplers)),
//! which cover every port with bounded memory and export straight to CSV
//! and Chrome trace JSON. This module keeps only the flow-level series
//! with no sampler equivalent: per-flow DCQCN rate traces and per-source
//! delivered-throughput meters.

use gfc_core::fxhash::FxHashMap;
use gfc_core::units::Dur;
use gfc_telemetry::TimeSeries;
use gfc_topology::NodeId;

/// What to record.
#[derive(Debug, Clone, Default)]
pub struct TraceConfig {
    /// DCQCN per-flow rate series for these flow ids.
    pub dcqcn_flows: Vec<u64>,
    /// Per-source-host delivered-throughput meters with this bin width
    /// (`None` disables).
    pub host_throughput_bin: Option<Dur>,
}

impl TraceConfig {
    /// No tracing.
    pub fn none() -> Self {
        TraceConfig::default()
    }
}

/// Collected traces, keyed as configured. The maps are Fx-hashed: the
/// opt-in observation points are sparse (a handful of flows/hosts out of
/// thousands), and the lookups sit on the per-event hot path when
/// tracing is enabled.
#[derive(Debug, Default)]
pub struct Traces {
    /// DCQCN rate (bits/s) series per flow.
    pub dcqcn_rate: FxHashMap<u64, TimeSeries>,
    /// Delivered bytes metered per *source* host.
    pub host_throughput: FxHashMap<NodeId, ThroughputMeter>,
}

impl Traces {
    /// Initialize storage for a configuration.
    pub fn for_config(tc: &TraceConfig) -> Self {
        let mut t = Traces::default();
        for &f in &tc.dcqcn_flows {
            t.dcqcn_rate.insert(f, TimeSeries::new());
        }
        t
    }
}

/// Accumulates delivered bytes into fixed time bins ("counting sent
/// bytes every 100 µs", §6.2.3) and reports a bits-per-second series.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    bin_ps: u64,
    /// `bins[i]` = bytes delivered in `[i·bin, (i+1)·bin)`.
    bins: Vec<u64>,
}

impl ThroughputMeter {
    /// New meter with the given bin width (the paper uses 100 µs).
    pub(crate) fn new(bin_ps: u64) -> Self {
        assert!(bin_ps > 0);
        ThroughputMeter { bin_ps, bins: Vec::new() }
    }

    /// Record `bytes` delivered at time `t_ps`.
    pub(crate) fn record(&mut self, t_ps: u64, bytes: u64) {
        let idx = (t_ps / self.bin_ps) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += bytes;
    }

    /// Throughput per bin in bits/s as a time series (bin start time).
    /// `until_ps` extends trailing zero bins to that horizon, so a stalled
    /// network shows as zeros rather than a truncated series.
    pub fn series_bps(&self, until_ps: u64) -> TimeSeries {
        let n = (until_ps / self.bin_ps) as usize;
        let mut s = TimeSeries::new();
        for i in 0..n.max(self.bins.len()) {
            let bytes = self.bins.get(i).copied().unwrap_or(0);
            let bps = bytes as f64 * 8.0 * 1e12 / self.bin_ps as f64;
            s.push(i as u64 * self.bin_ps, bps);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_observes_nothing() {
        let tc = TraceConfig::default();
        assert!(tc.dcqcn_flows.is_empty() && tc.host_throughput_bin.is_none());
        let t = Traces::for_config(&tc);
        assert!(t.dcqcn_rate.is_empty() && t.host_throughput.is_empty());
    }

    #[test]
    fn for_config_allocates_requested_flow_series() {
        let tc = TraceConfig {
            dcqcn_flows: vec![0, 7],
            host_throughput_bin: Some(Dur::from_micros(50)),
        };
        let t = Traces::for_config(&tc);
        assert_eq!(t.dcqcn_rate.len(), 2);
        assert!(t.dcqcn_rate.contains_key(&7));
    }

    #[test]
    fn bins_accumulate() {
        let mut m = ThroughputMeter::new(100);
        m.record(0, 10);
        m.record(99, 10);
        m.record(100, 5);
        let s = m.series_bps(300);
        assert_eq!(s.len(), 3);
        // Bin 0: 20 bytes/100 ps = 1.6e12 bps.
        assert_eq!(s.points()[0].1, 20.0 * 8.0 * 1e12 / 100.0);
        assert_eq!(s.points()[2].1, 0.0);
    }

    #[test]
    fn zero_extension() {
        let m = ThroughputMeter::new(100);
        let s = m.series_bps(1000);
        assert_eq!(s.len(), 10);
        assert_eq!(s.max(), Some(0.0));
    }
}
