//! The analyzer's input: the fabric parameters that determine soundness.

use gfc_core::fc_config::FcConfig;
use gfc_core::theorems;
use gfc_core::units::{Dur, Rate};

/// Whether the network builders gate on the preflight report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreflightPolicy {
    /// Run the analysis and refuse to build when it finds Errors.
    Enforce,
    /// Build without running the analysis — for deliberately unsound
    /// adversarial setups (the Fig. 9/12 deadlock demonstrations run PFC
    /// on a ring *because* it is unsound). The report is one
    /// [`preflight`](crate::preflight) call away.
    Acknowledge,
}

/// The physical and flow-control parameters the checks reason about —
/// a view of the simulator's `SimConfig` that keeps `gfc-verify`
/// independent of the simulator crate (the simulator depends on the
/// analyzer, not the other way around).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricSpec {
    /// Link capacity `C` (every link; the paper's fabrics are homogeneous).
    pub capacity: Rate,
    /// Maximum transmission unit, bytes.
    pub mtu: u64,
    /// Physical ingress buffer per (port, priority), bytes.
    pub buffer_bytes: u64,
    /// One-way wire latency `t_w` (the simulator's propagation delay).
    pub t_wire: Dur,
    /// Control-message processing delay `t_r`.
    pub t_proc: Dur,
    /// The flow-control scheme under test, with its parameters (the
    /// stage ratio of buffer-based GFC now travels inside
    /// [`FcConfig::GfcBuffer`] rather than as a side-channel field here).
    pub fc: FcConfig,
    /// Minimum rate-limiter unit (§7; 8 Kb/s on commodity gear).
    pub min_rate_unit: Rate,
}

impl FabricSpec {
    /// Worst-case feedback latency τ for these parameters (Eq. 6):
    /// `2·MTU/C + 2·t_w + t_r`.
    pub fn tau(&self) -> Dur {
        theorems::worst_case_tau(self.mtu, self.capacity, self.t_wire, self.t_proc)
    }

    /// `C·τ` in bytes — the in-flight data one worst-case feedback latency
    /// admits, the unit every threshold bound is expressed in.
    pub fn ctau_bytes(&self) -> u64 {
        self.capacity.bytes_in(self.tau())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_matches_paper_at_10g() {
        // §5.4: CEE at 10G has τ ≈ 7.4 µs (MTU 1500 is within 60 ns of
        // the paper's 1.5 KB figure).
        let spec = FabricSpec {
            capacity: Rate::from_gbps(10),
            mtu: 1500,
            buffer_bytes: 300 * 1024,
            t_wire: Dur::from_micros(1),
            t_proc: Dur::from_micros(3),
            fc: FcConfig::None,
            min_rate_unit: Rate::from_kbps(8),
        };
        assert!((spec.tau().as_micros_f64() - 7.4).abs() < 0.1);
        assert!((spec.ctau_bytes() as i64 - 9250).abs() < 100);
    }
}
