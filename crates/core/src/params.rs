//! Parameter presets and derivations (§5.4).
//!
//! A [`LinkClass`] bundles the physical constants that determine the
//! worst-case feedback latency τ; from it and a buffer size the standard
//! configurations of each flow-control scheme are derived exactly as the
//! paper prescribes.

use crate::fc_config::PfcParams;
use crate::mapping::{LinearMapping, StageTable};
use crate::theorems;
use crate::units::{Dur, Rate};

/// Physical link characteristics from which τ is computed (Eq. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkClass {
    /// Line rate `C`.
    pub capacity: Rate,
    /// Maximum transmission unit in bytes (CEE: 1.5 KB, IB: 4 KB).
    pub mtu: u64,
    /// One-way wire latency `t_w`.
    pub t_wire: Dur,
    /// Feedback-message processing time `t_r` (≤ 3 µs per Cisco guidance).
    pub t_proc: Dur,
}

impl LinkClass {
    /// CEE defaults at a given line rate: MTU 1.5 KB, 1 µs wire, 3 µs
    /// processing (the §5.4 example values).
    pub fn cee(capacity: Rate) -> Self {
        LinkClass { capacity, mtu: 1536, t_wire: Dur::from_micros(1), t_proc: Dur::from_micros(3) }
    }

    /// InfiniBand defaults: MTU 4 KB.
    pub fn infiniband(capacity: Rate) -> Self {
        LinkClass { capacity, mtu: 4096, t_wire: Dur::from_micros(1), t_proc: Dur::from_micros(3) }
    }

    /// Worst-case feedback latency τ for this link (Eq. 6).
    pub fn tau(&self) -> Dur {
        theorems::worst_case_tau(self.mtu, self.capacity, self.t_wire, self.t_proc)
    }
}

/// Derive the standard PFC thresholds for a buffer of `buffer_bytes`:
/// `XOFF = buffer − headroom(C·τ)`, `XON = XOFF − 2·MTU` (the recommended
/// gap cited in §4.1). Panics if the buffer is too small to host the
/// headroom plus hysteresis.
pub fn derive_pfc(buffer_bytes: u64, link: &LinkClass) -> PfcParams {
    let headroom = theorems::pfc_headroom(link.capacity, link.tau());
    let xoff = buffer_bytes.checked_sub(headroom).expect("buffer smaller than PFC headroom");
    let xon = xoff.checked_sub(2 * link.mtu).expect("buffer smaller than PFC headroom + 2 MTU");
    PfcParams { xoff, xon }
}

/// Derive the buffer-based GFC stage table: `Bm = buffer` (§5.4: the space
/// above `Bm` is never used, so `Bm` is set to the full buffer) and
/// `B1 = Bm − 2·C·τ` (the largest safe `B1`). Panics if the buffer is
/// smaller than `2·C·τ`.
pub fn derive_buffer_gfc(buffer_bytes: u64, link: &LinkClass) -> StageTable {
    let b1 = theorems::buffer_based_b1_bound(buffer_bytes, link.capacity, link.tau())
        .expect("buffer smaller than 2*C*tau");
    StageTable::new(buffer_bytes, b1, link.capacity)
}

/// Derived configuration of time-based GFC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeGfcParams {
    /// The linear mapping (with `B0` from Theorem 5.1).
    pub mapping: LinearMapping,
    /// Feedback period `T`.
    pub period: Dur,
}

/// Derive time-based GFC parameters: `T` = time to send 65535 B (the CBFC
/// recommendation), `Bm = buffer`, `B0` at the Theorem 5.1 bound. Panics if
/// the buffer cannot satisfy the bound.
pub fn derive_time_gfc(buffer_bytes: u64, link: &LinkClass) -> TimeGfcParams {
    let period = theorems::cbfc_recommended_period(link.capacity);
    let b0 = theorems::time_based_b0_bound(buffer_bytes, link.capacity, link.tau(), period)
        .expect("buffer smaller than the Theorem 5.1 margin");
    TimeGfcParams { mapping: LinearMapping::new(b0, buffer_bytes, link.capacity), period }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::kb;

    #[test]
    fn cee_tau_values() {
        assert!((LinkClass::cee(Rate::from_gbps(10)).tau().as_micros_f64() - 7.4).abs() < 0.1);
        assert!((LinkClass::cee(Rate::from_gbps(100)).tau().as_micros_f64() - 5.2).abs() < 0.1);
    }

    #[test]
    fn pfc_derivation_leaves_headroom() {
        let link = LinkClass::cee(Rate::from_gbps(10));
        let cfg = derive_pfc(kb(300), &link);
        // Headroom C·τ ≈ 9.25 KB.
        assert!(cfg.xoff < kb(300));
        assert!(kb(300) - cfg.xoff >= 9_000);
        assert_eq!(cfg.xoff - cfg.xon, 2 * 1536);
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn pfc_rejects_tiny_buffer() {
        derive_pfc(1024, &LinkClass::cee(Rate::from_gbps(100)));
    }

    #[test]
    fn buffer_gfc_stage_count_by_speed() {
        // §5.4: N = 16/18/20 at 10/40/100G (± rounding of 2Cτ).
        for (g, n_expect) in [(10u64, 16usize), (40, 18), (100, 20)] {
            let link = LinkClass::cee(Rate::from_gbps(g));
            let t = derive_buffer_gfc(kb(512), &link);
            let n = t.num_stages();
            assert!(
                (n_expect as i64 - n as i64).abs() <= 2,
                "{g}G: N = {n}, paper says {n_expect}"
            );
        }
    }

    #[test]
    fn time_gfc_b0_below_bm() {
        let link = LinkClass::cee(Rate::from_gbps(10));
        let p = derive_time_gfc(kb(512), &link);
        assert!(p.mapping.b0 < p.mapping.bm);
        assert_eq!(p.mapping.bm, kb(512));
        assert!((p.period.as_micros_f64() - 52.4).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "Theorem 5.1")]
    fn time_gfc_rejects_tiny_buffer() {
        derive_time_gfc(kb(64), &LinkClass::cee(Rate::from_gbps(10)));
    }
}
