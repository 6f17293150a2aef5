//! Congestion Point: ECN marking at the switch egress queue.

/// RED-style ECN marker. Queue below `kmin_bytes` → never mark; above
/// `kmax_bytes` → always mark; in between → probability rising linearly to
/// `pmax`. With `kmin == kmax` this degenerates to the single-threshold
/// marker the Fig. 20 study configures (40 KB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcnMarker {
    /// Marking starts above this queue length (bytes).
    pub kmin_bytes: u64,
    /// Marking is certain at/above this queue length (bytes).
    pub kmax_bytes: u64,
    /// Marking probability at `kmax` (RED's `Pmax`).
    pub pmax: f64,
}

impl EcnMarker {
    /// Single-threshold marker: mark every packet once the queue exceeds
    /// `threshold_bytes`.
    pub fn threshold(threshold_bytes: u64) -> Self {
        EcnMarker { kmin_bytes: threshold_bytes, kmax_bytes: threshold_bytes, pmax: 1.0 }
    }

    /// RED-style marker; panics on invalid parameters.
    pub fn red(kmin_bytes: u64, kmax_bytes: u64, pmax: f64) -> Self {
        assert!(kmin_bytes <= kmax_bytes, "Kmin must be <= Kmax");
        assert!((0.0..=1.0).contains(&pmax), "Pmax must be a probability");
        EcnMarker { kmin_bytes, kmax_bytes, pmax }
    }

    /// Decide whether to mark a departing packet given the egress queue
    /// length and a uniform sample `u ∈ [0,1)` supplied by the caller.
    pub fn should_mark(&self, queue_bytes: u64, u: f64) -> bool {
        if queue_bytes <= self.kmin_bytes {
            false
        } else if queue_bytes >= self.kmax_bytes {
            true
        } else {
            let frac =
                (queue_bytes - self.kmin_bytes) as f64 / (self.kmax_bytes - self.kmin_bytes) as f64;
            u < frac * self.pmax
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_marker() {
        let m = EcnMarker::threshold(40_960);
        assert!(!m.should_mark(40_960, 0.0));
        assert!(m.should_mark(40_961, 0.99));
        assert!(!m.should_mark(0, 0.0));
    }

    #[test]
    fn red_interpolates() {
        let m = EcnMarker::red(10_000, 20_000, 0.8);
        assert!(!m.should_mark(10_000, 0.0));
        assert!(m.should_mark(20_000, 0.999));
        // Midpoint: probability 0.4.
        assert!(m.should_mark(15_000, 0.39));
        assert!(!m.should_mark(15_000, 0.41));
    }

    #[test]
    #[should_panic(expected = "Kmin")]
    fn rejects_inverted() {
        EcnMarker::red(5, 4, 0.5);
    }
}
