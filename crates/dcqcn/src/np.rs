//! Notification Point: CNP pacing at the receiver NIC.

/// Generates at most one CNP per `interval_ps` per flow, regardless of how
/// many ECN-marked packets arrive (the DCQCN "N = 50 µs" rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CnpGenerator {
    /// Minimum spacing between CNPs, picoseconds.
    pub interval_ps: u64,
    last_cnp_ps: Option<u64>,
}

impl CnpGenerator {
    /// New generator with the given minimum CNP spacing.
    pub fn new(interval_ps: u64) -> Self {
        assert!(interval_ps > 0);
        CnpGenerator { interval_ps, last_cnp_ps: None }
    }

    /// An ECN-marked packet for this flow arrived at `now_ps`; returns
    /// `true` if a CNP should be sent.
    pub fn on_marked_packet(&mut self, now_ps: u64) -> bool {
        match self.last_cnp_ps {
            Some(last) if now_ps < last + self.interval_ps => false,
            _ => {
                self.last_cnp_ps = Some(now_ps);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paces_cnps() {
        let mut g = CnpGenerator::new(50_000_000); // 50 µs
        assert!(g.on_marked_packet(0));
        assert!(!g.on_marked_packet(10_000_000));
        assert!(!g.on_marked_packet(49_999_999));
        assert!(g.on_marked_packet(50_000_000));
        assert!(!g.on_marked_packet(99_000_000));
    }

    #[test]
    fn first_mark_always_fires() {
        let mut g = CnpGenerator::new(1);
        assert!(g.on_marked_packet(123));
    }
}
