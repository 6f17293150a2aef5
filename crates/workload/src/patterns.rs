//! Destination-selection patterns and arrival processes.
//!
//! The paper's large-scale workload (§6.2.3) is closed-loop: "each host
//! randomly chooses a destination in different racks to start a new flow;
//! once this flow is finished, the host repeats". [`DestPolicy::InterRack`]
//! implements that selection; the open-loop [`Poisson`] process is
//! provided for load-controlled sensitivity studies.

use rand::Rng;

/// How a source host picks its next destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DestPolicy {
    /// Uniform over all other hosts.
    UniformOther,
    /// Uniform over hosts in a *different rack* (the paper's pattern).
    /// `racks[i]` is the rack id of host `i`.
    InterRack {
        /// Rack id per host index.
        racks: Vec<u32>,
    },
    /// Fixed permutation: host `i` always sends to `perm[i]`.
    Permutation {
        /// Destination per source.
        perm: Vec<u32>,
    },
    /// Everyone sends to one sink (incast).
    AllToOne {
        /// The sink host index.
        sink: u32,
    },
}

impl DestPolicy {
    /// Inter-rack policy from a rack-id-per-host table.
    pub fn inter_rack(racks: Vec<u32>) -> Self {
        assert!(!racks.is_empty());
        DestPolicy::InterRack { racks }
    }

    /// Pick a destination for `src` among `num_hosts` hosts; `None` if the
    /// policy admits no destination (e.g. a single-rack network under
    /// inter-rack, or the sink itself under all-to-one).
    pub fn pick(&self, src: usize, num_hosts: usize, rng: &mut impl Rng) -> Option<usize> {
        assert!(src < num_hosts);
        match self {
            DestPolicy::UniformOther => {
                if num_hosts < 2 {
                    return None;
                }
                let mut d = rng.gen_range(0..num_hosts - 1);
                if d >= src {
                    d += 1;
                }
                Some(d)
            }
            DestPolicy::InterRack { racks } => {
                assert_eq!(racks.len(), num_hosts, "rack table size mismatch");
                let my_rack = racks[src];
                let candidates = racks.iter().filter(|&&r| r != my_rack).count();
                if candidates == 0 {
                    return None;
                }
                let mut n = rng.gen_range(0..candidates);
                for (i, &r) in racks.iter().enumerate() {
                    if r != my_rack {
                        if n == 0 {
                            return Some(i);
                        }
                        n -= 1;
                    }
                }
                unreachable!("counted candidate not found")
            }
            DestPolicy::Permutation { perm } => {
                assert_eq!(perm.len(), num_hosts);
                let d = perm[src] as usize;
                (d != src).then_some(d)
            }
            DestPolicy::AllToOne { sink } => {
                let d = *sink as usize;
                (d != src).then_some(d)
            }
        }
    }
}

/// Poisson arrival process: exponential interarrival times with the given
/// mean, expressed in picoseconds to stay unit-consistent with `gfc-core`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    /// Mean interarrival time in picoseconds.
    pub mean_interarrival_ps: f64,
}

impl Poisson {
    /// Process generating `flows_per_sec` arrivals per second on average.
    pub fn per_second(flows_per_sec: f64) -> Self {
        assert!(flows_per_sec > 0.0);
        Poisson { mean_interarrival_ps: 1e12 / flows_per_sec }
    }

    /// Process that offers `load` (0..1] of a link of `capacity_bps` given
    /// a mean flow size in bytes.
    pub fn for_load(load: f64, capacity_bps: u64, mean_flow_bytes: f64) -> Self {
        assert!(load > 0.0 && load <= 1.0, "load must be in (0, 1]");
        let bytes_per_sec = capacity_bps as f64 / 8.0 * load;
        Poisson::per_second(bytes_per_sec / mean_flow_bytes)
    }

    /// Draw the next interarrival gap in picoseconds (≥ 1).
    pub fn sample_gap_ps(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let gap = -self.mean_interarrival_ps * u.ln();
        gap.max(1.0).min(u64::MAX as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn uniform_other_never_self() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = DestPolicy::UniformOther;
        for _ in 0..1000 {
            let d = p.pick(3, 10, &mut rng).unwrap();
            assert_ne!(d, 3);
            assert!(d < 10);
        }
    }

    #[test]
    fn uniform_other_covers_everyone() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = DestPolicy::UniformOther;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(p.pick(0, 5, &mut rng).unwrap());
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn inter_rack_never_same_rack() {
        let racks = vec![0, 0, 1, 1, 2, 2];
        let p = DestPolicy::inter_rack(racks.clone());
        let mut rng = StdRng::seed_from_u64(6);
        for src in 0..6 {
            for _ in 0..200 {
                let d = p.pick(src, 6, &mut rng).unwrap();
                assert_ne!(racks[d], racks[src]);
            }
        }
    }

    #[test]
    fn inter_rack_single_rack_is_none() {
        let p = DestPolicy::inter_rack(vec![0, 0, 0]);
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(p.pick(1, 3, &mut rng), None);
    }

    #[test]
    fn permutation_and_all_to_one() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = DestPolicy::Permutation { perm: vec![1, 2, 0] };
        assert_eq!(p.pick(0, 3, &mut rng), Some(1));
        assert_eq!(p.pick(2, 3, &mut rng), Some(0));
        let a = DestPolicy::AllToOne { sink: 2 };
        assert_eq!(a.pick(0, 3, &mut rng), Some(2));
        assert_eq!(a.pick(2, 3, &mut rng), None);
    }

    #[test]
    fn poisson_mean_is_right() {
        let p = Poisson::per_second(1000.0); // mean gap 1 ms = 1e9 ps
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000;
        let total: u128 = (0..n).map(|_| p.sample_gap_ps(&mut rng) as u128).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1e9).abs() / 1e9 < 0.02, "mean gap {mean}");
    }

    #[test]
    fn poisson_for_load_scales() {
        // 50% of 10G with 12.5 KB flows → 50k flows/s → 20 µs mean gap.
        let p = Poisson::for_load(0.5, 10_000_000_000, 12_500.0);
        assert!((p.mean_interarrival_ps - 2e7).abs() < 1.0);
    }

    #[test]
    fn poisson_gap_is_positive() {
        let p = Poisson::per_second(1e9);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..1000 {
            assert!(p.sample_gap_ps(&mut rng) >= 1);
        }
    }
}
