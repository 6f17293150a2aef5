//! Flow-size distributions, including the empirical enterprise workload of
//! Fig. 15.
//!
//! The paper drives its large-scale simulations with "empirically observed
//! enterprise traffic patterns" citing the Let-It-Flow measurement study
//! \[57\]. The trace itself is not public; [`EmpiricalCdf::enterprise`] is a
//! piecewise log-linear fit to the published distribution (heavy-tailed:
//! most flows ≤ 10 KB, a small fraction in the MB range), which is the
//! only marginal the paper uses. Web-search and data-mining presets from
//! the same literature are included for workload-sensitivity studies.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A cumulative distribution over flow sizes in bytes, sampled by inverse
/// transform with log-linear interpolation between anchor points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmpiricalCdf {
    /// `(size_bytes, cumulative_probability)`, strictly increasing in both
    /// coordinates, last probability = 1.
    points: Vec<(u64, f64)>,
}

impl EmpiricalCdf {
    /// Build from anchor points; validates monotonicity and normalization.
    pub fn new(points: Vec<(u64, f64)>) -> Self {
        assert!(points.len() >= 2, "need at least two CDF points");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "sizes must strictly increase");
            assert!(w[0].1 < w[1].1, "probabilities must strictly increase");
        }
        assert!(points[0].1 >= 0.0);
        let last = points.last().unwrap().1;
        assert!((last - 1.0).abs() < 1e-9, "last cumulative probability must be 1");
        EmpiricalCdf { points }
    }

    /// The enterprise workload of Fig. 15 (fit; see module docs).
    pub fn enterprise() -> Self {
        EmpiricalCdf::new(vec![
            (250, 0.15),
            (500, 0.35),
            (1_000, 0.55),
            (2_000, 0.62),
            (10_000, 0.70),
            (64_000, 0.80),
            (256_000, 0.90),
            (1_000_000, 0.97),
            (10_000_000, 1.00),
        ])
    }

    /// The web-search workload (DCTCP measurement study).
    pub fn web_search() -> Self {
        EmpiricalCdf::new(vec![
            (6_000, 0.15),
            (13_000, 0.20),
            (19_000, 0.30),
            (33_000, 0.40),
            (53_000, 0.53),
            (133_000, 0.60),
            (667_000, 0.70),
            (1_333_000, 0.80),
            (3_333_000, 0.90),
            (6_667_000, 0.95),
            (20_000_000, 0.98),
            (30_000_000, 1.00),
        ])
    }

    /// The data-mining workload (VL2 measurement study).
    pub fn data_mining() -> Self {
        EmpiricalCdf::new(vec![
            (180, 0.10),
            (216, 0.20),
            (560, 0.30),
            (900, 0.35),
            (1_100, 0.40),
            (60_000, 0.53),
            (260_000, 0.60),
            (3_100_000, 0.70),
            (10_000_000, 0.80),
            (30_000_000, 0.90),
            (100_000_000, 0.97),
            (1_000_000_000, 1.00),
        ])
    }

    /// Inverse-transform sample (log-linear between anchors).
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.quantile(u)
    }

    /// The size at cumulative probability `u ∈ [0, 1]`.
    pub fn quantile(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        if u <= self.points[0].1 {
            return self.points[0].0;
        }
        for w in self.points.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            if u <= p1 {
                let f = (u - p0) / (p1 - p0);
                let ln = (s0 as f64).ln() + f * ((s1 as f64).ln() - (s0 as f64).ln());
                return ln.exp().round().max(1.0) as u64;
            }
        }
        self.points.last().unwrap().0
    }

    /// Approximate mean flow size (numeric integration over 10k quantiles).
    pub fn mean(&self) -> f64 {
        let n = 10_000;
        (0..n).map(|i| self.quantile((i as f64 + 0.5) / n as f64) as f64).sum::<f64>() / n as f64
    }

    /// The anchor points.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }
}

/// A flow-size model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FlowSizeDist {
    /// Every flow has the same size.
    Fixed(u64),
    /// Uniform over `[min, max]`.
    Uniform {
        /// Smallest size.
        min: u64,
        /// Largest size (inclusive).
        max: u64,
    },
    /// Empirical CDF (e.g. the Fig. 15 enterprise workload).
    Empirical(EmpiricalCdf),
}

impl FlowSizeDist {
    /// Draw one flow size (bytes, ≥ 1).
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        match self {
            FlowSizeDist::Fixed(s) => (*s).max(1),
            FlowSizeDist::Uniform { min, max } => {
                assert!(min <= max);
                rng.gen_range(*min..=*max).max(1)
            }
            FlowSizeDist::Empirical(cdf) => cdf.sample(rng).max(1),
        }
    }

    /// Mean size in bytes.
    pub fn mean(&self) -> f64 {
        match self {
            FlowSizeDist::Fixed(s) => *s as f64,
            FlowSizeDist::Uniform { min, max } => (*min + *max) as f64 / 2.0,
            FlowSizeDist::Empirical(cdf) => cdf.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn quantile_hits_anchors() {
        let cdf = EmpiricalCdf::enterprise();
        for &(s, p) in cdf.points() {
            let q = cdf.quantile(p);
            let rel = (q as f64 - s as f64).abs() / s as f64;
            assert!(rel < 0.01, "quantile({p}) = {q}, anchor {s}");
        }
    }

    #[test]
    fn quantile_extremes() {
        let cdf = EmpiricalCdf::enterprise();
        assert_eq!(cdf.quantile(0.0), 250);
        assert_eq!(cdf.quantile(1.0), 10_000_000);
        assert_eq!(cdf.quantile(-3.0), 250);
        assert_eq!(cdf.quantile(7.0), 10_000_000);
    }

    #[test]
    fn sampling_matches_cdf() {
        let cdf = EmpiricalCdf::enterprise();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mut below_1k = 0u32;
        let mut below_256k = 0u32;
        for _ in 0..n {
            let s = cdf.sample(&mut rng);
            if s <= 1_000 {
                below_1k += 1;
            }
            if s <= 256_000 {
                below_256k += 1;
            }
        }
        let f1k = below_1k as f64 / n as f64;
        let f256k = below_256k as f64 / n as f64;
        assert!((f1k - 0.55).abs() < 0.02, "P[<=1K] = {f1k}");
        assert!((f256k - 0.90).abs() < 0.02, "P[<=256K] = {f256k}");
    }

    #[test]
    fn enterprise_is_heavy_tailed() {
        let cdf = EmpiricalCdf::enterprise();
        let mean = cdf.mean();
        let median = cdf.quantile(0.5) as f64;
        assert!(mean > 10.0 * median, "mean {mean} vs median {median}");
    }

    #[test]
    fn presets_are_valid() {
        // Construction runs the validators.
        EmpiricalCdf::enterprise();
        EmpiricalCdf::web_search();
        EmpiricalCdf::data_mining();
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn rejects_nonmonotone_sizes() {
        EmpiricalCdf::new(vec![(100, 0.5), (100, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "must be 1")]
    fn rejects_unnormalized() {
        EmpiricalCdf::new(vec![(100, 0.5), (200, 0.9)]);
    }

    #[test]
    fn fixed_and_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(FlowSizeDist::Fixed(1500).sample(&mut rng), 1500);
        let u = FlowSizeDist::Uniform { min: 10, max: 20 };
        for _ in 0..100 {
            let s = u.sample(&mut rng);
            assert!((10..=20).contains(&s));
        }
        assert_eq!(u.mean(), 15.0);
    }

    #[test]
    fn zero_fixed_clamps_to_one() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(FlowSizeDist::Fixed(0).sample(&mut rng), 1);
    }
}
