//! Sample statistics and empirical CDFs for report tables.

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Compute over a sample slice; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Summary { n, mean, stddev: var.sqrt(), min, max })
    }
}

/// An empirical CDF built from samples (used for Fig. 19's
/// occupied-bandwidth distribution).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmpiricalDist {
    sorted: Vec<f64>,
}

impl EmpiricalDist {
    /// Build from samples; panics on NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample");
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        EmpiricalDist { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// `(x, F(x))` pairs decimated to at most `n` points for plotting.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2);
        if self.sorted.is_empty() {
            return Vec::new();
        }
        let len = self.sorted.len();
        let m = n.min(len);
        (0..m)
            .map(|i| {
                let idx = if m == 1 { 0 } else { i * (len - 1) / (m - 1) };
                (self.sorted[idx], (idx + 1) as f64 / len as f64)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.stddev - 1.118).abs() < 0.001);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn cdf_lookup() {
        let d = EmpiricalDist::new(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(d.cdf_at(0.5), 0.0);
        assert_eq!(d.cdf_at(2.0), 0.75);
        assert_eq!(d.cdf_at(10.0), 1.0);
    }

    #[test]
    fn curve_is_monotone() {
        let d = EmpiricalDist::new((0..500).map(|i| (i % 37) as f64).collect());
        let c = d.curve(20);
        assert!(c.len() <= 20);
        for w in c.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(c.last().unwrap().1, 1.0);
    }

    #[test]
    fn empty_dist() {
        let d = EmpiricalDist::new(vec![]);
        assert_eq!(d.mean(), 0.0);
        assert!(d.curve(5).is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        EmpiricalDist::new(vec![f64::NAN]);
    }
}
