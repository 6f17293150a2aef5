//! Order statistics for reporting runs.

/// The median of `xs` (mean of the middle pair for an even count).
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spread the benchmark reports is the spread a reader recomputes.
/// A single value is its own quartiles. Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of nothing");
    let s = sorted(xs);
    let n = s.len();
    if n == 1 {
        return [s[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let k = (i + 1) * m;
        let j = (k / 4).clamp(1, n - 1);
        let delta = k as f64 / 4.0 - j as f64;
        *q = s[j - 1] + (s[j] - s[j - 1]) * delta;
    }
    out
}

/// Nearest-rank `p`-th percentile (0–100). Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of nothing");
    let s = sorted(xs);
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank - 1]
}

/// Sum over columns of each column's minimum across `rows`: with one row
/// per run of the same deterministic work cut into the same slices, the
/// run time with every slice at its fastest observed time. Panics on no
/// rows or rows of different lengths.
pub fn sum_of_column_minima(rows: &[&[u64]]) -> u64 {
    assert!(!rows.is_empty(), "minima of nothing");
    let n = rows[0].len();
    assert!(rows.iter().all(|r| r.len() == n), "rows of different lengths");
    (0..n).map(|k| rows.iter().map(|r| r[k]).min().unwrap_or(0)).sum()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
