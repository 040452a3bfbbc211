//! Order statistics used for every reported timing.

/// Sort a copy of `xs` ascending (NaN-free input assumed).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// The three quartile cut points of `xs`, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads printed here match the ones a reader computes from them.
/// With fewer than two samples every quartile is the single sample.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return [v[0]; 3];
    }
    // Python: j = i*m // 4 clamped to 1..=n-1, delta = i*m - j*4 (may
    // fall outside 0..4, which extrapolates past the extreme samples)
    let m = (n + 1) as i64;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let im = (i as i64 + 1) * m;
        let j = (im / 4).clamp(1, n as i64 - 1);
        let delta = (im - j * 4) as f64;
        let j = j as usize;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The median (mean of the middle two for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The geometric mean: a typical value of quantities of different scales,
/// each weighted equally.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of an empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The tail a sample supports: the highest order statistic that still has
/// at least `beyond` samples above it. Returns `(value, percentile, count
/// beyond)`; the percentile is the statistic's rank as a share of the
/// sample (`100·k/(n−1)` for 0-based rank `k`). With `beyond` or fewer
/// samples no such statistic exists and the maximum is returned with the
/// (smaller) count actually beyond it, zero.
pub fn tail(xs: &[f64], beyond: usize) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "tail of an empty sample");
    let k = if n > beyond { n - 1 - beyond } else { n - 1 };
    let pct = if n == 1 {
        100.0
    } else {
        100.0 * k as f64 / (n - 1) as f64
    };
    Tail {
        value: v[k],
        percentile: pct,
        beyond: n - 1 - k,
        samples: n,
    }
}

/// A tail statistic with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub beyond: usize,
    pub samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_weights_scales_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples 1..=100: rank 89 (value 90) has exactly 10 above it
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs, 10);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 100.0 * 89.0 / 99.0).abs() < 1e-12);
        // 11 samples: only the minimum has 10 beyond it
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&xs, 10);
        assert_eq!((t.value, t.beyond, t.percentile), (0.0, 10, 0.0));
        // too few samples: the maximum, with nothing beyond
        let t = tail(&[1.0, 5.0, 3.0], 10);
        assert_eq!((t.value, t.beyond), (5.0, 0));
    }
}
