//! Order statistics for the benchmark's timings.
//!
//! Tail percentiles follow one rule: a percentile is reported only when at
//! least [`MIN_BEYOND`] samples lie beyond it, so a "p99" always rests on a
//! real tail rather than on the single largest sample of a short run.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the harness considers, ascending.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// One percentile of a sample set, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile, in percent (e.g. `99.0`).
    pub p: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the selected rank.
    pub beyond: usize,
}

/// Sorts a copy of `samples` ascending (NaN-free input assumed).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The 0-based nearest-rank index of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Percentile `p` of `samples` if at least [`MIN_BEYOND`] samples lie
/// beyond it, else `None`. The median (`p = 50`) is exempt from the rule.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let s = sorted(samples);
    let r = rank(p, n);
    let beyond = n - 1 - r;
    if p > 50.0 && beyond < MIN_BEYOND {
        return None;
    }
    Some(Percentile {
        p,
        value: s[r],
        samples: n,
        beyond,
    })
}

/// The highest percentile of [`LADDER`] that the rule allows for `samples`.
pub fn highest_tail(samples: &[f64]) -> Option<Percentile> {
    LADDER
        .iter()
        .rev()
        .find_map(|&p| percentile(samples, p).filter(|_| p > 50.0))
}

/// Median of `samples` (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the function must sort.
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 989 leaves exactly 10 beyond.
        let p = percentile(&ramp(1000), 99.0).expect("1000 samples carry a p99");
        assert_eq!(p.value, 989.0);
        assert_eq!(p.beyond, 10);
        assert_eq!(p.samples, 1000);
        // 999 samples leave only 9 beyond: refused.
        assert_eq!(percentile(&ramp(999), 99.0), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let p = percentile(&ramp(100), 90.0).expect("100 samples carry a p90");
        assert_eq!((p.value, p.beyond, p.samples), (89.0, 10, 100));
        assert_eq!(percentile(&ramp(99), 90.0), None);
    }

    #[test]
    fn median_is_exempt_and_exact() {
        let p = percentile(&ramp(3), 50.0).expect("median of three");
        assert_eq!((p.value, p.samples), (1.0, 3));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn highest_tail_walks_down_the_ladder() {
        assert_eq!(highest_tail(&ramp(20_000)).map(|p| p.p), Some(99.9));
        assert_eq!(highest_tail(&ramp(1_000)).map(|p| p.p), Some(99.0));
        assert_eq!(highest_tail(&ramp(150)).map(|p| p.p), Some(90.0));
        let tail = highest_tail(&ramp(150)).expect("p90 of 150");
        assert_eq!(tail.samples, 150);
        assert!(tail.beyond >= MIN_BEYOND);
        assert_eq!(highest_tail(&ramp(50)), None);
    }
}
