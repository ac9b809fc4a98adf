//! Order statistics for latency samples.
//!
//! Percentiles are nearest-rank on sorted samples.  A percentile is given
//! in basis points (`9000` = p90) so ranks are exact integer arithmetic.

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// A tail percentile and how many samples lie beyond its rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Samples ranked strictly above the percentile's sample.
    pub beyond: usize,
}

impl Tail {
    /// The reporting rule: a tail percentile is only meaningful with at
    /// least ten samples beyond it.
    pub fn trustworthy(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile `bp` (basis points) of `samples`.
pub fn tail(samples: &[f64], bp: u32) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            beyond: 0,
        };
    }
    let rank = (bp as usize * n).div_ceil(10_000).clamp(1, n);
    Tail {
        value: v[rank - 1],
        beyond: n - rank,
    }
}

/// The fewest samples for which percentile `bp` has ten beyond it.
pub fn min_samples(bp: u32) -> usize {
    (1..)
        .find(|&n| tail(&vec![0.0; n], bp).trustworthy())
        .expect("some sample count satisfies the rule")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_honours_the_ten_beyond_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = tail(&v, 9000);
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.beyond, 10);
        assert!(p90.trustworthy());
        // One sample fewer and p90 has only nine beyond it.
        let short = tail(&v[..99], 9000);
        assert_eq!(short.beyond, 9);
        assert!(!short.trustworthy());
        assert_eq!(min_samples(9000), 100);
        assert_eq!(min_samples(9900), 1000);
        assert_eq!(min_samples(8000), 50);
    }

    #[test]
    fn tail_ranks_are_exact() {
        // 0.9 * 10 is not exactly 9 in floating point; integer ranks are.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v, 9000).value, 9.0);
        assert_eq!(tail(&v, 10_000).value, 10.0);
        assert_eq!(tail(&v, 0).value, 1.0);
    }
}
