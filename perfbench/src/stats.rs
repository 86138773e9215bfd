//! Order statistics over latency samples.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The tail of a sample: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, `100 · (n − 10) / n`.
    pub percentile: f64,
    /// Sample count `n`.
    pub n: usize,
}

/// The highest nearest-rank percentile with at least [`TAIL_BEYOND`]
/// samples beyond it: the `(n − 10)`-th smallest of `n` samples.
/// `None` when fewer than `TAIL_BEYOND + 1` samples exist.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_exactly_ten_samples_beyond() {
        // 100 samples 1..=100: p90 is 90, and 91..=100 (ten) lie beyond.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs).expect("enough samples");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.n, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        // 1000 samples: p99.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("enough samples");
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
        // 11 samples: the smallest one, with ten beyond it.
        let t = tail(&(0..11).map(f64::from).collect::<Vec<_>>()).expect("11 samples");
        assert_eq!(t.value, 0.0);
        // Ten samples cannot have ten beyond any of them.
        assert_eq!(tail(&[1.0; 10]), None);
    }
}
