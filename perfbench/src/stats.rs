//! Order statistics over measured samples.

/// Sub-buckets per power of two: values below 2^8 are kept exactly,
/// larger ones to within 1/256 of their size.
const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;

/// Latency histogram over `u32` nanoseconds in fixed memory (50 KiB), so
/// the samples of a long run cost no memory that grows with throughput
/// (which would show in `peak_rss_mb`). Log-linear buckets: exact below
/// 256 ns, at most 0.4% wide above.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (32 - SUB_BITS as usize + 1) * SUB],
            n: 0,
        }
    }
}

impl Histogram {
    fn index(v: u32) -> usize {
        if (v as usize) < SUB {
            return v as usize;
        }
        let shift = 31 - v.leading_zeros() - SUB_BITS;
        SUB * (1 + shift as usize) + ((v >> shift) as usize - SUB)
    }

    /// Lower bound and width of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = (i - SUB) / SUB;
        let lo = ((SUB + (i - SUB) % SUB) as u64) << shift;
        (lo as f64, (1u64 << shift) as f64)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u32) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
    }

    /// Adds another histogram's samples.
    pub fn merge(&mut self, o: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.n += o.n;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The sample at 0-based position `pos` in ascending order; samples
    /// inside a wide bucket are taken as evenly spread across it.
    fn at(&self, pos: u64) -> f64 {
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if pos < seen + c {
                let (lo, width) = Self::bucket(i);
                if width == 1.0 {
                    return lo;
                }
                return lo + width * ((pos - seen) as f64 + 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("position {pos} beyond {} samples", self.n)
    }

    /// Percentile `p` (in `[0, 100]`), linearly interpolated between the
    /// two nearest order statistics (the method NumPy calls `linear`).
    ///
    /// # Panics
    ///
    /// Panics when empty or for a `p` outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(self.n > 0, "percentile of no samples");
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        let rank = p / 100.0 * (self.n - 1) as f64;
        let (lo, hi) = (self.at(rank.floor() as u64), self.at(rank.ceil() as u64));
        lo + (hi - lo) * rank.fract()
    }
}

/// Median of unsorted values (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice or on NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted (a layer the workload does
/// not reach reports 0 rather than NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(vals: impl IntoIterator<Item = u32>) -> Histogram {
        let mut h = Histogram::default();
        vals.into_iter().for_each(|v| h.record(v));
        h
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let h = hist([40, 10, 30, 20]);
        assert_eq!(h.percentile(0.0), 10.0);
        assert_eq!(h.percentile(100.0), 40.0);
        assert_eq!(h.percentile(50.0), 25.0);
        // rank 0.99 * 3 = 2.97 -> 30 + 0.97 * 10
        assert!((h.percentile(99.0) - 39.7).abs() < 1e-9);
        assert_eq!(hist([7]).percentile(99.0), 7.0);
    }

    #[test]
    fn percentile_of_1_to_100() {
        let h = hist(1..=100);
        assert_eq!(h.len(), 100);
        assert!((h.percentile(50.0) - 50.5).abs() < 1e-9);
        assert!((h.percentile(99.0) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn large_samples_stay_within_a_bucket_width() {
        let vals: Vec<u32> = (0..10_000u32).map(|i| 30_000 + i * 7).collect();
        let h = hist(vals.iter().copied());
        assert_eq!(h.len(), 10_000);
        for (p, exact) in [
            (50.0, 30_000.0 + 4999.5 * 7.0),
            (99.0, 30_000.0 + 9899.01 * 7.0),
        ] {
            let got = h.percentile(p);
            assert!(
                (got - exact).abs() / exact < 1.0 / 256.0,
                "p{p}: {got} vs {exact}"
            );
        }
        let top = hist([u32::MAX, 5_000_000]);
        assert!((top.percentile(100.0) / f64::from(u32::MAX) - 1.0).abs() < 1.0 / 256.0);
    }

    #[test]
    fn buckets_tile_the_u32_range() {
        let mut prev_end = 0.0;
        for i in 0..Histogram::default().counts.len() {
            let (lo, width) = Histogram::bucket(i);
            assert_eq!(lo, prev_end, "gap before bucket {i}");
            assert_eq!(Histogram::index(lo as u32), i);
            assert_eq!(Histogram::index((lo + width - 1.0) as u32), i);
            prev_end = lo + width;
        }
        assert_eq!(prev_end, 4_294_967_296.0);
    }

    #[test]
    fn merged_histograms_count_both() {
        let mut a = hist([1, 2]);
        a.merge(&hist([3, 4]));
        assert_eq!(a.len(), 4);
        assert_eq!(a.percentile(50.0), 2.5);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
