//! Order statistics for the benchmark: medians, quartiles, percentiles
//! that refuse to report a tail they have too few samples for, a
//! bounded log-bucket histogram for per-step timings, and ratios that
//! keep their base.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Linear-interpolated quantile `q` in `[0, 1]` of `sorted` (ascending,
/// non-empty), the same estimator as numpy's default.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| quantile_sorted(&sorted(xs), 0.5))
}

/// First quartile, median and third quartile of `xs`; `None` when empty.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    Some([0.25, 0.5, 0.75].map(|q| quantile_sorted(&s, q)))
}

/// Whether `n` samples leave at least [`TAIL_SAMPLES`] beyond
/// percentile `p` (in percent).
pub fn tail_supported(n: usize, p: f64) -> bool {
    (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize >= TAIL_SAMPLES
}

/// Percentile `p` (in percent) of `xs`, or `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it. The median is exempt from
/// the tail rule but still needs one sample.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || (p > 50.0 && !tail_supported(xs.len(), p)) {
        return None;
    }
    Some(quantile_sorted(&sorted(xs), p / 100.0))
}

/// A ratio that carries its numerator and base, so a report can show
/// what it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub base: f64,
}

impl Ratio {
    pub fn new(num: f64, base: f64) -> Ratio {
        Ratio { num, base }
    }

    /// `num / base`, or 0 when the base is 0 (nothing to take a share of).
    pub fn value(&self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            self.num / self.base
        }
    }
}

/// Sub-buckets per power of two: bucket width is at most 1/16 of its
/// lower edge, so a reported percentile is within about 6% of the
/// sample it stands for.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = 64 * SUB;

/// Fixed-size log-bucket histogram of nanosecond timings. Recording
/// never allocates, so it can sit inside a counted run phase.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let sub = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
        (exp - SUB_BITS + 1) as usize * SUB + sub
    }

    /// Lower edge of bucket `b` (the inverse of [`Histogram::bucket`]).
    fn lower(b: usize) -> u64 {
        if b < SUB {
            return b as u64;
        }
        let exp = (b / SUB) as u32 + SUB_BITS - 1;
        (1u64 << exp) | (((b % SUB) as u64) << (exp - SUB_BITS))
    }

    /// Width of bucket `b`.
    fn width(b: usize) -> u64 {
        if b < SUB {
            return 1;
        }
        1u64 << ((b / SUB) as u32 - 1)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Percentile `p`, under the same tail rule as [`percentile`]:
    /// located in its bucket, then interpolated linearly by rank across
    /// the bucket's width.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.total == 0 || (p > 50.0 && !tail_supported(self.total as usize, p)) {
            return None;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let within = (rank - seen) as f64 - 0.5;
                return Some(Self::lower(b) as f64 + Self::width(b) as f64 * within / c as f64);
            }
            seen += c;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some([2.0, 3.0, 4.0]));
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), None, "99 samples leave 9 beyond p90");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(percentile(&xs, 90.0).is_some());
        assert_eq!(percentile(&xs, 99.0), None);
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.base, 4.0);
        assert_eq!(Ratio::new(5.0, 0.0).value(), 0.0);
    }

    #[test]
    fn histogram_buckets_round_trip_and_bound_error() {
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, u64::MAX >> 1] {
            let b = Histogram::bucket(v);
            let lo = Histogram::lower(b);
            assert!(lo <= v, "{v}: lower edge {lo}");
            assert!((v - lo) as f64 <= v as f64 / 16.0, "{v}: edge {lo} too far");
            assert_eq!(Histogram::bucket(lo), b);
            let last = lo + (Histogram::width(b) - 1);
            assert_eq!(Histogram::bucket(last), b, "{v}: bucket ends at {last}");
            assert_eq!(Histogram::bucket(last + 1), b + 1);
        }
    }

    #[test]
    fn histogram_percentiles_follow_the_tail_rule() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        let p50 = h.percentile(50.0).unwrap();
        assert!((48_000.0..=52_000.0).contains(&p50), "p50 {p50}");
        assert!(h.percentile(99.0).is_some());
        let mut small = Histogram::default();
        small.record(5);
        assert_eq!(small.percentile(99.0), None);
    }
}
