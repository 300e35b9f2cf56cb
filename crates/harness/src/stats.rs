//! Summary statistics: mean, standard deviation, 95 % confidence
//! intervals (Student's t for small samples, as appropriate for the
//! paper's 10 repetitions), plus a log-bucketed histogram for latency
//! distributions.

/// Two-sided 97.5 % quantiles of Student's t-distribution by degrees of
/// freedom (1-based index; `T975[0]` is df = 1). Beyond 30 df the normal
/// approximation 1.96 is used.
const T975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Summary of a sample of measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub sd: f64,
    /// Half-width of the 95 % confidence interval of the mean.
    pub ci95: f64,
    /// Sample size.
    pub n: usize,
}

impl Summary {
    /// Summarize a sample. Empty samples yield all-zero summaries; a
    /// single observation has `sd = ci95 = 0`.
    pub fn of(xs: &[f64]) -> Self {
        let n = xs.len();
        if n == 0 {
            return Self {
                mean: 0.0,
                sd: 0.0,
                ci95: 0.0,
                n,
            };
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Self {
                mean,
                sd: 0.0,
                ci95: 0.0,
                n,
            };
        }
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let sd = var.sqrt();
        let df = n - 1;
        let t = if df <= T975.len() {
            T975[df - 1]
        } else {
            1.96
        };
        Self {
            mean,
            sd,
            ci95: t * sd / (n as f64).sqrt(),
            n,
        }
    }

    /// Summarize integer observations (ranks, counts).
    pub fn of_u64(xs: &[u64]) -> Self {
        Self::of(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>())
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} ± {:.2} (sd {:.2}, n={})", self.mean, self.ci95, self.sd, self.n)
    }
}

/// Sub-bucket resolution: 2^5 = 32 sub-buckets per octave, i.e. values
/// are resolved to within ~3 % of their magnitude.
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// One linear region of 32 buckets for values < 32, then 59 octaves of
/// 32 sub-buckets each covering the rest of the u64 range (the largest
/// index is `58 * 32 + 63 = 1919`).
const NUM_BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) * SUB_BUCKETS as usize;

/// Log-bucketed (HDR-style) histogram of `u64` samples.
///
/// Values below 32 get exact buckets; larger values land in one of 32
/// sub-buckets per power-of-two octave, bounding the relative error of
/// any reported percentile to about 3 %. Recording is O(1) with no
/// allocation, and histograms merge exactly (bucket-wise addition), so
/// per-thread histograms can be combined without storing per-operation
/// samples — unlike the previous `Vec<u64>`-per-op approach whose memory
/// scaled with operation count.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Box<[u64]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value.
    fn bucket_index(v: u64) -> usize {
        if v < SUB_BUCKETS {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let top = v >> shift; // in [32, 64)
        (shift as usize) * SUB_BUCKETS as usize + top as usize
    }

    /// Inclusive lower bound of bucket `i`.
    fn bucket_lower(i: usize) -> u64 {
        if i < SUB_BUCKETS as usize {
            return i as u64;
        }
        let shift = i as u64 / SUB_BUCKETS - 1;
        let top = i as u64 % SUB_BUCKETS + SUB_BUCKETS;
        top << shift
    }

    /// Width of bucket `i` (number of distinct values it covers).
    fn bucket_width(i: usize) -> u64 {
        if i < 2 * SUB_BUCKETS as usize {
            1
        } else {
            1 << (i as u64 / SUB_BUCKETS - 1)
        }
    }

    /// Midpoint representative of bucket `i`.
    fn bucket_value(i: usize) -> u64 {
        Self::bucket_lower(i) + (Self::bucket_width(i) - 1) / 2
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of the same value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::bucket_index(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one. Merging is exact: the
    /// result is identical to having recorded both sample streams into
    /// a single histogram, in any order.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value (exact), or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact), or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (exact).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `p` in [0, 1], within bucket resolution
    /// (~3 % relative error). Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(inclusive_lower_bound, count)` pairs, in
    /// ascending value order. This is the compact export format.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lower(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn single_observation() {
        let s = Summary::of(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.sd, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample sd with n-1: sqrt(32/7) ≈ 2.1381.
        assert!((s.sd - 2.13809).abs() < 1e-4);
        // df=7 → t=2.365.
        assert!((s.ci95 - 2.365 * s.sd / 8f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn constant_sample_zero_sd() {
        let s = Summary::of(&[3.0; 10]);
        assert_eq!(s.sd, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn u64_matches_f64() {
        let a = Summary::of_u64(&[1, 2, 3, 4, 5]);
        let b = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((a.mean - b.mean).abs() < 1e-12);
        assert!((a.sd - b.sd).abs() < 1e-12);
    }

    #[test]
    fn large_sample_uses_normal_quantile() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = Summary::of(&xs);
        assert!((s.ci95 - 1.96 * s.sd / 10.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_bucket_boundaries_cover_every_value() {
        // A value must fall inside its bucket's [lower, lower + width)
        // range, and bucket indices must be monotone in the value.
        let probes: Vec<u64> = (0..=1000)
            .chain([1 << 20, (1 << 20) + 1, u64::MAX / 2, u64::MAX - 1, u64::MAX])
            .chain((0..64).map(|s| 1u64 << s))
            .chain((1..64).map(|s| (1u64 << s) - 1))
            .collect();
        for &v in &probes {
            let i = Histogram::bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            let lo = Histogram::bucket_lower(i);
            let w = Histogram::bucket_width(i);
            assert!(lo <= v, "lower {lo} > value {v}");
            assert!(v - lo < w, "value {v} beyond bucket [{lo}, {lo}+{w})");
        }
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        for pair in sorted.windows(2) {
            assert!(
                Histogram::bucket_index(pair[0]) <= Histogram::bucket_index(pair[1]),
                "bucket index not monotone between {} and {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        for v in 0..32u64 {
            // Exclusive-rank percentile: quantile of the (v+1)-th sample.
            let p = (v + 1) as f64 / 32.0;
            assert_eq!(h.percentile(p), v);
        }
    }

    #[test]
    fn histogram_merge_is_associative_and_exact() {
        let streams: [Vec<u64>; 3] = [
            (0..500).map(|i| i * 7 % 1000).collect(),
            (0..300).map(|i| 1 << (i % 40)).collect(),
            vec![0, 1, u64::MAX, 12345, 12345, 99],
        ];
        let hist_of = |xs: &[Vec<u64>]| {
            let mut h = Histogram::new();
            for s in xs {
                for &v in s {
                    h.record(v);
                }
            }
            h
        };
        // ((a ⊕ b) ⊕ c) vs (a ⊕ (b ⊕ c)) vs recording everything into one.
        let single = [hist_of(&streams)];
        let mut left = hist_of(&streams[0..1]);
        left.merge(&hist_of(&streams[1..2]));
        left.merge(&hist_of(&streams[2..3]));
        let mut right_tail = hist_of(&streams[1..2]);
        right_tail.merge(&hist_of(&streams[2..3]));
        let mut right = hist_of(&streams[0..1]);
        right.merge(&right_tail);
        for h in [&left, &right] {
            assert_eq!(h.count(), single[0].count());
            assert_eq!(h.min(), single[0].min());
            assert_eq!(h.max(), single[0].max());
            assert_eq!(h.mean(), single[0].mean());
            assert_eq!(
                h.nonzero_buckets().collect::<Vec<_>>(),
                single[0].nonzero_buckets().collect::<Vec<_>>()
            );
            for p in [0.5, 0.9, 0.99, 0.999] {
                assert_eq!(h.percentile(p), single[0].percentile(p));
            }
        }
    }

    #[test]
    fn histogram_percentiles_monotone_and_within_resolution() {
        // Pseudo-random sample with a heavy tail, compared against the
        // exact sorted-percentile answer.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut samples = Vec::with_capacity(10_000);
        let mut h = Histogram::new();
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x % 1000) * (x % 97 + 1); // up to ~97k, skewed
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        let mut prev = 0u64;
        for i in 1..=1000 {
            let p = i as f64 / 1000.0;
            let got = h.percentile(p);
            assert!(got >= prev, "percentile not monotone at p={p}");
            prev = got;
            let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            // Within one sub-bucket of relative resolution (~3 %), plus
            // slack of 1 for the sub-32 exact region.
            let tol = exact / 16 + 1;
            assert!(
                got.abs_diff(exact) <= tol,
                "p={p}: histogram {got} vs exact {exact} (tol {tol})"
            );
        }
    }

    #[test]
    fn histogram_empty_reports_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    /// Wide-magnitude `u64` strategy: a uniform mantissa shifted by a
    /// uniform amount, so cases hit the exact sub-32 region, every
    /// octave in between, and the top of the range — the places where
    /// bucket boundary arithmetic can go wrong.
    fn wide_u64() -> impl proptest::strategy::Strategy<Value = u64> {
        use proptest::strategy::Strategy;
        (0u64..u64::MAX, 0u32..64).prop_map(|(m, s)| m >> s)
    }

    proptest::proptest! {
        #[test]
        fn prop_bucket_boundaries_contain_and_order_values(
            vs in proptest::collection::vec(wide_u64(), 1..200),
        ) {
            for &v in &vs {
                let i = Histogram::bucket_index(v);
                proptest::prop_assert!(i < NUM_BUCKETS, "index {} out of range for {}", i, v);
                let lo = Histogram::bucket_lower(i);
                let w = Histogram::bucket_width(i);
                proptest::prop_assert!(
                    lo <= v && v - lo < w,
                    "value {} outside bucket [{}, {}+{})", v, lo, lo, w
                );
                // The reported representative must stay inside the
                // bucket, or percentiles could invent values no sample
                // ever had.
                let mid = Histogram::bucket_value(i);
                proptest::prop_assert!(mid >= lo && mid - lo < w);
            }
            let mut sorted = vs.clone();
            sorted.sort_unstable();
            for pair in sorted.windows(2) {
                proptest::prop_assert!(
                    Histogram::bucket_index(pair[0]) <= Histogram::bucket_index(pair[1]),
                    "bucket order inverts between {} and {}", pair[0], pair[1]
                );
            }
        }

        #[test]
        fn prop_record_then_percentile_never_inverts_ordering(
            vs in proptest::collection::vec(wide_u64(), 1..300),
            ps in proptest::collection::vec(0u32..1001, 2..20),
        ) {
            let mut h = Histogram::new();
            for &v in &vs {
                h.record(v);
            }
            let mut ps = ps.clone();
            ps.sort_unstable();
            let mut prev = 0u64;
            for &p in &ps {
                let got = h.percentile(f64::from(p) / 1000.0);
                proptest::prop_assert!(
                    got >= prev,
                    "percentile inverts at p={}: {} < {}", p, got, prev
                );
                proptest::prop_assert!(
                    got >= h.min() && got <= h.max(),
                    "percentile {} escapes [{}, {}]", got, h.min(), h.max()
                );
                prev = got;
            }
        }

        #[test]
        fn prop_merge_equals_recording_the_union(
            a in proptest::collection::vec(wide_u64(), 0..200),
            b in proptest::collection::vec(wide_u64(), 0..200),
        ) {
            let mut ha = Histogram::new();
            for &v in &a {
                ha.record(v);
            }
            let mut hb = Histogram::new();
            for &v in &b {
                hb.record(v);
            }
            ha.merge(&hb);
            let mut hu = Histogram::new();
            for &v in a.iter().chain(b.iter()) {
                hu.record(v);
            }
            proptest::prop_assert_eq!(ha.count(), hu.count());
            proptest::prop_assert_eq!(ha.min(), hu.min());
            proptest::prop_assert_eq!(ha.max(), hu.max());
            proptest::prop_assert_eq!(ha.mean(), hu.mean());
            proptest::prop_assert_eq!(
                ha.nonzero_buckets().collect::<Vec<_>>(),
                hu.nonzero_buckets().collect::<Vec<_>>()
            );
            for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                proptest::prop_assert_eq!(ha.percentile(p), hu.percentile(p));
            }
        }
    }

    #[test]
    fn histogram_record_n_equals_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(777, 5);
        for _ in 0..5 {
            b.record(777);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(
            a.nonzero_buckets().collect::<Vec<_>>(),
            b.nonzero_buckets().collect::<Vec<_>>()
        );
    }
}
