//! Integer log-bucket latency histogram.
//!
//! The one latency histogram of the workspace: the telemetry registry
//! records into it, and so does [`mango_net`]'s per-flow
//! `LatencyRecorder`. Its outputs are byte-diffed across hosts, so
//! [`LogHistogram`] uses pure integer bucket math in the
//! HDR-histogram style: values below `2^sub_bits` land in a linear
//! region one bucket per value; above it, each power-of-two octave is
//! split into `2^(sub_bits-1)` equal sub-buckets indexed off the
//! leading-zero count. Every boundary is an exact integer, recording is two shifts
//! and a mask, and merging is element-wise addition (associative and
//! commutative by construction). `counts` grows to the highest bucket
//! recorded, so a histogram of small values stays small.

/// Default sub-bucket resolution: exact below 32, then 16 sub-buckets
/// per octave, so a bucket is at most 6.25 % of its lower bound wide.
pub const DEFAULT_SUB_BITS: u32 = 5;

/// An integer log-bucket histogram over `u64` values (conventionally
/// picoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    sub_bits: u32,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// A histogram exact below `2^sub_bits`, with `2^(sub_bits-1)`
    /// sub-buckets per octave above, covering the full `u64` range.
    /// Nothing is allocated up front: `counts` grows to the highest
    /// bucket recorded.
    ///
    /// # Panics
    ///
    /// Panics if `sub_bits` is 0 or above 8.
    pub fn with_sub_bits(sub_bits: u32) -> Self {
        assert!(
            (1..=8).contains(&sub_bits),
            "sub_bits must be in 1..=8, got {sub_bits}"
        );
        LogHistogram {
            sub_bits,
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// A histogram with the default resolution.
    pub fn new() -> Self {
        Self::with_sub_bits(DEFAULT_SUB_BITS)
    }

    /// The number of buckets covering the `u64` range: the linear region
    /// `[0, 2^sub_bits)` is one bucket per value, and each of the
    /// `64 - sub_bits` octaves above it splits into `2^(sub_bits-1)`
    /// equal-width sub-buckets.
    fn bucket_count(&self) -> usize {
        let b = self.sub_bits as usize;
        (1 << b) + (64 - b) * (1 << (b - 1))
    }

    /// The bucket index for `value` — pure integer math.
    #[inline]
    pub fn bucket_index(&self, value: u64) -> usize {
        let b = self.sub_bits;
        let half = 1usize << (b - 1);
        if value < (1 << b) {
            return value as usize;
        }
        // Highest set bit position; `value >= 2^b` so `msb >= b`. The
        // octave [2^msb, 2^(msb+1)) splits into `half` sub-buckets of
        // width 2^(msb - sub_bits + 1).
        let msb = 63 - value.leading_zeros();
        let shift = msb - (b - 1);
        let sub = ((value >> shift) as usize) & (half - 1);
        (1usize << b) + (msb - b) as usize * half + sub
    }

    /// The inclusive lower bound of bucket `index` (exact).
    pub fn bucket_low(&self, index: usize) -> u64 {
        let b = self.sub_bits;
        let linear = 1usize << b;
        let half = 1usize << (b - 1);
        if index < linear {
            return index as u64;
        }
        let k = index - linear;
        let octave = (k / half) as u32;
        let sub = (k % half) as u64;
        (half as u64 + sub) << (octave + 1)
    }

    /// The inclusive upper bound of bucket `index` (exact): one less
    /// than the next bucket's lower bound.
    pub fn bucket_high(&self, index: usize) -> u64 {
        if index + 1 >= self.bucket_count() {
            return u64::MAX;
        }
        self.bucket_low(index + 1) - 1
    }

    /// Records one value; `counts` grows to the highest bucket recorded.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = self.bucket_index(value);
        if idx >= self.counts.len() {
            // Exact, not doubled: a histogram holds only the buckets it
            // has reached (one per flow adds up on a large mesh).
            self.counts.reserve_exact(idx + 1 - self.counts.len());
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact minimum recorded value, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Exact maximum recorded value, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Integer mean (sum / count), or `None` if empty.
    pub fn mean(&self) -> Option<u64> {
        (self.total > 0).then(|| (self.sum / self.total as u128) as u64)
    }

    /// The value at quantile `q` (per-mille: `500` = p50, `990` = p99).
    ///
    /// Returns the upper bound of the bucket holding the `ceil(q/1000 ×
    /// total)`-th value, clamped to the exact observed maximum — all
    /// integer math, so extraction is independent of insertion order by
    /// construction. `None` if empty.
    pub fn quantile_permille(&self, q: u32) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.min(1000) as u64;
        // ceil(total * q / 1000), at least 1.
        let target = (self.total * q).div_ceil(1000).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.bucket_high(i).min(self.max));
            }
        }
        unreachable!("quantile target exceeds total")
    }

    /// Merges another histogram into this one (element-wise; both sides
    /// must share `sub_bits`).
    ///
    /// # Panics
    ///
    /// Panics on mismatched resolution.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(
            self.sub_bits, other.sub_bits,
            "histogram resolution mismatch"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all counts.
    pub fn reset(&mut self) {
        self.counts.clear();
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        let h = LogHistogram::new();
        for v in 0..32u64 {
            let i = h.bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(h.bucket_low(i), v);
            assert_eq!(h.bucket_high(i), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_exact_at_every_octave_edge() {
        let h = LogHistogram::new();
        // For every power of two and its neighbours, the value must land
        // in a bucket whose [low, high] range contains it.
        for shift in 0..64u32 {
            let p = 1u64 << shift;
            for v in [p.saturating_sub(1), p, p.saturating_add(1)] {
                let i = h.bucket_index(v);
                assert!(
                    h.bucket_low(i) <= v && v <= h.bucket_high(i),
                    "value {v} (2^{shift}±1) in bucket {i}: [{}, {}]",
                    h.bucket_low(i),
                    h.bucket_high(i)
                );
            }
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_lows_tile_the_range() {
        let h = LogHistogram::new();
        // Consecutive buckets tile u64 with no gaps or overlaps.
        let n = h.bucket_count();
        for i in 1..n {
            assert!(
                h.bucket_low(i) > h.bucket_low(i - 1),
                "bucket lows must strictly increase at {i}"
            );
            assert_eq!(
                h.bucket_high(i - 1),
                h.bucket_low(i) - 1,
                "no gap between buckets {} and {i}",
                i - 1
            );
        }
        assert_eq!(h.bucket_low(0), 0);
        assert_eq!(h.bucket_high(n - 1), u64::MAX);
    }

    #[test]
    fn relative_error_bounded_by_sub_bucket_width() {
        let h = LogHistogram::new();
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let i = h.bucket_index(v);
            let width = h.bucket_high(i) - h.bucket_low(i);
            // 16 sub-buckets per octave: width <= low / 16 above the
            // linear region.
            assert!(
                (width as u128) * 16 <= (h.bucket_low(i) as u128).max(16),
                "bucket {i} too wide for {v}: width {width}, low {}",
                h.bucket_low(i)
            );
            v = v.wrapping_mul(3).max(v + 1);
        }
    }

    #[test]
    fn quantiles_and_extremes() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        assert_eq!(h.total(), 1000);
        assert_eq!(h.min(), Some(100));
        assert_eq!(h.max(), Some(100_000));
        let p50 = h.quantile_permille(500).unwrap();
        assert!((48_000..=52_100).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_permille(990).unwrap();
        assert!((96_000..=100_000).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile_permille(1000), Some(100_000), "p100 is the max");
        let mean = h.mean().unwrap();
        assert_eq!(mean, 50_050);
    }

    #[test]
    fn empty_histogram_yields_none() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile_permille(500), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let vals_a = [3u64, 17, 99, 4_000, 123_456];
        let vals_b = [0u64, 1, 2, 1 << 40, u64::MAX];
        let vals_c = [55u64, 55, 55, 7_777_777];
        let fill = |vals: &[u64]| {
            let mut h = LogHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (fill(&vals_a), fill(&vals_b), fill(&vals_c));

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);

        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        // Merge equals recording everything into one histogram.
        let mut all = LogHistogram::new();
        for &v in vals_a.iter().chain(&vals_b).chain(&vals_c) {
            all.record(v);
        }
        assert_eq!(ab_c, all);
    }

    #[test]
    fn percentiles_independent_of_insertion_order() {
        let mut vals: Vec<u64> = (0..500).map(|i| (i * i * 37 + 11) % 1_000_000).collect();
        let mut fwd = LogHistogram::new();
        for &v in &vals {
            fwd.record(v);
        }
        vals.reverse();
        let mut rev = LogHistogram::new();
        for &v in &vals {
            rev.record(v);
        }
        // Interleaved thirds.
        let mut shuffled = LogHistogram::new();
        for k in 0..3 {
            for v in vals.iter().skip(k).step_by(3) {
                shuffled.record(*v);
            }
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd, shuffled);
        for q in [10, 250, 500, 900, 950, 990, 999, 1000] {
            assert_eq!(fwd.quantile_permille(q), rev.quantile_permille(q));
            assert_eq!(fwd.quantile_permille(q), shuffled.quantile_permille(q));
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = LogHistogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.total(), 0);
        assert_eq!(h, LogHistogram::new());
    }
}
