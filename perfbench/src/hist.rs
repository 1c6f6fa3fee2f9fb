//! A log-linear latency histogram with an exact merge.
//!
//! Values below 64 get one bucket each; above that every power of two is
//! split into 64 equal buckets, so a quantile is off by at most 1/64 of
//! its value (1.6 %). Merging adds bucket counts, so a quantile of merged
//! per-routine histograms equals the quantile of all samples recorded
//! into one — unlike averaging per-worker quantiles.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB * (64 - SUB_BITS as usize + 1);

/// Histogram of `u64` samples (nanoseconds, by convention).
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    SUB * (shift as usize + 1) + ((v >> shift) as usize - SUB)
}

/// `(lower bound, width)` of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let shift = (i / SUB - 1) as u32;
    let mantissa = (i % SUB + SUB) as u64;
    (mantissa << shift, 1 << shift)
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
        self.sum += u128::from(v);
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean sample, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The `q`-quantile, interpolated within its bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && seen + c >= target {
                let (lo, width) = bounds(i);
                let frac = (target - seen) as f64 / c as f64;
                return lo as f64 + width as f64 * frac;
            }
            seen += c;
        }
        unreachable!("target rank {target} beyond {} samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for i in 0..BUCKETS - 1 {
            let (lo, w) = bounds(i);
            assert_eq!(bounds(i + 1).0, lo + w, "bucket {i}");
            assert_eq!(index(lo), i);
            assert_eq!(index(lo + w - 1), i);
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_one_sixtyfourth() {
        let mut h = Hist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let want = q * 100_000.0;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() / want < 1.0 / 64.0,
                "q{q}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn merge_equals_single_recording() {
        let (mut a, mut b, mut all) = (Hist::new(), Hist::new(), Hist::new());
        for v in 0..5_000u64 {
            let x = v * v % 9_973;
            if v % 3 == 0 { &mut a } else { &mut b }.record(x);
            all.record(x);
        }
        a.merge(&b);
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
        assert_eq!(a.mean(), all.mean());
    }
}
