//! Log-scale histograms.
//!
//! A [`Histogram`] is lock-free and sharable across threads; recording is
//! a handful of atomic operations, cheap enough to leave enabled in hot
//! paths.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket `b` holds values whose bit length is
/// `b`, i.e. bucket 0 holds only 0, bucket `b` holds `[2^(b-1), 2^b - 1]`.
pub const BUCKETS: usize = 65;

/// A log2-bucketed histogram for latency (ns) and size (bytes) samples.
///
/// Power-of-two buckets give ~2x resolution over the full `u64` range at a
/// fixed 65-slot cost, which is the classic trade-off for latency tracking.
/// Exact `count`/`sum`/`min`/`max` are kept alongside the buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// OpenMetrics-style exemplars: the last correlation tag (request id)
    /// and sample value that landed in each bucket. Zero tag = no exemplar.
    ex_tag: [AtomicU64; BUCKETS],
    ex_val: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            ex_tag: std::array::from_fn(|_| AtomicU64::new(0)),
            ex_val: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index for a value: its bit length.
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `b`.
pub fn bucket_bound(b: usize) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.record_tagged(v, 0);
    }

    /// Record one sample carrying a correlation tag (a raw
    /// `obs::ctx::RequestId`). When `tag` is nonzero the sample becomes
    /// the bucket's exemplar, replacing any earlier one — "the last
    /// request that landed here" is exactly what tail forensics wants.
    pub fn record_tagged(&self, v: u64, tag: u64) {
        let b = bucket_of(v);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        if tag != 0 {
            // tag and value race independently under concurrent writers;
            // an exemplar is a debugging hint, not an invariant, so a
            // torn pair (tag from one writer, value from another) is an
            // accepted trade for staying lock-free.
            self.ex_tag[b].store(tag, Ordering::Relaxed);
            self.ex_val[b].store(v, Ordering::Relaxed);
        }
    }

    /// Sparse `(bucket index, tag, value)` exemplar triples, ascending by
    /// bucket, buckets without an exemplar omitted.
    pub fn exemplars(&self) -> Vec<(u8, u64, u64)> {
        (0..BUCKETS)
            .filter_map(|b| {
                let tag = self.ex_tag[b].load(Ordering::Relaxed);
                (tag != 0).then(|| (b as u8, tag, self.ex_val[b].load(Ordering::Relaxed)))
            })
            .collect()
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Immutable summary of the current state.
    ///
    /// `count` is derived from the bucket counts actually read, so a
    /// summary taken while another thread is mid-`record` is still
    /// internally consistent (bucket total always equals `count`).
    pub fn summary(&self) -> HistogramSummary {
        let buckets: Vec<(u8, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(b, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then_some((b as u8, c))
            })
            .collect();
        let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
        HistogramSummary {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`], detached from the atomics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Sparse `(bucket index, count)` pairs, ascending, zero counts omitted.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSummary {
    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` (0.0–1.0).
    /// Resolution is the bucket width (~2x), which is plenty for latency
    /// reporting.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(b, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_bound(b as usize).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_summary() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 1106.0 / 6.0).abs() < 1e-9);
        // p50 falls in the bucket holding 2..=3
        assert_eq!(s.quantile(0.5), 3);
        // p100 clamps to the exact max
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn exemplars_remember_the_last_tagged_sample_per_bucket() {
        let h = Histogram::new();
        h.record(5); // untagged: counted, no exemplar
        h.record_tagged(5, 0xaa); // bucket 3 (4..=7)
        h.record_tagged(6, 0xbb); // same bucket: replaces
        h.record_tagged(1000, 0xcc); // bucket 10
        let ex = h.exemplars();
        assert_eq!(ex, vec![(3, 0xbb, 6), (10, 0xcc, 1000)]);
        // summary counts include the untagged sample
        assert_eq!(h.summary().count, 4);
    }

    #[test]
    fn empty_histogram() {
        let s = Histogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
