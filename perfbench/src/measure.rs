//! Sample statistics: medians, the tail estimator that refuses to print a
//! percentile it has too few samples for, and the best-round reduction
//! that keeps the host's slow stretches out of a run's throughput and p50.

use std::ops::Range;

/// Samples needed beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples a run needs for its tail to be the p99.
pub const P99_SAMPLES: usize = 1000;

/// A tail latency and the percentile it is.
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
}

/// A run's timings.
pub struct Best {
    /// The highest throughput of any round.
    pub mib_s: f64,
    /// The lowest median of any round.
    pub p50: f64,
    pub tail: Tail,
    pub rounds: usize,
}

/// Reduces a run to its figures. `xs` are latencies in time order, `unit`
/// of them to a round (every input once, in the same order each round, so
/// all rounds hold the same work), and `mib_s` gives the throughput of a
/// range of them. The shared host only ever adds time, so the throughput is
/// the best round's and the p50 the lowest round median: a stretch in which
/// the host slowed the program moves the rounds it covers and not these
/// figures. The tail is taken over the whole run (see [`run_tail`]) and is
/// never below the p50.
pub fn best(xs: &[f64], unit: usize, mib_s: impl Fn(Range<usize>) -> f64) -> Best {
    let rounds: Vec<Range<usize>> = (0..xs.len() / unit)
        .map(|r| r * unit..(r + 1) * unit)
        .collect();
    assert!(
        !rounds.is_empty(),
        "no whole round among {} samples",
        xs.len()
    );
    let p50 = rounds
        .iter()
        .map(|r| median(&xs[r.clone()]))
        .fold(f64::INFINITY, f64::min);
    let tail = run_tail(xs);
    assert!(tail.value >= p50, "tail {} below median {p50}", tail.value);
    Best {
        mib_s: rounds
            .iter()
            .map(|r| mib_s(r.clone()))
            .fold(f64::NEG_INFINITY, f64::max),
        p50,
        tail,
        rounds: rounds.len(),
    }
}

/// The p99 of `xs`, or with fewer than [`P99_SAMPLES`] the highest
/// percentile that has [`TAIL_BEYOND`] samples beyond it, or the median
/// when not even the median has.
fn run_tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let k = rank(s.len(), 0.99).min(s.len().saturating_sub(TAIL_BEYOND + 1));
    let percentile = 100.0 * (k + 1) as f64 / s.len() as f64;
    if percentile >= 50.0 {
        Tail {
            value: s[k],
            percentile: percentile.min(99.0),
        }
    } else {
        Tail {
            value: median(xs),
            percentile: 50.0,
        }
    }
}

fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of no samples");
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=P99_SAMPLES).map(|i| i as f64).collect();
        let t = run_tail(&xs);
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
        let many: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(run_tail(&many).value, 4950.0);
        // Fewer: the highest percentile with ten samples beyond it.
        let few: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = run_tail(&few);
        assert_eq!((t.value, t.percentile), (30.0, 75.0));
    }

    #[test]
    fn slow_stretches_do_not_move_the_best_round() {
        // Rounds of 100 samples; the host slows a third of them, in
        // stretches.
        let mut xs: Vec<f64> = (0..3000).map(|i| f64::from(i % 100)).collect();
        for (i, x) in xs.iter_mut().enumerate() {
            if (i / 500) % 3 == 2 {
                *x *= 3.0;
            }
        }
        let b = best(&xs, 100, |r| 1.0 / xs[r].iter().sum::<f64>());
        assert_eq!((b.p50, b.rounds, b.mib_s), (49.5, 30, 1.0 / 4950.0));
        assert_eq!(b.tail.value, 288.0);
    }

    #[test]
    fn tail_never_below_median() {
        // Too few samples for any tail: the median itself.
        let xs = [953.7, 951.7, 952.0, 954.1, 950.9];
        let t = run_tail(&xs);
        assert_eq!((t.value, t.percentile), (median(&xs), 50.0));
        let b = best(&xs, 1, |r| r.len() as f64);
        assert_eq!((b.p50, b.tail.value), (950.9, 952.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
