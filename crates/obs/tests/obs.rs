//! Integration tests: histogram arithmetic under concurrency and the
//! golden table rendering.

use obs::{Histogram, TextTable};
use std::sync::Arc;

#[test]
fn histogram_concurrent_totals() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let h = Arc::new(Histogram::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t as u64 * PER_THREAD + i);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let s = h.summary();
    let n = THREADS as u64 * PER_THREAD;
    assert_eq!(s.count, n);
    // sum of 0..80000
    assert_eq!(s.sum, n * (n - 1) / 2);
    assert_eq!(s.min, 0);
    assert_eq!(s.max, n - 1);
}

#[test]
fn concurrent_summary_while_recording() {
    let h = Arc::new(Histogram::new());
    let writer = {
        let h = Arc::clone(&h);
        std::thread::spawn(move || {
            for i in 0..50_000u64 {
                h.record(i % 1024);
            }
        })
    };
    // summaries taken mid-flight must be internally consistent
    for _ in 0..50 {
        let s = h.summary();
        let bucket_total: u64 = s.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(bucket_total, s.count);
    }
    writer.join().unwrap();
    assert_eq!(h.summary().count, 50_000);
}

#[test]
fn table_render_golden() {
    let mut t = TextTable::new(["phase", "wall ms", "MiB/s"]);
    t.row(["superset", "1.25", "310.0"]);
    t.row(["viability", "0.40", "968.7"]);
    let expected = "\
phase      wall ms  MiB/s
-------------------------
superset      1.25  310.0
viability     0.40  968.7
";
    assert_eq!(t.render(), expected);
}
