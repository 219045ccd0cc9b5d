//! # obs
//!
//! Zero-external-dependency observability primitives for the metadis
//! pipeline: monotonic [`Stopwatch`]es, per-run [`SpanSet`] trees, log-scale
//! [`Histogram`]s, structured logging, the flight recorder, and human-table /
//! JSON renderers.
//!
//! The crate deliberately uses nothing beyond the standard library so the
//! workspace stays buildable without any registry access.
//!
//! ## Recording a run
//!
//! There is no process-wide metrics store: each run owns its record. A
//! [`SpanSet`] builds one run's span tree, each span timed on one clock and
//! carrying its own counters; a [`Stopwatch`] times anything else.
//!
//! ```
//! let sw = obs::Stopwatch::start();
//! let mut spans = obs::SpanSet::new();
//! let root = spans.begin("demo");
//! let work = spans.begin("demo.work");
//! spans.counter(work, "items", 4);
//! spans.end(work);
//! spans.end(root);
//! let tree = spans.finish();
//! assert_eq!(tree[1].parent, Some(tree[0].id));
//! assert_eq!(tree[1].counters, vec![("items", 4)]);
//! assert!(tree[0].wall_ns >= tree[1].wall_ns);
//! assert!(sw.elapsed_ns() >= tree[0].wall_ns);
//! ```

// The only unsafe in the crate is the `GlobalAlloc` impl behind the
// `count-alloc` feature (crate::alloc); everything else stays forbidden.
#![cfg_attr(not(feature = "count-alloc"), forbid(unsafe_code))]
#![cfg_attr(feature = "count-alloc", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod alloc;
pub mod chrome;
pub mod ctx;
pub mod json;
pub mod log;
pub mod metrics;
pub mod provenance;
pub mod series;
pub mod slo;
pub mod span;
pub mod table;
pub mod timeline;

pub use metrics::{Histogram, HistogramSummary};
pub use span::{Span, SpanSet};
pub use table::TextTable;
pub use timeline::TimelineSummary;

use std::time::Instant;

/// A monotonic stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since start, saturated to `u64`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds elapsed since start.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }
}
