//! Flight recorder: a bounded, per-thread ring of timestamped events.
//!
//! Unlike [`crate::span::SpanSet`] (an owned, single-threaded tree built
//! for one pipeline run), the timeline is a process-wide recorder that any
//! thread can append to without coordination: each thread owns a
//! thread-local ring of [`Event`]s stamped against one shared monotonic
//! origin, so events from different threads sort onto a common time axis.
//! There are no locks on the hot path — recording is a relaxed atomic load
//! (the enable gate), a clock read, and a `Vec` push into thread-local
//! storage. When the recorder is disabled the load is the *only* cost,
//! which keeps always-compiled-in instrumentation under the 1% idle
//! budget.
//!
//! Cross-thread collection uses the same take/absorb pattern as
//! [`crate::alloc`]: a worker drains its own ring with [`take`] before it
//! exits and hands the events to its parent, which folds them in with
//! [`absorb`]. Rings are bounded ([`CAPACITY`]); overflow drops the newest
//! events and counts them ([`dropped`]) rather than blocking or growing.
//!
//! ```
//! obs::timeline::set_enabled(true);
//! obs::timeline::begin("demo.phase");
//! obs::timeline::instant("demo.tick", 7);
//! obs::timeline::end("demo.phase");
//! let events = obs::timeline::take();
//! obs::timeline::set_enabled(false);
//! assert_eq!(events.len(), 3);
//! assert!(events[0].ts_ns <= events[2].ts_ns);
//! ```

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Sentinel shard index for events not tied to any shard.
pub const NO_SHARD: u32 = u32::MAX;

/// Name of the span a fork/join coordinator records while it waits for
/// workers and folds their results back in. The analyzer
/// ([`crate::chrome::analyze`]) treats these spans as merge-barrier wait
/// time on the critical path.
pub const MERGE_WAIT_NAME: &str = "par.merge_wait";

/// Per-thread ring capacity in events. Overflow drops the newest events
/// (counted by [`dropped`]) so long-running processes stay bounded.
pub const CAPACITY: usize = 1 << 16;

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A region opens (matched by a later [`EventKind::End`] on the same
    /// thread, stack-ordered).
    Begin,
    /// The innermost open region on this thread closes.
    End,
    /// A point-in-time marker carrying an argument.
    Instant,
}

/// One recorded timeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotonic nanoseconds since the process-wide timeline origin.
    pub ts_ns: u64,
    /// Recording lane: `0` for any thread not pinned via [`set_lane`]
    /// (the coordinating thread), worker lanes as pinned.
    pub tid: u32,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Stable event name (phase and shard names reuse the trace contract).
    pub name: &'static str,
    /// Shard index for sharded work, [`NO_SHARD`] otherwise.
    pub shard: u32,
    /// Free-form argument (counter snapshot, byte count, …); 0 if unused.
    pub arg: u64,
    /// Raw [`crate::ctx`] request id in scope when the event was recorded,
    /// `0` outside any request. Lets a correlated trace viewer (or the
    /// serve retention buffer) slice one request's events out of a ring
    /// shared by many.
    pub req_id: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ORIGIN: OnceLock<Instant> = OnceLock::new();
static DROPPED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static RING: RefCell<Vec<Event>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u32> = const { Cell::new(0) };
}

fn origin() -> Instant {
    *ORIGIN.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the shared timeline origin (started the
/// first time anything touches the recorder).
pub fn now_ns() -> u64 {
    u64::try_from(origin().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turn the flight recorder on or off (off by default). Pins the shared
/// origin clock on first enable so all threads share one time axis.
pub fn set_enabled(on: bool) {
    if on {
        origin();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` when the recorder is capturing events.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// This thread's recording lane: 0 unless pinned by [`set_lane`]. Worker
/// threads are pinned to stable lanes so a worker index maps to the same
/// lane across every parallel phase; every other thread records on lane 0
/// (each runs its own pipeline, and its events stay in its own ring).
pub fn lane() -> u32 {
    TID.with(Cell::get)
}

/// Pin this thread's recording lane (worker `w` conventionally records on
/// lane `w + 1`, keeping lane 0 for the coordinating thread).
pub fn set_lane(tid: u32) {
    TID.with(|t| t.set(tid));
}

fn push(kind: EventKind, name: &'static str, shard: u32, arg: u64) {
    if !enabled() {
        return;
    }
    let ev = Event {
        ts_ns: now_ns(),
        tid: lane(),
        kind,
        name,
        shard,
        arg,
        req_id: crate::ctx::current_raw(),
    };
    RING.with(|r| {
        let mut r = r.borrow_mut();
        if r.len() >= CAPACITY {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        } else {
            r.push(ev);
        }
    });
}

/// Record the opening of a region on this thread.
pub fn begin(name: &'static str) {
    push(EventKind::Begin, name, NO_SHARD, 0);
}

/// Record the opening of shard `shard` of region `name`.
pub fn begin_shard(name: &'static str, shard: u32, arg: u64) {
    push(EventKind::Begin, name, shard, arg);
}

/// Record the close of the innermost open region on this thread.
pub fn end(name: &'static str) {
    push(EventKind::End, name, NO_SHARD, 0);
}

/// Record the close of shard `shard` of region `name`.
pub fn end_shard(name: &'static str, shard: u32) {
    push(EventKind::End, name, shard, 0);
}

/// Record a point-in-time marker.
pub fn instant(name: &'static str, arg: u64) {
    push(EventKind::Instant, name, NO_SHARD, arg);
}

/// A position in this thread's ring, for [`take_since`] /
/// [`snapshot_since`] windows.
#[derive(Debug, Clone, Copy)]
pub struct Mark(usize);

/// Mark the current position of this thread's ring.
pub fn mark() -> Mark {
    Mark(RING.with(|r| r.borrow().len()))
}

/// Drain and return every event recorded on this thread.
pub fn take() -> Vec<Event> {
    RING.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

/// Drain and return the events recorded on this thread since `m`, leaving
/// earlier events in place.
pub fn take_since(m: Mark) -> Vec<Event> {
    RING.with(|r| {
        let mut r = r.borrow_mut();
        let at = m.0.min(r.len());
        r.split_off(at)
    })
}

/// Clone (without draining) the events recorded on this thread since `m`.
pub fn snapshot_since(m: Mark) -> Vec<Event> {
    RING.with(|r| {
        let r = r.borrow();
        let at = m.0.min(r.len());
        r[at..].to_vec()
    })
}

/// Fold events drained from another thread into this thread's ring
/// (bounded: overflow drops and counts, same as recording).
pub fn absorb(events: Vec<Event>) {
    if events.is_empty() {
        return;
    }
    RING.with(|r| {
        let mut r = r.borrow_mut();
        let room = CAPACITY.saturating_sub(r.len());
        if events.len() > room {
            DROPPED.fetch_add((events.len() - room) as u64, Ordering::Relaxed);
        }
        let fit = events.len().min(room);
        r.extend_from_slice(&events[..fit]);
    });
}

/// Events recorded on this thread and not yet drained.
pub fn len() -> usize {
    RING.with(|r| r.borrow().len())
}

/// Total events dropped process-wide due to full rings.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Aggregate timeline analysis for one pipeline run: the three fields the
/// trace schema stamps per tool, plus the headline numbers
/// the profile report prints. All values are plain integers (percentages
/// scaled to 0–100) so serialization is deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineSummary {
    /// Longest dependency chain through the run: for each top-level phase,
    /// its slowest shard plus merge wait (sharded) or its wall (serial).
    pub critical_path_ns: u64,
    /// Mean busy percentage across worker lanes over the run window
    /// (100 when the run never fanned out).
    pub worker_utilization: u64,
    /// Worst shard imbalance across sharded phases:
    /// `(max - min) * 100 / max` shard duration, 0 when balanced.
    pub shard_skew: u64,
    /// Total wall time the coordinating thread spent waiting on merges.
    pub merge_wait_ns: u64,
    /// Span of the run window (first event to last event).
    pub total_wall_ns: u64,
    /// Number of distinct worker lanes that recorded events.
    pub workers: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The recorder gate is process-global; tests that flip it serialize
    /// here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn record_take_and_gate() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        let before = len();
        begin("tl.test.off");
        end("tl.test.off");
        assert_eq!(len(), before, "disabled recorder must drop events");

        set_enabled(true);
        let m = mark();
        begin("tl.test.a");
        begin_shard("tl.test.shard", 3, 42);
        end_shard("tl.test.shard", 3);
        instant("tl.test.i", 9);
        end("tl.test.a");
        let evs = take_since(m);
        set_enabled(false);
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[0].kind, EventKind::Begin);
        assert_eq!(evs[1].shard, 3);
        assert_eq!(evs[1].arg, 42);
        assert_eq!(evs[3].kind, EventKind::Instant);
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // all on this thread's lane
        assert!(evs.iter().all(|e| e.tid == evs[0].tid));
    }

    #[test]
    fn absorb_appends_and_mark_windows() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let m = mark();
        begin("tl.test.outer");
        let foreign = vec![Event {
            ts_ns: 1,
            tid: 77,
            kind: EventKind::Instant,
            name: "tl.test.foreign",
            shard: NO_SHARD,
            arg: 0,
            req_id: 0,
        }];
        absorb(foreign.clone());
        end("tl.test.outer");
        let snap = snapshot_since(m);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[1], foreign[0]);
        let drained = take_since(m);
        set_enabled(false);
        assert_eq!(drained, snap);
        assert!(snapshot_since(m).is_empty());
    }

    #[test]
    fn events_carry_the_request_context() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let m = mark();
        let id = crate::ctx::RequestId::mint();
        {
            let _scope = crate::ctx::scope(id);
            instant("tl.test.ctx", 1);
        }
        instant("tl.test.noctx", 2);
        let evs = take_since(m);
        set_enabled(false);
        assert_eq!(evs[0].req_id, id.raw());
        assert_eq!(evs[1].req_id, 0);
    }

    #[test]
    fn worker_lanes_are_pinnable() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let evs = std::thread::spawn(|| {
            set_lane(5);
            begin_shard("tl.test.lane", 0, 0);
            end_shard("tl.test.lane", 0);
            take()
        })
        .join()
        .unwrap();
        set_enabled(false);
        assert!(evs.iter().all(|e| e.tid == 5));
    }
}
