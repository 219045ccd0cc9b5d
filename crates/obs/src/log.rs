//! Leveled, structured JSON-lines logging (schema `metadis.log.v2`).
//!
//! One log record is one JSON object on one line, with a stable field
//! order:
//!
//! ```json
//! {"schema":"metadis.log.v2","ts_ns":1234,"level":"info","phase":"superset","span":2,"req_id":"00000000000004d2","msg":"phase done","fields":{"bytes":4096}}
//! ```
//!
//! * `ts_ns` — monotonic nanoseconds since the logger's origin (the first
//!   record after a [`reset`]), *not* wall-clock time, so lines are
//!   reproducible modulo timing.
//! * `level` — `trace` | `debug` | `info` | `warn` | `error`.
//! * `phase` — the pipeline phase (or subsystem) that spoke; reuses the
//!   trace phase-name contract where applicable.
//! * `span` — the [`crate::Span`] id the record belongs to, or `null`.
//! * `req_id` — the [`crate::ctx`] request id in scope when the record was
//!   emitted (16 lowercase hex digits), or `null` outside any request.
//! * `fields` — structured key=value payload, in emission order.
//!
//! The global logger is off by default ([`level`] returns `None`) and a
//! disabled emission costs one relaxed atomic load. When enabled, every
//! record lands in a bounded in-memory ring buffer (oldest lines drop
//! first) and, if a sink was installed with [`to_writer`] / [`to_file`] /
//! [`to_stderr`], is written through immediately. Warn/error counts are
//! tracked whenever the logger is enabled so telemetry consumers (the
//! `compare` table, the serve-mode `/metrics` endpoint) can report them
//! without replaying the ring.
//!
//! ```
//! obs::log::reset();
//! obs::log::set_level(Some(obs::log::Level::Info));
//! obs::log::info("demo", "hello", &[("n", obs::log::Value::U64(3))]);
//! let lines = obs::log::ring();
//! assert_eq!(lines.len(), 1);
//! assert!(lines[0].contains(r#""phase":"demo""#));
//! obs::log::set_level(None);
//! ```

use crate::json::JsonWriter;
use crate::Stopwatch;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// The schema tag stamped on every log line.
pub const SCHEMA: &str = "metadis.log.v2";

/// Default ring-buffer capacity in lines.
pub const DEFAULT_RING_CAP: usize = 1024;

/// Log severity, least severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fine-grained tracing (per-decision noise).
    Trace = 0,
    /// Diagnostic detail.
    Debug = 1,
    /// Normal operational events (phase completions, requests).
    Info = 2,
    /// Degradations, budget hits, fallbacks — the run is partial or odd.
    Warn = 3,
    /// Failures (a request errored, a phase panicked).
    Error = 4,
}

impl Level {
    /// Stable lowercase name used in the `level` field.
    pub fn name(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parse a level name (as accepted by `--log-level`).
    pub fn parse(s: &str) -> Option<Level> {
        Some(match s {
            "trace" => Level::Trace,
            "debug" => Level::Debug,
            "info" => Level::Info,
            "warn" | "warning" => Level::Warn,
            "error" => Level::Error,
            _ => return None,
        })
    }

    fn from_u8(v: u8) -> Option<Level> {
        Some(match v {
            0 => Level::Trace,
            1 => Level::Debug,
            2 => Level::Info,
            3 => Level::Warn,
            4 => Level::Error,
            _ => return None,
        })
    }
}

/// A structured field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

/// Render one `metadis.log.v2` line from explicit parts. Pure — no clocks,
/// no global state — so golden tests can pin the encoding byte-for-byte.
/// `req_id` is the raw correlation id (`0` = no request in scope → `null`).
/// The returned string has no trailing newline.
pub fn format_line(
    ts_ns: u64,
    level: Level,
    phase: &str,
    span: Option<u32>,
    req_id: u64,
    msg: &str,
    fields: &[(&str, Value)],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_str("schema", SCHEMA);
    w.field_u64("ts_ns", ts_ns);
    w.field_str("level", level.name());
    w.field_str("phase", phase);
    match span {
        Some(id) => w.field_u64("span", id as u64),
        None => {
            w.key("span");
            w.null_val();
        }
    }
    if req_id == 0 {
        w.key("req_id");
        w.null_val();
    } else {
        w.field_str("req_id", &format!("{req_id:016x}"));
    }
    w.field_str("msg", msg);
    w.key("fields");
    w.begin_obj();
    for (k, v) in fields {
        match v {
            Value::U64(n) => w.field_u64(k, *n),
            Value::I64(n) => w.field_f64(k, *n as f64),
            Value::F64(n) => w.field_f64(k, *n),
            Value::Str(s) => w.field_str(k, s),
            Value::Bool(b) => w.field_bool(k, *b),
        }
    }
    w.end_obj();
    w.end_obj();
    w.finish()
}

/// Level encoding in the atomic: 255 = off.
const OFF: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(OFF);
static WARNS: AtomicU64 = AtomicU64::new(0);
static ERRORS: AtomicU64 = AtomicU64::new(0);
static EMITTED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

struct LogState {
    origin: Option<Stopwatch>,
    ring: VecDeque<String>,
    ring_cap: usize,
    /// Absolute sequence number of the *next* line to be emitted; the ring
    /// holds lines `[seq - ring.len(), seq)`.
    seq: u64,
    sink: Option<Box<dyn Write + Send>>,
}

impl LogState {
    const fn new() -> LogState {
        LogState {
            origin: None,
            ring: VecDeque::new(),
            ring_cap: DEFAULT_RING_CAP,
            seq: 0,
            sink: None,
        }
    }
}

static STATE: Mutex<LogState> = Mutex::new(LogState::new());

/// Set the global log level; `None` disables logging entirely.
pub fn set_level(level: Option<Level>) {
    LEVEL.store(level.map(|l| l as u8).unwrap_or(OFF), Ordering::Relaxed);
}

/// The current global log level (`None` = off).
pub fn level() -> Option<Level> {
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// `true` when a record at `l` would be kept.
pub fn enabled(l: Level) -> bool {
    LEVEL.load(Ordering::Relaxed) <= l as u8
}

/// Install a writer that receives every kept line (line-buffered, one
/// `write_all` per record, newline included). Replaces any previous sink.
pub fn to_writer(w: Box<dyn Write + Send>) {
    STATE.lock().unwrap().sink = Some(w);
}

/// Install a file sink at `path` (created/truncated).
pub fn to_file(path: &str) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    to_writer(Box::new(f));
    Ok(())
}

/// Install a stderr sink.
pub fn to_stderr() {
    to_writer(Box::new(std::io::stderr()));
}

/// Remove the sink (ring-buffer-only mode).
pub fn clear_sink() {
    STATE.lock().unwrap().sink = None;
}

/// Resize the ring buffer (existing excess lines drop oldest-first).
pub fn set_ring_capacity(cap: usize) {
    let mut st = STATE.lock().unwrap();
    st.ring_cap = cap.max(1);
    while st.ring.len() > st.ring_cap {
        st.ring.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Emit one record at `level`. No-op (one atomic load) when the global
/// level filters it out.
pub fn emit(level: Level, phase: &str, span: Option<u32>, msg: &str, fields: &[(&str, Value)]) {
    if !enabled(level) {
        return;
    }
    match level {
        Level::Warn => {
            WARNS.fetch_add(1, Ordering::Relaxed);
        }
        Level::Error => {
            ERRORS.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
    EMITTED.fetch_add(1, Ordering::Relaxed);
    let req_id = crate::ctx::current_raw();
    let mut st = STATE.lock().unwrap();
    let ts_ns = st.origin.get_or_insert_with(Stopwatch::start).elapsed_ns();
    let line = format_line(ts_ns, level, phase, span, req_id, msg, fields);
    if let Some(sink) = st.sink.as_mut() {
        let _ = sink.write_all(line.as_bytes());
        let _ = sink.write_all(b"\n");
    }
    if st.ring.len() >= st.ring_cap {
        st.ring.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    st.ring.push_back(line);
    st.seq += 1;
}

/// Emit at [`Level::Trace`].
pub fn trace(phase: &str, msg: &str, fields: &[(&str, Value)]) {
    emit(Level::Trace, phase, None, msg, fields);
}

/// Emit at [`Level::Debug`].
pub fn debug(phase: &str, msg: &str, fields: &[(&str, Value)]) {
    emit(Level::Debug, phase, None, msg, fields);
}

/// Emit at [`Level::Info`].
pub fn info(phase: &str, msg: &str, fields: &[(&str, Value)]) {
    emit(Level::Info, phase, None, msg, fields);
}

/// Emit at [`Level::Warn`].
pub fn warn(phase: &str, msg: &str, fields: &[(&str, Value)]) {
    emit(Level::Warn, phase, None, msg, fields);
}

/// Emit at [`Level::Error`].
pub fn error(phase: &str, msg: &str, fields: &[(&str, Value)]) {
    emit(Level::Error, phase, None, msg, fields);
}

/// Snapshot the ring buffer (oldest first).
pub fn ring() -> Vec<String> {
    STATE.lock().unwrap().ring.iter().cloned().collect()
}

/// Absolute sequence number of the next line (== total lines kept since the
/// last [`reset`]). Use with [`since`] for windowed capture.
pub fn seq() -> u64 {
    STATE.lock().unwrap().seq
}

/// Lines emitted at or after absolute sequence number `from` that are still
/// in the ring (oldest first). Lines already evicted are gone — check
/// [`dropped_count`] if exactness matters.
pub fn since(from: u64) -> Vec<String> {
    let st = STATE.lock().unwrap();
    let ring_start = st.seq - st.ring.len() as u64;
    let skip = from.saturating_sub(ring_start) as usize;
    st.ring.iter().skip(skip).cloned().collect()
}

/// Warn-level records kept since process start (monotonic: [`reset`]
/// leaves it alone, so a caller can diff two reads around its own work).
pub fn warn_count() -> u64 {
    WARNS.load(Ordering::Relaxed)
}

/// Error-level records kept since process start (monotonic, like
/// [`warn_count`]).
pub fn error_count() -> u64 {
    ERRORS.load(Ordering::Relaxed)
}

/// Total records kept since the last [`reset`].
pub fn emitted_count() -> u64 {
    EMITTED.load(Ordering::Relaxed)
}

/// Records evicted from the ring since the last [`reset`].
pub fn dropped_count() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Zero the emitted/dropped counters, clear the ring, and restart the
/// origin clock. The level, the sink and the monotonic warn/error counts
/// are left as they are. Call at the start of a measurement window (the
/// CLI does, per invocation).
pub fn reset() {
    EMITTED.store(0, Ordering::Relaxed);
    DROPPED.store(0, Ordering::Relaxed);
    let mut st = STATE.lock().unwrap();
    st.origin = None;
    st.ring.clear();
    st.seq = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// The logger is process-global; tests that touch it serialize here.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn format_line_is_stable() {
        let line = format_line(
            1234,
            Level::Warn,
            "viability",
            Some(2),
            0xdead_beef,
            "budget hit",
            &[
                ("limit", Value::Str("deadline".into())),
                ("completed", Value::U64(17)),
                ("partial", Value::Bool(true)),
            ],
        );
        assert_eq!(
            line,
            r#"{"schema":"metadis.log.v2","ts_ns":1234,"level":"warn","phase":"viability","span":2,"req_id":"00000000deadbeef","msg":"budget hit","fields":{"limit":"deadline","completed":17,"partial":true}}"#
        );
        // no-span, no-request, no-fields shape
        let line = format_line(0, Level::Info, "cli", None, 0, "start", &[]);
        assert_eq!(
            line,
            r#"{"schema":"metadis.log.v2","ts_ns":0,"level":"info","phase":"cli","span":null,"req_id":null,"msg":"start","fields":{}}"#
        );
    }

    #[test]
    fn emit_stamps_current_request_context() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_level(Some(Level::Info));
        let id = crate::ctx::RequestId::mint();
        {
            let _scope = crate::ctx::scope(id);
            info("t", "inside", &[]);
        }
        info("t", "outside", &[]);
        let lines = ring();
        assert!(
            lines[0].contains(&format!(r#""req_id":"{id}""#)),
            "{lines:?}"
        );
        assert!(lines[1].contains(r#""req_id":null"#), "{lines:?}");
        set_level(None);
        reset();
    }

    #[test]
    fn level_parse_roundtrip() {
        for l in [
            Level::Trace,
            Level::Debug,
            Level::Info,
            Level::Warn,
            Level::Error,
        ] {
            assert_eq!(Level::parse(l.name()), Some(l));
        }
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("loud"), None);
    }

    #[test]
    fn disabled_emission_is_dropped() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_level(None);
        info("t", "dropped", &[]);
        assert_eq!(emitted_count(), 0);
        assert!(ring().is_empty());
    }

    #[test]
    fn level_gate_and_counters() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_level(Some(Level::Warn));
        let (warns, errors) = (warn_count(), error_count());
        info("t", "filtered", &[]);
        warn("t", "kept", &[]);
        error("t", "kept too", &[]);
        assert_eq!(emitted_count(), 2);
        assert_eq!(warn_count() - warns, 1);
        assert_eq!(error_count() - errors, 1);
        let lines = ring();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""level":"warn""#));
        set_level(None);
        reset();
    }

    #[test]
    fn ring_is_bounded_and_since_windows() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_ring_capacity(4);
        set_level(Some(Level::Info));
        for i in 0..6u64 {
            info("t", "line", &[("i", Value::U64(i))]);
        }
        let lines = ring();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains(r#""i":2"#), "{lines:?}");
        assert_eq!(dropped_count(), 2);
        // windowed capture from an absolute sequence number
        let mark = seq();
        info("t", "after-mark", &[]);
        let new = since(mark);
        assert_eq!(new.len(), 1);
        assert!(new[0].contains("after-mark"));
        // a window that predates the ring yields what's left
        assert_eq!(since(0).len(), 4 + 1 - 1); // cap 4, one more pushed, one evicted
        set_level(None);
        set_ring_capacity(DEFAULT_RING_CAP);
        reset();
    }

    #[test]
    fn sink_receives_lines() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        #[derive(Clone)]
        struct Buf(Arc<StdMutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf(Arc::new(StdMutex::new(Vec::new())));
        to_writer(Box::new(buf.clone()));
        set_level(Some(Level::Debug));
        debug("t", "to sink", &[]);
        set_level(None);
        clear_sink();
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.ends_with("}\n"), "{text:?}");
        assert!(text.contains(r#""msg":"to sink""#));
        reset();
    }

    #[test]
    fn ts_is_monotonic_from_reset() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_level(Some(Level::Info));
        info("t", "a", &[]);
        info("t", "b", &[]);
        let lines = ring();
        let ts = |l: &str| -> u64 {
            let v = crate::json::parse(l).unwrap();
            v.get("ts_ns").and_then(|x| x.as_u64()).unwrap()
        };
        assert!(ts(&lines[1]) >= ts(&lines[0]));
        set_level(None);
        reset();
    }
}
