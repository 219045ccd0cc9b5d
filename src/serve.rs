//! High-concurrency service mode: a nonblocking event loop with admission
//! control, load shedding, and the batch-worker analysis engine behind it.
//!
//! [`Server`] binds a `std::net::TcpListener` in nonblocking mode and runs
//! a readiness-polling **reactor** on one background thread: every client
//! socket is `set_nonblocking`, reads and writes happen incrementally
//! through the bounded [`crate::http`] framing layer, and no connection can
//! ever stall another — a slowloris client dribbling one byte per 100 ms
//! holds exactly one connection slot while `/healthz` keeps answering. The
//! reactor holds hundreds of concurrent clients; capacity is explicit:
//!
//! * **Connection cap** ([`ServeOptions::max_inflight`]) — accepts beyond
//!   the cap are answered with a structured `503` and closed.
//! * **Admission queue** ([`ServeOptions::queue_depth`]) — complete
//!   `/analyze` requests enter a bounded queue; when it is full the request
//!   is *shed*: a `503` JSON body carrying `"category":"overload"`, an
//!   `obs::log` warn event, and a `metadis_requests_shed_total` increment —
//!   never a stall, never a crash.
//! * **Per-client deadline** ([`ServeOptions::client_deadline_ms`]) — one
//!   [`Deadline`] covers read + queue wait + analysis + write. Whatever
//!   budget the queue wait consumed is subtracted before analysis starts
//!   (via `Limits::deadline_ms`), so a request admitted late degrades or
//!   sheds instead of overrunning.
//!
//! Analysis drains through a **dispatcher** thread that pops queued jobs in
//! batches and fans them out over [`disasm_core::par::run_jobs`]
//! (`Config::threads` wide) — the same bit-identical worker pool the batch
//! CLI path uses, with the same per-request flight-recorder capture feeding
//! the rolling buffer behind `/debug/timeline`.
//!
//! HTTP surface:
//!
//! * `GET /healthz` — **readiness**, not just liveness: `ok` while the
//!   instance can admit work; `503` with a JSON body (queue depth, shed
//!   count, in-flight) when the admission queue is saturated or the server
//!   is draining, so load balancers rotate a drowning instance out.
//! * `GET|POST /analyze` — submit one ELF path (`?path=` or request body);
//!   answers a JSON summary, a structured error, or a `503` shed.
//! * `GET /metrics` — Prometheus text exposition of the service counters
//!   (request totals and latency summaries labeled by `endpoint`), the
//!   shed/bad-request/disconnect counters, a `metadis_build_info` gauge,
//!   and the `metadis_slo_*` burn-rate gauges.
//! * `GET /debug/timeline` — Chrome trace-event JSON of the rolling flight
//!   buffer (the last [`ServeOptions::flight_capacity`] request timelines).
//! * `GET /debug/metrics/history` — the rolling time-series ring as a
//!   `metadis.series.v1` JSON document: cumulative snapshots taken by the
//!   reactor every [`ServeOptions::series_interval_ms`] (bounded by
//!   [`ServeOptions::series_window`]), each carrying counters, gauges,
//!   histogram summaries, and the SLO verdicts. `metadis top` renders it
//!   live; rates and windowed quantiles are derived client-side.
//! * `GET /debug/requests` — index of the retained per-request forensic
//!   records; `GET /debug/requests/<id>` answers one record as a
//!   `metadis.request.v1` bundle (timeline, correlated log slice, trace
//!   summary). `metadis forensics` snapshots both into a support bundle.
//!
//! **Request correlation**: the reactor mints an [`obs::ctx::RequestId`]
//! at accept time (or honors a client-supplied `X-Metadis-Request-Id`
//! header) and enters it as the thread's [`obs::ctx`] scope for
//! everything the request touches — so every log line (`req_id` field of
//! `metadis.log.v2`), timeline event, latency/queue-wait histogram
//! exemplar, and retained bundle carries the same id the client reads
//! back from the `X-Metadis-Request-Id` response header. Worker fan-out
//! through [`disasm_core::par::run_jobs`] propagates the scope, so a
//! request analyzed in parallel stays correlated end to end.
//!
//! The flight buffer itself is **tail-retaining**: when full, the oldest
//! *routine* record is evicted first; anomalous requests (error, shed,
//! degraded, p99-tail latency, or completed while an SLO window burned)
//! survive until only anomalies remain. Evictions are counted and the
//! occupancy exported, so a scrape can tell "quiet" from "churning".
//!
//! A **sampler** on the reactor thread snapshots the counters into an
//! [`obs::series::SeriesRing`] each tick and feeds an [`obs::slo::SloEngine`]
//! evaluating multi-window burn rates (availability vs a 99.9% target,
//! p99 latency vs a 5s ceiling). Threshold crossings emit one `slo burn`
//! warn event; the current verdicts ride `/metrics`, `/healthz`'s 503
//! JSON, and every history sample.
//!
//! Shutdown is graceful: [`Server::shutdown`] (or drop) refuses new
//! connections, drains queued and in-flight work bounded by
//! [`ServeOptions::drain_ms`], then flushes the flight buffer and emits a
//! final `shutdown complete` log line.
//!
//! Batch ingestion ([`Server::process_path`] / [`Server::process_batch`],
//! fed by `metadis serve` from stdin, a file, or a watched directory) rides
//! the same engine and counters. Everything is standard library only.

use crate::cli::{load_image, CliError};
use crate::http::{self, RequestParser};
use disasm_core::limits::Deadline;
use disasm_core::{Config, Disassembler};
use obs::ctx::RequestId;
use obs::log::Value;
use obs::series::{Sample, SeriesRing};
use obs::slo::{BurnWindows, Objective, ObjectiveKind, SloEngine, SloStatus};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default for [`ServeOptions::flight_capacity`]: how many per-request
/// forensic records the tail-retaining flight buffer holds.
pub const FLIGHT_CAPACITY: usize = 8;

/// Schema tag of the per-request forensic bundle served by
/// `/debug/requests/<id>` and written by [`write_request_bundle`].
pub const REQUEST_SCHEMA: &str = "metadis.request.v1";

/// Admission-control and lifecycle knobs for [`Server::start_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Maximum concurrently held client connections; accepts beyond the
    /// cap are shed with a `503`.
    pub max_inflight: usize,
    /// Bound on the admission queue of parsed-but-unstarted `/analyze`
    /// requests. `0` admits nothing (every analysis request sheds) — a
    /// maintenance mode that also drives `/healthz` to `503`.
    pub queue_depth: usize,
    /// Per-client budget in milliseconds covering read + queue wait +
    /// analysis + write. `0` means unlimited.
    pub client_deadline_ms: u64,
    /// How long [`Server::shutdown`] waits for queued and in-flight work
    /// to drain before forcing connections closed.
    pub drain_ms: u64,
    /// Tick of the metric time-series sampler, milliseconds. The reactor
    /// snapshots every counter/gauge/summary into the history ring on this
    /// cadence and re-evaluates the SLO engine. `0` disables sampling
    /// (`/debug/metrics/history` answers an empty window).
    pub series_interval_ms: u64,
    /// How many samples the history ring retains (oldest evicted first);
    /// also scales the SLO burn windows. Clamped to ≥ 2.
    pub series_window: usize,
    /// How many per-request forensic records the flight buffer retains
    /// (anomalies preferentially — see the module docs). Clamped to ≥ 1.
    pub flight_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_inflight: 256,
            queue_depth: 64,
            client_deadline_ms: 10_000,
            drain_ms: 2_000,
            series_interval_ms: 1_000,
            series_window: 300,
            flight_capacity: FLIGHT_CAPACITY,
        }
    }
}

/// Endpoint label values for the per-endpoint request counter and latency
/// summary. `"batch"` is the serve command's stdin/file/watch ingestion
/// path; `"other"` catches 404s and rejected methods.
const ENDPOINTS: [&str; 8] = [
    "/analyze",
    "batch",
    "/metrics",
    "/healthz",
    "/debug/timeline",
    "/debug/metrics/history",
    "/debug/requests",
    "other",
];
const EP_ANALYZE: usize = 0;
const EP_BATCH: usize = 1;
const EP_OTHER: usize = ENDPOINTS.len() - 1;

/// Label index for a request path. Per-id bundle fetches
/// (`/debug/requests/<id>`) account under the `/debug/requests` label;
/// merely-prefixed paths like `/debug/requestsfoo` route to the 404
/// handler and must account under `other`.
fn endpoint_index(path: &str) -> usize {
    let path = if path == "/debug/requests" || path.starts_with("/debug/requests/") {
        "/debug/requests"
    } else {
        path
    };
    ENDPOINTS
        .iter()
        .position(|&e| e == path)
        .unwrap_or(EP_OTHER)
}

/// One request's forensic record: identity, outcome, captured timeline,
/// and the correlated slice of the structured log. Retained in the
/// tail-preferential flight buffer behind `/debug/timeline` and
/// `/debug/requests`.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Raw request-correlation id (`0` only for pre-context batch work).
    pub req_id: u64,
    /// What was analyzed (or the shed detail).
    pub path: String,
    /// Endpoint label the request accounted under.
    pub endpoint: &'static str,
    /// `"ok"`, `"error"`, or `"shed"`.
    pub outcome: &'static str,
    /// Why the record is worth keeping; empty for routine requests.
    pub anomalies: Vec<&'static str>,
    /// End-to-end service latency (load + pipeline), nanoseconds.
    pub latency_ns: u64,
    /// Accepted instructions (0 on error/shed).
    pub instructions: u64,
    /// Budget hits recorded by the run.
    pub degradations: u64,
    /// The request's flight-recorder timeline slice.
    pub events: Vec<obs::timeline::Event>,
    /// `metadis.log.v2` lines carrying this request's `req_id`.
    pub logs: Vec<String>,
}

impl RequestRecord {
    fn anomalous(&self) -> bool {
        !self.anomalies.is_empty()
    }
}

/// An admitted `/analyze` request waiting for a worker: which connection
/// to answer, what to analyze, the correlation id minted (or honored) for
/// it, and the client's remaining deadline.
#[derive(Debug)]
struct Job {
    conn: u64,
    req_id: RequestId,
    path: String,
    deadline: Deadline,
    queued: Instant,
}

/// Service state shared between the reactor, the dispatcher, and the
/// processing entry points. Counters are relaxed atomics (scrapes may
/// observe a request mid-update, which Prometheus tolerates by design);
/// the admission queue, the completion list, and the flight buffer are the
/// only mutexes, each touched a bounded number of times per request.
#[derive(Debug, Default)]
struct State {
    opts: ServeOptions,
    requests: AtomicU64,
    errors: AtomicU64,
    sheds: AtomicU64,
    shed_queue: AtomicU64,
    shed_deadline: AtomicU64,
    shed_connections: AtomicU64,
    bad_requests: AtomicU64,
    disconnects: AtomicU64,
    connections: AtomicU64,
    queue_len: AtomicU64,
    analysis_inflight: AtomicU64,
    text_bytes: AtomicU64,
    instructions: AtomicU64,
    wall_ns: AtomicU64,
    degradations: AtomicU64,
    alloc_bytes: AtomicU64,
    alloc_peak: AtomicU64,
    http_requests: AtomicU64,
    endpoint_requests: [AtomicU64; ENDPOINTS.len()],
    endpoint_latency: [obs::Histogram; ENDPOINTS.len()],
    latency: obs::Histogram,
    queue_wait: obs::Histogram,
    series: Mutex<SeriesTracker>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    completions: Mutex<Vec<(u64, Vec<u8>)>>,
    flight: Mutex<VecDeque<RequestRecord>>,
    flight_dumps: AtomicU64,
    flight_evictions: AtomicU64,
    lock_poisoned: AtomicU64,
    draining: AtomicBool,
    stop: AtomicBool,
}

impl State {
    /// Take a reactor-shared mutex, recovering from poisoning instead of
    /// propagating it. A worker that panics while holding one of these
    /// locks must not cascade into every later scrape and request
    /// unwinding too — the guarded structures (queue, completions, flight
    /// buffer, series ring) all tolerate a half-applied update (a lost
    /// job, a duplicate sample) far better than a dead service. Each
    /// recovery increments `metadis_lock_poisoned_total` so the incident
    /// is visible, not silent.
    fn lock<'a, T>(&self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|poisoned| {
            self.lock_poisoned.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }
}

/// The rolling metric history and its SLO engine, sampled by the reactor
/// on the [`ServeOptions::series_interval_ms`] tick. One mutex, touched
/// once per tick and per `/debug/metrics/history` or `/healthz` render —
/// never on the request path.
#[derive(Debug)]
struct SeriesTracker {
    /// Monotonic origin for sample timestamps (server start).
    origin: Instant,
    ring: SeriesRing,
    engine: SloEngine,
    /// Statuses from the most recent evaluation, for `/metrics` gauges and
    /// the `/healthz` detail block between ticks.
    statuses: Vec<SloStatus>,
}

impl Default for SeriesTracker {
    fn default() -> SeriesTracker {
        SeriesTracker::new(&ServeOptions::default())
    }
}

impl SeriesTracker {
    fn new(opts: &ServeOptions) -> SeriesTracker {
        let cap = opts.series_window.max(2);
        SeriesTracker {
            origin: Instant::now(),
            ring: SeriesRing::new(cap),
            engine: SloEngine::new(slo_objectives(), BurnWindows::scaled_to(cap)),
            statuses: Vec::new(),
        }
    }
}

/// The service's declarative SLOs.
///
/// * `availability` — sheds + errors may consume at most 0.1% of attempted
///   requests (0.999 target) before the budget burns at 1.0.
/// * `latency_p99` — the windowed p99 of per-request service latency must
///   stay under 5s (the same ceiling the serve bench gates on).
fn slo_objectives() -> Vec<Objective> {
    vec![
        Objective {
            name: "availability".to_string(),
            kind: ObjectiveKind::Availability {
                bad: vec!["sheds".to_string(), "errors".to_string()],
                total: vec![
                    "requests".to_string(),
                    "errors".to_string(),
                    "sheds".to_string(),
                ],
                target: 0.999,
            },
        },
        Objective {
            name: "latency_p99".to_string(),
            kind: ObjectiveKind::LatencyQuantile {
                summary: "latency_ns".to_string(),
                q: 0.99,
                ceiling_ns: 5_000_000_000,
            },
        },
    ]
}

/// Snapshot every cumulative counter, gauge, and histogram into one
/// [`Sample`] at `ts_ns`.
fn build_sample(st: &State, ts_ns: u64) -> Sample {
    let mut s = Sample {
        ts_ns,
        ..Sample::default()
    };
    for (name, v) in [
        ("requests", &st.requests),
        ("errors", &st.errors),
        ("sheds", &st.sheds),
        ("shed_queue", &st.shed_queue),
        ("shed_deadline", &st.shed_deadline),
        ("shed_connections", &st.shed_connections),
        ("bad_requests", &st.bad_requests),
        ("disconnects", &st.disconnects),
        ("http_requests", &st.http_requests),
        ("text_bytes", &st.text_bytes),
        ("instructions", &st.instructions),
        ("degradations", &st.degradations),
    ] {
        s.counters
            .insert(name.to_string(), v.load(Ordering::Relaxed));
    }
    for (name, v) in [
        ("connections", &st.connections),
        ("queue_depth", &st.queue_len),
        ("inflight", &st.analysis_inflight),
    ] {
        s.gauges.insert(name.to_string(), v.load(Ordering::Relaxed));
    }
    s.summaries
        .insert("latency_ns".to_string(), st.latency.summary());
    s.summaries
        .insert("queue_wait_ns".to_string(), st.queue_wait.summary());
    // Exemplars ride the sample only when a tagged request has landed;
    // a series with none serializes byte-identically to pre-exemplar docs.
    for (name, h) in [
        ("latency_ns", &st.latency),
        ("queue_wait_ns", &st.queue_wait),
    ] {
        let ex = h.exemplars();
        if !ex.is_empty() {
            s.exemplars.insert(name.to_string(), ex);
        }
    }
    s
}

/// One sampler tick: push a snapshot into the ring, re-evaluate the SLO
/// engine against it, attach the statuses to the sample, and log burn
/// threshold crossings (once per crossing, not per tick).
fn sample_series(st: &State) {
    let eval = {
        let mut tr = st.lock(&st.series);
        let ts_ns = tr.origin.elapsed().as_nanos() as u64;
        let sample = build_sample(st, ts_ns);
        let SeriesTracker {
            ring,
            engine,
            statuses,
            ..
        } = &mut *tr;
        ring.push(sample);
        let eval = engine.evaluate(ring);
        if let Some(latest) = ring.latest_mut() {
            latest.slo = eval.statuses.clone();
        }
        statuses.clone_from(&eval.statuses);
        eval
    };
    for name in &eval.crossed {
        let s = eval
            .statuses
            .iter()
            .find(|s| &s.objective == name)
            .expect("crossed objective has a status");
        obs::log::warn(
            "serve",
            "slo burn",
            &[
                ("objective", Value::Str(name.clone())),
                ("burn_fast", Value::F64(s.burn_fast)),
                ("burn_slow", Value::F64(s.burn_slow)),
            ],
        );
    }
    for name in &eval.recovered {
        obs::log::info(
            "serve",
            "slo recovered",
            &[("objective", Value::Str(name.clone()))],
        );
    }
}

/// `metadis.series.v1` JSON of the current history ring, for
/// `/debug/metrics/history`.
fn render_history(st: &State) -> String {
    let tr = st.lock(&st.series);
    obs::series::write_history_json(
        st.opts.series_interval_ms,
        st.opts.series_window,
        tr.ring.iter(),
    )
}

/// Account one answered request against its endpoint label.
fn note_endpoint(st: &State, ep: usize, latency_ns: u64) {
    st.endpoint_requests[ep].fetch_add(1, Ordering::Relaxed);
    st.endpoint_latency[ep].record(latency_ns);
}

/// Outcome of one processed request, for the serve loop's own accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSummary {
    /// Text bytes disassembled.
    pub text_bytes: u64,
    /// Accepted instructions.
    pub instructions: u64,
    /// Wall time of the pipeline, nanoseconds.
    pub wall_ns: u64,
    /// Budget hits recorded by the run.
    pub degradations: u64,
}

/// The service front-end: a bound nonblocking listener, the reactor and
/// dispatcher threads, and the shared counters. Dropping the server (or
/// calling [`Server::shutdown`]) drains and stops both threads.
#[derive(Debug)]
pub struct Server {
    state: Arc<State>,
    addr: SocketAddr,
    reactor: Option<std::thread::JoinHandle<()>>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) with default
    /// [`ServeOptions`] and a default analysis [`Config`].
    pub fn start(addr: &str) -> std::io::Result<Server> {
        Server::start_with(addr, ServeOptions::default(), Config::default())
    }

    /// Bind `addr` and start the reactor (connection event loop) and the
    /// dispatcher (admission-queue worker) threads. `cfg` is the analysis
    /// configuration used for HTTP `/analyze` requests; its `threads`
    /// field sizes the worker pool, preserving the bit-identical
    /// `--threads` contract.
    pub fn start_with(addr: &str, opts: ServeOptions, cfg: Config) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // The flight recorder stays on for the life of the service: it is
        // bounded (per-thread ring) and cheap, and it is what feeds the
        // rolling per-request buffer behind `/debug/timeline`.
        obs::timeline::set_enabled(true);
        listener.set_nonblocking(true)?;
        let state = Arc::new(State {
            opts,
            series: Mutex::new(SeriesTracker::new(&opts)),
            ..State::default()
        });
        let reactor_state = Arc::clone(&state);
        let reactor = std::thread::spawn(move || run_reactor(listener, &reactor_state));
        let dispatcher_state = Arc::clone(&state);
        let dispatcher = std::thread::spawn(move || run_dispatcher(&dispatcher_state, cfg));
        obs::log::info(
            "serve",
            "listening",
            &[
                ("addr", Value::Str(addr.to_string())),
                ("max_inflight", (opts.max_inflight as u64).into()),
                ("queue_depth", (opts.queue_depth as u64).into()),
                ("client_deadline_ms", opts.client_deadline_ms.into()),
            ],
        );
        Ok(Server {
            state,
            addr,
            reactor: Some(reactor),
            dispatcher: Some(dispatcher),
        })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests processed so far.
    pub fn requests(&self) -> u64 {
        self.state.requests.load(Ordering::Relaxed)
    }

    /// Requests that failed (unreadable/unparsable input).
    pub fn errors(&self) -> u64 {
        self.state.errors.load(Ordering::Relaxed)
    }

    /// Requests shed by admission control (queue full, connection cap,
    /// deadline exhausted, or draining).
    pub fn sheds(&self) -> u64 {
        self.state.sheds.load(Ordering::Relaxed)
    }

    /// Disassemble the ELF at `path` with `cfg`, folding the run into the
    /// service counters and emitting request-scoped log events.
    pub fn process_path(&self, path: &str, cfg: &Config) -> Result<RequestSummary, String> {
        process_on(&self.state, path, cfg, EP_BATCH).map_err(|e| e.message)
    }

    /// Disassemble a batch of ELF paths concurrently on a bounded worker
    /// pool (`cfg.threads` wide; a single-threaded config degenerates to a
    /// sequential loop). Results come back in input order. Service counters
    /// are atomics, per-request allocation accounting is thread-local, and
    /// log records are written atomically — so the per-request telemetry is
    /// the same as if the batch had been processed one path at a time.
    pub fn process_batch(
        &self,
        paths: &[String],
        cfg: &Config,
    ) -> Vec<Result<RequestSummary, String>> {
        disasm_core::par::run_jobs("serve.batch", paths.len(), cfg.threads.max(1), |i| {
            self.process_path(&paths[i], cfg)
        })
    }

    /// Render the legacy (`text/plain; version=0.0.4`) Prometheus text
    /// exposition of the service counters — no exemplar suffixes, which
    /// only the OpenMetrics format served by `GET /metrics` under an
    /// `Accept: application/openmetrics-text` header may carry.
    pub fn render_metrics(&self) -> String {
        render_prometheus(&self.state, false)
    }

    /// Gracefully stop: refuse new connections, drain queued and in-flight
    /// work (bounded by [`ServeOptions::drain_ms`]), flush the flight
    /// buffer, emit the final log line, and release the port.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        if self.reactor.is_none() && self.dispatcher.is_none() {
            return; // already stopped (shutdown then drop)
        }
        let st = &self.state;
        if !st.draining.swap(true, Ordering::Relaxed) {
            obs::log::info(
                "serve",
                "draining",
                &[
                    ("queue_depth", st.queue_len.load(Ordering::Relaxed).into()),
                    (
                        "analysis_inflight",
                        st.analysis_inflight.load(Ordering::Relaxed).into(),
                    ),
                    ("connections", st.connections.load(Ordering::Relaxed).into()),
                ],
            );
        }
        // Bounded drain: wait for the queue, the workers, and the open
        // connections to finish; past the deadline, force the stop.
        let drain_deadline = Instant::now() + Duration::from_millis(st.opts.drain_ms);
        while Instant::now() < drain_deadline {
            let idle = st.queue_len.load(Ordering::Relaxed) == 0
                && st.analysis_inflight.load(Ordering::Relaxed) == 0
                && st.connections.load(Ordering::Relaxed) == 0
                && st.lock(&st.completions).is_empty();
            if idle {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        st.stop.store(true, Ordering::Relaxed);
        st.queue_cv.notify_all();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        // Flush the flight buffer (a no-op when empty) and leave one final
        // structured record of what this instance did.
        dump_flight(st, "shutdown", "-");
        obs::log::info(
            "serve",
            "shutdown complete",
            &[
                ("requests", st.requests.load(Ordering::Relaxed).into()),
                ("errors", st.errors.load(Ordering::Relaxed).into()),
                ("shed", st.sheds.load(Ordering::Relaxed).into()),
            ],
        );
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Disassemble the ELF at `path` with `cfg` on the calling thread, folding
/// the run into the service counters, the latency histogram, the flight
/// buffer, and the structured log. Shared by the batch entry points
/// (`ep` = [`EP_BATCH`]) and the dispatcher's HTTP jobs ([`EP_ANALYZE`]).
fn process_on(st: &State, path: &str, cfg: &Config, ep: usize) -> Result<RequestSummary, CliError> {
    let req_id = obs::ctx::current_raw();
    let log_mark = obs::log::seq();
    obs::log::info(
        "serve",
        "request begin",
        &[("path", Value::Str(path.to_string()))],
    );
    let started = Instant::now();
    let tl_mark = obs::timeline::mark();
    obs::timeline::begin("serve.request");
    let image = match load_image(path) {
        Ok(img) => img,
        Err(e) => {
            obs::timeline::end("serve.request");
            let elapsed_ns = started.elapsed().as_nanos() as u64;
            st.latency.record_tagged(elapsed_ns, req_id);
            note_endpoint(st, ep, elapsed_ns);
            st.errors.fetch_add(1, Ordering::Relaxed);
            obs::log::error(
                "serve",
                "request failed",
                &[
                    ("path", Value::Str(path.to_string())),
                    ("error", Value::Str(e.message.clone())),
                ],
            );
            retain_request(
                st,
                make_record(st, path, ep, "error", elapsed_ns, 0, 0, tl_mark, log_mark),
            );
            dump_flight(st, "error", path);
            return Err(e);
        }
    };
    let d = Disassembler::new(cfg.clone()).disassemble(&image);
    let summary = RequestSummary {
        text_bytes: d.trace.text_bytes,
        instructions: d.inst_starts.len() as u64,
        wall_ns: d.trace.total_wall_ns,
        degradations: d.trace.degradations.len() as u64,
    };
    st.requests.fetch_add(1, Ordering::Relaxed);
    st.text_bytes
        .fetch_add(summary.text_bytes, Ordering::Relaxed);
    st.instructions
        .fetch_add(summary.instructions, Ordering::Relaxed);
    st.wall_ns.fetch_add(summary.wall_ns, Ordering::Relaxed);
    st.degradations
        .fetch_add(summary.degradations, Ordering::Relaxed);
    st.alloc_bytes
        .fetch_add(d.trace.alloc_bytes, Ordering::Relaxed);
    st.alloc_peak
        .fetch_max(d.trace.alloc_peak, Ordering::Relaxed);
    obs::timeline::end("serve.request");
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    st.latency.record_tagged(elapsed_ns, req_id);
    note_endpoint(st, ep, elapsed_ns);
    obs::log::info(
        "serve",
        "request done",
        &[
            ("path", Value::Str(path.to_string())),
            ("instructions", summary.instructions.into()),
            ("wall_ns", summary.wall_ns.into()),
            ("degradations", summary.degradations.into()),
        ],
    );
    retain_request(
        st,
        make_record(
            st,
            path,
            ep,
            "ok",
            elapsed_ns,
            summary.instructions,
            summary.degradations,
            tl_mark,
            log_mark,
        ),
    );
    if summary.degradations > 0 {
        dump_flight(st, "degradation", path);
    }
    Ok(summary)
}

/// Assemble one [`RequestRecord`]: drain the calling thread's timeline
/// events since `mark` (each worker drains its own ring, so requests never
/// mix events), slice the structured log down to this request's lines, and
/// classify what — if anything — makes the request anomalous.
#[allow(clippy::too_many_arguments)]
fn make_record(
    st: &State,
    path: &str,
    ep: usize,
    outcome: &'static str,
    latency_ns: u64,
    instructions: u64,
    degradations: u64,
    mark: obs::timeline::Mark,
    log_mark: u64,
) -> RequestRecord {
    let req_id = obs::ctx::current_raw();
    RequestRecord {
        req_id,
        path: path.to_string(),
        endpoint: ENDPOINTS[ep],
        outcome,
        anomalies: classify_anomalies(st, outcome, latency_ns, degradations),
        latency_ns,
        instructions,
        degradations,
        events: obs::timeline::take_since(mark),
        logs: log_slice(log_mark, req_id),
    }
}

/// Why a request deserves preferential retention. Ordering is stable:
/// outcome first, then latency, then the SLO state at completion time.
fn classify_anomalies(
    st: &State,
    outcome: &'static str,
    latency_ns: u64,
    degradations: u64,
) -> Vec<&'static str> {
    let mut anomalies = Vec::new();
    match outcome {
        "error" => anomalies.push("error"),
        "shed" => anomalies.push("shed"),
        _ => {}
    }
    if degradations > 0 {
        anomalies.push("degraded");
    }
    // p99 tail: once the histogram has enough mass for the quantile to
    // mean anything, a request at or above the cumulative p99 is tail
    // latency worth keeping.
    let s = st.latency.summary();
    if s.count >= 20 && latency_ns >= s.quantile(0.99) {
        anomalies.push("p99-tail");
    }
    // SLO burn: a request that completed while an objective's fast window
    // was burning hot is evidence for the incident review.
    let burning = st
        .lock(&st.series)
        .statuses
        .iter()
        .any(|slo| slo.breached || slo.burn_fast > 1.0);
    if burning {
        anomalies.push("slo-burn");
    }
    anomalies
}

/// The structured-log lines belonging to one request: everything still in
/// the ring at or after `from` that carries the request's `req_id`. Empty
/// outside a request context (there is nothing safe to attribute).
fn log_slice(from: u64, req_id: u64) -> Vec<String> {
    if req_id == 0 {
        return Vec::new();
    }
    let tag = format!("\"req_id\":\"{req_id:016x}\"");
    obs::log::since(from)
        .into_iter()
        .filter(|line| line.contains(&tag))
        .collect()
}

/// Push one record into the flight buffer under tail-based retention:
/// when full, the oldest *routine* record is evicted first; only a buffer
/// already full of anomalies evicts its oldest anomaly. Every eviction is
/// counted (`metadis_flight_evictions_total`).
fn retain_request(st: &State, rec: RequestRecord) {
    let cap = st.opts.flight_capacity.max(1);
    let mut flight = st.lock(&st.flight);
    while flight.len() >= cap {
        let victim = flight
            .iter()
            .position(|r| !r.anomalous())
            .unwrap_or_default();
        flight.remove(victim);
        st.flight_evictions.fetch_add(1, Ordering::Relaxed);
    }
    flight.push_back(rec);
}

/// Anomaly hook: write the buffered request timelines to disk as one
/// Chrome trace and log where it went. Called on request errors, degraded
/// runs, and shutdown; failures to write are logged, never propagated —
/// the dump is diagnostic, not part of the request.
fn dump_flight(st: &State, reason: &str, path: &str) {
    let (events, requests) = {
        let flight = st.lock(&st.flight);
        let events: Vec<obs::timeline::Event> = flight
            .iter()
            .flat_map(|r| r.events.iter().copied())
            .collect();
        let requests: Vec<&str> = flight.iter().map(|r| r.path.as_str()).collect();
        (events, requests.join(","))
    };
    if events.is_empty() {
        return;
    }
    let seq = st.flight_dumps.fetch_add(1, Ordering::Relaxed);
    let out =
        std::env::temp_dir().join(format!("metadis-flight-{}-{seq}.json", std::process::id()));
    match std::fs::write(&out, obs::chrome::write_chrome_trace(&events)) {
        Ok(()) => obs::log::warn(
            "serve",
            "flight recorder dumped",
            &[
                ("reason", Value::Str(reason.to_string())),
                ("path", Value::Str(path.to_string())),
                ("dump", Value::Str(out.display().to_string())),
                ("events", (events.len() as u64).into()),
                ("requests", Value::Str(requests)),
            ],
        ),
        Err(e) => obs::log::error(
            "serve",
            "flight dump failed",
            &[
                ("dump", Value::Str(out.display().to_string())),
                ("error", Value::Str(e.to_string())),
            ],
        ),
    }
}

// ---------------------------------------------------------------------------
// Dispatcher: admission queue -> worker pool
// ---------------------------------------------------------------------------

/// Pop queued jobs in batches and fan each batch out over the bounded
/// worker pool, pushing prebuilt HTTP responses to the completion list the
/// reactor polls. Runs until `stop`; the graceful-drain window (draining
/// set, stop not yet) keeps processing so in-flight clients get answers.
fn run_dispatcher(st: &Arc<State>, cfg: Config) {
    let threads = cfg.threads.max(1);
    loop {
        let batch: Vec<Job> = {
            let mut q = st.lock(&st.queue);
            while q.is_empty() {
                if st.stop.load(Ordering::Relaxed) {
                    return;
                }
                let (guard, _) = st
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(20))
                    .unwrap_or_else(|poisoned| {
                        st.lock_poisoned.fetch_add(1, Ordering::Relaxed);
                        poisoned.into_inner()
                    });
                q = guard;
            }
            let n = q.len().min(threads);
            let batch: Vec<Job> = q.drain(..n).collect();
            st.queue_len.store(q.len() as u64, Ordering::Relaxed);
            batch
        };
        st.analysis_inflight
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let responses = disasm_core::par::run_jobs("serve.queue", batch.len(), threads, |i| {
            handle_job(st, &batch[i], &cfg)
        });
        {
            let mut done = st.lock(&st.completions);
            for (job, resp) in batch.iter().zip(responses) {
                done.push((job.conn, resp));
            }
        }
        st.analysis_inflight
            .fetch_sub(batch.len() as u64, Ordering::Relaxed);
    }
}

/// Run one admitted job on a worker: account the queue wait, shed if the
/// client's deadline is already spent, otherwise analyze under the
/// *remaining* deadline budget and render the HTTP response.
fn handle_job(st: &State, job: &Job, cfg: &Config) -> Vec<u8> {
    // Re-enter the request's correlation scope on the worker: the job was
    // minted on the reactor, the analysis happens here, and both must
    // stamp the same id on logs, events, and exemplars.
    let _ctx = obs::ctx::scope(job.req_id);
    let waited_ns = job.queued.elapsed().as_nanos() as u64;
    st.queue_wait.record_tagged(waited_ns, job.req_id.raw());
    if job.deadline.exceeded() {
        note_endpoint(st, EP_ANALYZE, waited_ns);
        return shed(st, "deadline", &job.path, EP_ANALYZE);
    }
    let remaining_ns = job.deadline.remaining_ns();
    let result = if remaining_ns == u64::MAX {
        process_on(st, &job.path, cfg, EP_ANALYZE)
    } else {
        // Queue wait spent part of the client's budget; the analysis gets
        // only what is left (floored at 1ms so the run degrades through
        // the normal Limits machinery instead of being rejected here).
        let remaining_ms = (remaining_ns / 1_000_000).max(1);
        let mut scoped = cfg.clone();
        scoped.limits.deadline_ms = Some(match scoped.limits.deadline_ms {
            Some(ms) => ms.min(remaining_ms),
            None => remaining_ms,
        });
        process_on(st, &job.path, &scoped, EP_ANALYZE)
    };
    match result {
        Ok(s) => {
            let mut w = obs::json::JsonWriter::new();
            w.begin_obj();
            w.field_str("path", &job.path);
            w.field_u64("instructions", s.instructions);
            w.field_u64("text_bytes", s.text_bytes);
            w.field_u64("wall_ns", s.wall_ns);
            w.field_u64("degradations", s.degradations);
            w.field_u64("queue_wait_ns", waited_ns);
            w.end_obj();
            respond("200 OK", "application/json", &w.finish())
        }
        Err(e) => respond(
            "422 Unprocessable Entity",
            "application/json",
            &error_body(&e.message, e.category.name()),
        ),
    }
}

/// Build an HTTP response that echoes the request-correlation id: when a
/// request scope is active, the `X-Metadis-Request-Id` header carries the
/// same id stamped on the request's logs, events, and exemplars — the
/// client-side end of the correlation chain. Outside a scope this is
/// plain [`http::respond`].
fn respond(status: &str, content_type: &str, body: &str) -> Vec<u8> {
    match obs::ctx::current() {
        Some(id) => http::respond_with(
            status,
            content_type,
            &[("X-Metadis-Request-Id", &id.to_string())],
            body,
        ),
        None => http::respond(status, content_type, body),
    }
}

// ---------------------------------------------------------------------------
// Reactor: nonblocking accept/read/route/write event loop
// ---------------------------------------------------------------------------

/// What phase of its one-request lifecycle a connection is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Reading and incrementally parsing the request.
    Reading,
    /// Admitted to the queue; waiting for a worker's completion.
    Waiting,
    /// Writing the response; closed when fully written.
    Writing,
}

/// One nonblocking client connection.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    out: Vec<u8>,
    written: usize,
    state: ConnState,
    deadline: Deadline,
    /// Correlation id minted at accept time; replaced by a valid
    /// client-supplied `X-Metadis-Request-Id` once the request parses.
    req_id: RequestId,
}

impl Conn {
    fn new(stream: TcpStream, deadline: Deadline) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(),
            out: Vec::new(),
            written: 0,
            state: ConnState::Reading,
            deadline,
            req_id: RequestId::mint(),
        }
    }

    fn start_write(&mut self, response: Vec<u8>) {
        self.out = response;
        self.written = 0;
        self.state = ConnState::Writing;
    }
}

/// The readiness-polling event loop: accept within the connection cap,
/// drive every connection's incremental read/parse/route/write state
/// machine, deliver worker completions, and shed what cannot be admitted.
/// Single-threaded — per-connection state needs no locks — and strictly
/// nonblocking, so no client can stall another.
fn run_reactor(listener: TcpListener, st: &Arc<State>) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 0;
    let client_budget_ns = match st.opts.client_deadline_ms {
        0 => u64::MAX,
        ms => ms.saturating_mul(1_000_000),
    };
    let series_tick =
        (st.opts.series_interval_ms > 0).then(|| Duration::from_millis(st.opts.series_interval_ms));
    let mut last_sample = Instant::now();
    while !st.stop.load(Ordering::Relaxed) {
        let mut progressed = false;
        // Series sampler: snapshot the counters into the history ring and
        // re-evaluate the SLOs on the configured tick. Runs on the reactor
        // thread (resolution bounded by the 1ms idle sleep), so the
        // request path pays nothing for it.
        if let Some(tick) = series_tick {
            if last_sample.elapsed() >= tick {
                sample_series(st);
                last_sample = Instant::now();
            }
        }
        // Accept — up to the connection cap; beyond it (or while
        // draining), answer a structured 503 best-effort and close.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    progressed = true;
                    if st.draining.load(Ordering::Relaxed) {
                        refuse(st, stream, "draining");
                    } else if conns.len() >= st.opts.max_inflight {
                        st.shed_connections.fetch_add(1, Ordering::Relaxed);
                        refuse(st, stream, "connections");
                    } else if stream.set_nonblocking(true).is_ok() {
                        conns.insert(
                            next_id,
                            Conn::new(stream, Deadline::with_budget_ns(client_budget_ns)),
                        );
                        next_id += 1;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break, // transient accept failure; retry next tick
            }
        }
        // Deliver completed analyses to their waiting connections before
        // driving the write side, so responses go out this tick.
        {
            let mut done = st.lock(&st.completions);
            for (id, resp) in done.drain(..) {
                if let Some(c) = conns.get_mut(&id) {
                    if c.state == ConnState::Waiting {
                        c.start_write(resp);
                        progressed = true;
                    }
                }
            }
        }
        // Drive every connection's state machine.
        let ids: Vec<u64> = conns.keys().copied().collect();
        for id in ids {
            let remove = {
                let c = conns.get_mut(&id).expect("id collected above");
                drive_conn(st, id, c, &mut progressed)
            };
            if remove {
                conns.remove(&id);
            }
        }
        st.connections.store(conns.len() as u64, Ordering::Relaxed);
        if st.draining.load(Ordering::Relaxed)
            && conns.is_empty()
            && st.queue_len.load(Ordering::Relaxed) == 0
            && st.analysis_inflight.load(Ordering::Relaxed) == 0
        {
            break; // drained clean — nothing left to answer
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // Forced exit: remaining connections close on drop.
    st.connections.store(0, Ordering::Relaxed);
}

/// Answer a connection we will not hold (cap hit or draining) with a
/// structured 503, best-effort and nonblocking, then close it.
fn refuse(st: &State, stream: TcpStream, reason: &'static str) {
    // Even a refused connection gets a correlation id: the 503 body and
    // header match the shed's log line and retained record.
    let _ctx = obs::ctx::scope(RequestId::mint());
    let body = shed(st, reason, "pre-admission", EP_OTHER);
    if stream.set_nonblocking(true).is_ok() {
        let mut s = stream;
        let _ = s.write(&body);
    }
}

/// Advance one connection. Returns `true` when the connection is finished
/// (response fully written, peer gone, or write deadline blown) and should
/// be dropped.
fn drive_conn(st: &Arc<State>, id: u64, c: &mut Conn, progressed: &mut bool) -> bool {
    // Everything the reactor does on this connection's behalf — parse
    // warnings, sheds, routing — logs and records under its request id.
    let _ctx = obs::ctx::scope(c.req_id);
    if c.state == ConnState::Reading {
        let mut buf = [0u8; 4096];
        loop {
            match c.stream.read(&mut buf) {
                Ok(0) => {
                    st.disconnects.fetch_add(1, Ordering::Relaxed);
                    return true; // peer closed mid-request
                }
                Ok(n) => {
                    *progressed = true;
                    match c.parser.feed(&buf[..n]) {
                        Ok(Some(req)) => {
                            route(st, id, c, &req);
                            break;
                        }
                        Ok(None) => {} // keep reading
                        Err(pe) => {
                            st.bad_requests.fetch_add(1, Ordering::Relaxed);
                            obs::log::warn(
                                "serve",
                                "bad request",
                                &[
                                    ("reason", pe.reason().into()),
                                    ("buffered", (c.parser.buffered() as u64).into()),
                                ],
                            );
                            c.start_write(respond(
                                pe.status(),
                                "application/json",
                                &error_body(pe.reason(), "parse"),
                            ));
                            break;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    st.disconnects.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
            }
        }
        // Slowloris guard: a client that cannot finish its request within
        // its deadline is shed, freeing the slot.
        if c.state == ConnState::Reading && c.deadline.exceeded() {
            let body = shed(st, "deadline", "read", EP_OTHER);
            c.start_write(body);
        }
    }
    if c.state == ConnState::Writing {
        loop {
            match c.stream.write(&c.out[c.written..]) {
                Ok(0) => return true,
                Ok(n) => {
                    *progressed = true;
                    c.written += n;
                    if c.written == c.out.len() {
                        return true; // Connection: close — done
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return c.deadline.exceeded(); // give up only past deadline
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
    }
    false
}

/// Route one complete request: observability endpoints answer inline;
/// `/analyze` goes through admission control.
fn route(st: &Arc<State>, id: u64, c: &mut Conn, req: &http::Request) {
    st.http_requests.fetch_add(1, Ordering::Relaxed);
    // Honor a client-supplied correlation id (distributed callers thread
    // one id through a whole fan-out); otherwise keep the accept-time
    // mint. Either way the id governs every log line, event, exemplar,
    // and the response header from here on.
    //
    // Trust model: supplied ids are taken at face value — no uniqueness
    // check against retained records. A client that deliberately reuses
    // another request's id can shadow that request's forensic bundle
    // (`render_request_bundle` resolves duplicates newest-wins) and
    // pollute its log/exemplar correlation. The debug surface therefore
    // assumes callers are trusted operators/peers, the same assumption
    // `/debug/*` already makes; deploy behind the same boundary.
    if let Some(supplied) = req.header("X-Metadis-Request-Id") {
        if let Some(rid) = RequestId::parse(supplied) {
            c.req_id = rid;
        }
    }
    let _ctx = obs::ctx::scope(c.req_id);
    let ep = endpoint_index(req.path());
    let sw = obs::Stopwatch::start();
    let method = req.method.as_str();
    if method != "GET" && method != "POST" {
        c.start_write(respond(
            "405 Method Not Allowed",
            "application/json",
            &error_body("method not allowed", "usage"),
        ));
        note_endpoint(st, ep, sw.elapsed_ns());
        return;
    }
    match req.path() {
        "/metrics" => {
            // Content negotiation: exemplars are only legal in the
            // OpenMetrics exposition, so the legacy version=0.0.4 text
            // (which a plain parser reads as "value then optional
            // timestamp") must never carry them or the whole scrape
            // becomes unparsable.
            let om = accepts_openmetrics(req.header("Accept"));
            let body = render_prometheus(st, om);
            let content_type = if om {
                OPENMETRICS_CONTENT_TYPE
            } else {
                PROM_TEXT_CONTENT_TYPE
            };
            c.start_write(respond("200 OK", content_type, &body));
            note_endpoint(st, ep, sw.elapsed_ns());
        }
        "/debug/timeline" => {
            let body = render_timeline(st);
            c.start_write(respond("200 OK", "application/json", &body));
            note_endpoint(st, ep, sw.elapsed_ns());
        }
        "/debug/metrics/history" => {
            let body = render_history(st);
            c.start_write(respond("200 OK", "application/json", &body));
            note_endpoint(st, ep, sw.elapsed_ns());
        }
        "/debug/requests" => {
            let body = render_requests_index(st);
            c.start_write(respond("200 OK", "application/json", &body));
            note_endpoint(st, ep, sw.elapsed_ns());
        }
        path if path.starts_with("/debug/requests/") => {
            let wanted = path
                .strip_prefix("/debug/requests/")
                .and_then(RequestId::parse);
            let bundle = wanted.and_then(|rid| render_request_bundle(st, rid));
            match bundle {
                Some(body) => c.start_write(respond("200 OK", "application/json", &body)),
                None => c.start_write(respond(
                    "404 Not Found",
                    "application/json",
                    &error_body("no retained record for that request id", "usage"),
                )),
            }
            note_endpoint(st, ep, sw.elapsed_ns());
        }
        "/healthz" => {
            let (ready, body) = readiness(st);
            let status = if ready {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            let content_type = if ready {
                "text/plain"
            } else {
                "application/json"
            };
            c.start_write(respond(status, content_type, &body));
            note_endpoint(st, ep, sw.elapsed_ns());
        }
        "/analyze" => {
            let path = req.query_param("path").map(str::to_string).or_else(|| {
                let s = String::from_utf8_lossy(&req.body).trim().to_string();
                (!s.is_empty()).then_some(s)
            });
            let Some(path) = path else {
                st.bad_requests.fetch_add(1, Ordering::Relaxed);
                c.start_write(respond(
                    "400 Bad Request",
                    "application/json",
                    &error_body("missing ELF path ('?path=' or request body)", "usage"),
                ));
                note_endpoint(st, ep, sw.elapsed_ns());
                return;
            };
            if st.draining.load(Ordering::Relaxed) {
                let body = shed(st, "draining", &path, ep);
                c.start_write(body);
                note_endpoint(st, ep, sw.elapsed_ns());
                return;
            }
            let mut q = st.lock(&st.queue);
            if q.len() >= st.opts.queue_depth {
                drop(q);
                st.shed_queue.fetch_add(1, Ordering::Relaxed);
                let body = shed(st, "queue-full", &path, ep);
                c.start_write(body);
                note_endpoint(st, ep, sw.elapsed_ns());
            } else {
                q.push_back(Job {
                    conn: id,
                    req_id: c.req_id,
                    path,
                    deadline: c.deadline,
                    queued: Instant::now(),
                });
                st.queue_len.store(q.len() as u64, Ordering::Relaxed);
                drop(q);
                st.queue_cv.notify_one();
                // Admitted: the endpoint is accounted when the worker
                // answers (`handle_job` / `process_on`), with the same
                // load+analysis latency the overall summary records.
                c.state = ConnState::Waiting;
            }
        }
        _ => {
            c.start_write(respond(
                "404 Not Found",
                "application/json",
                &error_body("not found", "usage"),
            ));
            note_endpoint(st, ep, sw.elapsed_ns());
        }
    }
}

/// Account one shed and render its structured 503 body. Every shed — queue
/// full, connection cap, deadline spent, draining — funnels through here,
/// so the counter, the warn log event, and the timeline instant always
/// agree.
fn shed(st: &State, reason: &'static str, detail: &str, ep: usize) -> Vec<u8> {
    st.sheds.fetch_add(1, Ordering::Relaxed);
    if reason == "deadline" {
        st.shed_deadline.fetch_add(1, Ordering::Relaxed);
    }
    let log_mark = obs::log::seq();
    let tl_mark = obs::timeline::mark();
    obs::timeline::instant("serve.shed", 0);
    obs::log::warn(
        "serve",
        "request shed",
        &[
            ("category", "overload".into()),
            ("reason", reason.into()),
            ("detail", Value::Str(detail.to_string())),
            ("queue_depth", st.queue_len.load(Ordering::Relaxed).into()),
            ("shed_total", st.sheds.load(Ordering::Relaxed).into()),
        ],
    );
    // Sheds are anomalies by definition: retain the evidence (the warn
    // line and the shed instant) under the request's id so the 503 a
    // client holds resolves to a server-side record.
    if obs::ctx::current().is_some() {
        retain_request(
            st,
            make_record(st, detail, ep, "shed", 0, 0, 0, tl_mark, log_mark),
        );
    }
    let mut w = obs::json::JsonWriter::new();
    w.begin_obj();
    w.field_str("error", "server overloaded");
    w.field_str("category", "overload");
    w.field_str("reason", reason);
    w.field_u64("queue_depth", st.queue_len.load(Ordering::Relaxed));
    w.field_u64("queue_cap", st.opts.queue_depth as u64);
    w.field_u64("inflight", st.analysis_inflight.load(Ordering::Relaxed));
    w.field_u64("shed_total", st.sheds.load(Ordering::Relaxed));
    w.end_obj();
    respond("503 Service Unavailable", "application/json", &w.finish())
}

/// A small structured error body: `{"error": ..., "category": ...}`.
fn error_body(msg: &str, category: &str) -> String {
    let mut w = obs::json::JsonWriter::new();
    w.begin_obj();
    w.field_str("error", msg);
    w.field_str("category", category);
    w.end_obj();
    w.finish()
}

/// Readiness decision for `/healthz`: `ok` while work can be admitted;
/// otherwise a JSON body a load balancer (or operator) can read the
/// saturation off of.
fn readiness(st: &State) -> (bool, String) {
    let queue_len = st.queue_len.load(Ordering::Relaxed);
    let draining = st.draining.load(Ordering::Relaxed);
    let saturated = queue_len >= st.opts.queue_depth as u64;
    if !draining && !saturated {
        return (true, "ok\n".to_string());
    }
    let mut w = obs::json::JsonWriter::new();
    w.begin_obj();
    w.field_str("status", if draining { "draining" } else { "overloaded" });
    w.field_u64("queue_depth", queue_len);
    w.field_u64("queue_cap", st.opts.queue_depth as u64);
    w.field_u64("inflight", st.analysis_inflight.load(Ordering::Relaxed));
    w.field_u64("connections", st.connections.load(Ordering::Relaxed));
    w.field_u64("shed_total", st.sheds.load(Ordering::Relaxed));
    // SLO detail: which objectives are burning while the instance is
    // unready, so an operator can tell saturation from a budget incident.
    w.key("slo");
    w.begin_arr();
    for s in &st.lock(&st.series).statuses {
        s.write_json(&mut w);
    }
    w.end_arr();
    w.end_obj();
    (false, w.finish())
}

/// Concatenate the flight buffer's events, oldest request first. Events
/// carry absolute timestamps from a shared origin, so the concatenation
/// renders as one coherent Chrome trace.
fn buffered_events(st: &State) -> Vec<obs::timeline::Event> {
    let flight = st.lock(&st.flight);
    flight
        .iter()
        .flat_map(|r| r.events.iter().copied())
        .collect()
}

/// Chrome trace-event JSON of the current flight buffer, for
/// `/debug/timeline`.
fn render_timeline(st: &State) -> String {
    obs::chrome::write_chrome_trace(&buffered_events(st))
}

/// Index of the retained forensic records for `GET /debug/requests`:
/// newest last, one summary line per record, plus the buffer's capacity
/// and how many records eviction has sacrificed so far.
fn render_requests_index(st: &State) -> String {
    let mut w = obs::json::JsonWriter::new();
    w.begin_obj();
    w.key("retained");
    w.begin_arr();
    {
        let flight = st.lock(&st.flight);
        for r in flight.iter() {
            w.begin_obj();
            w.field_str("req_id", &format!("{:016x}", r.req_id));
            w.field_str("path", &r.path);
            w.field_str("endpoint", r.endpoint);
            w.field_str("outcome", r.outcome);
            w.key("anomalies");
            w.begin_arr();
            for a in &r.anomalies {
                w.str_val(a);
            }
            w.end_arr();
            w.field_u64("latency_ns", r.latency_ns);
            w.end_obj();
        }
    }
    w.end_arr();
    w.field_u64("capacity", st.opts.flight_capacity.max(1) as u64);
    w.field_u64("evictions", st.flight_evictions.load(Ordering::Relaxed));
    w.end_obj();
    w.finish()
}

/// The `metadis.request.v1` bundle for one retained request id, or `None`
/// when nothing with that id is retained. When a client reused one id
/// across requests, the newest record wins (it is the one the client's
/// latest response pointed at).
fn render_request_bundle(st: &State, rid: RequestId) -> Option<String> {
    let rec = {
        let flight = st.lock(&st.flight);
        flight.iter().rev().find(|r| r.req_id == rid.raw()).cloned()
    }?;
    Some(write_request_bundle(&rec))
}

/// Serialize one [`RequestRecord`] as a `metadis.request.v1` document —
/// the per-request forensic bundle: identity and outcome, a trace summary
/// (event/span counts, request wall span), the full timeline slice as an
/// embedded Chrome trace, and the correlated `metadis.log.v2` lines
/// spliced verbatim. Pure in the record, so the encoding is golden-pinned.
pub fn write_request_bundle(rec: &RequestRecord) -> String {
    let mut w = obs::json::JsonWriter::new();
    w.begin_obj();
    w.field_str("schema", REQUEST_SCHEMA);
    w.field_str("req_id", &format!("{:016x}", rec.req_id));
    w.field_str("path", &rec.path);
    w.field_str("endpoint", rec.endpoint);
    w.field_str("outcome", rec.outcome);
    w.key("anomalies");
    w.begin_arr();
    for a in &rec.anomalies {
        w.str_val(a);
    }
    w.end_arr();
    w.field_u64("latency_ns", rec.latency_ns);
    w.field_u64("instructions", rec.instructions);
    w.field_u64("degradations", rec.degradations);
    w.key("trace");
    w.begin_obj();
    w.field_u64("events", rec.events.len() as u64);
    w.field_u64(
        "spans",
        rec.events
            .iter()
            .filter(|e| e.kind == obs::timeline::EventKind::Begin)
            .count() as u64,
    );
    let first = rec.events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
    let last = rec.events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
    w.field_u64("wall_ns", last.saturating_sub(first));
    w.end_obj();
    w.key("timeline");
    w.raw_val(&obs::chrome::write_chrome_trace(&rec.events));
    w.key("logs");
    w.begin_arr();
    for line in &rec.logs {
        w.raw_val(line);
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

fn render_prometheus(st: &State, openmetrics: bool) -> String {
    let mut out = String::with_capacity(4096);
    // Per-endpoint request counter: every answered request, labeled by
    // what it hit ("batch" = the serve command's stdin/file/watch path).
    family_head(
        &mut out,
        "metadis_requests_total",
        "counter",
        "Requests answered, by endpoint.",
        openmetrics,
    );
    for (i, ep) in ENDPOINTS.iter().enumerate() {
        out.push_str(&format!(
            "metadis_requests_total{{endpoint=\"{ep}\"}} {}\n",
            st.endpoint_requests[i].load(Ordering::Relaxed)
        ));
    }
    let mut metric = |name: &str, kind: &str, help: &str, value: u64| {
        family_head(&mut out, name, kind, help, openmetrics);
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    };
    metric(
        "metadis_request_errors_total",
        "counter",
        "Requests that failed before analysis (unreadable or unparsable input).",
        st.errors.load(Ordering::Relaxed),
    );
    metric(
        "metadis_requests_shed_total",
        "counter",
        "Requests shed by admission control (queue full, connection cap, deadline, draining).",
        st.sheds.load(Ordering::Relaxed),
    );
    metric(
        "metadis_requests_shed_queue_total",
        "counter",
        "Requests shed because the admission queue was full.",
        st.shed_queue.load(Ordering::Relaxed),
    );
    metric(
        "metadis_requests_shed_deadline_total",
        "counter",
        "Requests shed because the client deadline was spent before analysis.",
        st.shed_deadline.load(Ordering::Relaxed),
    );
    metric(
        "metadis_requests_shed_connections_total",
        "counter",
        "Connections refused at the connection cap.",
        st.shed_connections.load(Ordering::Relaxed),
    );
    metric(
        "metadis_http_bad_requests_total",
        "counter",
        "Malformed or oversized HTTP requests rejected by the framing layer.",
        st.bad_requests.load(Ordering::Relaxed),
    );
    metric(
        "metadis_client_disconnects_total",
        "counter",
        "Clients that disconnected before their request completed.",
        st.disconnects.load(Ordering::Relaxed),
    );
    metric(
        "metadis_connections",
        "gauge",
        "Client connections currently held by the reactor.",
        st.connections.load(Ordering::Relaxed),
    );
    metric(
        "metadis_queue_depth",
        "gauge",
        "Admitted requests currently waiting for a worker.",
        st.queue_len.load(Ordering::Relaxed),
    );
    metric(
        "metadis_analysis_inflight",
        "gauge",
        "Requests currently being analyzed by the worker pool.",
        st.analysis_inflight.load(Ordering::Relaxed),
    );
    metric(
        "metadis_text_bytes_total",
        "counter",
        "Text bytes disassembled across all requests.",
        st.text_bytes.load(Ordering::Relaxed),
    );
    metric(
        "metadis_instructions_total",
        "counter",
        "Instructions accepted across all requests.",
        st.instructions.load(Ordering::Relaxed),
    );
    metric(
        "metadis_pipeline_wall_ns_total",
        "counter",
        "Pipeline wall time across all requests, nanoseconds.",
        st.wall_ns.load(Ordering::Relaxed),
    );
    metric(
        "metadis_degradations_total",
        "counter",
        "Budget hits recorded across all requests.",
        st.degradations.load(Ordering::Relaxed),
    );
    metric(
        "metadis_alloc_bytes_total",
        "counter",
        "Heap bytes allocated by requests (0 unless allocation accounting is active).",
        st.alloc_bytes.load(Ordering::Relaxed),
    );
    metric(
        "metadis_alloc_peak_bytes",
        "gauge",
        "Largest single-request live-heap high-water mark, bytes.",
        st.alloc_peak.load(Ordering::Relaxed),
    );
    metric(
        "metadis_log_warns_total",
        "counter",
        "Warn-level log records since process start.",
        obs::log::warn_count(),
    );
    metric(
        "metadis_log_errors_total",
        "counter",
        "Error-level log records since process start.",
        obs::log::error_count(),
    );
    metric(
        "metadis_http_requests_total",
        "counter",
        "HTTP requests answered by the exposition endpoint.",
        st.http_requests.load(Ordering::Relaxed),
    );
    metric(
        "metadis_lock_poisoned_total",
        "counter",
        "Reactor-shared mutexes recovered from poisoning (a worker panicked while holding one).",
        st.lock_poisoned.load(Ordering::Relaxed),
    );
    metric(
        "metadis_flight_occupancy",
        "gauge",
        "Forensic request records currently retained in the flight buffer.",
        st.lock(&st.flight).len() as u64,
    );
    metric(
        "metadis_flight_capacity",
        "gauge",
        "Configured flight-buffer capacity (--flight-capacity).",
        st.opts.flight_capacity.max(1) as u64,
    );
    metric(
        "metadis_flight_evictions_total",
        "counter",
        "Request records evicted from the flight buffer (routine records first).",
        st.flight_evictions.load(Ordering::Relaxed),
    );
    metric("metadis_up", "gauge", "1 while the server is running.", 1);
    // Build identity: lets scrapes correlate metric shape with the
    // running build and its schema tags. (Direct pushes from here on —
    // after the `metric` closure's last call so they can reuse `out`.)
    out.push_str(&format!(
        "# HELP metadis_build_info Build and schema identity; value is always 1.\n\
         # TYPE metadis_build_info gauge\n\
         metadis_build_info{{version=\"{}\",trace_schema=\"{}\",log_schema=\"{}\"}} 1\n",
        env!("CARGO_PKG_VERSION"),
        disasm_core::trace::SCHEMA,
        obs::log::SCHEMA,
    ));
    // SLO burn gauges from the latest sampler evaluation. With the
    // sampler disabled (or before its first tick) the families are
    // declared but carry no series.
    let statuses = st.lock(&st.series).statuses.clone();
    out.push_str(
        "# HELP metadis_slo_burn_rate Error-budget burn rate per objective and window; 1.0 burns exactly the budget.\n# TYPE metadis_slo_burn_rate gauge\n",
    );
    for s in &statuses {
        for (window, burn) in [("fast", s.burn_fast), ("slow", s.burn_slow)] {
            out.push_str(&format!(
                "metadis_slo_burn_rate{{objective=\"{}\",window=\"{window}\"}} {burn}\n",
                s.objective
            ));
        }
    }
    out.push_str(
        "# HELP metadis_slo_breached 1 while both burn windows of the objective exceed the threshold.\n# TYPE metadis_slo_breached gauge\n",
    );
    for s in &statuses {
        out.push_str(&format!(
            "metadis_slo_breached{{objective=\"{}\"}} {}\n",
            s.objective,
            u64::from(s.breached)
        ));
    }
    // Latency summaries: bucket-resolution quantiles from the log2
    // histograms, plus the exact sum/count pairs scrapers use to derive
    // rates and means. The request summary is labeled by endpoint.
    out.push_str(
        "# HELP metadis_request_latency_ns Per-request service latency by endpoint (analysis endpoints: load + pipeline), nanoseconds.\n# TYPE metadis_request_latency_ns summary\n",
    );
    for (i, ep) in ENDPOINTS.iter().enumerate() {
        let s = st.endpoint_latency[i].summary();
        for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
            out.push_str(&format!(
                "metadis_request_latency_ns{{endpoint=\"{ep}\",quantile=\"{label}\"}} {}\n",
                s.quantile(q)
            ));
        }
        out.push_str(&format!(
            "metadis_request_latency_ns_sum{{endpoint=\"{ep}\"}} {}\n",
            s.sum
        ));
        out.push_str(&format!(
            "metadis_request_latency_ns_count{{endpoint=\"{ep}\"}} {}\n",
            s.count
        ));
    }
    let s = st.queue_wait.summary();
    out.push_str(
        "# HELP metadis_queue_wait_ns Time admitted requests spent queued before a worker started them, nanoseconds.\n# TYPE metadis_queue_wait_ns summary\n",
    );
    for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
        out.push_str(&format!(
            "metadis_queue_wait_ns{{quantile=\"{label}\"}} {}\n",
            s.quantile(q)
        ));
    }
    out.push_str(&format!("metadis_queue_wait_ns_sum {}\n", s.sum));
    out.push_str(&format!("metadis_queue_wait_ns_count {}\n", s.count));
    // Full log2 histograms. Only the OpenMetrics exposition may carry
    // exemplars — each populated bucket line then gets a
    // `# {req_id="…"} value` suffix (the last correlated request that
    // landed there) so a dashboard can jump from a latency spike straight
    // to `/debug/requests/<id>`. The legacy text format has no exemplar
    // grammar; emitting the suffix there breaks the whole scrape.
    write_histogram(
        &mut out,
        "metadis_request_latency_histogram_ns",
        "Per-request service latency, log2 buckets with request-id exemplars.",
        &st.latency,
        openmetrics,
    );
    write_histogram(
        &mut out,
        "metadis_queue_wait_histogram_ns",
        "Queue wait before a worker started the request, log2 buckets with request-id exemplars.",
        &st.queue_wait,
        openmetrics,
    );
    if openmetrics {
        // OpenMetrics requires the exposition to end with an EOF marker.
        out.push_str("# EOF\n");
    }
    out
}

/// `text/plain; version=0.0.4` content type of the legacy Prometheus text
/// exposition: no exemplars, no `# EOF` trailer.
const PROM_TEXT_CONTENT_TYPE: &str = "text/plain; version=0.0.4";
/// OpenMetrics exposition content type: histogram buckets carry exemplar
/// suffixes and the body ends with `# EOF`.
const OPENMETRICS_CONTENT_TYPE: &str = "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// Whether an `Accept` header asks for the OpenMetrics exposition.
/// Prometheus ≥ 2.5 scrapers (and [`http::fetch`]) send
/// `application/openmetrics-text` with the legacy type as a fallback;
/// a bare `curl` sends nothing and gets the legacy text.
fn accepts_openmetrics(accept: Option<&str>) -> bool {
    accept.is_some_and(|a| {
        a.to_ascii_lowercase()
            .contains("application/openmetrics-text")
    })
}

/// Write one family's `# HELP` / `# TYPE` head. OpenMetrics names a
/// counter family *without* the `_total` suffix its sample lines carry
/// (`# TYPE x counter` + `x_total … 1`); the legacy format declares the
/// sample name verbatim.
fn family_head(out: &mut String, name: &str, kind: &str, help: &str, openmetrics: bool) {
    let declared = if openmetrics && kind == "counter" {
        name.strip_suffix("_total").unwrap_or(name)
    } else {
        name
    };
    out.push_str(&format!(
        "# HELP {declared} {help}\n# TYPE {declared} {kind}\n"
    ));
}

/// Render one histogram family: cumulative `_bucket{le=…}` lines (sparse
/// — only populated buckets plus `+Inf`), `_sum`, `_count`. In OpenMetrics
/// mode every bucket that has recorded a correlated request gets an
/// exemplar suffix.
fn write_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    h: &obs::Histogram,
    openmetrics: bool,
) {
    let s = h.summary();
    let exemplars = h.exemplars();
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for &(b, c) in &s.buckets {
        cumulative += c;
        let le = obs::metrics::bucket_bound(b as usize);
        let suffix = if openmetrics {
            exemplars
                .iter()
                .find(|&&(eb, _, _)| eb == b)
                .map(|&(_, tag, v)| format!(" # {{req_id=\"{tag:016x}\"}} {v}"))
                .unwrap_or_default()
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{name}_bucket{{le=\"{le}\"}} {cumulative}{suffix}\n"
        ));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", s.count));
    out.push_str(&format!("{name}_sum {}\n", s.sum));
    out.push_str(&format!("{name}_count {}\n", s.count));
}

/// Fetch `path` from the server at `addr` over a fresh connection and
/// return the response body. Errors on connection failure or a non-200
/// status line. Thin alias over [`http::fetch`] — `scrape` and `top`
/// share that one client path.
pub fn scrape(addr: &str, path: &str) -> std::io::Result<String> {
    http::fetch(addr, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_elf(dir: &std::path::Path, name: &str, seed: u64) -> String {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(name);
        let workload = bingen::Workload::generate(&bingen::GenConfig::small(seed));
        std::fs::write(&path, workload.to_elf().to_bytes()).unwrap();
        path.to_str().unwrap().to_string()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("metadis-serve-unit-{tag}-{}", std::process::id()))
    }

    #[test]
    fn metrics_render_all_families() {
        let st = State::default();
        st.endpoint_requests[EP_BATCH].store(3, Ordering::Relaxed);
        st.alloc_peak.store(4096, Ordering::Relaxed);
        st.sheds.store(2, Ordering::Relaxed);
        let text = render_prometheus(&st, false);
        for family in [
            "metadis_requests_total{endpoint=\"batch\"} 3",
            "metadis_requests_total{endpoint=\"/analyze\"} 0",
            "metadis_requests_total{endpoint=\"/metrics\"} 0",
            "metadis_request_errors_total 0",
            "metadis_requests_shed_total 2",
            "metadis_requests_shed_queue_total 0",
            "metadis_requests_shed_deadline_total 0",
            "metadis_requests_shed_connections_total 0",
            "metadis_http_bad_requests_total 0",
            "metadis_client_disconnects_total 0",
            "metadis_connections 0",
            "metadis_queue_depth 0",
            "metadis_analysis_inflight 0",
            "metadis_text_bytes_total",
            "metadis_instructions_total",
            "metadis_pipeline_wall_ns_total",
            "metadis_degradations_total",
            "metadis_alloc_bytes_total",
            "metadis_alloc_peak_bytes 4096",
            "metadis_build_info{version=\"",
            "trace_schema=\"metadis.trace.v7\"",
            "log_schema=\"metadis.log.v2\"} 1",
            "metadis_lock_poisoned_total 0",
            "metadis_flight_occupancy 0",
            "metadis_flight_capacity 8",
            "metadis_flight_evictions_total 0",
            "# TYPE metadis_request_latency_histogram_ns histogram",
            "metadis_request_latency_histogram_ns_bucket{le=\"+Inf\"} 0",
            "# TYPE metadis_queue_wait_histogram_ns histogram",
            "metadis_queue_wait_histogram_ns_count 0",
            "# TYPE metadis_slo_burn_rate gauge",
            "# TYPE metadis_slo_breached gauge",
            "metadis_request_latency_ns{endpoint=\"/analyze\",quantile=\"0.5\"} 0",
            "metadis_request_latency_ns{endpoint=\"batch\",quantile=\"0.99\"} 0",
            "metadis_request_latency_ns_sum{endpoint=\"/analyze\"} 0",
            "metadis_request_latency_ns_count{endpoint=\"batch\"} 0",
            "metadis_queue_wait_ns{quantile=\"0.5\"} 0",
            "metadis_queue_wait_ns_sum 0",
            "metadis_log_warns_total",
            "metadis_log_errors_total",
            "metadis_up 1",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        // every family carries HELP and TYPE lines
        assert_eq!(
            text.matches("# HELP ").count(),
            text.matches("# TYPE ").count()
        );
    }

    #[test]
    fn latency_summary_reports_quantiles() {
        let st = State::default();
        for v in [100u64, 200, 300, 400, 100_000] {
            st.endpoint_latency[EP_BATCH].record(v);
        }
        let text = render_prometheus(&st, false);
        let line = |needle: &str| {
            text.lines()
                .find(|l| l.starts_with(needle))
                .unwrap_or_else(|| panic!("no line starting with {needle} in:\n{text}"))
                .to_string()
        };
        assert_eq!(
            line("metadis_request_latency_ns_count{endpoint=\"batch\"}"),
            "metadis_request_latency_ns_count{endpoint=\"batch\"} 5"
        );
        assert_eq!(
            line("metadis_request_latency_ns_sum{endpoint=\"batch\"}"),
            "metadis_request_latency_ns_sum{endpoint=\"batch\"} 101000"
        );
        // log2 buckets: p50 lands in the bucket of 300 (256..511), p99 in
        // the bucket of the outlier, clamped to the exact max.
        assert_eq!(
            line("metadis_request_latency_ns{endpoint=\"batch\",quantile=\"0.5\"}"),
            "metadis_request_latency_ns{endpoint=\"batch\",quantile=\"0.5\"} 511"
        );
        assert_eq!(
            line("metadis_request_latency_ns{endpoint=\"batch\",quantile=\"0.99\"}"),
            "metadis_request_latency_ns{endpoint=\"batch\",quantile=\"0.99\"} 100000"
        );
        // untouched endpoints stay declared but empty
        assert_eq!(
            line("metadis_request_latency_ns_count{endpoint=\"/analyze\"}"),
            "metadis_request_latency_ns_count{endpoint=\"/analyze\"} 0"
        );
        assert!(text.contains("# TYPE metadis_request_latency_ns summary"));
    }

    #[test]
    fn endpoint_labels_cover_every_route() {
        assert_eq!(endpoint_index("/analyze"), EP_ANALYZE);
        assert_eq!(endpoint_index("/metrics"), 2);
        assert_eq!(
            ENDPOINTS[endpoint_index("/debug/metrics/history")],
            "/debug/metrics/history"
        );
        assert_eq!(
            ENDPOINTS[endpoint_index("/debug/requests")],
            "/debug/requests"
        );
        // per-id bundle fetches account under the same label
        assert_eq!(
            ENDPOINTS[endpoint_index("/debug/requests/00000000000004d2")],
            "/debug/requests"
        );
        assert_eq!(ENDPOINTS[endpoint_index("/nope")], "other");
        // a merely-prefixed path is a 404 and must NOT inflate the
        // /debug/requests counters
        assert_eq!(ENDPOINTS[endpoint_index("/debug/requestsfoo")], "other");
    }

    #[test]
    fn metrics_content_negotiation_gates_exemplars() {
        let st = State::default();
        let rid = 0x1badb002deadc0deu64;
        st.latency.record_tagged(1_000, rid);

        // Legacy version=0.0.4 text: no exemplar suffixes (the legacy
        // parser reads "# {...}" as a parse error), no EOF marker, and
        // counter families declared under their sample name.
        let legacy = render_prometheus(&st, false);
        assert!(!legacy.contains("# {req_id="), "{legacy}");
        assert!(!legacy.contains("# EOF"), "{legacy}");
        assert!(
            legacy.contains("# TYPE metadis_requests_total counter"),
            "{legacy}"
        );

        // OpenMetrics: exemplars on populated buckets, counter families
        // declared without the _total suffix their samples carry, and a
        // mandatory trailing EOF marker.
        let om = render_prometheus(&st, true);
        assert!(
            om.contains(&format!("# {{req_id=\"{rid:016x}\"}} 1000")),
            "{om}"
        );
        assert!(om.ends_with("# EOF\n"), "{om}");
        assert!(om.contains("# TYPE metadis_requests counter"), "{om}");
        assert!(!om.contains("# TYPE metadis_requests_total"), "{om}");
        // sample lines keep the _total name in both formats
        for text in [&legacy, &om] {
            assert!(
                text.contains("metadis_requests_total{endpoint=\"/analyze\"} 0"),
                "{text}"
            );
        }
        // gauges and summaries are declared identically in both formats
        for text in [&legacy, &om] {
            assert!(text.contains("# TYPE metadis_queue_depth gauge"), "{text}");
            assert!(
                text.contains("# TYPE metadis_request_latency_ns summary"),
                "{text}"
            );
        }
    }

    #[test]
    fn accept_header_selects_the_openmetrics_exposition() {
        assert!(!accepts_openmetrics(None));
        assert!(!accepts_openmetrics(Some("text/plain; version=0.0.4")));
        assert!(!accepts_openmetrics(Some("*/*")));
        assert!(accepts_openmetrics(Some(
            "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5"
        )));
        assert!(accepts_openmetrics(Some("Application/OpenMetrics-Text")));
    }

    #[test]
    fn sampler_builds_series_and_evaluates_slos() {
        let st = State::default();
        st.requests.store(10, Ordering::Relaxed);
        st.latency.record(1_000_000);
        sample_series(&st);
        st.requests.store(20, Ordering::Relaxed);
        st.sheds.store(0, Ordering::Relaxed);
        sample_series(&st);
        {
            let tr = st.series.lock().unwrap();
            assert_eq!(tr.ring.len(), 2);
            let latest = tr.ring.latest().unwrap();
            assert_eq!(latest.counter("requests"), 20);
            assert!(latest.summary("latency_ns").is_some());
            // statuses attached to the sample and cached for /metrics
            assert_eq!(latest.slo.len(), 2);
            assert_eq!(tr.statuses.len(), 2);
            assert!(tr.statuses.iter().all(|s| !s.breached));
        }
        // the history endpoint renders the ring as series.v1
        let body = render_history(&st);
        let doc = obs::json::parse(&body).unwrap();
        let samples = obs::series::samples_from_json(&doc).expect("valid series.v1");
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].counter("requests"), 20);
        // and the gauges show up in the exposition
        let metrics = render_prometheus(&st, false);
        assert!(
            metrics.contains("metadis_slo_burn_rate{objective=\"availability\",window=\"fast\"} 0"),
            "{metrics}"
        );
        assert!(
            metrics.contains("metadis_slo_breached{objective=\"latency_p99\"} 0"),
            "{metrics}"
        );
    }

    #[test]
    fn flight_buffer_is_bounded_and_serves_debug_timeline() {
        let server = Server::start("127.0.0.1:0").unwrap();
        // Force more requests than the buffer holds; every one fails to
        // load (all anomalous), so eviction falls back to oldest-first
        // and still records a serve.request span per request.
        for i in 0..(FLIGHT_CAPACITY + 3) {
            let _ = server.process_path(&format!("/nonexistent/f{i}.elf"), &Config::default());
        }
        {
            let flight = server.state.lock(&server.state.flight);
            assert_eq!(flight.len(), FLIGHT_CAPACITY);
            // oldest entries fell off the front
            assert!(flight.front().unwrap().path.contains("f3.elf"));
            for rec in flight.iter() {
                assert!(!rec.events.is_empty());
                assert_eq!(rec.outcome, "error");
                assert!(rec.anomalies.contains(&"error"), "{:?}", rec.anomalies);
            }
        }
        assert_eq!(
            server.state.flight_evictions.load(Ordering::Relaxed),
            3,
            "three over capacity, three evictions"
        );
        let addr = server.addr().to_string();
        let body = scrape(&addr, "/debug/timeline").unwrap();
        let json = obs::json::parse(&body).expect("timeline is valid JSON");
        let events = json.get("traceEvents").unwrap().as_arr().unwrap();
        // one B and one E per buffered request, plus lane metadata
        let begins = events
            .iter()
            .filter(|e| e.path("ph").and_then(|p| p.as_str()) == Some("B"))
            .count();
        assert_eq!(begins, FLIGHT_CAPACITY);
        server.shutdown();
    }

    #[test]
    fn tail_retention_keeps_anomalies_over_routine_requests() {
        let dir = tmpdir("retain");
        let elf = write_elf(&dir, "ok.elf", 41);
        let opts = ServeOptions {
            flight_capacity: 3,
            ..ServeOptions::default()
        };
        let server = Server::start_with("127.0.0.1:0", opts, Config::default()).unwrap();
        // three routine requests fill the buffer...
        for _ in 0..3 {
            server.process_path(&elf, &Config::default()).unwrap();
        }
        // ...then more anomalies than capacity: each evicts a routine
        // record first, then the oldest anomaly once none remain.
        for i in 0..4 {
            let _ = server.process_path(&format!("/nonexistent/e{i}.elf"), &Config::default());
        }
        {
            let flight = server.state.lock(&server.state.flight);
            assert_eq!(flight.len(), 3);
            assert!(
                flight.iter().all(|r| r.anomalies.contains(&"error")),
                "anomalies outlive routine records: {:?}",
                flight.iter().map(|r| r.path.clone()).collect::<Vec<_>>()
            );
            // oldest anomaly was sacrificed only after every routine one
            assert!(flight.front().unwrap().path.contains("e1.elf"));
        }
        assert_eq!(server.state.flight_evictions.load(Ordering::Relaxed), 4);
        let metrics = server.render_metrics();
        assert!(metrics.contains("metadis_flight_occupancy 3"), "{metrics}");
        assert!(metrics.contains("metadis_flight_capacity 3"), "{metrics}");
        assert!(
            metrics.contains("metadis_flight_evictions_total 4"),
            "{metrics}"
        );
        server.shutdown();
    }

    #[test]
    fn request_ids_echo_and_resolve_to_bundles() {
        // the log slice in a bundle comes from the global log ring, which
        // only captures when a level is set (the serve CLI does this; a
        // bare Server::start does not); hold the logger lock so this level
        // can't leak into a concurrent CLI test's `--log-level` run
        let _g = crate::LOGGER_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if obs::log::level().is_none() {
            obs::log::set_level(Some(obs::log::Level::Info));
        }
        let server = Server::start("127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        // an error request is retained; its response header names the id.
        // The log ring is bounded and process-global, so a request's slice
        // can still be evicted mid-capture — issue a fresh request until
        // one lands with its slice intact.
        let mut picked = None;
        for _ in 0..32 {
            obs::log::set_level(Some(obs::log::Level::Info));
            let (status, headers, _body) =
                http::request_full(&addr, "GET", "/analyze?path=/nonexistent/zz.elf", None, &[])
                    .unwrap();
            assert_eq!(status, 422);
            let rid = headers
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case("x-metadis-request-id"))
                .map(|(_, v)| v.clone())
                .expect("every response carries X-Metadis-Request-Id");
            assert_eq!(rid.len(), 16, "{rid}");
            let bundle = scrape(&addr, &format!("/debug/requests/{rid}")).unwrap();
            let doc = obs::json::parse(&bundle).expect("bundle is valid JSON");
            let has_logs = doc
                .path("logs")
                .and_then(|v| v.as_arr())
                .is_some_and(|l| !l.is_empty());
            if has_logs {
                picked = Some((rid, bundle));
                break;
            }
        }
        let (rid, bundle) = picked.expect("a request with an intact log slice");
        // the index lists it...
        let index = scrape(&addr, "/debug/requests").unwrap();
        assert!(index.contains(&rid), "{index}");
        let doc = obs::json::parse(&index).unwrap();
        assert_eq!(doc.path("capacity").and_then(|v| v.as_u64()), Some(8));
        // ...and the per-id bundle carries the same id, the timeline, and
        // the correlated log slice
        let doc = obs::json::parse(&bundle).expect("bundle is valid JSON");
        assert_eq!(
            doc.path("schema").and_then(|v| v.as_str()),
            Some(REQUEST_SCHEMA)
        );
        assert_eq!(doc.path("req_id").and_then(|v| v.as_str()), Some(&rid[..]));
        assert_eq!(doc.path("outcome").and_then(|v| v.as_str()), Some("error"));
        assert!(!doc
            .path("timeline.traceEvents")
            .and_then(|v| v.as_arr())
            .unwrap()
            .is_empty());
        let logs = doc.path("logs").and_then(|v| v.as_arr()).unwrap();
        assert!(
            logs.iter().any(|l| {
                l.path("msg").and_then(|m| m.as_str()) == Some("request failed")
                    && l.path("req_id").and_then(|m| m.as_str()) == Some(&rid[..])
            }),
            "{bundle}"
        );
        // an unknown id is a clean 404
        let err = scrape(&addr, "/debug/requests/ffffffffffffffff").unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");
        // a client-supplied id is honored and echoed back verbatim
        let (_, headers, _) = http::request_full(
            &addr,
            "GET",
            "/healthz",
            None,
            &[("X-Metadis-Request-Id", "00c0ffee00c0ffee")],
        )
        .unwrap();
        let echoed = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("x-metadis-request-id"))
            .map(|(_, v)| v.clone());
        assert_eq!(echoed.as_deref(), Some("00c0ffee00c0ffee"));
        server.shutdown();
        obs::log::set_level(None);
    }

    #[test]
    fn poisoned_locks_recover_and_count() {
        let st = State::default();
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = st.lock(&st.flight);
            panic!("poison the flight buffer");
        }));
        assert!(poison.is_err());
        // the next taker recovers instead of propagating the panic
        assert_eq!(st.lock(&st.flight).len(), 0);
        assert_eq!(st.lock_poisoned.load(Ordering::Relaxed), 1);
        let metrics = render_prometheus(&st, false);
        assert!(
            metrics.contains("metadis_lock_poisoned_total 1"),
            "{metrics}"
        );
    }

    #[test]
    fn unknown_path_is_404_and_scrape_reports_it() {
        let server = Server::start("127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        let e = scrape(&addr, "/nope").unwrap_err();
        assert!(e.to_string().contains("404"), "{e}");
        let ok = scrape(&addr, "/healthz").unwrap();
        assert_eq!(ok, "ok\n");
        server.shutdown();
    }

    #[test]
    fn process_batch_returns_per_path_results_in_order() {
        let server = Server::start("127.0.0.1:0").unwrap();
        let cfg = Config {
            threads: 4,
            ..Config::default()
        };
        let paths: Vec<String> = (0..6).map(|i| format!("/nonexistent/b{i}.elf")).collect();
        let results = server.process_batch(&paths, &cfg);
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            let e = r.as_ref().unwrap_err();
            assert!(e.contains(&format!("b{i}.elf")), "{e}");
        }
        assert_eq!(server.errors(), 6);
        assert_eq!(server.requests(), 0);
        server.shutdown();
    }

    #[test]
    fn process_path_errors_count() {
        let server = Server::start("127.0.0.1:0").unwrap();
        let e = server
            .process_path("/nonexistent/x.elf", &Config::default())
            .unwrap_err();
        assert!(e.contains("cannot read"), "{e}");
        assert_eq!(server.errors(), 1);
        assert_eq!(server.requests(), 0);
        server.shutdown();
    }

    #[test]
    fn analyze_over_http_answers_a_json_summary() {
        let dir = tmpdir("analyze");
        let elf = write_elf(&dir, "a.elf", 21);
        let server = Server::start("127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();

        // GET with a query param
        let (status, body) =
            http::request(&addr, "GET", &format!("/analyze?path={elf}"), None).unwrap();
        assert_eq!(status, 200, "{body}");
        let json = obs::json::parse(&body).expect("summary is JSON");
        assert!(json.get("instructions").unwrap().as_u64().unwrap() > 0);
        assert!(json.get("queue_wait_ns").is_some());

        // POST with the path as the body
        let (status, body) = http::request(&addr, "POST", "/analyze", Some(&elf)).unwrap();
        assert_eq!(status, 200, "{body}");

        // a bad path is a structured error, not a hang
        let (status, body) =
            http::request(&addr, "GET", "/analyze?path=/nonexistent/z.elf", None).unwrap();
        assert_eq!(status, 422, "{body}");
        assert!(body.contains(r#""category":"io""#), "{body}");

        // a missing path is a usage error
        let (status, body) = http::request(&addr, "GET", "/analyze", None).unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(body.contains(r#""category":"usage""#), "{body}");

        assert_eq!(server.requests(), 2);
        assert_eq!(server.errors(), 1);
        assert_eq!(server.sheds(), 0);
        server.shutdown();
    }

    #[test]
    fn zero_queue_depth_sheds_and_drives_healthz_unready() {
        let dir = tmpdir("shed");
        let elf = write_elf(&dir, "s.elf", 22);
        let opts = ServeOptions {
            queue_depth: 0,
            drain_ms: 200,
            ..ServeOptions::default()
        };
        let server = Server::start_with("127.0.0.1:0", opts, Config::default()).unwrap();
        let addr = server.addr().to_string();

        // every analysis request sheds with the structured overload body
        let (status, body) =
            http::request(&addr, "GET", &format!("/analyze?path={elf}"), None).unwrap();
        assert_eq!(status, 503, "{body}");
        assert!(body.contains(r#""category":"overload""#), "{body}");
        assert!(body.contains(r#""reason":"queue-full""#), "{body}");
        assert!(body.contains(r#""queue_cap":0"#), "{body}");
        assert_eq!(server.sheds(), 1);

        // readiness reflects the saturation as a 503 with a JSON body
        let (status, body) = http::request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 503, "{body}");
        assert!(body.contains(r#""status":"overloaded""#), "{body}");
        assert!(body.contains(r#""shed_total":1"#), "{body}");

        // the shed shows up in the exposition
        let metrics = server.render_metrics();
        assert!(
            metrics.contains("metadis_requests_shed_total 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("metadis_requests_shed_queue_total 1"),
            "{metrics}"
        );
        server.shutdown();
    }

    #[test]
    fn malformed_http_is_rejected_with_structured_errors() {
        let server = Server::start("127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();

        let (status, body) = http::request(&addr, "DELETE", "/metrics", None).unwrap();
        assert_eq!(status, 405, "{body}");

        // raw garbage: answered with a 400 (or dropped), never a panic
        {
            let mut s = TcpStream::connect(&addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(b"\x01\x02garbage\r\n\r\n").unwrap();
            let mut resp = String::new();
            let _ = s.read_to_string(&mut resp);
            assert!(resp.is_empty() || resp.contains("400"), "{resp}");
        }
        // the server is still alive and accounting
        assert_eq!(scrape(&addr, "/healthz").unwrap(), "ok\n");
        let metrics = server.render_metrics();
        assert!(
            metrics.contains("metadis_http_bad_requests_total 1"),
            "{metrics}"
        );
        server.shutdown();
    }
}
