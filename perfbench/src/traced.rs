//! The traced pass: per-layer metrics from direct calls into each layer's
//! public functions, timed from here as spans.
//!
//! A third of the time goes to each of three parts:
//!
//! 1. the untraced batch loop, for the tracing-overhead reference;
//! 2. traced rounds over the inputs: `Elf::parse`, a linear `decode`
//!    sweep, `Superset::build_sharded`, `Viability::compute_sharded`,
//!    `jumptable::detect` and `Disassembler::disassemble`, each under a
//!    span, with `obs::alloc::stats()` deltas around the calls and the
//!    pipeline's own phase spans hung under `disassemble`; superset and
//!    viability also run at the other of 1 and 2 threads for the
//!    parallel speedup;
//! 3. the inputs sent through `/analyze` on a fresh server from the
//!    workload's client count, with `/metrics` read before and after.
//!
//! Timings are medians over rounds of per-round sums. The pipeline
//! breakdown (`phase.*`, `pipeline.*`) is the one round whose
//! `disassemble` wall is the median, so its parts add up exactly.

use crate::inputs::Input;
use crate::measure::median;
use crate::spans::Spans;
use crate::{metric, same, serving, Loaded, Metric, Workload, MIN_ROUNDS};
use disasm_core::limits::{Deadline, Limits};
use disasm_core::superset::Superset;
use disasm_core::viability::Viability;
use disasm_core::{jumptable, Config, Disassembler, Image};
use metadis::serve::{ServeOptions, Server};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

const MIB: f64 = (1 << 20) as f64;

/// Enough rounds for steady medians; keeps the span file of the small
/// workloads to a few MiB.
const MAX_TRACED_ROUNDS: usize = 200;

/// Per-round sums, keyed by metric name.
type Round = BTreeMap<&'static str, f64>;

fn add(r: &mut Round, key: &'static str, v: f64) {
    *r.entry(key).or_insert(0.0) += v;
}

/// Allocated and freed bytes of the calling thread since `before`, MiB.
fn alloc_delta(before: obs::alloc::AllocStats) -> (f64, f64) {
    let now = obs::alloc::stats();
    (
        now.allocated.wrapping_sub(before.allocated) as f64 / MIB,
        now.freed.wrapping_sub(before.freed) as f64 / MIB,
    )
}

fn decode_sweep(text: &[u8]) -> usize {
    let (mut pos, mut count) = (0, 0);
    while pos < text.len() {
        match x86_isa::decode(&text[pos..]) {
            Ok(inst) => {
                pos += inst.len as usize;
                count += 1;
            }
            Err(_) => pos += 1,
        }
    }
    count
}

/// Superset and viability at `threads`; returns their wall times (ms).
fn superset_viability(spans: &mut Spans, parent: usize, text: &[u8], threads: usize) -> (f64, f64) {
    let unlimited = Deadline::unlimited();
    let ((ss, ..), ss_ms) = spans.time(&format!("superset.build.t{threads}"), Some(parent), || {
        Superset::build_sharded(text, None, &unlimited, threads)
    });
    let (_, vi_ms) = spans.time(
        &format!("viability.compute.t{threads}"),
        Some(parent),
        || Viability::compute_sharded(&ss, None, &unlimited, threads),
    );
    (ss_ms, vi_ms)
}

/// One traced round over every input. Returns the round's sums and
/// `(attempted, failed)` analyses.
fn traced_round(
    spans: &mut Spans,
    inputs: &[Input],
    loaded: &Loaded,
    cfg: &Config,
    order: &[usize],
) -> (Round, u64, u64) {
    let mut r = Round::new();
    let (mut attempted, mut failed) = (0, 0);
    let dis = Disassembler::new(cfg.clone());
    let unlimited = Deadline::unlimited();
    let round = spans.begin("round", None);
    for &i in order {
        let input = &inputs[i];
        let bytes = std::fs::read(&input.path).expect("read input");
        let (elf, parse_ms) = spans.time("elfobj.parse", Some(round), || {
            elfobj::Elf::parse(&bytes).expect("parse input")
        });
        add(&mut r, "elfobj.parse_ms", parse_ms);
        let image: Image = crate::inputs::image(input, &elf);
        let text = &image.text;
        add(&mut r, "bytes", text.len() as f64);

        let (_, decode_ms) = spans.time("x86_isa.decode", Some(round), || decode_sweep(text));
        add(&mut r, "decode_ms", decode_ms);

        let a = obs::alloc::stats();
        let ((ss, ..), ss_ms) = spans.time("superset.build", Some(round), || {
            Superset::build_sharded(text, None, &unlimited, cfg.threads)
        });
        add(&mut r, "superset.alloc_mib", alloc_delta(a).0);
        add(&mut r, "superset.build_ms", ss_ms);
        add(&mut r, "superset.candidates", ss.valid().count() as f64);

        let ((viab, ..), vi_ms) = spans.time("viability.compute", Some(round), || {
            Viability::compute_sharded(&ss, None, &unlimited, cfg.threads)
        });
        add(&mut r, "viability.compute_ms", vi_ms);
        add(&mut r, "viability.iterations", viab.iterations() as f64);
        add(&mut r, "viability.eliminated", viab.eliminated() as f64);

        let a = obs::alloc::stats();
        let (tables, ms) = spans.time("jumptable.detect", Some(round), || {
            jumptable::detect(
                text,
                image.text_va,
                &image.data_regions,
                &ss,
                &viab,
                Limits::default().max_table_entries,
            )
        });
        let (alloc, freed) = alloc_delta(a);
        add(&mut r, "jumptable.detect_ms", ms);
        add(&mut r, "jumptable.tables", tables.len() as f64);
        add(&mut r, "jumptable.alloc_mib", alloc);
        add(&mut r, "jumptable.freed_mib", freed);
        drop((ss, viab, tables));

        // Parallel speedup: the same two phases at the other thread count.
        let other = if cfg.threads == 1 { 2 } else { 1 };
        let at_other = superset_viability(spans, round, text, other);
        let (t1, t2) = if cfg.threads == 1 {
            ((ss_ms, vi_ms), at_other)
        } else {
            (at_other, (ss_ms, vi_ms))
        };
        add(&mut r, "ss_t1", t1.0);
        add(&mut r, "ss_t2", t2.0);
        add(&mut r, "vi_t1", t1.1);
        add(&mut r, "vi_t2", t2.1);

        let id = spans.begin("disassemble", Some(round));
        let d = std::hint::black_box(dis.disassemble(&image));
        let wall_ms = spans.end(id).ms();
        spans.adopt(id, &d.trace.spans);
        add(&mut r, "pipeline.disassemble_ms", wall_ms);
        let mut phases_ms = 0.0;
        for p in &d.trace.phases {
            phases_ms += p.wall_ns as f64 / 1e6;
            if let Some(key) = phase_key(p.name, "_ms") {
                add(&mut r, key, p.wall_ns as f64 / 1e6);
            }
        }
        for s in &d.trace.spans {
            if let Some(key) = phase_key(s.name, "_alloc_mib") {
                let bytes = s
                    .counters
                    .iter()
                    .find(|(k, _)| *k == "alloc_bytes")
                    .map_or(0, |c| c.1);
                add(&mut r, key, bytes as f64 / MIB);
            }
        }
        let unattributed = wall_ms - phases_ms;
        assert!(unattributed >= 0.0, "phases exceed the disassemble wall");
        add(&mut r, "pipeline.unattributed_ms", unattributed);
        attempted += 1;
        failed += !same(&d, &loaded.results[i]) as u64;
    }
    spans.end(round);
    (r, attempted, failed)
}

/// The reported metric `phase.<name><suffix>`, if there is one.
fn phase_key(name: &str, suffix: &str) -> Option<&'static str> {
    let key = format!("phase.{name}{suffix}");
    PHASE_KEYS.iter().copied().find(|k| *k == key)
}

const PHASE_KEYS: [&str; 15] = [
    "phase.superset_ms",
    "phase.viability_ms",
    "phase.anchor_ms",
    "phase.jumptable_ms",
    "phase.structural_ms",
    "phase.stats.train_ms",
    "phase.stats.classify_ms",
    "phase.padding_ms",
    "phase.default_ms",
    "phase.anchor_alloc_mib",
    "phase.structural_alloc_mib",
    "phase.stats.train_alloc_mib",
    "phase.stats.classify_alloc_mib",
    "phase.padding_alloc_mib",
    "phase.default_alloc_mib",
];

/// Canonical paths of the inputs, as `/analyze` takes them.
fn paths(inputs: &[Input]) -> Vec<String> {
    inputs
        .iter()
        .map(|i| {
            std::fs::canonicalize(&i.path)
                .expect("canonical input path")
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

/// The serve layer: the inputs sent through `/analyze` from one client.
/// The server loads each file itself (`Image::from_elf`), so
/// the expected instruction counts come from the same loader in-process.
fn serve_part(
    inputs: &[Input],
    cfg: &Config,
    order: &[usize],
    duration: Duration,
) -> (Vec<Metric>, u64, u64) {
    let dis = Disassembler::new(cfg.clone());
    let expected: Vec<u64> = inputs
        .iter()
        .map(|i| {
            let elf =
                elfobj::Elf::parse(&std::fs::read(&i.path).expect("read input")).expect("parse");
            Image::from_elf(&elf).map_or(0, |img| dis.disassemble(&img).inst_starts.len() as u64)
        })
        .collect();
    let paths = paths(inputs);
    let server = Server::start_with("127.0.0.1:0", ServeOptions::default(), cfg.clone())
        .expect("start server");
    let before = serving::scrape(server.addr());
    let replies = serving::closed_loop(server.addr(), &paths, &expected, order, duration);
    let after = serving::scrape(server.addr());
    Server::shutdown(server);
    let waits = after.queue_wait_count - before.queue_wait_count;
    let queue_wait_ms =
        (after.queue_wait_sum_ns - before.queue_wait_sum_ns) as f64 / waits.max(1) as f64 / 1e6;
    let analysis: Vec<f64> = replies.iter().map(|r| r.analysis_ms).collect();
    let overhead: Vec<f64> = replies
        .iter()
        .map(|r| r.latency_ms - r.analysis_ms)
        .collect();
    let n = replies.len();
    let failed = replies.iter().filter(|r| !r.ok).count() as u64;
    (
        vec![
            metric(
                "serve.queue_wait_ms",
                queue_wait_ms,
                "ms",
                format!("mean of n={waits} from /metrics deltas"),
            ),
            metric(
                "serve.analysis_ms",
                median(&analysis),
                "ms",
                format!("median wall_ns of n={n} requests"),
            ),
            metric(
                "serve.overhead_ms",
                median(&overhead),
                "ms",
                format!("median client latency - wall_ns, n={n}"),
            ),
            metric(
                "serve.sheds",
                (after.sheds - before.sheds) as f64,
                "count",
                "from /metrics deltas",
            ),
        ],
        n as u64,
        failed,
    )
}

pub fn run(
    w: Workload,
    inputs: &[Input],
    loaded: &Loaded,
    cfg: &Config,
    order: &[usize],
    duration: Duration,
    spans_path: &Path,
) -> (Vec<Metric>, u64, u64) {
    let part = duration / 3;

    // 1. untraced reference
    let dis = Disassembler::new(cfg.clone());
    let (untraced, _, mut attempted, mut failed) = crate::batch_loop(&dis, loaded, order, part);

    // 2. traced rounds
    obs::alloc::set_enabled(true);
    let mut spans = Spans::new(w.name());
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || (start.elapsed() < part && rounds.len() < MAX_TRACED_ROUNDS)
    {
        let (r, a, f) = traced_round(&mut spans, inputs, loaded, cfg, order);
        rounds.push(r);
        attempted += a;
        failed += f;
    }
    obs::alloc::set_enabled(false);

    let n = rounds.len();
    let med = |key: &str| {
        median(
            &rounds
                .iter()
                .map(|r| r.get(key).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let rounds_note = format!("median of n={n} rounds");
    let mut metrics = vec![metric(
        "elfobj.parse_ms",
        med("elfobj.parse_ms"),
        "ms",
        rounds_note.clone(),
    )];
    let decode: Vec<f64> = rounds
        .iter()
        .map(|r| r["bytes"] / MIB / (r["decode_ms"] / 1e3))
        .collect();
    metrics.push(metric(
        "x86_isa.decode_mib_s",
        median(&decode),
        "MiB/s",
        rounds_note.clone(),
    ));
    for (key, unit) in [
        ("superset.build_ms", "ms"),
        ("superset.candidates", "count"),
        ("superset.alloc_mib", "MiB"),
        ("viability.compute_ms", "ms"),
        ("viability.iterations", "count"),
        ("viability.eliminated", "count"),
        ("jumptable.detect_ms", "ms"),
        ("jumptable.tables", "count"),
        ("jumptable.alloc_mib", "MiB"),
        ("jumptable.freed_mib", "MiB"),
    ] {
        metrics.push(metric(key, med(key), unit, rounds_note.clone()));
    }

    // Pipeline breakdown of the median round.
    let walls: Vec<f64> = rounds
        .iter()
        .map(|r| r["pipeline.disassemble_ms"])
        .collect();
    let mid = median(&walls);
    let pick = rounds
        .iter()
        .min_by(|a, b| {
            (a["pipeline.disassemble_ms"] - mid)
                .abs()
                .total_cmp(&(b["pipeline.disassemble_ms"] - mid).abs())
        })
        .expect("at least one round");
    let note = "round with the median disassemble wall";
    for key in PHASE_KEYS {
        let unit = if key.ends_with("_ms") { "ms" } else { "MiB" };
        metrics.push(metric(
            key,
            pick.get(key).copied().unwrap_or(0.0),
            unit,
            note,
        ));
    }
    metrics.push(metric(
        "pipeline.unattributed_ms",
        pick["pipeline.unattributed_ms"],
        "ms",
        note,
    ));
    metrics.push(metric(
        "pipeline.disassemble_ms",
        pick["pipeline.disassemble_ms"],
        "ms",
        note,
    ));
    let parts: f64 = PHASE_KEYS
        .iter()
        .filter(|k| k.ends_with("_ms"))
        .map(|k| pick.get(k).copied().unwrap_or(0.0))
        .sum::<f64>()
        + pick["pipeline.unattributed_ms"];
    assert!(
        (parts - pick["pipeline.disassemble_ms"]).abs() < 1e-6,
        "phase walls + unattributed ({parts}) != disassemble wall ({})",
        pick["pipeline.disassemble_ms"]
    );

    let speedup =
        |t1: &str, t2: &str| median(&rounds.iter().map(|r| r[t1] / r[t2]).collect::<Vec<_>>());
    metrics.push(metric(
        "par.superset_speedup_t2",
        speedup("ss_t1", "ss_t2"),
        "x",
        rounds_note.clone(),
    ));
    metrics.push(metric(
        "par.viability_speedup_t2",
        speedup("vi_t1", "vi_t2"),
        "x",
        rounds_note.clone(),
    ));

    // 3. serve
    let (serve, a, f) = serve_part(inputs, cfg, order, part);
    metrics.extend(serve);
    attempted += a;
    failed += f;

    // Tracing overhead: the best round's throughput untraced vs. traced,
    // as the end-to-end throughput is taken, so that a slow stretch of the
    // host in one part does not read as overhead.
    let best = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let traced: Vec<f64> = rounds
        .iter()
        .map(|r| r["bytes"] / MIB / (r["pipeline.disassemble_ms"] / 1e3))
        .collect();
    let (untraced, traced) = (best(&untraced), best(&traced));
    metrics.push(metric(
        "trace.overhead_pct",
        100.0 * (untraced / traced - 1.0),
        "%",
        format!("best round untraced {untraced:.3} vs traced {traced:.3} MiB/s"),
    ));

    std::fs::write(spans_path, spans.to_json()).expect("write spans");
    println!(
        "# {} spans written to {}",
        spans.len(),
        spans_path.display()
    );
    (metrics, attempted, failed)
}
