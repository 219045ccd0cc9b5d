//! perfbench — the metadis benchmark.
//!
//! ```text
//! perfbench --workload <synth-pool|gcc-real> --seed N --seconds S
//!           --trace <0|1> --fixtures DIR --work DIR
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! runs the traced pass that times every call the harness makes into a
//! layer and reports the per-layer metrics (see `traced.rs`). Either way
//! the run checks every analysis against the reference result and ground
//! truth, prints one line per metric with its unit and sample count, and
//! ends with one JSON object on the last line of stdout. It exits 1 when
//! any check failed. `run.py` builds this package and calls it; see
//! `NOTES.md` for the workloads and how to read the numbers.

mod inputs;
mod measure;
mod serving;
mod spans;
mod traced;

use disasm_core::{Config, Disassembler, Disassembly, Image};
use inputs::{Input, Score};
use measure::{median, P99_SAMPLES};
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
pub enum Workload {
    SynthPool,
    GccReal,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "synth-pool" => Some(Workload::SynthPool),
            "gcc-real" => Some(Workload::GccReal),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SynthPool => "synth-pool",
            Workload::GccReal => "gcc-real",
        }
    }
}

/// `Config::threads` of every workload, pinned so that neither the host's
/// core count nor `METADIS_THREADS` changes the program measured.
const THREADS: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    fixtures: PathBuf,
    work: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <synth-pool|gcc-real> --seed N \
                     --seconds S --trace <0|1> --fixtures DIR --work DIR";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}\n{USAGE}"))
    };
    let bad = |flag: &str| format!("bad value for {flag}\n{USAGE}");
    Ok(Args {
        workload: Workload::parse(get("--workload")?).ok_or_else(|| bad("--workload"))?,
        seed: get("--seed")?.parse().map_err(|_| bad("--seed"))?,
        seconds: get("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .ok_or_else(|| bad("--seconds"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err(bad("--trace")),
        },
        fixtures: PathBuf::from(get("--fixtures")?),
        work: PathBuf::from(get("--work")?),
    })
}

/// Setups per run: at least `SETUP_REPS.0`, and more, up to
/// `SETUP_REPS.1`, while they have taken under [`SETUP_SECONDS`]; `setup_s`
/// is their median.
const SETUP_REPS: (usize, usize) = (3, 25);
const SETUP_SECONDS: f64 = 4.0;
/// Fewest measured rounds over the inputs, however long one round takes.
pub const MIN_ROUNDS: usize = 2;

/// One analysis result reduced to what must repeat exactly.
pub fn same(d: &Disassembly, reference: &Disassembly) -> bool {
    d.trace.degradations.is_empty()
        && d.inst_starts == reference.inst_starts
        && d.byte_class == reference.byte_class
}

/// The parsed inputs of a warm-up pass and its (cold) analysis results.
pub struct Loaded {
    pub images: Vec<Image>,
    pub results: Vec<Disassembly>,
}

/// One warm-up pass: read and parse every input, build its image and the
/// disassembler, and analyze each input once.
fn warm_up(inputs: &[Input], cfg: &Config) -> Loaded {
    let images: Vec<Image> = inputs
        .iter()
        .map(|input| {
            let bytes = std::fs::read(&input.path)
                .unwrap_or_else(|e| panic!("read {}: {e}", input.path.display()));
            let elf = elfobj::Elf::parse(&bytes)
                .unwrap_or_else(|e| panic!("parse {}: {e}", input.path.display()));
            inputs::image(input, &elf)
        })
        .collect();
    let dis = Disassembler::new(cfg.clone());
    let results = images.iter().map(|img| dis.disassemble(img)).collect();
    Loaded { images, results }
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// A metric as printed: name, value, unit, and the samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

pub fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    assert!(value.is_finite(), "{name} is not finite");
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// The batch closed loop: analyze every input in `order`, round after
/// round, until `duration` has passed (at least [`MIN_ROUNDS`] rounds).
/// Returns per-round throughput (MiB/s), per-analysis latency (ms), and
/// `(attempted, failed)` against the reference results.
pub fn batch_loop(
    dis: &Disassembler,
    loaded: &Loaded,
    order: &[usize],
    duration: Duration,
) -> (Vec<f64>, Vec<f64>, u64, u64) {
    let round_bytes: usize = loaded.images.iter().map(Image::len).sum();
    let (mut rounds, mut latencies) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < duration {
        let mut round_s = 0.0;
        for &i in order {
            let t = Instant::now();
            let d = std::hint::black_box(dis.disassemble(&loaded.images[i]));
            let s = t.elapsed().as_secs_f64();
            round_s += s;
            latencies.push(s * 1e3);
            attempted += 1;
            failed += !same(&d, &loaded.results[i]) as u64;
        }
        rounds.push(round_bytes as f64 / (1 << 20) as f64 / round_s);
    }
    (rounds, latencies, attempted, failed)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let run_dir = args.work.join(format!(
        "run-{}-{}-{}",
        w.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir).expect("create work dir");

    // Inputs: generation and writing are not part of setup.
    let (inputs, scored_only) = match w {
        Workload::SynthPool => (inputs::synth_pool(&run_dir), Vec::new()),
        Workload::GccReal => inputs::gcc_real(&args.fixtures),
    };
    let cfg = Config {
        threads: THREADS,
        ..Config::default()
    };
    let text_bytes: u64 = inputs
        .iter()
        .map(|i| match &i.truth {
            inputs::Truth::Synth(wl) => wl.text.len() as u64,
            inputs::Truth::Gcc(t) => t.labels.len() as u64,
        })
        .sum();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} trace={} nproc={nproc} threads={} inputs={} text_bytes={text_bytes} scored_untimed={}",
        w.name(),
        args.seed,
        args.trace as u8,
        cfg.threads,
        inputs.len(),
        scored_only.len(),
    );
    let order = inputs::permutation(inputs.len(), args.seed);

    // Setup: the first-run cost, measured SETUP_REPS times.
    let (min_reps, max_reps) = if args.trace { (1, 1) } else { SETUP_REPS };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut loaded = None;
    while setup_s.len() < min_reps
        || (setup_s.len() < max_reps && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
    {
        let t = Instant::now();
        let l = warm_up(&inputs, &cfg);
        setup_s.push(t.elapsed().as_secs_f64());
        if loaded.is_none() {
            loaded = Some(l);
        }
    }
    let loaded = loaded.expect("at least one setup");

    let mut score = Score::default();
    for (input, d) in inputs.iter().zip(&loaded.results) {
        score.add(input, d);
    }

    let duration = Duration::from_secs_f64(args.seconds);
    let (mut metrics, mut attempted, mut failed) = if args.trace {
        let spans_path = args
            .work
            .join(format!("spans-{}-seed{}.json", w.name(), args.seed));
        traced::run(w, &inputs, &loaded, &cfg, &order, duration, &spans_path)
    } else {
        let dis = Disassembler::new(cfg.clone());
        let (_, lat, attempted, failed) = batch_loop(&dis, &loaded, &order, duration);
        // A round's throughput: its bytes over its analysis time.
        let round_bytes: usize = loaded.images.iter().map(Image::len).sum();
        let best = measure::best(&lat, order.len(), |round| {
            round_bytes as f64 / (1 << 20) as f64 / (lat[round].iter().sum::<f64>() / 1e3)
        });
        let n = lat.len();
        let tail = &best.tail;
        let tail_note = if tail.percentile >= 99.0 {
            format!("p99 of n={n} analyses")
        } else if tail.percentile <= 50.0 {
            format!("median of n={n} analyses: too few for a tail with 10 samples beyond it")
        } else {
            format!(
                "p{:.0} of n={n} analyses, the highest percentile with 10 samples beyond it; a p99 needs {P99_SAMPLES}",
                tail.percentile
            )
        };
        let rounds_note = format!("best of {} rounds of n={n} analyses", best.rounds);
        let metrics = vec![
            metric(
                "setup_s",
                median(&setup_s),
                "s",
                format!("median of n={} setups", setup_s.len()),
            ),
            metric("throughput_mib_s", best.mib_s, "MiB/s", rounds_note.clone()),
            metric("latency_p50_ms", best.p50, "ms", rounds_note),
            metric("latency_p99_ms", tail.value, "ms", tail_note),
        ];
        (metrics, attempted, failed)
    };
    let peak_rss = peak_rss_mib();

    // Fixtures scored but not timed: one analysis each, after the
    // measurement, so they count in the quality and success figures only.
    for input in &scored_only {
        let t = Instant::now();
        let l = warm_up(std::slice::from_ref(input), &cfg);
        let d = &l.results[0];
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let top = d
            .trace
            .phases
            .iter()
            .max_by_key(|p| p.wall_ns)
            .expect("phases");
        println!(
            "# {} scored untimed: {} text bytes in {wall_ms:.0} ms, {} {:.0}% of the pipeline",
            input.name,
            l.images[0].len(),
            top.name,
            100.0 * top.wall_ns as f64 / d.trace.total_wall_ns.max(1) as f64
        );
        attempted += 1;
        failed += !d.trace.degradations.is_empty() as u64;
        score.add(input, d);
    }

    if !args.trace {
        let success = 100.0 * (attempted - failed) as f64 / attempted.max(1) as f64;
        metrics.extend([
            metric(
                "peak_rss_mib",
                peak_rss,
                "MiB",
                "VmHWM before the untimed fixtures",
            ),
            metric(
                "inst_f1",
                score.inst.f1(),
                "ratio",
                format!(
                    "tp={} fp={} fn={}",
                    score.inst.tp, score.inst.fp, score.inst.fn_
                ),
            ),
            metric(
                "byte_error_pct",
                score.byte_error_pct(),
                "%",
                format!(
                    "{} of {} scored bytes",
                    score.bytes_wrong, score.bytes_scored
                ),
            ),
            metric(
                "success_pct",
                success,
                "%",
                format!("{} of {attempted} attempted", attempted - failed),
            ),
        ]);
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    for m in &metrics {
        println!(
            "{:<26} {:>14} {:<6} ({})",
            m.name,
            format!("{:.4}", m.value),
            m.unit,
            m.note
        );
    }
    let correct = failed == 0;
    if !correct {
        println!("# FAILED: {failed} of {attempted} operations failed their check");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
