//! End-to-end pipeline trace checks: phase names are a stable contract,
//! every phase row is its span, and the trace's correction counters agree
//! with the correction log.

use disasm_baselines::Baseline;
use disasm_core::{Config, Disassembler, Image, PipelineTrace, Priority};

/// Phase names recorded by a default-config pipeline run, in execution
/// order. This list is part of the `metadis.trace.*` schema — changing it
/// breaks `--trace-json` consumers, so this test pins it.
const EXPECTED_PHASES: [&str; 9] = [
    "superset",
    "viability",
    "anchor",
    "jumptable",
    "structural",
    "stats.train",
    "stats.classify",
    "padding",
    "default",
];

fn workload_disassembly() -> (Image, disasm_core::Disassembly) {
    let w = bingen::Workload::generate(&bingen::GenConfig::small(21));
    let image = Image::new(w.text_base(), w.text.clone()).with_entry(w.entry_off);
    let d = Disassembler::new(Config::default()).disassemble(&image);
    (image, d)
}

#[test]
fn phase_names_are_stable() {
    let (_, d) = workload_disassembly();
    let names: Vec<&str> = d.trace.phases.iter().map(|p| p.name).collect();
    // stats.classify only appears when a model trains successfully; on the
    // standard small workload self-training must succeed.
    assert_eq!(names, EXPECTED_PHASES, "phase set/order drifted");
}

#[test]
fn trace_totals_are_consistent() {
    let (image, d) = workload_disassembly();
    assert_eq!(d.trace.runs, 1);
    assert_eq!(d.trace.text_bytes, image.text.len() as u64);
    assert!(d.trace.total_wall_ns > 0);
    // every phase saw the whole text
    for p in &d.trace.phases {
        assert_eq!(p.bytes, d.trace.text_bytes, "phase {}", p.name);
    }
    // the fixpoint ran and eliminated candidates on a realistic workload
    assert!(d.trace.viability_iterations > 0);
    let viab = d.trace.phase("viability").unwrap();
    assert!(viab.items > 0, "viability eliminated nothing");
    // superset items = valid candidates, bounded by text size
    let ss = d.trace.phase("superset").unwrap();
    assert!(ss.items > 0 && ss.items <= d.trace.text_bytes);
    // the jumptable span counts the full decodes its cache saved
    let jt = d
        .trace
        .spans
        .iter()
        .find(|s| s.name == "jumptable")
        .unwrap();
    assert!(
        jt.counters.iter().any(|&(n, _)| n == "redecodes"),
        "{:?}",
        jt.counters
    );

    // one clock per phase, on every path that produces a trace
    for threads in [1, 2] {
        let cfg = Config {
            threads,
            ..Config::default()
        };
        let d = Disassembler::new(cfg).disassemble(&image);
        assert_phases_are_spans(&format!("threads={threads}"), &d.trace);
    }
    let cfg = Config {
        inject_panic: true,
        ..Config::default()
    };
    let d = Disassembler::new(cfg).disassemble(&image);
    assert!(d.trace.phase("fallback.linear").is_some());
    assert_phases_are_spans("fallback", &d.trace);
    for b in Baseline::ALL {
        assert_phases_are_spans(b.name(), &b.disassemble(&image).trace);
    }
}

/// Every phase row has a span of the same name and wall time whose
/// counters include the row's item count (0 for a span without counters),
/// and the run total is the root span's wall time.
fn assert_phases_are_spans(run: &str, t: &PipelineTrace) {
    let root = t.spans.first().expect("root span");
    assert_eq!(root.parent, None, "{run}");
    assert_eq!(t.total_wall_ns, root.wall_ns, "{run}: total vs root span");
    for p in &t.phases {
        let span = t
            .spans
            .iter()
            .find(|s| s.name == p.name)
            .unwrap_or_else(|| panic!("{run}: no span for phase {}", p.name));
        assert_eq!(p.wall_ns, span.wall_ns, "{run}: phase {}", p.name);
        let counters: Vec<u64> = span
            .counters
            .iter()
            .filter(|(k, _)| !k.starts_with("alloc_"))
            .map(|&(_, v)| v)
            .collect();
        assert!(
            counters.contains(&p.items) || (counters.is_empty() && p.items == 0),
            "{run}: phase {} items {} not among span counters {:?}",
            p.name,
            p.items,
            span.counters
        );
    }
}

#[test]
fn corrections_by_priority_sums_to_log() {
    let (_, d) = workload_disassembly();
    assert_eq!(
        d.trace.corrections_total(),
        d.corrections.len() as u64,
        "per-priority correction counts must sum to the correction log"
    );
    for c in &d.corrections {
        assert!(d.trace.corrections_by_priority[c.winner as usize] > 0);
    }
}

#[test]
fn ablations_shrink_the_phase_set() {
    let w = bingen::Workload::generate(&bingen::GenConfig::small(22));
    let image = Image::new(w.text_base(), w.text.clone()).with_entry(w.entry_off);
    let cfg = Config {
        enable_stats: false,
        enable_viability: false,
        ..Config::default()
    };
    let d = Disassembler::new(cfg).disassemble(&image);
    assert!(d.trace.phase("stats.train").is_none());
    assert!(d.trace.phase("stats.classify").is_none());
    // trivial viability still records a (zero-iteration) phase
    assert_eq!(d.trace.viability_iterations, 0);
    assert!(d.trace.phase("viability").is_some());
    assert_eq!(d.decisions_by_priority[Priority::Behavioral as usize], 0);
}
