//! Golden-file schema check: the `metadis.trace.v7` encoding is pinned
//! byte-for-byte against a checked-in file, so any change to a field's name,
//! order or encoding shows up as a diff (older records stay readable by
//! `trace-diff`, which compares field by field).
//!
//! Regenerate the golden after an *intentional* schema change with
//! `BLESS=1 cargo test -p disasm-core --test schema_golden`.

use disasm_core::trace::{merged_report_json, PipelineTrace};
use disasm_core::{Degradation, LimitKind};

const V7_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/trace_v7_golden.json"
);

/// A fully deterministic trace: fixed timings, one degradation, a two-span
/// tree with counters, fixed allocation totals, a sharded phase, a fixed
/// timeline summary. No clocks are read anywhere in this test.
fn sample_trace() -> PipelineTrace {
    let mut t = PipelineTrace::new();
    t.record_sharded("superset", 2_000_000, 4096, 4000, 4, 250_000);
    t.record("viability", 1_000_000, 4096, 1200);
    t.record("default", 50_000, 4096, 96);
    t.total_wall_ns = 4_000_000;
    t.text_bytes = 4096;
    t.viability_iterations = 321;
    t.corrections_by_priority = [1, 0, 5, 2, 0];
    t.runs = 1;
    t.degradations.push(Degradation {
        phase: "correct",
        limit: LimitKind::CorrectionSteps,
        completed: 17,
    });
    t.spans.push(obs::Span {
        id: 0,
        parent: None,
        name: "pipeline",
        start_ns: 0,
        wall_ns: 4_000_000,
        counters: Vec::new(),
    });
    t.spans.push(obs::Span {
        id: 1,
        parent: Some(0),
        name: "superset",
        start_ns: 100,
        wall_ns: 2_000_000,
        counters: vec![("bytes", 4096), ("candidates", 4000)],
    });
    t.alloc_bytes = 786_432;
    t.alloc_peak = 262_144;
    t.threads = 4;
    t.timeline.critical_path_ns = 2_600_000;
    t.timeline.worker_utilization = 83;
    t.timeline.shard_skew = 12;
    t
}

fn sample_report() -> String {
    merged_report_json("golden", &[("metadis (ours)".to_string(), sample_trace())])
}

#[test]
fn v7_report_matches_golden_byte_for_byte() {
    let got = sample_report();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(V7_GOLDEN, &got).unwrap();
    }
    let want = std::fs::read_to_string(V7_GOLDEN).unwrap();
    assert_eq!(got, want, "v7 encoding drifted; BLESS=1 if intentional");
}

#[test]
fn goldens_declare_their_schemas() {
    let v7 = std::fs::read_to_string(V7_GOLDEN).unwrap();
    assert!(v7.contains(r#""schema":"metadis.trace.v7""#));
    assert!(v7.contains(
        r#""timeline_summary":{"critical_path_ns":2600000,"worker_utilization":83,"shard_skew":12}"#
    ));
    assert!(!v7.contains(r#""metrics""#));
    for key in [
        r#""text_bytes""#,
        r#""wall_ns""#,
        r#""viability_iterations""#,
        r#""corrections_by_priority""#,
        r#""phases""#,
        r#""degradations""#,
        r#""spans""#,
        r#""alloc_bytes""#,
        r#""threads""#,
    ] {
        assert!(v7.contains(key), "v7 missing {key}");
    }
}
