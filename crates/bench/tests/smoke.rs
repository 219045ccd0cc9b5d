//! Smoke tests: every table/figure binary must run to completion in QUICK
//! mode and print a sane result. This keeps the experiment suite from
//! bit-rotting as the pipeline evolves — and asserts the headline claims
//! hold even on the reduced corpora.

use std::process::Command;

fn run_quick(exe: &str) -> String {
    let out = Command::new(exe)
        .env("QUICK", "1")
        // keep perf records out of the repo root during tests
        .env("BENCH_JSON_DIR", std::env::temp_dir())
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} exited with {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn table1_corpus_smoke() {
    let s = run_quick(env!("CARGO_BIN_EXE_table1_corpus"));
    assert!(s.contains("O0"), "{s}");
    assert!(s.contains("total"), "{s}");
}

#[test]
fn table2_accuracy_smoke() {
    let s = run_quick(env!("CARGO_BIN_EXE_table2_accuracy"));
    assert!(s.contains("metadis (ours)"), "{s}");
    // the headline claim must hold even on the reduced corpus
    let factor_line = s
        .lines()
        .find(|l| l.contains("error reduction"))
        .unwrap_or_else(|| panic!("no reduction line in:\n{s}"));
    let factor: f64 = factor_line
        .split(':')
        .nth(1)
        .and_then(|v| v.trim().trim_end_matches('x').parse().ok())
        .unwrap_or(f64::INFINITY); // "zero errors" phrasing counts as a pass
    assert!(factor >= 3.0, "reduction factor {factor} < 3.0\n{s}");
    assert!(s.contains("perf record written"), "{s}");
    let record = std::env::temp_dir().join("BENCH_table2_accuracy.json");
    let json = std::fs::read_to_string(record).unwrap();
    assert!(json.contains(r#""schema":"metadis.trace.v7""#), "{json}");
    assert!(json.contains(r#""tool":"metadis (ours)""#), "{json}");
}

#[test]
fn table3_bytes_smoke() {
    let s = run_quick(env!("CARGO_BIN_EXE_table3_bytes"));
    assert!(s.contains("byte accuracy"), "{s}");
}

#[test]
fn table4_ablation_smoke() {
    let s = run_quick(env!("CARGO_BIN_EXE_table4_ablation"));
    assert!(s.contains("full pipeline"), "{s}");
    assert!(s.contains("statistics only"), "{s}");
}

#[test]
fn table5_jumptables_smoke() {
    let s = run_quick(env!("CARGO_BIN_EXE_table5_jumptables"));
    assert!(s.contains("recall"), "{s}");
    // recall printed as 4-decimal float; demand ≥ 0.9 on the quick corpus
    let recall_line = s.lines().find(|l| l.starts_with("recall")).unwrap();
    let recall: f64 = recall_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(recall >= 0.9, "{s}");
}

#[test]
fn table6_functions_smoke() {
    let s = run_quick(env!("CARGO_BIN_EXE_table6_functions"));
    assert!(s.contains("metadis (ours)"), "{s}");
}

#[test]
fn table7_adversarial_smoke() {
    let s = run_quick(env!("CARGO_BIN_EXE_table7_adversarial"));
    assert!(s.contains("metadis (ours)"), "{s}");
}

#[test]
fn fig1_density_smoke() {
    let s = run_quick(env!("CARGO_BIN_EXE_fig1_density"));
    assert!(s.contains("0%"), "{s}");
    assert!(s.contains("40%"), "{s}");
}

#[test]
fn fig2_scaling_smoke() {
    let s = run_quick(env!("CARGO_BIN_EXE_fig2_scaling"));
    assert!(s.contains("MiB/s"), "{s}");
    assert!(s.contains("perf record written"), "{s}");
}

#[test]
fn fig3_training_smoke() {
    let s = run_quick(env!("CARGO_BIN_EXE_fig3_training"));
    assert!(s.contains("self-trained"), "{s}");
}

#[test]
fn fig4_convergence_smoke() {
    let s = run_quick(env!("CARGO_BIN_EXE_fig4_convergence"));
    assert!(s.contains("adversarial + correction"), "{s}");
}

#[test]
fn fig5_threshold_smoke() {
    let s = run_quick(env!("CARGO_BIN_EXE_fig5_threshold"));
    assert!(s.contains("+1.5"), "{s}");
}
