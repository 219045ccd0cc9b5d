//! Table 2 — headline instruction-level accuracy per tool.
//!
//! The paper's central claim: the combined statistical + behavioral +
//! prioritized-correction pipeline is 3x–4x more accurate (fewer errors)
//! than the best prior approach on binaries with embedded data.

use bench::{banner, scaled};
use disasm_eval::harness::{evaluate, standard_lineup};
use disasm_eval::table::{f4, TextTable};
use disasm_eval::{train_standard_model, CorpusSpec};

fn main() {
    banner(
        "Table 2",
        "instruction-level precision/recall/F1 and total errors",
        "ours >= 3x fewer errors than the best baseline",
    );
    let mut spec = CorpusSpec::standard();
    spec.count = scaled(spec.count);
    let corpus = spec.generate();
    let model = train_standard_model(scaled(12));
    println!(
        "corpus: {} binaries, {} instructions, {} data bytes\n",
        corpus.workloads.len(),
        corpus.total_instructions(),
        corpus.total_data_bytes()
    );

    let mut t = TextTable::new([
        "tool",
        "precision",
        "recall",
        "F1",
        "FP",
        "FN",
        "errors",
        "errors/binary",
    ]);
    let mut best_baseline = usize::MAX;
    let mut ours_errors = 0usize;
    let mut traces = Vec::new();
    for tool in standard_lineup(model) {
        let r = evaluate(&tool, &corpus);
        traces.push((r.tool.clone(), r.trace.clone()));
        let m = r.score.inst;
        // per-binary error dispersion (mean ± sd)
        let per: Vec<f64> = r
            .per_workload
            .iter()
            .map(|s| s.inst.errors() as f64)
            .collect();
        let mean = per.iter().sum::<f64>() / per.len().max(1) as f64;
        let var =
            per.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / per.len().max(1) as f64;
        t.row([
            r.tool.clone(),
            f4(m.precision()),
            f4(m.recall()),
            f4(m.f1()),
            m.fp.to_string(),
            m.fn_.to_string(),
            m.errors().to_string(),
            format!("{mean:.1} ± {:.1}", var.sqrt()),
        ]);
        if r.tool.contains("ours") {
            ours_errors = m.errors();
        } else if !r.tool.contains("symbol-assisted") {
            best_baseline = best_baseline.min(m.errors());
        }
    }
    print!("{}", t.render());

    // per-profile breakdown: ours vs the strongest baseline
    let probabilistic = evaluate(
        &disasm_eval::Tool::Baseline(disasm_baselines::Baseline::Probabilistic),
        &corpus,
    );
    let ours = evaluate(
        &disasm_eval::Tool::ours(disasm_eval::train_standard_model(bench::scaled(12))),
        &corpus,
    );
    let mut p = TextTable::new(["profile", "probabilistic errors", "ours errors"]);
    for profile in bingen::OptProfile::ALL {
        let mut base_e = 0usize;
        let mut ours_e = 0usize;
        for (i, w) in corpus.workloads.iter().enumerate() {
            if w.config.profile == profile {
                base_e += probabilistic.per_workload[i].inst.errors();
                ours_e += ours.per_workload[i].inst.errors();
            }
        }
        p.row([
            profile.name().to_string(),
            base_e.to_string(),
            ours_e.to_string(),
        ]);
    }
    println!();
    print!("{}", p.render());

    if ours_errors > 0 {
        println!(
            "\nerror reduction vs best baseline: {:.1}x",
            best_baseline as f64 / ours_errors as f64
        );
    } else {
        println!("\nours made zero errors (baseline best: {best_baseline})");
    }

    let json = disasm_core::trace::merged_report_json("bench.table2_accuracy", &traces);
    bench::emit_bench_json("table2_accuracy", &json).expect("write perf record");
}
