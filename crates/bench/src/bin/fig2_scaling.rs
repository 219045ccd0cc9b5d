//! Figure 2 — runtime scaling: wall time and throughput vs binary size.

use bench::{banner, quick};
use disasm_eval::harness::{evaluate, standard_lineup};
use disasm_eval::table::{f2, TextTable};
use disasm_eval::{train_standard_model, CorpusSpec};

fn main() {
    banner(
        "Figure 2",
        "disassembly wall time (ms) and throughput (MiB/s) vs text size",
        "all tools scale near-linearly; superset-based tools pay a constant factor",
    );
    let sizes: &[usize] = if quick() {
        &[16 * 1024, 64 * 1024]
    } else {
        &[16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024]
    };
    let model = train_standard_model(if quick() { 4 } else { 12 });
    let tools = standard_lineup(model);

    let mut t = TextTable::new(
        ["text size"]
            .into_iter()
            .map(String::from)
            .chain(
                tools
                    .iter()
                    .flat_map(|t| [format!("{} ms", t.name()), format!("{} MiB/s", t.name())]),
            )
            .collect::<Vec<_>>(),
    );
    let mut traces: Vec<(String, disasm_core::PipelineTrace)> = tools
        .iter()
        .map(|t| (t.name(), disasm_core::PipelineTrace::new()))
        .collect();
    for &size in sizes {
        let corpus = CorpusSpec::with_size(size).generate();
        let mut row = vec![format!(
            "{} KiB",
            corpus.total_text_bytes() / corpus.workloads.len() / 1024
        )];
        for (tool, (_, trace)) in tools.iter().zip(&mut traces) {
            let r = evaluate(tool, &corpus);
            trace.merge(&r.trace);
            row.push(f2(
                r.elapsed.as_secs_f64() * 1000.0 / corpus.workloads.len() as f64
            ));
            row.push(f2(r.throughput_mib_s()));
        }
        t.row(row);
    }
    print!("{}", t.render());

    let json = disasm_core::trace::merged_report_json("bench.fig2_scaling", &traces);
    bench::emit_bench_json("fig2_scaling", &json).expect("write perf record");
}
