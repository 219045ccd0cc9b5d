//! Degradation-path coverage: every [`Limits`] field, set to a tiny value,
//! must produce a *partial* result that (a) records the matching
//! [`Degradation`] in the trace and (b) still classifies every text byte —
//! the final leftovers-are-data rule is never skipped.

use disasm_core::{Config, Disassembler, Image, LimitKind, Limits};
use x86_isa::{Asm, Cond, Gp, Mem, OpSize};

/// A realistic workload: generated code with embedded data.
fn workload() -> Image {
    let w = bingen::Workload::generate(&bingen::GenConfig::small(33));
    Image::new(w.text_base(), w.text.clone()).with_entry(w.entry_off)
}

fn disasm_with(limits: Limits, image: &Image) -> disasm_core::Disassembly {
    let cfg = Config {
        limits,
        ..Config::default()
    };
    Disassembler::new(cfg).disassemble(image)
}

/// Every byte classified, regardless of how degraded the run was.
fn assert_full_coverage(image: &Image, d: &disasm_core::Disassembly) {
    assert_eq!(d.byte_class.len(), image.text.len());
}

fn has_limit(d: &disasm_core::Disassembly, limit: LimitKind) -> bool {
    d.trace.degradations.iter().any(|g| g.limit == limit)
}

#[test]
fn unlimited_run_has_no_degradations() {
    let image = workload();
    let d = disasm_with(Limits::unlimited(), &image);
    assert!(
        d.trace.degradations.is_empty(),
        "{:?}",
        d.trace.degradations
    );
    assert!(!d.trace.is_degraded());
}

#[test]
fn superset_candidate_cap_degrades() {
    let image = workload();
    let d = disasm_with(
        Limits {
            max_superset_candidates: Some(8),
            ..Limits::default()
        },
        &image,
    );
    assert!(has_limit(&d, LimitKind::SupersetCandidates));
    assert!(d.trace.is_degraded());
    let g = d
        .trace
        .degradations
        .iter()
        .find(|g| g.limit == LimitKind::SupersetCandidates)
        .unwrap();
    assert_eq!(g.phase, "superset");
    assert!(g.completed <= image.text.len() as u64);
    assert_full_coverage(&image, &d);
}

#[test]
fn viability_iteration_cap_degrades() {
    let image = workload();
    let d = disasm_with(
        Limits {
            max_viability_iterations: Some(2),
            ..Limits::default()
        },
        &image,
    );
    assert!(has_limit(&d, LimitKind::ViabilityIterations));
    assert!(d.trace.viability_iterations <= 2);
    assert_full_coverage(&image, &d);
}

#[test]
fn correction_step_cap_degrades() {
    let image = workload();
    let d = disasm_with(
        Limits {
            max_correction_steps: Some(3),
            ..Limits::default()
        },
        &image,
    );
    assert!(has_limit(&d, LimitKind::CorrectionSteps));
    let g = d
        .trace
        .degradations
        .iter()
        .find(|g| g.limit == LimitKind::CorrectionSteps)
        .unwrap();
    assert_eq!(g.phase, "correct");
    assert_eq!(g.completed, 3);
    // with almost no acceptance budget, nearly everything falls to data
    assert!(d.inst_starts.len() <= 3);
    assert_full_coverage(&image, &d);
}

#[test]
fn jump_table_entry_cap_degrades() {
    // The canonical PIC switch: cmp/ja bound of 6 entries, but the budget
    // allows following only 2.
    let mut a = Asm::new();
    let l_table = a.label();
    let l_default = a.label();
    let l_end = a.label();
    let cases: Vec<_> = (0..6).map(|_| a.label()).collect();
    a.cmp_ri(OpSize::Q, Gp::RDI, 5);
    a.jcc_label(Cond::A, l_default);
    a.lea_rip_label(Gp::RAX, l_table);
    a.movsxd_load(Gp::RCX, Mem::base_index(Gp::RAX, Gp::RDI, 4, 0));
    a.add_rr(OpSize::Q, Gp::RCX, Gp::RAX);
    a.jmp_ind(Gp::RCX);
    a.bind(l_table);
    for &c in &cases {
        a.dd_label_diff(c, l_table);
    }
    for &c in &cases {
        a.bind(c);
        a.mov_ri32(Gp::RAX, 1);
        a.jmp_label(l_end);
    }
    a.bind(l_default);
    a.mov_ri32(Gp::RAX, 0);
    a.bind(l_end);
    a.ret();
    let image = Image::new(0x401000, a.finish().unwrap());
    let d = disasm_with(
        Limits {
            max_table_entries: 2,
            ..Limits::default()
        },
        &image,
    );
    assert!(has_limit(&d, LimitKind::JumpTableEntries));
    assert_eq!(d.jump_tables.len(), 1);
    assert!(d.jump_tables[0].capped);
    assert_eq!(d.jump_tables[0].targets.len(), 2);
    assert_full_coverage(&image, &d);
}

#[test]
fn train_token_cap_degrades() {
    let image = workload();
    let d = disasm_with(
        Limits {
            max_train_tokens: Some(4),
            ..Limits::default()
        },
        &image,
    );
    assert!(has_limit(&d, LimitKind::TrainTokens));
    let g = d
        .trace
        .degradations
        .iter()
        .find(|g| g.limit == LimitKind::TrainTokens)
        .unwrap();
    assert_eq!(g.phase, "stats.train");
    assert_eq!(g.completed, 4);
    assert_full_coverage(&image, &d);
}

#[test]
fn zero_deadline_degrades_but_classifies_everything() {
    let image = workload();
    let d = disasm_with(Limits::with_deadline_ms(0), &image);
    assert!(has_limit(&d, LimitKind::Deadline));
    // with no time budget at all, the run still returns a fully classified
    // (all-data) result rather than hanging or panicking
    assert_full_coverage(&image, &d);
}

#[test]
fn injected_panic_falls_back_to_linear_sweep() {
    let image = workload();
    let cfg = Config {
        inject_panic: true,
        ..Config::default()
    };
    let d = Disassembler::new(cfg).disassemble(&image);
    assert!(has_limit(&d, LimitKind::PhasePanicked));
    let g = d
        .trace
        .degradations
        .iter()
        .find(|g| g.limit == LimitKind::PhasePanicked)
        .unwrap();
    assert_eq!(g.phase, "pipeline");
    assert!(d.trace.phase("fallback.linear").is_some());
    assert!(!d.inst_starts.is_empty());
    assert_full_coverage(&image, &d);
}

#[test]
fn degradations_serialize_in_trace_json() {
    let image = workload();
    let d = disasm_with(
        Limits {
            max_correction_steps: Some(1),
            ..Limits::default()
        },
        &image,
    );
    let json = disasm_core::trace::trace_report_json("e2e", &[("metadis".to_string(), d)]);
    assert!(json.contains(r#""schema":"metadis.trace.v7""#), "{json}");
    assert!(!json.contains(r#""metrics""#), "{json}");
    assert!(json.contains(r#""redecodes":"#), "{json}");
    assert!(json.contains(r#""degradations":["#), "{json}");
    assert!(json.contains(r#""limit":"correction_steps""#), "{json}");
    assert!(json.contains(r#""phase":"correct""#), "{json}");
}

#[test]
fn budgets_only_shrink_results_never_invent() {
    // Every instruction start accepted under a tight budget must also be
    // accepted by the unlimited run (budgets shrink evidence, they do not
    // fabricate it). Data/padding may differ, code acceptance may not grow.
    let image = workload();
    let full = disasm_with(Limits::unlimited(), &image);
    let tight = disasm_with(
        Limits {
            max_viability_iterations: Some(8),
            max_correction_steps: Some(64),
            ..Limits::default()
        },
        &image,
    );
    assert!(tight.inst_starts.len() <= full.inst_starts.len() + tight.trace.degradations.len());
    assert_full_coverage(&image, &tight);
}
