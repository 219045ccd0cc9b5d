//! Structural comparison of two disassemblies of the same image, and
//! regression comparison of two trace reports.
//!
//! Tool-disagreement analysis is how the paper's evaluation localizes error
//! sources: where does linear sweep desynchronize, which regions does
//! recursive traversal never reach, which bytes do two tools class
//! differently. This module computes those deltas.
//!
//! The second half ([`diff_trace_reports`]) compares two `metadis.trace.*`
//! JSON reports (a committed baseline vs a fresh run) against configurable
//! thresholds — per-phase wall time, iteration counts, degradations and
//! worker utilization — powering `metadis trace-diff` and the CI regression
//! gate.

use crate::{ByteClass, Disassembly};
use obs::json::JsonValue;
use std::collections::BTreeSet;
use std::fmt;

/// A maximal byte range on which the two disassemblies disagree about
/// code-vs-data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictRegion {
    /// First conflicting byte.
    pub start: u32,
    /// One past the last conflicting byte.
    pub end: u32,
    /// `true` if side A classed the first byte as code (B as data).
    pub a_is_code: bool,
}

impl ConflictRegion {
    /// Region length in bytes.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// `true` for an empty region (never produced by [`diff`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The delta between two disassemblies.
#[derive(Debug, Clone, Default)]
pub struct DisasmDiff {
    /// Instruction starts both tools accepted.
    pub agreed_starts: usize,
    /// Instruction starts only side A accepted.
    pub only_a: Vec<u32>,
    /// Instruction starts only side B accepted.
    pub only_b: Vec<u32>,
    /// Maximal byte regions with a code/data disagreement.
    pub conflicts: Vec<ConflictRegion>,
    /// Total bytes inside conflicting regions.
    pub conflict_bytes: usize,
}

impl DisasmDiff {
    /// Fraction of the union of accepted starts that both sides share.
    pub fn start_agreement(&self) -> f64 {
        let union = self.agreed_starts + self.only_a.len() + self.only_b.len();
        if union == 0 {
            1.0
        } else {
            self.agreed_starts as f64 / union as f64
        }
    }
}

impl fmt::Display for DisasmDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} shared starts, {} only-A, {} only-B ({:.2}% agreement); {} conflict regions covering {} bytes",
            self.agreed_starts,
            self.only_a.len(),
            self.only_b.len(),
            self.start_agreement() * 100.0,
            self.conflicts.len(),
            self.conflict_bytes
        )
    }
}

/// Compare two disassemblies of the same text region.
///
/// # Panics
///
/// Panics if the two disassemblies cover different byte counts (they must
/// come from the same image).
pub fn diff(a: &Disassembly, b: &Disassembly) -> DisasmDiff {
    assert_eq!(
        a.byte_class.len(),
        b.byte_class.len(),
        "disassemblies cover different images"
    );
    let sa: BTreeSet<u32> = a.inst_starts.iter().copied().collect();
    let sb: BTreeSet<u32> = b.inst_starts.iter().copied().collect();
    let agreed_starts = sa.intersection(&sb).count();
    let only_a: Vec<u32> = sa.difference(&sb).copied().collect();
    let only_b: Vec<u32> = sb.difference(&sa).copied().collect();

    let mut conflicts = Vec::new();
    let mut conflict_bytes = 0usize;
    let mut cur: Option<ConflictRegion> = None;
    let classify = |c: ByteClass| c.is_code();
    for i in 0..a.byte_class.len() {
        let ca = classify(a.byte_class[i]);
        let cb = classify(b.byte_class[i]);
        if ca != cb {
            conflict_bytes += 1;
            match cur.as_mut() {
                Some(r) if r.end as usize == i && r.a_is_code == ca => r.end += 1,
                _ => {
                    if let Some(r) = cur.take() {
                        conflicts.push(r);
                    }
                    cur = Some(ConflictRegion {
                        start: i as u32,
                        end: i as u32 + 1,
                        a_is_code: ca,
                    });
                }
            }
        } else if let Some(r) = cur.take() {
            conflicts.push(r);
        }
    }
    if let Some(r) = cur.take() {
        conflicts.push(r);
    }

    DisasmDiff {
        agreed_starts,
        only_a,
        only_b,
        conflicts,
        conflict_bytes,
    }
}

/// Thresholds for [`diff_trace_reports`].
///
/// Wall-time checks are ratio-based and gated behind an absolute floor
/// (`min_wall_ns`) because sub-millisecond phases are dominated by clock
/// noise; count checks (iterations, corrections) are deterministic and use
/// the tighter `max_count_ratio` behind `min_count`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceDiffConfig {
    /// Maximum allowed `new/old` ratio for wall times.
    pub max_wall_ratio: f64,
    /// Maximum allowed `new/old` ratio for deterministic counts.
    pub max_count_ratio: f64,
    /// Wall times where both sides are below this are never flagged.
    pub min_wall_ns: u64,
    /// Counts where both sides are below this are never flagged.
    pub min_count: u64,
    /// Accept new degradations (budget hits) instead of flagging them.
    pub allow_new_degradations: bool,
    /// Maximum allowed drop, in percentage points, of the v6
    /// `timeline_summary.worker_utilization` field before it is flagged.
    /// Only enforced when the baseline recorded a non-zero utilization
    /// (i.e. both runs had the flight recorder on).
    pub max_utilization_drop: f64,
}

impl Default for TraceDiffConfig {
    fn default() -> TraceDiffConfig {
        TraceDiffConfig {
            max_wall_ratio: 2.0,
            max_count_ratio: 1.25,
            min_wall_ns: 5_000_000,
            min_count: 16,
            allow_new_degradations: false,
            max_utilization_drop: 25.0,
        }
    }
}

/// One threshold violation found by [`diff_trace_reports`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRegression {
    /// Tool name the violation belongs to.
    pub tool: String,
    /// Metric that regressed (`wall_ns`, `phase.superset.wall_ns`,
    /// `timeline.critical_path_ns`, `timeline.worker_utilization`,
    /// `viability_iterations`, `corrections`, `degradations`, `present`).
    pub metric: String,
    /// Baseline value.
    pub old: f64,
    /// Fresh value.
    pub new: f64,
    /// The threshold it crossed (a ratio, or an absolute count cap).
    pub limit: f64,
}

impl fmt::Display for TraceRegression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: {} -> {} (limit {})",
            self.tool, self.metric, self.old, self.new, self.limit
        )
    }
}

/// Outcome of a trace-to-trace comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceDiffReport {
    /// Number of tools present in both reports.
    pub tools_compared: usize,
    /// Threshold violations, in discovery order.
    pub regressions: Vec<TraceRegression>,
    /// Non-fatal observations (new tools, vanished phases, schema skew).
    pub notes: Vec<String>,
}

impl TraceDiffReport {
    /// `true` when any threshold was crossed (the CI gate fails).
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Human rendering: a verdict line, a violation table, and the notes.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.regressions.is_empty() {
            out.push_str(&format!(
                "trace-diff: OK ({} tools compared, no regressions)\n",
                self.tools_compared
            ));
        } else {
            out.push_str(&format!(
                "trace-diff: REGRESSION ({} violations across {} tools)\n",
                self.regressions.len(),
                self.tools_compared
            ));
            let mut t = obs::TextTable::new(["tool", "metric", "old", "new", "limit"]);
            for r in &self.regressions {
                t.row([
                    r.tool.clone(),
                    r.metric.clone(),
                    format!("{}", r.old),
                    format!("{}", r.new),
                    format!("{}", r.limit),
                ]);
            }
            out.push_str(&t.render());
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// `true` when `new` grew past `old * ratio` (growth from zero always
/// trips).
fn ratio_exceeds(old: f64, new: f64, ratio: f64) -> bool {
    if new <= old {
        return false;
    }
    old == 0.0 || new / old > ratio
}

fn tool_name(tool: &JsonValue) -> &str {
    tool.get("tool").and_then(JsonValue::as_str).unwrap_or("?")
}

fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn arr_len(v: &JsonValue, key: &str) -> usize {
    v.get(key).and_then(JsonValue::as_arr).map_or(0, <[_]>::len)
}

/// Compare two parsed `metadis.trace.*` reports of any schema version:
/// fields an older record lacks read as 0, and a version mismatch is only
/// noted as schema skew.
///
/// # Errors
///
/// Returns a message when either value is not a trace report (missing or
/// foreign `schema`, or no `tools` array).
pub fn diff_trace_reports(
    old: &JsonValue,
    new: &JsonValue,
    cfg: &TraceDiffConfig,
) -> Result<TraceDiffReport, String> {
    let schema_of = |v: &JsonValue, side: &str| -> Result<String, String> {
        let s = v
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{side}: missing \"schema\" field"))?;
        if !s.starts_with("metadis.trace.") {
            return Err(format!("{side}: unsupported schema {s:?}"));
        }
        Ok(s.to_string())
    };
    let old_schema = schema_of(old, "baseline")?;
    let new_schema = schema_of(new, "current")?;

    let mut report = TraceDiffReport::default();
    if old_schema != new_schema {
        report
            .notes
            .push(format!("schema skew: {old_schema} vs {new_schema}"));
    }

    let tools = |v: &JsonValue, side: &str| -> Result<Vec<JsonValue>, String> {
        v.get("tools")
            .and_then(JsonValue::as_arr)
            .map(<[JsonValue]>::to_vec)
            .ok_or_else(|| format!("{side}: missing \"tools\" array"))
    };
    let old_tools = tools(old, "baseline")?;
    let new_tools = tools(new, "current")?;

    for nt in &new_tools {
        let name = tool_name(nt);
        if !old_tools.iter().any(|ot| tool_name(ot) == name) {
            report
                .notes
                .push(format!("new tool {name:?} (not in baseline)"));
        }
    }

    for ot in &old_tools {
        let name = tool_name(ot);
        let Some(nt) = new_tools.iter().find(|nt| tool_name(nt) == name) else {
            report.regressions.push(TraceRegression {
                tool: name.to_string(),
                metric: "present".to_string(),
                old: 1.0,
                new: 0.0,
                limit: 1.0,
            });
            continue;
        };
        report.tools_compared += 1;

        let mut wall_check = |metric: String, o: f64, n: f64| {
            if (o >= cfg.min_wall_ns as f64 || n >= cfg.min_wall_ns as f64)
                && ratio_exceeds(o, n, cfg.max_wall_ratio)
            {
                report.regressions.push(TraceRegression {
                    tool: name.to_string(),
                    metric,
                    old: o,
                    new: n,
                    limit: cfg.max_wall_ratio,
                });
            }
        };
        wall_check(
            "wall_ns".to_string(),
            num(ot, "wall_ns"),
            num(nt, "wall_ns"),
        );
        let phases = |t: &JsonValue| {
            t.get("phases")
                .and_then(JsonValue::as_arr)
                .map_or(Vec::new(), <[JsonValue]>::to_vec)
        };
        let new_phases = phases(nt);
        for op in phases(ot) {
            let pname = op.get("name").and_then(JsonValue::as_str).unwrap_or("?");
            match new_phases
                .iter()
                .find(|np| np.get("name").and_then(JsonValue::as_str) == Some(pname))
            {
                Some(np) => wall_check(
                    format!("phase.{pname}.wall_ns"),
                    num(&op, "wall_ns"),
                    num(np, "wall_ns"),
                ),
                None => report
                    .notes
                    .push(format!("{name}: phase {pname:?} vanished")),
            }
        }

        // v6 timeline fields: the critical path behaves like a wall time
        // (ratio behind the noise floor); a worker-utilization collapse is
        // flagged even when total wall time stays inside its ratio,
        // because it means the same work serialized onto fewer lanes.
        let tl = |t: &JsonValue, key: &str| {
            t.get("timeline_summary")
                .map_or(0.0, |s: &JsonValue| num(s, key))
        };
        wall_check(
            "timeline.critical_path_ns".to_string(),
            tl(ot, "critical_path_ns"),
            tl(nt, "critical_path_ns"),
        );
        let (outil, nutil) = (tl(ot, "worker_utilization"), tl(nt, "worker_utilization"));
        if outil > 0.0 && nutil < outil - cfg.max_utilization_drop {
            report.regressions.push(TraceRegression {
                tool: name.to_string(),
                metric: "timeline.worker_utilization".to_string(),
                old: outil,
                new: nutil,
                limit: cfg.max_utilization_drop,
            });
        }

        for count_metric in ["viability_iterations", "corrections"] {
            let (o, n) = (num(ot, count_metric), num(nt, count_metric));
            if (o >= cfg.min_count as f64 || n >= cfg.min_count as f64)
                && ratio_exceeds(o, n, cfg.max_count_ratio)
            {
                report.regressions.push(TraceRegression {
                    tool: name.to_string(),
                    metric: count_metric.to_string(),
                    old: o,
                    new: n,
                    limit: cfg.max_count_ratio,
                });
            }
        }

        let (od, nd) = (arr_len(ot, "degradations"), arr_len(nt, "degradations"));
        if nd > od && !cfg.allow_new_degradations {
            report.regressions.push(TraceRegression {
                tool: name.to_string(),
                metric: "degradations".to_string(),
                old: od as f64,
                new: nd as f64,
                limit: od as f64,
            });
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, Disassembler, Image};

    fn identical_diff() -> DisasmDiff {
        let text = vec![0x55, 0x48, 0x89, 0xe5, 0x5d, 0xc3];
        let image = Image::new(0x1000, text);
        let d1 = Disassembler::new(Config::default()).disassemble(&image);
        let d2 = Disassembler::new(Config::default()).disassemble(&image);
        diff(&d1, &d2)
    }

    #[test]
    fn identical_disassemblies_have_no_delta() {
        let d = identical_diff();
        assert!(d.only_a.is_empty());
        assert!(d.only_b.is_empty());
        assert!(d.conflicts.is_empty());
        assert_eq!(d.start_agreement(), 1.0);
    }

    #[test]
    fn different_tools_disagree_on_embedded_data() {
        let w = bingen::Workload::generate(&bingen::GenConfig::small(33));
        let image = Image::new(w.text_base(), w.text.clone()).with_entry(w.entry_off);
        let ours = Disassembler::new(Config::default()).disassemble(&image);
        let linear = disassemble_linear(&image);
        let d = diff(&ours, &linear);
        assert!(d.conflict_bytes > 0, "expected disagreement over data");
        assert!(d.start_agreement() < 1.0);
        // regions tile the conflicting bytes exactly
        let covered: usize = d.conflicts.iter().map(|r| r.len() as usize).sum();
        assert_eq!(covered, d.conflict_bytes);
        for r in &d.conflicts {
            assert!(!r.is_empty());
        }
    }

    // Local re-implementation of a linear sweep (the baselines crate depends
    // on this one, so tests here cannot use it).
    fn disassemble_linear(image: &Image) -> Disassembly {
        let n = image.text.len();
        let mut byte_class = vec![ByteClass::Data; n];
        let mut inst_starts = Vec::new();
        for (pos, r) in x86_isa::linear_instructions(&image.text) {
            if let Ok(inst) = r {
                inst_starts.push(pos as u32);
                byte_class[pos] = ByteClass::InstStart;
                for b in pos + 1..pos + inst.len as usize {
                    byte_class[b] = ByteClass::InstBody;
                }
            }
        }
        Disassembly {
            byte_class,
            inst_starts,
            func_starts: vec![],
            jump_tables: vec![],
            corrections: vec![],
            decisions_by_priority: [0; crate::Priority::COUNT],
            trace: crate::PipelineTrace::new(),
            provenance: crate::Prov::default(),
        }
    }

    fn report_json(wall_ns: u64, iterations: u64, degradations: usize) -> JsonValue {
        let mut t = crate::PipelineTrace::new();
        t.record("superset", wall_ns / 2, 4096, 100);
        t.total_wall_ns = wall_ns;
        t.text_bytes = 4096;
        t.viability_iterations = iterations;
        t.runs = 1;
        for _ in 0..degradations {
            t.degradations.push(crate::limits::Degradation {
                phase: "correct",
                limit: crate::limits::LimitKind::Deadline,
                completed: 1,
            });
        }
        let json = crate::trace::merged_report_json("test", &[("metadis".to_string(), t)]);
        obs::json::parse(&json).unwrap()
    }

    #[test]
    fn identical_trace_reports_pass() {
        let a = report_json(50_000_000, 100, 0);
        let r = diff_trace_reports(&a, &a, &TraceDiffConfig::default()).unwrap();
        assert!(!r.is_regression(), "{:?}", r.regressions);
        assert_eq!(r.tools_compared, 1);
        assert!(r.render_table().contains("OK"));
    }

    #[test]
    fn wall_blowup_is_flagged() {
        let old = report_json(50_000_000, 100, 0);
        let new = report_json(150_000_000, 100, 0);
        let r = diff_trace_reports(&old, &new, &TraceDiffConfig::default()).unwrap();
        assert!(r.is_regression());
        assert!(r.regressions.iter().any(|g| g.metric == "wall_ns"), "{r:?}");
        // per-phase blowup flagged too
        assert!(
            r.regressions
                .iter()
                .any(|g| g.metric == "phase.superset.wall_ns"),
            "{r:?}"
        );
        assert!(r.render_table().contains("REGRESSION"));
    }

    #[test]
    fn wall_noise_below_floor_ignored() {
        // 3x blowup but both sides under the 5ms floor: clock noise
        let old = report_json(1_000_000, 100, 0);
        let new = report_json(3_000_000, 100, 0);
        let r = diff_trace_reports(&old, &new, &TraceDiffConfig::default()).unwrap();
        assert!(!r.is_regression(), "{:?}", r.regressions);
    }

    #[test]
    fn iteration_growth_is_flagged() {
        let old = report_json(50_000_000, 100, 0);
        let new = report_json(50_000_000, 200, 0);
        let r = diff_trace_reports(&old, &new, &TraceDiffConfig::default()).unwrap();
        assert!(r
            .regressions
            .iter()
            .any(|g| g.metric == "viability_iterations"));
    }

    #[test]
    fn new_degradation_flagged_unless_allowed() {
        let old = report_json(50_000_000, 100, 0);
        let new = report_json(50_000_000, 100, 1);
        let cfg = TraceDiffConfig::default();
        let r = diff_trace_reports(&old, &new, &cfg).unwrap();
        assert!(r.regressions.iter().any(|g| g.metric == "degradations"));
        let lax = TraceDiffConfig {
            allow_new_degradations: true,
            ..cfg
        };
        let r = diff_trace_reports(&old, &new, &lax).unwrap();
        assert!(!r.is_regression(), "{:?}", r.regressions);
    }

    #[test]
    fn utilization_collapse_is_flagged() {
        let mk = |util: u64, critical_ns: u64| {
            let mut t = crate::PipelineTrace::new();
            t.record("superset", 25_000_000, 4096, 100);
            t.total_wall_ns = 50_000_000;
            t.runs = 1;
            t.timeline.worker_utilization = util;
            t.timeline.critical_path_ns = critical_ns;
            let json = crate::trace::merged_report_json("test", &[("metadis".to_string(), t)]);
            obs::json::parse(&json).unwrap()
        };
        let cfg = TraceDiffConfig::default();
        // drop past the threshold (80 -> 40, limit 25 points) is flagged
        let r = diff_trace_reports(&mk(80, 10_000_000), &mk(40, 10_000_000), &cfg).unwrap();
        assert!(
            r.regressions
                .iter()
                .any(|g| g.metric == "timeline.worker_utilization"),
            "{r:?}"
        );
        // a drop within the threshold passes
        let r = diff_trace_reports(&mk(80, 10_000_000), &mk(60, 10_000_000), &cfg).unwrap();
        assert!(!r.is_regression(), "{:?}", r.regressions);
        // recorder-off baselines (utilization 0) never gate
        let r = diff_trace_reports(&mk(0, 0), &mk(0, 0), &cfg).unwrap();
        assert!(!r.is_regression(), "{:?}", r.regressions);
        // critical-path blowup behaves like a wall-time ratio check
        let r = diff_trace_reports(&mk(80, 10_000_000), &mk(80, 30_000_000), &cfg).unwrap();
        assert!(
            r.regressions
                .iter()
                .any(|g| g.metric == "timeline.critical_path_ns"),
            "{r:?}"
        );
    }

    #[test]
    fn missing_tool_is_a_regression_new_tool_a_note() {
        let a = report_json(50_000_000, 100, 0);
        let empty = obs::json::parse(r#"{"schema":"metadis.trace.v3","tools":[]}"#).unwrap();
        let r = diff_trace_reports(&a, &empty, &TraceDiffConfig::default()).unwrap();
        assert!(r.regressions.iter().any(|g| g.metric == "present"));
        let r = diff_trace_reports(&empty, &a, &TraceDiffConfig::default()).unwrap();
        assert!(!r.is_regression());
        assert!(!r.notes.is_empty());
    }

    #[test]
    fn foreign_schema_rejected() {
        let a = report_json(1, 1, 0);
        let bad = obs::json::parse(r#"{"schema":"something.else","tools":[]}"#).unwrap();
        assert!(diff_trace_reports(&a, &bad, &TraceDiffConfig::default()).is_err());
        assert!(diff_trace_reports(&bad, &a, &TraceDiffConfig::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "different images")]
    fn mismatched_lengths_panic() {
        let a = Disassembler::new(Config::default()).disassemble(&Image::new(0, vec![0x90, 0xc3]));
        let b = Disassembler::new(Config::default()).disassemble(&Image::new(0, vec![0xc3]));
        let _ = diff(&a, &b);
    }
}
