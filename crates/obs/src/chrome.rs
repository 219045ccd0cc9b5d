//! Chrome trace-event export and timeline analysis.
//!
//! Consumes the flat event stream of [`crate::timeline`] and produces:
//!
//! * [`write_chrome_trace`] — the JSON object format of the Chrome
//!   trace-event spec (loadable in Perfetto / `chrome://tracing`): one
//!   lane per recording thread, `B`/`E` duration events for regions and
//!   shards, `i` instant markers, thread-name metadata records.
//! * [`analyze`] — span reconstruction plus the critical-path /
//!   worker-utilization / shard-skew numbers stamped into the
//!   `metadis.trace.*` schema ([`TimelineSummary`]).
//! * [`render_summary`] — the human `--profile-summary` report (headline
//!   numbers, per-lane utilization table, shard-duration table).
//!
//! The critical path model follows the pipeline's fork/join structure:
//! each top-level phase contributes its slowest shard plus the
//! coordinator's merge wait when it fanned out, or its whole wall when it
//! ran serially — the sum is the time the run would still take with
//! unlimited workers.

use crate::json::JsonWriter;
use crate::timeline::{dropped, Event, EventKind, TimelineSummary, MERGE_WAIT_NAME, NO_SHARD};
use crate::TextTable;
use std::collections::BTreeMap;

/// A span reconstructed from balanced begin/end events on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlSpan {
    /// Event name shared by the begin/end pair.
    pub name: &'static str,
    /// Recording lane.
    pub tid: u32,
    /// Shard index, [`NO_SHARD`] for unsharded regions.
    pub shard: u32,
    /// Begin timestamp (ns since timeline origin).
    pub start_ns: u64,
    /// End timestamp; unmatched begins close at the last event seen.
    pub end_ns: u64,
    /// Nesting depth within this lane's stack (0 = outermost).
    pub depth: u32,
}

impl TlSpan {
    /// Span duration in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Reconstruct spans from an event stream by replaying each lane's
/// begin/end stack. Events must be in record order per lane (the order
/// [`crate::timeline::take`] and `absorb` preserve); lanes may interleave
/// arbitrarily. Unmatched begins are force-closed at the stream's last
/// timestamp; unmatched ends are ignored.
pub fn spans_of(events: &[Event]) -> Vec<TlSpan> {
    let max_ts = events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
    let mut stacks: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    let mut out: Vec<TlSpan> = Vec::new();
    for e in events {
        match e.kind {
            EventKind::Begin => {
                let st = stacks.entry(e.tid).or_default();
                out.push(TlSpan {
                    name: e.name,
                    tid: e.tid,
                    shard: e.shard,
                    start_ns: e.ts_ns,
                    end_ns: max_ts,
                    depth: st.len() as u32,
                });
                st.push(out.len() - 1);
            }
            EventKind::End => {
                if let Some(i) = stacks.get_mut(&e.tid).and_then(|s| s.pop()) {
                    out[i].end_ns = e.ts_ns.max(out[i].start_ns);
                }
            }
            EventKind::Instant => {}
        }
    }
    out
}

/// Per-lane utilization over the run window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStat {
    /// Recording lane.
    pub tid: u32,
    /// Nanoseconds this lane had an outermost span open.
    pub busy_ns: u64,
    /// `busy_ns` as a percentage of the run window.
    pub util_pct: u64,
}

/// Shard-duration statistics for one sharded region name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardGroup {
    /// Region name the shards belong to.
    pub name: &'static str,
    /// Number of shard spans observed.
    pub count: u64,
    /// Fastest shard, ns.
    pub min_ns: u64,
    /// Slowest shard, ns.
    pub max_ns: u64,
    /// Sum of all shard durations, ns.
    pub total_ns: u64,
    /// `(max - min) * 100 / max`, 0 when balanced.
    pub skew_pct: u64,
}

/// Full timeline analysis: headline summary plus the per-lane and
/// per-shard-group breakdowns the profile report renders.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// The trace schema's `timeline_summary` headline numbers.
    pub summary: TimelineSummary,
    /// Worker-lane utilization, lane order (coordinator lane excluded).
    pub lanes: Vec<LaneStat>,
    /// Shard-duration stats grouped by region name, name order.
    pub shard_groups: Vec<ShardGroup>,
    /// Phase contributions along the critical path, begin order:
    /// `(phase name, contribution ns, sharded)`.
    pub path: Vec<(&'static str, u64, bool)>,
}

fn pct(part: u64, whole: u64) -> u64 {
    part.saturating_mul(100).checked_div(whole).unwrap_or(0)
}

/// Analyze an event stream (see the module docs for the model).
pub fn analyze(events: &[Event]) -> Analysis {
    if events.is_empty() {
        return Analysis::default();
    }
    let spans = spans_of(events);
    let min_ts = events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
    let max_ts = events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
    let total_wall_ns = max_ts.saturating_sub(min_ts);
    let root_tid = events[0].tid;

    // Phases: the direct children of a single root span on the
    // coordinating lane, or that lane's outermost spans when it has
    // several (e.g. a flight buffer of independent requests).
    let roots: Vec<&TlSpan> = spans
        .iter()
        .filter(|s| s.tid == root_tid && s.depth == 0)
        .collect();
    let mut phases: Vec<&TlSpan> = if roots.len() == 1 {
        spans
            .iter()
            .filter(|s| s.tid == root_tid && s.depth == 1)
            .collect()
    } else {
        roots.clone()
    };
    if phases.is_empty() {
        phases = roots;
    }

    let merge_spans: Vec<&TlSpan> = spans
        .iter()
        .filter(|s| s.name == MERGE_WAIT_NAME && s.tid == root_tid)
        .collect();
    let worker_shards: Vec<&TlSpan> = spans
        .iter()
        .filter(|s| s.tid != root_tid && s.shard != NO_SHARD)
        .collect();

    let mut path: Vec<(&'static str, u64, bool)> = Vec::new();
    for p in &phases {
        let in_window =
            |s: &&&TlSpan| s.start_ns >= p.start_ns && s.start_ns < p.end_ns.max(p.start_ns + 1);
        let slowest = worker_shards
            .iter()
            .filter(in_window)
            .map(|s| s.wall_ns())
            .max();
        match slowest {
            Some(shard_ns) => {
                let merge_ns: u64 = merge_spans
                    .iter()
                    .filter(in_window)
                    .map(|s| s.wall_ns())
                    .sum();
                path.push((p.name, shard_ns.saturating_add(merge_ns), true));
            }
            None => path.push((p.name, p.wall_ns(), false)),
        }
    }
    let critical_path_ns = if path.is_empty() {
        total_wall_ns
    } else {
        path.iter().map(|(_, ns, _)| *ns).sum()
    };

    // Worker utilization: outermost-span busy time per non-root lane.
    let mut busy: BTreeMap<u32, u64> = BTreeMap::new();
    for s in &spans {
        if s.tid != root_tid && s.depth == 0 {
            *busy.entry(s.tid).or_default() += s.wall_ns();
        }
    }
    let lanes: Vec<LaneStat> = busy
        .iter()
        .map(|(&tid, &busy_ns)| LaneStat {
            tid,
            busy_ns,
            util_pct: pct(busy_ns, total_wall_ns).min(100),
        })
        .collect();
    let worker_utilization = if lanes.is_empty() {
        100
    } else {
        lanes.iter().map(|l| l.util_pct).sum::<u64>() / lanes.len() as u64
    };

    // Shard-duration groups over every sharded span, any lane (the
    // sequential path records shards on the coordinator lane).
    let mut groups: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in &spans {
        if s.shard != NO_SHARD {
            groups.entry(s.name).or_default().push(s.wall_ns());
        }
    }
    let shard_groups: Vec<ShardGroup> = groups
        .into_iter()
        .map(|(name, walls)| {
            let min_ns = walls.iter().copied().min().unwrap_or(0);
            let max_ns = walls.iter().copied().max().unwrap_or(0);
            ShardGroup {
                name,
                count: walls.len() as u64,
                min_ns,
                max_ns,
                total_ns: walls.iter().sum(),
                skew_pct: pct(max_ns.saturating_sub(min_ns), max_ns),
            }
        })
        .collect();
    let shard_skew = shard_groups
        .iter()
        .filter(|g| g.count >= 2)
        .map(|g| g.skew_pct)
        .max()
        .unwrap_or(0);

    Analysis {
        summary: TimelineSummary {
            critical_path_ns,
            worker_utilization,
            shard_skew,
            merge_wait_ns: merge_spans.iter().map(|s| s.wall_ns()).sum(),
            total_wall_ns,
            workers: lanes.len() as u64,
        },
        lanes,
        shard_groups,
        path,
    }
}

/// Shorthand: the headline summary of [`analyze`].
pub fn summarize(events: &[Event]) -> TimelineSummary {
    analyze(events).summary
}

fn lane_name(tid: u32) -> String {
    if tid == 0 {
        "main".to_string()
    } else {
        format!("worker-{tid}")
    }
}

/// Serialize events into Chrome trace-event JSON (object format):
/// `{"traceEvents": [...], "displayTimeUnit": "ms", ...}`. Timestamps are
/// microseconds from the timeline origin; every recording lane gets a
/// `thread_name` metadata record so Perfetto labels the lanes.
pub fn write_chrome_trace(events: &[Event]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("traceEvents");
    w.begin_arr();
    let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        w.begin_obj();
        w.field_str("name", "thread_name");
        w.field_str("ph", "M");
        w.field_u64("pid", 1);
        w.field_u64("tid", u64::from(*tid));
        w.key("args");
        w.begin_obj();
        w.field_str("name", &lane_name(*tid));
        w.end_obj();
        w.end_obj();
    }
    for e in events {
        w.begin_obj();
        w.field_str("name", e.name);
        let ph = match e.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
        };
        w.field_str("ph", ph);
        w.field_f64("ts", e.ts_ns as f64 / 1000.0);
        w.field_u64("pid", 1);
        w.field_u64("tid", u64::from(e.tid));
        if e.kind == EventKind::Instant {
            w.field_str("s", "t");
        }
        if e.shard != NO_SHARD || e.arg != 0 || e.req_id != 0 {
            w.key("args");
            w.begin_obj();
            if e.shard != NO_SHARD {
                w.field_u64("shard", u64::from(e.shard));
            }
            if e.arg != 0 {
                w.field_u64("arg", e.arg);
            }
            if e.req_id != 0 {
                w.field_str("req_id", &format!("{:016x}", e.req_id));
            }
            w.end_obj();
        }
        w.end_obj();
    }
    w.end_arr();
    w.field_str("displayTimeUnit", "ms");
    w.key("otherData");
    w.begin_obj();
    w.field_u64("dropped_events", dropped());
    w.end_obj();
    w.end_obj();
    w.finish()
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Render the human `--profile-summary` report: headline numbers, then
/// the critical-path phase table, worker-lane utilization, and
/// shard-duration groups.
pub fn render_summary(events: &[Event]) -> String {
    let a = analyze(events);
    let mut out = String::new();
    out.push_str(&format!(
        "events          {}\nrun window      {} ms\ncritical path   {} ms\nmerge wait      {} ms\nworker lanes    {}\nutilization     {}%\nshard skew      {}%\n",
        events.len(),
        ms(a.summary.total_wall_ns),
        ms(a.summary.critical_path_ns),
        ms(a.summary.merge_wait_ns),
        a.summary.workers,
        a.summary.worker_utilization,
        a.summary.shard_skew,
    ));
    if !a.path.is_empty() {
        out.push('\n');
        let mut t = TextTable::new(["phase", "critical ms", "mode"]);
        for (name, ns, sharded) in &a.path {
            t.row([
                (*name).to_string(),
                ms(*ns),
                if *sharded { "sharded" } else { "serial" }.to_string(),
            ]);
        }
        out.push_str(&t.render());
    }
    if !a.lanes.is_empty() {
        out.push('\n');
        let mut t = TextTable::new(["lane", "busy ms", "util %"]);
        for l in &a.lanes {
            t.row([lane_name(l.tid), ms(l.busy_ns), l.util_pct.to_string()]);
        }
        out.push_str(&t.render());
    }
    if !a.shard_groups.is_empty() {
        out.push('\n');
        let mut t = TextTable::new(["shards", "count", "min ms", "max ms", "total ms", "skew %"]);
        for g in &a.shard_groups {
            t.row([
                g.name.to_string(),
                g.count.to_string(),
                ms(g.min_ns),
                ms(g.max_ns),
                ms(g.total_ns),
                g.skew_pct.to_string(),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, tid: u32, kind: EventKind, name: &'static str, shard: u32) -> Event {
        Event {
            ts_ns: ts,
            tid,
            kind,
            name,
            shard,
            arg: 0,
            req_id: 0,
        }
    }

    /// A synthetic two-phase run: `superset` fans out to two workers
    /// (shards of 80 ns and 40 ns, 10 ns merge wait), `classify` runs
    /// serially for 50 ns.
    fn fixture() -> Vec<Event> {
        use EventKind::{Begin, End};
        vec![
            ev(0, 0, Begin, "pipeline", NO_SHARD),
            ev(10, 0, Begin, "superset", NO_SHARD),
            ev(12, 1, Begin, "superset.shard", 0),
            ev(92, 1, End, "superset.shard", 0),
            ev(12, 2, Begin, "superset.shard", 1),
            ev(52, 2, End, "superset.shard", 1),
            ev(90, 0, Begin, MERGE_WAIT_NAME, NO_SHARD),
            ev(100, 0, End, MERGE_WAIT_NAME, NO_SHARD),
            ev(100, 0, End, "superset", NO_SHARD),
            ev(100, 0, Begin, "classify", NO_SHARD),
            ev(150, 0, End, "classify", NO_SHARD),
            ev(150, 0, End, "pipeline", NO_SHARD),
        ]
    }

    #[test]
    fn spans_reconstruct_with_depth() {
        let spans = spans_of(&fixture());
        assert_eq!(spans.len(), 6);
        let root = spans.iter().find(|s| s.name == "pipeline").unwrap();
        assert_eq!((root.depth, root.wall_ns()), (0, 150));
        let sup = spans.iter().find(|s| s.name == "superset").unwrap();
        assert_eq!((sup.depth, sup.wall_ns()), (1, 90));
        let shard0 = spans.iter().find(|s| s.shard == 0).unwrap();
        assert_eq!((shard0.tid, shard0.depth, shard0.wall_ns()), (1, 0, 80));
    }

    #[test]
    fn unmatched_begin_closes_at_end_of_stream() {
        let evs = vec![
            ev(0, 0, EventKind::Begin, "a", NO_SHARD),
            ev(5, 0, EventKind::Instant, "tick", NO_SHARD),
        ];
        let spans = spans_of(&evs);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].wall_ns(), 5);
    }

    #[test]
    fn analysis_critical_path_utilization_skew() {
        let a = analyze(&fixture());
        // superset: slowest shard 80 + merge 10; classify: serial 50
        assert_eq!(a.summary.critical_path_ns, 80 + 10 + 50);
        assert_eq!(a.summary.merge_wait_ns, 10);
        assert_eq!(a.summary.total_wall_ns, 150);
        assert_eq!(a.summary.workers, 2);
        // lanes: worker-1 busy 80/150 = 53%, worker-2 busy 40/150 = 26%
        assert_eq!(a.summary.worker_utilization, (53 + 26) / 2);
        // skew: (80 - 40) * 100 / 80 = 50%
        assert_eq!(a.summary.shard_skew, 50);
        assert_eq!(
            a.path,
            vec![("superset", 90, true), ("classify", 50, false)]
        );
        assert_eq!(a.shard_groups.len(), 1);
        assert_eq!(a.shard_groups[0].count, 2);
    }

    #[test]
    fn serial_run_is_fully_utilized() {
        use EventKind::{Begin, End};
        let evs = vec![
            ev(0, 0, Begin, "pipeline", NO_SHARD),
            ev(0, 0, Begin, "superset", NO_SHARD),
            ev(70, 0, End, "superset", NO_SHARD),
            ev(100, 0, End, "pipeline", NO_SHARD),
        ];
        let a = analyze(&evs);
        assert_eq!(a.summary.worker_utilization, 100);
        assert_eq!(a.summary.workers, 0);
        assert_eq!(a.summary.shard_skew, 0);
        assert_eq!(a.summary.critical_path_ns, 70);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_lanes() {
        let json = write_chrome_trace(&fixture());
        let v = crate::json::parse(&json).unwrap();
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 thread_name metadata records + 12 events
        assert_eq!(evs.len(), 15);
        let meta: Vec<&crate::json::JsonValue> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 3);
        assert_eq!(
            meta[0].path("args.name").and_then(|v| v.as_str()),
            Some("main")
        );
        // shard args survive
        assert!(json.contains(r#""args":{"shard":1}"#), "{json}");
        // a correlated event carries its request id in args
        let mut tagged = ev(5, 0, EventKind::Instant, "req.ev", NO_SHARD);
        tagged.req_id = 0xabc;
        let json = write_chrome_trace(&[tagged]);
        assert!(
            json.contains(r#""args":{"req_id":"0000000000000abc"}"#),
            "{json}"
        );
        assert_eq!(
            v.path("otherData.dropped_events").and_then(|d| d.as_u64()),
            Some(crate::timeline::dropped())
        );
    }

    #[test]
    fn summary_renders_tables() {
        let text = render_summary(&fixture());
        assert!(text.contains("critical path   0.000 ms"), "{text}");
        assert!(text.contains("worker lanes    2"), "{text}");
        assert!(text.contains("superset.shard"), "{text}");
        assert!(text.contains("worker-1"), "{text}");
    }
}
