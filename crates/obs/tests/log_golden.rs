//! Golden-file pinning of the `metadis.log.v2` line encoding.
//!
//! [`obs::log::format_line`] is pure (no clocks, no global state), so a
//! fixed set of records must serialize byte-for-byte to the checked-in
//! golden forever. Changing any byte of the encoding is a schema break and
//! needs a new schema tag, not a blessed golden.
//!
//! Regenerate after an *intentional* schema change with
//! `BLESS=1 cargo test -p obs --test log_golden`.

use obs::log::{format_line, Level, Value};

const GOLDEN_V2: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/log_v2_golden.jsonl"
);

/// One record per level, exercising every field shape: with and without a
/// span id, with and without a request context, empty and multi-typed
/// field payloads, string escaping.
fn sample_lines() -> Vec<String> {
    vec![
        format_line(0, Level::Trace, "superset", None, 0, "candidate kept", &[]),
        format_line(
            1_500,
            Level::Debug,
            "stats",
            Some(3),
            0,
            "token window",
            &[
                ("width", Value::U64(4)),
                ("kind", Value::Str("opcode".into())),
            ],
        ),
        format_line(
            2_000_000,
            Level::Info,
            "pipeline",
            Some(0),
            0xdead_beef_cafe_f00d,
            "run done",
            &[
                ("wall_ns", Value::U64(2_000_000)),
                ("corrections", Value::U64(8)),
                ("ratio", Value::F64(0.5)),
                ("degraded", Value::Bool(false)),
            ],
        ),
        format_line(
            3_000_000,
            Level::Warn,
            "correct",
            Some(0),
            0x4d2,
            "budget hit",
            &[
                ("limit", Value::Str("correction_steps".into())),
                ("completed", Value::U64(17)),
            ],
        ),
        format_line(
            4_000_000,
            Level::Error,
            "serve",
            None,
            0,
            "request failed",
            &[("error", Value::Str("cannot read \"x.elf\"".into()))],
        ),
    ]
}

#[test]
fn log_v2_lines_match_golden_byte_for_byte() {
    let mut got = sample_lines().join("\n");
    got.push('\n');
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN_V2, &got).unwrap();
    }
    let want = std::fs::read_to_string(GOLDEN_V2).unwrap();
    assert_eq!(
        got, want,
        "metadis.log.v2 encoding drifted; a byte-level change needs a new schema tag"
    );
}

#[test]
fn golden_lines_are_well_formed_records() {
    let text = std::fs::read_to_string(GOLDEN_V2).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5);
    for line in &lines {
        assert!(
            line.starts_with(r#"{"schema":"metadis.log.v2","ts_ns":"#),
            "{line}"
        );
        let parsed = obs::json::parse(line).expect("golden line parses as JSON");
        for key in [
            "schema", "ts_ns", "level", "phase", "span", "req_id", "msg", "fields",
        ] {
            assert!(parsed.get(key).is_some(), "missing {key}: {line}");
        }
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("metadis.log.v2")
        );
    }
    // one record per level, in severity order
    for (line, level) in lines
        .iter()
        .zip(["trace", "debug", "info", "warn", "error"])
    {
        assert!(line.contains(&format!(r#""level":"{level}""#)), "{line}");
    }
}
