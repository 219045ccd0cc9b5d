//! Shared plumbing for the table/figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! reconstructed evaluation (see `DESIGN.md` and `EXPERIMENTS.md`):
//!
//! ```text
//! cargo run -p bench --release --bin table2_accuracy
//! ```
//!
//! Set `QUICK=1` to shrink corpora for smoke runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The counting allocator (default feature `count-alloc`): lets the
/// throughput bench's telemetry arms measure allocation accounting against
/// a runtime-disabled baseline arm in the same process.
#[cfg(feature = "count-alloc")]
#[global_allocator]
static GLOBAL_ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();

/// `true` when the `QUICK` environment variable asks for reduced corpora.
pub fn quick() -> bool {
    std::env::var_os("QUICK").is_some()
}

/// Scale a corpus count down under `QUICK=1`.
pub fn scaled(n: usize) -> usize {
    if quick() {
        (n / 3).max(1)
    } else {
        n
    }
}

/// Print the standard experiment banner.
pub fn banner(id: &str, title: &str, expectation: &str) {
    println!("== {id}: {title}");
    println!("   expectation: {expectation}");
    if quick() {
        println!("   (QUICK mode: reduced corpus)");
    }
    println!();
}

/// Write a `metadis.trace.v7` perf record to `BENCH_<id>.json` and report
/// where it went. Records land in `$BENCH_JSON_DIR` when set (relative dirs
/// resolve against the repository root, not the bench binary's cwd),
/// otherwise in the repository root, building up the perf trajectory across
/// runs.
pub fn emit_bench_json(id: &str, json: &str) -> std::io::Result<std::path::PathBuf> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let dir = match std::env::var_os("BENCH_JSON_DIR").map(std::path::PathBuf::from) {
        Some(d) if d.is_absolute() => d,
        Some(d) => root.join(d),
        None => root,
    };
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{id}.json"));
    std::fs::write(&path, json)?;
    println!("perf record written to {}", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    #[test]
    fn scaled_is_at_least_one() {
        assert!(super::scaled(1) >= 1);
        assert!(super::scaled(12) >= 1);
    }

    #[test]
    fn emit_bench_json_honors_dir_override() {
        let dir = std::env::temp_dir().join(format!("metadis-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("BENCH_JSON_DIR", &dir);
        let path = super::emit_bench_json("unit_test", r#"{"schema":"metadis.trace.v4"}"#).unwrap();
        std::env::remove_var("BENCH_JSON_DIR");
        assert_eq!(path, dir.join("BENCH_unit_test.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("metadis.trace.v4"));
    }
}
