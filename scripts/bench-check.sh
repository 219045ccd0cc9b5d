#!/usr/bin/env bash
# Perf-trajectory gate: run the throughput bench (QUICK corpus), check the
# threads=1 vs threads=4 parallel speedup, and diff the bench's
# metadis.trace.v7 record against the committed baseline in
# tests/data/bench/ with `metadis trace-diff`.
#
# Count metrics (viability iterations, corrections, degradations) are
# deterministic and gate tightly; wall-clock gets a very generous ratio (the
# noise floor) so the gate survives slow or busy CI machines while still
# catching order-of-magnitude blowups. Exits 5 on regression, mirroring the
# trace-diff CI gate.
#
# The serve gate runs the serve_load bench (load generator + fault
# injection against the nonblocking service front-end) and checks its
# metadis.bench.serve.v1 record: zero crashes, /healthz live under hostile
# clients, two-sided shed behavior under 2x overload (sheds AND successes),
# and a generous p99 latency ceiling. It also gates the series-sampler
# overhead: the bench's interleaved best-of A/B arms (sampler off vs a 10ms
# tick) must show under 2% RPS cost.
#
# Regenerate the baselines after an intentional perf-relevant change with:
#   QUICK=1 BENCH_JSON_DIR=tests/data/bench \
#     cargo bench --offline -p bench --bench throughput
#   QUICK=1 BENCH_JSON_DIR=tests/data/bench \
#     cargo bench --offline -p metadis --bench serve_load
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=tests/data/bench/BENCH_throughput.json
if [[ ! -f "$BASELINE" ]]; then
    echo "bench-check: missing baseline $BASELINE" >&2
    exit 3
fi
SERVE_BASELINE=tests/data/bench/BENCH_serve.json
if [[ ! -f "$SERVE_BASELINE" ]]; then
    echo "bench-check: missing baseline $SERVE_BASELINE" >&2
    exit 3
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== bench-check: QUICK throughput run"
# The bench itself asserts the <5% telemetry-overhead budget (exit 1).
QUICK=1 BENCH_JSON_DIR="$TMP" cargo bench -q --offline -p bench --bench throughput \
    | tee "$TMP/bench-stdout.txt"

echo "== bench-check: superset-build throughput floor"
# The bench prints "superset-build bytes/sec = N" — single-thread
# Superset::build over the QUICK corpus. The length-class window fast path
# (x86-isa prescan_window + the fused WATTR dispatch table) took the
# builder from ~19 MB/s to ~50-58 MB/s on the 2.1 GHz reference host
# (~110 → ~38 cycles per offset; the remaining gap to the 5x aspiration of
# ~95 MB/s is core frequency, not instruction count — the loop is already
# branchless at ~4 IPC). The enforced floor is 2x the pre-fast-path
# baseline of 18,978,831 B/s: comfortably under the slowest phase a busy
# shared vCPU has shown with the fast path, and unreachable if the fast
# path regresses to per-offset full decode. Override with
# BENCH_SUPERSET_FLOOR for stricter local runs.
FLOOR="${BENCH_SUPERSET_FLOOR:-37957662}"
SUPERSET_BPS="$(sed -n 's/^superset-build bytes\/sec = \([0-9]*\)$/\1/p' "$TMP/bench-stdout.txt")"
if [[ -z "$SUPERSET_BPS" ]]; then
    echo "bench-check: bench output carried no superset-build bytes/sec line" >&2
    exit 3
fi
if ! awk -v b="$SUPERSET_BPS" -v f="$FLOOR" 'BEGIN { exit !(b >= f) }'; then
    echo "bench-check: superset-build ${SUPERSET_BPS} B/s under the ${FLOOR} B/s floor" >&2
    exit 5
fi
echo "bench-check: superset-build ${SUPERSET_BPS} B/s (floor ${FLOOR})"

echo "== bench-check: prescan/decode agreement gate"
# The superset builder trusts the window fast path completely; before
# trusting the throughput number, prove the fast path still agrees with
# the full decoder on generated corpora, structure-aware mutants, and
# random soup (release mode: the differential sweep covers ~700k offsets).
cargo test --release -q --offline -p disasm-core --test prescan_differential

echo "== bench-check: parallel scaling gate"
# The bench prints "parallel speedup(4) = X.XXx" — the threads=1 vs
# threads=4 wall-time ratio of the identical (bit-for-bit) pipeline run.
# On a ≥4-core machine, anything under 1.5x means the sharding stopped
# paying for itself: exit 5, mirroring the trace-diff regression code. On
# smaller machines the ratio measures timeslicing, not scaling — skip.
CORES="$(nproc 2>/dev/null || echo 1)"
SPEEDUP="$(sed -n 's/^parallel speedup(4) = \([0-9.]*\)x$/\1/p' "$TMP/bench-stdout.txt")"
if [[ -z "$SPEEDUP" ]]; then
    echo "bench-check: bench output carried no speedup(4) line" >&2
    exit 3
fi
if [[ "$CORES" -lt 4 ]]; then
    echo "bench-check: $CORES core(s) < 4 — scaling gate skipped (speedup(4) = ${SPEEDUP}x)"
elif ! awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 1.5) }'; then
    echo "bench-check: speedup(4) = ${SPEEDUP}x < 1.5x on $CORES cores" >&2
    exit 5
else
    echo "bench-check: speedup(4) = ${SPEEDUP}x on $CORES cores"
fi

echo "== bench-check: trace-diff vs $BASELINE"
# Wall noise floor: 100x. Anything past that on a QUICK corpus is a hang or
# an accidental O(n^2), not a slow machine.
cargo run --release --offline --bin metadis -- \
    trace-diff "$BASELINE" "$TMP/BENCH_throughput.json" \
    --max-wall-ratio 100

echo "== bench-check: serve load + fault-injection run"
# The bench itself asserts zero crashes, a live /healthz, finished hostile
# clients, and two-sided overload behavior (exit 101 on violation).
QUICK=1 BENCH_JSON_DIR="$TMP" cargo bench -q --offline -p metadis --bench serve_load \
    | tee "$TMP/serve-stdout.txt"

echo "== bench-check: serve gate vs $SERVE_BASELINE"
field() { sed -n "s/.*\"$2\":\([0-9.]*\).*/\1/p" "$1"; }
flag()  { sed -n "s/.*\"$2\":\(true\|false\).*/\1/p" "$1"; }
SERVE_JSON="$TMP/BENCH_serve.json"
for f in crashes overload_shed overload_success p99_ns sampler_overhead_pct rps_sampler_off; do
    if [[ -z "$(field "$SERVE_JSON" "$f")" ]]; then
        echo "bench-check: serve record carried no '$f' field" >&2
        exit 3
    fi
done
if ! grep -q '"schema":"metadis.bench.serve.v1"' "$SERVE_BASELINE"; then
    echo "bench-check: committed $SERVE_BASELINE is not a metadis.bench.serve.v1 record" >&2
    exit 3
fi
# zero-crash + liveness are hard gates
if [[ "$(field "$SERVE_JSON" crashes)" != "0" ]]; then
    echo "bench-check: serve bench recorded crashes != 0" >&2
    exit 5
fi
if [[ "$(flag "$SERVE_JSON" healthz_ok)" != "true" || "$(flag "$SERVE_JSON" hostile_ok)" != "true" ]]; then
    echo "bench-check: /healthz or hostile clients failed under fault injection" >&2
    exit 5
fi
# shed-rate sanity under 2x overload: some requests shed, some served
if [[ "$(field "$SERVE_JSON" overload_shed)" == "0" ]]; then
    echo "bench-check: 2x overload produced no sheds — admission control inert" >&2
    exit 5
fi
if [[ "$(field "$SERVE_JSON" overload_success)" == "0" ]]; then
    echo "bench-check: 2x overload served nothing — shedding everything" >&2
    exit 5
fi
# p99 ceiling: generous noise floor (5s) — catches hangs and event-loop
# stalls, not slow machines
P99="$(field "$SERVE_JSON" p99_ns)"
if ! awk -v p="$P99" 'BEGIN { exit !(p <= 5000000000) }'; then
    echo "bench-check: serve p99 = ${P99}ns past the 5s ceiling" >&2
    exit 5
fi
echo "bench-check: serve p99 = ${P99}ns, overload shed/success = \
$(field "$SERVE_JSON" overload_shed)/$(field "$SERVE_JSON" overload_success), crashes = 0"

echo "== bench-check: series-sampler overhead gate"
# Best-of-N interleaved arms: sampler off vs a 10ms tick (100x the default
# rate). Over 2% RPS cost means the sampler leaked onto the request path.
OVERHEAD="$(field "$SERVE_JSON" sampler_overhead_pct)"
if ! awk -v o="$OVERHEAD" 'BEGIN { exit !(o <= 2.0) }'; then
    echo "bench-check: series sampler costs ${OVERHEAD}% RPS, past the 2% budget" >&2
    exit 5
fi
echo "bench-check: sampler overhead = ${OVERHEAD}% \
(off $(field "$SERVE_JSON" rps_sampler_off) rps, on $(field "$SERVE_JSON" rps) rps)"

echo "bench-check passed."
