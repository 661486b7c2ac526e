#!/bin/sh
# The checks a change must pass before merging: formatting, lints with
# warnings denied, the full workspace test suite (unit + doctests), the
# chaos-drill determinism gate — two separate processes must emit
# byte-identical Q9 reports, because the whole simulation is seeded and
# HashMap-order bugs only show up across processes — and its siblings
# for q5/q6/q8, q10, q11, q12, q16 and q17, the benchmark
# selftest (perfbench/ builds against the workspace and its checks
# pass), and the perf trajectory gate, which re-runs the Q14/Q15/Q16/Q17
# benches and compares their "tracked" integer values against the
# committed BENCH_q14.json / BENCH_q15.json / BENCH_q16.json /
# BENCH_q17.json baselines (±15%, i.e. 150 permille; see perf_gate).
# Everything runs offline; external deps resolve to the third_party/ stubs.
#
# Perf-gate self-test: before trusting any real comparison, the stage
# runs `perf_gate --self-test`, which feeds the comparator a fixture
# baseline plus (a) an in-tolerance +10% drift that must PASS, (b) a
# deliberate +20% regression that must FAIL, (c) a copy-counter blow-up
# that must FAIL, and (d) a report missing a tracked key that must
# FAIL. A comparator that waves any of those through fails CI here,
# long before it could wave through a real regression. To reproduce a
# gate failure by hand, inject a regression into a fresh report, e.g.:
#   ./target/release/q15_hotpath --json /tmp/fresh.json
#   sed -i 's/"mux_ns_per_packet": [0-9]*/"mux_ns_per_packet": 999999/' /tmp/fresh.json
#   cargo run --release -p lod-bench --bin perf_gate -- \
#       --fresh /tmp/fresh.json --check-against BENCH_q15.json   # exits 1
#
# Set ARTIFACTS_DIR to a writable directory to keep the fresh BENCH
# reports and the q11/q12 determinism artifacts produced by this run
# (the GitHub workflow uploads them on every run).
set -e

echo "===== cargo fmt --check ====="
cargo fmt --all --check

echo "===== cargo clippy (workspace, -D warnings) ====="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "===== workspace tests (unit + doctests) ====="
cargo test -q --offline --workspace

echo "===== loopback UDP deployment (real sockets, hard timeout) ====="
# The transport tier on actual kernel sockets: origin + 2 relays + 32
# clients, one 127.0.0.1 socket each, must complete a lecture with zero
# abandoned sessions and sample counts reconciling with simnet. The
# test is #[ignore]d (wall-clock + sockets) and invoked explicitly
# here; the timeout turns a stuck socket into a fast failure instead
# of a hung CI run.
timeout 180 cargo test -q --offline -p lod-core --test loopback_udp -- --ignored \
    || { echo "FAIL: loopback UDP deployment did not complete (or timed out)"; exit 1; }
echo "loopback deployment completed"

echo "===== loopback UDP lossy chaos (repair on/off, hard timeout) ====="
# The same deployment under seeded datagram loss (12% steady plus a 35%
# origin-to-relay burst), run twice: repair off must surface the loss as
# application re-requests, repair on must complete all 32 sessions, cut
# those re-requests at least 5x, and satisfy the repair causality
# invariants (every retransmit answers a prior NACK; gaps skip only
# after budget exhaustion). Release build: the drill moves a lecture
# for 35 nodes twice and debug-mode framing would dominate the budget.
timeout 300 cargo test -q --offline --release -p lod-core --test loopback_chaos -- --ignored \
    || { echo "FAIL: lossy chaos drill did not pass (or timed out)"; exit 1; }
echo "chaos drill passed"

echo "===== benchmark selftest (perfbench builds and its checks pass) ====="
# perfbench/ is a Cargo package outside the workspace, so the workspace
# build never notices when a lod-core change breaks the API it pins. The
# selftest builds it, runs every workload untraced and traced on seed
# 11, and fails unless every output check passes — including that the
# benchmark's replica of the relay-tier loop still yields exactly
# serve_with_relays' per-client ClientMetrics.
python3 perfbench/run.py --selftest \
    || { echo "FAIL: benchmark selftest (build break or output check failed)"; exit 1; }
echo "benchmark selftest passed"

echo "===== q9_chaos determinism (two runs, byte-identical reports) ====="
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run -q --offline -p lod-bench --bin q9_chaos -- --seed 7 --json "$tmpdir/a.json" > /dev/null
cargo run -q --offline -p lod-bench --bin q9_chaos -- --seed 7 --json "$tmpdir/b.json" > /dev/null
if ! diff "$tmpdir/a.json" "$tmpdir/b.json"; then
    echo "FAIL: two seed-7 chaos runs diverged (nondeterminism crept in)"
    exit 1
fi
echo "reports identical"

echo "===== q5_scale / q6_classroom / q8_relay determinism (two runs, byte-identical stdout) ====="
# The shared-uplink and live-classroom deployments step through the same
# tier driver as the relay tier, and q8 drives that tier's relay fan-out
# and its relay-failure re-home drill; two processes must print the same
# tables byte for byte.
for bin in q5_scale q6_classroom q8_relay; do
    cargo run -q --offline --release -p lod-bench --bin "$bin" > "$tmpdir/$bin.a"
    cargo run -q --offline --release -p lod-bench --bin "$bin" > "$tmpdir/$bin.b"
    if ! diff "$tmpdir/$bin.a" "$tmpdir/$bin.b"; then
        echo "FAIL: two $bin runs diverged (nondeterminism crept in)"
        exit 1
    fi
done
echo "tables identical"

echo "===== q10_overload determinism (two runs, byte-identical reports) ====="
cargo run -q --offline -p lod-bench --bin q10_overload -- --seed 7 --json "$tmpdir/oa.json" > /dev/null
cargo run -q --offline -p lod-bench --bin q10_overload -- --seed 7 --json "$tmpdir/ob.json" > /dev/null
if ! diff "$tmpdir/oa.json" "$tmpdir/ob.json"; then
    echo "FAIL: two seed-7 overload runs diverged (nondeterminism crept in)"
    exit 1
fi
echo "reports identical"

echo "===== q11_observability determinism (two runs, byte-identical logs) ====="
# The strongest determinism gate in the repo: not just the summary JSON
# but the full structured event log (every emission, in order) and the
# metrics exposition must match byte for byte across processes.
cargo run -q --offline -p lod-bench --bin q11_observability -- --seed 7 \
    --json "$tmpdir/qa.json" --events "$tmpdir/qa.jsonl" --prom "$tmpdir/qa.prom" > /dev/null
cargo run -q --offline -p lod-bench --bin q11_observability -- --seed 7 \
    --json "$tmpdir/qb.json" --events "$tmpdir/qb.jsonl" --prom "$tmpdir/qb.prom" > /dev/null
for ext in json jsonl prom; do
    if ! cmp -s "$tmpdir/qa.$ext" "$tmpdir/qb.$ext"; then
        echo "FAIL: two seed-7 observability runs diverged in .$ext (nondeterminism crept in)"
        diff "$tmpdir/qa.$ext" "$tmpdir/qb.$ext" | head -20
        exit 1
    fi
done
echo "event log, exposition and report identical"

echo "===== q12_failover determinism (two runs, byte-identical logs) ====="
# The failover drill doubles as a determinism gate: a mid-lecture origin
# crash, a heartbeat verdict and a promotion must land on the same tick
# in both processes, or the three artifacts diverge.
cargo run -q --offline -p lod-bench --bin q12_failover -- --seed 7 \
    --json "$tmpdir/fa.json" --events "$tmpdir/fa.jsonl" --prom "$tmpdir/fa.prom" > /dev/null
cargo run -q --offline -p lod-bench --bin q12_failover -- --seed 7 \
    --json "$tmpdir/fb.json" --events "$tmpdir/fb.jsonl" --prom "$tmpdir/fb.prom" > /dev/null
for ext in json jsonl prom; do
    if ! cmp -s "$tmpdir/fa.$ext" "$tmpdir/fb.$ext"; then
        echo "FAIL: two seed-7 failover runs diverged in .$ext (nondeterminism crept in)"
        diff "$tmpdir/fa.$ext" "$tmpdir/fb.$ext" | head -20
        exit 1
    fi
done
echo "event log, exposition and report identical"

echo "===== q16_repair determinism (two runs, byte-identical reports) ====="
# The repair sublayer on a virtual wire: seeded loss, NACK timers,
# retransmit budgets and give-up accounting are all integer-clocked, so
# two processes must agree to the byte.
cargo run -q --offline --release -p lod-bench --bin q16_repair -- --json "$tmpdir/ra.json" > /dev/null
cargo run -q --offline --release -p lod-bench --bin q16_repair -- --json "$tmpdir/rb.json" > /dev/null
if ! diff "$tmpdir/ra.json" "$tmpdir/rb.json"; then
    echo "FAIL: two q16 repair runs diverged (nondeterminism crept in)"
    exit 1
fi
echo "reports identical"

echo "===== q17_tracing determinism (two runs, byte-identical span logs) ====="
# The tracing plane end to end: span minting, Mark propagation, the
# clock-skew clamp and the assembler are all integer-clocked, so two
# processes must emit byte-identical full-trace event logs. The bench
# also enforces the overhead contract in-binary (sampled 10‰ within 5%
# of obs-off) and the causal span invariants over the merged log.
cargo run -q --offline --release -p lod-bench --bin q17_tracing -- \
    --json "$tmpdir/ta.json" --events "$tmpdir/ta.jsonl" > /dev/null
cargo run -q --offline --release -p lod-bench --bin q17_tracing -- \
    --json "$tmpdir/tb.json" --events "$tmpdir/tb.jsonl" > /dev/null
if ! cmp -s "$tmpdir/ta.jsonl" "$tmpdir/tb.jsonl"; then
    echo "FAIL: two q17 tracing runs diverged in their span logs (nondeterminism crept in)"
    diff "$tmpdir/ta.jsonl" "$tmpdir/tb.jsonl" | head -20
    exit 1
fi
echo "span logs identical"

echo "===== q17 waterfall render (wmps trace over the span log) ====="
# The operator path over the same artifact: `wmps trace` must render
# per-hop percentiles and a concrete segment waterfall from the log the
# bench just wrote. Kept as a CI artifact so a hop-latency regression
# can be eyeballed straight from the run page.
cargo run -q --offline --release -p lod-cli --bin wmps -- \
    trace "$tmpdir/ta.jsonl" --segment 0 > "$tmpdir/waterfall.txt"
grep -q "playout_wait" "$tmpdir/waterfall.txt" || {
    echo "FAIL: rendered waterfall is missing the delivery chain"; exit 1; }
echo "waterfall rendered"

echo "===== perf trajectory gate (q14 + q15 + q16 + q17 vs committed baselines) ====="
# Medians are wall-clock and machines differ, so the gate is deliberately
# loose (±15%) and compares only the "tracked" sections — integer codec/
# mux medians and the deterministic payload-copy counters. The loopback
# wall-clock numbers live under "untracked" and are never compared.
# Benches run in release: debug medians would regress against a
# release-built baseline by far more than any real code change.
cargo build -q --offline --release -p lod-bench \
    --bin q14_transport --bin q15_hotpath --bin perf_gate
./target/release/perf_gate --self-test
./target/release/q14_transport --codec-only --json "$tmpdir/q14_fresh.json" > /dev/null
./target/release/q15_hotpath --json "$tmpdir/q15_fresh.json" > /dev/null
./target/release/perf_gate --fresh "$tmpdir/q14_fresh.json" --check-against BENCH_q14.json
./target/release/perf_gate --fresh "$tmpdir/q15_fresh.json" --check-against BENCH_q15.json
# q16's tracked values are fully deterministic (no wall clock), so the
# ±15% tolerance is pure slack: any drift is a protocol-behavior change
# that should come with a deliberate baseline update.
./target/release/perf_gate --fresh "$tmpdir/ra.json" --check-against BENCH_q16.json
# q17's tracked values are likewise deterministic: wire-format byte
# counts and the span/trace ledger of the seeded run.
./target/release/perf_gate --fresh "$tmpdir/ta.json" --check-against BENCH_q17.json
echo "tracked medians within tolerance of committed baselines"

if [ -n "${ARTIFACTS_DIR:-}" ]; then
    echo "===== collecting artifacts into $ARTIFACTS_DIR ====="
    mkdir -p "$ARTIFACTS_DIR"
    cp "$tmpdir/q14_fresh.json" "$ARTIFACTS_DIR/BENCH_q14_fresh.json"
    cp "$tmpdir/q15_fresh.json" "$ARTIFACTS_DIR/BENCH_q15_fresh.json"
    cp "$tmpdir/ra.json" "$ARTIFACTS_DIR/BENCH_q16_fresh.json"
    cp "$tmpdir/qa.json" "$ARTIFACTS_DIR/q11_observability.json"
    cp "$tmpdir/qa.jsonl" "$ARTIFACTS_DIR/q11_events.jsonl"
    cp "$tmpdir/qa.prom" "$ARTIFACTS_DIR/q11_metrics.prom"
    cp "$tmpdir/fa.json" "$ARTIFACTS_DIR/q12_failover.json"
    cp "$tmpdir/fa.jsonl" "$ARTIFACTS_DIR/q12_events.jsonl"
    cp "$tmpdir/fa.prom" "$ARTIFACTS_DIR/q12_metrics.prom"
    cp "$tmpdir/ta.json" "$ARTIFACTS_DIR/BENCH_q17_fresh.json"
    cp "$tmpdir/ta.jsonl" "$ARTIFACTS_DIR/q17_spans.jsonl"
    cp "$tmpdir/waterfall.txt" "$ARTIFACTS_DIR/q17_waterfall.txt"
    ls -l "$ARTIFACTS_DIR"
fi

echo "CI checks passed."
