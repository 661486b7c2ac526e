//! Q17: the tracing plane — what end-to-end segment tracing costs and
//! what it buys.
//!
//! Three interleaved runs of the same seeded relay-tier lecture grade
//! the telemetry plane's overhead contract:
//!
//! * **obs-off** — recorder disabled, `trace_permille = 0`: the
//!   baseline hot path.
//! * **sampled** — ring recorder armed, 10‰ head-sampling: the
//!   always-on production posture. The acceptance gate: its median
//!   wall time must stay within **5%** of obs-off.
//! * **full** — every segment traced (1000‰): the debugging posture,
//!   reported for the record but never gated.
//!
//! The full-trace run then feeds the fidelity gates: causal span
//! invariants must hold over the merged log, the assembler must
//! reconstruct a waterfall carrying the whole delivery chain
//! (`relay_fetch → packetize → fan_out → reassemble → playout_wait`),
//! and the event log must survive a JSONL round trip.
//!
//! The JSON report follows the perf-trajectory convention:
//!
//! * `"tracked"` — wire-format byte counts and the deterministic span
//!   ledger (span/trace/event counts, violation totals). No wall clock
//!   lands here, so the ±15% gate tolerance is pure slack: any drift is
//!   a protocol-behavior change that should come with a deliberate
//!   baseline update.
//! * `"untracked"` — wall-clock medians and the derived overhead
//!   permilles, machine-dependent by nature.
//!
//! Usage: `q17_tracing [--json PATH] [--events PATH]`
//!
//! `--events` writes the full-trace run's event log as JSONL — the
//! determinism artifact `scripts/ci.sh` byte-diffs across two
//! processes, and the input `wmps trace` renders waterfalls from.

use std::fmt::Write as _;
use std::time::Instant;

use lod_bench::median;
use lod_core::obs::TraceCtx;
use lod_core::{
    check_causal, fmt_ticks, lecture_id, parse_jsonl, synthetic_lecture, Recorder, RelayTierConfig,
    SpanAssembler, Wmps, WmpsReport,
};
use lod_transport::frame::{encode_frame_traced, TRACE_EXT_BYTES};
use lod_transport::{WireCodec, FLAG_RELIABLE};

const STUDENTS: usize = 24;
const RELAYS: usize = 2;
const SEED: u64 = 7;
/// Timed repetitions per configuration, interleaved so scheduler drift
/// hits all three configurations alike.
const REPS: usize = 5;
/// Production sampling rate under test: 10‰ (1% of segments). On this
/// 30-segment lecture the head-sampler deterministically keeps zero
/// segments — the honest always-on posture, and the cheapest.
const SAMPLED_PERMILLE: u16 = 10;
/// A sparse diagnostic rate that deterministically keeps a handful of
/// this lecture's segments, proving a sub-full plane still assembles
/// complete waterfalls (ctx presence on the wire is the whole
/// propagated decision — nothing downstream re-rolls the dice).
const SPARSE_PERMILLE: u16 = 50;
/// The five delivery-chain hops a complete simnet waterfall carries.
const CHAIN: [&str; 5] = [
    "relay_fetch",
    "packetize",
    "fan_out",
    "reassemble",
    "playout_wait",
];

fn parse_args() -> (Option<String>, Option<String>) {
    let mut json = None;
    let mut events = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = Some(args.next().expect("--json takes a path")),
            "--events" => events = Some(args.next().expect("--events takes a path")),
            other => {
                panic!(
                    "unknown argument {other} (usage: q17_tracing [--json PATH] [--events PATH])"
                )
            }
        }
    }
    (json, events)
}

/// One relay-tier run at `permille` with `recorder` armed; same seed,
/// links and students every time.
fn run_tier(wmps: &Wmps, file: &lod_asf::AsfFile, recorder: Recorder, permille: u16) -> WmpsReport {
    let cfg = RelayTierConfig {
        relays: RELAYS,
        recorder,
        trace_permille: permille,
        ..RelayTierConfig::default()
    };
    wmps.serve_with_relays(
        file.clone(),
        lod_simnet::LinkSpec::lan(),
        lod_simnet::LinkSpec::lan(),
        STUDENTS,
        SEED,
        &cfg,
    )
}

/// Median of `samples` (sorted in place, nearest-rank).
fn main() {
    let (json_path, events_path) = parse_args();
    println!("Q17 — tracing plane: sampled-overhead contract + waterfall fidelity");
    println!(
        "({STUDENTS} students, {RELAYS} relays, 1-minute lecture, seed {SEED}, \
         {REPS} interleaved reps per config)\n"
    );

    let wmps = Wmps::new();
    let file = wmps
        .publish(&synthetic_lecture(11, 1, 300_000))
        .expect("publish");

    // Wire-format costs: the one reliable Mark a sampled segment adds
    // per session, and the fixed per-frame trace extension.
    let ctx = TraceCtx {
        lecture: lecture_id("lecture"),
        segment: 5,
        seq: 1,
        origin: 7_000_000,
    };
    let mark = lod_streaming::wire::Wire::Mark(ctx);
    let mark_frame = encode_frame_traced(1, 0, FLAG_RELIABLE, Some(ctx), &mark.to_frame_payload());
    println!(
        "wire: Mark frame {} B, per-frame trace extension {TRACE_EXT_BYTES} B\n",
        mark_frame.len()
    );

    // Timed runs, interleaved: off / sampled / full per repetition.
    // Fresh recorders every run so the ring never carries state across
    // repetitions.
    let mut off_ns = Vec::with_capacity(REPS);
    let mut sampled_ns = Vec::with_capacity(REPS);
    let mut full_ns = Vec::with_capacity(REPS);
    let mut session_ticks = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        let report = run_tier(&wmps, &file, Recorder::disabled(), 0);
        off_ns.push(t.elapsed().as_nanos() as u64);
        session_ticks = report.session_ticks;

        let t = Instant::now();
        run_tier(
            &wmps,
            &file,
            Recorder::with_event_capacity(1 << 16),
            SAMPLED_PERMILLE,
        );
        sampled_ns.push(t.elapsed().as_nanos() as u64);

        let t = Instant::now();
        run_tier(&wmps, &file, Recorder::with_event_capacity(1 << 16), 1000);
        full_ns.push(t.elapsed().as_nanos() as u64);
    }
    let off_med = median(&mut off_ns);
    let sampled_med = median(&mut sampled_ns);
    let full_med = median(&mut full_ns);
    // Signed permille deltas against obs-off; a quiet machine lands the
    // sampled figure in single digits.
    let permille_over = |ns: u64| (ns as i64 - off_med as i64) * 1000 / off_med as i64;
    let ns_per_ktick = |ns: u64| ns * 1000 / session_ticks.max(1);
    println!(
        "overhead (median of {REPS}, {} session-ticks/run):\n\
         \x20 obs-off      {:>12} ns  ({:>5} ns/ktick)\n\
         \x20 sampled 10\u{2030} {:>12} ns  ({:>5} ns/ktick, {:+} \u{2030} vs off)\n\
         \x20 full 1000\u{2030}  {:>12} ns  ({:>5} ns/ktick, {:+} \u{2030} vs off)\n",
        session_ticks,
        off_med,
        ns_per_ktick(off_med),
        sampled_med,
        ns_per_ktick(sampled_med),
        permille_over(sampled_med),
        full_med,
        ns_per_ktick(full_med),
        permille_over(full_med),
    );

    // Gate 1: the sampled plane's overhead contract — ≤5% over obs-off.
    assert!(
        sampled_med <= off_med.saturating_mul(105) / 100,
        "sampled tracing at {SAMPLED_PERMILLE}\u{2030} must cost ≤5% over obs-off \
         (off {off_med} ns, sampled {sampled_med} ns)"
    );
    println!("PASS: sampled tracing within the 5% overhead budget");

    // Untimed analysis runs: the deterministic span ledgers.
    let full_rec = Recorder::with_event_capacity(1 << 16);
    let full_report = run_tier(&wmps, &file, full_rec.clone(), 1000);
    let sampled_rec = Recorder::with_event_capacity(1 << 16);
    let sampled_report = run_tier(&wmps, &file, sampled_rec.clone(), SAMPLED_PERMILLE);
    assert_eq!(
        full_report.completed_sessions(),
        STUDENTS,
        "tracing must not disturb delivery: {full_report:?}"
    );
    assert_eq!(sampled_report.completed_sessions(), STUDENTS);

    // Gate 2: causal span invariants over both logs.
    let full_events = full_rec.events();
    let full_causal = check_causal(&full_events);
    assert!(
        full_causal.holds(),
        "full-trace log must satisfy the causal span invariants: {full_causal:?}"
    );
    let sampled_events = sampled_rec.events();
    let sampled_causal = check_causal(&sampled_events);
    assert!(
        sampled_causal.holds(),
        "sampled log must satisfy the causal span invariants: {sampled_causal:?}"
    );
    println!(
        "PASS: causal invariants — {} span(s) opened full-trace, {} sampled, zero violations",
        full_causal.spans_opened, sampled_causal.spans_opened
    );

    // Gate 3: the assembler reconstructs complete waterfalls.
    let mut full_asm = SpanAssembler::default();
    full_asm.ingest_all(&full_events);
    let full_traces = full_asm.traces();
    assert!(
        !full_traces.is_empty(),
        "a 1000\u{2030} run must assemble at least one trace"
    );
    let complete = full_traces
        .iter()
        .filter(|t| {
            CHAIN
                .iter()
                .all(|hop| t.spans.iter().any(|s| s.hop == *hop))
        })
        .count();
    assert!(
        complete > 0,
        "at least one waterfall must carry the whole delivery chain {CHAIN:?}"
    );
    let mut sampled_asm = SpanAssembler::default();
    sampled_asm.ingest_all(&sampled_events);
    let sampled_traces = sampled_asm.traces();
    // Head-sampling at 10‰ must shrink the plane, not mirror it.
    assert!(
        sampled_traces.len() <= full_traces.len() / 10,
        "10\u{2030} sampling must trace a small fraction of segments \
         ({} sampled vs {} full)",
        sampled_traces.len(),
        full_traces.len()
    );
    assert!(
        sampled_events.len() < full_events.len(),
        "the sampled plane must emit fewer events than full tracing"
    );

    // Gate 3b: a sparse plane still assembles complete waterfalls for
    // the segments it keeps.
    let sparse_rec = Recorder::with_event_capacity(1 << 16);
    run_tier(&wmps, &file, sparse_rec.clone(), SPARSE_PERMILLE);
    let sparse_events = sparse_rec.events();
    let sparse_causal = check_causal(&sparse_events);
    assert!(sparse_causal.holds(), "sparse log: {sparse_causal:?}");
    let mut sparse_asm = SpanAssembler::default();
    sparse_asm.ingest_all(&sparse_events);
    let sparse_traces = sparse_asm.traces();
    assert!(
        !sparse_traces.is_empty() && sparse_traces.len() < full_traces.len(),
        "the {SPARSE_PERMILLE}\u{2030} plane must keep some but not all segments \
         ({} of {})",
        sparse_traces.len(),
        full_traces.len()
    );
    assert!(
        sparse_traces.iter().all(|t| CHAIN
            .iter()
            .all(|hop| t.spans.iter().any(|s| s.hop == *hop))),
        "every sparse-sampled segment must carry the whole delivery chain"
    );
    println!(
        "PASS: waterfalls — {}/{} full traces carry all {} chain hops; \
         {SPARSE_PERMILLE}\u{2030} keeps {} complete trace(s); \
         10\u{2030} keeps {} trace(s) / {} event(s) (full: {} / {})\n",
        complete,
        full_traces.len(),
        CHAIN.len(),
        sparse_traces.len(),
        sampled_traces.len(),
        sampled_events.len(),
        full_traces.len(),
        full_events.len()
    );

    // Gate 4: the log survives a JSONL round trip.
    let jsonl = full_rec.to_jsonl();
    assert_eq!(
        parse_jsonl(&jsonl).expect("log parses"),
        full_events,
        "JSONL round trip"
    );

    println!("hop latency across every full trace:");
    println!("  {:<13} {:>7} {:>10} {:>10}", "hop", "count", "p50", "p99");
    for h in full_asm.hop_stats() {
        println!(
            "  {:<13} {:>7} {:>10} {:>10}",
            h.hop,
            h.count,
            fmt_ticks(h.p50),
            fmt_ticks(h.p99)
        );
    }
    println!("\nworst segment by end-to-end latency:");
    for t in full_asm.worst_by_end_to_end(1) {
        print!("{}", t.waterfall(48));
    }

    // Integers only under "tracked", so the gate verdict is portable.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"q17_tracing\",");
    let _ = writeln!(json, "  \"tracked\": {{");
    let _ = writeln!(json, "    \"mark_frame_bytes\": {},", mark_frame.len());
    let _ = writeln!(json, "    \"trace_ext_bytes\": {TRACE_EXT_BYTES},");
    let _ = writeln!(
        json,
        "    \"full_spans_opened\": {},",
        full_causal.spans_opened
    );
    let _ = writeln!(
        json,
        "    \"full_span_violations\": {},",
        full_causal.spans_unclosed
            + full_causal.span_order_violations
            + full_causal.span_receipt_violations
    );
    let _ = writeln!(json, "    \"full_traces\": {},", full_traces.len());
    let _ = writeln!(json, "    \"full_events\": {},", full_events.len());
    let _ = writeln!(
        json,
        "    \"sampled_spans_opened\": {},",
        sampled_causal.spans_opened
    );
    let _ = writeln!(json, "    \"sampled_traces\": {},", sampled_traces.len());
    let _ = writeln!(json, "    \"sampled_events\": {},", sampled_events.len());
    let _ = writeln!(json, "    \"sparse_traces\": {}", sparse_traces.len());
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"untracked\": {{");
    let _ = writeln!(json, "    \"students\": {STUDENTS},");
    let _ = writeln!(json, "    \"relays\": {RELAYS},");
    let _ = writeln!(json, "    \"reps\": {REPS},");
    let _ = writeln!(json, "    \"session_ticks\": {session_ticks},");
    let _ = writeln!(json, "    \"off_ns_median\": {off_med},");
    let _ = writeln!(json, "    \"sampled_ns_median\": {sampled_med},");
    let _ = writeln!(json, "    \"full_ns_median\": {full_med},");
    let _ = writeln!(
        json,
        "    \"sampled_overhead_permille\": {},",
        permille_over(sampled_med)
    );
    let _ = writeln!(
        json,
        "    \"full_overhead_permille\": {}",
        permille_over(full_med)
    );
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    match json_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("write json report");
            println!("\nreport written to {path}");
        }
        None => println!("\n{json}"),
    }
    if let Some(path) = events_path {
        std::fs::write(&path, &jsonl).expect("write event log");
        println!(
            "event log written to {path} ({} record(s))",
            full_events.len()
        );
    }

    println!(
        "\nshape: tracing rides the messages the system already sends — a\n\
         32-byte frame extension, one Mark per sampled segment — so the\n\
         sampled plane is within noise of obs-off while still producing\n\
         causally-checked waterfalls; full tracing is the debugging dial,\n\
         paid for only when turned."
    );
}
