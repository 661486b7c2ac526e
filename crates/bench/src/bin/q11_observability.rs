//! Q11: observability — replay one seeded overload + chaos run through
//! the structured event recorder and grade the *trace itself*.
//!
//! Q9 and Q10 grade outcomes (who completed, who was shed); this
//! experiment grades the story the system tells about itself. A flash
//! crowd charges a constrained relay tier while the chaos plan yanks
//! cables, with every emitter armed: the run must produce an event log
//! whose causal structure checks out against the aggregate counters.
//!
//! Gates:
//!
//! * every `downshift` is preceded by a `backlog_high` sample for the
//!   same client (no unheralded downshifts),
//! * every `recovery` closes an `outage_start` opened earlier (no
//!   unmatched recoveries),
//! * the event log's admission-shed count per node agrees with
//!   `ServerMetrics::sessions_shed` and the relays' own counters,
//! * the log survives a JSONL round trip, and
//! * the scenario actually exercised the emitters: at least one
//!   downshift and one recovered outage appear in the log.
//!
//! Everything is seeded; two runs with the same `--seed` emit
//! byte-identical JSONL, exposition and JSON (checked by
//! `scripts/ci.sh`).
//!
//! Usage: `q11_observability [--seed N] [--json PATH] [--events PATH]
//! [--prom PATH]`

use std::fmt::Write as _;

use lod_core::{
    check_causal, parse_jsonl, session_timelines, synthetic_lecture, worst_by_stall,
    AdmissionPolicy, BreakerPolicy, ChaosSpec, DegradePolicy, Recorder, RelayTierConfig, Wmps,
};
use lod_simnet::LinkSpec;
use lod_streaming::RetryPolicy;

const STUDENTS: usize = 96;
const RELAYS: usize = 4;
const SECOND: u64 = 10_000_000; // ticks
/// Seats each relay admits.
const RELAY_SEATS: u32 = 12;
/// Seats the redirect manager steers into each relay.
const RELAY_STEER: usize = 14;
/// Full-rate seats the origin's bitrate budget covers.
const ORIGIN_SEATS: u64 = 16;

fn main() {
    let (seed, json_path, events_path, prom_path) =
        lod_bench::parse_drill_args("q11_observability");
    println!("Q11 — observability: causal trace invariants under overload + chaos");
    println!(
        "({STUDENTS} students in waves of 32 every 2 s, {RELAYS} relays, \
         1-minute lecture, seed {seed})\n"
    );
    let lecture = synthetic_lecture(55, 1, 300_000);
    let wmps = Wmps::new();
    let file = wmps.publish(&lecture).expect("publish");
    let play_duration = file.props.play_duration;
    let nominal = u64::from(file.props.max_bitrate).max(64_000);
    // Same squeeze as Q10's admit_degrade row: the uplink is sized below
    // the origin's admission budget so degradation has work to do, and
    // the chaos plan yanks two access cables mid-lecture so the retry
    // layer logs real outages.
    let uplink = LinkSpec::broadband().with_bandwidth(6_000_000);
    let relay_link = LinkSpec::broadband().with_bandwidth(4_000_000);
    let access = LinkSpec::lan();
    let recorder = Recorder::new();
    let cfg = RelayTierConfig {
        relays: RELAYS,
        relay_link,
        origin_admission: Some(AdmissionPolicy::new(64, nominal * ORIGIN_SEATS)),
        relay_admission: Some(AdmissionPolicy::new(
            RELAY_SEATS,
            nominal * u64::from(RELAY_SEATS),
        )),
        relay_capacity_sessions: Some(RELAY_STEER),
        degrade: Some(DegradePolicy::default()),
        breaker: Some(BreakerPolicy::upstream()),
        arrival_wave: Some((32, 2 * SECOND)),
        client_retry: Some(RetryPolicy::client()),
        idle_timeout: Some(120 * SECOND),
        chaos: ChaosSpec {
            // First-wave students: admitted and playing when the cable
            // goes, so each flap opens an outage the log must close.
            access_flaps: vec![(5 * SECOND, 3 * SECOND, 1), (9 * SECOND, 2 * SECOND, 2)],
            ..ChaosSpec::default()
        },
        recorder: recorder.clone(),
        ..RelayTierConfig::default()
    };
    let report = wmps.serve_with_relays(file, uplink, access, STUDENTS, seed, &cfg);

    let events = recorder.events();
    let causal = check_causal(&events);
    let origin = recorder.node_by_label("origin").expect("origin labelled");
    let relay_shed = report.relay.as_ref().map_or(0, |r| r.metrics.sessions_shed);

    println!(
        "run: {}/{STUDENTS} completed, {} shed, {} downshift(s), {} recover(ies), \
         {} event(s) recorded\n",
        report.completed_sessions(),
        report.shed_clients(),
        report.server.downshifts,
        report.recoveries.len(),
        events.len()
    );

    // Gate 1: causal invariants over the whole log.
    assert_eq!(
        causal.unheralded_downshifts, 0,
        "every downshift must be preceded by a backlog-high sample: {causal:?}"
    );
    assert_eq!(
        causal.unmatched_recoveries, 0,
        "every recovery must close an outage-start opened earlier: {causal:?}"
    );
    println!(
        "PASS: causal invariants — {} downshift(s) heralded, {} recover(ies) matched",
        causal.downshifts, causal.recoveries
    );

    // Gate 2: the log agrees with the aggregate counters.
    assert_eq!(
        causal.sheds_at(origin),
        report.server.sessions_shed,
        "origin sheds in the event log vs ServerMetrics"
    );
    assert_eq!(
        causal.total_sheds(),
        report.server.sessions_shed + relay_shed,
        "total admission-shed events vs server + relay counters"
    );
    println!(
        "PASS: log vs counters — {} origin shed(s), {} relay shed(s), both ledgers agree",
        report.server.sessions_shed, relay_shed
    );

    // Gate 3: the scenario actually exercised the emitters.
    assert!(
        causal.downshifts >= 1,
        "the congested uplink must trigger at least one downshift"
    );
    assert!(
        causal.recoveries >= 1,
        "the yanked cables must force at least one recovered outage"
    );

    // Gate 4: the log survives a JSONL round trip.
    let jsonl = recorder.to_jsonl();
    assert_eq!(
        parse_jsonl(&jsonl).expect("log parses"),
        events,
        "JSONL round trip"
    );
    println!("PASS: {} event(s) round-trip through JSONL\n", events.len());

    let timelines = session_timelines(&events);
    println!("worst sessions by stalled time:");
    for t in worst_by_stall(&timelines, 5) {
        print!("{}", t.render());
    }

    // Integers only, so the JSON report is byte-for-byte reproducible.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"students\": {STUDENTS},");
    let _ = writeln!(json, "  \"relays\": {RELAYS},");
    let _ = writeln!(json, "  \"events\": {},", events.len());
    let _ = writeln!(json, "  \"sessions\": {},", timelines.len());
    let _ = writeln!(json, "  \"completed\": {},", report.completed_sessions());
    let _ = writeln!(json, "  \"shed\": {},", report.shed_clients());
    let _ = writeln!(json, "  \"hard_failures\": {},", report.hard_failures());
    let _ = writeln!(json, "  \"downshifts\": {},", causal.downshifts);
    let _ = writeln!(json, "  \"upshifts\": {},", report.server.upshifts);
    let _ = writeln!(json, "  \"recoveries\": {},", causal.recoveries);
    let _ = writeln!(json, "  \"origin_shed\": {},", report.server.sessions_shed);
    let _ = writeln!(json, "  \"relay_shed\": {relay_shed},");
    let _ = writeln!(json, "  \"faults_applied\": {},", report.faults_applied);
    let _ = writeln!(
        json,
        "  \"worst_rebuffer_permille\": {},",
        report.worst_rebuffer_permille(play_duration.max(1))
    );
    let _ = writeln!(json, "  \"session_ms\": {}", report.session_ticks / 10_000);
    json.push_str("}\n");
    if let Some(path) = json_path {
        std::fs::write(&path, &json).expect("write json report");
        println!("\nreport written to {path}");
    } else {
        println!("\n{json}");
    }
    if let Some(path) = events_path {
        std::fs::write(&path, &jsonl).expect("write event log");
        println!("event log written to {path}");
    }
    if let Some(path) = prom_path {
        std::fs::write(&path, recorder.prometheus()).expect("write exposition");
        println!("exposition written to {path}");
    }

    println!(
        "\nshape: the same ladder Q10 grades by outcome, graded here by its\n\
         trace. The recorder stamps every admission refusal, downshift,\n\
         stall, retry and fault strike in driver order; the causal checker\n\
         then proves the log is a story — each downshift rooted in a\n\
         backlog sample, each recovery closing a real outage — and the\n\
         per-node ledgers reconcile against the aggregate counters."
    );
}
