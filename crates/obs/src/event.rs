//! Typed, tick-stamped observability events and their JSONL codec.
//!
//! Every event is a plain record of integers (raw node indices, ticks,
//! byte/bit counts) plus the occasional fixed vocabulary string, so a
//! seeded run serializes to a byte-identical JSONL log on every machine.
//! Node identity is carried as the raw `usize` index of a
//! `lod_simnet::NodeId` — this crate sits below the simulator in the
//! dependency order and must not know its types.

use serde::{Deserialize, Serialize};

/// One observability event. Variants mirror the lifecycle the paper's
/// delivery chain actually goes through: admission, startup, stalls,
/// degradation, outages/recoveries, relay cache traffic, breaker
/// transitions and injected faults.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// A human-readable role for a node (`origin`, `relay0`, `student3`),
    /// emitted once at the head of the log by the driver that built the
    /// topology.
    NodeLabel {
        /// Raw node index.
        node: u64,
        /// Role label.
        label: String,
    },
    /// The server created (or re-created) a session for `client`.
    SessionStart {
        /// Raw node index of the client.
        client: u64,
    },
    /// The client left Buffering for Playing for the first time.
    PlaybackStart {
        /// Raw node index of the client.
        client: u64,
        /// Ticks from Play to first render.
        startup_ticks: u64,
    },
    /// Playback underran and the client paused to rebuffer.
    StallStart {
        /// Raw node index of the client.
        client: u64,
    },
    /// The stall ended; playback resumed.
    StallEnd {
        /// Raw node index of the client.
        client: u64,
        /// Length of the stall in ticks.
        stall_ticks: u64,
    },
    /// The first-hop backlog for this session crossed above the degrade
    /// policy's high watermark (the sample every later downshift is
    /// causally rooted in).
    BacklogHigh {
        /// Raw node index of the client.
        client: u64,
        /// Backlog observed, in bytes.
        backlog: u64,
    },
    /// The backlog dropped below the low watermark.
    BacklogLow {
        /// Raw node index of the client.
        client: u64,
        /// Backlog observed, in bytes.
        backlog: u64,
    },
    /// The server downshifted the session one profile rung.
    Downshift {
        /// Raw node index of the client.
        client: u64,
        /// Effective bitrate before the shift.
        from_bps: u64,
        /// Effective bitrate after the shift.
        to_bps: u64,
    },
    /// The server stepped the session back up a rung.
    Upshift {
        /// Raw node index of the client.
        client: u64,
        /// Effective bitrate before the shift.
        from_bps: u64,
        /// Effective bitrate after the shift.
        to_bps: u64,
    },
    /// Admission control refused a Play with `Wire::Busy`.
    AdmissionShed {
        /// Raw node index of the refusing server or relay.
        node: u64,
        /// Raw node index of the refused client.
        client: u64,
    },
    /// The client received a `Wire::Busy` bounce.
    BusyBounce {
        /// Raw node index of the client.
        client: u64,
    },
    /// The client exhausted its bounce budget and gave up as shed.
    ClientShed {
        /// Raw node index of the client.
        client: u64,
    },
    /// The retry layer re-issued Play after a silence timeout.
    Retry {
        /// Raw node index of the client.
        client: u64,
        /// 1-based consecutive attempt number.
        attempt: u64,
    },
    /// The retry layer declared an outage (first unanswered deadline).
    OutageStart {
        /// Raw node index of the client.
        client: u64,
    },
    /// Server traffic resumed after an outage.
    Recovery {
        /// Raw node index of the client.
        client: u64,
        /// Ticks from last progress to the recovery.
        outage_ticks: u64,
    },
    /// The retry budget ran out; the session was abandoned.
    Abandon {
        /// Raw node index of the client.
        client: u64,
    },
    /// The client finished playback cleanly.
    SessionEnd {
        /// Raw node index of the client.
        client: u64,
    },
    /// The server reaped an idle session.
    SessionReaped {
        /// Raw node index of the reaping server.
        node: u64,
        /// Raw node index of the idle client.
        client: u64,
    },
    /// A circuit breaker tripped open.
    BreakerOpen {
        /// Raw node index of the breaker's owner (the relay).
        node: u64,
    },
    /// An open breaker admitted its half-open probe.
    BreakerProbe {
        /// Raw node index of the breaker's owner.
        node: u64,
    },
    /// A breaker closed again (probe answered, upstream alive).
    BreakerClose {
        /// Raw node index of the breaker's owner.
        node: u64,
    },
    /// Segment-cache lookup answered locally.
    CacheHit {
        /// Raw node index of the relay.
        node: u64,
        /// Segment index (or synthetic time-fetch key).
        segment: u64,
    },
    /// Lookup joined an already-inflight upstream fetch.
    CacheCoalesced {
        /// Raw node index of the relay.
        node: u64,
        /// Segment index.
        segment: u64,
    },
    /// Lookup missed and triggered an upstream pull.
    CacheMiss {
        /// Raw node index of the relay.
        node: u64,
        /// Segment index.
        segment: u64,
    },
    /// The byte budget forced a segment out of the cache.
    CacheEvict {
        /// Raw node index of the relay.
        node: u64,
        /// Segment index evicted.
        segment: u64,
        /// Bytes reclaimed.
        bytes: u64,
    },
    /// An upstream fetch was re-issued after its patience window.
    FetchRetry {
        /// Raw node index of the relay.
        node: u64,
        /// Segment index (or synthetic time-fetch key).
        segment: u64,
    },
    /// An upstream fetch exhausted its retry budget.
    FetchGiveUp {
        /// Raw node index of the relay.
        node: u64,
        /// Segment index.
        segment: u64,
    },
    /// The fault injector applied a fault.
    FaultStrike {
        /// Fault vocabulary: `link_down`, `node_down`, `loss_burst`,
        /// `latency_spike`.
        fault: String,
        /// First endpoint (or the node itself).
        a: u64,
        /// Second endpoint (== `a` for node faults).
        b: u64,
        /// Fault-specific magnitude: loss per-mille for bursts, extra
        /// ticks for latency spikes, 0 otherwise.
        detail: u64,
    },
    /// The fault injector healed a fault.
    FaultHeal {
        /// Fault vocabulary (same as [`Event::FaultStrike`]).
        fault: String,
        /// First endpoint.
        a: u64,
        /// Second endpoint.
        b: u64,
    },
    /// The failure detector's heartbeat went unanswered past its
    /// deadline (the sample every later promotion is causally rooted in).
    HeartbeatMiss {
        /// Raw node index of the silent origin.
        node: u64,
        /// Consecutive misses so far, 1-based.
        misses: u64,
    },
    /// The detector crossed its miss threshold and began failover.
    FailoverStart {
        /// Raw node index of the origin declared dead.
        from: u64,
        /// Raw node index of the standby about to be promoted.
        to: u64,
        /// The miss threshold that was crossed.
        misses: u64,
    },
    /// The standby took over as primary at a new fencing epoch.
    Promoted {
        /// Raw node index of the promoted standby.
        node: u64,
        /// The fencing epoch it now serves at (strictly above every
        /// earlier primary's).
        epoch: u64,
    },
    /// A deposed primary observed a higher fencing epoch and stepped
    /// down to standby instead of serving split-brain.
    Demoted {
        /// Raw node index of the demoted node.
        node: u64,
        /// The higher epoch it observed.
        epoch: u64,
    },
    /// The origin journaled a session checkpoint for replication.
    Checkpoint {
        /// Raw node index of the checkpointed session's client.
        client: u64,
        /// Playback horizon captured (next packet index).
        horizon: u64,
    },
    /// A promoted standby restored a replicated session, ready to resume
    /// it from its checkpointed horizon.
    SessionMigrated {
        /// Raw node index of the session's client.
        client: u64,
        /// The horizon the session will resume from.
        horizon: u64,
    },
    /// A transport receiver NACKed a sequence gap toward its peer.
    NackSent {
        /// Raw node index of the receiver that noticed the gap.
        node: u64,
        /// Raw node index of the sender being asked to repair.
        peer: u64,
        /// First missing sequence named by the NACK.
        base_seq: u64,
        /// Width of the sequence range the NACK covers (`[base_seq,
        /// base_seq + span)` — 1 for a single-seq NACK).
        span: u64,
    },
    /// A transport sender answered a NACK by resending a buffered frame.
    Retransmit {
        /// Raw node index of the resending sender.
        node: u64,
        /// Raw node index of the receiver that NACKed.
        peer: u64,
        /// Sequence being resent.
        seq: u64,
        /// Which retransmission this is, 1-based.
        attempt: u64,
    },
    /// A transport sender stopped repairing a sequence (retry budget
    /// spent or the frame already evicted from the retransmit buffer).
    RepairGiveUp {
        /// Raw node index of the sender giving up.
        node: u64,
        /// Raw node index of the receiver that asked.
        peer: u64,
        /// The abandoned sequence.
        seq: u64,
        /// Retransmissions actually performed for it.
        retries: u64,
        /// The configured per-seq retry budget.
        budget: u64,
    },
    /// A transport receiver abandoned a gap and released the frames
    /// waiting behind it. With repair enabled this is only lawful after
    /// the NACK budget was exhausted (`nacks == budget`); without repair
    /// both counts are 0 (a plain reorder-timeout skip).
    GapSkipped {
        /// Raw node index of the receiver skipping.
        node: u64,
        /// Raw node index of the peer whose frame was lost.
        peer: u64,
        /// The skipped sequence.
        seq: u64,
        /// NACKs that were sent for it before the skip.
        nacks: u64,
        /// The configured NACK budget (0 = repair disabled).
        budget: u64,
    },
    /// A traced segment entered a delivery hop (see `span.rs` for the
    /// hop vocabulary: `packetize`, `relay_fetch`, `fan_out`, `pace`,
    /// `wire`, `reorder`, `repair_stall`, `reassemble`, `playout_wait`).
    SpanOpen {
        /// Raw node index emitting the span (where the hop runs).
        node: u64,
        /// Raw node index of the other endpoint (== `node` for local
        /// hops such as `packetize` or `playout_wait`).
        peer: u64,
        /// Hop name from the fixed vocabulary.
        hop: String,
        /// Lecture id (splitmix64 hash of the content name).
        lecture: u64,
        /// Segment index within the lecture.
        segment: u64,
    },
    /// The matching hop completed. Pairs with the [`Event::SpanOpen`]
    /// carrying the same `(node, peer, hop, lecture, segment)` key.
    SpanClose {
        /// Raw node index emitting the span.
        node: u64,
        /// Raw node index of the other endpoint.
        peer: u64,
        /// Hop name from the fixed vocabulary.
        hop: String,
        /// Lecture id.
        lecture: u64,
        /// Segment index within the lecture.
        segment: u64,
    },
}

impl Event {
    /// The event's kind tag — the `kind` field of its JSONL form and the
    /// label of its `lod_events_total` counter.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::NodeLabel { .. } => "node_label",
            Event::SessionStart { .. } => "session_start",
            Event::PlaybackStart { .. } => "playback_start",
            Event::StallStart { .. } => "stall_start",
            Event::StallEnd { .. } => "stall_end",
            Event::BacklogHigh { .. } => "backlog_high",
            Event::BacklogLow { .. } => "backlog_low",
            Event::Downshift { .. } => "downshift",
            Event::Upshift { .. } => "upshift",
            Event::AdmissionShed { .. } => "admission_shed",
            Event::BusyBounce { .. } => "busy_bounce",
            Event::ClientShed { .. } => "client_shed",
            Event::Retry { .. } => "retry",
            Event::OutageStart { .. } => "outage_start",
            Event::Recovery { .. } => "recovery",
            Event::Abandon { .. } => "abandon",
            Event::SessionEnd { .. } => "session_end",
            Event::SessionReaped { .. } => "session_reaped",
            Event::BreakerOpen { .. } => "breaker_open",
            Event::BreakerProbe { .. } => "breaker_probe",
            Event::BreakerClose { .. } => "breaker_close",
            Event::CacheHit { .. } => "cache_hit",
            Event::CacheCoalesced { .. } => "cache_coalesced",
            Event::CacheMiss { .. } => "cache_miss",
            Event::CacheEvict { .. } => "cache_evict",
            Event::FetchRetry { .. } => "fetch_retry",
            Event::FetchGiveUp { .. } => "fetch_give_up",
            Event::FaultStrike { .. } => "fault_strike",
            Event::FaultHeal { .. } => "fault_heal",
            Event::HeartbeatMiss { .. } => "heartbeat_miss",
            Event::FailoverStart { .. } => "failover_start",
            Event::Promoted { .. } => "promoted",
            Event::Demoted { .. } => "demoted",
            Event::Checkpoint { .. } => "checkpoint",
            Event::SessionMigrated { .. } => "session_migrated",
            Event::NackSent { .. } => "nack_sent",
            Event::Retransmit { .. } => "retransmit",
            Event::RepairGiveUp { .. } => "repair_give_up",
            Event::GapSkipped { .. } => "gap_skipped",
            Event::SpanOpen { .. } => "span_open",
            Event::SpanClose { .. } => "span_close",
        }
    }
}

/// An [`Event`] stamped with the simulation tick it happened at. Records
/// are kept (and serialized) strictly in emission order, which under the
/// single-threaded deterministic drivers is also causal order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Simulation tick (100 ns units).
    pub at: u64,
    /// What happened.
    pub event: Event,
}

/// Appends `s` to `out` as the body of a JSON string, escaping quotes
/// and backslashes — the JSONL writers' one escaping rule.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":\"");
    escape_into(out, value);
    out.push('"');
}

fn push_num_field(out: &mut String, key: &str, value: u64) {
    use std::fmt::Write;
    let _ = write!(out, ",\"{key}\":{value}");
}

impl EventRecord {
    /// Serializes the record as one flat JSON object (no trailing
    /// newline). Field order is fixed per kind, so equal records always
    /// produce equal bytes.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(64);
        let _ = write!(
            out,
            "{{\"t\":{},\"kind\":\"{}\"",
            self.at,
            self.event.kind()
        );
        match &self.event {
            Event::NodeLabel { node, label } => {
                push_num_field(&mut out, "node", *node);
                push_str_field(&mut out, "label", label);
            }
            Event::SessionStart { client }
            | Event::StallStart { client }
            | Event::BusyBounce { client }
            | Event::ClientShed { client }
            | Event::OutageStart { client }
            | Event::Abandon { client }
            | Event::SessionEnd { client } => {
                push_num_field(&mut out, "client", *client);
            }
            Event::PlaybackStart {
                client,
                startup_ticks,
            } => {
                push_num_field(&mut out, "client", *client);
                push_num_field(&mut out, "startup_ticks", *startup_ticks);
            }
            Event::StallEnd {
                client,
                stall_ticks,
            } => {
                push_num_field(&mut out, "client", *client);
                push_num_field(&mut out, "stall_ticks", *stall_ticks);
            }
            Event::BacklogHigh { client, backlog } | Event::BacklogLow { client, backlog } => {
                push_num_field(&mut out, "client", *client);
                push_num_field(&mut out, "backlog", *backlog);
            }
            Event::Downshift {
                client,
                from_bps,
                to_bps,
            }
            | Event::Upshift {
                client,
                from_bps,
                to_bps,
            } => {
                push_num_field(&mut out, "client", *client);
                push_num_field(&mut out, "from_bps", *from_bps);
                push_num_field(&mut out, "to_bps", *to_bps);
            }
            Event::AdmissionShed { node, client } | Event::SessionReaped { node, client } => {
                push_num_field(&mut out, "node", *node);
                push_num_field(&mut out, "client", *client);
            }
            Event::Retry { client, attempt } => {
                push_num_field(&mut out, "client", *client);
                push_num_field(&mut out, "attempt", *attempt);
            }
            Event::Recovery {
                client,
                outage_ticks,
            } => {
                push_num_field(&mut out, "client", *client);
                push_num_field(&mut out, "outage_ticks", *outage_ticks);
            }
            Event::BreakerOpen { node }
            | Event::BreakerProbe { node }
            | Event::BreakerClose { node } => {
                push_num_field(&mut out, "node", *node);
            }
            Event::CacheHit { node, segment }
            | Event::CacheCoalesced { node, segment }
            | Event::CacheMiss { node, segment }
            | Event::FetchRetry { node, segment }
            | Event::FetchGiveUp { node, segment } => {
                push_num_field(&mut out, "node", *node);
                push_num_field(&mut out, "segment", *segment);
            }
            Event::CacheEvict {
                node,
                segment,
                bytes,
            } => {
                push_num_field(&mut out, "node", *node);
                push_num_field(&mut out, "segment", *segment);
                push_num_field(&mut out, "bytes", *bytes);
            }
            Event::FaultStrike {
                fault,
                a,
                b,
                detail,
            } => {
                push_str_field(&mut out, "fault", fault);
                push_num_field(&mut out, "a", *a);
                push_num_field(&mut out, "b", *b);
                push_num_field(&mut out, "detail", *detail);
            }
            Event::FaultHeal { fault, a, b } => {
                push_str_field(&mut out, "fault", fault);
                push_num_field(&mut out, "a", *a);
                push_num_field(&mut out, "b", *b);
            }
            Event::HeartbeatMiss { node, misses } => {
                push_num_field(&mut out, "node", *node);
                push_num_field(&mut out, "misses", *misses);
            }
            Event::FailoverStart { from, to, misses } => {
                push_num_field(&mut out, "from", *from);
                push_num_field(&mut out, "to", *to);
                push_num_field(&mut out, "misses", *misses);
            }
            Event::Promoted { node, epoch } | Event::Demoted { node, epoch } => {
                push_num_field(&mut out, "node", *node);
                push_num_field(&mut out, "epoch", *epoch);
            }
            Event::Checkpoint { client, horizon } | Event::SessionMigrated { client, horizon } => {
                push_num_field(&mut out, "client", *client);
                push_num_field(&mut out, "horizon", *horizon);
            }
            Event::NackSent {
                node,
                peer,
                base_seq,
                span,
            } => {
                push_num_field(&mut out, "node", *node);
                push_num_field(&mut out, "peer", *peer);
                push_num_field(&mut out, "base_seq", *base_seq);
                push_num_field(&mut out, "span", *span);
            }
            Event::Retransmit {
                node,
                peer,
                seq,
                attempt,
            } => {
                push_num_field(&mut out, "node", *node);
                push_num_field(&mut out, "peer", *peer);
                push_num_field(&mut out, "seq", *seq);
                push_num_field(&mut out, "attempt", *attempt);
            }
            Event::RepairGiveUp {
                node,
                peer,
                seq,
                retries,
                budget,
            } => {
                push_num_field(&mut out, "node", *node);
                push_num_field(&mut out, "peer", *peer);
                push_num_field(&mut out, "seq", *seq);
                push_num_field(&mut out, "retries", *retries);
                push_num_field(&mut out, "budget", *budget);
            }
            Event::GapSkipped {
                node,
                peer,
                seq,
                nacks,
                budget,
            } => {
                push_num_field(&mut out, "node", *node);
                push_num_field(&mut out, "peer", *peer);
                push_num_field(&mut out, "seq", *seq);
                push_num_field(&mut out, "nacks", *nacks);
                push_num_field(&mut out, "budget", *budget);
            }
            Event::SpanOpen {
                node,
                peer,
                hop,
                lecture,
                segment,
            }
            | Event::SpanClose {
                node,
                peer,
                hop,
                lecture,
                segment,
            } => {
                push_num_field(&mut out, "node", *node);
                push_num_field(&mut out, "peer", *peer);
                push_str_field(&mut out, "hop", hop);
                push_num_field(&mut out, "lecture", *lecture);
                push_num_field(&mut out, "segment", *segment);
            }
        }
        out.push('}');
        out
    }
}

/// A parsed flat-JSON value: every field of every event is one of these.
enum Val {
    Num(u64),
    Str(String),
}

/// Splits one flat JSON object (`{"k":v,...}`) into key/value pairs.
/// Only the subset this crate emits is accepted: string keys, u64 or
/// string values, no nesting.
fn parse_flat(line: &str) -> Result<Vec<(String, Val)>, String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line}"))?;
    let mut pairs = Vec::new();
    let mut chars = inner.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        if chars.next() != Some('"') {
            return Err(format!("expected key quote in: {line}"));
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '"' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key} in: {line}"));
        }
        match chars.peek() {
            Some('"') => {
                chars.next();
                let mut s = String::new();
                let mut escaped = false;
                for c in chars.by_ref() {
                    if escaped {
                        s.push(c);
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        break;
                    } else {
                        s.push(c);
                    }
                }
                pairs.push((key, Val::Str(s)));
            }
            Some(c) if c.is_ascii_digit() => {
                let mut n = String::new();
                while matches!(chars.peek(), Some(c) if c.is_ascii_digit()) {
                    n.push(chars.next().expect("peeked"));
                }
                let v = n
                    .parse::<u64>()
                    .map_err(|e| format!("bad number {n}: {e}"))?;
                pairs.push((key, Val::Num(v)));
            }
            other => return Err(format!("unsupported value start {other:?} in: {line}")),
        }
    }
    Ok(pairs)
}

struct Fields(Vec<(String, Val)>);

impl Fields {
    fn num(&self, key: &str) -> Result<u64, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, Val::Num(v))) => Ok(*v),
            Some((_, Val::Str(_))) => Err(format!("field {key} is a string, expected number")),
            None => Err(format!("missing field {key}")),
        }
    }

    fn str(&self, key: &str) -> Result<String, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, Val::Str(s))) => Ok(s.clone()),
            Some((_, Val::Num(_))) => Err(format!("field {key} is a number, expected string")),
            None => Err(format!("missing field {key}")),
        }
    }
}

/// Parses one JSONL line back into an [`EventRecord`]. The inverse of
/// [`EventRecord::to_json`]; unknown kinds are an error.
pub fn parse_event(line: &str) -> Result<EventRecord, String> {
    let f = Fields(parse_flat(line)?);
    let at = f.num("t")?;
    let kind = f.str("kind")?;
    let event = match kind.as_str() {
        "node_label" => Event::NodeLabel {
            node: f.num("node")?,
            label: f.str("label")?,
        },
        "session_start" => Event::SessionStart {
            client: f.num("client")?,
        },
        "playback_start" => Event::PlaybackStart {
            client: f.num("client")?,
            startup_ticks: f.num("startup_ticks")?,
        },
        "stall_start" => Event::StallStart {
            client: f.num("client")?,
        },
        "stall_end" => Event::StallEnd {
            client: f.num("client")?,
            stall_ticks: f.num("stall_ticks")?,
        },
        "backlog_high" => Event::BacklogHigh {
            client: f.num("client")?,
            backlog: f.num("backlog")?,
        },
        "backlog_low" => Event::BacklogLow {
            client: f.num("client")?,
            backlog: f.num("backlog")?,
        },
        "downshift" => Event::Downshift {
            client: f.num("client")?,
            from_bps: f.num("from_bps")?,
            to_bps: f.num("to_bps")?,
        },
        "upshift" => Event::Upshift {
            client: f.num("client")?,
            from_bps: f.num("from_bps")?,
            to_bps: f.num("to_bps")?,
        },
        "admission_shed" => Event::AdmissionShed {
            node: f.num("node")?,
            client: f.num("client")?,
        },
        "busy_bounce" => Event::BusyBounce {
            client: f.num("client")?,
        },
        "client_shed" => Event::ClientShed {
            client: f.num("client")?,
        },
        "retry" => Event::Retry {
            client: f.num("client")?,
            attempt: f.num("attempt")?,
        },
        "outage_start" => Event::OutageStart {
            client: f.num("client")?,
        },
        "recovery" => Event::Recovery {
            client: f.num("client")?,
            outage_ticks: f.num("outage_ticks")?,
        },
        "abandon" => Event::Abandon {
            client: f.num("client")?,
        },
        "session_end" => Event::SessionEnd {
            client: f.num("client")?,
        },
        "session_reaped" => Event::SessionReaped {
            node: f.num("node")?,
            client: f.num("client")?,
        },
        "breaker_open" => Event::BreakerOpen {
            node: f.num("node")?,
        },
        "breaker_probe" => Event::BreakerProbe {
            node: f.num("node")?,
        },
        "breaker_close" => Event::BreakerClose {
            node: f.num("node")?,
        },
        "cache_hit" => Event::CacheHit {
            node: f.num("node")?,
            segment: f.num("segment")?,
        },
        "cache_coalesced" => Event::CacheCoalesced {
            node: f.num("node")?,
            segment: f.num("segment")?,
        },
        "cache_miss" => Event::CacheMiss {
            node: f.num("node")?,
            segment: f.num("segment")?,
        },
        "cache_evict" => Event::CacheEvict {
            node: f.num("node")?,
            segment: f.num("segment")?,
            bytes: f.num("bytes")?,
        },
        "fetch_retry" => Event::FetchRetry {
            node: f.num("node")?,
            segment: f.num("segment")?,
        },
        "fetch_give_up" => Event::FetchGiveUp {
            node: f.num("node")?,
            segment: f.num("segment")?,
        },
        "fault_strike" => Event::FaultStrike {
            fault: f.str("fault")?,
            a: f.num("a")?,
            b: f.num("b")?,
            detail: f.num("detail")?,
        },
        "fault_heal" => Event::FaultHeal {
            fault: f.str("fault")?,
            a: f.num("a")?,
            b: f.num("b")?,
        },
        "heartbeat_miss" => Event::HeartbeatMiss {
            node: f.num("node")?,
            misses: f.num("misses")?,
        },
        "failover_start" => Event::FailoverStart {
            from: f.num("from")?,
            to: f.num("to")?,
            misses: f.num("misses")?,
        },
        "promoted" => Event::Promoted {
            node: f.num("node")?,
            epoch: f.num("epoch")?,
        },
        "demoted" => Event::Demoted {
            node: f.num("node")?,
            epoch: f.num("epoch")?,
        },
        "checkpoint" => Event::Checkpoint {
            client: f.num("client")?,
            horizon: f.num("horizon")?,
        },
        "session_migrated" => Event::SessionMigrated {
            client: f.num("client")?,
            horizon: f.num("horizon")?,
        },
        "nack_sent" => Event::NackSent {
            node: f.num("node")?,
            peer: f.num("peer")?,
            base_seq: f.num("base_seq")?,
            span: f.num("span")?,
        },
        "retransmit" => Event::Retransmit {
            node: f.num("node")?,
            peer: f.num("peer")?,
            seq: f.num("seq")?,
            attempt: f.num("attempt")?,
        },
        "repair_give_up" => Event::RepairGiveUp {
            node: f.num("node")?,
            peer: f.num("peer")?,
            seq: f.num("seq")?,
            retries: f.num("retries")?,
            budget: f.num("budget")?,
        },
        "gap_skipped" => Event::GapSkipped {
            node: f.num("node")?,
            peer: f.num("peer")?,
            seq: f.num("seq")?,
            nacks: f.num("nacks")?,
            budget: f.num("budget")?,
        },
        "span_open" => Event::SpanOpen {
            node: f.num("node")?,
            peer: f.num("peer")?,
            hop: f.str("hop")?,
            lecture: f.num("lecture")?,
            segment: f.num("segment")?,
        },
        "span_close" => Event::SpanClose {
            node: f.num("node")?,
            peer: f.num("peer")?,
            hop: f.str("hop")?,
            lecture: f.num("lecture")?,
            segment: f.num("segment")?,
        },
        other => return Err(format!("unknown event kind {other}")),
    };
    Ok(EventRecord { at, event })
}

/// Parses a whole JSONL log (blank lines skipped) back into records.
pub fn parse_jsonl(text: &str) -> Result<Vec<EventRecord>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_event)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips() {
        let all = vec![
            Event::NodeLabel {
                node: 0,
                label: "origin".into(),
            },
            Event::SessionStart { client: 3 },
            Event::PlaybackStart {
                client: 3,
                startup_ticks: 12_000_000,
            },
            Event::StallStart { client: 3 },
            Event::StallEnd {
                client: 3,
                stall_ticks: 7,
            },
            Event::BacklogHigh {
                client: 3,
                backlog: 900_000,
            },
            Event::BacklogLow {
                client: 3,
                backlog: 10,
            },
            Event::Downshift {
                client: 3,
                from_bps: 300_000,
                to_bps: 150_000,
            },
            Event::Upshift {
                client: 3,
                from_bps: 150_000,
                to_bps: 300_000,
            },
            Event::AdmissionShed { node: 0, client: 9 },
            Event::BusyBounce { client: 9 },
            Event::ClientShed { client: 9 },
            Event::Retry {
                client: 4,
                attempt: 2,
            },
            Event::OutageStart { client: 4 },
            Event::Recovery {
                client: 4,
                outage_ticks: 55,
            },
            Event::Abandon { client: 4 },
            Event::SessionEnd { client: 3 },
            Event::SessionReaped { node: 0, client: 5 },
            Event::BreakerOpen { node: 2 },
            Event::BreakerProbe { node: 2 },
            Event::BreakerClose { node: 2 },
            Event::CacheHit {
                node: 2,
                segment: 11,
            },
            Event::CacheCoalesced {
                node: 2,
                segment: 11,
            },
            Event::CacheMiss {
                node: 2,
                segment: 12,
            },
            Event::CacheEvict {
                node: 2,
                segment: 1,
                bytes: 64_000,
            },
            Event::FetchRetry {
                node: 2,
                segment: 12,
            },
            Event::FetchGiveUp {
                node: 2,
                segment: 12,
            },
            Event::FaultStrike {
                fault: "loss_burst".into(),
                a: 1,
                b: 7,
                detail: 250,
            },
            Event::FaultHeal {
                fault: "loss_burst".into(),
                a: 1,
                b: 7,
            },
            Event::HeartbeatMiss { node: 0, misses: 2 },
            Event::FailoverStart {
                from: 0,
                to: 9,
                misses: 3,
            },
            Event::Promoted { node: 9, epoch: 2 },
            Event::Demoted { node: 0, epoch: 2 },
            Event::Checkpoint {
                client: 3,
                horizon: 4_096,
            },
            Event::SessionMigrated {
                client: 3,
                horizon: 4_096,
            },
            Event::NackSent {
                node: 5,
                peer: 1,
                base_seq: 42,
                span: 3,
            },
            Event::Retransmit {
                node: 1,
                peer: 5,
                seq: 42,
                attempt: 1,
            },
            Event::RepairGiveUp {
                node: 1,
                peer: 5,
                seq: 44,
                retries: 3,
                budget: 3,
            },
            Event::GapSkipped {
                node: 5,
                peer: 1,
                seq: 44,
                nacks: 3,
                budget: 3,
            },
            Event::SpanOpen {
                node: 2,
                peer: 0,
                hop: "relay_fetch".into(),
                lecture: 0xfeed_beef,
                segment: 17,
            },
            Event::SpanClose {
                node: 2,
                peer: 0,
                hop: "relay_fetch".into(),
                lecture: 0xfeed_beef,
                segment: 17,
            },
        ];
        for (i, event) in all.into_iter().enumerate() {
            let rec = EventRecord {
                at: i as u64 * 100,
                event,
            };
            let line = rec.to_json();
            let back = parse_event(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, rec, "{line}");
        }
    }

    #[test]
    fn labels_with_quotes_and_backslashes_survive() {
        let rec = EventRecord {
            at: 1,
            event: Event::NodeLabel {
                node: 1,
                label: "we\"ird\\label".into(),
            },
        };
        assert_eq!(parse_event(&rec.to_json()).unwrap(), rec);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_event("not json").is_err());
        assert!(parse_event("{\"t\":1,\"kind\":\"no_such_kind\"}").is_err());
        assert!(parse_event("{\"t\":1,\"kind\":\"retry\",\"client\":2}").is_err());
    }

    #[test]
    fn jsonl_round_trips_in_order() {
        let recs = vec![
            EventRecord {
                at: 0,
                event: Event::SessionStart { client: 1 },
            },
            EventRecord {
                at: 5,
                event: Event::StallStart { client: 1 },
            },
        ];
        let text: String = recs.iter().map(|r| r.to_json() + "\n").collect();
        assert_eq!(parse_jsonl(&text).unwrap(), recs);
    }
}
