//! Session-state checkpointing for warm-standby origin failover.
//!
//! The origin is the last single point of failure in the delivery chain:
//! relays re-home via `RedirectManager::fail_relay`, but an origin crash
//! used to kill every session outright. Following the CWcollab insight
//! that *session state*, not media, is the availability-critical layer,
//! the origin journals a compact [`SessionCheckpoint`] on every session
//! state transition (create / advance-by-N / downshift / upshift / end)
//! and a warm standby applies the journal into a [`StandbyState`]. On
//! promotion the standby resumes each session from its checkpointed
//! horizon via the ordinary `Play{from>0}` machinery.
//!
//! Everything here is integer-only and hand-rolled JSONL in the exact
//! `lod-obs` conventions (fixed field order, unquoted integers, `\"` and
//! `\\` string escapes), so a replicated journal is byte-identical across
//! seeded replays and survives a serialize → parse round trip
//! bit-for-bit. Replication lag is *bounded but nonzero* by design: the
//! standby's view is stale-but-consistent, never corrupt — any prefix of
//! the journal is a valid state.

use std::collections::BTreeMap;

/// Compact snapshot of one streaming session, sufficient to resume it on
/// a promoted standby: who, what, how far, and at which degrade rung.
///
/// All counters are integers (bools ride as 0/1 on the wire) so the
/// journal serializes byte-stably. The admission seat is implicit: a
/// checkpointed, non-ended session *owns* a seat, and the standby honors
/// it by admitting the resume without charging the admission budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionCheckpoint {
    /// Client node index.
    pub client: u64,
    /// Published content name.
    pub content: String,
    /// Next packet index to send — the playback horizon the resume
    /// restarts from.
    pub next_packet: u64,
    /// Degrade rung: the session's current effective bitrate cap.
    pub effective_bps: u64,
    /// Degrade thinning ratio numerator (`keep` fraction of packets).
    pub keep_num: u64,
    /// Degrade thinning ratio denominator.
    pub keep_den: u64,
    /// Live subscription (`true`) vs stored VoD (`false`).
    pub live: bool,
    /// Terminal marker: the session ended (EOS, teardown or reap) and the
    /// standby must *drop* it instead of resuming it.
    pub ended: bool,
}

/// One journal record: a checkpoint stamped with the tick it was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Tick at which the origin emitted this checkpoint.
    pub at: u64,
    /// The session snapshot.
    pub ckpt: SessionCheckpoint,
}

impl JournalEntry {
    /// Serializes the entry as one flat JSON object (no trailing
    /// newline). Field order is fixed, so equal entries always produce
    /// equal bytes.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let c = &self.ckpt;
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"at\":{},\"client\":{},\"content\":\"",
            self.at, c.client
        );
        lod_obs::escape_into(&mut out, &c.content);
        let _ = write!(
            out,
            "\",\"next_packet\":{},\"effective_bps\":{},\"keep_num\":{},\"keep_den\":{},\
             \"live\":{},\"ended\":{}}}",
            c.next_packet,
            c.effective_bps,
            c.keep_num,
            c.keep_den,
            u64::from(c.live),
            u64::from(c.ended),
        );
        out
    }

    /// Parses one journal line produced by [`JournalEntry::to_json`].
    pub fn parse(line: &str) -> Result<Self, String> {
        let inner = line
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| format!("not a JSON object: {line}"))?;
        let mut nums: BTreeMap<String, u64> = BTreeMap::new();
        let mut content: Option<String> = None;
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
                    if key == "content" {
                        content = Some(s);
                    } else {
                        return Err(format!("unexpected string field {key} in: {line}"));
                    }
                }
                Some(c) if c.is_ascii_digit() => {
                    let mut n = String::new();
                    while matches!(chars.peek(), Some(c) if c.is_ascii_digit()) {
                        n.push(chars.next().expect("peeked"));
                    }
                    let v = n
                        .parse::<u64>()
                        .map_err(|e| format!("bad number {n}: {e}"))?;
                    nums.insert(key, v);
                }
                other => return Err(format!("unsupported value start {other:?} in: {line}")),
            }
        }
        let num = |key: &str| -> Result<u64, String> {
            nums.get(key)
                .copied()
                .ok_or_else(|| format!("missing field {key} in: {line}"))
        };
        Ok(Self {
            at: num("at")?,
            ckpt: SessionCheckpoint {
                client: num("client")?,
                content: content.ok_or_else(|| format!("missing field content in: {line}"))?,
                next_packet: num("next_packet")?,
                effective_bps: num("effective_bps")?,
                keep_num: num("keep_num")?,
                keep_den: num("keep_den")?,
                live: num("live")? != 0,
                ended: num("ended")? != 0,
            },
        })
    }
}

/// The origin's outbound checkpoint stream.
///
/// The origin appends on every session state transition (and every
/// `checkpoint_every` ticks of playback advance); the replication driver
/// periodically [`SessionJournal::drain`]s the tail across to the
/// standby. Draining models the replication channel: whatever was not
/// yet drained when the origin died is the (bounded) state lost to the
/// failover — sessions resume from their last *replicated* horizon.
#[derive(Debug, Default)]
pub struct SessionJournal {
    entries: Vec<JournalEntry>,
}

impl SessionJournal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one checkpoint.
    pub fn append(&mut self, at: u64, ckpt: SessionCheckpoint) {
        self.entries.push(JournalEntry { at, ckpt });
    }

    /// Takes every entry appended since the last drain, in append order.
    pub fn drain(&mut self) -> Vec<JournalEntry> {
        std::mem::take(&mut self.entries)
    }

    /// Entries currently queued for replication.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the queued tail as JSONL, one entry per line, in append
    /// order. Byte-identical across seeded replays.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 96);
        for e in &self.entries {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

/// Parses a JSONL journal dump back into entries, in order.
pub fn parse_journal(text: &str) -> Result<Vec<JournalEntry>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(JournalEntry::parse)
        .collect()
}

/// The standby's replicated view: latest checkpoint per client.
///
/// `apply` is idempotent and prefix-safe — replaying any prefix of the
/// journal, or replaying entries twice, yields a valid (merely staler)
/// state. A `BTreeMap` keyed by client index makes promotion-time
/// iteration deterministic regardless of arrival order.
#[derive(Debug, Default)]
pub struct StandbyState {
    sessions: BTreeMap<u64, SessionCheckpoint>,
}

impl StandbyState {
    /// An empty replica.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one journal entry: last-writer-wins per client, and a
    /// terminal (`ended`) checkpoint removes the session entirely.
    pub fn apply(&mut self, entry: &JournalEntry) {
        if entry.ckpt.ended {
            self.sessions.remove(&entry.ckpt.client);
        } else {
            self.sessions.insert(entry.ckpt.client, entry.ckpt.clone());
        }
    }

    /// Applies a drained batch in order.
    pub fn apply_all(&mut self, entries: &[JournalEntry]) {
        for e in entries {
            self.apply(e);
        }
    }

    /// Live (non-ended) sessions in ascending client order.
    pub fn sessions(&self) -> impl Iterator<Item = &SessionCheckpoint> {
        self.sessions.values()
    }

    /// Number of live sessions in the replica.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the replica holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Takes the replicated sessions, leaving the replica empty (used at
    /// promotion, when the checkpoints turn into pending resumes).
    pub fn take_sessions(&mut self) -> BTreeMap<u64, SessionCheckpoint> {
        std::mem::take(&mut self.sessions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lod_obs::splitmix64;

    /// Deterministic checkpoint generator for the property-style tests:
    /// no proptest dependency, just a seeded splitmix64 stream.
    fn gen_ckpt(seed: u64, i: u64) -> SessionCheckpoint {
        let r = |k: u64| splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k);
        let names = ["lecture", "lec\"quoted\"", "back\\slash", "algebra-101", ""];
        SessionCheckpoint {
            client: r(1) % 64,
            content: names[(r(2) % names.len() as u64) as usize].to_string(),
            next_packet: r(3) % 100_000,
            effective_bps: r(4) % 5_000_000,
            keep_num: r(5) % 16,
            keep_den: 1 + r(6) % 16,
            live: r(7) % 2 == 1,
            ended: r(8) % 5 == 0,
        }
    }

    #[test]
    fn round_trips_bit_for_bit() {
        // Every session field — horizon, degrade rung, thinning ratio,
        // mode, terminality — survives serialize → parse exactly, across
        // hundreds of generated cases including quote/backslash names.
        for case in 0..400u64 {
            let e = JournalEntry {
                at: splitmix64(case) % 1_000_000_000,
                ckpt: gen_ckpt(0xC0FFEE, case),
            };
            let line = e.to_json();
            let back = JournalEntry::parse(&line).expect("parses");
            assert_eq!(back, e, "case {case}: {line}");
            // And the re-serialization is byte-identical.
            assert_eq!(back.to_json(), line, "case {case}");
        }
    }

    #[test]
    fn journal_jsonl_round_trips_in_order() {
        let mut j = SessionJournal::new();
        for i in 0..50u64 {
            j.append(i * 10, gen_ckpt(7, i));
        }
        let text = j.to_jsonl();
        let parsed = parse_journal(&text).expect("parses");
        assert_eq!(parsed.len(), 50);
        let drained = j.drain();
        assert_eq!(parsed, drained);
        assert!(j.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(JournalEntry::parse("not json").is_err());
        assert!(JournalEntry::parse("{\"at\":1}").is_err());
        assert!(JournalEntry::parse("{\"at\":1,\"client\":2,\"content\":3}").is_err());
    }

    #[test]
    fn apply_is_idempotent() {
        // Applying the same journal twice (replication channels may
        // re-deliver) leaves the replica exactly where one pass did.
        for seed in 0..20u64 {
            let entries: Vec<JournalEntry> = (0..60)
                .map(|i| JournalEntry {
                    at: i,
                    ckpt: gen_ckpt(seed, i),
                })
                .collect();
            let mut once = StandbyState::new();
            once.apply_all(&entries);
            // Whole-batch re-delivery: last-writer-wins per client means
            // the second pass converges on the same state.
            let mut twice = StandbyState::new();
            twice.apply_all(&entries);
            twice.apply_all(&entries);
            // Per-entry duplicate delivery: each record applied twice
            // back-to-back.
            let mut doubled = StandbyState::new();
            for e in &entries {
                doubled.apply(e);
                doubled.apply(e);
            }
            let a: Vec<_> = once.sessions().cloned().collect();
            let b: Vec<_> = twice.sessions().cloned().collect();
            let c: Vec<_> = doubled.sessions().cloned().collect();
            assert_eq!(a, b, "seed {seed}: batch re-delivery diverged");
            assert_eq!(a, c, "seed {seed}: duplicate delivery diverged");
        }
    }

    #[test]
    fn any_prefix_is_a_valid_state() {
        // Stale-but-consistent: replaying any prefix yields a state where
        // every live session equals the *latest non-ended* checkpoint of
        // that prefix — never a torn or invented value.
        for seed in 0..10u64 {
            let entries: Vec<JournalEntry> = (0..80)
                .map(|i| JournalEntry {
                    at: i,
                    ckpt: gen_ckpt(seed.wrapping_add(100), i),
                })
                .collect();
            for cut in 0..=entries.len() {
                let prefix = &entries[..cut];
                let mut st = StandbyState::new();
                st.apply_all(prefix);
                // Reference semantics, computed independently.
                let mut expect: BTreeMap<u64, SessionCheckpoint> = BTreeMap::new();
                for e in prefix {
                    if e.ckpt.ended {
                        expect.remove(&e.ckpt.client);
                    } else {
                        expect.insert(e.ckpt.client, e.ckpt.clone());
                    }
                }
                let got: Vec<_> = st.sessions().cloned().collect();
                let want: Vec<_> = expect.values().cloned().collect();
                assert_eq!(got, want, "seed {seed} prefix {cut}");
            }
        }
    }

    #[test]
    fn ended_checkpoint_tombstones_the_session() {
        let mut st = StandbyState::new();
        let mut live = gen_ckpt(1, 1);
        live.client = 5;
        live.ended = false;
        st.apply(&JournalEntry { at: 1, ckpt: live });
        assert_eq!(st.len(), 1);
        let mut dead = gen_ckpt(1, 2);
        dead.client = 5;
        dead.ended = true;
        st.apply(&JournalEntry { at: 2, ckpt: dead });
        assert!(st.is_empty());
    }
}
