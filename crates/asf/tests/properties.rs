//! Property-based tests: the container round-trips arbitrary content.

use std::collections::{HashMap, HashSet};

use lod_asf::{
    read_asf, write_asf, AsfError, AsfFile, DataPacket, FileProperties, License, MediaSample,
    Packetizer, Payload, Reassembler, ScriptCommand, ScriptCommandList, StreamKind,
    StreamProperties, MAX_SAMPLE_BYTES,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn arb_samples() -> impl Strategy<Value = Vec<MediaSample>> {
    proptest::collection::vec(
        (
            1u16..=3,
            0u64..100_000,
            proptest::collection::vec(any::<u8>(), 0..600),
        ),
        0..20,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(s, t, d)| MediaSample::new(s, t, d))
            .collect()
    })
}

fn arb_script() -> impl Strategy<Value = ScriptCommandList> {
    proptest::collection::vec((0u64..10_000, "[a-z]{1,8}", "[ -~]{0,20}"), 0..10).prop_map(|v| {
        v.into_iter()
            .map(|(t, k, p)| ScriptCommand::new(t, k, p))
            .collect()
    })
}

fn make_file(samples: &[MediaSample], script: ScriptCommandList, packet_size: u32) -> AsfFile {
    let mut pk = Packetizer::new(packet_size).unwrap();
    for s in samples {
        pk.push(s);
    }
    AsfFile {
        props: FileProperties {
            file_id: 99,
            created: 5,
            packet_size,
            play_duration: 0,
            preroll: 0,
            broadcast: false,
            max_bitrate: 128_000,
        },
        streams: (1..=3)
            .map(|n| StreamProperties {
                number: n,
                kind: StreamKind::Video,
                codec: 4,
                bitrate: 1000,
                name: format!("s{n}"),
            })
            .collect(),
        script,
        drm: None,
        packets: pk.finish(),
        index: None,
    }
}

/// Reference model for [`Reassembler`]: the straightforward hash-map
/// reassembler it replaced, plus the same [`MAX_SAMPLE_BYTES`] check at the
/// point where a sample buffer would be allocated. Slow but obviously
/// right; the differential property below holds the real one to it.
#[derive(Default)]
struct ModelReassembler {
    partial: HashMap<(u16, u32), ModelPartial>,
    finished: HashSet<(u16, u32)>,
    complete: Vec<MediaSample>,
}

struct ModelPartial {
    pres_time: u64,
    total: u32,
    received: u32,
    data: Vec<u8>,
    seen: Vec<(u32, u32)>,
}

impl ModelReassembler {
    fn push_packet(&mut self, packet: &DataPacket) -> Result<(), AsfError> {
        for p in &packet.payloads {
            self.push_payload(p)?;
        }
        Ok(())
    }

    fn push_payload(&mut self, p: &Payload) -> Result<(), AsfError> {
        let key = (p.stream, p.object_id);
        if self.finished.contains(&key) {
            return Ok(());
        }
        if !self.partial.contains_key(&key) && p.total > MAX_SAMPLE_BYTES {
            return Err(AsfError::OversizedSample {
                stream: p.stream,
                object: p.object_id,
                total: p.total,
            });
        }
        let mismatch = AsfError::FragmentMismatch {
            stream: p.stream,
            object: p.object_id,
        };
        let entry = self.partial.entry(key).or_insert_with(|| ModelPartial {
            pres_time: p.pres_time,
            total: p.total,
            received: 0,
            data: vec![0; p.total as usize],
            seen: Vec::new(),
        });
        if entry.total != p.total || entry.pres_time != p.pres_time {
            return Err(mismatch);
        }
        let end = p.offset as usize + p.data.len();
        if end > entry.data.len() {
            return Err(mismatch);
        }
        if entry.seen.contains(&(p.offset, p.data.len() as u32)) {
            return Ok(());
        }
        if entry
            .seen
            .iter()
            .any(|&(o, l)| p.offset < o + l && o < p.offset + p.data.len() as u32)
        {
            return Err(mismatch);
        }
        entry.data[p.offset as usize..end].copy_from_slice(&p.data);
        entry.seen.push((p.offset, p.data.len() as u32));
        entry.received += p.data.len() as u32;
        if entry.received >= entry.total {
            let done = self.partial.remove(&key).expect("entry exists");
            self.finished.insert(key);
            self.complete
                .push(MediaSample::new(key.0, done.pres_time, done.data));
        }
        Ok(())
    }

    fn take_completed(&mut self) -> Vec<MediaSample> {
        let mut out = std::mem::take(&mut self.complete);
        out.sort_by_key(|s| (s.pres_time, s.stream));
        out
    }

    fn incomplete(&self) -> usize {
        self.partial.len()
    }
}

/// A fragment that contradicts, overruns or forges the real traffic:
/// what a lossy, duplicating or hostile network can deliver.
fn junk_fragment(rng: &mut SmallRng, real: &[Payload]) -> Payload {
    let mut p = real[rng.gen_range(0..real.len())].clone();
    match rng.gen_range(0..7u32) {
        // Same object, a different sample size.
        0 => p.total = p.total.wrapping_add(rng.gen_range(1..50u32)),
        // Same object, a different presentation time.
        1 => p.pres_time += 1,
        // Shifted by one byte: overlaps its neighbours or runs past the end.
        2 => p.offset += 1,
        // An empty fragment somewhere inside (or just past) the sample.
        3 => {
            p.offset = rng.gen_range(0..=p.total.saturating_add(1));
            p.data = Default::default();
        }
        // A forged id claiming an impossible size.
        4 => {
            p.object_id = rng.gen_range(1_000..1_100u32);
            p.total = if rng.gen_bool(0.5) {
                u32::MAX
            } else {
                MAX_SAMPLE_BYTES + 1
            };
        }
        // A forged whole sample (fresh, or colliding with a real id).
        5 => {
            if rng.gen_bool(0.5) {
                p.object_id = u32::MAX - rng.gen_range(0..3u32);
            }
            p.offset = 0;
            p.total = p.data.len() as u32;
        }
        // A fragment of a fresh id that never completes.
        _ => {
            p.object_id = rng.gen_range(2_000..2_010u32);
            p.total = p.data.len() as u32 + rng.gen_range(1..100u32);
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The reassembler agrees with the reference model on every result,
    /// every drained batch and every incomplete count, over packetizer
    /// output that is shuffled, duplicated, partly dropped and mixed with
    /// conflicting junk fragments.
    #[test]
    fn reassembler_matches_reference_model(
        samples in arb_samples(),
        packet_size in 64u32..512,
        seed in any::<u64>(),
    ) {
        let mut pk = Packetizer::new(packet_size).unwrap();
        for s in &samples {
            pk.push(s);
        }
        let real: Vec<Payload> = pk.finish().into_iter().flat_map(|p| p.payloads).collect();
        if real.is_empty() {
            return Ok(());
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut frags = Vec::new();
        for p in &real {
            if rng.gen_bool(0.1) {
                continue;
            }
            frags.push(p.clone());
            if rng.gen_bool(0.2) {
                frags.push(p.clone());
            }
        }
        for _ in 0..rng.gen_range(0..=real.len() / 2 + 2) {
            frags.push(junk_fragment(&mut rng, &real));
        }
        // A full shuffle, or only local reordering.
        let window = if rng.gen_bool(0.5) { frags.len() } else { 4 };
        for i in (1..frags.len()).rev() {
            let j = rng.gen_range(i.saturating_sub(window)..=i);
            frags.swap(i, j);
        }
        let mut model = ModelReassembler::default();
        let mut real_rs = Reassembler::new();
        let mut rest = frags.as_slice();
        while !rest.is_empty() {
            let n = rng.gen_range(1..=rest.len().min(4));
            let packet = DataPacket {
                send_time: 0,
                payloads: rest[..n].to_vec(),
            };
            rest = &rest[n..];
            prop_assert_eq!(real_rs.push_packet(&packet), model.push_packet(&packet));
            prop_assert_eq!(real_rs.incomplete(), model.incomplete());
            if rng.gen_bool(0.3) {
                prop_assert_eq!(real_rs.take_completed(), model.take_completed());
            }
        }
        let mut drained = Vec::new();
        real_rs.drain_completed_into(&mut drained);
        prop_assert_eq!(drained, model.take_completed());
    }
}

proptest! {
    /// write → read is the identity on the whole file model.
    #[test]
    fn mux_demux_identity(
        samples in arb_samples(),
        script in arb_script(),
        packet_size in 64u32..2048,
    ) {
        let mut f = make_file(&samples, script, packet_size);
        f.build_index(1_000);
        let bytes = write_asf(&f).unwrap();
        let back = read_asf(&bytes).unwrap();
        prop_assert_eq!(back, f);
    }

    /// Packetize → reassemble restores every sample exactly.
    #[test]
    fn fragment_reassemble_identity(
        samples in arb_samples(),
        packet_size in 64u32..512,
    ) {
        let mut pk = Packetizer::new(packet_size).unwrap();
        for s in &samples {
            pk.push(s);
        }
        let packets = pk.finish();
        let mut rs = Reassembler::new();
        for p in &packets {
            rs.push_packet(p).unwrap();
        }
        let mut got = rs.take_completed();
        let mut want = samples.clone();
        // Order by (time, stream, data) — object ids disambiguate on the
        // wire but equal (time, stream) pairs are unordered here.
        let key = |s: &MediaSample| (s.pres_time, s.stream, s.data.clone());
        got.sort_by_key(key);
        want.sort_by_key(key);
        prop_assert_eq!(got, want);
        prop_assert_eq!(rs.incomplete(), 0);
    }

    /// Every serialized packet is exactly the declared size.
    #[test]
    fn packets_have_fixed_size(
        samples in arb_samples(),
        packet_size in 64u32..512,
    ) {
        let mut pk = Packetizer::new(packet_size).unwrap();
        for s in &samples {
            pk.push(s);
        }
        for p in pk.finish() {
            prop_assert_eq!(p.write(packet_size).unwrap().len(), packet_size as usize);
        }
    }

    /// DRM protect → unprotect restores the content bit-exactly, and the
    /// wrong key never verifies.
    #[test]
    fn drm_round_trip(
        samples in arb_samples(),
        key in any::<u64>(),
    ) {
        let f = make_file(&samples, ScriptCommandList::new(), 256);
        let mut g = f.clone();
        let lic = License::new("k", key);
        g.protect(&lic);
        let mut wrong = g.clone();
        prop_assert!(wrong.unprotect(&License::new("k", key.wrapping_add(1))).is_err());
        g.unprotect(&lic).unwrap();
        prop_assert_eq!(g.packets, f.packets);
    }

    /// Parsing arbitrary bytes never panics (it may error).
    #[test]
    fn demux_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = read_asf(&bytes);
    }

    /// Truncating a valid file at any point fails cleanly, never panics.
    #[test]
    fn truncation_fails_cleanly(
        samples in arb_samples(),
        cut_ratio in 0.0f64..1.0,
    ) {
        let f = make_file(&samples, ScriptCommandList::new(), 128);
        let bytes = write_asf(&f).unwrap();
        let cut = ((bytes.len() as f64) * cut_ratio) as usize;
        if cut < bytes.len() {
            prop_assert!(read_asf(&bytes[..cut]).is_err());
        }
    }
}
