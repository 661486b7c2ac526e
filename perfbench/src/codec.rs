//! Codec and framing costs on a workload's own traffic.
//!
//! The traced drivers keep a stride sample of every delivered message;
//! this replays that mix through `WireCodec` (encode, then the shared
//! zero-copy decode the UDP receive path uses) and through
//! `encode_frame`/`decode_frame`, and reports ns per message.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use lod_streaming::Wire;
use lod_transport::{decode_frame, encode_frame, WireCodec};

use crate::median;

/// Replay passes; each cost is the median pass.
const PASSES: usize = 5;

pub struct CodecCost {
    pub messages: u64,
    pub encode_ns_per_msg: f64,
    pub decode_ns_per_msg: f64,
    pub frame_ns_per_frame: f64,
    pub bytes_per_msg: f64,
}

/// Replays `mix`; panics if any message fails to round-trip, since the
/// replay doubles as a check of the codec on real traffic.
pub fn replay(mix: &[Wire]) -> CodecCost {
    assert!(!mix.is_empty(), "the traced serve delivered no messages");
    let payloads: Vec<Bytes> = mix
        .iter()
        .map(|m| Bytes::from(m.to_frame_payload()))
        .collect();
    for (m, p) in mix.iter().zip(&payloads) {
        let back = Wire::from_shared_payload(p).expect("a delivered message decodes");
        assert!(&back == m, "codec round trip changed a delivered message");
    }
    let n = mix.len() as f64;
    let (mut enc, mut dec, mut frm) = (Vec::new(), Vec::new(), Vec::new());
    let mut buf = Vec::new();
    for _ in 0..PASSES {
        let t = Instant::now();
        for m in mix {
            buf.clear();
            black_box(m).encode_wire(&mut buf);
            black_box(&buf);
        }
        enc.push(t.elapsed().as_nanos() as f64 / n);

        let t = Instant::now();
        for p in &payloads {
            black_box(Wire::from_shared_payload(black_box(p)).expect("decodes"));
        }
        dec.push(t.elapsed().as_nanos() as f64 / n);

        let t = Instant::now();
        for (seq, p) in payloads.iter().enumerate() {
            let frame = encode_frame(seq as u64 + 1, seq as u64, false, black_box(p));
            black_box(decode_frame(&frame).expect("frame decodes"));
        }
        frm.push(t.elapsed().as_nanos() as f64 / n);
    }
    CodecCost {
        messages: mix.len() as u64,
        encode_ns_per_msg: median(enc),
        decode_ns_per_msg: median(dec),
        frame_ns_per_frame: median(frm),
        bytes_per_msg: payloads.iter().map(|p| p.len() as f64).sum::<f64>() / n,
    }
}
