//! Q14: the transport tier on real sockets — first entry in the perf
//! trajectory.
//!
//! Two measurements, both on the production `UdpTransport` path:
//!
//! * **Codec micro-bench** — median ns to encode and decode
//!   representative `Wire` messages (a 32-packet `Segment` near the
//!   datagram ceiling, and a small control `Request`), since the UDP
//!   backend runs the codec on every frame on the hot path.
//! * **Loopback deployment** — origin + 2 relays + 32 clients as real
//!   threads on localhost sockets completing a one-minute lecture;
//!   reported as frames/sec and bytes/sec through the transports, plus
//!   the run's reorder counters.
//!
//! The JSON report is split into two sections so the CI perf gate can
//! consume it:
//!
//! * `"tracked"` — integer medians and frame sizes that are stable on a
//!   quiet machine. `scripts/ci.sh` re-runs this bench and fails when a
//!   fresh tracked value regresses more than the tolerance against the
//!   committed `BENCH_q14.json` (see `perf_gate`). Lower is better for
//!   every tracked key.
//! * `"untracked"` — wall-clock loopback numbers (seconds, frames/sec,
//!   machine-dependent counters). Recorded for the perf trajectory but
//!   never gated: two runs of the loopback deployment legitimately
//!   differ by scheduler whim.
//!
//! Usage: `q14_transport [--json PATH] [--codec-only]`
//!
//! `--codec-only` skips the loopback deployment (the slow, untracked
//! half) — what the CI perf gate uses to refresh tracked medians
//! quickly.

use std::fmt::Write as _;

use lod_bench::median_ns;
use lod_core::{serve_loopback_udp, synthetic_lecture, LoopbackConfig, Wmps};
use lod_streaming::wire::{ControlRequest, Wire};
use lod_transport::{decode_frame, encode_frame, WireCodec};

struct Args {
    json: Option<String>,
    codec_only: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        json: None,
        codec_only: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => parsed.json = Some(args.next().expect("--json takes a path")),
            "--codec-only" => parsed.codec_only = true,
            other => panic!(
                "unknown argument {other} (usage: q14_transport [--json PATH] [--codec-only])"
            ),
        }
    }
    parsed
}

/// A 32 × 1400 B segment, the frame the relay tier actually ships.
fn big_segment() -> Wire {
    let packets = (0..32)
        .map(|i| lod_asf::DataPacket {
            send_time: u64::from(i) * 10_000,
            payloads: vec![lod_asf::Payload {
                stream: 1,
                object_id: i,
                offset: 0,
                total: 1_400,
                pres_time: u64::from(i) * 10_000,
                data: vec![0x5A; 1_400].into(),
            }],
        })
        .collect();
    Wire::Segment(Box::new(lod_streaming::wire::SegmentData {
        content: "lecture".into(),
        segment: 5,
        base_packet: 160,
        total_packets: 1_600,
        total_segments: 50,
        segment_packets: 32,
        packet_size: 1_400,
        packets,
        header: None,
        start_packet: Some(160),
        at_time: Some(7_000_000),
        epoch: 1,
        trace: None,
    }))
}

fn main() {
    let args = parse_args();
    println!("Q14 — transport perf: codec medians + loopback UDP throughput\n");

    // Codec micro-bench. Warm up, then take medians.
    const ITERS: usize = 2_000;
    let seg = big_segment();
    let ctrl = Wire::Request(ControlRequest::FetchSegment {
        content: "lecture".into(),
        segment: 5,
        at_time: Some(7_000_000),
        want_header: false,
        trace: None,
    });
    let seg_payload = seg.to_frame_payload();
    let seg_frame = encode_frame(1, 0, false, &seg_payload);
    let ctrl_payload = ctrl.to_frame_payload();
    let ctrl_frame = encode_frame(1, 0, true, &ctrl_payload);

    let enc_segment_ns = median_ns(ITERS, || {
        std::hint::black_box(encode_frame(1, 0, false, &seg.to_frame_payload()));
    });
    let dec_segment_ns = median_ns(ITERS, || {
        let (_, payload) = decode_frame(std::hint::black_box(&seg_frame)).expect("frame");
        std::hint::black_box(Wire::from_frame_payload(payload).expect("payload"));
    });
    // The production receive path: one allocation per datagram, then
    // zero-copy payload views into it.
    let dec_segment_shared_ns = median_ns(ITERS, || {
        let (_, payload) = decode_frame(std::hint::black_box(&seg_frame)).expect("frame");
        let payload = bytes::Bytes::copy_from_slice(payload);
        std::hint::black_box(Wire::from_shared_payload(&payload).expect("payload"));
    });
    let enc_control_ns = median_ns(ITERS, || {
        std::hint::black_box(encode_frame(1, 0, true, &ctrl.to_frame_payload()));
    });
    let dec_control_ns = median_ns(ITERS, || {
        let (_, payload) = decode_frame(std::hint::black_box(&ctrl_frame)).expect("frame");
        std::hint::black_box(Wire::from_frame_payload(payload).expect("payload"));
    });
    println!(
        "codec: segment ({} B) encode {enc_segment_ns} ns / decode {dec_segment_ns} ns \
         (shared {dec_segment_shared_ns} ns), control ({} B) encode {enc_control_ns} ns / \
         decode {dec_control_ns} ns",
        seg_frame.len(),
        ctrl_frame.len()
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"q14_transport\",");
    let _ = writeln!(json, "  \"tracked\": {{");
    let _ = writeln!(json, "    \"segment_frame_bytes\": {},", seg_frame.len());
    let _ = writeln!(json, "    \"segment_encode_ns_median\": {enc_segment_ns},");
    let _ = writeln!(json, "    \"segment_decode_ns_median\": {dec_segment_ns},");
    let _ = writeln!(
        json,
        "    \"segment_decode_shared_ns_median\": {dec_segment_shared_ns},"
    );
    let _ = writeln!(json, "    \"control_frame_bytes\": {},", ctrl_frame.len());
    let _ = writeln!(json, "    \"control_encode_ns_median\": {enc_control_ns},");
    let _ = writeln!(json, "    \"control_decode_ns_median\": {dec_control_ns}");
    let _ = writeln!(json, "  }}{}", if args.codec_only { "" } else { "," });

    if !args.codec_only {
        // Loopback deployment: the acceptance scenario, timed. Everything
        // it reports is wall-clock flavored, so it all lands in
        // "untracked" — present for the record, invisible to the gate.
        let wmps = Wmps::new();
        let file = wmps
            .publish(&synthetic_lecture(1, 1, 300_000))
            .expect("publish");
        let cfg = LoopbackConfig::default();
        let report = serve_loopback_udp(file, &cfg);
        assert_eq!(
            report.completed, cfg.clients,
            "perf record requires a clean run: {report:?}"
        );
        assert_eq!(report.abandoned, 0);
        let wall_s = report.wall.as_secs_f64();
        let frames_per_sec = report.transport.frames_sent as f64 / wall_s;
        let bytes_per_sec = report.transport.bytes_sent as f64 / wall_s;
        println!(
            "loopback: {} clients / {} relays completed in {wall_s:.2} s wall — \
             {frames_per_sec:.0} frames/s, {:.1} MB/s, {} reordered, {} skipped",
            cfg.clients,
            cfg.relays,
            bytes_per_sec / 1e6,
            report.reorder.out_of_order,
            report.reorder.skipped_seqs
        );

        let _ = writeln!(json, "  \"untracked\": {{");
        let _ = writeln!(json, "    \"clients\": {},", cfg.clients);
        let _ = writeln!(json, "    \"relays\": {},", cfg.relays);
        let _ = writeln!(json, "    \"accel\": {},", cfg.accel);
        let _ = writeln!(json, "    \"completed\": {},", report.completed);
        let _ = writeln!(json, "    \"abandoned\": {},", report.abandoned);
        let _ = writeln!(json, "    \"wall_seconds\": {wall_s:.3},");
        let _ = writeln!(
            json,
            "    \"frames_sent\": {},",
            report.transport.frames_sent
        );
        let _ = writeln!(
            json,
            "    \"frames_received\": {},",
            report.transport.frames_received
        );
        let _ = writeln!(json, "    \"bytes_sent\": {},", report.transport.bytes_sent);
        let _ = writeln!(json, "    \"frames_per_sec\": {frames_per_sec:.0},");
        let _ = writeln!(json, "    \"bytes_per_sec\": {bytes_per_sec:.0},");
        let _ = writeln!(json, "    \"reordered\": {},", report.reorder.out_of_order);
        let _ = writeln!(json, "    \"skipped\": {},", report.reorder.skipped_seqs);
        let _ = writeln!(
            json,
            "    \"decode_errors\": {}",
            report.transport.decode_errors
        );
        let _ = writeln!(json, "  }}");
    }
    json.push('}');
    json.push('\n');

    match args.json {
        Some(path) => {
            std::fs::write(&path, &json).expect("write json report");
            println!("\nreport written to {path}");
        }
        None => println!("\n{json}"),
    }

    println!(
        "\nshape: the codec costs microseconds against a millisecond-scale\n\
         datagram path, so framing is nowhere near the bottleneck; the\n\
         loopback tier moves an accelerated lecture for a 35-node deployment\n\
         with reordering absorbed entirely by the receive-side buffer."
    );
}
