//! Q15 companion: criterion micro-benches over the zero-copy hot path.
//!
//! Same workloads as the `q15_hotpath` binary (which owns the JSON
//! report the perf gate consumes): mux packet serialization, the
//! packetizer's zero-copy fragmentation, and the relay fan-out of one
//! cached segment to many readers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lod_asf::{write_asf, MediaSample, Packetizer};
use lod_bench::hotpath::{lecture_file, origin_segment, PACKET_SIZE};
use lod_relay::{CachedSegment, SegmentCache};
use lod_streaming::wire::Wire;
use lod_transport::{decode_frame, encode_frame, WireCodec};

fn bench_mux(c: &mut Criterion) {
    let file = lecture_file();
    let size = write_asf(&file).unwrap().len() as u64;
    let mut g = c.benchmark_group("hotpath");
    g.throughput(Throughput::Bytes(size));
    g.bench_function("mux_60s", |b| {
        b.iter(|| write_asf(std::hint::black_box(&file)).unwrap().len());
    });
    g.bench_function("packetize_60s", |b| {
        b.iter(|| {
            let mut pk = Packetizer::new(PACKET_SIZE).unwrap();
            for i in 0..600 {
                pk.push(&MediaSample::new(1, i * 1_000_000, vec![0xAB; 5_000]));
            }
            pk.finish().len()
        });
    });
    g.finish();
}

fn bench_fanout(c: &mut Criterion) {
    let seg = origin_segment();
    let frame = encode_frame(1, 0, false, &seg.to_frame_payload());
    let mut g = c.benchmark_group("hotpath");
    g.bench_function("relay_decode_cache", |b| {
        b.iter(|| {
            let (_, payload) = decode_frame(std::hint::black_box(&frame)).expect("frame");
            let payload = bytes::Bytes::copy_from_slice(payload);
            let Wire::Segment(mut seg) = Wire::from_shared_payload(&payload).expect("payload")
            else {
                panic!("origin sent a segment");
            };
            let mut cache = SegmentCache::new(1 << 20);
            let data = CachedSegment {
                base_packet: seg.base_packet,
                bytes: seg.packets.len() as u64 * u64::from(seg.packet_size),
                packets: std::mem::take(&mut seg.packets),
            };
            cache.insert(&seg.content, seg.segment, data);
            cache.len()
        });
    });
    // One cached segment delivered to 256 readers as Wire values.
    let Wire::Segment(mut sd) = origin_segment() else {
        unreachable!();
    };
    let mut cache = SegmentCache::new(1 << 20);
    let data = CachedSegment {
        base_packet: sd.base_packet,
        bytes: sd.packets.len() as u64 * u64::from(sd.packet_size),
        packets: std::mem::take(&mut sd.packets),
    };
    cache.insert(&sd.content, sd.segment, data);
    g.bench_function("fanout_256_readers", |b| {
        b.iter(|| {
            let mut deliveries = 0u64;
            for _ in 0..256 {
                let cached = cache.get(&sd.content, sd.segment).expect("resident");
                for p in &cached.packets {
                    std::hint::black_box(Wire::Data(p.clone()));
                    deliveries += 1;
                }
            }
            deliveries
        });
    });
    g.finish();
}

criterion_group!(benches, bench_mux, bench_fanout);
criterion_main!(benches);
