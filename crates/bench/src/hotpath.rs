//! Fixtures shared by the `q15_hotpath` binary and the Criterion
//! `hotpath` bench, so both time exactly the same workloads.

use lod_asf::{
    AsfFile, FileProperties, MediaSample, Packetizer, ScriptCommandList, StreamKind,
    StreamProperties,
};
use lod_streaming::wire::{SegmentData, Wire};

/// ASF packet size of both fixtures.
pub const PACKET_SIZE: u32 = 1_400;
/// Packets per relay segment.
pub const SEGMENT_PACKETS: u32 = 32;

/// A 60-second ~400 kbit/s lecture, the mux workload.
pub fn lecture_file() -> AsfFile {
    let mut pk = Packetizer::new(PACKET_SIZE).unwrap();
    for i in 0..600 {
        pk.push(&MediaSample::new(1, i * 1_000_000, vec![0xAB; 5_000]));
    }
    AsfFile {
        props: FileProperties {
            file_id: 15,
            created: 0,
            packet_size: PACKET_SIZE,
            play_duration: 600_000_000,
            preroll: 20_000_000,
            broadcast: false,
            max_bitrate: 400_000,
        },
        streams: vec![StreamProperties {
            number: 1,
            kind: StreamKind::Video,
            codec: 4,
            bitrate: 400_000,
            name: "camera".into(),
        }],
        script: ScriptCommandList::new(),
        drm: None,
        packets: pk.finish(),
        index: None,
    }
}

/// One relay-sized segment as the origin would answer a fetch: 32
/// packets of fragments slicing a handful of large samples.
pub fn origin_segment() -> Wire {
    let mut pk = Packetizer::new(PACKET_SIZE).unwrap();
    for i in 0..10 {
        pk.push(&MediaSample::new(1, i * 1_000_000, vec![0x5A; 5_000]));
    }
    let mut packets = pk.finish();
    packets.truncate(SEGMENT_PACKETS as usize);
    assert_eq!(packets.len(), SEGMENT_PACKETS as usize);
    Wire::Segment(Box::new(SegmentData {
        content: "lecture".into(),
        segment: 5,
        base_packet: 160,
        total_packets: 1_600,
        total_segments: 50,
        segment_packets: SEGMENT_PACKETS,
        packet_size: PACKET_SIZE,
        packets,
        header: None,
        start_packet: Some(160),
        at_time: Some(7_000_000),
        epoch: 1,
        trace: None,
    }))
}
