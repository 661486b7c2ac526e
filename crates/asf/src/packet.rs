//! Fixed-size data packets, payload fragmentation and reassembly.
//!
//! ASF streams media "in packets over a network" (§2.1): every data packet
//! has the same size (declared in the file properties), and large media
//! samples are split across packets as *payload fragments*. The
//! [`Packetizer`] performs the split; the [`Reassembler`] undoes it on the
//! receiving side, tolerating packet loss (incomplete samples are simply
//! never emitted) and out-of-order arrival.

use std::collections::HashMap;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::error::AsfError;
use crate::io::{Reader, Writer};

/// Wire size of a packet header: send time (8) + payload count (1).
pub const PACKET_HEADER_BYTES: usize = 9;
/// Wire size of a payload header: stream (2) + object id (4) + offset (4)
/// + total (4) + presentation time (8) + length (2).
pub const PAYLOAD_HEADER_BYTES: usize = 24;

/// A complete media sample handed to the packetizer / produced by the
/// reassembler.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediaSample {
    /// Stream the sample belongs to.
    pub stream: u16,
    /// Presentation time in ticks.
    pub pres_time: u64,
    /// Encoded bytes (ref-counted: fragments produced by the
    /// [`Packetizer`] are zero-copy views of this buffer).
    pub data: Bytes,
}

impl MediaSample {
    /// Creates a sample. A `Vec<u8>` converts without copying.
    pub fn new(stream: u16, pres_time: u64, data: impl Into<Bytes>) -> Self {
        Self {
            stream,
            pres_time,
            data: data.into(),
        }
    }
}

/// One payload fragment inside a packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Payload {
    /// Stream number.
    pub stream: u16,
    /// Media-object id: which sample of the stream this fragment belongs to.
    pub object_id: u32,
    /// Byte offset of this fragment within the sample.
    pub offset: u32,
    /// Total byte length of the sample.
    pub total: u32,
    /// Presentation time of the sample.
    pub pres_time: u64,
    /// The fragment bytes: a zero-copy view of the sample's backing
    /// buffer, shared (not duplicated) by caches and fan-out readers.
    pub data: Bytes,
}

/// A fixed-size data packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataPacket {
    /// Send time in ticks: when the pacer should put the packet on the wire.
    pub send_time: u64,
    /// The payload fragments.
    pub payloads: Vec<Payload>,
}

impl DataPacket {
    /// Serializes to exactly `packet_size` bytes (zero padding at the end).
    ///
    /// # Errors
    ///
    /// [`AsfError::BadSize`] if the payloads do not fit in `packet_size`.
    pub fn write(&self, packet_size: u32) -> Result<Vec<u8>, AsfError> {
        let mut w = Writer::new();
        w.u64(self.send_time);
        w.u8(self.payloads.len() as u8);
        for p in &self.payloads {
            w.u16(p.stream);
            w.u32(p.object_id);
            w.u32(p.offset);
            w.u32(p.total);
            w.u64(p.pres_time);
            w.u16(p.data.len() as u16);
            w.bytes(&p.data);
        }
        if w.len() > packet_size as usize {
            return Err(AsfError::BadSize {
                context: "data packet payloads",
                size: w.len() as u64,
            });
        }
        let mut v = w.into_vec();
        v.resize(packet_size as usize, 0);
        Ok(v)
    }

    /// Parses one packet of exactly `packet_size` bytes.
    ///
    /// # Errors
    ///
    /// [`AsfError::UnexpectedEof`] on truncated input or a payload running
    /// past the packet end.
    pub fn read(bytes: &[u8], packet_size: u32) -> Result<Self, AsfError> {
        if bytes.len() != packet_size as usize {
            return Err(AsfError::BadSize {
                context: "data packet",
                size: bytes.len() as u64,
            });
        }
        let mut r = Reader::new(bytes);
        let send_time = r.u64("packet send time")?;
        let count = r.u8("payload count")?;
        let mut payloads = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let stream = r.u16("payload stream")?;
            let object_id = r.u32("payload object id")?;
            let offset = r.u32("payload offset")?;
            let total = r.u32("payload total")?;
            let pres_time = r.u64("payload presentation time")?;
            let len = r.u16("payload length")? as usize;
            let data = Bytes::copy_from_slice(r.bytes(len, "payload data")?);
            payloads.push(Payload {
                stream,
                object_id,
                offset,
                total,
                pres_time,
                data,
            });
        }
        Ok(Self {
            send_time,
            payloads,
        })
    }

    /// Sum of payload byte lengths (excludes headers and padding).
    pub fn media_bytes(&self) -> usize {
        self.payloads.iter().map(|p| p.data.len()).sum()
    }
}

/// Splits media samples into fixed-size packets.
#[derive(Debug)]
pub struct Packetizer {
    packet_size: u32,
    next_object: HashMap<u16, u32>,
    current: Vec<Payload>,
    current_bytes: usize,
    current_first_time: Option<u64>,
    done: Vec<DataPacket>,
}

impl Packetizer {
    /// Creates a packetizer for the given fixed packet size.
    ///
    /// # Errors
    ///
    /// [`AsfError::PacketSizeTooSmall`] when a packet could not hold even a
    /// single one-byte fragment.
    pub fn new(packet_size: u32) -> Result<Self, AsfError> {
        if (packet_size as usize) < PACKET_HEADER_BYTES + PAYLOAD_HEADER_BYTES + 1 {
            return Err(AsfError::PacketSizeTooSmall(packet_size));
        }
        Ok(Self {
            packet_size,
            next_object: HashMap::new(),
            current: Vec::new(),
            current_bytes: PACKET_HEADER_BYTES,
            current_first_time: None,
            done: Vec::new(),
        })
    }

    /// The fixed packet size.
    pub fn packet_size(&self) -> u32 {
        self.packet_size
    }

    /// Adds a sample, fragmenting as needed. Samples should be pushed in
    /// presentation-time order per stream (the reassembler does not require
    /// it, but players assume monotone object ids mean monotone time).
    pub fn push(&mut self, sample: &MediaSample) {
        let object_id = {
            let ctr = self.next_object.entry(sample.stream).or_insert(0);
            let id = *ctr;
            *ctr += 1;
            id
        };
        let total = sample.data.len() as u32;
        let mut offset = 0usize;
        // Zero-length samples still emit one empty fragment (markers).
        loop {
            let space = self.packet_size as usize - self.current_bytes;
            if space < PAYLOAD_HEADER_BYTES + 1 {
                self.flush_packet();
                continue;
            }
            let chunk = (sample.data.len() - offset)
                .min(space - PAYLOAD_HEADER_BYTES)
                .min(u16::MAX as usize);
            self.current.push(Payload {
                stream: sample.stream,
                object_id,
                offset: offset as u32,
                total,
                pres_time: sample.pres_time,
                data: sample.data.slice(offset..offset + chunk),
            });
            self.current_bytes += PAYLOAD_HEADER_BYTES + chunk;
            self.current_first_time.get_or_insert(sample.pres_time);
            offset += chunk;
            if offset >= sample.data.len() {
                break;
            }
        }
    }

    fn flush_packet(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let send_time = self.current_first_time.take().unwrap_or(0);
        self.done.push(DataPacket {
            send_time,
            payloads: std::mem::take(&mut self.current),
        });
        self.current_bytes = PACKET_HEADER_BYTES;
    }

    /// Packets completed so far (drains them).
    pub fn take_completed(&mut self) -> Vec<DataPacket> {
        std::mem::take(&mut self.done)
    }

    /// Flushes any partial packet and returns everything.
    pub fn finish(mut self) -> Vec<DataPacket> {
        self.flush_packet();
        self.done
    }
}

/// Largest sample a fragment may declare in [`Payload::total`], in bytes.
///
/// The reassembler allocates a sample's buffer from the first fragment's
/// `total`, so this is the most one forged fragment can make a receiver
/// reserve. It sits far above any sample WMPS publishes (a slide image
/// is at most ~80 KB, a video frame a few KB); a fragment that claims
/// more is rejected with [`AsfError::OversizedSample`] before anything
/// is allocated.
pub const MAX_SAMPLE_BYTES: u32 = 16 << 20;

/// Rebuilds media samples from packets (loss- and reorder-tolerant).
///
/// Samples still missing fragments live in a `Vec` sorted by
/// `(stream, object_id)` and are found by binary search. A fragment that
/// carries a whole sample (`offset == 0`, `len == total`) with nothing
/// pending for it completes at once as a zero-copy view of the fragment.
/// Delivered object ids are remembered per stream as disjoint id ranges,
/// so in-order delivery costs one range per stream, not one entry per
/// sample.
#[derive(Debug, Default)]
pub struct Reassembler {
    partial: Vec<PartialSample>,
    finished: Vec<(u16, IdRanges)>,
    complete: Vec<MediaSample>,
}

#[derive(Debug)]
struct PartialSample {
    key: (u16, u32),
    pres_time: u64,
    total: u32,
    received: u32,
    data: Vec<u8>,
    seen: Vec<(u32, u32)>, // (offset, len) received, for duplicate checks
}

/// A set of `u32` ids kept as sorted, disjoint, non-adjacent inclusive
/// ranges `(first, last)`. Inclusive bounds keep `u32::MAX` representable
/// without an overflowing `last + 1`.
#[derive(Debug, Default)]
struct IdRanges(Vec<(u32, u32)>);

impl IdRanges {
    fn contains(&self, id: u32) -> bool {
        let i = self.0.partition_point(|&(_, last)| last < id);
        self.0.get(i).is_some_and(|&(first, _)| first <= id)
    }

    /// Adds `id`, which must not be in the set yet. In-order delivery
    /// extends the last range.
    fn insert(&mut self, id: u32) {
        // Every range before `i` ends below `id`; range `i`, if any,
        // starts above it.
        let i = self.0.partition_point(|&(_, last)| last < id);
        let joins_prev = i > 0 && self.0[i - 1].1 + 1 == id;
        let joins_next = self.0.get(i).is_some_and(|&(first, _)| first - 1 == id);
        match (joins_prev, joins_next) {
            (true, true) => {
                self.0[i - 1].1 = self.0[i].1;
                self.0.remove(i);
            }
            (true, false) => self.0[i - 1].1 = id,
            (false, true) => self.0[i].0 = id,
            (false, false) => self.0.insert(i, (id, id)),
        }
    }
}

impl Reassembler {
    /// An empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one packet's payloads.
    ///
    /// # Errors
    ///
    /// [`AsfError::FragmentMismatch`] when a fragment contradicts earlier
    /// fragments of the same object (different total or overlapping range
    /// with different content length bookkeeping);
    /// [`AsfError::OversizedSample`] when a fragment opens a sample larger
    /// than [`MAX_SAMPLE_BYTES`].
    pub fn push_packet(&mut self, packet: &DataPacket) -> Result<(), AsfError> {
        for p in &packet.payloads {
            self.push_payload(p)?;
        }
        Ok(())
    }

    fn push_payload(&mut self, p: &Payload) -> Result<(), AsfError> {
        let key = (p.stream, p.object_id);
        if self.is_finished(key) {
            // Late or duplicate fragment of an already-delivered sample.
            return Ok(());
        }
        let mismatch = AsfError::FragmentMismatch {
            stream: p.stream,
            object: p.object_id,
        };
        let idx = match self.partial.binary_search_by_key(&key, |e| e.key) {
            Ok(i) => i,
            Err(i) => {
                if p.total > MAX_SAMPLE_BYTES {
                    return Err(AsfError::OversizedSample {
                        stream: p.stream,
                        object: p.object_id,
                        total: p.total,
                    });
                }
                if p.offset == 0 && p.data.len() == p.total as usize {
                    // The whole sample in one fragment: share its bytes.
                    self.finish(key, p.pres_time, p.data.clone());
                    return Ok(());
                }
                self.partial.insert(
                    i,
                    PartialSample {
                        key,
                        pres_time: p.pres_time,
                        total: p.total,
                        received: 0,
                        data: vec![0; p.total as usize],
                        seen: Vec::new(),
                    },
                );
                i
            }
        };
        let entry = &mut self.partial[idx];
        if entry.total != p.total || entry.pres_time != p.pres_time {
            return Err(mismatch);
        }
        let end = p.offset as usize + p.data.len();
        if end > entry.data.len() {
            return Err(mismatch);
        }
        // Ignore exact duplicates (retransmission); reject overlaps.
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
            let done = self.partial.remove(idx);
            self.finish(key, done.pres_time, done.data.into());
        }
        Ok(())
    }

    fn is_finished(&self, (stream, id): (u16, u32)) -> bool {
        self.finished
            .iter()
            .any(|(s, ids)| *s == stream && ids.contains(id))
    }

    fn finish(&mut self, (stream, id): (u16, u32), pres_time: u64, data: Bytes) {
        match self.finished.iter_mut().find(|(s, _)| *s == stream) {
            Some((_, ids)) => ids.insert(id),
            None => self.finished.push((stream, IdRanges(vec![(id, id)]))),
        }
        self.complete.push(MediaSample {
            stream,
            pres_time,
            data,
        });
    }

    /// Drains completed samples, sorted by presentation time then stream.
    pub fn take_completed(&mut self) -> Vec<MediaSample> {
        let mut out = Vec::new();
        self.drain_completed_into(&mut out);
        out
    }

    /// Appends the completed samples to `out` in the order
    /// [`Reassembler::take_completed`] returns them, keeping both
    /// buffers' capacity for the next call.
    pub fn drain_completed_into(&mut self, out: &mut Vec<MediaSample>) {
        self.complete.sort_by_key(|s| (s.pres_time, s.stream));
        out.append(&mut self.complete);
    }

    /// Number of samples still missing fragments.
    pub fn incomplete(&self) -> usize {
        self.partial.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(stream: u16, t: u64, len: usize, fill: u8) -> MediaSample {
        MediaSample::new(stream, t, vec![fill; len])
    }

    #[test]
    fn small_samples_share_a_packet() {
        let mut pk = Packetizer::new(500).unwrap();
        pk.push(&sample(1, 0, 50, 0xAA));
        pk.push(&sample(2, 0, 50, 0xBB));
        let packets = pk.finish();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].payloads.len(), 2);
    }

    #[test]
    fn large_sample_fragments() {
        let mut pk = Packetizer::new(200).unwrap();
        pk.push(&sample(1, 0, 500, 0xCC));
        let packets = pk.finish();
        assert!(packets.len() >= 3, "got {}", packets.len());
        // All fragments carry the same object id and consistent offsets.
        let frags: Vec<&Payload> = packets.iter().flat_map(|p| &p.payloads).collect();
        assert!(frags.iter().all(|f| f.object_id == 0 && f.total == 500));
        let covered: usize = frags.iter().map(|f| f.data.len()).sum();
        assert_eq!(covered, 500);
    }

    #[test]
    fn packetize_reassemble_identity() {
        let samples = vec![
            sample(1, 0, 333, 1),
            sample(2, 10, 10, 2),
            sample(1, 40, 1200, 3),
            sample(1, 80, 0, 4), // empty marker sample
            sample(2, 90, 64, 5),
        ];
        let mut pk = Packetizer::new(256).unwrap();
        for s in &samples {
            pk.push(s);
        }
        let packets = pk.finish();
        let mut rs = Reassembler::new();
        for p in &packets {
            rs.push_packet(p).unwrap();
        }
        let mut got = rs.take_completed();
        got.sort_by_key(|s| (s.pres_time, s.stream));
        let mut want = samples;
        want.sort_by_key(|s| (s.pres_time, s.stream));
        assert_eq!(got, want);
        assert_eq!(rs.incomplete(), 0);
    }

    #[test]
    fn loss_leaves_sample_incomplete() {
        let mut pk = Packetizer::new(128).unwrap();
        pk.push(&sample(1, 0, 1000, 7));
        let packets = pk.finish();
        assert!(packets.len() > 2);
        let mut rs = Reassembler::new();
        // Drop the middle packet.
        for (i, p) in packets.iter().enumerate() {
            if i != packets.len() / 2 {
                rs.push_packet(p).unwrap();
            }
        }
        assert!(rs.take_completed().is_empty());
        assert_eq!(rs.incomplete(), 1);
    }

    #[test]
    fn reorder_tolerated() {
        let mut pk = Packetizer::new(128).unwrap();
        pk.push(&sample(1, 5, 700, 9));
        let mut packets = pk.finish();
        packets.reverse();
        let mut rs = Reassembler::new();
        for p in &packets {
            rs.push_packet(p).unwrap();
        }
        let got = rs.take_completed();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].data, vec![9u8; 700]);
    }

    #[test]
    fn duplicates_ignored() {
        let mut pk = Packetizer::new(128).unwrap();
        pk.push(&sample(1, 5, 300, 9));
        let packets = pk.finish();
        let mut rs = Reassembler::new();
        for p in packets.iter().chain(packets.iter()) {
            rs.push_packet(p).unwrap();
        }
        assert_eq!(rs.take_completed().len(), 1);
    }

    #[test]
    fn conflicting_total_rejected() {
        let mut rs = Reassembler::new();
        let a = Payload {
            stream: 1,
            object_id: 0,
            offset: 0,
            total: 100,
            pres_time: 0,
            data: vec![0; 10].into(),
        };
        let mut b = a.clone();
        b.offset = 10;
        b.total = 999;
        rs.push_packet(&DataPacket {
            send_time: 0,
            payloads: vec![a],
        })
        .unwrap();
        let err = rs
            .push_packet(&DataPacket {
                send_time: 0,
                payloads: vec![b],
            })
            .unwrap_err();
        assert!(matches!(err, AsfError::FragmentMismatch { .. }));
    }

    #[test]
    fn in_order_samples_leave_one_finished_range_per_stream() {
        let mut pk = Packetizer::new(256).unwrap();
        for i in 0..200u64 {
            pk.push(&sample(1, i * 10, 300, 1));
            pk.push(&sample(2, i * 10, 40, 2));
        }
        let mut rs = Reassembler::new();
        for p in &pk.finish() {
            rs.push_packet(p).unwrap();
        }
        assert_eq!(rs.take_completed().len(), 400);
        assert_eq!(rs.finished.len(), 2);
        for (_, ids) in &rs.finished {
            assert_eq!(ids.0, [(0, 199)]);
        }
    }

    #[test]
    fn finished_ranges_merge_and_hold_the_top_id() {
        let mut ids = IdRanges::default();
        for id in [5, 7, u32::MAX, 6, 0, u32::MAX - 1, 4] {
            assert!(!ids.contains(id));
            ids.insert(id);
            assert!(ids.contains(id));
        }
        assert_eq!(ids.0, [(0, 0), (4, 7), (u32::MAX - 1, u32::MAX)]);
        assert!(!ids.contains(3) && !ids.contains(8));
    }

    #[test]
    fn whole_sample_fragment_is_shared_not_copied() {
        let s = sample(1, 0, 100, 0x11);
        let mut pk = Packetizer::new(512).unwrap();
        pk.push(&s);
        let mut rs = Reassembler::new();
        for p in &pk.finish() {
            rs.push_packet(p).unwrap();
        }
        let got = rs.take_completed();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], s);
        assert_eq!(got[0].data.backing_id(), s.data.backing_id());
    }

    #[test]
    fn oversized_total_rejected_before_allocating() {
        let mut rs = Reassembler::new();
        let forged = Payload {
            stream: 1,
            object_id: 3,
            offset: 8,
            total: u32::MAX,
            pres_time: 0,
            data: vec![0; 8].into(),
        };
        let err = rs
            .push_packet(&DataPacket {
                send_time: 0,
                payloads: vec![forged],
            })
            .unwrap_err();
        assert!(matches!(
            err,
            AsfError::OversizedSample {
                stream: 1,
                object: 3,
                total: u32::MAX
            }
        ));
        assert_eq!(rs.incomplete(), 0);
    }

    #[test]
    fn packet_wire_round_trip() {
        let mut pk = Packetizer::new(300).unwrap();
        pk.push(&sample(3, 123, 400, 0x5A));
        let packets = pk.finish();
        for p in &packets {
            let bytes = p.write(300).unwrap();
            assert_eq!(bytes.len(), 300);
            let back = DataPacket::read(&bytes, 300).unwrap();
            assert_eq!(&back, p);
        }
    }

    #[test]
    fn too_small_packet_size_rejected() {
        assert!(matches!(
            Packetizer::new(16),
            Err(AsfError::PacketSizeTooSmall(16))
        ));
    }

    #[test]
    fn object_ids_independent_per_stream() {
        let mut pk = Packetizer::new(512).unwrap();
        pk.push(&sample(1, 0, 10, 1));
        pk.push(&sample(2, 0, 10, 2));
        pk.push(&sample(1, 1, 10, 3));
        let packets = pk.finish();
        let ids: Vec<(u16, u32)> = packets
            .iter()
            .flat_map(|p| &p.payloads)
            .map(|p| (p.stream, p.object_id))
            .collect();
        assert_eq!(ids, [(1, 0), (2, 0), (1, 1)]);
    }

    #[test]
    fn fragments_are_zero_copy_views_of_the_sample() {
        let s = sample(1, 0, 1_000, 0x3C);
        let mut pk = Packetizer::new(200).unwrap();
        pk.push(&s);
        let packets = pk.finish();
        assert!(packets.len() > 1, "sample must fragment");
        for frag in packets.iter().flat_map(|p| &p.payloads) {
            assert_eq!(
                frag.data.backing_id(),
                s.data.backing_id(),
                "fragment copied instead of slicing the sample buffer"
            );
        }
    }

    #[test]
    fn send_time_is_first_payload_time() {
        let mut pk = Packetizer::new(512).unwrap();
        pk.push(&sample(1, 42, 10, 1));
        pk.push(&sample(1, 99, 10, 1));
        let packets = pk.finish();
        assert_eq!(packets[0].send_time, 42);
    }
}
