//! Messages exchanged between streaming server and clients.

use lod_asf::{DataPacket, DrmHeader, FileProperties, ScriptCommandList, StreamProperties};
use lod_obs::TraceCtx;
use lod_simnet::NodeId;
use serde::{Deserialize, Serialize};

/// Everything a client needs before data flows: the ASF header content.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamHeader {
    /// File properties (packet size, preroll, broadcast flag, …).
    pub props: FileProperties,
    /// Stream declarations.
    pub streams: Vec<StreamProperties>,
    /// Script commands (slide flips, annotations).
    pub script: ScriptCommandList,
    /// DRM header when protected.
    pub drm: Option<DrmHeader>,
    /// Fencing epoch of the serving origin. Monotonic across failovers:
    /// a promoted standby serves at a strictly higher epoch, so any reply
    /// carrying a lower epoch is provably from a deposed primary.
    pub epoch: u64,
}

impl StreamHeader {
    /// Approximate wire size in bytes (for the network simulation).
    pub fn wire_bytes(&self) -> u64 {
        let streams: usize = self.streams.iter().map(|s| 11 + s.name.len()).sum();
        let script: usize = self
            .script
            .commands()
            .iter()
            .map(|c| 12 + c.kind.len() + c.param.len())
            .sum();
        (64 + streams + script) as u64
    }
}

/// Client-to-server control messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlRequest {
    /// Start (or restart) streaming the named content from `from` ticks.
    Play {
        /// Content name as published on the server.
        content: String,
        /// Presentation time to start from.
        from: u64,
    },
    /// Pause the session.
    Pause,
    /// Resume a paused session.
    Resume,
    /// Jump to a presentation time (server consults the ASF index).
    Seek {
        /// Target presentation time in ticks.
        to: u64,
    },
    /// Restrict the session to these streams (stream *thinning*: a modem
    /// student keeps audio + slides and drops the video).
    SelectStreams(Vec<u16>),
    /// End the session.
    Teardown,
    /// Pull one packet segment of stored content (relay → origin). Does
    /// not create a session; the origin answers with [`Wire::Segment`].
    FetchSegment {
        /// Content name as published on the origin.
        content: String,
        /// Segment index (ignored when `at_time` is set).
        segment: u32,
        /// Resolve the segment containing this presentation time instead
        /// (the origin consults the ASF index, like a Seek).
        at_time: Option<u64>,
        /// Include the [`StreamHeader`] in the response (first fetch).
        want_header: bool,
        /// Trace context when this fetch belongs to a sampled segment:
        /// the origin echoes it back in the [`Wire::Segment`] answer so
        /// the whole origin→relay leg joins the segment's waterfall.
        trace: Option<TraceCtx>,
    },
    /// Heartbeat probe (standby → origin). Carries the prober's fencing
    /// epoch: a primary that sees a *higher* epoch than its own learns it
    /// has been deposed and demotes itself instead of serving split-brain.
    Ping {
        /// The prober's current fencing epoch.
        epoch: u64,
    },
}

/// One packet segment of stored content (origin → relay): a fixed-size run
/// of consecutive ASF data packets plus enough catalog metadata for the
/// relay to serve sessions without ever holding the whole file.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentData {
    /// Content name on the origin.
    pub content: String,
    /// Segment index within the content.
    pub segment: u32,
    /// Global index of the first packet in this segment.
    pub base_packet: u32,
    /// Total packets in the content (EOS boundary).
    pub total_packets: u32,
    /// Total segments in the content.
    pub total_segments: u32,
    /// Packets per full segment (the stride from segment index to packet
    /// index; the last segment may be shorter).
    pub segment_packets: u32,
    /// ASF packet size in bytes (wire size of each data packet).
    pub packet_size: u32,
    /// The packets of this segment, in order.
    pub packets: Vec<DataPacket>,
    /// The stream header, when the request set `want_header`.
    pub header: Option<StreamHeader>,
    /// Global packet index resolved from the request's `at_time`.
    pub start_packet: Option<u32>,
    /// Echo of the request's `at_time` (lets the relay match a
    /// time-resolving fetch to the session that asked for it).
    pub at_time: Option<u64>,
    /// Fencing epoch of the serving origin (see [`StreamHeader::epoch`]).
    pub epoch: u64,
    /// Echo of the fetch request's trace context (sampled segments
    /// only), carried so the transport stamps the origin→relay frame.
    pub trace: Option<TraceCtx>,
}

impl SegmentData {
    /// Wire size of the segment payload in bytes.
    pub fn wire_bytes(&self) -> u64 {
        let header = self.header.as_ref().map_or(0, StreamHeader::wire_bytes);
        48 + self.packets.len() as u64 * u64::from(self.packet_size) + header
    }
}

/// All messages on the wire.
///
/// Every delivery moves a `Wire` by value (through the simulator's queue,
/// the tier dispatch and each node's message handler), so the enum is
/// kept small: a variant whose payload is much larger than the rest is
/// boxed, as [`Wire::Header`] and [`Wire::Segment`] are.
#[derive(Debug, Clone, PartialEq)]
pub enum Wire {
    /// A control request (client → server).
    Request(ControlRequest),
    /// Header metadata (server → client, first response to Play).
    Header(Box<StreamHeader>),
    /// One data packet (server → client).
    Data(DataPacket),
    /// A script command added to a live stream after the header went out
    /// ("Script commands can be added to live streams through Windows
    /// Media Encoder", §2.1).
    Script(lod_asf::ScriptCommand),
    /// No more data will follow (server → client).
    EndOfStream,
    /// The requested content does not exist (server → client).
    NotFound(String),
    /// One cached/pulled packet segment (origin → relay), answering
    /// [`ControlRequest::FetchSegment`].
    Segment(Box<SegmentData>),
    /// Go talk to this node instead (redirect manager → client): the
    /// answer to a Play when an edge relay should carry the session, and
    /// the re-attach instruction when a relay fails mid-lecture.
    Redirect {
        /// The node that will (now) serve the session.
        to: NodeId,
    },
    /// The server is at capacity and refuses the Play (admission
    /// control): the client should retry after `retry_after` ticks, or go
    /// straight to `alternate` when the overloaded node knows a
    /// less-loaded peer. An explicit answer beats silently queueing the
    /// session behind a saturated uplink.
    Busy {
        /// Suggested wait before re-issuing the Play, in ticks.
        retry_after: u64,
        /// A less-loaded node to try instead, when known.
        alternate: Option<NodeId>,
    },
    /// Heartbeat answer (origin → standby), echoing the responder's
    /// fencing epoch. A missing Pong is the failure detector's signal; a
    /// Pong carrying a *stale* epoch identifies a deposed rejoiner.
    Pong {
        /// The responder's current fencing epoch.
        epoch: u64,
    },
    /// Trace marker (relay → client): announces that the [`Wire::Data`]
    /// packets that follow belong to this sampled segment. The data hot
    /// path itself stays untraced — one reliable marker per sampled
    /// segment buys the client-side spans without growing every packet.
    Mark(TraceCtx),
}

impl Wire {
    /// Simulated wire size in bytes.
    pub fn wire_bytes(&self, packet_size: u32) -> u64 {
        match self {
            Wire::Request(_) => 64,
            Wire::Header(h) => h.wire_bytes(),
            Wire::Data(_) => u64::from(packet_size),
            Wire::Script(c) => 24 + (c.kind.len() + c.param.len()) as u64,
            Wire::EndOfStream => 16,
            Wire::NotFound(name) => 16 + name.len() as u64,
            Wire::Segment(s) => s.wire_bytes(),
            Wire::Redirect { .. } => 24,
            Wire::Busy { .. } => 32,
            Wire::Pong { .. } => 16,
            Wire::Mark(_) => 40,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_wire_size_counts_contents() {
        let h = StreamHeader {
            props: FileProperties {
                file_id: 0,
                created: 0,
                packet_size: 100,
                play_duration: 0,
                preroll: 0,
                broadcast: false,
                max_bitrate: 0,
            },
            streams: vec![],
            script: ScriptCommandList::new(),
            drm: None,
            epoch: 0,
        };
        let base = h.wire_bytes();
        let mut h2 = h.clone();
        h2.streams.push(StreamProperties {
            number: 1,
            kind: lod_asf::StreamKind::Audio,
            codec: 0,
            bitrate: 0,
            name: "microphone".into(),
        });
        assert!(h2.wire_bytes() > base);
    }

    #[test]
    fn data_wire_size_is_packet_size() {
        let w = Wire::Data(DataPacket {
            send_time: 0,
            payloads: vec![],
        });
        assert_eq!(w.wire_bytes(1500), 1500);
    }

    #[test]
    fn segment_wire_size_counts_packets_and_header() {
        let packet = DataPacket {
            send_time: 0,
            payloads: vec![],
        };
        let mut seg = SegmentData {
            content: "lec".into(),
            segment: 0,
            base_packet: 0,
            total_packets: 4,
            total_segments: 2,
            segment_packets: 2,
            packet_size: 256,
            packets: vec![packet.clone(), packet],
            header: None,
            start_packet: None,
            at_time: None,
            epoch: 0,
            trace: None,
        };
        assert_eq!(seg.wire_bytes(), 48 + 2 * 256);
        seg.header = Some(StreamHeader {
            props: FileProperties {
                file_id: 0,
                created: 0,
                packet_size: 256,
                play_duration: 0,
                preroll: 0,
                broadcast: false,
                max_bitrate: 0,
            },
            streams: vec![],
            script: ScriptCommandList::new(),
            drm: None,
            epoch: 0,
        });
        let with_header = seg.wire_bytes();
        assert_eq!(
            with_header,
            48 + 2 * 256 + seg.header.as_ref().unwrap().wire_bytes()
        );
        assert_eq!(Wire::Segment(Box::new(seg)).wire_bytes(256), with_header);
    }

    #[test]
    fn wire_stays_small() {
        // Every delivery moves a `Wire` by value through the simulator's
        // queue, the tier dispatch and `on_message`; a large new variant
        // must be boxed (as `Header` and `Segment` are) rather than grow
        // every message.
        assert!(
            std::mem::size_of::<Wire>() <= 96,
            "Wire is {} bytes",
            std::mem::size_of::<Wire>()
        );
    }

    #[test]
    fn redirect_is_a_small_control_message() {
        let mut net: lod_simnet::Network<()> = lod_simnet::Network::new(1);
        let relay = net.add_node("relay");
        let w = Wire::Redirect { to: relay };
        assert_eq!(w.wire_bytes(1500), 24);
    }

    #[test]
    fn busy_is_a_small_control_message() {
        let mut net: lod_simnet::Network<()> = lod_simnet::Network::new(1);
        let relay = net.add_node("relay");
        let w = Wire::Busy {
            retry_after: 20_000_000,
            alternate: Some(relay),
        };
        assert_eq!(w.wire_bytes(1500), 32);
        let w = Wire::Busy {
            retry_after: 20_000_000,
            alternate: None,
        };
        assert_eq!(w.wire_bytes(1500), 32);
    }

    #[test]
    fn heartbeats_are_small_control_messages() {
        assert_eq!(
            Wire::Request(ControlRequest::Ping { epoch: 7 }).wire_bytes(1500),
            64
        );
        assert_eq!(Wire::Pong { epoch: 7 }.wire_bytes(1500), 16);
    }
}
