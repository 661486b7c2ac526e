//! Loopback deployment: the relay tier on real localhost UDP sockets.
//!
//! [`serve_loopback_udp`] stands up the same origin → relay → student
//! tier that [`crate::Wmps::serve_with_relays`] simulates and drives it
//! with the same step, except every node owns a real [`UdpTransport`]
//! on `127.0.0.1`. A private mesh puts those sockets behind one
//! [`Transport`]: a send leaves through the sender's own socket, a poll
//! drains every socket. Students address the origin and the redirect
//! manager steers them to relays, as on simnet. A lecture that completes
//! here shows the protocol stack survives a real kernel: datagram
//! framing, reordering, pacing, and wall-clock scheduling.
//!
//! Clocking: one thread steps the tier about every 200 µs and maps
//! elapsed wall time to ticks through an acceleration factor, so a
//! minutes-long lecture plays out in seconds. The run is therefore only
//! statistically reproducible — it is gated on *outcomes* (every client
//! finishes, nobody is abandoned, sample counts reconcile with a simnet
//! run of the same file), never on byte-diffs.

use std::thread;
use std::time::{Duration, Instant};

use lod_asf::AsfFile;
use lod_obs::{EventRecord, Recorder};
use lod_relay::RelayMetrics;
use lod_simnet::{Delivery, NetworkError, NodeId};
use lod_streaming::wire::Wire;
use lod_streaming::{ClientMetrics, RetryPolicy, ServerMetrics};
use lod_transport::{FaultSpec, ReorderStats, Transport, TransportStats, UdpConfig, UdpTransport};

use crate::tier::{Content, Tier, TierNodes};
use crate::wmps::RelayTierConfig;

/// Knobs for a [`serve_loopback_udp`] run.
#[derive(Debug, Clone)]
pub struct LoopbackConfig {
    /// Edge relays between the origin and the students.
    pub relays: usize,
    /// Student clients. Each asks the origin, whose redirect manager
    /// steers it to the least-loaded relay.
    pub clients: usize,
    /// Socket-level transport knobs applied to every node.
    pub udp: UdpConfig,
    /// Packets per fetched segment at the origin. Sized so a whole
    /// segment fits one UDP datagram under `udp.max_frame_bytes`
    /// (32 × 1400 B ≈ 45 KiB against the 60 KiB default cap).
    pub segment_packets: u32,
    /// Wall-to-tick acceleration: each elapsed wall second advances the
    /// shared clock by `accel` tick-seconds, so a lecture plays out
    /// `accel`× faster than real time.
    pub accel: u64,
    /// Hard wall-clock ceiling; a run that has not finished by then
    /// stops and reports whatever state it reached.
    pub wall_deadline: Duration,
    /// Seeded egress fault injection applied at the origin and relay
    /// tiers — the media direction, where loss actually hurts playback.
    /// Client egress stays clean so request loss does not conflate the
    /// measurement. `None` leaves the wire untouched.
    pub fault: Option<FaultSpec>,
    /// Application-level retry policy for the clients (re-Play from the
    /// playback horizon on prolonged silence), salted per client off a
    /// fixed seed. On a clean wire it never fires; under fault injection
    /// it is the recovery of last resort when even transport repair
    /// gives up.
    pub client_retry: Option<RetryPolicy>,
    /// When set, every node records into one shared recorder — transport
    /// repair events (NACKs, retransmits, give-ups, gap skips) included —
    /// and the report carries the log in emission order, which one
    /// thread makes causal: each receiver's NACK precedes its sender's
    /// retransmit.
    pub record_events: bool,
    /// Per-mille of segments traced end-to-end across the deployment
    /// (relays mint the contexts, the UDP frames carry them, every node
    /// books its hop spans). Needs `record_events` for the spans to
    /// reach the report. 0 = tracing off.
    pub trace_permille: u16,
}

impl Default for LoopbackConfig {
    fn default() -> Self {
        Self {
            relays: 2,
            clients: 32,
            udp: UdpConfig {
                // Real pacing, high enough to never be the bottleneck
                // for a short lecture but low enough to smooth segment
                // fan-out below the kernel's socket-buffer burst size.
                pace_rate_bps: 200_000_000,
                ..UdpConfig::default()
            },
            segment_packets: 32,
            accel: 40,
            wall_deadline: Duration::from_secs(120),
            fault: None,
            client_retry: None,
            record_events: false,
            trace_permille: 0,
        }
    }
}

/// What a loopback deployment run produced.
#[derive(Debug, Clone)]
pub struct LoopbackReport {
    /// Per-client playback metrics, in client order.
    pub clients: Vec<ClientMetrics>,
    /// Origin server metrics.
    pub server: ServerMetrics,
    /// Relay metrics summed across the tier.
    pub relay: RelayMetrics,
    /// Socket traffic counters summed across every node.
    pub transport: TransportStats,
    /// Reorder-buffer counters merged across every node.
    pub reorder: ReorderStats,
    /// Clients that rendered media and were never abandoned (the rule of
    /// [`crate::WmpsReport::completed_sessions`]).
    pub completed: usize,
    /// Clients that gave up (must be 0 on a healthy loopback).
    pub abandoned: usize,
    /// Application-level re-requests: client segment retries plus relay
    /// fetch retries. The number transport repair exists to shrink —
    /// every one is a round trip the playback deadline pays for.
    pub rerequests: u64,
    /// Every node's events in emission order. Empty unless
    /// [`LoopbackConfig::record_events`] was set. Feed to
    /// [`lod_obs::check_causal`] to prove repair causality.
    pub events: Vec<EventRecord>,
    /// Wall time the deployment ran for.
    pub wall: Duration,
}

/// Ring size of the shared recorder. The lossy chaos drill (a 1-minute
/// lecture to 32 students under 12% loss) records under 20 000 events,
/// so its causal checks always see the whole log.
const EVENT_CAPACITY: usize = 1 << 18;

/// Seed of the clients' retry jitter salts.
const RETRY_SEED: u64 = 0;

/// Every node's socket, indexed by node id, behind one [`Transport`].
/// Each call names its sender, so it goes to the sender's own socket.
struct UdpMesh {
    nodes: Vec<UdpTransport<Wire>>,
    now: u64,
}

impl UdpMesh {
    /// Binds `n` localhost sockets (node `i` on the `i`th) and introduces
    /// every node to every other.
    fn bind(n: usize, udp: UdpConfig, obs: &Recorder) -> Self {
        let mut nodes: Vec<UdpTransport<Wire>> = (0..n)
            .map(|i| {
                UdpTransport::bind_localhost(NodeId::from_index(i), udp)
                    .expect("bind loopback socket")
                    .with_recorder(obs.clone())
            })
            .collect();
        let book: Vec<_> = nodes.iter().map(|t| (t.node(), t.local_addr())).collect();
        for t in &mut nodes {
            for &(peer, addr) in &book {
                if peer != t.node() {
                    t.register_peer(peer, addr);
                }
            }
        }
        Self { nodes, now: 0 }
    }

    fn set_now(&mut self, now: u64) {
        self.now = now;
        for t in &mut self.nodes {
            t.set_manual_now(now);
        }
    }
}

impl Transport<Wire> for UdpMesh {
    fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        message: Wire,
    ) -> Result<(), NetworkError> {
        self.nodes[src.index()].send(src, dst, bytes, message)
    }

    fn send_reliable(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        message: Wire,
    ) -> Result<(), NetworkError> {
        self.nodes[src.index()].send_reliable(src, dst, bytes, message)
    }

    fn first_hop_backlog(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        self.nodes[src.index()].first_hop_backlog(src, dst)
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn link_up(&self, src: NodeId, dst: NodeId) -> bool {
        self.nodes[src.index()].link_up(src, dst)
    }

    fn poll(&mut self, now: u64) -> Vec<Delivery<Wire>> {
        self.set_now(now);
        let mut out = Vec::new();
        for t in &mut self.nodes {
            out.extend(t.poll(now));
        }
        out
    }
}

fn ticks_since(epoch: Instant, accel: u64) -> u64 {
    // 1 tick = 100 ns of *simulated* time; one wall nanosecond counts
    // `accel` times over.
    let nanos = epoch.elapsed().as_nanos() as u64;
    (nanos / 100).saturating_mul(accel)
}

/// Serves `file` through an origin + relay tier + clients on real
/// localhost UDP sockets, stepping the tier from this thread until every
/// client finishes (or the wall deadline passes).
///
/// # Panics
///
/// Panics when localhost sockets cannot be bound — the host cannot run
/// the deployment at all.
pub fn serve_loopback_udp(file: AsfFile, cfg: &LoopbackConfig) -> LoopbackReport {
    assert!(cfg.relays > 0, "a relay tier needs at least one relay");
    assert!(cfg.accel > 0, "acceleration must be positive");
    let obs = if cfg.record_events {
        Recorder::with_event_capacity(EVENT_CAPACITY)
    } else {
        Recorder::disabled()
    };
    let tier_cfg = RelayTierConfig {
        relays: cfg.relays,
        client_retry: cfg.client_retry,
        trace_permille: cfg.trace_permille,
        recorder: obs.clone(),
        ..RelayTierConfig::default()
    };
    let mut mesh = UdpMesh::bind(1 + cfg.relays + cfg.clients, cfg.udp, &obs);
    // The media direction — origin and relay egress — is where loss
    // hurts playback; client egress stays clean.
    if let Some(spec) = &cfg.fault {
        for t in &mut mesh.nodes[..=cfg.relays] {
            t.set_egress_faults(spec.clone());
        }
    }
    let nodes = TierNodes {
        origin: NodeId::from_index(0),
        relays: (1..=cfg.relays).map(NodeId::from_index).collect(),
        students: (1 + cfg.relays..1 + cfg.relays + cfg.clients)
            .map(NodeId::from_index)
            .collect(),
        standby: None,
    };
    let mut tier = Tier::new(&tier_cfg, nodes, Content::Vod(file), RETRY_SEED)
        .with_segment_packets(cfg.segment_packets);

    let epoch = Instant::now();
    loop {
        let now = ticks_since(epoch, cfg.accel);
        // Sends made before the step's poll carry this step's tick.
        mesh.set_now(now);
        tier.step(&mut mesh, now, |_, _| {});
        if tier.done() || epoch.elapsed() >= cfg.wall_deadline {
            break;
        }
        thread::sleep(Duration::from_micros(200));
    }

    let clients: Vec<ClientMetrics> = tier.clients.iter().map(|c| *c.metrics()).collect();
    let (_, relay) = tier.relay_totals();
    let mut transport = TransportStats::default();
    let mut reorder = ReorderStats::default();
    for t in &mesh.nodes {
        transport.merge(t.stats());
        reorder.merge(&t.reorder_stats());
    }
    LoopbackReport {
        completed: clients.iter().filter(|c| c.completed()).count(),
        abandoned: clients.iter().filter(|c| c.abandoned).count(),
        rerequests: clients.iter().map(|m| m.retries).sum::<u64>() + relay.fetch_retries,
        clients,
        server: tier.server.metrics(),
        relay,
        transport,
        reorder,
        events: obs.events(),
        wall: epoch.elapsed(),
    }
}
