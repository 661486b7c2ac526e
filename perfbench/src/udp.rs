//! The `udp_lossy` deployment, driven from one thread on a manual clock.
//!
//! `lod_core::serve_loopback_udp` runs every node as its own thread on a
//! wall clock sped up by a fixed factor, so its wall time measures that
//! factor and the scheduler, not the program. This driver binds the same
//! sockets (origin + relays + students on 127.0.0.1), makes the same
//! public calls those threads make, in node order, and steps one shared
//! manual clock 10 ms at a time: each step's wall time is exactly the
//! work the program did for it.

use std::time::Instant;

use lod_asf::AsfFile;
use lod_relay::{CacheStats, RelayMetrics, RelayNode};
use lod_simnet::NodeId;
use lod_streaming::{
    ClientMetrics, RenderEvent, ServerMetrics, StreamingClient, StreamingServer, Wire,
};
use lod_transport::{ReorderStats, Transport, TransportStats, UdpTransport};

use crate::spans::{span, Layer};
use crate::traced::Traced;
use crate::workload::UdpSpec;

type Udp = Traced<UdpTransport<Wire>>;

/// Every node's transport, bound and introduced to its peers: node 0 is
/// the origin, then the relays, then the students.
pub struct UdpDeployment {
    nodes: Vec<Udp>,
    relays: usize,
}

impl UdpDeployment {
    /// Binds one localhost socket per node, registers every peer, and
    /// arms the seeded egress loss at the origin and relays.
    pub fn bind(seed: u64) -> Self {
        let spec = UdpSpec::new(seed);
        let n = 1 + spec.relays + spec.students;
        let mut nodes: Vec<UdpTransport<Wire>> = (0..n)
            .map(|i| {
                UdpTransport::bind_localhost(NodeId::from_index(i), spec.udp)
                    .expect("bind a loopback UDP socket")
            })
            .collect();
        let book: Vec<_> = nodes.iter().map(|t| (t.node(), t.local_addr())).collect();
        for (i, t) in nodes.iter_mut().enumerate() {
            for &(peer, addr) in &book {
                if peer != t.node() {
                    t.register_peer(peer, addr);
                }
            }
            if i <= spec.relays {
                t.set_egress_faults(spec.fault.clone());
            }
        }
        Self {
            nodes: nodes
                .into_iter()
                .map(|t| Traced::new(t, Layer::UdpSend, Layer::UdpPoll))
                .collect(),
            relays: spec.relays,
        }
    }
}

/// What one `udp_lossy` serve produced.
pub struct UdpRun {
    pub clients: Vec<ClientMetrics>,
    pub events: Vec<RenderEvent>,
    pub server: ServerMetrics,
    pub relay: RelayMetrics,
    pub cache: CacheStats,
    /// Bytes the origin's socket sent (headers, retransmits and control
    /// frames included).
    pub origin_bytes: u64,
    pub transport: TransportStats,
    pub reorder: ReorderStats,
    /// Reorder counters of the students' transports only.
    pub client_reorder: ReorderStats,
    pub step_ns: Vec<u64>,
    /// Stride sample of the delivered messages (empty unless asked).
    pub sample: Vec<Wire>,
}

/// Serves `file` over a bound deployment until every student is done or
/// has given up (or the clock passes three lecture lengths).
pub fn serve(file: AsfFile, seed: u64, dep: UdpDeployment, capture: bool) -> UdpRun {
    let spec = UdpSpec::new(seed);
    let mut nodes = dep.nodes;
    if capture {
        nodes = nodes.into_iter().map(|t| t.capturing(true)).collect();
    }
    let relay_ids: Vec<NodeId> = (1..=dep.relays).map(NodeId::from_index).collect();
    let origin = NodeId::from_index(0);
    let (origin_t, rest) = nodes.split_first_mut().expect("an origin node");
    let (relay_ts, client_ts) = rest.split_at_mut(dep.relays);

    let mut server = StreamingServer::new(origin).with_segment_packets(spec.segment_packets);
    server.publish("lecture", file.clone());
    let mut relays: Vec<RelayNode> = relay_ids
        .iter()
        .map(|&me| {
            let mut relay = RelayNode::new(me, origin, 64 << 20).with_prefetch(true);
            relay.serve_vod("lecture");
            relay
        })
        .collect();
    let mut clients: Vec<StreamingClient> = (0..client_ts.len())
        .map(|i| {
            let me = NodeId::from_index(1 + dep.relays + i);
            StreamingClient::new(me, relay_ids[i % relay_ids.len()], "lecture")
                .with_retry(spec.client_retry, i as u64)
        })
        .collect();
    let mut finished = vec![false; clients.len()];
    let mut events = Vec::new();
    let horizon = file.props.play_duration * 3;
    let mut now = 0u64;
    for (c, t) in clients.iter_mut().zip(client_ts.iter_mut()) {
        t.inner_mut().set_manual_now(now);
        span(Layer::ClientPoll, || c.start(t));
    }
    let mut step_ns = Vec::new();
    while now < horizon && !finished.iter().all(|&f| f) {
        let step_start = Instant::now();
        now += spec.step;
        origin_t.inner_mut().set_manual_now(now);
        for d in origin_t.poll(now) {
            span(Layer::ServerMsg, || {
                server.on_message(origin_t, d.time, d.src, d.message)
            });
        }
        span(Layer::ServerPoll, || server.poll(origin_t, now));
        for (r, t) in relays.iter_mut().zip(relay_ts.iter_mut()) {
            t.inner_mut().set_manual_now(now);
            for d in t.poll(now) {
                span(Layer::RelayMsg, || {
                    r.on_message(t, d.time, d.src, d.message)
                });
            }
            span(Layer::RelayPoll, || r.poll(t, now));
        }
        for ((c, t), done) in clients
            .iter_mut()
            .zip(client_ts.iter_mut())
            .zip(finished.iter_mut())
        {
            if *done {
                continue;
            }
            t.inner_mut().set_manual_now(now);
            for d in t.poll(now) {
                span(Layer::ClientMsg, || c.on_message(d.time, d.message));
            }
            events.extend(span(Layer::ClientTick, || c.tick(now)));
            span(Layer::ClientPoll, || {
                c.poll_adaptive(t);
                c.poll_redirect(t);
                c.poll_busy(t, now);
                c.poll_recovery(t, now);
            });
            *done = c.is_done() || c.is_abandoned();
        }
        step_ns.push(step_start.elapsed().as_nanos() as u64);
        crate::lockstep::step_done();
    }

    let mut transport = TransportStats::default();
    let mut reorder = ReorderStats::default();
    let mut client_reorder = ReorderStats::default();
    let mut sample = Vec::new();
    for (i, t) in nodes.iter_mut().enumerate() {
        transport.merge(t.inner().stats());
        let r = t.inner().reorder_stats();
        reorder.merge(&r);
        if i > dep.relays {
            client_reorder.merge(&r);
        }
        sample.append(&mut t.take_sample());
    }
    let mut relay = RelayMetrics::default();
    let mut cache = CacheStats::default();
    for r in &relays {
        relay += r.metrics();
        cache += r.cache().stats();
    }
    UdpRun {
        clients: clients.iter().map(|c| *c.metrics()).collect(),
        events,
        server: server.metrics(),
        relay,
        cache,
        origin_bytes: nodes[0].inner().stats().bytes_sent,
        transport,
        reorder,
        client_reorder,
        step_ns,
        sample,
    }
}
