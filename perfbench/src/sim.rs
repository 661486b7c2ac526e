//! The benchmark's own simnet driver for the traced run.
//!
//! [`serve_traced`] makes the same public calls, in the same order, as
//! `Wmps::serve_with_relays`, with two differences that change no
//! outcome: every call into a layer is wrapped in a span, and the
//! network is reached through [`Traced`], so time inside `Network`
//! `send`/`advance_to` is split out of the state machines' self time.
//! Its per-client metrics must equal the product driver's exactly.

use std::collections::HashMap;
use std::time::Instant;

use lod_asf::AsfFile;
use lod_core::{Event, RelayTierConfig};
use lod_player::SkewStats;
use lod_relay::{CacheStats, HeartbeatMonitor, RedirectManager, RelayMetrics, RelayNode};
use lod_simnet::{relay_tree, Fault, FaultInjector, Network, NodeId};
use lod_streaming::{
    ClientMetrics, RenderEvent, ServerMetrics, StreamingClient, StreamingServer, Wire,
};

use lod_transport::Transport;

use crate::spans::{span, Layer};
use crate::traced::Traced;
use crate::workload::SimSpec;

/// What one traced simnet serve produced.
pub struct SimRun {
    pub clients: Vec<ClientMetrics>,
    pub classroom_spread: SkewStats,
    /// Origin and standby service counters, summed.
    pub server: ServerMetrics,
    pub relay: RelayMetrics,
    pub cache: CacheStats,
    pub checkpoints_replicated: u64,
    pub sessions_migrated: u64,
    pub obs_events: u64,
    pub obs_dropped: u64,
    /// Messages the network delivered.
    pub deliveries: u64,
    /// Wall time of every driver step, in ns.
    pub step_ns: Vec<u64>,
    /// Stride sample of the delivered messages (empty unless asked).
    pub sample: Vec<Wire>,
}

/// Spread of each script firing across clients (the product's
/// `WmpsReport::classroom_spread`).
pub fn classroom_spread(events: &[RenderEvent]) -> SkewStats {
    let mut groups: HashMap<(u64, &str), Vec<u64>> = HashMap::new();
    for e in events {
        if let Some(cmd) = &e.script {
            groups
                .entry((e.pres_time, cmd.param.as_str()))
                .or_default()
                .push(e.wall_time);
        }
    }
    let spreads: Vec<u64> = groups
        .values()
        .filter(|walls| walls.len() >= 2)
        .map(|walls| walls.iter().max().unwrap() - walls.iter().min().unwrap())
        .collect();
    SkewStats::from_skews(spreads)
}

/// Per-client skew against each client's first rendered item (the
/// product computes it for its report; the driver pays the same cost).
fn per_client_skew(clients: &[StreamingClient], events: &[RenderEvent]) -> Vec<SkewStats> {
    clients
        .iter()
        .map(|c| {
            let mine: Vec<_> = events.iter().filter(|e| e.client == c.node()).collect();
            let anchor = mine
                .iter()
                .map(|e| e.wall_time.saturating_sub(e.pres_time))
                .min()
                .unwrap_or(0);
            SkewStats::from_skews(
                mine.iter()
                    .map(|e| e.wall_time.abs_diff(anchor + e.pres_time))
                    .collect(),
            )
        })
        .collect()
}

type Net = Traced<Network<Wire>>;

/// Serves `file` like `Wmps::serve_with_relays(file, spec.uplink,
/// spec.access, spec.students, seed, &spec.cfg)`, with spans.
pub fn serve_traced(file: AsfFile, seed: u64, spec: &SimSpec, capture: bool) -> SimRun {
    let cfg: &RelayTierConfig = &spec.cfg;
    let play_duration = file.props.play_duration;
    let mut net: Net =
        Traced::new(Network::new(seed), Layer::SimnetSend, Layer::SimnetAdvance).capturing(capture);
    let tree = relay_tree(
        net.inner_mut(),
        spec.uplink,
        cfg.relay_link,
        spec.access,
        cfg.relays,
        spec.students,
    );
    let obs = cfg.recorder.clone();
    obs.label_node(tree.origin.index() as u64, "origin");
    obs.label_node(tree.router.index() as u64, "router");
    for (i, r) in tree.relays.iter().enumerate() {
        obs.label_node(r.index() as u64, &format!("relay{i}"));
    }
    for (i, s) in tree.students.iter().enumerate() {
        obs.label_node(s.index() as u64, &format!("student{i}"));
    }
    let mut server = StreamingServer::new(tree.origin).with_recorder(obs.clone());
    if let Some(t) = cfg.idle_timeout {
        server = server.with_idle_timeout(t);
    }
    if let Some(adm) = cfg.origin_admission {
        server = server.with_admission(adm);
    }
    if let Some(deg) = cfg.degrade {
        server = server.with_degrade(deg);
    }
    if let Some(f) = cfg.failover {
        server = server.with_checkpointing(f.checkpoint_every);
    }
    for &r in &tree.relays {
        server.exempt_from_admission(r);
    }
    let mut standby = cfg.failover.map(|f| {
        let inner = net.inner_mut();
        let sb = inner.add_node("standby");
        obs.label_node(sb.index() as u64, "standby");
        inner.connect_bidirectional(sb, tree.router, spec.uplink);
        let peers: Vec<NodeId> = std::iter::once(tree.origin)
            .chain(tree.relays.iter().copied())
            .chain(tree.students.iter().copied())
            .collect();
        for &p in &peers {
            inner.set_next_hop(sb, p, tree.router);
            inner.set_next_hop(p, sb, tree.router);
        }
        let mut sb_srv = StreamingServer::new(sb)
            .with_recorder(obs.clone())
            .with_checkpointing(f.checkpoint_every)
            .as_standby();
        if let Some(t) = cfg.idle_timeout {
            sb_srv = sb_srv.with_idle_timeout(t);
        }
        if let Some(adm) = cfg.origin_admission {
            sb_srv = sb_srv.with_admission(adm);
        }
        if let Some(deg) = cfg.degrade {
            sb_srv = sb_srv.with_degrade(deg);
        }
        for &r in &tree.relays {
            sb_srv.exempt_from_admission(r);
        }
        sb_srv.publish("lecture", file.clone());
        let monitor = HeartbeatMonitor::new(sb, tree.origin, f).with_recorder(obs.clone());
        (sb, sb_srv, monitor)
    });
    server.publish("lecture", file);
    let mut relays: Vec<RelayNode> = tree
        .relays
        .iter()
        .map(|&r| {
            let mut relay = RelayNode::new(r, tree.origin, cfg.cache_budget)
                .with_prefetch(cfg.prefetch)
                .with_recorder(obs.clone())
                .with_trace_permille(cfg.trace_permille);
            if let Some(adm) = cfg.relay_admission {
                relay = relay.with_admission(adm);
            }
            if let Some(b) = cfg.breaker {
                relay = relay.with_breaker(b);
            }
            relay.serve_vod("lecture");
            relay
        })
        .collect();
    let mut redirect = RedirectManager::new(tree.origin, tree.relays.clone());
    if let Some(seats) = cfg.relay_capacity_sessions {
        redirect = redirect.with_relay_capacity(seats);
    }
    let mut clients: Vec<StreamingClient> = tree
        .students
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let client = StreamingClient::new(c, tree.origin, "lecture").with_recorder(obs.clone());
            match cfg.client_retry {
                Some(policy) => client.with_retry(
                    policy,
                    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ),
                None => client,
            }
        })
        .collect();
    let start_at: Vec<u64> = (0..clients.len())
        .map(|i| match cfg.arrival_wave {
            Some((wave, interval)) => (i / wave.max(1)) as u64 * interval,
            None => 0,
        })
        .collect();
    let mut started = vec![false; clients.len()];
    let mut injector = FaultInjector::new(cfg.chaos.resolve(&tree)).with_recorder(obs.clone());

    const STEP: u64 = 1_000_000; // 100 ms, as in the product driver
    let horizon = play_duration * 20 + 600_000_000_000;
    let mut now = 0u64;
    let mut events = Vec::new();
    let mut failed = false;
    let mut checkpoints_replicated = 0u64;
    let mut promoted_epoch: Option<u64> = None;
    let mut step_ns = Vec::new();
    let mut deliveries = 0u64;
    while now <= horizon {
        let step_start = Instant::now();
        for (i, c) in clients.iter_mut().enumerate() {
            if !started[i] && now >= start_at[i] {
                span(Layer::ClientPoll, || c.start(&mut net));
                started[i] = true;
            }
        }
        if let Some(at) = cfg.fail_first_at {
            if !failed && now >= at && !tree.relays.is_empty() {
                let victim = tree.relays[0];
                net.inner_mut().disconnect(tree.router, victim);
                net.inner_mut().disconnect(victim, tree.router);
                span(Layer::Redirect, || redirect.fail_relay(&mut net, victim));
                failed = true;
            }
        }
        let faults = span(Layer::SimnetFault, || injector.poll(net.inner_mut(), now));
        for fault in faults {
            if let Fault::NodeDown { node } = fault {
                if tree.relays.contains(&node) {
                    span(Layer::Redirect, || redirect.fail_relay(&mut net, node));
                } else if node == tree.origin {
                    span(Layer::ServerPoll, || server.crash());
                }
            }
        }
        span(Layer::ServerPoll, || server.poll(&mut net, now));
        if let Some((sb, sb_srv, monitor)) = standby.as_mut() {
            let entries = span(Layer::Failover, || {
                let entries = server.journal_drain();
                sb_srv.apply_journal(&entries);
                entries.len() as u64
            });
            checkpoints_replicated += entries;
            if span(Layer::Failover, || monitor.poll(&mut net, now)) {
                let epoch = server.epoch() + 1;
                obs.emit(
                    now,
                    Event::FailoverStart {
                        from: tree.origin.index() as u64,
                        to: sb.index() as u64,
                        misses: u64::from(monitor.misses()),
                    },
                );
                span(Layer::Failover, || sb_srv.promote(epoch, now));
                for r in relays.iter_mut() {
                    span(Layer::Failover, || r.retarget_origin(*sb, epoch, now));
                }
                let _ = span(Layer::Redirect, || redirect.retarget_origin(&mut net, *sb));
                for c in clients.iter_mut() {
                    span(Layer::Failover, || c.retarget_home(tree.origin, *sb));
                }
                span(Layer::Failover, || monitor.fence(tree.origin, epoch));
                promoted_epoch = Some(epoch);
            }
            span(Layer::ServerPoll, || sb_srv.poll(&mut net, now));
        }
        for r in relays.iter_mut() {
            span(Layer::RelayPoll, || r.poll(&mut net, now));
        }
        for d in net.poll(now) {
            deliveries += 1;
            if let Some(pe) = promoted_epoch {
                // The product's fencing audit reads every delivery.
                std::hint::black_box(match &d.message {
                    Wire::Header(h) => h.epoch > 0 && h.epoch < pe,
                    Wire::Segment(seg) => seg.epoch > 0 && seg.epoch < pe,
                    _ => false,
                });
            }
            if d.dst == server.node() {
                if !span(Layer::Redirect, || {
                    redirect.intercept(&mut net, d.src, &d.message)
                }) {
                    span(Layer::ServerMsg, || {
                        server.on_message(&mut net, d.time, d.src, d.message)
                    });
                }
            } else if standby.as_ref().is_some_and(|(sb, _, _)| *sb == d.dst) {
                let (_, sb_srv, monitor) = standby.as_mut().expect("checked above");
                match d.message {
                    Wire::Pong { .. } => span(Layer::Failover, || monitor.on_pong(d.time)),
                    msg => {
                        if !span(Layer::Redirect, || {
                            redirect.intercept(&mut net, d.src, &msg)
                        }) {
                            span(Layer::ServerMsg, || {
                                sb_srv.on_message(&mut net, d.time, d.src, msg)
                            });
                        }
                    }
                }
            } else if let Some(c) = clients.iter_mut().find(|c| c.node() == d.dst) {
                let msg = match d.message {
                    Wire::Busy {
                        retry_after,
                        alternate: None,
                    } if tree.relays.contains(&d.src) => Wire::Busy {
                        retry_after,
                        alternate: span(Layer::Redirect, || redirect.reassign_busy(d.dst, d.src)),
                    },
                    m => m,
                };
                span(Layer::ClientMsg, || c.on_message(d.time, msg));
            } else if let Some(r) = relays.iter_mut().find(|r| r.node() == d.dst) {
                span(Layer::RelayMsg, || {
                    r.on_message(&mut net, d.time, d.src, d.message)
                });
            }
        }
        for (i, c) in clients.iter_mut().enumerate() {
            if !started[i] {
                continue;
            }
            events.extend(span(Layer::ClientTick, || c.tick(now)));
            span(Layer::ClientPoll, || {
                c.poll_adaptive(&mut net);
                c.poll_redirect(&mut net);
                c.poll_busy(&mut net, now);
                c.poll_recovery(&mut net, now);
            });
        }
        step_ns.push(step_start.elapsed().as_nanos() as u64);
        crate::lockstep::step_done();
        if started.iter().all(|&s| s) && clients.iter().all(|c| c.is_done()) {
            break;
        }
        now += STEP;
    }

    std::hint::black_box(per_client_skew(&clients, &events));
    let classroom_spread = classroom_spread(&events);
    let mut cache = CacheStats::default();
    let mut relay = RelayMetrics::default();
    for r in &relays {
        cache += r.cache().stats();
        relay += r.metrics();
    }
    let mut server_metrics = server.metrics();
    let mut sessions_migrated = 0;
    if let Some((_, sb_srv, _)) = &standby {
        let m = sb_srv.metrics();
        sessions_migrated = m.sessions_migrated;
        server_metrics.sessions_served += m.sessions_served;
        server_metrics.segments_served += m.segments_served;
        server_metrics.backpressure_pauses += m.backpressure_pauses;
        server_metrics.payload_bytes_sent += m.payload_bytes_sent;
    }
    SimRun {
        clients: clients.iter().map(|c| *c.metrics()).collect(),
        classroom_spread,
        server: server_metrics,
        relay,
        cache,
        checkpoints_replicated,
        sessions_migrated,
        obs_events: obs.event_count() as u64 + obs.events_dropped(),
        obs_dropped: obs.events_dropped(),
        deliveries,
        step_ns,
        sample: net.take_sample(),
    }
}
