//! The origin → relay → student tier, built once and driven one step at
//! a time over any [`Transport`].
//!
//! Every simnet deployment in [`crate::Wmps`] drives it over the
//! simulated network: the relay tier adds its chaos plan between
//! arrivals and the origin poll, the live classroom its encoder pump,
//! and the direct replays run it with zero relays.
//! [`crate::serve_loopback_udp`] drives it over real localhost UDP
//! sockets on a paced wall clock. Both backends run the same state
//! machines in the same order through the same [`Tier::step`].

use lod_asf::AsfFile;
use lod_obs::{Event, Recorder};
use lod_relay::{CacheStats, HeartbeatMonitor, RedirectManager, RelayMetrics, RelayNode};
use lod_simnet::{Delivery, NodeId};
use lod_streaming::{LiveFeed, RenderEvent, StreamingClient, StreamingServer, Wire};
use lod_transport::Transport;

use crate::wmps::{FailoverReport, RelayTierConfig};

/// The tier's node ids, minted by whichever backend hosts it.
pub(crate) struct TierNodes {
    pub origin: NodeId,
    pub relays: Vec<NodeId>,
    pub students: Vec<NodeId>,
    /// Present iff [`RelayTierConfig::failover`] is armed.
    pub standby: Option<NodeId>,
}

/// What the origin serves. The names it is published under, `"lecture"`
/// and `"live"`, travel in every Play, so they are wire bytes.
pub(crate) enum Content {
    /// A stored lecture, also cached by the relays and replicated to the
    /// standby.
    Vod(AsfFile),
    /// A broadcast fed while the tier runs; it has no relays and no
    /// standby.
    Live(LiveFeed),
}

/// What a node index is to the tier: the dispatch table's entries.
#[derive(Debug, Clone, Copy)]
enum Role {
    Unknown,
    Origin,
    Standby,
    Relay(usize),
    Client(usize),
}

struct Standby {
    node: NodeId,
    server: StreamingServer,
    monitor: HeartbeatMonitor,
}

/// Every state machine of one relay-tier session plus the bookkeeping
/// of stepping them.
pub(crate) struct Tier {
    pub origin: NodeId,
    pub server: StreamingServer,
    standby: Option<Standby>,
    relays: Vec<RelayNode>,
    pub redirect: RedirectManager,
    pub clients: Vec<StreamingClient>,
    start_at: Vec<u64>,
    started: Vec<bool>,
    roles: Vec<Role>,
    obs: Recorder,
    /// Every item any client rendered, in step order.
    pub events: Vec<RenderEvent>,
    checkpoints_replicated: u64,
    stale_epoch_replies: u64,
    promoted_at: Option<u64>,
    promoted_epoch: Option<u64>,
}

/// An origin-shaped server (the origin itself, or its warm standby)
/// with `cfg`'s knobs; the relays' shared fetches are never bounced.
fn origin_server(node: NodeId, cfg: &RelayTierConfig, relays: &[NodeId]) -> StreamingServer {
    let mut server = StreamingServer::new(node).with_recorder(cfg.recorder.clone());
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
    for &r in relays {
        server.exempt_from_admission(r);
    }
    server
}

impl Tier {
    /// Builds the tier serving `content`. Student `i` arrives per
    /// `cfg.arrival_wave` and, with `cfg.client_retry`, salts its retry
    /// jitter from `seed` so a rerun retries identically.
    pub fn new(cfg: &RelayTierConfig, nodes: TierNodes, content: Content, seed: u64) -> Self {
        let obs = cfg.recorder.clone();
        let mut server = origin_server(nodes.origin, cfg, &nodes.relays);
        // The warm standby: same catalog, same knobs, zero sessions. It
        // applies the replicated checkpoint journal every step and
        // answers nothing until promoted (Plays bounce toward the
        // primary).
        let mut standby = nodes.standby.zip(cfg.failover).map(|(node, f)| {
            let server = origin_server(node, cfg, &nodes.relays).as_standby();
            let monitor = HeartbeatMonitor::new(node, nodes.origin, f).with_recorder(obs.clone());
            Standby {
                node,
                server,
                monitor,
            }
        });
        let name = match content {
            Content::Vod(file) => {
                if let Some(sb) = standby.as_mut() {
                    sb.server.publish("lecture", file.clone());
                }
                server.publish("lecture", file);
                "lecture"
            }
            Content::Live(feed) => {
                assert!(
                    nodes.relays.is_empty() && standby.is_none(),
                    "a live tier runs without relays or a standby"
                );
                server.publish_live("live", feed);
                "live"
            }
        };
        let relays = nodes
            .relays
            .iter()
            .map(|&r| {
                let mut relay = RelayNode::new(r, nodes.origin, cfg.cache_budget)
                    .with_prefetch(cfg.prefetch)
                    .with_recorder(obs.clone())
                    .with_trace_permille(cfg.trace_permille);
                if let Some(adm) = cfg.relay_admission {
                    relay = relay.with_admission(adm);
                }
                if let Some(b) = cfg.breaker {
                    relay = relay.with_breaker(b);
                }
                relay.serve_vod(name);
                relay
            })
            .collect();
        let mut redirect = RedirectManager::new(nodes.origin, nodes.relays.clone());
        if let Some(seats) = cfg.relay_capacity_sessions {
            redirect = redirect.with_relay_capacity(seats);
        }
        let clients: Vec<StreamingClient> = nodes
            .students
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let client = StreamingClient::new(c, nodes.origin, name).with_recorder(obs.clone());
                match cfg.client_retry {
                    // Per-student salt: distinct jitter streams, same seed
                    // → same storm of retries on every run.
                    Some(policy) => client.with_retry(
                        policy,
                        seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    ),
                    None => client,
                }
            })
            .collect();
        // Arrival schedule: all at 0, or a flash crowd in waves.
        let start_at = (0..clients.len())
            .map(|i| match cfg.arrival_wave {
                Some((wave, interval)) => (i / wave.max(1)) as u64 * interval,
                None => 0,
            })
            .collect();
        let mut roles = Vec::new();
        let mut tag = |node: NodeId, role: Role| {
            roles.resize(roles.len().max(node.index() + 1), Role::Unknown);
            roles[node.index()] = role;
        };
        tag(nodes.origin, Role::Origin);
        if let Some(sb) = nodes.standby {
            tag(sb, Role::Standby);
        }
        for (i, &r) in nodes.relays.iter().enumerate() {
            tag(r, Role::Relay(i));
        }
        for (i, &c) in nodes.students.iter().enumerate() {
            tag(c, Role::Client(i));
        }
        Self {
            origin: nodes.origin,
            server,
            standby,
            relays,
            redirect,
            started: vec![false; clients.len()],
            clients,
            start_at,
            roles,
            obs,
            events: Vec::new(),
            checkpoints_replicated: 0,
            stale_epoch_replies: 0,
            promoted_at: None,
            promoted_epoch: None,
        }
    }

    /// Packs `packets` packets into every segment the origin serves.
    pub fn with_segment_packets(mut self, packets: u32) -> Self {
        self.server = self.server.with_segment_packets(packets);
        self
    }

    fn role(&self, node: NodeId) -> Role {
        self.roles
            .get(node.index())
            .copied()
            .unwrap_or(Role::Unknown)
    }

    /// One step at `now`: arrivals, then `chaos` (the backend's
    /// fault hooks), the origin poll, the standby (replication, failure
    /// detection, promotion), the relay polls, everything `net`
    /// delivered, and finally every started client's playout and timers.
    pub fn step<T: Transport<Wire>>(
        &mut self,
        net: &mut T,
        now: u64,
        chaos: impl FnOnce(&mut Self, &mut T),
    ) {
        for (i, c) in self.clients.iter_mut().enumerate() {
            if !self.started[i] && now >= self.start_at[i] {
                c.start(net);
                self.started[i] = true;
            }
        }
        chaos(self, net);
        self.server.poll(net, now);
        if let Some(sb) = self.standby.as_mut() {
            // Replicate: whatever the primary journaled this step is
            // applied to the standby's replica — the replication lag is
            // bounded by one step on top of the journal's own
            // checkpoint cadence.
            let entries = self.server.journal_drain();
            self.checkpoints_replicated += entries.len() as u64;
            sb.server.apply_journal(&entries);
            if sb.monitor.poll(net, now) {
                // The origin is dead. Promote the standby one epoch past
                // the primary's, re-point every relay uplink
                // (deterministic Vec order), re-front the redirect
                // manager, re-home every client, and keep fencing the
                // old origin so a heal demotes it.
                let epoch = self.server.epoch() + 1;
                self.obs.emit(
                    now,
                    Event::FailoverStart {
                        from: self.origin.index() as u64,
                        to: sb.node.index() as u64,
                        misses: u64::from(sb.monitor.misses()),
                    },
                );
                sb.server.promote(epoch, now);
                for r in self.relays.iter_mut() {
                    r.retarget_origin(sb.node, epoch, now);
                }
                let _ = self.redirect.retarget_origin(net, sb.node);
                for c in self.clients.iter_mut() {
                    c.retarget_home(self.origin, sb.node);
                }
                sb.monitor.fence(self.origin, epoch);
                self.promoted_at = Some(now);
                self.promoted_epoch = Some(epoch);
            }
            sb.server.poll(net, now);
        }
        for r in self.relays.iter_mut() {
            r.poll(net, now);
        }
        for d in net.poll(now) {
            self.dispatch(net, d);
        }
        for (i, c) in self.clients.iter_mut().enumerate() {
            if !self.started[i] {
                continue;
            }
            self.events.extend(c.tick(now));
            c.poll_adaptive(net);
            c.poll_redirect(net);
            c.poll_busy(net, now);
            c.poll_recovery(net, now);
        }
    }

    fn dispatch<T: Transport<Wire>>(&mut self, net: &mut T, d: Delivery<Wire>) {
        // Fencing audit: after promotion, nothing carrying a
        // pre-promotion epoch may reach anyone (epoch 0 marks epoch-less
        // unit-test fixtures, never a served reply).
        let epoch = match &d.message {
            Wire::Header(h) => h.epoch,
            Wire::Segment(seg) => seg.epoch,
            _ => 0,
        };
        if self
            .promoted_epoch
            .is_some_and(|pe| epoch > 0 && epoch < pe)
        {
            self.stale_epoch_replies += 1;
        }
        match self.role(d.dst) {
            Role::Origin => {
                if !self.redirect.intercept(net, d.src, &d.message) {
                    self.server.on_message(net, d.time, d.src, d.message);
                }
            }
            Role::Standby => {
                let sb = self
                    .standby
                    .as_mut()
                    .expect("standby role implies a standby");
                match d.message {
                    // Heartbeat answers feed the failure detector.
                    Wire::Pong { .. } => sb.monitor.on_pong(d.time),
                    msg => {
                        // Post-promotion the standby is the front door,
                        // so the redirect manager intercepts Plays
                        // exactly as it did at the old origin.
                        if !self.redirect.intercept(net, d.src, &msg) {
                            sb.server.on_message(net, d.time, d.src, msg);
                        }
                    }
                }
            }
            Role::Client(i) => {
                // A relay bouncing a student names no alternate (it only
                // knows itself); the redirect manager fills one in so the
                // bounce lands on the least-loaded sibling instead of a
                // blind wait-and-retry.
                let msg = match d.message {
                    Wire::Busy {
                        retry_after,
                        alternate: None,
                    } if matches!(self.role(d.src), Role::Relay(_)) => Wire::Busy {
                        retry_after,
                        alternate: self.redirect.reassign_busy(d.dst, d.src),
                    },
                    m => m,
                };
                self.clients[i].on_message(d.time, msg);
            }
            Role::Relay(i) => self.relays[i].on_message(net, d.time, d.src, d.message),
            Role::Unknown => {}
        }
    }

    /// Every student has arrived and finished (or given up), and no live
    /// broadcast is still on air.
    pub fn done(&self) -> bool {
        self.started.iter().all(|&s| s)
            && self.clients.iter().all(StreamingClient::is_done)
            && !self.server.on_air()
    }

    /// Cache accounting and service counters summed over every relay.
    pub fn relay_totals(&self) -> (CacheStats, RelayMetrics) {
        let mut cache = CacheStats::default();
        let mut metrics = RelayMetrics::default();
        for r in &self.relays {
            cache += r.cache().stats();
            metrics += r.metrics();
        }
        (cache, metrics)
    }

    /// The warm standby's outcome (`None` without one).
    pub fn failover_report(&self) -> Option<FailoverReport> {
        self.standby.as_ref().map(|sb| {
            let standby = sb.server.metrics();
            FailoverReport {
                promoted_at: self.promoted_at,
                epoch: sb.server.epoch(),
                sessions_migrated: standby.sessions_migrated,
                checkpoints_replicated: self.checkpoints_replicated,
                stale_epoch_replies: self.stale_epoch_replies,
                standby,
            }
        })
    }
}
