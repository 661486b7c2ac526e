//! The three workloads: their inputs, deployment shapes and set-up.
//!
//! Every input is derived from the workload seed: the lecture generator,
//! the simulator's RNG and the fault engines all take it.

use std::collections::HashSet;

use lod_asf::{read_asf, write_asf, AsfFile};
use lod_core::{
    synthetic_lecture, AdmissionPolicy, BreakerPolicy, ChaosSpec, DegradePolicy, FailoverConfig,
    Recorder, RelayTierConfig, RepairConfig, RetryPolicy, UdpConfig, Wmps,
};
use lod_simnet::{relay_tree, LinkSpec, Network};
use lod_streaming::Wire;
use lod_transport::FaultSpec;

use crate::probe::thread_cpu_ns;
use crate::udp::UdpDeployment;

/// Ticks per second (1 tick = 100 ns).
pub const SECOND: u64 = 10_000_000;

/// Video bitrate of every generated lecture (the q-series default).
const VIDEO_BPS: u64 = 300_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 256 students, 4 relays, LAN, 1-minute lecture, calm.
    Campus,
    /// 64 students, 4 relays, 4-minute lecture, severe storm plus an
    /// origin crash with warm-standby failover, relay breakers, recorder
    /// on.
    Storm,
    /// Real loopback UDP sockets: origin + 2 relays + 16 students,
    /// 4-minute lecture, 50‰ egress loss with repair on.
    UdpLossy,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Campus, Workload::Storm, Workload::UdpLossy];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Campus => "campus",
            Workload::Storm => "storm",
            Workload::UdpLossy => "udp_lossy",
        }
    }

    pub fn students(self) -> usize {
        match self {
            Workload::Campus => 256,
            Workload::Storm => 64,
            Workload::UdpLossy => 16,
        }
    }

    fn minutes(self) -> u64 {
        match self {
            Workload::Campus => 1,
            Workload::Storm | Workload::UdpLossy => 4,
        }
    }

    /// Whether the run has no injected faults, so every student must
    /// render the whole lecture.
    pub fn calm(self) -> bool {
        self == Workload::Campus
    }

    pub fn is_udp(self) -> bool {
        self == Workload::UdpLossy
    }
}

/// What each step of one set-up took, in ns of the thread's CPU time.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub publish_ns: u64,
    pub write_ns: u64,
    pub read_ns: u64,
    pub deploy_ns: u64,
}

impl SetupTimes {
    pub fn total_ns(&self) -> u64 {
        self.publish_ns + self.write_ns + self.read_ns + self.deploy_ns
    }
}

/// A published lecture and what it cost to get there.
pub struct Prepared {
    pub file: AsfFile,
    pub times: SetupTimes,
    /// Data packets in the published file.
    pub asf_packets: u64,
    /// Distinct media samples in the file: what a student who saw the
    /// whole lecture renders.
    pub full_samples: u64,
}

fn elapsed_ns(cpu_ns: u64) -> u64 {
    thread_cpu_ns() - cpu_ns
}

/// Set-up as `wmps publish` → `wmps serve` does it: publish the seeded
/// lecture, write it as ASF bytes, read it back, then build the
/// deployment (the simulated topology, or the bound UDP sockets).
pub fn prepare(w: Workload, seed: u64) -> Prepared {
    let lecture = synthetic_lecture(seed, w.minutes(), VIDEO_BPS);
    let t = thread_cpu_ns();
    let published = Wmps::new().publish(&lecture).expect("publish the lecture");
    let publish_ns = elapsed_ns(t);
    let t = thread_cpu_ns();
    let bytes = write_asf(&published).expect("write the ASF file");
    let write_ns = elapsed_ns(t);
    let t = thread_cpu_ns();
    let file = read_asf(&bytes).expect("read the ASF file back");
    let read_ns = elapsed_ns(t);
    assert_eq!(
        file.packets.len(),
        published.packets.len(),
        "the ASF round trip must keep every data packet"
    );
    let t = thread_cpu_ns();
    if w.is_udp() {
        drop(std::hint::black_box(UdpDeployment::bind(seed)));
    } else {
        let spec = SimSpec::new(w, &file);
        let mut net: Network<Wire> = Network::new(seed);
        std::hint::black_box(relay_tree(
            &mut net,
            spec.uplink,
            spec.cfg.relay_link,
            spec.access,
            spec.cfg.relays,
            spec.students,
        ));
    }
    let deploy_ns = elapsed_ns(t);
    let full_samples = file
        .packets
        .iter()
        .flat_map(|p| p.payloads.iter().map(|pl| (pl.stream, pl.object_id)))
        .collect::<HashSet<_>>()
        .len() as u64;
    Prepared {
        asf_packets: file.packets.len() as u64,
        full_samples,
        file,
        times: SetupTimes {
            publish_ns,
            write_ns,
            read_ns,
            deploy_ns,
        },
    }
}

/// Arguments of one `Wmps::serve_with_relays` call.
pub struct SimSpec {
    pub uplink: LinkSpec,
    pub access: LinkSpec,
    pub students: usize,
    pub cfg: RelayTierConfig,
}

impl SimSpec {
    /// A fresh spec (with a fresh recorder, so serves never share one).
    pub fn new(w: Workload, file: &AsfFile) -> Self {
        match w {
            Workload::Campus => Self {
                uplink: LinkSpec::lan(),
                access: LinkSpec::lan(),
                students: w.students(),
                cfg: RelayTierConfig {
                    relays: 4,
                    ..RelayTierConfig::default()
                },
            },
            Workload::Storm => {
                let students = w.students();
                let seat = u64::from(file.props.max_bitrate).max(64_000);
                Self {
                    // q12's links: uplink headroom above the startup
                    // burst so heartbeats are not queued behind media.
                    uplink: LinkSpec::broadband().with_bandwidth(40_000_000),
                    access: LinkSpec::lan(),
                    students,
                    cfg: RelayTierConfig {
                        relays: 4,
                        relay_link: LinkSpec::broadband().with_bandwidth(10_000_000),
                        origin_admission: Some(AdmissionPolicy::new(
                            students as u32,
                            seat * students as u64,
                        )),
                        // Half the class on relays, half on the origin:
                        // the sessions the failover must migrate.
                        relay_capacity_sessions: Some(8),
                        degrade: Some(DegradePolicy::default()),
                        breaker: Some(BreakerPolicy::upstream()),
                        client_retry: Some(RetryPolicy::client()),
                        idle_timeout: Some(120 * SECOND),
                        // q9's severe storm plus q12's origin crash.
                        chaos: ChaosSpec {
                            access_loss_bursts: vec![(10 * SECOND, 15 * SECOND, 0.05)],
                            relay_crashes: vec![(20 * SECOND, u64::MAX, 0)],
                            uplink_partitions: vec![(30 * SECOND, 2 * SECOND)],
                            access_flaps: vec![
                                (12 * SECOND, 3 * SECOND / 2, 7),
                                (35 * SECOND, SECOND, 21),
                            ],
                            origin_down: vec![(20 * SECOND, u64::MAX)],
                            ..ChaosSpec::default()
                        },
                        failover: Some(FailoverConfig {
                            heartbeat_interval: 2_000_000,
                            miss_threshold: 5,
                            checkpoint_every: SECOND,
                        }),
                        recorder: Recorder::with_event_capacity(1 << 14),
                        trace_permille: 50,
                        ..RelayTierConfig::default()
                    },
                }
            }
            Workload::UdpLossy => unreachable!("udp_lossy has no simulated deployment"),
        }
    }

    /// The same tier shape on calm LAN links: the simnet reference a
    /// UDP run's sample counts reconcile with.
    pub fn reference(students: usize, relays: usize) -> Self {
        Self {
            uplink: LinkSpec::lan(),
            access: LinkSpec::lan(),
            students,
            cfg: RelayTierConfig {
                relays,
                ..RelayTierConfig::default()
            },
        }
    }
}

/// Knobs of the `udp_lossy` deployment.
pub struct UdpSpec {
    pub relays: usize,
    pub students: usize,
    pub udp: UdpConfig,
    pub segment_packets: u32,
    pub fault: FaultSpec,
    pub client_retry: RetryPolicy,
    /// Manual clock step, in ticks.
    pub step: u64,
}

impl UdpSpec {
    pub fn new(seed: u64) -> Self {
        Self {
            relays: 2,
            students: Workload::UdpLossy.students(),
            udp: UdpConfig {
                pace_rate_bps: 200_000_000,
                ..UdpConfig::default()
            }
            .with_repair(RepairConfig::default()),
            segment_packets: 32,
            fault: FaultSpec::loss(seed, 50),
            client_retry: RetryPolicy::client(),
            step: SECOND / 100,
        }
    }
}
