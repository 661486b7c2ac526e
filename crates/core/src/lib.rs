//! WMPS core: the paper's contribution.
//!
//! §1 of the paper argues that OCPN/XOCPN "lack methods to describe the
//! details of synchronization across distributed platforms and do not deal
//! with the schedule change caused by user interactions", and that
//! "considering the network transport issue of multimedia and the floor
//! control with multiple users, OCPN/XOCPN model are not sufficient".
//! WMPS therefore uses an **extended timed Petri net** (ETPN). This crate
//! is that model plus the surrounding system:
//!
//! * [`etpn`] — the extended timed Petri net: per-stream playout chains
//!   gated by *arrival places* (network transport), periodic *sync
//!   transitions* that bound inter-stream skew across distributed
//!   platforms, and a *running place* through which user interactions
//!   (pause/resume/skip) act on the schedule without rebuilding the net.
//! * [`replay`] — the distributed replay harness comparing OCPN, XOCPN
//!   and ETPN controllers over the same jittery network (experiment Q1).
//! * [`floor`] — prioritized-Petri-net floor control for multiple users
//!   (paper ref \[13\]; experiment Q3).
//! * [`abstractor`] — the multiple-level content tree put to work:
//!   deriving a presentation of the right length for a time/bandwidth
//!   budget (Fig. 6).
//! * [`presentation`] — the lecture model and a deterministic synthetic
//!   lecture generator (the substitution for real recorded lectures).
//! * [`wmps`] — end-to-end sessions: record → publish → serve → replay,
//!   and the live classroom.

pub mod abstractor;
pub mod distributed;
pub mod etpn;
pub mod floor;
pub mod loopback;
pub mod presentation;
pub mod replay;
mod tier;
pub mod wmps;

pub use abstractor::Abstractor;
pub use distributed::{run_classroom, ClassroomConfig, ClassroomReport};
pub use etpn::{EtpnConfig, EtpnReport, LectureNet};
pub use floor::{FloorControl, FloorReport, FloorRequest};
pub use loopback::{serve_loopback_udp, LoopbackConfig, LoopbackReport};
pub use presentation::{synthetic_lecture, Lecture, OutlineEntry};
pub use replay::{ReplayConfig, ReplayReport, SyncModelKind};
pub use wmps::{
    ChaosSpec, FailoverReport, QnaReport, Question, RelayTierConfig, RelayTierReport, Wmps,
    WmpsReport,
};
// The overload-protection policies, re-exported so facade users (the CLI,
// the benches) need not depend on lod-streaming directly.
pub use lod_streaming::{AdmissionPolicy, BreakerPolicy, DegradePolicy, RetryPolicy};

// The loopback deployment's transport knobs (socket tuning, loss
// repair, fault injection), re-exported for the same reason.
pub use lod_transport::{FaultSpec, RepairConfig, UdpConfig};
// The failover knobs, likewise: arm `RelayTierConfig::failover` to get a
// warm standby, heartbeat detection and deterministic promotion.
pub use lod_relay::FailoverConfig;
// The observability surface, likewise: arm `RelayTierConfig::recorder`
// with `Recorder::new()`, then drain the log through these.
pub use lod_obs as obs;
pub use lod_obs::{
    check_causal, fmt_ticks, lecture_id, parse_jsonl, session_timelines, worst_by_stall,
    CausalReport, Event, EventRecord, HopStats, Recorder, SegmentTrace, SessionTimeline,
    SpanAssembler,
};
