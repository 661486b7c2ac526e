//! **lod-obs** — deterministic tracing and metrics for the WMPS
//! reproduction.
//!
//! The paper's delivery chain (origin server, edge relays, players) is
//! reproduced as a seeded discrete-event simulation; this crate gives
//! every layer one shared, deterministic observability surface:
//!
//! * [`Recorder`] — a tick-stamped structured event bus. Components emit
//!   typed [`Event`]s (session lifecycle, stalls, downshifts, sheds,
//!   retries, breaker and cache traffic, fault strikes) in driver call
//!   order, so a seeded run logs byte-identical JSONL every time.
//! * [`Registry`] — integer-only counters, gauges and fixed-bucket
//!   [`Histogram`]s with exact merge, rendered as a Prometheus-style
//!   text exposition.
//! * [`SessionTimeline`] — folds the flat log back into each session's
//!   story (startup → stall spans → downshift → recovery), and
//!   [`check_causal`] cross-checks the log against the causal claims
//!   the aggregate counters cannot make.
//! * [`TraceCtx`] / [`SpanAssembler`] — a sampled cross-node tracing
//!   plane: a compact context rides the wire with each traced segment,
//!   every hop emits paired span events, and the assembler folds merged
//!   logs back into per-segment hop-latency waterfalls.
//!
//! Node identity is carried as raw `u64` indices: this crate sits below
//! the simulator in the dependency order (the fault injector emits into
//! it), so it cannot name `lod_simnet::NodeId`.

#![warn(missing_docs)]

mod event;
mod metrics;
mod recorder;
mod span;
mod timeline;

pub use event::{escape_into, parse_event, parse_jsonl, Event, EventRecord};
pub use metrics::{parse_prometheus, Histogram, Registry, TICK_BOUNDS};
pub use recorder::Recorder;
pub use span::{
    fmt_ticks, lecture_id, sampled, splitmix64, HopStats, SegmentTrace, SpanAssembler, SpanRow,
    TraceCtx,
};
pub use timeline::{
    check_causal, session_timelines, worst_by_stall, CausalReport, EndKind, SessionTimeline,
    StallSpan,
};
