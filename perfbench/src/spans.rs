//! Self-time spans wrapped around calls into each layer, from outside.
//!
//! The benchmark never instruments the program itself: its drivers open
//! a span before a public call into a layer and close it after. Spans
//! nest (a server `poll` that sends datagrams contains the transport's
//! `send` spans), and a layer's self time is its spans' duration minus
//! the part covered by child spans — so Σ self time over every layer,
//! the driver's root span included, equals the root span's duration.
//!
//! Tracing is a thread-local switch: with it off, [`span`]
//! costs two `Cell` reads and never touches the clock.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// The layers the traced drivers split a serve into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The driver's own loop: dispatch, bookkeeping, report assembly.
    Driver,
    /// `Network::advance_to` (simnet's event queue and link model).
    SimnetAdvance,
    /// `Network::send`/`send_reliable`.
    SimnetSend,
    /// `FaultInjector::poll` (scripted chaos against the simulator).
    SimnetFault,
    /// `UdpTransport::poll`: socket drain, decode, reorder, repair.
    UdpPoll,
    /// `UdpTransport::send`/`send_reliable`: encode, frame, pace, socket.
    UdpSend,
    /// `StreamingServer::poll` (origin and standby).
    ServerPoll,
    /// `StreamingServer::on_message`.
    ServerMsg,
    /// `StreamingClient::on_message`.
    ClientMsg,
    /// `StreamingClient::tick` (playout).
    ClientTick,
    /// `StreamingClient::start` and the four `poll_*` timers.
    ClientPoll,
    /// `RelayNode::poll`.
    RelayPoll,
    /// `RelayNode::on_message`.
    RelayMsg,
    /// `RedirectManager` calls (intercept, re-home, busy reassignment).
    Redirect,
    /// Warm-standby replication and the heartbeat monitor.
    Failover,
}

pub const LAYERS: usize = 15;

const ALL: [Layer; LAYERS] = [
    Layer::Driver,
    Layer::SimnetAdvance,
    Layer::SimnetSend,
    Layer::SimnetFault,
    Layer::UdpPoll,
    Layer::UdpSend,
    Layer::ServerPoll,
    Layer::ServerMsg,
    Layer::ClientMsg,
    Layer::ClientTick,
    Layer::ClientPoll,
    Layer::RelayPoll,
    Layer::RelayMsg,
    Layer::Redirect,
    Layer::Failover,
];

impl Layer {
    pub fn all() -> &'static [Layer; LAYERS] {
        &ALL
    }
}

/// Self time and call count per layer for one traced serve.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    pub self_ns: [u64; LAYERS],
    pub calls: [u64; LAYERS],
    /// Spans closed directly inside a span of this layer.
    pub child_calls: [u64; LAYERS],
}

impl Profile {
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Self time of `layer` with the tracer's own cost taken out: each
    /// of its spans carries `cost.inner_ns` of clock reads, and each
    /// child span charges it `cost.outer_ns` of bookkeeping.
    pub fn corrected_ns(&self, layer: Layer, cost: &SpanCost) -> f64 {
        let i = layer as usize;
        (self.self_ns[i] as f64
            - self.calls[i] as f64 * cost.inner_ns
            - self.child_calls[i] as f64 * cost.outer_ns)
            .max(0.0)
    }
}

/// What one span costs the tracer, split by who it is charged to.
#[derive(Debug, Clone, Copy)]
pub struct SpanCost {
    /// Recorded as the span's own self time.
    pub inner_ns: f64,
    /// Recorded as its parent's self time.
    pub outer_ns: f64,
}

/// Measures [`SpanCost`] by tracing a loop of empty spans.
pub fn calibrate() -> SpanCost {
    const N: u64 = 200_000;
    let ((), p) = record(true, || {
        for _ in 0..N {
            span(Layer::SimnetSend, || ());
        }
    });
    SpanCost {
        inner_ns: p.self_ns(Layer::SimnetSend) as f64 / N as f64,
        outer_ns: p.self_ns(Layer::Driver) as f64 / N as f64,
    }
}

struct Open {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    static PROFILE: RefCell<Profile> = RefCell::new(Profile::default());
}

/// Opens a span for `layer` (no-op while tracing is off).
#[inline]
fn enter(layer: Layer) {
    if ON.with(Cell::get) {
        STACK.with(|s| {
            s.borrow_mut().push(Open {
                layer,
                start: Instant::now(),
                child_ns: 0,
            })
        });
    }
}

/// Closes the innermost span (no-op while tracing is off).
#[inline]
fn exit() {
    if ON.with(Cell::get) {
        let end = Instant::now();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let open = stack.pop().expect("span exit without a matching enter");
            let elapsed = end.duration_since(open.start).as_nanos() as u64;
            let parent = stack.last_mut().map(|parent| {
                parent.child_ns += elapsed;
                parent.layer
            });
            PROFILE.with(|p| {
                let mut p = p.borrow_mut();
                if let Some(parent) = parent {
                    p.child_calls[parent as usize] += 1;
                }
                p.self_ns[open.layer as usize] += elapsed.saturating_sub(open.child_ns);
                p.calls[open.layer as usize] += 1;
            });
        });
    }
}

/// Runs `f` inside a span for `layer`.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    enter(layer);
    let r = f();
    exit();
    r
}

/// Spans closed so far on this thread in the current recording.
pub fn closed() -> u64 {
    PROFILE.with(|p| p.borrow().calls.iter().sum())
}

/// Runs `f` with tracing on and returns its result with the profile it
/// recorded; `f` runs untraced when `traced` is false (empty profile).
pub fn record<R>(traced: bool, f: impl FnOnce() -> R) -> (R, Profile) {
    ON.with(|on| on.set(traced));
    PROFILE.with(|p| *p.borrow_mut() = Profile::default());
    let r = span(Layer::Driver, f);
    ON.with(|on| on.set(false));
    let open = STACK.with(|s| s.borrow().len());
    assert_eq!(open, 0, "every span must be closed by the end of a serve");
    (r, PROFILE.with(|p| std::mem::take(&mut *p.borrow_mut())))
}
