//! Two serves run turn about, one driver step each, on one CPU.
//!
//! The host's speed drifts by more than the tracer costs between two
//! serves run one after the other, so a traced serve cannot be checked
//! against an untraced one timed seconds apart. [`lockstep`] runs both
//! on two threads pinned to the same CPU and hands the CPU over at the
//! end of every driver step (the drivers call [`step_done`]), so the two
//! serves' step `i` run a few milliseconds apart, on the same host. The
//! time between handing the CPU back and getting it again is no one's:
//! each serve is measured as a list of [`Slice`]s, its active time
//! between two hand-overs.

use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::spans;

thread_local! {
    static STEP_HOOK: RefCell<Option<Box<dyn FnMut()>>> = const { RefCell::new(None) };
}

/// Called by the drivers after each step; yields to the partner serve
/// while a lockstep pair runs, and does nothing otherwise.
pub fn step_done() {
    STEP_HOOK.with(|h| {
        if let Some(f) = h.borrow_mut().as_mut() {
            f()
        }
    });
}

/// One turn of a serve: the serve's start or one driver step.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub active_ns: u64,
    /// Spans closed during the turn (0 for an untraced serve).
    pub spans: u64,
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// The CPU the calling thread is on.
pub fn current_cpu() -> usize {
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    usize::try_from(unsafe { sched_getcpu() }).unwrap_or(0)
}

/// Pins the calling thread to `cpu`. Best effort: where the host refuses,
/// the pair still alternates, only possibly across CPUs.
pub fn pin(cpu: usize) {
    let mut mask = [0u8; 128];
    if cpu < mask.len() * 8 {
        mask[cpu / 8] |= 1 << (cpu % 8);
        // SAFETY: `mask` is a valid CPU set of `mask.len()` bytes, and
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) };
    }
}

struct Turns {
    turn: usize,
    done: [bool; 2],
}

type Shared = Arc<(Mutex<Turns>, Condvar)>;

/// Blocks until it is `me`'s turn or the partner has finished.
fn wait_turn(shared: &Shared, me: usize) {
    let (state, wake) = &**shared;
    let mut s = state.lock().expect("lockstep lock");
    while s.turn != me && !s.done[1 - me] {
        s = wake.wait(s).expect("lockstep wait");
    }
}

/// Hands the turn to the partner (and records that `me` is done).
fn hand_over(shared: &Shared, me: usize, done: bool) {
    let (state, wake) = &**shared;
    let mut s = state.lock().expect("lockstep lock");
    s.turn = 1 - me;
    s.done[me] |= done;
    wake.notify_all();
}

/// Runs `serve(false)` and `serve(true)` turn about, the untraced one
/// first, and returns each one's slices, untraced first. The work after
/// a serve's last step (report assembly) is in neither.
pub fn lockstep(serve: impl Fn(bool) + Sync) -> (Vec<Slice>, Vec<Slice>) {
    let cpu = current_cpu();
    let shared: Shared = Arc::new((
        Mutex::new(Turns {
            turn: 0,
            done: [false; 2],
        }),
        Condvar::new(),
    ));
    let serve = &serve;
    let run = move |me: usize, shared: Shared| {
        pin(cpu);
        wait_turn(&shared, me);
        let slices = std::rc::Rc::new(RefCell::new(Vec::new()));
        let (log, hook_shared) = (slices.clone(), shared.clone());
        let mut resumed = Instant::now();
        let mut spans_before = 0;
        STEP_HOOK.with(|h| {
            *h.borrow_mut() = Some(Box::new(move || {
                let active_ns = resumed.elapsed().as_nanos() as u64;
                let spans = spans::closed();
                log.borrow_mut().push(Slice {
                    active_ns,
                    spans: spans - spans_before,
                });
                spans_before = spans;
                hand_over(&hook_shared, me, false);
                wait_turn(&hook_shared, me);
                resumed = Instant::now();
            }))
        });
        serve(me == 1);
        STEP_HOOK.with(|h| *h.borrow_mut() = None);
        hand_over(&shared, me, true);
        slices.take()
    };
    std::thread::scope(|sc| {
        let untraced = sc.spawn({
            let shared = shared.clone();
            move || run(0, shared)
        });
        let traced = sc.spawn(move || run(1, shared));
        (
            untraced.join().expect("untraced serve"),
            traced.join().expect("traced serve"),
        )
    })
}
