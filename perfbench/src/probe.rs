//! The host's speed, read by a fixed reference kernel on the serve's CPU.
//!
//! On a shared host other tenants slow this program by up to half, for
//! seconds at a time and for minutes in all, so a serve's time alone
//! reads the host's load as much as the program's cost. The slowdown is
//! a core's own: a reference kernel run at the same moments on the other
//! CPU does not follow it, nor does one run just before and after a
//! serve. [`Probe`] pins the calling thread and a probe thread to one
//! CPU; every [`PERIOD`] the probe wakes, runs one [`burst`] of fixed
//! work and books the CPU time it took. The mean burst time over a
//! window is how slow the core was during it, so a thread's CPU time
//! divided by it ([`Window::ref_seconds`]) is the window's cost at the
//! reference speed, which holds still while the host's load comes and
//! goes.
//!
//! The reference kernel is benchmark code and never changes with the
//! program. It shares the core's caches with the serve, so a change that
//! widens the serve's memory footprint also slows the bursts a little
//! and shows at about 85 % of its size (see the README).

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::lockstep;

/// Sleep between two bursts. A burst takes about 1 ms on the baseline
/// host, so the probe takes a tenth of the CPU.
const PERIOD: Duration = Duration::from_millis(9);
/// Events per burst.
const BURST_EVENTS: u64 = 2_500;
/// The keys a burst's events touch; their buffers add up to about 1 MB.
const BURST_KEYS: u64 = 4_096;
/// What one burst counts for: a window's CPU time is reported in
/// reference seconds, one of which is 1 000 bursts' worth.
const BURST_REF_S: f64 = 1e-3;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The reference kernel: a small discrete-event loop of the kind the
/// serves run. 256 nodes pop timed events off a heap; each event takes
/// a key's buffer out of a hash map, or allocates one of 200–1 500 bytes.
fn burst() -> u64 {
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u64)>> =
        (0..256).map(|n| std::cmp::Reverse((n, n))).collect();
    let mut buffers: HashMap<u64, Vec<u8>> = HashMap::new();
    let (mut rng, mut acc) = (7u64, 0u64);
    for _ in 0..BURST_EVENTS {
        let std::cmp::Reverse((t, node)) = heap.pop().expect("256 nodes");
        rng = splitmix(rng);
        let key = rng % BURST_KEYS;
        match buffers.remove(&key) {
            Some(b) => acc = acc.wrapping_add(b[b.len() / 2] as u64 + b.len() as u64),
            None => {
                let len = 200 + (rng >> 40) as usize % 1_300;
                let mut b = vec![0u8; len];
                b[len / 2] = node as u8;
                buffers.insert(key, b);
            }
        }
        heap.push(std::cmp::Reverse((t + 1 + (rng >> 50) % 100, node)));
    }
    acc
}

/// Bursts run so far: their summed CPU time (ns) and their number.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    burst_ns: u64,
    bursts: u64,
}

/// The probe thread; dropping it stops the thread and waits for it.
pub struct Probe {
    stop: Arc<AtomicBool>,
    totals: Arc<[AtomicU64; 2]>,
    thread: Option<JoinHandle<()>>,
}

impl Probe {
    /// Pins the calling thread to the CPU it is on and starts the probe
    /// on the same CPU. Pinning is best effort, as in [`lockstep`].
    pub fn start() -> Probe {
        let cpu = lockstep::current_cpu();
        lockstep::pin(cpu);
        let stop = Arc::new(AtomicBool::new(false));
        let totals = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let thread = std::thread::spawn({
            let (stop, totals) = (stop.clone(), totals.clone());
            move || {
                lockstep::pin(cpu);
                while !stop.load(Relaxed) {
                    std::thread::sleep(PERIOD);
                    let t = thread_cpu_ns();
                    std::hint::black_box(burst());
                    totals[0].fetch_add(thread_cpu_ns() - t, Relaxed);
                    totals[1].fetch_add(1, Relaxed);
                }
            }
        });
        Probe {
            stop,
            totals,
            thread: Some(thread),
        }
    }

    pub fn mark(&self) -> Mark {
        Mark {
            burst_ns: self.totals[0].load(Relaxed),
            bursts: self.totals[1].load(Relaxed),
        }
    }

    /// The bursts run since `from`.
    pub fn since(&self, from: Mark) -> Window {
        let to = self.mark();
        Window {
            burst_ns: to.burst_ns - from.burst_ns,
            bursts: to.bursts - from.bursts,
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.stop.store(true, Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("probe thread");
        }
    }
}

/// The bursts run during a span of time.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    burst_ns: u64,
    bursts: u64,
}

impl Window {
    /// `cpu_ns` of work done during the window, in reference seconds.
    /// A window holds a serve of seconds, so hundreds of bursts.
    pub fn ref_seconds(&self, cpu_ns: u64) -> f64 {
        assert!(self.bursts > 0, "no probe burst ran during a serve");
        cpu_ns as f64 * self.bursts as f64 / self.burst_ns as f64 * BURST_REF_S
    }
}
