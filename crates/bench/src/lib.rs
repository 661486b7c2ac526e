//! Experiment harness for the WMPS reproduction.
//!
//! One binary per paper figure/experiment (see `src/bin/`), plus Criterion
//! micro-benchmarks (see `benches/`). `EXPERIMENTS.md` at the repository
//! root records paper-vs-measured for every artifact.

pub mod hotpath;
pub mod report;

use std::time::Instant;

/// The upper median of `samples` (sorted in place).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median ns per call of `f` over `iters` timed samples.
pub fn median_ns(iters: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    median(&mut samples)
}

/// Parses a seeded drill's `[--seed N] [--json PATH] [--events PATH]
/// [--prom PATH]` into `(seed, json, events, prom)`; the seed defaults
/// to 7.
///
/// # Panics
///
/// On an unknown argument or a missing/malformed value, naming `bin`
/// in the usage line.
pub fn parse_drill_args(bin: &str) -> (u64, Option<String>, Option<String>, Option<String>) {
    let mut seed = 7u64;
    let (mut json, mut events, mut prom) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--json" => json = Some(args.next().expect("--json takes a path")),
            "--events" => events = Some(args.next().expect("--events takes a path")),
            "--prom" => prom = Some(args.next().expect("--prom takes a path")),
            other => panic!(
                "unknown argument {other} (usage: {bin} [--seed N] \
                 [--json PATH] [--events PATH] [--prom PATH])"
            ),
        }
    }
    (seed, json, events, prom)
}
