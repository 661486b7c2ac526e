#!/usr/bin/env python3
"""Build and run the WMPS benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload campus --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all [--seed 7 --seconds 30 --trace 0]
    python3 perfbench/run.py --selftest

The first form builds the benchmark package (perfbench/Cargo.toml, in
release mode, offline) and runs one workload; its last line of standard
output is the JSON result, and its exit code is nonzero when the build
fails or any output check fails. `--workload all` runs campus, storm and
udp_lossy in turn and fails if any of them does. `--selftest` runs every
workload once, untraced and traced, on seed 11, which was not used while
the benchmark was written, and fails unless every output check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ("campus", "storm", "udp_lossy")
# One run must end within 180 s; the program itself budgets `--seconds`
# plus a few serves, so this only catches a hang.
RUN_TIMEOUT_S = 170
# The selftest's seed: one the benchmark was not developed on.
SELFTEST_SEED = 11


def build():
    """Builds the release binary and returns its path (None on failure)."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    # Build output goes to stderr: stdout's last line is the result.
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    exe = os.path.join(os.path.abspath(target), "release", "wmps-perfbench")
    return exe if os.path.isfile(exe) else None


def run(exe, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def selftest(exe):
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", str(SELFTEST_SEED),
                    "--seconds", "0", "--trace", trace]
            code, lines = run(exe, args)
            result = json.loads(lines[-1]) if lines else {}
            passed = code == 0 and result.get("correct") is True
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} {workload} trace={trace} "
                  f"seed={SELFTEST_SEED} attempted={result.get('attempted')} "
                  f"failed={result.get('failed')}")
            if not passed:
                print("\n".join(lines), file=sys.stderr)
    return 0 if ok else 1


def main(argv):
    exe = build()
    if exe is None:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    if argv == ["--selftest"]:
        return selftest(exe)
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
        worst = 0
        for workload in WORKLOADS:
            args = list(argv)
            args[args.index("--workload") + 1] = workload
            code, lines = run(exe, args)
            print(f"== {workload} (exit {code})")
            print("\n".join(lines))
            worst = max(worst, code)
        return worst
    code, lines = run(exe, argv)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
