#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload search-batch --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload front-open --spread 10 --seconds 12

The first form builds the `perfbench` package and the `front-server` binary
(`CARGO_TARGET_DIR`, default `.bench_build`), caches the seeded inputs under
`.perfbench/`, runs one measurement and forwards its output; the last line is
the JSON result. `--spread N` runs the workload N times with seeds
`seed .. seed+N-1` and prints each metric's median, quartiles and spread
(interquartile range over median).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_group(argv, timeout, **kwargs):
    """Runs argv in its own process group; kills the whole group when done."""
    proc = subprocess.Popen(argv, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{' '.join(argv[:3])} exceeded {timeout} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def build(env):
    for manifest, extra in (
        (os.path.join(HERE, "Cargo.toml"), []),
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "p2h-front", "--bin", "front-server"]),
    ):
        if not os.path.isfile(manifest):
            fail(f"missing {manifest}: run from a full source checkout")
        code, _ = run_group(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra,
            870,
            env=env,
            stdout=sys.stderr,
        )
        if code != 0:
            fail(f"build of {manifest} failed")


def provenance(env):
    def text(argv):
        try:
            out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
            return out.stdout.strip() if out.returncode == 0 else "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    return text(["rustc", "--version"]), text(["git", "rev-parse", "HEAD"])


def measure(args, env, seed, binary, server, rustc, rev, capture):
    work = os.path.join(ROOT, ".perfbench")
    common = ["--workload", args.workload, "--seed", str(seed), "--work", work]
    code, _ = run_group([binary, "prepare"] + common, RUN_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        fail(f"preparing inputs failed (exit {code})")
    argv = [binary, "run"] + common + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--front-server", server, "--rustc", rustc, "--rev", rev,
    ]
    code, out = run_group(argv, RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE if capture else None, text=True)
    if code != 0:
        fail(f"run failed (exit {code})")
    return out


def spread(args, env, binary, server, rustc, rev):
    values = {}
    for seed in range(args.seed, args.seed + args.spread):
        out = measure(args, env, seed, binary, server, rustc, rev, capture=True)
        result = json.loads(out.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    print(f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:<32} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>8.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0, help="run N seeds and report the spread")
    args = parser.parse_args()

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    build(env)
    target = os.path.join(env["CARGO_TARGET_DIR"], "release")
    binary = os.path.join(target, "perfbench")
    server = os.path.join(target, "front-server")
    rustc, rev = provenance(env)
    if args.spread > 0:
        spread(args, env, binary, server, rustc, rev)
    else:
        measure(args, env, args.seed, binary, server, rustc, rev, capture=False)


if __name__ == "__main__":
    main()
