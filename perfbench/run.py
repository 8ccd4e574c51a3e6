#!/usr/bin/env python3
"""Build and run the fpn-repro benchmark.

One run, as the command in BENCHMARK.json is called:

    python3 perfbench/run.py --workload ber_hyperbolic --seed 1 --seconds 50 --trace 0

builds `perfbench/` (a Cargo package of its own) in release mode, runs one
workload, checks its outputs, prints a run-header line and then, as the last
line of standard output, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json, `--trace 1` the per-layer metrics of a separate traced run
that times each call into the library and sends the open-loop latency curve.

Steadiness mode runs each workload N times with consecutive seeds and prints,
per metric, the median, the quartiles and the quartile spread as a share of
the median, against a third of the metric's bound:

    python3 perfbench/run.py --steadiness 10 [--workload NAME ...] [--first-seed 1]
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run must end within 180 s; leave room for start-up and output.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850
# Standard deviations allowed between a run's logical failure count and
# the reference logical error rate of spec.json.
LER_SIGMAS = 5.0
# Header fields that must agree between runs before their figures are
# compared: the same host shape, toolchain, sources and fixture.
COMPARABLE = ("nproc", "rustc", "source_sha256", "fixture")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(deadline):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"cargo build failed with exit code {proc.returncode}")
    return os.path.join(target_dir(), "release", "perfbench")


def source_digest():
    """SHA-256 over the sources the benchmark builds, so runs of different
    code can be told apart even where there is no git metadata."""
    digest = hashlib.sha256()
    paths = []
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths += [os.path.join(dirpath, f) for f in filenames
                      if f.endswith((".rs", ".toml"))]
    paths += [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for path in sorted(paths):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def rustc_version():
    proc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, check=False)
    return proc.stdout.strip()


def load_json(path):
    with open(path) as f:
        return json.load(f)


def ler_band(reference, shots):
    """Failure counts a run of `shots` shots may show: the binomial spread
    of the run plus that of the reference estimate, LER_SIGMAS wide."""
    rate, ref_shots = reference["rate"], reference["shots"]
    var = shots * rate * (1 - rate) * (1 + shots / ref_shots)
    half = LER_SIGMAS * math.sqrt(var) + 1
    return max(0.0, shots * rate - half), shots * rate + half


def run_once(binary, workload, seed, seconds, trace, deadline):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=False)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with code {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    problems = [name for name, ok in raw["checks"].items() if ok is False]
    reference = spec["workloads"][workload]["ler"]
    low, high = ler_band(reference, raw["ber_shots"])
    if not low <= raw["ber_failures"] <= high:
        problems.append(f"ler: {raw['ber_failures']} failures in {raw['ber_shots']} shots, "
                        f"band [{low:.1f}, {high:.1f}]")
    if trace:
        for label in spec["serve_rates_without_failures"]:
            if raw["checks"][f"serve_failed.{label}"] > 0:
                problems.append(f"serve_failed.{label}: {raw['checks'][f'serve_failed.{label}']}")
        limits = spec["workloads"][workload].get("traced_limits", {})
        for name, (lo, hi) in limits.items():
            value = raw["metrics"][name]
            if value < lo or (hi is not None and value > hi):
                problems.append(f"{name}: {value:.6g} outside [{lo}, {hi}]")

    wanted = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in raw["metrics"]]
    if missing:
        raise RuntimeError(f"metrics missing from the run: {missing}")
    metrics = {m["name"]: {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    header = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": raw["nproc"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "rustc": rustc_version(),
        "fixture": {"detectors": raw["detectors"], "mechanisms": raw["mechanisms"]},
        "ber": {"shots": raw["ber_shots"], "failures": raw["ber_failures"]},
        "checks": raw["checks"],
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    return header, result


def steadiness(args, binary):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in names:
        values, shots, failures, bad, hosts = {}, 0, 0, 0, set()
        for seed in range(args.first_seed, args.first_seed + args.steadiness):
            header, result = run_once(binary, workload, seed, seconds, args.trace,
                                      time.monotonic() + RUN_LIMIT_S)
            hosts.add(json.dumps([header[k] for k in COMPARABLE]))
            if len(hosts) > 1:
                raise RuntimeError(f"runs of {workload} differ in {COMPARABLE}: {sorted(hosts)}")
            shots += header["ber"]["shots"]
            failures += header["ber"]["failures"]
            bad += (not result["correct"]) + result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {args.steadiness} runs, seeds {args.first_seed}.., "
              f"incorrect or failed {bad}, LER {failures}/{shots}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = "" if bound is None else ("ok" if spread <= bound / 3 else "WIDE")
            print(f"{name:36s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:7.3f}  bound/3 {bound / 3 if bound else 0:6.3f} {verdict}")
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in vals))
        sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0,
                        help="run each workload this many times and print spreads")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--verbose", action="store_true", help="steadiness: print every value")
    args = parser.parse_args()
    start = time.monotonic()
    try:
        binary = build(start + BUILD_LIMIT_S)
        if args.steadiness:
            steadiness(args, binary)
            return 0
        if not args.workload or len(args.workload) != 1 or args.seconds is None:
            raise RuntimeError("a run needs one --workload and --seconds")
        header, result = run_once(binary, args.workload[0], args.seed, args.seconds,
                                  args.trace, time.monotonic() + RUN_LIMIT_S)
    except (RuntimeError, OSError, KeyError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps({"header": header}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
