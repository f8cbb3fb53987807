#!/usr/bin/env python3
"""End-to-end benchmark of the TurboFuzz reproduction (perfbench/README.md).

    python3 perfbench/run.py --workload campaign|fleet|bughunt \\
        --seed N --seconds S --trace 0|1

Builds perfbench_runner from source (into $CARGO_TARGET_DIR, default
.bench_build), runs one workload for S seconds of host time, checks its
outputs and prints a report. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The exit code is 0 when the
correctness gate passes, 1 when it fails and 2 when the benchmark
cannot run.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("campaign", "fleet", "bughunt")
RUNNER_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


# --- statistics --------------------------------------------------------

def percentile(values, p):
    """Linear-interpolated percentile p (0..100) of values."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (p, value), or None when there are too few samples.
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:  # 100 - 99.9 < 0.1
            return p, percentile(values, p)
    return None


def ratio(num, den):
    """num / den, or 0.0 when nothing was attempted (den == 0)."""
    return num / den if den else 0.0


def summarize(values):
    """Median, quartiles, tail percentile and sample count."""
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "tail": tail_percentile(values)}


# --- metric definitions ------------------------------------------------

def wall_s(rep):
    return rep["wall_ns"] * 1e-9


def untraced(raw):
    return [r for r in raw["reps"] if not r["traced"]]


def rate(rep, counter):
    """A simulated counter per host-second of one repetition."""
    return rep["counters"][counter] / wall_s(rep)


def over_phase(reps, counter):
    """A simulated counter per host-second over the measured phase:
    summed over the repetitions, divided by their summed wall time."""
    return (sum(r["counters"][counter] for r in reps) /
            sum(wall_s(r) for r in reps))


def bug_host_s(rep):
    return ratio(wall_s(rep), rep["counters"].get("bugs_detected", 0))


def end_to_end(raw):
    """name -> (value, per-repetition samples), untraced repetitions."""
    reps = untraced(raw)
    setup = [ns * 1e-9 for ns in raw["setup_ns"]]
    return {
        # DUT commits per host-second over the measured phase (set-up,
        # checking and, for bughunt, triage included).
        "commits_per_s": (over_phase(reps, "commits"),
                          [rate(r, "commits") for r in reps]),
        # One set-up of the workload (every constructor it runs).
        "setup_s": (statistics.median(setup), setup),
        "peak_rss_mb": (raw["peak_rss_mb"], [raw["peak_rss_mb"]]),
    }


def workload_metrics(workload, raw):
    """Workload-specific end-to-end metrics, printed in the report:
    name -> (unit, value, per-repetition samples).

    BENCHMARK.json's end-to-end metrics must hold on every workload;
    these hold on some only, or (coverage on bughunt) vary with the
    seed far more than any bound would allow.
    """
    reps = untraced(raw)

    def counter(name):
        return [r["counters"][name] for r in reps]

    def median_of(unit, samples):
        return unit, statistics.median(samples), samples

    if workload == "bughunt":
        return {
            "bugs_detected": median_of("count", counter("bugs_detected")),
            "detect_sim_s": median_of("sim_s", counter("detect_sim_s")),
            # Host time of the whole hunt (misses, confirmation and
            # minimization included) per detected bug.
            "bug_host_s": ("s", ratio(sum(wall_s(r) for r in reps),
                                      sum(counter("bugs_detected"))),
                           [bug_host_s(r) for r in reps]),
        }
    # Mux coverage at the simulated budget (merged for fleet), and
    # per host-second over the measured phase.
    metrics = {
        "coverage": median_of("count", counter("coverage")),
        "coverage_per_s": ("1/s", over_phase(reps, "coverage"),
                           [rate(r, "coverage") for r in reps]),
    }
    if workload == "fleet":
        # Snapshot::tryLoadFile + restoreCheckpoint of the last
        # periodic checkpoint.
        metrics["resume_s"] = median_of(
            "s", [r["timings"]["resume_ns"] * 1e-9 for r in reps])
    return metrics


def per_layer_values(workload, raw):
    """Per-layer values: medians over the traced repetitions."""
    traced = [r for r in raw["reps"] if r["traced"]]
    iteration_us = [u for r in traced for u in r["iteration_us"]]

    def med(fn):
        return statistics.median(fn(r) for r in traced)

    def layer(name):
        return lambda r: r["layers"].get(name, 0)

    def secs(name):
        return lambda r: layer(name)(r) * 1e-9

    fleet = workload == "fleet"
    # The fleet builds its generators internally, so its fuzzer time
    # comes from the registry (summed over worker threads).
    gen_key = "campaign.generate_ns" if fleet else "fuzzer.generate_ns"
    stages = ("dut", "ref", "diff", "sweep")

    def harness_self_s(r):
        if fleet:
            return 0.0
        inner = (layer("fuzzer.generate_ns")(r) +
                 layer("fuzzer.feedback_ns")(r) +
                 sum(layer(f"engine.batch.{s}_ns")(r) for s in stages))
        return sum(r["iteration_us"]) * 1e-6 - inner * 1e-9

    v = {
        "fuzzer.generate_s": (med(secs(gen_key)), "s"),
        "fuzzer.feedback_s": (med(secs("fuzzer.feedback_ns")), "s"),
        "harness.setup_s": (med(lambda r: r["setup_ns"] * 1e-9), "s"),
        "harness.self_s": (med(harness_self_s), "s"),
        "coverage.points": (med(lambda r: r["counters"]["coverage"]),
                            "count"),
        "coverage.points_per_s": (med(lambda r: rate(r, "coverage")),
                                  "1/s"),
        "harness.iterations": (med(lambda r: r["counters"]["iterations"]),
                               "count"),
        "harness.iteration_us.p50": (
            percentile(iteration_us, 50) if iteration_us else 0.0, "us"),
        "harness.iteration_us.p99": (
            percentile(iteration_us, 99) if iteration_us else 0.0, "us"),
    }
    for s in stages:
        v[f"engine.{s}_s"] = (med(secs(f"engine.batch.{s}_ns")), "s")
    v["engine.rewinds"] = (med(layer("engine.rewinds")), "count")
    v["core.decode_hit_ratio"] = (med(lambda r: ratio(
        layer("engine.decode_cache.hit")(r),
        layer("engine.decode_cache.hit")(r) +
        layer("engine.decode_cache.miss")(r))), "ratio")
    v["core.superblock_side_exit_ratio"] = (med(lambda r: ratio(
        layer("engine.superblock.side_exit")(r),
        layer("engine.superblock.entered")(r))), "ratio")

    def timing(name, scale=1.0):
        return lambda r: r["timings"].get(name, 0) * scale

    def counter(name):
        return lambda r: r["counters"].get(name, 0)

    run_s = timing("run_ns", 1e-9)
    v["fleet.epoch_s"] = (med(lambda r: (run_s(r) - secs(
        "fleet.barrier_ns")(r)) if fleet else 0.0), "s")
    v["fleet.barrier_s"] = (med(secs("fleet.barrier_ns")), "s")
    for phase in ("exchange", "merge", "reduce", "io_overlap"):
        v[f"fleet.{phase}_s"] = (
            med(secs(f"fleet.barrier.{phase}_ns")), "s")
    # Process CPU over run() divided by the wall the workers had.
    v["fleet.cpu_util"] = (med(lambda r: ratio(
        timing("cpu_s")(r), run_s(r) * timing("workers")(r))), "ratio")
    v["fleet.seeds_exchanged"] = (med(counter("seeds_exchanged")),
                                  "count")
    v["fleet.admit_ratio"] = (med(lambda r: ratio(
        counter("seeds_admitted")(r), counter("seeds_exchanged")(r))),
        "ratio")
    v["fleet.checkpoints"] = (med(layer("fleet.checkpoints")), "count")
    v["fleet.resume_s"] = (med(timing("resume_ns", 1e-9)), "s")
    v["soc.checkpoint_bytes"] = (med(counter("checkpoint_bytes")), "B")

    v["triage.minimize_s"] = (med(secs("triage.minimize_ns")), "s")
    v["triage.replays"] = (med(counter("triage_replays")), "count")
    v["triage.confirm_ratio"] = (med(lambda r: ratio(
        counter("bugs_confirmed")(r), counter("bugs_detected")(r))),
        "ratio")
    v["bughunt.bugs_detected"] = (med(counter("bugs_detected")), "count")
    v["bughunt.detect_sim_s"] = (med(counter("detect_sim_s")), "sim_s")
    v["bughunt.bug_host_s"] = (med(bug_host_s), "s")

    # Wall time of a traced repetition not inside any call the
    # benchmark timed, and the traced/untraced wall-time ratio - 1.
    v["bench.unattributed_s"] = (
        med(lambda r: (r["wall_ns"] - r["spanned_ns"]) * 1e-9), "s")
    v["telemetry.trace_overhead"] = (
        statistics.median(wall_s(r) for r in traced) /
        statistics.median(wall_s(r) for r in untraced(raw)) - 1.0,
        "ratio")
    return v


SELF_TIME_LAYERS = (
    "harness.setup_s", "harness.self_s", "fuzzer.generate_s",
    "fuzzer.feedback_s", "engine.dut_s", "engine.ref_s",
    "engine.diff_s", "engine.sweep_s", "fleet.barrier_s",
    "triage.minimize_s", "bench.unattributed_s")


# --- correctness gate --------------------------------------------------

def gate(workload, raw):
    """Returns (correct, attempted, failed, problems)."""
    reps = raw["reps"]
    problems = []
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    held = raw["held_out"]
    if held:
        attempted += held["attempted"]
        failed += held["failed"]
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    first = reps[0]["counters"]
    for i, r in enumerate(reps[1:], start=1):
        if r["counters"] != first:
            kind = "traced" if r["traced"] else "untraced"
            problems.append(f"simulated counters of repetition {i} "
                            f"({kind}) differ from repetition 0")
    for counters in [first] + ([held["counters"]] if held else []):
        if counters["iterations"] <= 0 or counters["coverage"] <= 0:
            problems.append("a repetition ran no iterations or reached "
                            "no coverage")
    if workload != "bughunt" and first.get("mismatches", 0):
        problems.append("DUT/REF mismatch on the clean core")
    return not problems, attempted, failed, problems


# --- build and run -----------------------------------------------------

def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build_runner():
    """Configure (once) and build perfbench_runner; returns its path.

    A build tree configured for another checkout fails to build; it is
    removed and configured afresh once.
    """
    out = build_dir()
    log_path = out / "perfbench_build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    build = ["cmake", "--build", str(out), "--target",
             "perfbench_runner", "-j", jobs]

    def run_steps(steps):
        out.mkdir(parents=True, exist_ok=True)
        with open(log_path, "w") as log:
            return all(subprocess.run(cmd, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      cwd=ROOT).returncode == 0
                       for cmd in steps)

    if (out / "CMakeCache.txt").exists() and run_steps([build]):
        return out / "perfbench_runner"
    shutil.rmtree(out, ignore_errors=True)
    if not run_steps([configure, build]):
        sys.stderr.write(log_path.read_text(errors="replace")[-4000:])
        raise SystemExit(f"perfbench: build failed; log in {log_path}")
    return out / "perfbench_runner"


def source_identity():
    """git sha when available, plus a digest of src/ (the checkout the
    benchmark runs in need not be a git repository)."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return sha or "none", digest.hexdigest()[:16]


def run_workload(runner, args, run_dir):
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    cmd = [str(runner), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--run-dir={run_dir}",
           f"--budget-scale={args.budget_scale}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUNNER_TIMEOUT_S,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: runner exceeded "
                         f"{RUNNER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"perfbench: runner exited with "
                         f"{proc.returncode}")
    return json.loads((run_dir / "raw.json").read_text())


# --- report ------------------------------------------------------------

def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


END_TO_END_UNITS = {"commits_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def fmt(x):
    return f"{x:.6g}"


def describe(name, unit, value, samples):
    s = summarize(samples)
    line = (f"  {name:<16} {fmt(value):>12} {unit:<6} samples: "
            f"median={fmt(s['median'])} q1={fmt(s['q1'])} "
            f"q3={fmt(s['q3'])}")
    if s["tail"]:
        p, v = s["tail"]
        line += f" p{p:g}={fmt(v)}"
    return line + f" n={s['n']}"


def report(args, raw, identity, load, e2e, extra, layers):
    meta = raw["meta"]
    print(f"perfbench {args.workload}  seed={args.seed} "
          f"held-out seed={meta['held_out_seed']}  trace={args.trace}")
    print(f"  nproc={meta['nproc']}  compiler={meta['compiler']}  "
          f"build={meta['build_type']}  git={identity[0]}  "
          f"src={identity[1]}  load avg {load[0]:.2f} -> {load[1]:.2f}")
    if not meta["optimized"]:
        print("  WARNING: UNOPTIMIZED BUILD - host times are "
              "meaningless")
    print("end-to-end (untraced repetitions; value, then the "
          "distribution of its samples):")
    for name, (value, samples) in e2e.items():
        print(describe(name, END_TO_END_UNITS[name], value, samples))
    for name, (unit, value, samples) in extra.items():
        print(describe(name, unit, value, samples))
    if raw["held_out"]:
        held = raw["held_out"]["counters"]
        print("held-out seed simulated counters: " + ", ".join(
            f"{k}={v}" for k, v in held.items() if k != "bugs"))
    if layers:
        traced = [r for r in raw["reps"] if r["traced"]]
        wall = statistics.median(wall_s(r) for r in traced)
        print(f"per-layer (median of {len(traced)} traced "
              f"repetitions; self time as share of {fmt(wall)} s wall;"
              f" fleet layer times are summed over worker threads):")
        for name, (value, unit) in layers.items():
            share = (f"{100.0 * value / wall:6.1f}%"
                     if name in SELF_TIME_LAYERS else "")
            print(f"  {name:<34} {fmt(value):>14} {unit:<6} {share}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget-scale", type=float, default=1.0,
                    help="scale every simulated budget (tests use a "
                         "tiny one); results at other scales are not "
                         "comparable")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or args.budget_scale <= 0:
        ap.error("--seed and --seconds must be >= 0, --budget-scale > 0")
    if not (ROOT / "src" / "harness" / "campaign.hh").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    runner = build_runner()
    identity = source_identity()
    load_start = os.getloadavg()[0]
    run_dir = (ROOT / ".bench_runs" /
               f"{args.workload}-seed{args.seed}-trace{args.trace}")
    raw = run_workload(runner, args, run_dir)
    load = (load_start, os.getloadavg()[0])

    if not raw["meta"]["optimized"]:
        print("perfbench: WARNING: the runner was built without "
              "optimization", file=sys.stderr)
    e2e = end_to_end(raw)
    extra = workload_metrics(args.workload, raw)
    layers = per_layer_values(args.workload, raw) if args.trace else {}
    correct, attempted, failed, problems = gate(args.workload, raw)

    if args.trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, (v, _) in e2e.items()}
        for name, m in metrics.items():
            if not m["value"] > 0:
                problems.append(f"{name} is not positive")
                correct = False
    e2e_spec, layer_spec = declared_metrics()
    emitted = {k: m["unit"] for k, m in metrics.items()}
    if emitted != (layer_spec if args.trace else e2e_spec):
        raise SystemExit("perfbench: emitted metrics do not match "
                         "BENCHMARK.json")

    report(args, raw, identity, load, e2e, extra, layers)
    print(f"run directory: {run_dir.relative_to(ROOT)}")
    print("correctness gate: " + ("pass" if correct else
                                  "FAIL - " + "; ".join(problems)))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
