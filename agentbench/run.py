#!/usr/bin/env python3
"""The agentsim benchmark: one workload, one seed, one JSON line.

    python3 agentbench/run.py --workload agent_react --seed 2026 \\
        --seconds 22 --trace 0
    python3 agentbench/run.py --selftest

It builds the simulator from ../src (once per checkout, under
.bench_build/agentbench), runs the workload in its own single-threaded
process, checks the simulated outputs, and prints as the last line of
stdout {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics; --trace 1 reports the per-layer metrics, with
the host split taken from a separate gprof build of the same sources.
agentbench/README.md explains the workloads and every metric.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import gprof_layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "agentbench")
EXE = "agentbench_workload"
PROBE = "agentbench_probe"

WORKLOADS = ("agent_react", "chat_short", "kv_pressure", "cluster_observed")
DEFAULT_SEED = 2026
# Held out for confirming a claimed gain; not used while tuning.
HELDOUT_SEED = 4099

# Set-ups timed per run: the measuring process plus set-up-only ones.
SETUPS = 5
# Sub-inputs run by the gprof process and by the bare twin: fixed, so
# call counts repeat exactly.
TRACED_CALLS = 2
# The build the end-to-end numbers come from, and its gprof twin:
# cmake flags and targets.
VARIANTS = {
    "release": ([], [EXE, PROBE]),
    "gprof": (["-DCMAKE_CXX_FLAGS=-pg", "-DCMAKE_EXE_LINKER_FLAGS=-pg -static"],
              [EXE]),
}

SIM_UNITS = {"sim_p50_s": "s", "sim_p95_s": "s", "sim_throughput_qps": "1/s",
             "sim_goodput_frac": "frac", "sim_gpu_s_per_req": "s",
             "sim_energy_wh_per_req": "Wh"}


class BenchError(Exception):
    pass


def build():
    """Configure and build both variants; a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"agentsim sources not found under {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for variant, (flags, targets) in VARIANTS.items():
            out = os.path.join(BUILD, variant)
            steps = [["cmake", "--build", out, "--target", *targets,
                      "-j", jobs]]
            if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
                steps.insert(0, ["cmake", "-S", HERE, "-B", out, *generator,
                                 "-DCMAKE_BUILD_TYPE=Release", *flags])
            for cmd in steps:
                # Build logs go to stderr: stdout carries only results.
                if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                    raise BenchError(f"build failed: {' '.join(cmd)}")


def workload_process(variant, args, cwd):
    """Run the workload binary; its last stdout line is its JSON."""
    env = dict(os.environ, AGENTSIM_LOG_LEVEL="quiet")
    proc = subprocess.run([os.path.join(BUILD, variant, EXE), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{EXE} {' '.join(args)} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checks:
    """Named pass/fail results; any failure fails the run."""

    def __init__(self):
        self.failed = []

    def add(self, name, ok):
        if not ok:
            self.failed.append(name)

    def process(self, out, tag):
        for name, ok in out["checks"].items():
            self.add(f"{tag}:{name}", ok)

    def same_digests(self, full, part, tag):
        """A process that ran the first sub-inputs must reproduce their
        simulated outputs exactly."""
        n = len(part["digests"])
        self.add(f"{tag}:identical_sim_outputs",
                 n > 0 and part["digests"] == full["digests"][:n])


def metric(value, unit):
    return {"value": value, "unit": unit}


def base_args(args, run_dir, requests):
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--incident-dir", os.path.join(run_dir, "incidents")]
    if requests:
        base += ["--requests", str(requests)]
    return base


def end_to_end(args, run_dir, checks, requests):
    """The 9 end-to-end metrics from one measuring process plus extra
    set-up-only processes. Host times are scaled by the speed probe."""
    base = base_args(args, run_dir, requests) + [
        "--probe", os.path.join(BUILD, "release", PROBE)]
    setups = [workload_process("release", base + ["--setup-only"],
                               run_dir)["setup_ref_s"]
              for _ in range(SETUPS - 1)]
    out = workload_process("release", base + ["--seconds",
                                              str(args.seconds)], run_dir)
    checks.process(out, "run")
    setups.append(out["setup_ref_s"])
    metrics = {
        "host_wall_s": metric(out["host_wall_ref_s"], "s"),
        "host_peak_rss_mb": metric(out["peak_rss_mb"], "MiB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    for name, unit in SIM_UNITS.items():
        metrics[name] = metric(out["sim"][name], unit)
    for name, m in metrics.items():
        checks.add(f"{name}_positive",
                   math.isfinite(m["value"]) and m["value"] > 0)
    return out, metrics


COUNT_UNITS = {
    "sim.events": "count", "kv.lookup_tokens": "tokens",
    "kv.hit_tokens": "tokens", "kv.prefix_hit_rate": "frac",
    "kv.evictions": "blocks", "kv.allocated_blocks": "blocks",
    "kv.tier_demotions": "blocks", "kv.tier_restored_tokens": "tokens",
    "serving.steps": "count", "serving.tokens_per_step": "tokens",
    "serving.preemptions": "count", "serving.prefill_tokens": "tokens",
    "serving.decode_tokens": "tokens", "serving.wasted_gpu_s": "s",
    "serving.saved_prefill_s": "s", "llm.gpu_busy_s": "s",
    "llm.prefill_s": "s", "llm.decode_s": "s", "llm.flops": "flop",
    "agents.solved_frac": "frac", "core.retries": "count",
    "core.failovers": "count", "core.resumes": "count",
    "core.lost_gpu_s": "s", "telemetry.trace_events": "count",
    "telemetry.spans": "count", "telemetry.timeseries_points": "count",
    "telemetry.incident_bundles": "count",
}
BLAME = [f"blame.{stat}.{cat}_share" for stat in ("mean", "p95")
         for cat in ("queue", "prefill", "decode", "tool")]


def per_layer(args, run_dir, checks, requests):
    """Per-layer metrics: the untraced process for spans and simulated
    counts, the bare twin of cluster_observed, and the gprof process
    for the host split."""
    base = base_args(args, run_dir, requests)
    out = workload_process("release", base + ["--seconds",
                                              str(args.seconds)], run_dir)
    checks.process(out, "run")
    wall = out["host_wall_s"]
    first_walls = out["wall_by_input"][:TRACED_CALLS]

    observe = 0.0
    if args.workload == "cluster_observed":
        twin = workload_process(
            "release", base + ["--bare", "--calls", str(TRACED_CALLS)],
            run_dir)
        checks.process(twin, "twin")
        checks.same_digests(out, twin, "twin")
        observe = statistics.median(
            a - b for a, b in zip(first_walls, twin["wall_by_input"]))

    gmon_dir = os.path.join(run_dir, "gprof")
    os.makedirs(gmon_dir)
    traced = workload_process(
        "gprof", base + ["--calls", str(TRACED_CALLS), "--warmup", "0"],
        gmon_dir)
    checks.process(traced, "traced")
    checks.same_digests(out, traced, "traced")
    text = subprocess.run(
        ["gprof", "-b", "-p", "-q", os.path.join(BUILD, "gprof", EXE),
         os.path.join(gmon_dir, "gmon.out")],
        capture_output=True, text=True, check=True).stdout
    prof = gprof_layers.profile(text)
    # A very short run can end before the first 10 ms profiling tick.
    total = prof["total_s"] or 1.0

    m = {}
    for layer, seconds in prof["self_s"].items():
        m[f"host_self_s.{layer}"] = metric(seconds / total * wall, "s")
        m[f"host_share.{layer}"] = metric(seconds / total, "frac")
    for name, seconds in prof["incl_s"].items():
        m[f"host_incl_s.{name}"] = metric(seconds / total * wall, "s")
    for name, count in prof["calls"].items():
        m[f"calls.{name}"] = metric(count / TRACED_CALLS, "count")
    m["trace_overhead_frac"] = metric(
        statistics.median(traced["wall_by_input"]) /
        statistics.median(first_walls) - 1.0, "frac")
    m["host_s.core.run"] = metric(wall, "s")
    m["host_s.setup"] = metric(out["setup_s"], "s")
    m["host_s.telemetry.export"] = metric(out["export_s"], "s")
    m["host_s.telemetry.observe"] = metric(observe, "s")
    counts = out["counts"]
    for name, unit in COUNT_UNITS.items():
        m[name] = metric(counts[name], unit)
    for name in BLAME:
        m[name] = metric(counts[name], "frac")
    m["sim.events_per_host_s"] = metric(
        counts["sim.events"] / sum(out["wall_by_input"]), "1/s")
    return out, m


def run(args, requests=0):
    """One run; requests > 0 overrides the workload's request count
    (the self-test's short runs)."""
    build()
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    checks = Checks()
    try:
        measure = per_layer if args.trace else end_to_end
        out, metrics = measure(args, run_dir, checks, requests)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    correct = not checks.failed
    for name in checks.failed:
        print(f"check failed: {name}", file=sys.stderr)
    offered = out["offered"]
    return {
        "correct": correct,
        "attempted": offered,
        "failed": out["failed"] if correct else offered,
        "metrics": metrics,
    }


def selftest():
    """Short runs of every workload in both modes: every metric in
    BENCHMARK.json is printed with a unit, every check passes, and the
    tier and telemetry counters are non-zero only where they apply."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    small = {"agent_react": 80, "chat_short": 400, "kv_pressure": 80,
             "cluster_observed": 300}
    only_on = {
        "kv_pressure": ("kv.tier_demotions", "kv.tier_restored_tokens"),
        "cluster_observed": ("telemetry.trace_events", "telemetry.spans",
                             "telemetry.timeseries_points",
                             "telemetry.incident_bundles",
                             "host_s.telemetry.export", "core.resumes"),
    }
    # Sampled times can read 0 in a short run, so they are only
    # required to be 0 where their layer does no work.
    zero_elsewhere = {
        "kv_pressure": ("host_incl_s.kv.spill",),
        "cluster_observed": ("host_incl_s.telemetry.trace",
                             "host_incl_s.telemetry.spans"),
    }
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=workload, seed=DEFAULT_SEED,
                                      seconds=0.5, trace=trace)
            result = run(args, small[workload])
            where = f"{workload} --trace {trace}"
            if not result["correct"]:
                problems.append(f"{where}: a correctness check failed")
            got = result["metrics"]
            for want in spec[key]:
                m = got.get(want["name"])
                if m is None or m.get("unit") != want["unit"]:
                    problems.append(f"{where}: {want['name']} missing or "
                                    f"without unit {want['unit']}")
            if set(got) != {want["name"] for want in spec[key]}:
                problems.append(f"{where}: metrics not in BENCHMARK.json: "
                                f"{sorted(set(got) - {w['name'] for w in spec[key]})}")
            print(f"selftest: {where}: {len(got)} metrics", file=sys.stderr)
            if not trace:
                continue
            for owner, names in only_on.items():
                for name in names:
                    nonzero = got[name]["value"] != 0
                    if nonzero != (workload == owner):
                        problems.append(f"{where}: {name} = "
                                        f"{got[name]['value']}")
            for owner, names in zero_elsewhere.items():
                for name in names:
                    if workload != owner and got[name]["value"] != 0:
                        problems.append(f"{where}: {name} = "
                                        f"{got[name]['value']}")
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            build()
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print(f"agentbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
