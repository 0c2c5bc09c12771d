#!/usr/bin/env python3
"""Benchmark of the cluster simulator: host time, throughput and memory
of batch simulation runs, plus per-layer timings and counts.

Usage, from the repository root:

    python3 perfbench/run.py --workload coop_mesh64 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1

The script builds the `perfbench` crate next to it (release profile,
offline; `CARGO_TARGET_DIR` defaults to `.bench_build` at the root) and
launches its binary once per sample, so every sample is a fresh process
and one sample's memory never leaks into another's numbers. It prints a
table of every metric with its unit and, as the last line of stdout, one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`
(end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`).
See README.md in this directory for the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("coop_mesh64", "coop_mesh256", "static_two_tier", "lossy_delayed_mesh64")
# The workload whose report must not depend on its shard count.
SHARDED = "coop_mesh64"
# Measurement rounds run even when --seconds has already elapsed.
MIN_ROUNDS = 3
# One sample must finish well inside the benchmark's own time limit.
JOB_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "req_per_s": "1/s", "peak_rss_mb": "MiB"}
# The (mode, field) of the samples each end-to-end median is taken over.
SAMPLED = {"wall_s": ("full", "wall_s"), "setup_s": ("setup", "wall_s"),
           "peak_rss_mb": ("full", "vmhwm_mb")}
PER_LAYER = {
    "workload.structure_build_ms": "ms",
    "predictor.oracle_build_ms": "ms",
    "cluster.validate_ms": "ms",
    "sched.op_ns": "ns",
    "queueing.ps_job_ns": "ns",
    "coop.resolve_ns": "ns",
    "coop.refresh_ms": "ms",
    "cachesim.probe_ns": "ns",
    "faults.loss_roll_ns": "ns",
    "cluster.events": "count",
    "cluster.ns_per_event": "ns",
    "cluster.drive_s": "s",
    "cluster.trace_overhead": "ratio",
    "shard.window_s": "s",
    "shard.barrier_s": "s",
    "shard.barrier_share": "ratio",
    "shard.windows": "count",
    "shard.effects_sent": "count",
    "shard.event_imbalance": "ratio",
    "sched.heap_depth_hwm": "count",
    "predictor.calls": "count",
    "prefetch.issued": "count",
    "prefetch.useful_ratio": "ratio",
    "cachesim.hit_ratio": "ratio",
    "cachesim.coalesced_ratio": "ratio",
    "cachesim.origin_fetches": "count",
    "coop.peer_fetches": "count",
    "coop.false_hit_ratio": "ratio",
    "coop.digest_bytes": "bytes",
    "faults.retries": "count",
    "faults.timeouts": "count",
    "faults.failed_fetches": "count",
    "faults.unavailability": "ratio",
    "queueing.max_link_rho": "ratio",
    "net.bytes_per_request": "units/req",
    "sim.mean_access_s": "s",
    "sim.report_digest": "hash",
    "trace.share.queue": "ratio",
    "trace.share.service": "ratio",
    "trace.share.prop": "ratio",
    "trace.share.wait": "ratio",
    "trace.share.timeout": "ratio",
    "trace.share.backoff": "ratio",
    "trace.share.redirect": "ratio",
    "model_a.rho_rel_err": "ratio",
    "model_a.bytes_rel_err": "ratio",
}


def build():
    """Builds the measurement binary and returns its path. Raises when the
    simulator's sources are not there to build from."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    manifest = os.path.join(HERE, "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
        check=True,
        timeout=840,
    )
    return os.path.join(target, "release", "perfbench")


class Run:
    """The samples of one workload at one seed, and the checks they pass."""

    def __init__(self, binary, workload, seed):
        self.binary, self.workload, self.seed = binary, workload, seed
        self.samples = {"full": [], "setup": [], "traced": []}
        self.attempted = 0
        self.failures = []
        self.identity = {}

    def job(self, *args):
        """Runs one binary job; returns its JSON, or None when it failed."""
        self.attempted += 1
        cmd = [self.binary, *args, "--workload", self.workload, "--seed", str(self.seed)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.failures.append(f"{' '.join(args)}: timed out")
            return None
        if proc.returncode != 0:
            self.failures.append(f"{' '.join(args)}: exit {proc.returncode}: {proc.stderr.strip()}")
            return None
        return json.loads(proc.stdout)

    def sample(self, mode):
        """One run in a fresh process. It counts as failed when its report
        fails the gate or differs from an earlier report of the same
        config and seed."""
        out = self.job("run", "--mode", mode)
        if out is None:
            return None
        # Traced and one-shard runs must reproduce the full run's report.
        same_as = "setup" if mode == "setup" else "full"
        expected = self.identity.setdefault(same_as, out["identity"])
        if not out["ok"]:
            self.failures.append(f"{mode}: {out['why']}")
        elif out["identity"] != expected:
            self.failures.append(f"{mode}: report differs from the {same_as} run of the same seed")
        else:
            return out
        return None

    def measure(self, seconds, traced):
        """Runs rounds of fresh-process samples, one per mode, for
        `seconds` (at least MIN_ROUNDS rounds; no round starts that would
        end past the deadline). Each round rotates which mode leads, so
        host drift spreads evenly over the modes."""
        modes = ["setup", "full"] + (["traced"] if traced else [])
        start = time.monotonic()
        rounds = 0
        while True:
            for mode in modes[rounds % len(modes):] + modes[: rounds % len(modes)]:
                out = self.sample(mode)
                if out is not None:
                    self.samples[mode].append(out)
            rounds += 1
            elapsed = time.monotonic() - start
            if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
                return

    def values(self, mode, key):
        return [s[key] for s in self.samples[mode]]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(run):
    e2e = {name: median(run.values(*key)) for name, key in SAMPLED.items()}
    e2e["req_per_s"] = median([s["measured_requests"] / s["wall_s"] for s in run.samples["full"]])
    return e2e


def per_layer(run, layers, e2e):
    traced = run.samples["traced"]
    m = {name: 0.0 for name in PER_LAYER}
    m.update(layers or {})
    if traced:
        for name in traced[0]["traced"]:
            m[name] = median([s["traced"][name] for s in traced])
        if e2e["wall_s"] > 0:
            m["cluster.trace_overhead"] = median(run.values("traced", "wall_s")) / e2e["wall_s"]
    if m["cluster.events"] > 0:
        m["cluster.ns_per_event"] = 1e9 * e2e["wall_s"] / m["cluster.events"]
    m["cluster.drive_s"] = e2e["wall_s"] - e2e["setup_s"]
    full = run.samples["full"]
    if full:
        m["sim.report_digest"] = full[0]["report_digest"]
        for name in ("model_a.rho_rel_err", "model_a.bytes_rel_err"):
            m[name] = full[0].get(name, 0.0)
    return m


def bench_workload(binary, workload, seed, seconds, trace):
    run = Run(binary, workload, seed)
    run.measure(seconds, traced=trace)
    # Invariance and layer timings, once per invocation, outside the
    # timed loop.
    if workload == SHARDED:
        run.sample("oneshard")
    layers = run.job("layers") if trace else None
    e2e = end_to_end(run)
    metrics = per_layer(run, layers, e2e) if trace else e2e
    return run, e2e, metrics


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def print_table(run, e2e, metrics, trace):
    print(f"== {run.workload} (seed {run.seed})")
    for name, unit in END_TO_END.items():
        extra = ""
        if name in SAMPLED:
            xs = run.values(*SAMPLED[name])
            q1, q3 = quartiles(xs)
            extra = f"  (median of {len(xs)}; q1 {q1:.6g}, q3 {q3:.6g})"
        print(f"  {name:<30} {e2e[name]:>16.6g} {unit}{extra}")
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<30} {metrics[name]:>16.6g} {unit}")
    for f in run.failures:
        print(f"  FAILED: {f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        sys.exit(f"perfbench: cannot build the measurement binary: {e}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    metrics = {}
    for w in names:
        run, e2e, m = bench_workload(binary, w, args.seed, args.seconds, args.trace == 1)
        print_table(run, e2e, m, args.trace == 1)
        attempted += run.attempted
        failed += len(run.failures)
        prefix = "" if len(names) == 1 else f"{w}."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": m[name], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
