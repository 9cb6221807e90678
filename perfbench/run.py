"""LightDAG repository benchmark: one command per workload.

    python3 perfbench/run.py --workload wan32-null --seed 1 --seconds 25 --trace 0

Every workload run is its own process (``worker.py``); runs go one after
another.  ``--trace 0`` runs ``T`` trials on sub-seeds of ``--seed`` (``T``
follows from ``--seconds``), then replays the first trial, which must agree
exactly with it, and prints every end-to-end metric of ``BENCHMARK.json``
(see :func:`aggregate`).  ``--trace 1`` alternates untraced and traced runs
of one seed and prints every per-layer metric, measured by the span tracer
in ``tracer.py``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--provenance`` prints the full resolved config of every workload for the
seed and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from catalog import declared, load_spec, self_test, tail_quantile  # noqa: E402

#: Fewest trials of an untraced run, and fewest (untraced, traced) pairs
#: of a traced run, whatever ``--seconds`` says.
MIN_TRIALS = 3
MIN_PAIRS = 2
#: Hard wall-clock budget for one invocation (it must end within 180 s);
#: a repeat still running at the end of it is killed and fails the run.
BUDGET_S = 160.0

#: Exact work counts every repeat of one seed must reproduce.
FINGERPRINT = ("net.events", "net.messages", "net.bytes", "committed_tx", "ledger_fp")
#: Metrics measured in simulated time: exact for a fixed seed.
SIM_METRICS = ("commit_p50_s", "commit_p99_s", "commit_tps", "stall_s",
               "e2e_p50_s", "e2e_p99_s", "kv_max_rate")
#: Host costs: medians over every process of a run.
HOST_METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run_repeat(workload: str, seed: int, trace: int, deadline: float,
               trace_out=None) -> Dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["--t0", repr(time.monotonic())]
    # A fixed hash seed removes one source of run-to-run host-time noise;
    # the simulation itself is deterministic under any hash seed.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return {"ok": False, "error": f"run exceeded the {BUDGET_S:g} s budget"}
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "error": f"worker exited {proc.returncode} without a result"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--provenance", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"perfbench: no program source under {ROOT / 'src'}\n")
        return 2
    spec = load_spec()
    problems = self_test(spec, wl.NAMES)
    if problems:
        sys.stderr.write("perfbench self-test failed:\n  " + "\n  ".join(problems) + "\n")
        return 2
    if args.provenance:
        print(json.dumps(wl.provenance(args.seed), indent=2, default=str))
        return 0
    if args.workload not in wl.NAMES:
        parser.error(f"--workload must be one of {', '.join(wl.NAMES)}")

    if args.trace:
        plain, traced = traced_schedule(args)
        trials = 1
    else:
        plain, traced = trial_schedule(args, wl.TRIAL_WALL_S[args.workload])
        trials = len(plain) - 1
    repeats = plain + traced
    good = [r for r in repeats if r.get("ok")]
    errors = [r.get("error", "unknown error") for r in repeats if not r.get("ok")]
    # Same seed => same work: the replayed trial (and, traced, every
    # repeat, so tracing cannot change behaviour) must agree exactly on the
    # work counts, the committed sequence and every simulated-time metric.
    if len(good) == len(repeats):
        ref = plain[0]
        for other in (plain[1:] + traced if args.trace else [plain[-1]]):
            diff = [key for key in FINGERPRINT
                    if other["fingerprint"][key] != ref["fingerprint"][key]]
            diff += [key for key in SIM_METRICS
                     if other["metrics"][key] != ref["metrics"][key]]
            if diff:
                # A replay that does different work is a failed run.
                other["ok"] = False
                errors.append(f"same seed, different {', '.join(diff)}")
    for err in errors:
        sys.stderr.write(f"perfbench: check failed: {err}\n")
    correct = not errors

    if args.workload == "kv-open":
        attempted = sum(r.get("attempted", 0) for r in repeats)
        failed = sum(r.get("failed", 0) if r.get("ok") else 1 for r in repeats)
    else:
        attempted = len(repeats)
        failed = sum(not r.get("ok") for r in repeats)

    metrics: Dict[str, Dict] = {}
    if correct and not args.trace:
        values = aggregate(plain, trials)
        metrics = {name: {"value": values[name], "unit": meta["unit"]}
                   for name, meta in declared(spec, "end_to_end").items()}
        if args.workload in wl.DIAGNOSTIC:
            metrics["stall_s"] = {"value": values["stall_s"], "unit": "s"}
        units = {name: meta["unit"] for name, meta in declared(spec, "end_to_end").items()}
        units.update(wall_s="s", stall_s="s")
        print_e2e(args.workload, args.seed, plain[:trials], values, units)
    elif correct:
        layers = {
            name: statistics.median([r["layers"][name] for r in traced])
            for name in traced[0]["layers"]
        }
        wall_plain = statistics.median([r["metrics"]["wall_s"] for r in plain])
        wall_traced = statistics.median([r["metrics"]["wall_s"] for r in traced])
        layers["host.wall_s"] = wall_plain
        layers["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
        metrics = {name: {"value": layers[name], "unit": meta["unit"]}
                   for name, meta in declared(spec, "per_layer").items()}
        print_layers(args.workload, traced, wall_traced)

    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def aggregate(plain: List[Dict], trials: int) -> Dict[str, float]:
    """End-to-end values of a run: latency percentiles over the samples of
    all trials pooled; rates, stalls and the ladder result as the mean over
    trials; host costs as the median over every process (the replay
    included)."""
    runs = plain[:trials]
    values = {name: statistics.median([r["metrics"][name] for r in plain]) for name in HOST_METRICS}
    for kind in ("commit", "e2e"):
        # A consensus workload's client is its mempool: e2e = commit.
        pooled = [x for r in runs for x in r["samples"].get(kind, r["samples"]["commit"])]
        values[f"{kind}_p50_s"] = tail_quantile(pooled, 0.5)
        values[f"{kind}_p99_s"] = tail_quantile(pooled, 0.99)
    for name in ("commit_tps", "stall_s", "kv_max_rate"):
        values[name] = statistics.fmean(r["metrics"][name] for r in runs)
    return values


def trial_schedule(args, trial_wall_s: float):
    """Untraced run: ``T`` trials on sub-seeds of ``--seed``, then trial 0
    again.  ``T`` follows from ``--seconds`` and the workload's nominal
    trial time, so it is the same on every machine for the same arguments."""
    trials = max(MIN_TRIALS, int(args.seconds // trial_wall_s))
    seeds = [args.seed * 1000 + i for i in range(trials)] + [args.seed * 1000]
    started = time.monotonic()
    plain: List[Dict] = []
    for seed in seeds:
        plain.append(run_repeat(args.workload, seed, 0, started + BUDGET_S))
        elapsed = time.monotonic() - started
        if elapsed + elapsed / len(plain) > BUDGET_S and len(plain) < len(seeds):
            plain.append({"ok": False, "error": f"{len(seeds)} trials overrun "
                                                f"the {BUDGET_S:g} s budget"})
            break
    return plain, []


def traced_schedule(args):
    """Traced run: alternate untraced and traced repeats of one seed until
    ``--seconds`` have passed (at least :data:`MIN_PAIRS` pairs)."""
    trace_dir = ROOT / ".bench_trace"
    trace_dir.mkdir(exist_ok=True)
    trace_out = trace_dir / f"{args.workload}-seed{args.seed}.json"
    started = time.monotonic()
    plain: List[Dict] = []
    traced: List[Dict] = []
    while True:
        elapsed = time.monotonic() - started
        if len(traced) >= MIN_PAIRS and elapsed >= args.seconds:
            break
        if traced and elapsed + elapsed / len(traced) > BUDGET_S:
            break
        plain.append(run_repeat(args.workload, args.seed, 0, started + BUDGET_S))
        traced.append(run_repeat(args.workload, args.seed, 1, started + BUDGET_S,
                                 trace_out))
    return plain, traced


def print_e2e(workload: str, seed: int, trials: List[Dict], values: Dict,
              units: Dict[str, str]) -> None:
    """Summary in the consensus-vs-end-to-end shape, then every metric."""
    print(f"== {workload} --seed {seed}: median of {len(trials)} trials")
    print(f"  Consensus TPS: {values['commit_tps']:.1f} tx/s")
    print(f"  Consensus latency: p50 {values['commit_p50_s']:.4f} s, "
          f"p99 {values['commit_p99_s']:.4f} s")
    print(f"  End-to-end latency: p50 {values['e2e_p50_s']:.4f} s, "
          f"p99 {values['e2e_p99_s']:.4f} s")
    for r in trials:
        sim = r["sim"]
        counts = ", ".join(f"{k}={v}" for k, v in sim.items() if k != "ladder")
        print(f"  trial: stall {r['metrics']['stall_s']:.4f} s, {counts}")
        for rung in sim.get("ladder", ()):
            print(f"    rung {rung['rate']:6.0f} tx/s: p99 {rung['e2e_p99_s']:.4f} s, "
                  f"done {rung['e2e_tps']:.1f} tx/s, max depth {rung['max_depth']}, "
                  f"{'meets' if rung['meets_limit'] else 'misses'} limit")
    for name, value in values.items():
        print(f"  {name:14s} {value:.6g} {units[name]}")


def print_layers(workload: str, runs: List[Dict], wall: float) -> None:
    shares = {
        layer: statistics.median([r["layer_self"][layer] for r in runs]) / wall
        for layer in runs[0]["layer_self"]
    }
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    print(f"== {workload} traced: self-time share of traced wall_s {wall:.3f} s")
    for layer, share in ranked:
        print(f"  {layer:10s} {share * 100:6.1f}%")


if __name__ == "__main__":
    sys.exit(main())
