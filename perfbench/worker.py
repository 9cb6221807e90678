"""One benchmark run of one workload, in its own process.

``run.py`` starts this script once per repeat and reads the JSON object it
prints on its last line.  The run imports the program from ``src/``,
installs the light capture hooks (and, with ``--trace 1``, the span
tracer) before anything is built, calls the harness, checks the outcome,
and reports timings, simulated-time metrics, exact work counts and a
fingerprint of replica 0's committed sequence.

    python3 perfbench/worker.py --workload wan32-null --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from catalog import EXERCISED, PercentileError, tail_quantile  # noqa: E402


class CheckFailed(Exception):
    """A correctness check of the run failed."""


class Capture:
    """Light hooks, on in every run: when set-up ends, which simulations
    ran and for how long, every commit time, and the objects the harness
    builds internally (collectors, client populations)."""

    def __init__(self) -> None:
        self.setup_end = None
        self.sims: List = []
        self.sim_run_s = 0.0
        self.collectors: List = []
        self.commit_times: List[Dict[int, List[float]]] = []
        self.populations: List = []

    def install(self) -> None:
        from repro.net.simulator import Simulation
        from repro.workload.clients import ClientPopulation
        from repro.workload.metrics import MetricsCollector

        capture = self
        sim_run = Simulation.run

        def run(sim, *args, **kwargs):
            if capture.setup_end is None:
                capture.setup_end = time.monotonic()
            if not capture.sims or capture.sims[-1] is not sim:
                capture.sims.append(sim)
            t0 = time.perf_counter()
            try:
                return sim_run(sim, *args, **kwargs)
            finally:
                capture.sim_run_s += time.perf_counter() - t0

        callback_for = MetricsCollector.callback_for

        def hooked_callback_for(collector, node_id):
            if not capture.collectors or capture.collectors[-1] is not collector:
                capture.collectors.append(collector)
                capture.commit_times.append({})
            times = capture.commit_times[-1].setdefault(node_id, [])
            inner = callback_for(collector, node_id)

            def on_commit(record):
                times.append(record.commit_time)
                inner(record)

            return on_commit

        install = ClientPopulation.install

        def hooked_install(population):
            capture.populations.append(population)
            return install(population)

        Simulation.run = run
        MetricsCollector.callback_for = hooked_callback_for
        ClientPopulation.install = hooked_install


# -- metric helpers -----------------------------------------------------------


def commit_samples(collector) -> List[float]:
    samples: List[float] = []
    for node in collector.nodes.values():
        samples.extend(node.latency.samples)
    return samples


def longest_stall(times_by_node, honest, start: float, end: float) -> float:
    """Longest gap between consecutive commits at any honest replica in
    ``[start, end]``, counting from ``start`` and up to ``end``.  Fails the
    liveness floor if an honest replica committed nothing after ``start``."""
    worst = 0.0
    for node in honest:
        after = sorted({t for t in times_by_node.get(node, ()) if t > start})
        if not after:
            raise CheckFailed(
                f"liveness floor: replica {node} committed nothing after "
                f"t={start:g}s"
            )
        points = [start] + after + [end]
        worst = max(worst, max(b - a for a, b in zip(points, points[1:])))
    return worst


def ledger_fingerprint(sims) -> str:
    h = hashlib.sha256()
    for sim in sims:
        for digest in sim.nodes[0].ledger.digest_sequence():
            h.update(digest)
        h.update(b"|")
    return h.hexdigest()[:16]


def work_counts(sims, collectors) -> Dict[str, int]:
    return {
        "net.events": sum(s.stats.events_processed for s in sims),
        "net.messages": sum(s.stats.messages_sent for s in sims),
        "net.bytes": sum(s.stats.bytes_sent for s in sims),
        "committed_tx": sum(c.total_committed_txs() for c in collectors),
    }


# -- workloads ----------------------------------------------------------------


def run_consensus(name: str, seed: int, cap: Capture) -> Dict:
    from repro.harness.runner import run_experiment

    cfg = wl.experiment_config(name, seed)
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    wall = time.perf_counter() - t0
    sim, collector = cap.sims[0], cap.collectors[0]
    honest = [i for i in range(cfg.system.n) if i not in sim.crashed]
    ref = wl.lossy_crash_time() if name == "lossy16-crash" else cfg.duration / 2
    samples = commit_samples(collector)
    p50 = tail_quantile(samples, 0.5)
    p99 = tail_quantile(samples, 0.99)
    metrics = {
        "wall_s": wall,
        "commit_p50_s": p50,
        "commit_p99_s": p99,
        "commit_tps": result.throughput_tps,
        "stall_s": longest_stall(cap.commit_times[0], honest, ref, cfg.duration),
        # The client of a consensus workload is the saturating mempool:
        # transactions are created when a block takes them, so client
        # latency is commit latency and the sustained rate is commit_tps.
        "e2e_p50_s": p50,
        "e2e_p99_s": p99,
        "kv_max_rate": result.throughput_tps,
    }
    return {
        "metrics": metrics,
        "samples": {"commit": samples},
        "sim": {"commit_samples": len(samples), "rounds": result.rounds_reached},
    }


def run_kv(seed: int, cap: Capture) -> Dict:
    from repro.harness.loadtest import run_loadtest

    rungs = wl.loadtest_configs(seed)
    t0 = time.perf_counter()
    results = [run_loadtest(cfg) for cfg in rungs]
    verify = run_loadtest(wl.verify_config(seed))
    wall = time.perf_counter() - t0
    if verify.verified == 0 or verify.verify_failures:
        raise CheckFailed(
            f"read-your-writes: {verify.verify_failures} of {verify.verified} "
            f"closed-loop answers were wrong"
        )

    ladder = []
    max_rate = 0.0
    for cfg, res, pop in zip(rungs, results, cap.populations):
        rate = cfg.workload.rate
        p99 = tail_quantile(pop.stats.latencies, 0.99)
        ok = (
            p99 <= wl.KV_P99_LIMIT_S
            and res.rejected + res.shed == 0
            and res.e2e_tps >= wl.KV_MIN_COMPLETION * rate
        )
        if ok:
            max_rate = max(max_rate, rate)
        ladder.append({
            "rate": rate, "e2e_p99_s": p99, "e2e_tps": res.e2e_tps,
            "rejected": res.rejected, "shed": res.shed,
            "max_depth": res.max_pending_depth, "meets_limit": ok,
        })

    at = [c.workload.rate for c in rungs].index(wl.KV_REPORT_RATE)
    res, pop, collector = results[at], cap.populations[at], cap.collectors[at]
    sim = cap.sims[at]
    samples = commit_samples(collector)
    honest = [i for i in range(rungs[at].n) if i not in sim.crashed]
    metrics = {
        "wall_s": wall,
        "commit_p50_s": tail_quantile(samples, 0.5),
        "commit_p99_s": tail_quantile(samples, 0.99),
        "commit_tps": res.consensus_tps,
        "stall_s": longest_stall(
            cap.commit_times[at], honest, rungs[at].duration / 2,
            rungs[at].duration,
        ),
        "e2e_p50_s": tail_quantile(pop.stats.latencies, 0.5),
        "e2e_p99_s": tail_quantile(pop.stats.latencies, 0.99),
        "kv_max_rate": max_rate,
    }
    everything = results + [verify]
    return {
        "metrics": metrics,
        "samples": {"commit": samples, "e2e": pop.stats.latencies},
        "sim": {
            "commit_samples": len(samples),
            "e2e_samples": len(pop.stats.latencies),
            "ladder": ladder,
            "verified": verify.verified,
            # Open-loop arrivals fire at their due simulated time, so the
            # generator is never late and latency is timed from the due time.
            "generator_lateness_s": 0.0,
        },
        "attempted": sum(r.submitted for r in everything),
        "failed": sum(r.rejected + r.shed + r.verify_failures for r in everything),
    }


# -- traced run ---------------------------------------------------------------


def layer_metrics(tracer, cap: Capture, wall: float):
    """Per-layer metrics, every counter the self-test may ask for, and the
    self time of each layer."""
    b = tracer.boundary
    layer_self = tracer.layer_self()
    sims = cap.sims
    nodes = [node for sim in sims for node in sim.nodes]
    counts = work_counts(sims, cap.collectors)
    requests = sum(node.retrieval.requests_sent for node in nodes)
    echo_calls, _, echo_useful = b("broadcast.on_echo")
    admissions = [
        replica.admission
        for pop in cap.populations
        for replica in pop.cluster.replicas
        if replica.admission is not None
    ]
    out = {
        "net.self_s": layer_self["net"],
        "net.events": counts["net.events"],
        "net.messages": counts["net.messages"],
        "net.bytes": counts["net.bytes"],
        "net.events_per_s": counts["net.events"] / cap.sim_run_s,
        "net.latency_calls": b("net.latency")[0],
        "broadcast.self_s": layer_self["broadcast"],
        "broadcast.on_val_calls": b("broadcast.on_val")[0],
        "broadcast.on_echo_calls": echo_calls,
        "broadcast.echo_useful_frac": echo_useful / echo_calls if echo_calls else 0.0,
        "core.self_s": layer_self["core"],
        "core.on_message_calls": b("core.on_message")[0],
        "core.vote_policy_s": b("core.vote_policy")[1],
        "core.reproposals": sum(getattr(node, "reproposals", 0) for node in nodes),
        "retrieval.self_s": layer_self["retrieval"],
        "retrieval.requests": requests,
        "retrieval.on_request_calls": b("retrieval.on_request")[0],
        "retrieval.retry_timer_calls": b("retrieval.on_retry_timer")[0],
        "retrieval.useful_frac": b("retrieval.on_response")[2] / requests if requests else 0.0,
        "dag.self_s": layer_self["dag"],
        "dag.validate_calls": b("dag.validate")[0],
        "dag.validate_s": b("dag.validate")[1],
        "dag.store_get_calls": b("dag.get")[0],
        "dag.ancestors_calls": b("dag.ancestors_of")[0],
        "dag.ledger_appends": b("dag.append")[0],
        "crypto.self_s": layer_self["crypto"],
        "crypto.sign_calls": b("crypto.sign")[0],
        "crypto.verify_calls": b("crypto.verify")[0],
        "crypto.verify_batch_calls": b("crypto.verify_batch")[0],
        "crypto.batch_items": b("crypto.verify_batch")[2],
        "crypto.hash_calls": b("crypto.hash")[0],
        "codec.self_s": layer_self["codec"],
        "codec.encode_calls": b("codec.encode")[0],
        "codec.decode_calls": b("codec.decode")[0],
        "smr.self_s": layer_self["smr"],
        "smr.submit_calls": b("smr.submit_command")[0],
        "smr.apply_calls": b("smr.apply")[0],
        "smr.on_commit_s": b("smr.on_commit")[1],
        "workload.self_s": layer_self["workload"],
        "workload.mempool_take_calls": b("workload.take")[0],
        "workload.admitted": sum(a.admitted for a in admissions),
        "workload.rejected": sum(pop.stats.rejected for pop in cap.populations),
        "workload.max_pending_depth": max((a.max_depth for a in admissions), default=0),
        "workload.commit_samples": sum(len(commit_samples(c)) for c in cap.collectors),
        "workload.e2e_samples": sum(len(pop.stats.latencies) for pop in cap.populations),
        "check.self_s": layer_self["check"],
        "setup.deal_s": b("setup.deal")[1],
        "obs.self_s": layer_self["obs"],
        "trace.unattributed_frac": 1.0 - sum(
            spent for layer, spent in layer_self.items() if layer != "harness"
        ) / wall,
    }
    calls = tracer.layer_calls()
    exercised = dict(out)
    exercised.update({f"{layer}.calls": n for layer, n in calls.items()})
    exercised.update({f"{name}_calls": n for name, n in zip(tracer.names, tracer.calls)})
    return out, exercised, layer_self


def check_exercised(name: str, exercised: Dict[str, float]) -> None:
    missing = [
        key for key in EXERCISED["*"] + EXERCISED.get(name, [])
        if not exercised.get(key)
    ]
    if missing:
        raise CheckFailed(f"traced boundaries read 0 on {name}: {missing}")


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="parent's time.monotonic() just before spawning")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    out: Dict = {"ok": False}
    try:
        cap = Capture()
        cap.install()
        tracer = None
        if args.trace:
            from tracer import SpanTracer

            tracer = SpanTracer()
            tracer.install()
        if args.workload == "kv-open":
            run = run_kv(args.seed, cap)
        else:
            run = run_consensus(args.workload, args.seed, cap)
        run["metrics"]["setup_s"] = cap.setup_end - t0
        run["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        counts = work_counts(cap.sims, cap.collectors)
        counts["ledger_fp"] = ledger_fingerprint(cap.sims)
        run["fingerprint"] = counts
        if tracer is not None:
            layers, exercised, layer_self = layer_metrics(
                tracer, cap, run["metrics"]["wall_s"]
            )
            check_exercised(args.workload, exercised)
            run["layers"] = layers
            run["layer_self"] = layer_self
            if args.trace_out:
                tracer.write(args.trace_out)
        out.update(run)
        out["ok"] = True
    except (CheckFailed, PercentileError) as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 — reported to the parent
        out["error"] = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"perfbench: no program source under {ROOT / 'src'}\n")
        sys.exit(2)
    sys.exit(main())
