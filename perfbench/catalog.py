"""Metric catalog, the tail-percentile rule, and the benchmark's self-tests.

``BENCHMARK.json`` at the repository root is the contract the runner is
held to; this module loads it and checks that every declared metric has a
well-formed, unique name, a unit, a direction and (end to end) a bound,
and that every workload it or :data:`EXERCISED` names exists.
:func:`self_test` runs at the start of every benchmark run.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: A tail percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics rule: "the highest percentile that has at
#: least ten samples beyond it").
MIN_TAIL_SAMPLES = 10

#: Boundaries each workload must exercise in the traced run: a wrapper
#: installed too late (after nodes were built, or on a name nobody calls)
#: would read 0 here and fail the run instead of hiding a layer.
EXERCISED: Dict[str, List[str]] = {
    "*": [
        "net.events", "net.messages", "net.bytes", "broadcast.on_val_calls",
        "broadcast.on_echo_calls", "core.on_message_calls",
        "dag.validate_calls", "dag.store_get_calls", "dag.ancestors_calls",
        "dag.ledger_appends", "crypto.sign_calls", "crypto.verify_calls",
        "crypto.hash_calls", "workload.commit_samples", "check.calls",
        "setup.deal_calls",
    ],
    "wan16-schnorr": ["core.vote_policy_calls", "workload.mempool_take_calls"],
    "wan32-null": ["core.vote_policy_calls", "workload.mempool_take_calls"],
    "lossy16-crash": [
        "retrieval.requests", "retrieval.on_request_calls",
        "retrieval.retry_timer_calls", "net.latency_calls",
        "workload.mempool_take_calls",
    ],
    "kv-open": [
        "core.vote_policy_calls", "codec.encode_calls", "codec.decode_calls",
        "smr.submit_calls", "smr.apply_calls", "workload.admitted",
        "workload.e2e_samples", "net.latency_calls", "obs.calls",
    ],
}


class PercentileError(ValueError):
    """A tail percentile was asked of too few samples."""


def tail_quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation ``q``-quantile, refusing thin tails.

    Raises :class:`PercentileError` unless at least
    :data:`MIN_TAIL_SAMPLES` samples lie beyond the ``q`` point, so a
    "p99" never silently rests on one or two observations.
    """
    n = len(samples)
    if n * (1.0 - q) < MIN_TAIL_SAMPLES:
        raise PercentileError(
            f"p{q * 100:g} needs {math.ceil(MIN_TAIL_SAMPLES / (1 - q))} "
            f"samples, got {n}"
        )
    ordered = sorted(samples)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def declared(spec: dict, section: str) -> Dict[str, dict]:
    return {m["name"]: m for m in spec[section]}


def self_test(spec: dict, known_workloads: Sequence[str]) -> List[str]:
    """Return a list of problems with the declared metrics (empty = ok)."""
    problems: List[str] = []
    names: List[str] = []
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            name = metric.get("name", "")
            names.append(name)
            if not NAME_RE.match(name):
                problems.append(f"bad metric name {name!r}")
            if not UNIT_RE.match(metric.get("unit", "")):
                problems.append(f"{name}: bad or missing unit")
            if metric.get("better") not in ("lower", "higher"):
                problems.append(f"{name}: direction must be lower/higher")
            if section == "end_to_end" and not 0 < metric.get("bound", 0) <= 0.25:
                problems.append(f"{name}: bound must be in (0, 0.25]")
    if len(names) != len(set(names)):
        problems.append("metric names are not unique")
    if "setup_s" not in declared(spec, "end_to_end"):
        problems.append("setup_s is not declared")
    for workload in spec["workloads"]:
        if workload["name"] not in known_workloads:
            problems.append(f"BENCHMARK.json names unknown workload {workload['name']!r}")
    for workload in EXERCISED:
        if workload != "*" and workload not in known_workloads:
            problems.append(f"EXERCISED names unknown workload {workload!r}")
    # The tail rule itself: 999 samples cannot give a p99, 1000 can.
    try:
        tail_quantile([0.0] * 999, 0.99)
        problems.append("tail_quantile accepted a p99 over 999 samples")
    except PercentileError:
        pass
    if abs(tail_quantile(list(range(1000)), 0.99) - 989.01) > 1e-9:
        problems.append("tail_quantile interpolation is off")
    return problems
