"""Span tracer for the traced benchmark run.

The tracer wraps the public entry points of each ``src/repro/<layer>``
package from outside: nothing under ``src/`` changes.  Every wrapped call
records a span (boundary, start, end, parent span) and adds its *self
time* (duration minus the time of the spans nested inside it) to its
boundary.  Self times of a layer's boundaries sum to the layer's
``<layer>.self_s``; calls are exact counts.

Wrapping happens before any node is built, on the defining class (so every
instance and every subclass that does not override the method sees it)
and, for module-level functions, on every ``repro.*`` module that bound
the function with ``from ... import`` (e.g.
``repro.core.base.validate_block_structure``).  A subclass override of a
wrapped method gets its own wrapper under the same boundary; a call that
re-enters the boundary it is already inside (``super()`` chains) passes
straight through, so counts stay one per logical call.

Spans are kept in memory, up to :data:`SPAN_CAP`, and written out when the
run ends; the per-boundary totals are exact regardless of the cap.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Spans kept for the trace file (the first ones opened); totals are exact.
SPAN_CAP = 50_000

#: (module, qualified name, boundary, layer, outcome).  ``qualified name``
#: is ``func`` or ``Class.method``; ``outcome`` (optional) maps
#: ``(args, result)`` to a number summed per boundary.
BOUNDARIES: List[Tuple[str, str, str, str, Optional[Callable]]] = []


def _add(layer: str, module: str, names: str, boundary: Optional[str] = None,
         outcome: Optional[Callable] = None) -> None:
    for qual in names.split():
        BOUNDARIES.append(
            (module, qual, boundary or f"{layer}.{qual.split('.')[-1]}",
             layer, outcome)
        )


def _truthy(args, result) -> int:
    return 1 if result else 0


def _result_len(args, result) -> int:
    return len(result) if result is not None else 0


def _batch_len(args, result) -> int:
    return len(args[1])


# -- net: the discrete-event engine and the per-replica network handle.
_add("net", "repro.net.simulator", "Simulation.run", "net.run")
_add("net", "repro.net.simulator", "Simulation.call_at Simulation.crash")
_add("net", "repro.net.simulator",
     "_SimNetworkAPI.send _SimNetworkAPI.broadcast _SimNetworkAPI.set_timer")
_add("net", "repro.net.latency", "LatencyModel.delay", "net.latency")
# -- broadcast: CBC / PBC / RBC instance managers.
for _cls in ("CbcManager", "PbcManager", "RbcManager"):
    _mod = "repro.broadcast." + _cls[:3].lower()
    _add("broadcast", _mod, f"{_cls}.broadcast", "broadcast.broadcast")
    _add("broadcast", _mod, f"{_cls}.on_val", "broadcast.on_val")
    _add("broadcast", _mod, f"{_cls}.deliver_retrieved",
         "broadcast.deliver_retrieved")
    _add("broadcast", _mod, f"{_cls}.refresh_vote", "broadcast.refresh_vote")
    _add("broadcast", _mod, f"{_cls}.gc_below", "broadcast.gc_below")
_add("broadcast", "repro.broadcast.cbc", "CbcManager.on_echo",
     "broadcast.on_echo", _truthy)
_add("broadcast", "repro.broadcast.rbc", "RbcManager.on_echo",
     "broadcast.on_echo", _truthy)
_add("broadcast", "repro.broadcast.rbc", "RbcManager.on_ready")
_add("broadcast", "repro.broadcast.cbc", "CbcManager.vote")
# -- core: protocol message/timer handlers and LightDAG2's vote rules.
_add("core", "repro.core.base",
     "BaseDagNode.on_message BaseDagNode.on_timer BaseDagNode.on_start")
_add("core", "repro.core.lightdag2", "LightDag2Node._apply_vote_policy",
     "core.vote_policy")
# -- core.retrieval: the §IV-A block retrieval manager.
_add("retrieval", "repro.core.retrieval",
     "RetrievalManager.note_pending RetrievalManager.on_request "
     "RetrievalManager.on_retry_timer RetrievalManager.revive "
     "RetrievalManager.satisfied_by RetrievalManager.gc_below")
_add("retrieval", "repro.core.retrieval", "RetrievalManager.on_response",
     "retrieval.on_response", _result_len)
# -- dag: validation, store, traversal, ledger.
_add("dag", "repro.dag.validation", "validate_block_structure",
     "dag.validate")
_add("dag", "repro.dag.store",
     "DagStore.add DagStore.get DagStore.get_optional DagStore.missing "
     "DagStore.blocks_in_round DagStore.prune_below "
     "DagStore.direct_reference_count")
_add("dag", "repro.dag.traversal",
     "ancestors_of is_ancestor uncommitted_ancestors")
_add("dag", "repro.dag.ledger", "Ledger.append")
# -- crypto: signature backends, hashing, the common coin.
_add("crypto", "repro.crypto.backend", "CryptoBackend.sign CryptoBackend.verify")
_add("crypto", "repro.crypto.backend", "CryptoBackend.verify_batch",
     outcome=_batch_len)
_add("crypto", "repro.crypto.hashing", "hash_bytes hash_fields",
     "crypto.hash")
_add("crypto", "repro.crypto.coin",
     "GlobalPerfectCoin.make_share GlobalPerfectCoin.verify_share "
     "GlobalPerfectCoin.add_share")
# -- codec: wire messages and the Writer/Reader primitives under them.
_add("codec", "repro.codec.messages",
     "encode_message decode_message encoded_wire_bytes")
_add("codec", "repro.codec.primitives", "Writer.getvalue", "codec.encode")
_add("codec", "repro.codec.primitives", "Reader.__init__", "codec.decode")
_add("codec", "repro.codec.primitives",
     "Writer.byte Writer.uvarint Writer.lp_bytes Writer.lp_str "
     "Reader.byte Reader.uvarint Reader.lp_bytes Reader.lp_str "
     "Reader.expect_eof", "codec.primitive")
# -- smr: replicated state machine and the replica wrapper.
_add("smr", "repro.smr.replica",
     "SmrReplica.submit_command SmrReplica.payload_source "
     "SmrReplica.on_commit")
_add("smr", "repro.smr.machine",
     "StateMachine.apply Command.to_bytes Command.from_bytes "
     "StateMachine.state_digest")
# -- workload: mempool, admission control, client population, collector.
_add("workload", "repro.workload.txgen", "Mempool.take")
_add("workload", "repro.workload.admission",
     "AdmissionController.decide AdmissionController.note_admitted "
     "AdmissionController.note_drained AdmissionController.note_shed")
_add("workload", "repro.workload.clients",
     "ClientPopulation.install ClientPopulation._on_arrival "
     "ClientPopulation._submit ClientPopulation._on_done")
_add("workload", "repro.workload.metrics", "MetricsCollector._observe")
# -- check: post-run safety checks the harness runs by default.
_add("check", "repro.dag.ledger", "check_prefix_consistency", "check.prefix")
_add("check", "repro.check.oracles", "deep_audit", "check.deep_audit")
_add("check", "repro.smr.replica", "SmrCluster.verify_convergence",
     "check.verify_convergence")
# -- setup: key dealing.
_add("setup", "repro.crypto.keys", "TrustedDealer.deal", "setup.deal")
# -- obs: metrics registry and journal (instrumentation off = near zero).
_add("obs", "repro.obs.registry",
     "Counter.inc Gauge.set Gauge.add Histogram.observe "
     "Histogram.observe_bulk MetricsRegistry.counter MetricsRegistry.gauge "
     "MetricsRegistry.histogram")
_add("obs", "repro.obs.journal", "EventJournal.emit")
_add("obs", "repro.net.simulator", "Simulation._obs_flush", "obs.flush")
# -- harness: the entry points; their self time is what no layer claims.
_add("harness", "repro.harness.runner", "run_experiment")
_add("harness", "repro.harness.loadtest", "run_loadtest")

LAYERS = ("net", "broadcast", "core", "retrieval", "dag", "crypto", "codec",
          "smr", "workload", "check", "setup", "obs", "harness")


def _subclasses(cls) -> List[type]:
    seen: List[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


class SpanTracer:
    """Per-boundary call counts, self times and outcome sums, plus spans."""

    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.outcome: List[float] = []
        self._index: Dict[str, int] = {}
        self.spans: List[Tuple[int, int, float, float, int]] = []
        self.span_cap = span_cap
        # child-time accumulators / open boundaries / open span ids; the
        # first entry of each is the root.
        self._child = [0.0]
        self._open = [-1]
        self._ids = [-1]
        self._next_id = [0]

    def _boundary(self, name: str, layer: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.outcome.append(0.0)
        return idx

    def wrap(self, fn: Callable, name: str, layer: str,
             outcome: Optional[Callable] = None) -> Callable:
        idx = self._boundary(name, layer)
        calls, self_s, outcomes = self.calls, self.self_s, self.outcome
        child, open_, ids, next_id = self._child, self._open, self._ids, self._next_id
        spans, cap = self.spans, self.span_cap

        def traced(*args, **kwargs):
            if open_[-1] == idx:
                return fn(*args, **kwargs)
            sid = next_id[0]
            next_id[0] = sid + 1
            parent = ids[-1]
            ids.append(sid)
            open_.append(idx)
            child.append(0.0)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                self_s[idx] += dur - child.pop()
                child[-1] += dur
                open_.pop()
                ids.pop()
                calls[idx] += 1
                if outcome is not None:
                    outcomes[idx] += outcome(args, result)
                if sid < cap:
                    spans.append((sid, idx, t0, t1, parent))

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`, for the rest of the
        process.  Call before any node or cluster is built."""
        # Import every module that defines a subclass before walking them.
        importlib.import_module("repro.harness.runner")
        importlib.import_module("repro.harness.loadtest")
        for module_name, qual, name, layer, outcome in BOUNDARIES:
            module = importlib.import_module(module_name)
            if "." in qual:
                cls_name, attr = qual.split(".")
                root = getattr(module, cls_name)
                if attr not in root.__dict__:
                    raise AttributeError(f"{module_name}.{qual} is not defined there")
                # The class and every subclass that overrides the method.
                for owner in _subclasses(root):
                    raw = owner.__dict__.get(attr)
                    if raw is None:
                        continue
                    if isinstance(raw, (staticmethod, classmethod)):
                        wrapped = type(raw)(
                            self.wrap(raw.__func__, name, layer, outcome)
                        )
                    else:
                        wrapped = self.wrap(raw, name, layer, outcome)
                    setattr(owner, attr, wrapped)
            else:
                original = getattr(module, qual)
                wrapped = self.wrap(original, name, layer, outcome)
                # Rebind every ``from ... import`` copy of the function too.
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("repro") or mod is None:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    # -- results --------------------------------------------------------------

    def boundary(self, name: str) -> Tuple[int, float, float]:
        """``(calls, self_s, outcome)`` of one boundary (zeros if unseen)."""
        idx = self._index.get(name)
        if idx is None:
            return 0, 0.0, 0.0
        return self.calls[idx], self.self_s[idx], self.outcome[idx]

    def layer_self(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for layer, spent in zip(self.layers, self.self_s):
            totals[layer] += spent
        return totals

    def layer_calls(self) -> Dict[str, int]:
        totals = {layer: 0 for layer in LAYERS}
        for layer, count in zip(self.layers, self.calls):
            totals[layer] += count
        return totals

    def write(self, path) -> None:
        """Write the kept spans and the boundary table as JSON."""
        doc = {
            "boundaries": [
                {"name": n, "layer": l, "calls": c, "self_s": s}
                for n, l, c, s in zip(self.names, self.layers, self.calls, self.self_s)
            ],
            "spans_total": self._next_id[0],
            "spans_kept": len(self.spans),
            "spans": [
                {"id": sid, "name": self.names[idx], "start": t0, "end": t1,
                 "parent": parent}
                for sid, idx, t0, t1, parent in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
