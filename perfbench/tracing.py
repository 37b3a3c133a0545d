"""Spans around the program's layer boundaries, and the per-layer metrics.

The program is not modified: :func:`install` replaces module attributes
and class methods (the public entry points of each layer) by wrappers
that record one span per call, and :meth:`Tracer.uninstall` puts the
originals back.  Only the traced run imports this module, so untraced
runs carry no wrapper at all.

A span is ``(name, start, end, parent)``.  All spans stay in memory, in
four flat arrays, until the run ends.  A layer's *self* time is its
spans' durations minus the part covered by their child spans; its
*total* time counts children too.  Counts are the number of spans, so
they are recorded at the same boundaries as the times.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.amp import network
from repro.amp.scd import ScdNode
from repro.explore import amp_model, engine
from repro.explore.amp_model import AmpExplorationRuntime, AmpModel
from repro.explore.properties import Eventually, Invariant
from repro.explore.shm_model import ShmMachineModel
from repro.harness.stats import LatencyStats
from repro.sync import kernel as sync_kernel
from repro.sync.algorithms.flooding import FloodingAlgorithm
from repro.workload import generator, service

from .workloads import Outcome

_MISSING = object()


@dataclass
class SpanStats:
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Records nested spans in memory; patches and restores entry points."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Wrap ``owner.attr``: a module function or a class method."""
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr, _MISSING)
        else:
            raw = getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__))
        else:
            replacement = self.wrap(name, getattr(owner, attr))
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)  # the method was inherited
            else:
                setattr(owner, attr, raw)

    # -- reading the spans -------------------------------------------------

    def stats(self) -> Dict[str, SpanStats]:
        """Per span name: call count, total time and self time."""
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        child = [0.0] * len(start)
        for index, up in enumerate(parent):
            if up >= 0:
                child[up] += end[index] - start[index]
        out = {name: SpanStats() for name in self.names}
        for index, nid in enumerate(name_of):
            entry = out[self.names[nid]]
            duration = end[index] - start[index]
            entry.count += 1
            entry.total += duration
            entry.self_time += duration - child[index]
        return out

    def first(self, name: str) -> Tuple[float, float]:
        """``(start, end)`` of the first span called ``name``."""
        nid = self._ids[name]
        index = self.name_of.index(nid)
        return self.start[index], self.end[index]


# ---------------------------------------------------------------------------
# Which entry points each workload's traced run wraps
# ---------------------------------------------------------------------------

_KV_NODES = (
    service.ScdKvServiceNode,
    service.ToKvServiceNode,
    service.AbdKvServiceNode,
)

_EXPLORE_COMMON = [
    (engine, "explore", "explore.engine"),
    (engine.VisitedStore, "visit", "explore.visited"),
    (engine, "child_sleep_set", "explore.sleep"),
    (Invariant, "on_state", "explore.properties"),
    (Eventually, "on_terminal", "explore.properties"),
]

BOUNDARIES: Dict[str, list] = {
    "kv-service": [
        (generator, "client_batches", "workload.generate"),
        (service, "run_service", "workload.run_service"),
        (service, "run_processes", "amp.network.run"),
        (LatencyStats, "from_samples", "harness.stats"),
        (network.Context, "send", "amp.network.send"),
        (network, "payload_units", "core.volume"),
    ]
    + [
        (cls, hook, "handler")
        for cls in _KV_NODES
        for hook in ("on_start", "on_message", "on_timer")
    ],
    "explore-amp": _EXPLORE_COMMON
    + [
        (AmpModel, "fingerprint", "explore.fingerprint"),
        (AmpModel, "enabled", "explore.enabled"),
        (AmpModel, "step", "explore.step"),
        (AmpModel, "_materialize", "explore.amp.materialize"),
        (AmpExplorationRuntime, "start", "explore.amp.start"),
        (AmpExplorationRuntime, "apply", "explore.amp.apply"),
        (amp_model, "payload_units", "core.volume"),
        (ScdNode, "on_start", "handler"),
        (ScdNode, "on_message", "handler"),
    ],
    "explore-shm": _EXPLORE_COMMON
    + [
        (ShmMachineModel, "fingerprint", "explore.fingerprint"),
        (ShmMachineModel, "enabled", "explore.enabled"),
        (ShmMachineModel, "step", "explore.step"),
    ],
    "sync-flood": [
        (sync_kernel, "run_synchronous", "sync.kernel"),
        (sync_kernel, "payload_units", "core.volume"),
        (FloodingAlgorithm, "on_start", "sync.algorithm.start"),
        (FloodingAlgorithm, "on_round", "sync.algorithm.round"),
    ],
}


def install(workload: str) -> Tracer:
    tracer = Tracer()
    for owner, attr, name in BOUNDARIES[workload]:
        tracer.patch(owner, attr, name)
    return tracer


# ---------------------------------------------------------------------------
# Spans -> per-layer metrics
# ---------------------------------------------------------------------------


def _self(stats: Dict[str, SpanStats], name: str) -> float:
    return stats[name].self_time if name in stats else 0.0


def _count(stats: Dict[str, SpanStats], name: str) -> int:
    return stats[name].count if name in stats else 0


def kv_leg_metrics(backend: str, tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
    """One backend's leg, traced on its own."""
    stats = tracer.stats()
    report = outcome.facts[backend]
    run_start, run_end = tracer.first("workload.run_service")
    kernel_start, kernel_end = tracer.first("amp.network.run")
    ops = report.completed_ops
    p = f"kv.{backend}."
    return {
        p + "build_s": kernel_start - run_start,
        p + "post_s": run_end - kernel_end,
        p + "stats_s": stats["harness.stats"].total,
        p + "kernel_s": _self(stats, "amp.network.run"),
        p + "handler_s": _self(stats, "handler"),
        p + "send_s": _self(stats, "amp.network.send"),
        p + "sends": _count(stats, "amp.network.send"),
        p + "volume_s": stats["core.volume"].total,
        p + "volume_calls_per_message": (
            _count(stats, "core.volume") / report.messages_sent
        ),
        p + "vt_p50": report.latency.p50,
        p + "vt_p99": report.latency.p99,
        p + "messages_per_op": report.messages_sent / ops,
        p + "units_per_op": report.payload_sent / ops,
    }


def explore_metrics(model: str, tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
    stats = tracer.stats()
    explore_stats = outcome.facts["stats"]
    p = f"explore.{model}."
    metrics = {
        p + "states": explore_stats.states,
        p + "transitions": explore_stats.transitions,
        p + "deduped": explore_stats.deduped,
        p + "fingerprint_s": _self(stats, "explore.fingerprint"),
        p + "enabled_s": _self(stats, "explore.enabled"),
        p + "step_s": _self(stats, "explore.step"),
        p + "properties_s": _self(stats, "explore.properties"),
        p + "visited_s": _self(stats, "explore.visited"),
        p + "engine_self_s": _self(stats, "explore.engine"),
    }
    if model == "amp":
        applies = _count(stats, "explore.amp.apply")
        metrics.update({
            p + "materialize_s": _self(stats, "explore.amp.materialize"),
            p + "materializations": _count(stats, "explore.amp.start"),
            p + "applies": applies,
            p + "applies_per_transition": applies / explore_stats.transitions,
            p + "apply_s": stats["explore.amp.apply"].total,
            p + "handler_s": _self(stats, "handler"),
            p + "volume_s": stats["core.volume"].total,
            p + "volume_calls": _count(stats, "core.volume"),
        })
    else:
        metrics.update({
            p + "sleep_pruned": explore_stats.sleep_pruned,
            p + "sleep_s": _self(stats, "explore.sleep"),
        })
    return metrics


def sync_metrics(tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
    stats = tracer.stats()
    result = outcome.facts["result"]
    return {
        "sync.rounds": result.rounds,
        "sync.messages": result.messages_sent,
        "sync.units": result.payload_sent,
        "sync.algorithm_s": (
            _self(stats, "sync.algorithm.start")
            + _self(stats, "sync.algorithm.round")
        ),
        "sync.kernel_self_s": _self(stats, "sync.kernel"),
        "sync.volume_s": stats["core.volume"].total,
        "sync.volume_calls": _count(stats, "core.volume"),
        # on_round calls: one per live node per round
        "sync.node_rounds": _count(stats, "sync.algorithm.round"),
    }
