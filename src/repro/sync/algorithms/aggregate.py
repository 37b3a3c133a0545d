"""Change-propagation aggregate flooding — mega-scale flooding (§3.2).

The paper's flooding argument (any computable function can be computed
in D rounds by flooding inputs) is usually demonstrated here with
full-view or delta flooding (:mod:`repro.sync.algorithms.flooding`),
whose Θ(n) per-process views are exactly what mega-scale runs cannot
afford.  For an *aggregate* function — min/max or any commutative,
associative, idempotent merge — flooding needs only the running
aggregate: each process keeps one value, merges what arrives, and
re-broadcasts **only when its value changed**.  After D rounds every
value equals the global aggregate (the same induction as flooding:
after r rounds, process p's value aggregates all inputs within distance
r), and the total message count is Σ_p (changes at p) · deg(p) — on a
ring of n processes with random inputs that is Θ(n log n) messages
total instead of flooding's Θ(n²), which is what makes n = 100,000
feasible.

Two implementations with identical observable behavior:

* :class:`AggregateFlooding` — a per-process
  :class:`~repro.sync.kernel.SyncAlgorithm` for the object kernel;
* :class:`ColumnarAggregateFlooding` — one
  :class:`~repro.sync.arraykernel.ColumnarAlgorithm` for the
  mega-scale path (the value column is one Python list; a round is one
  scan over the delivery buffers).

Both decide the current value after ``rounds`` rounds (callers pass
R ≥ diameter, e.g. :meth:`~repro.sync.topology.Topology.radius_bound`)
and both send pid-major, so adversary RNG draws and message counters
line up between backends.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from ..arraykernel import ColumnarAlgorithm, ColumnarRunner
from ..kernel import Context, Outbox, SyncAlgorithm
from ...core.exceptions import ConfigurationError

#: merge table: name → two-argument merge (commutative/associative/idempotent)
_MERGES = {
    "min": min,
    "max": max,
}


def _resolve_merge(op: str):
    merge = _MERGES.get(op)
    if merge is None:
        raise ConfigurationError(
            f"unknown aggregate op {op!r} (expected one of {sorted(_MERGES)})"
        )
    return merge


class AggregateFlooding(SyncAlgorithm):
    """Per-process change-propagation aggregation (object kernel)."""

    def __init__(self, rounds: int, op: str = "min") -> None:
        if rounds < 1:
            raise ConfigurationError(f"aggregate flooding needs rounds >= 1, got {rounds}")
        self.rounds = rounds
        self.op = op
        self._merge = _resolve_merge(op)
        self.value: object = None

    def on_start(self, ctx: Context) -> Outbox:
        self.value = ctx.input
        return ctx.broadcast(self.value)

    def on_round(self, ctx: Context, received: Mapping[int, object]) -> Outbox:
        merge = self._merge
        value = self.value
        changed = False
        for incoming in received.values():
            merged = merge(value, incoming)
            if merged != value:
                value = merged
                changed = True
        self.value = value
        if ctx.round >= self.rounds:
            ctx.decide(value)
            ctx.halt()
            return {}
        if changed:
            return ctx.broadcast(value)
        return {}

    def local_state(self) -> object:
        return self.value


def make_aggregate_flooders(
    n: int, rounds: int, op: str = "min"
) -> List[AggregateFlooding]:
    """One :class:`AggregateFlooding` instance per process."""
    return [AggregateFlooding(rounds, op) for _ in range(n)]


class ColumnarAggregateFlooding(ColumnarAlgorithm):
    """Columnar change-propagation aggregation (mega-scale path).

    State is one values column; a round merges the delivery buffers into
    it, collects the changed pids, and re-broadcasts their values in
    ascending pid order (matching the object kernel's pid-major send
    order).  ``payload_units_per_message=1`` is valid for scalar inputs
    (ints/floats); constructors reject it otherwise via the engine's
    normal per-message accounting (leave it ``None`` then).
    """

    def __init__(
        self,
        rounds: int,
        op: str = "min",
        fixed_payload_units: Optional[int] = None,
    ) -> None:
        if rounds < 1:
            raise ConfigurationError(f"aggregate flooding needs rounds >= 1, got {rounds}")
        self.rounds = rounds
        self.op = op
        self._merge = _resolve_merge(op)
        self.payload_units_per_message = fixed_payload_units
        self.values: List[object] = []
        self._changed_mask = bytearray(0)

    def setup(self, eng: ColumnarRunner) -> None:
        self.values = list(eng.inputs)
        self._changed_mask = bytearray(eng.n)
        values = self.values
        for pid in range(eng.n):
            eng.broadcast(pid, values[pid])

    def on_round(
        self,
        eng: ColumnarRunner,
        src: List[int],
        dst: List[int],
        payloads: List[object],
    ) -> None:
        merge = self._merge
        values = self.values
        changed_mask = self._changed_mask
        changed: List[int] = []
        for k in range(len(dst)):
            pid = dst[k]
            merged = merge(values[pid], payloads[k])
            if merged != values[pid]:
                values[pid] = merged
                if not changed_mask[pid]:
                    changed_mask[pid] = 1
                    changed.append(pid)
        if eng.round >= self.rounds:
            eng.decide_all(values)
            eng.halt_all()
            for pid in changed:
                changed_mask[pid] = 0
            return
        changed.sort()
        for pid in changed:
            changed_mask[pid] = 0
            eng.broadcast(pid, values[pid])

    def local_states(self, eng: ColumnarRunner) -> Sequence[object]:
        return self.values
