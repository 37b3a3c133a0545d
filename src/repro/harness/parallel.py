"""Parallel multi-run experiment driver.

The paper's claims are statements about *ensembles* of runs — every
schedule, every adversary, every seed.  The harness makes ranging over
such ensembles cheap: :func:`run_many` maps a picklable ``factory(seed)``
over a seed list, optionally fanning out across a
:class:`~concurrent.futures.ProcessPoolExecutor`, and guarantees that the
result list (and hence any aggregation over it) is **deterministic in
seed order regardless of worker count**.  ``workers=4`` and ``workers=1``
produce byte-identical aggregates.

Design rules that keep this true:

* results are collected with ``Executor.map``, which preserves input
  order no matter which worker finishes first;
* the serial path is the exact same ``factory(seed)`` loop, so a machine
  without usable subprocesses (sandboxes, restricted CI) degrades to
  identical results, just slower;
* factories should return *small, picklable summaries* (tuples, numbers,
  dataclasses of primitives), not live runtimes — protocol objects hold
  generator/context references that do not survive pickling.
"""

from __future__ import annotations

import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Exception types that mean "the process pool itself is unusable" (as
#: opposed to a bug in the mapped function): broken/missing subprocess
#: support, unpicklable payloads, factories defined in un-importable
#: modules.
_POOL_ERRORS = (BrokenProcessPool, OSError, pickle.PicklingError, AttributeError)


class RunList(List[T]):
    """The result list of :func:`run_many`, plus execution metadata.

    Compares equal to (and otherwise behaves as) a plain list of the
    per-seed results; the extra attributes are a *side channel* so
    sweeps that silently degraded to serial execution stay visible:

    ``workers_used``
        Worker processes that actually executed the sweep (1 = serial).
    ``fallback_reason``
        ``None`` normally; a short description of the pool failure when
        a requested process pool could not be used and the sweep re-ran
        serially.
    """

    workers_used: int = 1
    fallback_reason: Optional[str] = None

    def summary(self) -> str:
        """One line of execution metadata (how the sweep actually ran)."""
        if self.fallback_reason is not None:
            detail = f"serial fallback: {self.fallback_reason}"
        elif self.workers_used > 1:
            detail = f"{self.workers_used} workers"
        else:
            detail = "serial"
        return f"{len(self)} run(s), {detail}"

    def __repr__(self) -> str:
        # The element dump is a plain list's; the prefix keeps a silent
        # serial fallback visible anywhere a RunList is printed.
        return f"RunList({self.summary()}: {list.__repr__(self)})"


def run_many(
    factory: Callable[[int], T],
    seeds: Iterable[int],
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> "RunList[T]":
    """Run ``factory(seed)`` for every seed; return results in seed order.

    Parameters
    ----------
    factory:
        A top-level (picklable) callable mapping a seed to one run's
        summary.  It must be a pure function of the seed for the
        determinism guarantee to mean anything.
    seeds:
        The seed sweep.
    workers:
        ``None``, ``0`` or ``1`` → serial execution in this process;
        ``>= 2`` → a process pool of that size.  If the pool cannot be
        created or used (no subprocess support, unpicklable factory),
        the sweep falls back to the serial path — results are identical
        either way, but the degradation is *recorded*: a
        ``RuntimeWarning`` is emitted and the returned
        :class:`RunList`'s ``fallback_reason`` names the cause (the
        aggregators carry it through as ``pool_fallback``).
    chunksize:
        Batch size handed to each worker; defaults to a value that gives
        each worker a few batches.
    """
    seeds = list(seeds)
    if workers is None or workers <= 1 or len(seeds) <= 1:
        return RunList(factory(seed) for seed in seeds)
    if chunksize is None:
        chunksize = max(1, len(seeds) // (workers * 4))
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results: RunList[T] = RunList(
                pool.map(factory, seeds, chunksize=chunksize)
            )
            results.workers_used = workers
            return results
    except _POOL_ERRORS as exc:
        # Pool infrastructure failed (sandbox without semaphores, factory
        # defined in an un-importable module, ...).  The factory is a pure
        # function of the seed, so a from-scratch serial rerun is safe —
        # but a sweep that silently lost its parallelism skews timing
        # experiments, so say so loudly and on the result itself.
        reason = f"{type(exc).__name__}: {exc}"
        warnings.warn(
            f"run_many: process pool unavailable ({reason}); "
            f"falling back to serial execution of {len(seeds)} runs",
            RuntimeWarning,
            stacklevel=2,
        )
        results = RunList(factory(seed) for seed in seeds)
        results.fallback_reason = reason
        return results


@dataclass(frozen=True)
class MultiRunStats:
    """Order-insensitive aggregate over one ensemble of runs.

    Every field is derived only from the (seed-ordered) result list, so
    two sweeps over the same seeds agree field-for-field — and therefore
    ``repr``-for-``repr`` — whatever the worker count was.

    ``pool_fallback`` is the exception by design: a side channel
    (excluded from ``==`` and ``repr`` to preserve the guarantee above)
    recording why a requested process pool degraded to serial execution
    (see :class:`RunList`), or ``None``.
    """

    runs: int
    decided_runs: int
    decided_processes: int
    crashed_processes: int
    messages_sent: int
    messages_delivered: int
    total_virtual_time: float
    max_virtual_time: float
    decision_values: Tuple[Tuple[str, int], ...]
    payload_sent: int = 0
    payload_delivered: int = 0
    pool_fallback: Optional[str] = field(default=None, compare=False, repr=False)

    @property
    def mean_virtual_time(self) -> float:
        return self.total_virtual_time / self.runs if self.runs else 0.0


def aggregate_amp(results: Sequence["AmpRunResult"]) -> MultiRunStats:
    """Fold a list of :class:`~repro.amp.network.AmpRunResult` into stats."""
    decided_runs = 0
    decided_processes = 0
    crashed_processes = 0
    messages_sent = 0
    messages_delivered = 0
    payload_sent = 0
    payload_delivered = 0
    total_time = 0.0
    max_time = 0.0
    values: Dict[str, int] = {}
    for result in results:
        decided = sum(result.decided)
        decided_processes += decided
        if decided:
            decided_runs += 1
        crashed_processes += len(result.crashed)
        messages_sent += result.messages_sent
        messages_delivered += result.messages_delivered
        payload_sent += getattr(result, "payload_sent", 0)
        payload_delivered += getattr(result, "payload_delivered", 0)
        total_time += result.final_time
        max_time = max(max_time, result.final_time)
        for value, did in zip(result.outputs, result.decided):
            if did:
                key = repr(value)
                values[key] = values.get(key, 0) + 1
    return MultiRunStats(
        runs=len(results),
        decided_runs=decided_runs,
        decided_processes=decided_processes,
        crashed_processes=crashed_processes,
        messages_sent=messages_sent,
        messages_delivered=messages_delivered,
        total_virtual_time=total_time,
        max_virtual_time=max_time,
        decision_values=tuple(sorted(values.items())),
        payload_sent=payload_sent,
        payload_delivered=payload_delivered,
        pool_fallback=getattr(results, "fallback_reason", None),
    )


@dataclass(frozen=True)
class MultiReportStats:
    """Aggregate over shared-memory :class:`~repro.shm.runtime.RunReport`s.

    ``pool_fallback``: same side channel as on :class:`MultiRunStats`.
    """

    runs: int
    completed_processes: int
    crashed_processes: int
    total_steps: int
    stopped_reasons: Tuple[Tuple[str, int], ...]
    output_values: Tuple[Tuple[str, int], ...]
    pool_fallback: Optional[str] = field(default=None, compare=False, repr=False)


def aggregate_shm(reports: Sequence["RunReport"]) -> MultiReportStats:
    """Fold a list of :class:`~repro.shm.runtime.RunReport` into stats."""
    completed = 0
    crashed = 0
    total_steps = 0
    reasons: Dict[str, int] = {}
    values: Dict[str, int] = {}
    for report in reports:
        completed += len(report.completed())
        crashed += len(report.crashed)
        total_steps += report.total_steps
        reasons[report.stopped_reason] = reasons.get(report.stopped_reason, 0) + 1
        for output in report.outputs.values():
            key = repr(output)
            values[key] = values.get(key, 0) + 1
    return MultiReportStats(
        runs=len(reports),
        completed_processes=completed,
        crashed_processes=crashed,
        total_steps=total_steps,
        stopped_reasons=tuple(sorted(reasons.items())),
        output_values=tuple(sorted(values.items())),
        pool_fallback=getattr(reports, "fallback_reason", None),
    )
