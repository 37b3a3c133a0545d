"""The bounded search engine: dedup, sleep sets, budgets, verdicts.

One loop serves both exhaustive strategies (BFS/DFS differ only in
which end of the frontier they pop).  Two reductions keep it tractable:

* **visited-set dedup** — configurations are keyed by their canonical
  fingerprint (interned, hash-consing style); a revisited state is not
  re-expanded.  This alone collapses the naive schedule *tree* (every
  interleaving spelled out) to the configuration *graph*.
* **sleep sets** (Godefroid) — when two enabled choices commute
  (:meth:`~repro.explore.model.ExplorationModel.independent`), only one
  of their two orders is executed; the other is put to sleep in the
  child.  Combined with state caching this needs the classic fix:
  the sleep set is stored with each visited state, and a revisit with a
  *smaller* sleep set wakes exactly the stored-minus-new choices.
  Sleep sets preserve every reachable state — the reduction is purely
  in transitions — provided two things hold: choice labels are stable
  (the same move carries the same label on every path to a
  configuration: shm pids, AMP message contents, grid axes), and
  ``independent`` is sound (two choices it calls independent commute
  and neither disables the other; docs/EXPLORER.md, "Sleep sets and
  soundness").

Properties (:mod:`repro.explore.properties`) are checked once per
unique state; the first violation's schedule is materialized into a
replayable :class:`~repro.explore.counterexample.Counterexample`.

The dedup/revisit rule and the child-sleep computation are factored
into :class:`VisitedStore` and :func:`child_sleep_set`.  ``spill_dir=``
swaps the visited backing for a disk-spilling LRU store
(:class:`~repro.explore.spill.SpillDict`), so the search is bounded by
disk rather than RAM.

:func:`state_graph` is the unreduced enumeration (config →
successors), kept for clients that need the whole graph — the
bivalence/valence analyses of :mod:`repro.shm.bivalence` run on it.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.exceptions import ConfigurationError, SimulationLimitExceeded
from .counterexample import Counterexample
from .model import Choice, Config, ExplorationModel, Interner
from .properties import Property
from .strategies import BFS, DFS, RandomWalk, Strategy


@dataclass
class ExploreStats:
    """Search effort accounting (the currency of EXPERIMENTS.md A5/A10)."""

    states: int = 0           #: unique configurations visited
    transitions: int = 0      #: model.step executions
    deduped: int = 0          #: frontier entries killed by the visited set
    sleep_pruned: int = 0     #: enabled choices skipped by sleep sets
    terminals: int = 0        #: configurations with no enabled choice
    max_depth_seen: int = 0   #: longest schedule prefix reached
    elapsed: float = 0.0      #: wall-clock seconds
    spilled: int = 0          #: visited entries evicted to the disk store

    def states_per_second(self) -> float:
        # Clamped, not inf: a sub-millisecond run can legitimately see a
        # zero-duration clock, and "inf states/s" in a report is noise.
        return self.states / self.elapsed if self.elapsed > 0 else 0.0


class VisitedStore:
    """The dedup seam: fingerprint → stored sleep set, with the revisit rule.

    Encapsulates the one stateful decision of the search — *have we been
    here, and with which sleep set?* — so the in-memory and disk-spill
    backings share one implementation of Godefroid's state-caching fix:

    * first visit: store the sleep set, explore ``enabled - sleep``;
    * revisit with a smaller sleep set: the stored-minus-new choices
      were slept when this state was expanded but are awake now — they
      must be (re)explored or the reduction would miss their futures;
      the stored set shrinks to the intersection;
    * revisit with nothing to wake: pure dedup.

    ``backing`` is any mapping with ``get``/``__setitem__``/``__len__``
    — a plain dict (default) or a :class:`~repro.explore.spill.SpillDict`
    when the visited set must not be RAM-bound.
    """

    _MISSING = object()

    def __init__(self, backing=None) -> None:
        self._store = {} if backing is None else backing

    def __len__(self) -> int:
        return len(self._store)

    def visit(
        self, fingerprint: Hashable, sleep: FrozenSet[Choice]
    ) -> Tuple[bool, Optional[FrozenSet[Choice]]]:
        """Returns ``(first_visit, wake)``.

        ``(True, None)`` — new state, now stored with ``sleep``;
        ``(False, wake)`` — revisit: ``wake`` is the set of stored-but-
        no-longer-slept choices (empty = plain dedup, nothing to do).
        """
        stored = self._store.get(fingerprint, self._MISSING)
        if stored is self._MISSING:
            self._store[fingerprint] = sleep
            return True, None
        wake = stored - sleep
        if wake:
            self._store[fingerprint] = stored & sleep
        return False, wake


def child_sleep_set(
    model: ExplorationModel,
    config: Config,
    sleep: FrozenSet[Choice],
    executed: Sequence[Choice],
    choice: Choice,
) -> FrozenSet[Choice]:
    """The sleep set a child inherits (the other half of the seam).

    A sibling choice stays asleep in ``choice``'s child iff it commutes
    with ``choice`` from here — both orders reach the same state, and
    the other order is (or will be) explored from a sibling branch.
    """
    return frozenset(
        other
        for other in (set(sleep) | set(executed))
        if model.independent(config, other, choice)
    )


@dataclass
class Violation:
    """One property failure, located by its schedule."""

    property: str
    message: str
    schedule: Tuple[Choice, ...]
    counterexample: Optional[Counterexample] = None

    def report(self) -> str:
        lines = [f"{self.property}: {self.message}"]
        if self.counterexample is not None:
            lines.append(self.counterexample.report())
        else:
            lines.append(f"  schedule: {list(self.schedule)!r}")
        return "\n".join(lines)


@dataclass
class ExploreResult:
    """Everything one search run established."""

    ok: bool                      #: no property violated
    complete: bool                #: the search exhausted the state space
    violations: List[Violation]
    stats: ExploreStats
    strategy: str

    def report(self) -> str:
        rate = self.stats.states_per_second()
        head = (
            f"[{self.strategy}] "
            f"{'OK' if self.ok else f'{len(self.violations)} violation(s)'}"
            f"{' (exhaustive)' if self.complete else ' (bounded)'} — "
            f"{self.stats.states} states, {self.stats.transitions} transitions, "
            f"{self.stats.deduped} deduped, {self.stats.sleep_pruned} slept"
            + (f", {rate:,.0f} states/s" if rate > 0 else "")
        )
        return "\n".join([head] + [v.report() for v in self.violations])


class Explorer:
    """Drives one strategy over one model, checking properties.

    Parameters
    ----------
    model:
        The kernel adapter (see :mod:`repro.explore.model`).
    properties:
        :class:`~repro.explore.properties.Property` instances; checked
        once per unique configuration (invariants) or per terminal
        configuration (eventualities).
    strategy:
        :class:`~repro.explore.strategies.BFS` (default),
        :class:`~repro.explore.strategies.DFS`, or
        :class:`~repro.explore.strategies.RandomWalk`.
    reduce:
        Enable the sleep-set reduction (on by default; harmless when a
        model's ``independent`` is the always-``False`` default).
    stop_on_first:
        Stop at the first violation (default) instead of collecting all.
    spill_dir:
        When set, back the visited set with a
        :class:`~repro.explore.spill.SpillDict` in this directory so the
        search is no longer RAM-bound (``spill_entries`` caps the hot
        cache).  Evictions show up as ``stats.spilled``.
    """

    def __init__(
        self,
        model: ExplorationModel,
        properties: Sequence[Property] = (),
        strategy: Optional[Strategy] = None,
        reduce: bool = True,
        stop_on_first: bool = True,
        spill_dir: Optional[str] = None,
        spill_entries: int = 200_000,
    ) -> None:
        self.model = model
        self.properties = list(properties)
        self.strategy = strategy if strategy is not None else BFS()
        self.reduce = reduce
        self.stop_on_first = stop_on_first
        self.spill_dir = spill_dir
        self.spill_entries = spill_entries

    # -- entry point -------------------------------------------------------

    def run(self) -> ExploreResult:
        start = time.perf_counter()
        if isinstance(self.strategy, RandomWalk):
            result = self._run_walks(self.strategy)
        else:
            result = self._run_exhaustive(self.strategy)
        result.stats.elapsed = time.perf_counter() - start
        return result

    # -- shared property plumbing -----------------------------------------

    def _check_state(
        self, config: Config, schedule: Tuple[Choice, ...],
        violations: List[Violation],
    ) -> bool:
        """Run on_state checks; returns True when the search must stop."""
        for prop in self.properties:
            message = prop.on_state(self.model, config)
            if message is not None:
                violations.append(
                    self._violation(prop.name, message, schedule)
                )
                if self.stop_on_first:
                    return True
        return False

    def _check_terminal(
        self, config: Config, schedule: Tuple[Choice, ...],
        violations: List[Violation],
    ) -> bool:
        for prop in self.properties:
            message = prop.on_terminal(self.model, config)
            if message is not None:
                violations.append(
                    self._violation(prop.name, message, schedule)
                )
                if self.stop_on_first:
                    return True
        return False

    def _violation(
        self, name: str, message: str, schedule: Tuple[Choice, ...]
    ) -> Violation:
        try:
            counterexample = self.model.counterexample(schedule)
        except ConfigurationError:
            counterexample = None
        return Violation(
            property=name, message=message, schedule=schedule,
            counterexample=counterexample,
        )

    # -- exhaustive BFS/DFS with dedup + sleep sets ------------------------

    def _run_exhaustive(self, strategy: Strategy) -> ExploreResult:
        model = self.model
        stats = ExploreStats()
        violations: List[Violation] = []
        intern = Interner()
        backing = None
        if self.spill_dir is not None:
            from .spill import SpillDict

            os.makedirs(self.spill_dir, exist_ok=True)
            backing = SpillDict(
                os.path.join(self.spill_dir, "visited.sqlite"),
                max_entries=self.spill_entries,
            )
        #: fingerprint → the sleep set this state was (last) expanded with.
        visited = VisitedStore(backing)
        empty: FrozenSet[Choice] = frozenset()
        frontier: deque = deque()
        frontier.append((model.initial(), (), empty))
        pop = frontier.pop if isinstance(strategy, DFS) else frontier.popleft
        complete = True
        stopped = False

        while frontier and not stopped:
            config, schedule, sleep = pop()
            fingerprint = intern(model.fingerprint(config))
            depth = len(schedule)
            if depth > stats.max_depth_seen:
                stats.max_depth_seen = depth

            first, wake = visited.visit(
                fingerprint, sleep if self.reduce else empty
            )
            if first:
                if len(visited) > strategy.max_states:
                    complete = False
                    break
                stopped = self._check_state(config, schedule, violations)
                if stopped:
                    break
                enabled = model.enabled(config)
                if not enabled:
                    stats.terminals += 1
                    stopped = self._check_terminal(config, schedule, violations)
                    continue
                if self.reduce:
                    to_explore = [c for c in enabled if c not in sleep]
                    stats.sleep_pruned += len(enabled) - len(to_explore)
                else:
                    to_explore = list(enabled)
            else:
                if not wake:
                    stats.deduped += 1
                    continue
                # Revisit with a smaller sleep set: the choices slept on
                # the first visit but awake now must be explored, or the
                # reduction would miss their futures (Godefroid's
                # state-caching fix — see VisitedStore.visit).
                to_explore = [c for c in model.enabled(config) if c in wake]

            if strategy.max_depth is not None and depth >= strategy.max_depth:
                if to_explore:
                    complete = False  # cut branches: the verdict is bounded
                continue

            executed: List[Choice] = []
            for choice in to_explore:
                child = model.step(config, choice)
                stats.transitions += 1
                if self.reduce:
                    child_sleep = child_sleep_set(
                        model, config, sleep, executed, choice
                    )
                else:
                    child_sleep = empty
                frontier.append((child, schedule + (choice,), child_sleep))
                executed.append(choice)

        stats.states = len(visited)
        if backing is not None:
            stats.spilled = backing.spilled
            backing.close()
        if stopped or violations:
            complete = False
        return ExploreResult(
            ok=not violations,
            complete=complete,
            violations=violations,
            stats=stats,
            strategy=strategy.name + ("+sleep" if self.reduce else ""),
        )

    # -- seeded random walks ----------------------------------------------

    def _run_walks(self, strategy: RandomWalk) -> ExploreResult:
        model = self.model
        stats = ExploreStats()
        violations: List[Violation] = []
        intern = Interner()
        seen: set = set()
        rng = strategy.rng()
        stopped = False

        for _ in range(strategy.walks):
            if stopped:
                break
            config = model.initial()
            schedule: Tuple[Choice, ...] = ()
            for depth in range(strategy.max_depth + 1):
                if depth > stats.max_depth_seen:
                    stats.max_depth_seen = depth
                fingerprint = intern(model.fingerprint(config))
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    if len(seen) > strategy.max_states:
                        stopped = True
                        break
                    if self._check_state(config, schedule, violations):
                        stopped = True
                        break
                else:
                    stats.deduped += 1
                enabled = model.enabled(config)
                if not enabled:
                    stats.terminals += 1
                    if self._check_terminal(config, schedule, violations):
                        stopped = True
                    break
                if depth >= strategy.max_depth:
                    break
                choice = enabled[rng.randrange(len(enabled))]
                config = model.step(config, choice)
                stats.transitions += 1
                schedule = schedule + (choice,)

        stats.states = len(seen)
        return ExploreResult(
            ok=not violations,
            complete=False,  # sampling proves nothing exhaustively
            violations=violations,
            stats=stats,
            strategy=strategy.name,
        )


def explore(
    model: ExplorationModel,
    properties: Sequence[Property] = (),
    strategy: Optional[Strategy] = None,
    reduce: bool = True,
    stop_on_first: bool = True,
    spill_dir: Optional[str] = None,
    spill_entries: int = 200_000,
) -> ExploreResult:
    """One-call front door: build an :class:`Explorer` and run it.

    ``reduce=True`` (sleep sets) and ``reduce=False`` visit the same
    states on every shipped model; the reduction only skips transitions.
    """
    return Explorer(
        model, properties=properties, strategy=strategy,
        reduce=reduce, stop_on_first=stop_on_first,
        spill_dir=spill_dir, spill_entries=spill_entries,
    ).run()


def state_graph(
    model: ExplorationModel, max_states: int = 2_000_000
) -> Dict[Config, List[Tuple[Choice, Config]]]:
    """The full configuration graph: config → ``[(choice, successor)]``.

    No reduction — valence and cycle analyses need every edge
    (:mod:`repro.shm.bivalence` runs on this).  Configurations are used
    as keys directly, so the model's configurations must be hashable
    and canonical (true for the shm and AMP adapters, whose fingerprint
    *is* the configuration).
    """
    initial = model.initial()
    graph: Dict[Config, List[Tuple[Choice, Config]]] = {}
    frontier: List[Config] = [initial]
    while frontier:
        config = frontier.pop()
        if config in graph:
            continue
        successors = [
            (choice, model.step(config, choice))
            for choice in model.enabled(config)
        ]
        graph[config] = successors
        if len(graph) > max_states:
            raise SimulationLimitExceeded(
                f"exploration exceeded {max_states} configurations"
            )
        for _, nxt in successors:
            if nxt not in graph:
                frontier.append(nxt)
    return graph
