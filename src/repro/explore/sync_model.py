"""Synchronous adapter: branching on the message adversary's choices.

A synchronous run is deterministic except for the message adversary
(§3.3): at each round the daemon picks which sent messages survive.
The adapter turns exactly that into the exploration branching — a
choice is one legal delivered-edge set for the current round, drawn
from a caller-supplied candidate generator (the model stays bounded
because the generator enumerates a finite menu, e.g. "drop at most one
message", not the full powerset).

Unlike the shm and AMP adapters, the search is stateless: a
configuration is the tuple of adversary choices so far, re-executed
through the real :class:`~repro.sync.kernel.SynchronousRunner` with a
probing adversary that replays the prefix and then captures the next
round's send set (so ``enabled`` sees real sends, not a guess).

Rounds are sequential — there is nothing to commute — so
``independent`` stays ``False`` and the gains come from fingerprint
dedup (two histories that suppressed different messages can still
converge to the same global state).

Counterexamples re-run under :class:`ScriptedAdversary` with a sink;
synchronous runs are deterministic given the adversary, so replay is
re-execution, checked by trace-hash equality.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.exceptions import ConfigurationError
from ..sync.adversary import MessageAdversary
from ..sync.kernel import SyncAlgorithm, SynchronousRunner
from ..sync.topology import Topology
from ..trace.events import TraceEvent, trace_hash
from ..trace.sink import MemorySink
from .counterexample import Counterexample
from .model import ExplorationModel, Interner

DirectedEdge = Tuple[int, int]
#: A choice: the delivered edges of one round, canonically sorted.
Choice = Tuple[DirectedEdge, ...]
Prefix = Tuple[Choice, ...]

#: ``choices_fn(round_no, sends, states, topology)`` → candidate
#: delivered-edge sets for the round (each a subset of ``sends``).
ChoicesFn = Callable[
    [int, FrozenSet[DirectedEdge], Sequence[object], Topology],
    Sequence[FrozenSet[DirectedEdge]],
]


def deliver_all_choices(round_no, sends, states, topology):
    """The degenerate menu: no suppression (``adv:∅``) — one branch."""
    return [sends]


def drop_one_choices(round_no, sends, states, topology):
    """Deliver everything, or suppress exactly one message."""
    menu = [sends]
    for edge in sorted(sends):
        menu.append(sends - {edge})
    return menu


class ScriptedAdversary(MessageAdversary):
    """Replay recorded per-round choices; deliver everything afterwards.

    Each scripted round's choice is intersected with the actual send
    set, so a replayed script can never create messages (the kernel
    rejects that as a :class:`~repro.core.exceptions.ModelViolation`).
    """

    def __init__(self, rounds: Sequence[Sequence[DirectedEdge]]) -> None:
        self._rounds = [frozenset(choice) for choice in rounds]
        self._next = 0

    def filter(self, round_no, sends, states, topology):
        if self._next < len(self._rounds):
            choice = self._rounds[self._next]
            self._next += 1
            return choice & sends
        return sends

    def describe(self) -> str:
        return f"ScriptedAdversary({len(self._rounds)} rounds)"


class _ProbeStop(Exception):
    """Internal: the probing adversary reached the frontier round."""


class _ProbeAdversary(MessageAdversary):
    """Replays a prefix, then captures the next round's send set."""

    def __init__(self, script: Sequence[Choice]) -> None:
        self._script = [frozenset(choice) for choice in script]
        self._next = 0
        self.captured: Optional[
            Tuple[int, FrozenSet[DirectedEdge], Tuple[object, ...]]
        ] = None

    def filter(self, round_no, sends, states, topology):
        if self._next < len(self._script):
            choice = self._script[self._next]
            self._next += 1
            illegal = choice - sends
            if illegal:
                raise ConfigurationError(
                    f"scripted round {round_no} delivers unsent edges "
                    f"{sorted(illegal)}"
                )
            return choice
        self.captured = (round_no, sends, tuple(repr(s) for s in states))
        raise _ProbeStop()


class _Materialized:
    """What one prefix re-execution established."""

    __slots__ = ("terminal", "runner", "result", "round_no", "sends", "states")

    def __init__(self, terminal, runner, result, round_no, sends, states):
        self.terminal = terminal
        self.runner = runner
        self.result = result
        self.round_no = round_no
        self.sends = sends
        self.states = states


class SyncAdversaryModel(ExplorationModel):
    """Every adversary behavior (from a candidate menu) of a sync run."""

    kernel = "sync"

    def __init__(
        self,
        topology: Topology,
        algorithm_factory: Callable[[], Sequence[SyncAlgorithm]],
        inputs: Sequence[object],
        choices_fn: ChoicesFn = drop_one_choices,
        max_rounds: int = 64,
    ) -> None:
        self.topology = topology
        self.algorithm_factory = algorithm_factory
        self.inputs = tuple(inputs)
        self.n = topology.n
        self.choices_fn = choices_fn
        self.max_rounds = max_rounds
        self._intern = Interner()
        self._cache: Dict[Prefix, _Materialized] = {}

    # -- stateless materialization ----------------------------------------

    def _materialize(self, prefix: Prefix) -> _Materialized:
        hit = self._cache.get(prefix)
        if hit is not None:
            return hit
        probe = _ProbeAdversary(prefix)
        runner = SynchronousRunner(
            self.topology,
            list(self.algorithm_factory()),
            self.inputs,
            adversary=probe,
            max_rounds=self.max_rounds,
        )
        try:
            result = runner.run()
        except _ProbeStop:
            round_no, sends, states = probe.captured
            materialized = _Materialized(
                False, runner, None, round_no, sends, states
            )
        else:
            materialized = _Materialized(
                True, runner, result, None, frozenset(), ()
            )
        # Keep only the most recent materializations (runner objects are
        # heavy; the engine's access pattern is strongly local).
        if len(self._cache) >= 8:
            self._cache.clear()
        self._cache[prefix] = materialized
        return materialized

    # -- the model contract ------------------------------------------------

    def initial(self) -> Prefix:
        return ()

    def enabled(self, prefix: Prefix) -> List[Choice]:
        materialized = self._materialize(prefix)
        if materialized.terminal:
            return []
        menu = self.choices_fn(
            materialized.round_no,
            materialized.sends,
            materialized.states,
            self.topology,
        )
        choices: List[Choice] = []
        seen = set()
        for candidate in menu:
            candidate = frozenset(candidate)
            illegal = candidate - materialized.sends
            if illegal:
                raise ConfigurationError(
                    f"choices_fn created messages on {sorted(illegal)}"
                )
            canonical = tuple(sorted(candidate))
            if canonical not in seen:
                seen.add(canonical)
                choices.append(canonical)
        return choices

    def step(self, prefix: Prefix, choice: Choice) -> Prefix:
        return prefix + (choice,)

    def fingerprint(self, prefix: Prefix):
        materialized = self._materialize(prefix)
        contexts = tuple(
            (ctx.decided, repr(ctx.output), ctx.halted)
            for ctx in materialized.runner.contexts
        )
        if materialized.terminal:
            return self._intern(("terminal", contexts))
        return self._intern((
            materialized.states,
            tuple(sorted(materialized.sends)),
            contexts,
        ))

    def decisions(self, prefix: Prefix) -> Dict[int, object]:
        materialized = self._materialize(prefix)
        return {
            pid: ctx.output
            for pid, ctx in enumerate(materialized.runner.contexts)
            if ctx.decided
        }

    def describe_choice(self, choice: Choice) -> str:
        return f"deliver {list(choice)}"

    # -- counterexamples ---------------------------------------------------

    def counterexample(self, schedule: Sequence[Choice]) -> Counterexample:
        events = self._record(schedule)
        topology = self.topology
        factory, inputs = self.algorithm_factory, self.inputs
        max_rounds = self.max_rounds
        script = tuple(schedule)

        def replayer() -> List[TraceEvent]:
            sink = MemorySink()
            SynchronousRunner(
                topology, list(factory()), inputs,
                adversary=ScriptedAdversary(script),
                max_rounds=max_rounds, sink=sink,
            ).run()
            return sink.events

        return Counterexample(
            kernel="sync",
            schedule=script,
            events=events,
            trace_hash=trace_hash(events),
            _replayer=replayer,
            described=tuple(self.describe_choice(c) for c in schedule),
        )

    def _record(self, schedule: Sequence[Choice]) -> List[TraceEvent]:
        sink = MemorySink()
        SynchronousRunner(
            self.topology,
            list(self.algorithm_factory()),
            self.inputs,
            adversary=ScriptedAdversary(tuple(schedule)),
            max_rounds=self.max_rounds,
            sink=sink,
        ).run()
        return sink.events
