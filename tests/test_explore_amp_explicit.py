"""The explicit-state AmpModel against the prefix-replay model it replaced.

Until configurations became explicit values, ``AmpModel`` explored
statelessly: a configuration was a schedule prefix, re-executed from
fresh ``factory()`` processes (behind an 8-entry LRU), fingerprinted by
sha256 over the ``repr`` of every process attribute, with choices
labelled by send sequence numbers.  That model and its runtime are kept
below verbatim, apart from their class names, as ``ReferenceAmpModel``
and ``ReferenceAmpRuntime``.  The explicit-state model must find the
same reachable states, the same terminal configurations and the same
terminal decisions on every case.

Transitions are equal too, except where two pending copies of one
message can exist (the ``dup`` cases): the reference offered one choice
per copy, content labels offer one per distinct message, since either
copy reaches the same configuration.
"""

import copy
import hashlib
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pytest

from repro.amp.network import AsyncProcess, AsyncRuntime, FixedDelay
from repro.amp.scd import ScdBroadcast, ScdNode
from repro.core.exceptions import ConfigurationError, ModelViolation
from repro.core.volume import payload_units
from repro.explore import (
    AmpExplorationRuntime,
    AmpModel,
    Eventually,
    FloodMinProcess,
    QuorumAcceptor,
    QuorumProposer,
    explore,
    make_flood_min,
    make_quorum_commit,
    make_scd_nodes,
    state_graph,
)
from repro.explore.counterexample import Counterexample
from repro.explore.model import ExplorationModel, Interner
from repro.trace.events import TraceEvent, trace_hash
from repro.trace.replay import replay
from repro.trace.sink import MemorySink, TraceSink

Choice = Tuple
Prefix = Tuple[Choice, ...]

#: Materialized runtimes kept by the prefix LRU (BFS siblings share a
#: parent prefix, so a handful of entries catches most re-materializations).
MATERIALIZATION_CACHE_SIZE = 8


class ReferenceAmpRuntime(AsyncRuntime):
    """An :class:`AsyncRuntime` whose event loop is externalized.

    ``_send`` parks messages in :attr:`pending` (keyed by a
    deterministic send sequence number) instead of scheduling a
    delivery; :meth:`apply` executes one exploration choice.  Virtual
    time advances by 1.0 per applied choice, so recorded traces carry
    a well-defined, replayable time axis.
    """

    def __init__(
        self,
        processes: Sequence[AsyncProcess],
        seed: int = 0,
        sink: Optional[TraceSink] = None,
        recovery_enabled: bool = False,
    ) -> None:
        super().__init__(
            processes,
            delay_model=FixedDelay(1.0),
            seed=seed,
            quiesce_when_decided=True,
            sink=sink,
        )
        #: send_seq → (src, dst, payload, units), undelivered messages
        self.pending: Dict[int, Tuple[int, int, object, int]] = {}
        #: timer_seq → (pid, name), unfired timers
        self.pending_timers: Dict[int, Tuple[int, object]] = {}
        self._send_counter = 0
        self._timer_counter = 0
        self.losses = 0
        self.duplicated = 0
        self.recovery_enabled = recovery_enabled
        if recovery_enabled:
            # Recovery restores constructed state, so snapshot everyone
            # (any live process may crash-then-recover during the search).
            self._initial_state = {
                pid: copy.deepcopy(vars(self.processes[pid]))
                for pid in range(self.n)
            }

    # -- protocol-facing plumbing (parked, not scheduled) ------------------

    def _send(
        self, src: int, dst: int, payload: object, units: Optional[int] = None
    ) -> Optional[int]:
        if not 0 <= dst < self.n:
            raise ModelViolation(f"process {src} sent to unknown process {dst}")
        if src in self.crashed:
            return None
        if units is None:
            units = payload_units(payload)
        seq = self._send_counter
        self._send_counter += 1
        self.pending[seq] = (src, dst, payload, units)
        self.messages_sent += 1
        self.payload_sent += units
        if self._sink is not None:
            self._sink.amp_send(seq, src, dst, payload, units, self.now)
        return units

    def _set_timer(self, pid: int, delay: float, name: object) -> None:
        if delay < 0:
            raise ConfigurationError("timer delay must be >= 0")
        seq = self._timer_counter
        self._timer_counter += 1
        self.pending_timers[seq] = (pid, name)
        if self._sink is not None:
            self._sink.amp_timer_set(seq, pid)

    def run(self, until=None):  # pragma: no cover - misuse guard
        raise ConfigurationError(
            "ReferenceAmpRuntime is driven by apply(); it has no event loop"
        )

    # -- exploration controls ---------------------------------------------

    def start(self) -> None:
        """Run every live process's ``on_start`` (time 0)."""
        self._started = True
        for pid in range(self.n):
            if pid not in self.crashed:
                self.processes[pid].on_start(self.contexts[pid])

    def apply(self, choice: Choice) -> None:
        """Execute one exploration choice (one tick of virtual time)."""
        self.now += 1.0
        kind = choice[0]
        if kind == "deliver":
            seq = choice[1]
            if seq not in self.pending:
                raise ConfigurationError(f"no pending send #{seq}")
            src, dst, payload, units = self.pending.pop(seq)
            if dst in self.crashed or self.contexts[dst].halted:
                raise ConfigurationError(f"delivery to dead process {dst}")
            self.messages_delivered += 1
            self.payload_delivered += units
            if self._sink is not None:
                self._sink.amp_deliver(seq, src, dst, payload, self.now)
            self.processes[dst].on_message(self.contexts[dst], src, payload)
        elif kind == "timer":
            seq = choice[1]
            if seq not in self.pending_timers:
                raise ConfigurationError(f"no pending timer #{seq}")
            pid, name = self.pending_timers.pop(seq)
            if self._sink is not None:
                self._sink.amp_timer(seq, pid, name, self.now)
            self.processes[pid].on_timer(self.contexts[pid], name)
        elif kind == "crash":
            pid = choice[1]
            if pid in self.crashed:
                raise ConfigurationError(f"process {pid} crashed twice")
            self.crashed.add(pid)
            if self._sink is not None:
                self._sink.amp_crash(pid, self.now)
            if self.recovery_enabled:
                # Timers are volatile: they die with the incarnation, and
                # must not fire for a future recovered one.
                for seq in sorted(self.pending_timers):
                    if self.pending_timers[seq][0] == pid:
                        del self.pending_timers[seq]
                        if self._sink is not None:
                            self._sink.amp_drop_timer(seq, self.now, reason="stale")
        elif kind == "lose":
            seq = choice[1]
            if seq not in self.pending:
                raise ConfigurationError(f"no pending send #{seq}")
            del self.pending[seq]
            self.losses += 1
            if self._sink is not None:
                self._sink.amp_drop(seq, self.now, reason="loss")
        elif kind == "dup":
            seq = choice[1]
            if seq not in self.pending:
                raise ConfigurationError(f"no pending send #{seq}")
            copy_seq = self._send_counter
            self._send_counter += 1
            # The copy shares the original's payload (and, in the trace,
            # its send_seq — the protocol only sent once).
            self.pending[copy_seq] = self.pending[seq]
            self.duplicated += 1
            if self._sink is not None:
                self._sink.amp_send_dup(copy_seq, seq)
        elif kind == "recover":
            pid = choice[1]
            if pid not in self.crashed:
                raise ConfigurationError(f"process {pid} is not crashed")
            self._handle_recover(pid)
        else:
            raise ConfigurationError(f"unknown exploration choice {choice!r}")


class ReferenceAmpModel(ExplorationModel):
    """Every delivery order (and crash pattern) of an AMP protocol.

    Parameters
    ----------
    factory:
        Zero-argument callable returning fresh process instances — one
        list per materialization (processes are stateful).
    seed:
        The runtime seed (feeds per-process RNGs); recorded
        counterexamples replay with the same seed.
    max_crashes:
        The model's ``t``: how many ``("crash", pid)`` choices the
        adversary may take (0 = crash-free exploration).  With
        ``allow_recovery`` this bounds the *concurrently* crashed set.
    max_losses:
        How many ``("lose", …)`` choices the link adversary may take
        (0 = reliable links, the default).
    max_duplications:
        How many ``("dup", …)`` choices the link adversary may take.
    allow_recovery:
        Offer ``("recover", pid)`` for crashed processes (each pid at
        most once per run).  Recovery wipes volatile state back to the
        constructed snapshot; only ``ctx.stable`` survives.

    Configurations where every live process has decided or halted are
    terminal even if messages remain in flight: their deliveries can no
    longer change any output.  Only ``("recover", pid)`` choices stay
    enabled there.  Materialized runtimes go through an LRU of
    :data:`MATERIALIZATION_CACHE_SIZE` prefixes.
    """

    kernel = "amp"

    def __init__(
        self,
        factory: Callable[[], Sequence[AsyncProcess]],
        seed: int = 0,
        max_crashes: int = 0,
        max_losses: int = 0,
        max_duplications: int = 0,
        allow_recovery: bool = False,
    ) -> None:
        if max_crashes < 0:
            raise ConfigurationError("max_crashes must be >= 0")
        if max_losses < 0 or max_duplications < 0:
            raise ConfigurationError("loss/duplication budgets must be >= 0")
        if allow_recovery and max_crashes == 0:
            raise ConfigurationError("allow_recovery needs max_crashes >= 1")
        self.factory = factory
        self.seed = seed
        self.max_crashes = max_crashes
        self.max_losses = max_losses
        self.max_duplications = max_duplications
        self.allow_recovery = allow_recovery
        self.n = len(list(factory()))
        self._intern = Interner()
        self._cache: "OrderedDict[Prefix, ReferenceAmpRuntime]" = OrderedDict()

    # -- stateless materialization ----------------------------------------

    def _materialize(self, prefix: Prefix) -> ReferenceAmpRuntime:
        runtime = self._cache.get(prefix)
        if runtime is not None:
            self._cache.move_to_end(prefix)
            return runtime
        runtime = ReferenceAmpRuntime(
            list(self.factory()),
            seed=self.seed,
            recovery_enabled=self.allow_recovery,
        )
        runtime.start()
        for choice in prefix:
            runtime.apply(choice)
        self._cache[prefix] = runtime
        while len(self._cache) > MATERIALIZATION_CACHE_SIZE:
            self._cache.popitem(last=False)
        return runtime

    # -- the model contract ------------------------------------------------

    def initial(self) -> Prefix:
        return ()

    def enabled(self, prefix: Prefix) -> List[Choice]:
        runtime = self._materialize(prefix)
        choices: List[Choice] = []
        if not runtime._all_settled():
            for seq in sorted(runtime.pending):
                dst = runtime.pending[seq][1]
                if dst not in runtime.crashed and not runtime.contexts[dst].halted:
                    choices.append(("deliver", seq, dst))
                if runtime.losses < self.max_losses:
                    choices.append(("lose", seq, dst))
                if runtime.duplicated < self.max_duplications:
                    choices.append(("dup", seq, dst))
            for seq in sorted(runtime.pending_timers):
                pid, _ = runtime.pending_timers[seq]
                if pid not in runtime.crashed and not runtime.contexts[pid].halted:
                    choices.append(("timer", seq, pid))
            if len(runtime.crashed) < self.max_crashes:
                for pid in range(self.n):
                    if pid not in runtime.crashed:
                        choices.append(("crash", pid))
        if self.allow_recovery:
            # Recovery stays on the menu even in settled configurations:
            # a recovered process may un-settle the run (that branch is
            # exactly where memory-only protocols break).
            for pid in sorted(runtime.crashed):
                if pid not in runtime.recovered:
                    choices.append(("recover", pid))
        return choices

    def step(self, prefix: Prefix, choice: Choice) -> Prefix:
        return prefix + (choice,)

    def fingerprint(self, prefix: Prefix) -> str:
        runtime = self._materialize(prefix)
        parts: List[object] = []
        for pid in range(self.n):
            parts.append(sorted(
                (k, repr(v)) for k, v in vars(runtime.processes[pid]).items()
            ))
            ctx = runtime.contexts[pid]
            parts.append((ctx.decided, repr(ctx.output), ctx.halted))
            rng = runtime._proc_rngs.get(pid)
            if rng is not None:
                parts.append(repr(rng.getstate()))
        parts.append(sorted(runtime.crashed))
        parts.append(sorted(runtime.recovered))
        parts.append((runtime.losses, runtime.duplicated))
        parts.append([
            sorted(
                (repr(k), repr(v))
                for k, v in runtime.storages[pid].snapshot().items()
            )
            for pid in range(self.n)
        ])
        parts.append(sorted(
            (src, dst, repr(payload))
            for (src, dst, payload, _) in runtime.pending.values()
        ))
        parts.append(sorted(
            (pid, repr(name)) for (pid, name) in runtime.pending_timers.values()
        ))
        digest = hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()
        return self._intern(digest)

    def processes(self, prefix: Prefix) -> List[AsyncProcess]:
        """The materialized process objects after ``prefix``.

        Read-only by contract: properties inspect protocol state the
        processes expose (delivery histories, views) beyond the bare
        ``decisions`` map.  Mutating them would corrupt the prefix
        cache.
        """
        return list(self._materialize(prefix).processes)

    def decisions(self, prefix: Prefix) -> Dict[int, object]:
        runtime = self._materialize(prefix)
        return {
            pid: runtime.contexts[pid].output
            for pid in range(self.n)
            if runtime.contexts[pid].decided
        }

    def crashed(self, prefix: Prefix) -> frozenset:
        return frozenset(self._materialize(prefix).crashed)

    _FAULT_CHOICES = frozenset({"crash", "recover"})

    def independent(self, prefix: Prefix, a: Choice, b: Choice) -> bool:
        if a[0] in self._FAULT_CHOICES and b[0] in self._FAULT_CHOICES:
            # Budgets make one fault choice disable/enable another.
            return False
        return a[-1] != b[-1]  # distinct target processes commute

    def describe_choice(self, choice: Choice) -> str:
        kind = choice[0]
        if kind == "deliver":
            return f"deliver #{choice[1]}→p{choice[2]}"
        if kind == "timer":
            return f"timer #{choice[1]}@p{choice[2]}"
        if kind == "lose":
            return f"lose #{choice[1]}→p{choice[2]}"
        if kind == "dup":
            return f"dup #{choice[1]}→p{choice[2]}"
        if kind == "recover":
            return f"recover p{choice[1]}"
        return f"crash p{choice[1]}"

    # -- counterexamples ---------------------------------------------------

    def counterexample(self, schedule: Sequence[Choice]) -> Counterexample:
        sink = MemorySink()
        runtime = ReferenceAmpRuntime(
            list(self.factory()),
            seed=self.seed,
            sink=sink,
            recovery_enabled=self.allow_recovery,
        )
        runtime.start()
        for choice in schedule:
            runtime.apply(choice)
        events = list(sink.events)
        factory, seed = self.factory, self.seed

        def replayer() -> List[TraceEvent]:
            replay_sink = MemorySink()
            replay(list(factory()), events, seed=seed, sink=replay_sink)
            return replay_sink.events

        return Counterexample(
            kernel="amp",
            schedule=tuple(schedule),
            events=events,
            trace_hash=trace_hash(events),
            _replayer=replayer,
            described=tuple(self.describe_choice(c) for c in schedule),
        )


def _reference_scd_repr(self) -> str:
    """``ScdBroadcast.__repr__`` as the reference fingerprint read it."""
    return (
        f"ScdBroadcast(pid={self.pid}, n={self.n}, tag={self.tag!r}, "
        f"seq={self._next_seq}, clock={self.clock}, "
        f"forwards={sorted((m, sorted(c.items())) for m, c in self._forwards.items())}, "
        f"payloads={sorted((m, repr(p)) for m, p in self._payloads.items())}, "
        f"forwarded={sorted(self._forwarded)}, "
        f"reorder={sorted((f, sorted(b.items())) for f, b in self._reorder.items())}, "
        f"next_clock={sorted(self._next_clock.items())}, "
        f"delivered={self.delivered_sets!r})"
    )


# ---------------------------------------------------------------------------
# The cases
# ---------------------------------------------------------------------------

FLOOD = [3, 1, 2]
SCD_TWO = [["a"], ["b"], []]

#: id → (factory, AmpModel keyword arguments); all run with reduce=False.
CASES: Dict[str, Tuple[Callable, dict]] = {
    "flood-min": (make_flood_min(FLOOD), {}),
    "flood-min-quorum2": (make_flood_min(FLOOD, quorum=2), {}),
    "flood-min-crash1": (make_flood_min(FLOOD), {"max_crashes": 1}),
    "flood-min-crash2": (make_flood_min(FLOOD), {"max_crashes": 2}),
    "flood-min-loss2": (make_flood_min(FLOOD), {"max_losses": 2}),
    "flood-min-dup1": (make_flood_min(FLOOD), {"max_duplications": 1}),
    "quorum-volatile-recovery": (
        make_quorum_commit(durable=False),
        {"max_crashes": 1, "allow_recovery": True},
    ),
    "quorum-durable-recovery": (
        make_quorum_commit(durable=True),
        {"max_crashes": 1, "allow_recovery": True},
    ),
    "scd-2-broadcasters": (make_scd_nodes(SCD_TWO), {}),
}

#: Cases where two identical pending copies can coexist.
DUPLICATING = {"flood-min-dup1"}


def _search(model):
    """(stats, set of terminal decision maps) of an unreduced search."""
    terminal_decisions = set()

    def record(m, config):
        terminal_decisions.add(tuple(sorted(m.decisions(config).items())))
        return None

    result = explore(model, properties=[Eventually("record", record)], reduce=False)
    assert result.ok and result.complete
    return result.stats, terminal_decisions


class TestEquivalentToPrefixReplay:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_states_terminals_and_decisions(self, case, monkeypatch):
        factory, kwargs = CASES[case]
        new_stats, new_decisions = _search(AmpModel(factory, **kwargs))
        # The reference fingerprint hashes repr(vars(process)); give
        # ScdBroadcast back the deterministic repr it was written for.
        monkeypatch.setattr(ScdBroadcast, "__repr__", _reference_scd_repr)
        old_stats, old_decisions = _search(ReferenceAmpModel(factory, **kwargs))
        assert new_stats.states == old_stats.states
        assert new_stats.terminals == old_stats.terminals
        assert new_decisions == old_decisions
        if case in DUPLICATING:
            assert new_stats.transitions < old_stats.transitions
        else:
            assert new_stats.transitions == old_stats.transitions


class TestSleepSetsAreSound:
    """``reduce=True`` visits every state ``reduce=False`` does."""

    @pytest.mark.parametrize(
        "factory, kwargs, states",
        [
            (make_scd_nodes(SCD_TWO), {}, 4037),
            (make_scd_nodes(SCD_TWO), {"max_crashes": 1}, 15172),
            (make_flood_min(FLOOD), {"max_crashes": 1}, 500),
            (make_flood_min(FLOOD), {"max_crashes": 2}, 875),
            (make_flood_min(FLOOD), {"max_losses": 2}, 740),
            (make_flood_min(FLOOD), {"max_duplications": 1}, 999),
            (
                make_quorum_commit(durable=False),
                {"max_crashes": 1, "allow_recovery": True},
                1072,
            ),
            (
                make_quorum_commit(durable=True),
                {"max_crashes": 1, "allow_recovery": True},
                592,
            ),
        ],
        ids=[
            "scd-2-broadcasters",
            "scd-2-broadcasters-crash1",
            "flood-min-crash1",
            "flood-min-crash2",
            "flood-min-loss2",
            "flood-min-dup1",
            "quorum-volatile-recovery",
            "quorum-durable-recovery",
        ],
    )
    def test_reduce_keeps_every_state(self, factory, kwargs, states):
        naive = explore(AmpModel(factory, **kwargs), reduce=False)
        reduced = explore(AmpModel(factory, **kwargs), reduce=True)
        assert naive.complete and reduced.complete
        assert naive.stats.states == reduced.stats.states == states
        assert naive.stats.terminals == reduced.stats.terminals
        assert reduced.stats.transitions < naive.stats.transitions

    def test_settling_choice_is_dependent(self):
        model = AmpModel(make_flood_min([1, 0]), max_crashes=1)
        initial = model.initial()
        deliveries = [c for c in model.enabled(initial) if c[0] == "deliver"]
        to_p0 = next(c for c in deliveries if c[2] == 0)
        to_p1 = next(c for c in deliveries if c[2] == 1)
        assert model.independent(initial, to_p0, to_p1)
        after = model.step(initial, to_p1)
        assert model.decisions(after) == {1: 0}
        # p0 is the last unsettled process: delivering to it ends the
        # run, which disables crashing p1, so the two do not commute.
        assert ("crash", 1) in model.enabled(after)
        assert not model.independent(after, to_p0, ("crash", 1))
        assert model.enabled(model.step(after, to_p0)) == []

    def test_shared_budgets_are_dependent(self):
        model = AmpModel(make_flood_min(FLOOD), max_losses=2, max_duplications=2)
        initial = model.initial()
        enabled = model.enabled(initial)
        lose = [c for c in enabled if c[0] == "lose"]
        dup = [c for c in enabled if c[0] == "dup"]
        a, b = lose[0], next(c for c in lose if c[2] != lose[0][2])
        assert not model.independent(initial, a, b)
        c, d = dup[0], next(c for c in dup if c[2] != dup[0][2])
        assert not model.independent(initial, c, d)
        # Different budgets and different targets still commute.
        assert model.independent(initial, a, d)


class TestExplicitStates:
    @pytest.mark.parametrize(
        "factory, kwargs, classes",
        [
            (make_flood_min(FLOOD), {"max_crashes": 1}, {FloodMinProcess}),
            (
                make_quorum_commit(durable=True),
                {"max_crashes": 1, "allow_recovery": True},
                {QuorumAcceptor, QuorumProposer},
            ),
            (make_scd_nodes(SCD_TWO), {}, {ScdNode}),
        ],
        ids=["flood-min", "quorum-commit", "scd"],
    )
    def test_export_round_trips(self, factory, kwargs, classes):
        """export → from_state → export is the identity on every
        process state the search reaches."""
        model = AmpModel(factory, **kwargs)
        graph = state_graph(model)
        seen = set()
        for config in graph:
            for cls, slot in zip(model._classes, config.processes):
                if (cls, slot.state) in seen:
                    continue
                seen.add((cls, slot.state))
                rebuilt = cls.from_state(slot.state)
                assert type(rebuilt) is cls
                assert rebuilt.export_state() == slot.state
        assert {cls for cls, _ in seen} == classes
        assert len(seen) > len(classes)  # states beyond the initial ones

    def test_scd_round_trip_keeps_delivery_history(self):
        model = AmpModel(make_scd_nodes(SCD_TWO))
        graph = state_graph(model)
        terminal = next(c for c, succ in graph.items() if not succ)
        for slot in terminal.processes:
            node = ScdNode.from_state(slot.state)
            assert sum(len(s) for s in node.delivered_sets) == 2
            assert node.delivered_count == 2
            # The rebuilt component reports deliveries to its new host.
            assert node.scd.on_deliver == node._count

    def test_one_handler_application_per_transition(self, monkeypatch):
        calls = []
        original = AmpExplorationRuntime.apply

        def counting(self, choice):
            calls.append(choice)
            return original(self, choice)

        monkeypatch.setattr(AmpExplorationRuntime, "apply", counting)
        result = explore(AmpModel(make_scd_nodes(SCD_TWO)), reduce=False)
        assert result.complete
        assert len(calls) == result.stats.transitions == 10690

    def test_process_without_export_is_rejected(self):
        class Opaque(AsyncProcess):
            def on_start(self, ctx):
                ctx.broadcast("hello", include_self=False)

        class HalfExported(Opaque):
            def export_state(self):
                return ()

        with pytest.raises(ConfigurationError, match="export_state"):
            AmpModel(lambda: [Opaque(), Opaque()])
        with pytest.raises(ConfigurationError, match="from_state"):
            AmpModel(lambda: [HalfExported(), HalfExported()])

    def test_initial_configuration_is_built_lazily(self):
        built = []

        def factory():
            built.append(1)
            return make_flood_min([1, 0])()

        model = AmpModel(factory)
        assert len(built) == 1  # __init__ only learns n and the classes
        first = model.initial()
        assert len(built) == 2
        assert model.initial() is first
        assert len(built) == 2

    def test_other_processes_are_shared_by_reference(self):
        model = AmpModel(make_flood_min(FLOOD))
        initial = model.initial()
        choice = next(c for c in model.enabled(initial) if c[0] == "deliver")
        child = model.step(initial, choice)
        target = choice[2]
        for pid, (before, after) in enumerate(
            zip(initial.processes, child.processes)
        ):
            if pid != target:
                assert after is before
        assert child.processes[target] is not initial.processes[target]

    def test_payloads_that_do_not_compare_still_canonicalize(self):
        class Mixed(AsyncProcess):
            """p0 sends a str and an int to p1 on one channel."""

            def __init__(self):
                self.got = ()

            def on_start(self, ctx):
                if ctx.pid == 0:
                    ctx.send(1, "x")
                    ctx.send(1, 5)

            def on_message(self, ctx, src, payload):
                self.got += (payload,)
                if len(self.got) == 2:
                    ctx.decide(self.got)

            def export_state(self):
                return self.got

            @classmethod
            def from_state(cls, state):
                process = cls()
                process.got = state
                return process

        model = AmpModel(lambda: [Mixed(), Mixed()])
        result = explore(model, reduce=False)
        assert result.complete
        # initial, one of two messages delivered (x2), both in either order (x2)
        assert result.stats.states == 5
        assert {len(c.pending) for c in state_graph(model)} == {0, 1, 2}
