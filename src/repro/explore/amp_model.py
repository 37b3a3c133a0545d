"""AMP adapter: exhaustive delivery/timer/crash orderings over explicit states.

In ``AMP_{n,t}`` the adversary's freedom is the *order* in which pending
messages are delivered (plus when timers fire and who crashes).  A
configuration is an explicit, hashable value (:class:`AmpConfig`):

* per process (:class:`ProcessConfig`): the state tuple its class
  exports (``export_state``), its context ``(decided, output,
  halted)``, its stable-storage items, and its RNG state (``None``
  until it first draws);
* the sorted multiset of pending messages ``(src, dst, payload,
  units)``, where ``units`` is the size metered when the message was
  sent, and the sorted multiset of pending timers ``(pid, name)``;
* the fault record: crashed and recovered pids, losses and
  duplications taken.

Every part is hash-consed through the model's
:class:`~repro.explore.model.Interner`: equal parts are one object,
shared by every configuration that holds them.  The configuration is
its own fingerprint.

A choice names content, never a send counter, so the same move carries
the same label on every path that reaches a configuration:

* ``("deliver", src, dst, payload)`` — deliver one pending copy;
* ``("timer", pid, name)`` — fire a pending timer;
* ``("crash", pid)`` — crash a live process (while ``max_crashes``
  lasts);
* ``("lose", src, dst, payload)`` — the link loses one pending copy
  (while ``max_losses`` lasts);
* ``("dup", src, dst, payload)`` — the link mints one more copy of a
  pending message (while ``max_duplications`` lasts);
* ``("recover", pid)`` — a crashed process comes back with volatile
  state wiped, keeping only ``ctx.stable`` (``allow_recovery=True``;
  each pid recovers at most once per run so faulty branches stay
  finite).

Identical pending copies are one choice: delivering either reaches the
same configuration.

:meth:`AmpModel.step` loads the configuration into one long-lived
:class:`AmpExplorationRuntime` (``_materialize``: the shared parts plus
the one process the choice targets, rebuilt by its class's
``from_state``), applies the choice once, and exports what changed.
The other processes' parts are carried over by reference.  Virtual time
is not part of a configuration, so an explored protocol must not read
``ctx.time``.

Independence (the sleep-set license): two choices commute when they
target different processes — a handler mutates only its own process,
and new sends land in the pending *multiset*, which ignores order —
with three exceptions, all dependent:

* two crash/recover choices (the crash budget makes one disable or
  enable the other);
* two ``lose`` or two ``dup`` choices (they draw on one budget);
* any pair while fewer than two live processes are unsettled: a choice
  that settles the last one makes the configuration terminal, which
  disables everything but ``recover``.

Counterexamples record the schedule through a sink-instrumented runtime,
where each content label resolves to the oldest pending send (or timer)
with that content, and replay byte-identically via
:func:`repro.trace.replay.replay`.
"""

from __future__ import annotations

import copy
import random
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..amp.network import AsyncProcess, AsyncRuntime, FixedDelay
from ..core.exceptions import ConfigurationError, ModelViolation
from ..core.volume import payload_units
from ..trace.events import TraceEvent, trace_hash
from ..trace.replay import replay
from ..trace.sink import MemorySink, TraceSink
from .counterexample import Counterexample
from .model import ExplorationModel, Interner

Choice = Tuple


class AmpExplorationRuntime(AsyncRuntime):
    """An :class:`AsyncRuntime` whose event loop is externalized.

    ``_send`` parks messages in :attr:`pending` (keyed by a
    deterministic send sequence number) instead of scheduling a
    delivery; :meth:`apply` executes one exploration choice, resolving
    its content label to the oldest pending send or timer with that
    content.  Virtual time advances by 1.0 per applied choice, so
    recorded traces carry a well-defined, replayable time axis.
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
            "AmpExplorationRuntime is driven by apply(); it has no event loop"
        )

    # -- exploration controls ---------------------------------------------

    def start(self) -> None:
        """Run every live process's ``on_start`` (time 0)."""
        self._started = True
        for pid in range(self.n):
            if pid not in self.crashed:
                self.processes[pid].on_start(self.contexts[pid])

    def _pending_seq(self, choice: Choice) -> int:
        """The oldest pending send carrying ``choice``'s message."""
        try:
            _, src, dst, payload = choice
        except ValueError:
            raise ConfigurationError(f"malformed choice {choice!r}") from None
        for seq, (s, d, p, _) in self.pending.items():
            if s == src and d == dst and p == payload:
                return seq
        raise ConfigurationError(f"no pending message p{src}→p{dst} {payload!r}")

    def _timer_seq(self, choice: Choice) -> int:
        """The oldest pending timer ``choice`` names."""
        try:
            _, pid, name = choice
        except ValueError:
            raise ConfigurationError(f"malformed choice {choice!r}") from None
        for seq, timer in self.pending_timers.items():
            if timer[0] == pid and timer[1] == name:
                return seq
        raise ConfigurationError(f"no pending timer {name!r}@p{pid}")

    def apply(self, choice: Choice) -> None:
        """Execute one exploration choice (one tick of virtual time)."""
        self.now += 1.0
        kind = choice[0]
        if kind == "deliver":
            seq = self._pending_seq(choice)
            src, dst, payload, units = self.pending.pop(seq)
            if dst in self.crashed or self.contexts[dst].halted:
                raise ConfigurationError(f"delivery to dead process {dst}")
            self.messages_delivered += 1
            self.payload_delivered += units
            if self._sink is not None:
                self._sink.amp_deliver(seq, src, dst, payload, self.now)
            self.processes[dst].on_message(self.contexts[dst], src, payload)
        elif kind == "timer":
            seq = self._timer_seq(choice)
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
            seq = self._pending_seq(choice)
            del self.pending[seq]
            self.losses += 1
            if self._sink is not None:
                self._sink.amp_drop(seq, self.now, reason="loss")
        elif kind == "dup":
            seq = self._pending_seq(choice)
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


class ProcessConfig(NamedTuple):
    """One process's part of an :class:`AmpConfig`."""

    state: Hashable               #: what the process's ``export_state`` returned
    decided: bool
    output: object
    halted: bool
    stable: Tuple[Tuple[object, object], ...]  #: stable-storage items, by key
    rng: Optional[tuple]          #: ``random.Random`` state; None before a draw


class AmpConfig(NamedTuple):
    """One AMP configuration: hashable, hash-consed, its own fingerprint."""

    processes: Tuple[ProcessConfig, ...]
    pending: Tuple[Tuple[int, int, object, int], ...]  #: sorted (src, dst, payload, units)
    timers: Tuple[Tuple[int, object], ...]              #: sorted (pid, name)
    crashed: Tuple[int, ...]
    recovered: Tuple[int, ...]
    losses: int
    duplicated: int


def _canonical(items: Iterable) -> tuple:
    """A multiset's canonical form: its items as a sorted tuple.

    Items that do not compare (say an ``int`` and a ``str`` payload on
    one channel) are ordered by ``repr`` instead.
    """
    items = list(items)
    try:
        items.sort()
    except TypeError:
        items.sort(key=repr)
    return tuple(items)


#: Choices that name a message: ``(kind, src, dst, payload)``.
_MESSAGE_CHOICES = frozenset({"deliver", "lose", "dup"})


def _target(choice: Choice) -> object:
    """The pid a choice acts on (a message's destination)."""
    return choice[2] if choice[0] in _MESSAGE_CHOICES else choice[1]


class AmpModel(ExplorationModel):
    """Every delivery order (and crash pattern) of an AMP protocol.

    Parameters
    ----------
    factory:
        Zero-argument callable returning fresh process instances.
        Every process class must offer ``export_state()`` (a hashable
        tuple of the process's state) and a ``from_state(state)``
        classmethod rebuilding it; a class without them raises
        :class:`ConfigurationError`.
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
    enabled there.  The initial configuration is built on the first
    :meth:`initial` call, not here.
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
        self._classes = tuple(type(process) for process in factory())
        self.n = len(self._classes)
        for cls in self._classes:
            if not (
                callable(getattr(cls, "export_state", None))
                and callable(getattr(cls, "from_state", None))
            ):
                raise ConfigurationError(
                    f"{cls.__name__} has no export_state()/from_state(): "
                    "AmpModel explores explicit process states"
                )
        self._intern = Interner()
        self._runtime: Optional[AmpExplorationRuntime] = None
        self._initial: Optional[AmpConfig] = None
        #: process state → read-only process object (see processes())
        self._views: Dict[Hashable, AsyncProcess] = {}

    # -- configurations ----------------------------------------------------

    def _export_process(self, runtime: AmpExplorationRuntime, pid: int) -> ProcessConfig:
        intern = self._intern
        ctx = runtime.contexts[pid]
        rng = runtime._proc_rngs.get(pid)
        return intern(ProcessConfig(
            intern(runtime.processes[pid].export_state()),
            ctx.decided,
            ctx.output,
            ctx.halted,
            intern(_canonical(runtime.storages[pid].items())),
            None if rng is None else intern(rng.getstate()),
        ))

    def _export(
        self,
        runtime: AmpExplorationRuntime,
        processes: Tuple[ProcessConfig, ...],
        loaded: int,
    ) -> AmpConfig:
        """The configuration ``runtime`` holds, with ``processes`` as given.

        Pending sends numbered below ``loaded`` came from the loaded
        configuration and are interned already.
        """
        intern = self._intern
        pending = [
            message if seq < loaded else intern(message)
            for seq, message in runtime.pending.items()
        ]
        return intern(AmpConfig(
            processes,
            intern(_canonical(pending)),
            intern(_canonical(runtime.pending_timers.values())),
            intern(tuple(sorted(runtime.crashed))),
            intern(tuple(sorted(runtime.recovered))),
            runtime.losses,
            runtime.duplicated,
        ))

    def _materialize(
        self, config: AmpConfig, pid: Optional[int] = None
    ) -> AmpExplorationRuntime:
        """Load ``config`` into the reused runtime.

        Only process ``pid`` (the one the next choice acts on, if any)
        is rebuilt from its state: one choice runs one handler, so the
        other processes are never touched.
        """
        if self._runtime is None:
            self.initial()
        runtime = self._runtime
        runtime.now = 0.0
        runtime.pending = dict(enumerate(config.pending))
        runtime._send_counter = len(config.pending)
        runtime.pending_timers = dict(enumerate(config.timers))
        runtime._timer_counter = len(config.timers)
        runtime.crashed = set(config.crashed)
        runtime.recovered = set(config.recovered)
        runtime.losses = config.losses
        runtime.duplicated = config.duplicated
        if pid is not None:
            if not (isinstance(pid, int) and 0 <= pid < self.n):
                raise ConfigurationError(f"no process {pid!r}")
            slot = config.processes[pid]
            runtime.processes[pid] = self._classes[pid].from_state(slot.state)
            ctx = runtime.contexts[pid]
            ctx.decided, ctx.output, ctx.halted = slot.decided, slot.output, slot.halted
            runtime.storages[pid].restore(slot.stable)
            if slot.rng is None:
                runtime._proc_rngs.pop(pid, None)
            else:
                rng = random.Random()
                rng.setstate(slot.rng)
                runtime._proc_rngs[pid] = rng
        return runtime

    def _unsettled(self, config: AmpConfig) -> int:
        """Live processes that have neither decided nor halted."""
        crashed = config.crashed
        return sum(
            1
            for pid, slot in enumerate(config.processes)
            if pid not in crashed and not (slot.decided or slot.halted)
        )

    # -- the model contract ------------------------------------------------

    def initial(self) -> AmpConfig:
        if self._initial is None:
            runtime = AmpExplorationRuntime(
                list(self.factory()),
                seed=self.seed,
                recovery_enabled=self.allow_recovery,
            )
            runtime.start()
            self._runtime = runtime
            processes = self._intern(tuple(
                self._export_process(runtime, pid) for pid in range(self.n)
            ))
            self._initial = self._export(runtime, processes, loaded=0)
        return self._initial

    def enabled(self, config: AmpConfig) -> List[Choice]:
        choices: List[Choice] = []
        crashed = config.crashed
        if self._unsettled(config):
            processes = config.processes
            lose = config.losses < self.max_losses
            dup = config.duplicated < self.max_duplications
            previous = None
            for message in config.pending:
                if message == previous:
                    continue  # identical copies: one choice
                previous = message
                src, dst, payload, _ = message
                if dst not in crashed and not processes[dst].halted:
                    choices.append(("deliver", src, dst, payload))
                if lose:
                    choices.append(("lose", src, dst, payload))
                if dup:
                    choices.append(("dup", src, dst, payload))
            previous = None
            for timer in config.timers:
                if timer == previous:
                    continue
                previous = timer
                pid, name = timer
                if pid not in crashed and not processes[pid].halted:
                    choices.append(("timer", pid, name))
            if len(crashed) < self.max_crashes:
                for pid in range(self.n):
                    if pid not in crashed:
                        choices.append(("crash", pid))
        if self.allow_recovery:
            # Recovery stays on the menu even in settled configurations:
            # a recovered process may un-settle the run (that branch is
            # exactly where memory-only protocols break).
            for pid in crashed:
                if pid not in config.recovered:
                    choices.append(("recover", pid))
        return choices

    def step(self, config: AmpConfig, choice: Choice) -> AmpConfig:
        kind = choice[0]
        if kind == "deliver":
            pid = choice[2]
        elif kind in ("timer", "recover"):
            pid = choice[1]
        else:
            pid = None  # no handler runs
        runtime = self._materialize(config, pid)
        runtime.apply(choice)
        processes = config.processes
        if pid is not None:
            processes = self._intern(
                processes[:pid]
                + (self._export_process(runtime, pid),)
                + processes[pid + 1:]
            )
        return self._export(runtime, processes, loaded=len(config.pending))

    def fingerprint(self, config: AmpConfig) -> AmpConfig:
        return config  # hash-consed: equal configurations are one object

    def processes(self, config: AmpConfig) -> List[AsyncProcess]:
        """Process objects rebuilt from ``config``'s process states.

        Read-only by contract: properties inspect protocol state the
        processes expose (delivery histories, views) beyond the bare
        ``decisions`` map, and one object serves every configuration
        holding its state.  A search meets far fewer process states
        than configurations, so the objects are kept.
        """
        views = self._views
        out = []
        for cls, slot in zip(self._classes, config.processes):
            view = views.get(slot.state)
            if view is None:
                view = views[slot.state] = cls.from_state(slot.state)
            out.append(view)
        return out

    def decisions(self, config: AmpConfig) -> Dict[int, object]:
        return {
            pid: slot.output
            for pid, slot in enumerate(config.processes)
            if slot.decided
        }

    def crashed(self, config: AmpConfig) -> frozenset:
        return frozenset(config.crashed)

    _FAULT_CHOICES = frozenset({"crash", "recover"})

    def independent(self, config: AmpConfig, a: Choice, b: Choice) -> bool:
        if a[0] in self._FAULT_CHOICES and b[0] in self._FAULT_CHOICES:
            return False  # the crash budget: one disables/enables the other
        if a[0] == b[0] and a[0] in ("lose", "dup"):
            return False  # one loss (or duplication) budget for both
        if _target(a) == _target(b):
            return False
        # With one unsettled live process left, a choice that settles it
        # makes the configuration terminal and disables the other.
        return self._unsettled(config) >= 2

    def describe_choice(self, choice: Choice) -> str:
        kind = choice[0]
        if kind in _MESSAGE_CHOICES:
            _, src, dst, payload = choice
            return f"{kind} p{src}→p{dst} {payload!r}"
        if kind == "timer":
            return f"timer {choice[2]!r}@p{choice[1]}"
        if kind == "recover":
            return f"recover p{choice[1]}"
        return f"crash p{choice[1]}"

    # -- counterexamples ---------------------------------------------------

    def counterexample(self, schedule: Sequence[Choice]) -> Counterexample:
        sink = MemorySink()
        runtime = AmpExplorationRuntime(
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
