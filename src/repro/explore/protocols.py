"""Explorable reference protocols: verified-correct and planted-bug pairs.

The explorer's acceptance tests need both directions of the coin:

* :class:`AdoptCommitMachine` — the two-phase adopt-commit protocol
  (Gafni's commit-adopt, paper §4.3) as a
  :class:`~repro.shm.statemachine.ProtocolStateMachine`, whose
  coherence the explorer verifies **exhaustively** for small ``n``;
* :class:`BrokenAdoptCommitMachine` — the classic off-by-a-phase bug
  (commit straight after phase 1), for which exploration finds a
  concrete violating schedule that replays byte-identically;
* :class:`FloodMinProcess` — an AMP min-flooding protocol, correct
  with ``quorum == n`` and agreement-violating with a premature
  quorum, exercising the message-delivery branching the same way.

Every AMP process here (and :class:`~repro.amp.scd.ScdNode`) exports
its state as a hashable tuple (``export_state``) and is rebuilt from
one (``from_state``): :class:`~repro.explore.amp_model.AmpModel`
keeps configurations as those tuples and explores nothing else.

Verdicts reuse :data:`~repro.shm.adoptcommit.COMMIT` /
:data:`~repro.shm.adoptcommit.ADOPT`, and the coherence/convergence
properties below plug into the explorer's property API.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..amp.network import AsyncProcess, Context
from ..core.seqspec import SequentialSpec, register_spec
from ..shm.adoptcommit import ADOPT, COMMIT
from ..shm.statemachine import NOT_DECIDED, OpRequest, ProtocolStateMachine
from .model import Config, ExplorationModel
from .properties import Eventually, Invariant

#: Register "empty" sentinel (a tuple no protocol value collides with).
UNSET = ("<unset>",)


class AdoptCommitMachine(ProtocolStateMachine):
    """Two-phase adopt-commit over ``2n`` atomic registers.

    Phase 1: write your value to ``A[pid]``, collect ``A``; propose
    *clean* iff you saw no other value.  Phase 2: write the proposal to
    ``B[pid]``, collect ``B``; commit iff every proposal you saw is
    clean (all clean proposals provably carry one value), adopt a clean
    value if you saw any, otherwise adopt your own.

    Safety (coherence): if anyone outputs ``(COMMIT, w)``, every output
    carries ``w`` — verified exhaustively by the explorer.
    """

    name = "adopt-commit"

    def __init__(self, n: int) -> None:
        self.n = n

    def shared_objects(self) -> Dict[str, SequentialSpec]:
        objects = {f"A[{i}]": register_spec(UNSET) for i in range(self.n)}
        objects.update(
            {f"B[{i}]": register_spec(UNSET) for i in range(self.n)}
        )
        return objects

    def initial_state(self, pid: int, input_value: object) -> object:
        return ("writeA", input_value)

    def next_op(self, pid: int, state: object) -> Optional[OpRequest]:
        tag = state[0]
        if tag == "writeA":
            return (f"A[{pid}]", "write", (state[1],))
        if tag == "readA":
            return (f"A[{state[2]}]", "read", ())
        if tag == "writeB":
            return (f"B[{pid}]", "write", (state[2],))
        if tag == "readB":
            return (f"B[{state[3]}]", "read", ())
        return None  # ("done", output)

    def apply_response(self, pid: int, state: object, response: object) -> object:
        tag = state[0]
        if tag == "writeA":
            return ("readA", state[1], 0, ())
        if tag == "readA":
            _, value, index, seen = state
            seen = seen + (response,)
            if index + 1 < self.n:
                return ("readA", value, index + 1, seen)
            return ("writeB", value, self._proposal(value, seen))
        if tag == "writeB":
            return ("readB", state[1], state[2], 0, ())
        if tag == "readB":
            _, value, proposal, index, seen = state
            seen = seen + (response,)
            if index + 1 < self.n:
                return ("readB", value, proposal, index + 1, seen)
            return ("done", self._output(value, seen))
        raise AssertionError(f"no transition from {state!r}")

    def decision(self, pid: int, state: object) -> object:
        if state[0] == "done":
            return state[1]
        return NOT_DECIDED

    # -- the protocol's two decision rules ---------------------------------

    def _proposal(self, value: object, seen: Tuple[object, ...]) -> Tuple:
        others = {v for v in seen if v != UNSET and v != value}
        return (not others, value)  # (clean?, value)

    def _output(self, value: object, seen: Tuple[object, ...]) -> Tuple:
        proposals = [p for p in seen if p != UNSET]
        clean = [p for p in proposals if p[0]]
        if clean and len(clean) == len(proposals):
            return (COMMIT, clean[0][1])
        if clean:
            return (ADOPT, clean[0][1])
        return (ADOPT, value)


class BrokenAdoptCommitMachine(AdoptCommitMachine):
    """The planted bug: commit straight after phase 1.

    A process that saw no disagreement in ``A`` outputs
    ``(COMMIT, v)`` without announcing anything in ``B`` — so a solo
    run commits while a later process, now seeing both values, adopts a
    different one.  Coherence breaks; the explorer exhibits the
    schedule.
    """

    name = "adopt-commit-broken"

    def apply_response(self, pid: int, state: object, response: object) -> object:
        if state[0] == "readA":
            _, value, index, seen = state
            seen = seen + (response,)
            if index + 1 < self.n:
                return ("readA", value, index + 1, seen)
            clean, _ = self._proposal(value, seen)
            if clean:
                return ("done", (COMMIT, value))  # the bug: skipped phase 2
            return ("writeB", value, (False, value))
        return super().apply_response(pid, state, response)


def adopt_commit_coherence() -> Invariant:
    """If anyone committed ``w``, every output (commit or adopt) carries ``w``."""

    def check(model: ExplorationModel, config: Config) -> Optional[str]:
        decided = model.decisions(config)
        committed = {
            value for verdict, value in decided.values() if verdict == COMMIT
        }
        if len(committed) > 1:
            return f"two different values committed: {sorted(map(repr, committed))}"
        if committed:
            (w,) = committed
            for pid, (verdict, value) in sorted(decided.items()):
                if value != w:
                    return (
                        f"p{pid} output ({verdict}, {value!r}) "
                        f"but {w!r} was committed"
                    )
        return None

    return Invariant("adopt-commit-coherence", check)


def adopt_commit_validity(inputs: Sequence[object]) -> Invariant:
    """Every output value was some process's input."""
    allowed = {repr(v) for v in inputs}

    def check(model: ExplorationModel, config: Config) -> Optional[str]:
        for pid, (verdict, value) in sorted(model.decisions(config).items()):
            if repr(value) not in allowed:
                return f"p{pid} output value {value!r} nobody proposed"
        return None

    return Invariant("adopt-commit-validity", check)


def adopt_commit_convergence() -> Eventually:
    """With equal inputs every complete run must commit (obligation half)."""

    def check(model: ExplorationModel, config: Config) -> Optional[str]:
        decided = model.decisions(config)
        if len({repr(v) for _, v in decided.values()}) <= 1:
            for pid, (verdict, _) in sorted(decided.items()):
                if verdict != COMMIT:
                    return f"equal-input run ended with p{pid} adopting"
        return None

    return Eventually("adopt-commit-convergence", check)


# -- AMP: min-flooding agreement ---------------------------------------------


class FloodMinProcess(AsyncProcess):
    """Broadcast your value; decide the min once ``quorum`` values are known.

    ``quorum == n`` is correct (crash-free): everyone eventually knows
    every value and decides the global min.  ``quorum < n`` is the
    planted bug — a process may decide the min of a *partial* view,
    and two processes with different partial views disagree.
    """

    def __init__(self, value: object, quorum: int) -> None:
        self.value = value
        self.quorum = quorum
        self.seen: Dict[int, object] = {}

    def on_start(self, ctx: Context) -> None:
        self.seen[ctx.pid] = self.value
        ctx.broadcast(("val", self.value), include_self=False)
        self._maybe_decide(ctx)

    def on_message(self, ctx: Context, src: int, payload: object) -> None:
        _, value = payload
        self.seen[src] = value
        self._maybe_decide(ctx)

    def _maybe_decide(self, ctx: Context) -> None:
        if not ctx.decided and len(self.seen) >= self.quorum:
            ctx.decide(min(self.seen.values()))
            ctx.halt()

    def export_state(self) -> Tuple:
        # ``seen`` keeps arrival order: it is part of the process's state.
        return (self.value, self.quorum, tuple(self.seen.items()))

    @classmethod
    def from_state(cls, state: Tuple) -> "FloodMinProcess":
        value, quorum, seen = state
        process = cls(value, quorum)
        process.seen = dict(seen)
        return process


def make_flood_min(
    values: Sequence[object], quorum: Optional[int] = None
) -> Callable[[], List[FloodMinProcess]]:
    """Factory of fresh :class:`FloodMinProcess` lists (for AmpModel)."""
    quorum = len(values) if quorum is None else quorum

    def factory() -> List[FloodMinProcess]:
        return [FloodMinProcess(value, quorum) for value in values]

    return factory


# -- AMP: quorum commit under crash-recovery ---------------------------------


class QuorumAcceptor(AsyncProcess):
    """A one-vote acceptor: grants its vote to the first proposer, denies
    the rest.  The vote *is* quorum state — whoever holds it commits.

    With ``durable=False`` the vote lives only in memory: a
    crash-recovery cycle makes the acceptor forget it ever voted and
    grant a second, conflicting vote (the explorer exhibits the
    schedule).  With ``durable=True`` the vote is written to
    ``ctx.stable`` before the grant leaves, and ``on_recover`` reloads
    it — the classic write-ahead rule that makes promises survive.
    """

    def __init__(self, durable: bool = False) -> None:
        self.durable = durable
        self.voted: Optional[object] = None  # volatile unless durable

    def on_message(self, ctx: Context, src: int, payload: object) -> None:
        tag = payload[0]
        if tag != "acquire":
            return
        value = payload[1]
        voted = ctx.stable.get("voted") if self.durable else self.voted
        if voted is None:
            self.voted = value
            if self.durable:
                # Log the promise *before* answering: if we crash after
                # the grant is on the wire, recovery must still know.
                ctx.stable.put("voted", value)
            ctx.send(src, ("granted", value))
        else:
            ctx.send(src, ("denied", voted))

    def on_recover(self, ctx: Context) -> None:
        if self.durable:
            self.voted = ctx.stable.get("voted")

    def export_state(self) -> Tuple:
        return (self.durable, self.voted)

    @classmethod
    def from_state(cls, state: Tuple) -> "QuorumAcceptor":
        durable, voted = state
        acceptor = cls(durable)
        acceptor.voted = voted
        return acceptor


class QuorumProposer(AsyncProcess):
    """Ask the acceptor for its vote; commit own value iff granted."""

    def __init__(self, value: object, acceptor: int = 0) -> None:
        self.value = value
        self.acceptor = acceptor

    def on_start(self, ctx: Context) -> None:
        ctx.send(self.acceptor, ("acquire", self.value))

    def on_message(self, ctx: Context, src: int, payload: object) -> None:
        if ctx.decided:
            return
        tag, value = payload
        if tag == "granted":
            ctx.decide(("commit", self.value))
            ctx.halt()
        elif tag == "denied":
            ctx.decide(("abort", value))
            ctx.halt()

    def export_state(self) -> Tuple:
        return (self.value, self.acceptor)

    @classmethod
    def from_state(cls, state: Tuple) -> "QuorumProposer":
        return cls(*state)


def make_quorum_commit(
    values: Sequence[object] = (1, 2), durable: bool = False
) -> Callable[[], List[AsyncProcess]]:
    """Factory: acceptor at pid 0, one proposer per value (for AmpModel)."""

    def factory() -> List[AsyncProcess]:
        processes: List[AsyncProcess] = [QuorumAcceptor(durable=durable)]
        processes.extend(QuorumProposer(value) for value in values)
        return processes

    return factory


def quorum_commit_agreement() -> Invariant:
    """At most one value is ever committed (the vote is exclusive)."""

    def check(model: ExplorationModel, config: Config) -> Optional[str]:
        decided = model.decisions(config)
        committed = sorted(
            {repr(v) for verdict, v in decided.values() if verdict == "commit"}
        )
        if len(committed) > 1:
            return f"two different values committed: {committed}"
        return None

    return Invariant("quorum-commit-agreement", check)


# -- AMP: SCD-broadcast (strictly between RB and TO) -------------------------


def make_scd_nodes(
    payload_lists: Sequence[Sequence[object]],
) -> Callable[[], List[AsyncProcess]]:
    """Factory of :class:`~repro.amp.scd.ScdNode` lists (for AmpModel).

    ``payload_lists[pid]`` is what process ``pid`` SCD-broadcasts at
    start; every node expects the grand total, so runs settle once all
    messages are delivered everywhere and each node decides its set
    sequence.
    """
    from ..amp.scd import ScdNode

    n = len(payload_lists)
    expected = sum(len(payloads) for payloads in payload_lists)

    def factory() -> List[AsyncProcess]:
        return [
            ScdNode(pid, n, list(payload_lists[pid]), expected=expected)
            for pid in range(n)
        ]

    return factory


def _scd_histories(model: ExplorationModel, config: Config) -> List[Sequence]:
    return [
        process.delivered_sets
        for process in model.processes(config)
        if hasattr(process, "delivered_sets")
    ]


def scd_coherence() -> Invariant:
    """Integrity + MS-Ordering over every process's delivered sets.

    This is the SCD-broadcast safety contract: no message delivered
    twice, and no two processes deliver two messages in *opposite*
    strict orders (delivering them in one set is always allowed).
    Checked as an invariant — it must hold in every reachable
    configuration, not just terminal ones.
    """
    from ..amp.scd import check_scd_histories

    def check(model: ExplorationModel, config: Config) -> Optional[str]:
        return check_scd_histories(_scd_histories(model, config))

    return Invariant("scd-coherence", check)


def scd_uniform_sets() -> Invariant:
    """The TO strengthening SCD does **not** provide (expected to fail).

    Holds iff all delivered set sequences are prefix-compatible — what
    TO-broadcast guarantees.  Exploring SCD against this property
    yields a replayable counterexample: concrete evidence the
    abstraction sits *strictly below* total order.
    """
    from ..amp.scd import check_uniform_set_sequences

    def check(model: ExplorationModel, config: Config) -> Optional[str]:
        return check_uniform_set_sequences(_scd_histories(model, config))

    return Invariant("scd-uniform-sets", check)


def scd_termination() -> Eventually:
    """Every maximal run ends with all processes' histories decided."""

    def check(model: ExplorationModel, config: Config) -> Optional[str]:
        decided = model.decisions(config)
        if len(decided) < getattr(model, "n", len(decided)):
            return f"only {sorted(decided)} decided at a terminal configuration"
        return None

    return Eventually("scd-termination", check)
