"""Full-information flooding (paper §3.2) — delta wire format by default.

Round 1: every process sends ``(i, in_i)`` to its neighbors; thereafter it
forwards what it has learned.  After ``x`` rounds a process knows the
inputs of its entire ``x``-neighborhood, and after ``D`` rounds (``D`` =
diameter) it knows the whole input vector and can compute **any**
function of it.

Two wire formats implement the same knowledge dynamics:

* ``mode="full"`` — the textbook (and original seed) format: re-broadcast
  the **entire** learned view every round.  On a path graph the run costs
  Θ(n) payload units per edge per round, Θ(n³) end-to-end.
* ``mode="delta"`` (default) — each message is a
  :class:`DeltaMessage`: an integer *digest* bitmask of the pids the
  sender knows (one machine word) plus only the (pid, value) pairs the
  *receiver's last heard digest* lacks.  Since a digest subtracts only
  pairs the receiver provably already holds, every delivered delta
  conveys exactly the same new knowledge as the full view would —
  knowledge evolution, decided vectors, and round counts are identical
  under **any** message adversary and crash schedule, while each pair
  crosses an edge at most twice (once to deliver, once more while the
  confirming digest is in flight) instead of every round.

Per-round delta emission costs O(pairs sent + unheard stragglers), not
O(|known| × degree).  ``known`` is an insertion-ordered dict, and each
neighbor keeps a *low-water index* into it: every pair before the index
is already covered by that neighbor's heard digest.  A popcount of
``digest & ~heard`` says how many pairs are missing; zero sends an empty
delta without a scan, otherwise the scan starts at the low-water index
and stops after the last missing pair.  Pairs still go out in ``known``
order, so messages (and trace hashes) are exactly those of a full scan.

The equivalence argument, which the tests replay against adversarial
schedules: a full view delivered over an edge at round ``r`` teaches the
receiver ``known_sender − known_receiver``; the delta message teaches
``known_sender − digest`` where ``digest ⊆ known_receiver`` (digests are
facts the receiver itself broadcast earlier, and knowledge is monotone),
so the delivered information is the same set.  Suppressed messages need
no special-casing: a pair stays in the delta until a digest *proving*
receipt comes back, so adversaries that drop the first copy simply see
it re-sent, exactly as the full format would.

:class:`FloodingAlgorithm` implements both formats, parameterized by the
function to evaluate and by the number of rounds to run (defaults to
"until nothing new is learned", which self-stabilizes at ≤ D+1 rounds
without knowing D).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ...core.exceptions import ConfigurationError
from ...core.volume import EXACT_SCALAR_TYPES, payload_units
from ..kernel import Context, Outbox, SyncAlgorithm

#: A function of the full input vector, evaluated once it is known.
VectorFunction = Callable[[Tuple[object, ...]], object]

#: Wire formats understood by :class:`FloodingAlgorithm`.
MODES = ("delta", "full")

try:
    _popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - Python 3.9

    def _popcount(bits: int) -> int:
        return bin(bits).count("1")


def identity_vector(vector: Tuple[object, ...]) -> Tuple[object, ...]:
    """The vector-learning task: output the input vector itself."""
    return vector


@dataclass(frozen=True)
class DeltaMessage:
    """One delta-flooding message.

    ``digest`` is a bitmask over pids (bit ``i`` set ⟺ the sender knows
    ``(i, in_i)``) — one machine word of metadata, accounted as 1 payload
    unit.  ``pairs`` carries only the values the receiver is missing
    according to its last digest heard by the sender.
    """

    digest: int
    pairs: Tuple[Tuple[int, object], ...]

    def __payload_units__(self) -> int:
        # 1 for the digest word + (pid + value) per carried pair; an exact
        # scalar value weighs 1, anything else is metered by the walk.
        units = 1 + 2 * len(self.pairs)
        for _pid, value in self.pairs:
            if type(value) not in EXACT_SCALAR_TYPES:
                units += payload_units(value) - 1
        return units


class FloodingAlgorithm(SyncAlgorithm):
    """Learn the input vector by flooding, then evaluate ``function``.

    Parameters
    ----------
    function:
        Function of the full input vector to decide on.
    rounds:
        Exact number of rounds to flood.  ``None`` lets the algorithm
        stop one round after it stops learning new pairs *and* it has
        ``n`` pairs (processes know ``n`` in the LOCAL model).
    mode:
        ``"delta"`` (default) for the digest wire format, ``"full"`` for
        the legacy full-view re-broadcast (kept for A/B measurement).
    """

    def __init__(
        self,
        function: VectorFunction = identity_vector,
        rounds: Optional[int] = None,
        mode: str = "delta",
    ) -> None:
        if rounds is not None and rounds < 0:
            raise ConfigurationError("rounds must be >= 0")
        if mode not in MODES:
            raise ConfigurationError(f"unknown flooding mode {mode!r}")
        self.function = function
        self.rounds = rounds
        self.mode = mode
        self.known: Dict[int, object] = {}
        #: own digest: bitmask of pids in ``known``
        self._digest = 0
        #: per-neighbor, in sorted order: union of digests heard from it
        self._peer_digest: Dict[int, int] = {}
        #: per-neighbor low-water index into ``known``: every pair before
        #: it is covered by that neighbor's heard digest
        self._low_water: Dict[int, int] = {}
        #: cached stable snapshot for :meth:`local_state`
        self._state_snapshot: Optional[FrozenSet[int]] = None

    def on_start(self, ctx: Context) -> Outbox:
        self.known = {ctx.pid: ctx.input}
        self._digest = 1 << ctx.pid
        self._peer_digest = {neighbor: 0 for neighbor in sorted(ctx.neighbors)}
        self._low_water = dict.fromkeys(self._peer_digest, 0)
        self._state_snapshot = None
        if self.rounds == 0:
            self._finish(ctx)
            return {}
        return self._emit(ctx)

    def on_round(self, ctx: Context, received: Mapping[int, object]) -> Outbox:
        known = self.known
        before = len(known)
        if self.mode == "full":
            for pairs in received.values():
                known.update(pairs)
        else:
            digest = self._digest
            peer_digest = self._peer_digest
            for src, message in received.items():
                peer_digest[src] |= message.digest
                for pid, value in message.pairs:
                    if pid not in known:
                        known[pid] = value
                        digest |= 1 << pid
            self._digest = digest
        learned_nothing = len(known) == before
        if not learned_nothing:
            self._state_snapshot = None

        if self.rounds is not None:
            if ctx.round >= self.rounds:
                self._finish(ctx)
                return {}
        elif len(self.known) == ctx.n and learned_nothing:
            # Saturated and stable: everyone in range already heard us too.
            self._finish(ctx)
            return {}
        return self._emit(ctx)

    def _emit(self, ctx: Context) -> Outbox:
        """This round's sends: one message per neighbor, in both modes
        (identical message counts keep adversary RNG streams and crash
        send-prefixes aligned across modes)."""
        if self.mode == "full":
            return ctx.broadcast(dict(self.known))
        known = self.known
        digest = self._digest
        low_water = self._low_water
        outbox: Outbox = {}
        # ``_peer_digest`` is in sorted neighbor order, and outbox insertion
        # order is the kernel's send order — which trace hashes observe.
        for neighbor, heard in self._peer_digest.items():
            remaining = _popcount(digest & ~heard)
            if not remaining:
                low_water[neighbor] = len(known)
                outbox[neighbor] = DeltaMessage(digest, ())
                continue
            # Advance the low-water index to the first missing pair (one
            # exists: ``remaining`` > 0), then collect up to the last one.
            low = low_water[neighbor]
            items = islice(known.items(), low, None)
            for item in items:
                if not (heard >> item[0]) & 1:
                    break
                low += 1
            low_water[neighbor] = low
            pairs: List[Tuple[int, object]] = [item]
            remaining -= 1
            if remaining:
                for item in items:
                    if not (heard >> item[0]) & 1:
                        pairs.append(item)
                        remaining -= 1
                        if not remaining:
                            break
            outbox[neighbor] = DeltaMessage(digest, tuple(pairs))
        return outbox

    def _finish(self, ctx: Context) -> None:
        if len(self.known) == ctx.n:
            vector = tuple(self.known[i] for i in range(ctx.n))
            ctx.decide(self.function(vector))
        ctx.halt()

    def local_state(self) -> object:
        """Expose learned pids to the adversary (TREE worst-case needs it).

        Returns a *stable snapshot*: the same frozenset object until the
        learned set actually changes, so an adversary reading mid-round
        sees a consistent set in both wire modes.
        """
        if self._state_snapshot is None:
            self._state_snapshot = frozenset(self.known)
        return self._state_snapshot


def make_flooders(
    n: int,
    function: VectorFunction = identity_vector,
    rounds: Optional[int] = None,
    mode: str = "delta",
) -> list:
    """One flooding instance per process."""
    return [FloodingAlgorithm(function, rounds, mode=mode) for _ in range(n)]
