"""Delta flooding must be observably identical to the legacy full-view
format — decided vectors, round counts, and message counts — under every
topology, message adversary, and crash schedule tried, while delivering
strictly less payload volume.  (The wire format is an optimization; the
knowledge dynamics are the spec.)"""

import enum
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import payload_units
from repro.core.exceptions import ConfigurationError
from repro.core.volume import EXACT_SCALAR_TYPES
from repro.sync import (
    BoundedDropAdversary,
    CrashEvent,
    TourAdversary,
    TreeAdversary,
    balanced_tree,
    complete,
    grid,
    path,
    random_connected,
    ring,
    run_synchronous,
)
from repro.sync.algorithms import (
    MODES,
    DeltaMessage,
    FloodingAlgorithm,
    make_early_stopping,
    make_flooders,
    make_floodset,
)
from repro.sync.kernel import Outbox
from repro.trace import MemorySink, trace_hash

TOPOLOGIES = {
    "ring": lambda: ring(12),
    "path": lambda: path(10),
    "tree": lambda: balanced_tree(2, 3),
    "random": lambda: random_connected(14, 0.2, random.Random(5)),
}

#: Fresh adversary per run — RNG state must not leak across the A and B run.
ADVERSARIES = {
    "none": lambda: None,
    "tree-random": lambda: TreeAdversary(strategy="random", seed=11, track_pid=0),
    "tree-worst": lambda: TreeAdversary(strategy="worst", seed=11, track_pid=0),
    "drop-3": lambda: BoundedDropAdversary(3, seed=7),
}


def _run_flooding(topo, adversary, rounds, mode):
    algs = make_flooders(topo.n, rounds=rounds, mode=mode)
    result = run_synchronous(
        topo,
        algs,
        [f"v{i}" for i in range(topo.n)],
        adversary=adversary,
        max_rounds=6 * topo.n,
    )
    return result, algs


@pytest.mark.parametrize("budget", ["fixed", "adaptive"])
@pytest.mark.parametrize("adv_name", sorted(ADVERSARIES))
@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
def test_delta_equals_full(topo_name, adv_name, budget):
    if budget == "adaptive" and adv_name != "none":
        # Adaptive stopping assumes reliable channels (as in the seed):
        # under an adversary, a saturated process may halt while still
        # being a cut vertex for some value, so the run never quiesces —
        # identically in both modes.  Adversarial runs use fixed budgets.
        pytest.skip("adaptive stopping is only meaningful without an adversary")
    topo = TOPOLOGIES[topo_name]()
    rounds = (topo.n - 1) if budget == "fixed" else None
    outcomes = {
        mode: _run_flooding(topo, ADVERSARIES[adv_name](), rounds, mode)
        for mode in MODES
    }
    delta_result, delta_algs = outcomes["delta"]
    full_result, full_algs = outcomes["full"]
    assert delta_result.outputs == full_result.outputs
    assert delta_result.rounds == full_result.rounds
    assert delta_result.messages_sent == full_result.messages_sent
    assert [a.known for a in delta_algs] == [a.known for a in full_algs]
    assert delta_result.payload_sent < full_result.payload_sent
    assert delta_result.payload_delivered < full_result.payload_delivered


def test_delta_equals_full_under_tour_on_complete():
    topo = complete(8)
    outcomes = {
        mode: _run_flooding(
            topo, TourAdversary(orientation="random", seed=3), topo.n - 1, mode
        )
        for mode in MODES
    }
    delta_result, _ = outcomes["delta"]
    full_result, _ = outcomes["full"]
    assert delta_result.outputs == full_result.outputs
    assert delta_result.rounds == full_result.rounds
    assert delta_result.payload_delivered < full_result.payload_delivered


def _crash_chain(rounds):
    """Process r−1 crashes mid-send in round r, reaching only process r —
    the chained worst case that forces FloodSet to its full t+1 rounds."""
    return [
        CrashEvent(pid=r - 1, round=r, delivered_to=frozenset({r}))
        for r in range(1, rounds + 1)
    ]


@pytest.mark.parametrize("crashes", [0, 1, 2])
def test_floodset_delta_equals_full_under_crashes(crashes):
    n, t = 6, 2
    outcomes = {}
    for mode in MODES:
        algs = make_floodset(n, t, mode=mode)
        outcomes[mode] = run_synchronous(
            complete(n),
            algs,
            list(range(n)),
            crash_schedule=_crash_chain(crashes),
            max_rounds=t + 2,
        )
    delta, full = outcomes["delta"], outcomes["full"]
    assert delta.outputs == full.outputs
    assert delta.rounds == full.rounds
    assert delta.messages_sent == full.messages_sent
    assert delta.payload_sent <= full.payload_sent


@pytest.mark.parametrize("crashes", [0, 1])
def test_early_stopping_delta_equals_full_under_crashes(crashes):
    n, t = 5, 2
    outcomes = {}
    for mode in MODES:
        algs = make_early_stopping(n, t, mode=mode)
        outcomes[mode] = run_synchronous(
            complete(n),
            algs,
            list(range(n)),
            crash_schedule=_crash_chain(crashes),
            max_rounds=t + 3,
        )
    delta, full = outcomes["delta"], outcomes["full"]
    assert delta.outputs == full.outputs
    assert delta.rounds == full.rounds
    assert delta.messages_sent == full.messages_sent
    assert delta.payload_sent <= full.payload_sent


def test_delta_message_payload_accounting():
    empty = DeltaMessage(digest=0b1011, pairs=())
    assert payload_units(empty) == 1  # digest bitmask = one machine word
    carrying = DeltaMessage(digest=0b1, pairs=((0, "v0"), (3, "v3")))
    assert payload_units(carrying) == 1 + 2 * 2  # digest + (pid, value) each
    nested = DeltaMessage(digest=0b1, pairs=((2, ("a", "b")),))
    assert payload_units(nested) == 1 + 1 + 2


def test_local_state_is_stable_frozenset_under_delta():
    """The TREE worst-case adversary reads ``local_state()`` mid-round: it
    must see a frozenset of learned pids (same shape as the legacy mode)
    and the same object until the learned set actually changes."""
    observed = []

    class SpyAdversary(TreeAdversary):
        def filter(self, round_no, sends, states, topology):
            observed.append(list(states))
            return super().filter(round_no, sends, states, topology)

    n = 6
    algs = make_flooders(n, mode="delta")
    run_synchronous(
        path(n),
        algs,
        list(range(n)),
        adversary=SpyAdversary(strategy="worst", seed=0, track_pid=0),
        max_rounds=3 * n,
    )
    assert observed
    for states in observed:
        assert all(isinstance(state, frozenset) for state in states)
        assert all(
            state <= frozenset(range(n)) and state for state in states
        )
    # Identity-stability: repeated reads without new knowledge return the
    # very same object (the snapshot is only rebuilt on learning).
    final = algs[0].local_state()
    assert algs[0].local_state() is final
    assert final == frozenset(range(n))


def test_unknown_mode_rejected():
    with pytest.raises(ConfigurationError):
        FloodingAlgorithm(mode="compressed")
    with pytest.raises(ConfigurationError):
        make_floodset(4, 1, mode="gzip")
    with pytest.raises(ConfigurationError):
        make_early_stopping(4, 1, mode="gzip")


# -- the low-water emitter against the full-scan emitter ----------------------


class ReferenceFlooding(FloodingAlgorithm):
    """Delta flooding with the full-scan emitter and the re-OR-everything
    merge, kept verbatim as the reference the low-water emitter must
    reproduce message for message."""

    def on_round(self, ctx, received):
        before = len(self.known)
        if self.mode == "full":
            for pairs in received.values():
                self.known.update(pairs)
        else:
            for src, message in received.items():
                self.known.update(message.pairs)
                self._peer_digest[src] |= message.digest
        if len(self.known) != before:
            self._state_snapshot = None
            if self.mode == "delta":
                for pid in self.known:
                    self._digest |= 1 << pid
        learned_nothing = len(self.known) == before

        if self.rounds is not None:
            if ctx.round >= self.rounds:
                self._finish(ctx)
                return {}
        elif len(self.known) == ctx.n and learned_nothing:
            # Saturated and stable: everyone in range already heard us too.
            self._finish(ctx)
            return {}
        return self._emit(ctx)

    def _emit(self, ctx):
        if self.mode == "full":
            return ctx.broadcast(dict(self.known))
        outbox: Outbox = {}
        # Sorted: neighbor sets iterate in hash order, and outbox insertion
        # order is the kernel's send order — which trace hashes observe.
        for neighbor in sorted(ctx.neighbors):
            heard = self._peer_digest[neighbor]
            pairs = tuple(
                (pid, value)
                for pid, value in self.known.items()
                if not (heard >> pid) & 1
            )
            outbox[neighbor] = DeltaMessage(digest=self._digest, pairs=pairs)
        return outbox


def _traced_flooding(topo, make_alg, adversary, rounds, crashes=()):
    sink = MemorySink()
    algs = [make_alg(rounds=rounds) for _ in range(topo.n)]
    result = run_synchronous(
        topo,
        algs,
        [f"v{i}" for i in range(topo.n)],
        adversary=adversary,
        crash_schedule=list(crashes),
        max_rounds=6 * topo.n,
        sink=sink,
    )
    return (
        trace_hash(sink.events),
        result.rounds,
        result.messages_sent,
        result.payload_sent,
        result.outputs,
    )


def _assert_matches_reference(topo, make_adversary, rounds, crashes=()):
    new = _traced_flooding(topo, FloodingAlgorithm, make_adversary(), rounds, crashes)
    ref = _traced_flooding(topo, ReferenceFlooding, make_adversary(), rounds, crashes)
    assert new == ref


REFERENCE_TOPOLOGIES = dict(
    TOPOLOGIES,
    torus=lambda: grid(4, 5, torus=True),
    complete=lambda: complete(7),
)

REFERENCE_ADVERSARIES = {
    "none": lambda: None,
    "tree-worst": ADVERSARIES["tree-worst"],
    "drop-3": ADVERSARIES["drop-3"],
    "tour": lambda: TourAdversary(orientation="random", seed=3),
}

def _crash_reaching_one(topo, pid, round_no):
    """``pid`` crashes mid-send in ``round_no``, reaching its lowest neighbor."""
    first = min(topo.neighbors(pid))
    return CrashEvent(pid=pid, round=round_no, delivered_to=frozenset({first}))


#: Crash schedules over low pids (every topology has them): none; one
#: clean crash after its sends; two mid-send crashes reaching one neighbor.
CRASHES = {
    "none": lambda topo: (),
    "after-send": lambda topo: (CrashEvent(pid=1, round=2),),
    "mid-send": lambda topo: (
        _crash_reaching_one(topo, 0, 1),
        _crash_reaching_one(topo, 2, 3),
    ),
}

REFERENCE_MATRIX = [
    (topo, adv, crash)
    for topo in sorted(REFERENCE_TOPOLOGIES)
    for adv in sorted(REFERENCE_ADVERSARIES)
    for crash in sorted(CRASHES)
    # TOUR is defined on complete graphs only.
    if adv != "tour" or topo == "complete"
]


@pytest.mark.parametrize("topo_name, adv_name, crash_name", REFERENCE_MATRIX)
def test_low_water_emitter_matches_full_scan(topo_name, adv_name, crash_name):
    topo = REFERENCE_TOPOLOGIES[topo_name]()
    _assert_matches_reference(
        topo,
        REFERENCE_ADVERSARIES[adv_name],
        topo.n - 1,
        CRASHES[crash_name](topo),
    )


@pytest.mark.parametrize("topo_name", sorted(REFERENCE_TOPOLOGIES))
def test_low_water_emitter_matches_full_scan_adaptive(topo_name):
    """Adaptive stopping (no adversary): the stop round depends on what
    each process learned, so it pins the merge as well as the emitter."""
    _assert_matches_reference(REFERENCE_TOPOLOGIES[topo_name](), lambda: None, None)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=14),
    p=st.floats(min_value=0.0, max_value=1.0),
    graph_seed=st.integers(min_value=0, max_value=2**16),
    drops=st.integers(min_value=0, max_value=6),
    drop_seed=st.integers(min_value=0, max_value=2**16),
)
def test_low_water_emitter_matches_full_scan_random(n, p, graph_seed, drops, drop_seed):
    topo = random_connected(n, p, random.Random(graph_seed))
    _assert_matches_reference(
        topo, lambda: BoundedDropAdversary(drops, seed=drop_seed), n - 1
    )


#: Full trace hashes of delta flooding recorded with the full-scan emitter
#: (inputs ``v0..v{n-1}``, ``max_rounds=6n``): (topology, adversary, rounds)
#: → (trace_hash, rounds, messages_sent, payload_sent).
GOLDEN = {
    "torus-8x8": (
        lambda: grid(8, 8, torus=True),
        lambda: None,
        None,
        "39d558fcc67c39311d0872570f1812de123b5c2f1d0c3760c83545b7126f579c",
        (9, 2304, 35072),
    ),
    "torus-8x8-tree-worst": (
        lambda: grid(8, 8, torus=True),
        lambda: TreeAdversary(strategy="worst", seed=11, track_pid=0),
        63,
        "5e576be9c25a2bf478c0e9de98ef152f8d4888af9ac6d0b4a07430a8a6fb5cda",
        (63, 16128, 224688),
    ),
    "path-32-tree-worst": (
        lambda: path(32),
        lambda: TreeAdversary(strategy="worst", seed=11, track_pid=0),
        31,
        "91db89cb81eaa58354ffdf51623756062003562e3352b42ce0b21aaa7190a4ce",
        (31, 1922, 5886),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_delta_flooding_trace(name):
    make_topo, make_adversary, rounds, expected_hash, expected_counts = GOLDEN[name]
    digest, *counts, _outputs = _traced_flooding(
        make_topo(), FloodingAlgorithm, make_adversary(), rounds
    )
    assert digest == expected_hash
    assert tuple(counts) == expected_counts


# -- the DeltaMessage sizer against the general walk --------------------------


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


class Tag(str):
    pass


_leaves = st.one_of(
    st.integers(),
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.sampled_from(list(Colour)),
    st.text(max_size=4).map(Tag),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.frozensets(_leaves, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(
    digest=st.integers(min_value=0, max_value=2**64),
    values=st.lists(_values, max_size=6),
)
def test_delta_sizer_agrees_with_walk(digest, values):
    pairs = tuple(enumerate(values))
    expected = 1 + sum(1 + payload_units(value) for _pid, value in pairs)
    assert payload_units(DeltaMessage(digest, pairs)) == expected


def test_exact_scalar_types_are_public():
    assert EXACT_SCALAR_TYPES == frozenset(
        {int, float, complex, str, bytes, bool, type(None)}
    )
    assert Colour not in EXACT_SCALAR_TYPES and Tag not in EXACT_SCALAR_TYPES
