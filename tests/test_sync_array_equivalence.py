"""Observational equivalence: columnar engine vs object kernel.

The golden matrix: change-propagation aggregate flooding x {clean,
message adversary, mid-send crash} x {ring, torus, random-regular},
plus a TREE-adversary cell and an adversary-plus-crash cell.
Each cell runs the per-process :class:`AggregateFlooding` on the object
kernel and :class:`ColumnarAggregateFlooding` on the
:class:`ColumnarRunner` with identical configuration, and asserts equal
results and counters (the trace granularity differs by construction,
so hashes are not compared across engines).

The literal trace hashes in :data:`PINNED` and the pid-relabeling
property run on the object kernel.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sync import run_synchronous
from repro.sync.adversary import BoundedDropAdversary, TreeAdversary
from repro.sync.algorithms import (
    AggregateFlooding,
    ColumnarAggregateFlooding,
    make_flooders,
    make_floodset,
)
from repro.sync.arraykernel import run_columnar
from repro.sync.kernel import CrashEvent
from repro.sync.topology import grid, random_regular, ring
from repro.trace import MemorySink, trace_hash

TOPOLOGIES = {
    "ring": lambda: ring(9),
    "torus": lambda: grid(3, 4, torus=True),
    "random-regular": lambda: random_regular(10, 3, seed=2),
}

FAULTS = {
    "clean": (None, ()),
    "adversary": (lambda: BoundedDropAdversary(max_drops=2, seed=3), ()),
    "crash": (None, (CrashEvent(pid=1, round=2, delivered_to=frozenset({0})),)),
}

ROUNDS = 6


def assert_columnar_matches(topo, mkadv=None, crashes=()):
    """Run both engines on one configuration; assert equal observables."""
    n = topo.n
    inputs = [(7 * i + 3) % 29 for i in range(n)]
    obj = run_synchronous(
        topo,
        [AggregateFlooding(rounds=ROUNDS, op="min") for _ in range(n)],
        inputs,
        adversary=mkadv() if mkadv else None,
        crash_schedule=crashes,
    )
    col = run_columnar(
        topo,
        ColumnarAggregateFlooding(rounds=ROUNDS, op="min"),
        inputs,
        adversary=mkadv() if mkadv else None,
        crash_schedule=crashes,
    )
    assert col.outputs == obj.outputs
    assert col.rounds == obj.rounds
    assert col.decided == obj.decided
    assert col.halted == obj.halted
    assert col.crashed == obj.crashed
    assert col.messages_sent == obj.messages_sent
    assert col.message_count == obj.message_count
    assert col.payload_sent == obj.payload_sent
    assert col.payload_delivered == obj.payload_delivered


@pytest.mark.parametrize("fault_name", sorted(FAULTS))
@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
def test_matrix(fault_name, topo_name):
    mkadv, crashes = FAULTS[fault_name]
    assert_columnar_matches(TOPOLOGIES[topo_name](), mkadv, crashes)


def test_tree_adversary_cell():
    assert_columnar_matches(ring(9), mkadv=lambda: TreeAdversary(seed=5))


def test_adversary_plus_crash():
    assert_columnar_matches(
        grid(3, 4, torus=True),
        mkadv=lambda: BoundedDropAdversary(max_drops=2, seed=3),
        crashes=(CrashEvent(pid=1, round=2, delivered_to=frozenset({0})),),
    )


class TestPinnedHashes:
    """Literal golden hashes of the object kernel's event stream."""

    def _hash(self, **kwargs):
        sink = MemorySink()
        run_synchronous(sink=sink, **kwargs)
        return trace_hash(sink.events)

    def test_flooding_clean_ring(self):
        h = self._hash(
            topology=ring(8),
            algorithms=make_flooders(8, rounds=6),
            inputs=[10 + i for i in range(8)],
        )
        assert h == PINNED["flooding-clean-ring8"]

    def test_flooding_crash_torus(self):
        h = self._hash(
            topology=grid(3, 4, torus=True),
            algorithms=make_flooders(12, rounds=6),
            inputs=[10 + i for i in range(12)],
            crash_schedule=(
                CrashEvent(pid=1, round=2, delivered_to=frozenset({0})),
            ),
        )
        assert h == PINNED["flooding-crash-torus3x4"]

    def test_floodset_adversary_rr(self):
        h = self._hash(
            topology=random_regular(10, 3, seed=2),
            algorithms=make_floodset(10, t=2),
            inputs=[i % 2 for i in range(10)],
            adversary=BoundedDropAdversary(max_drops=2, seed=3),
        )
        assert h == PINNED["floodset-adversary-rr10"]


PINNED = {
    "flooding-clean-ring8": (
        "d08deeab4a4c01dd94f944bf467fdf806bda9eae93b2f4c7695b85d5ba026ab0"
    ),
    "flooding-crash-torus3x4": (
        "e2079c10ea2954d196dfcb71adcec62d0cc3a5b703444d3a132d68b5c24020dc"
    ),
    "floodset-adversary-rr10": (
        "5671d20f699898ccb73b1584b6d9e740602c13472fd5efe05752cdb01901ab8a"
    ),
}


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
    data=st.data(),
)
def test_pid_relabeling_metamorphic(n, seed, data):
    """Relabeling pids commutes with execution on the object kernel.

    Run min-aggregation flooding on ring(n), then on the pid-relabeled
    ring; outputs must satisfy out'[perm[p]] == out[p] and the global
    observables (rounds, message counts) must be invariant.
    """
    import random

    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    inputs = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=999), min_size=n, max_size=n
        )
    )
    base = ring(n)
    rounds = base.diameter()

    relabeled_edges = [(perm[u], perm[v]) for (u, v) in base.edges]
    from repro.sync.topology import Topology

    relabeled = Topology(n, relabeled_edges)
    relabeled_inputs = [None] * n
    for p in range(n):
        relabeled_inputs[perm[p]] = inputs[p]

    def run(topo, ins):
        return run_synchronous(
            topo,
            [AggregateFlooding(rounds=rounds, op="min") for _ in range(n)],
            ins,
        )

    res = run(base, inputs)
    res_p = run(relabeled, relabeled_inputs)

    assert res_p.rounds == res.rounds
    assert res_p.messages_sent == res.messages_sent
    assert res_p.payload_sent == res.payload_sent
    for p in range(n):
        assert res_p.outputs[perm[p]] == res.outputs[p]
        assert res.outputs[p] == min(inputs)
