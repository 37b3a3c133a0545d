"""Flat CSR storage of :class:`Topology`: the O(n·d) constructors,
determinism, validation and queries."""

import hashlib
import random
from array import array

import pytest

from repro.core.exceptions import ConfigurationError
from repro.sync.topology import (
    Topology,
    balanced_tree,
    complete,
    grid,
    path,
    random_connected,
    random_regular,
    ring,
    star,
)


def reference_rows(n, edges):
    """Sorted neighbor lists straight from an edge-list definition."""
    rows = [set() for _ in range(n)]
    for u, v in edges:
        rows[u].add(v)
        rows[v].add(u)
    return [sorted(row) for row in rows]


def csr_rows(topo):
    indptr, indices = topo.csr()
    return [list(indices[indptr[u]:indptr[u + 1]]) for u in range(topo.n)]


def grid_edges(rows, cols, torus):
    """The grid's edge-list definition: wrap only dimensions of size > 2."""
    vid = lambda r, c: r * cols + c  # noqa: E731
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            elif torus and cols > 2:
                edges.append((vid(r, c), vid(r, 0)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
            elif torus and rows > 2:
                edges.append((vid(r, c), vid(0, c)))
    return edges


class TestFlatRing:
    def test_matches_object_ring(self):
        for n in (3, 4, 8, 17):
            edges = [(i, (i + 1) % n) for i in range(n)]
            assert csr_rows(ring(n)) == reference_rows(n, edges)
            assert ring(n).edges == Topology(n, edges).edges

    def test_csr_slices_sorted(self):
        g = ring(9)
        indptr, indices = g.csr()
        for u in range(g.n):
            row = list(indices[indptr[u]:indptr[u + 1]])
            assert row == sorted(row)
            assert len(row) == 2

    def test_rejects_tiny(self):
        with pytest.raises(ConfigurationError):
            ring(2)

    def test_linear_build_at_scale(self):
        g = ring(50_000)
        indptr, indices = g.csr()
        assert g.n == 50_000
        assert len(indices) // 2 == 50_000
        assert g.degree(0) == 2
        assert list(indices[indptr[0]:indptr[1]]) == [1, 49_999]


class TestFlatTorus:
    SHAPES = [(r, c) for r in (1, 2, 3, 4) for c in (1, 2, 3, 5)] + [(4, 6), (5, 7)]

    def test_matches_object_torus(self):
        for rows, cols in self.SHAPES:
            for torus in (False, True):
                topo = grid(rows, cols, torus=torus)
                expected = reference_rows(rows * cols, grid_edges(rows, cols, torus))
                assert csr_rows(topo) == expected, (rows, cols, torus)

    def test_four_regular(self):
        g = grid(5, 7, torus=True)
        assert all(g.degree(u) == 4 for u in range(g.n))

    def test_rejects_wrapless_dimensions(self):
        """A dimension of size <= 2 gets no wrap edge: it would repeat a
        grid edge (size 2) or be a self-loop (size 1)."""
        g = grid(2, 5, torus=True)
        assert all(g.degree(u) == 3 for u in range(g.n))
        assert g.edges == grid(2, 5).edges | {(0, 4), (5, 9)}
        assert grid(1, 1, torus=True).degree(0) == 0
        with pytest.raises(ConfigurationError):
            grid(0, 5, torus=True)


class TestFlatRandomRegular:
    #: (n, d, seed) -> sha256 of repr(list(indices)), recorded from the
    #: CSR constructor this one replaced; every indptr is range(0, n*d+1, d).
    RECORDED = {
        (10, 3, 2): "b5d2ef1d1a29bcba11dfec9abf5c4c00c4a4480feb0c47ea55d1dbd80bdbc9b9",
        (12, 4, 1): "df6debaee09f5391f3ea5c91c2d4fa2cd047511ecacd638ec3ec3b19260be8b1",
        (40, 3, 1): "befe83e9cfc274f596bf62d63e188d52160dbed71004c99541c166ab820eee1c",
        (60, 3, 9): "410dcc0d2697c4658dba052d852501e8e28e796c0ca2d03bd4ef149ec6e6a1b1",
        (1000, 3, 7): "fc42f45fbfcce6ef3d417d2ce127382168d4f3392063d9cf719d82a8feab21c8",
    }

    def test_regular_and_connected(self):
        g = random_regular(40, 3, seed=1)
        assert all(g.degree(u) == 3 for u in range(g.n))
        assert g.is_connected()

    def test_simple_graph(self):
        g = random_regular(30, 4, seed=5)
        for u, row in enumerate(csr_rows(g)):
            assert u not in row  # no self-loops
            assert len(set(row)) == len(row) == 4  # no parallel edges
            assert all(g.has_edge(v, u) for v in row)  # symmetric

    def test_deterministic_in_seed(self):
        a = random_regular(60, 3, seed=9)
        b = random_regular(60, 3, seed=9)
        assert a.csr() == b.csr()

    def test_different_seeds_differ(self):
        a = random_regular(60, 3, seed=1)
        b = random_regular(60, 3, seed=2)
        assert a.csr()[1] != b.csr()[1]

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            random_regular(10, 1)
        with pytest.raises(ConfigurationError):
            random_regular(4, 5)
        with pytest.raises(ConfigurationError):
            random_regular(5, 3)  # n*d odd

    @pytest.mark.parametrize("n,d,seed", sorted(RECORDED))
    def test_arrays_match_recorded(self, n, d, seed):
        indptr, indices = random_regular(n, d, seed=seed).csr()
        assert list(indptr) == list(range(0, n * d + 1, d))
        digest = hashlib.sha256(repr(list(indices)).encode()).hexdigest()
        assert digest == self.RECORDED[(n, d, seed)]


class TestFlatGraphQueries:
    def test_neighbors_and_has_edge(self):
        g = grid(4, 4, torus=True)
        for u in range(g.n):
            for v in g.neighbors(u):
                assert g.has_edge(u, v)
                assert g.has_edge(v, u)
            assert not g.has_edge(u, u)
        assert not g.has_edge(-1, 0) and not g.has_edge(g.n, 0)

    def test_bfs_and_diameter_match_topology(self):
        g = random_regular(24, 3, seed=3)
        edge_built = Topology(g.n, g.edges)
        assert g.bfs_distances(0) == edge_built.bfs_distances(0)
        assert g.diameter() == edge_built.diameter()
        assert g.radius_bound() >= g.diameter()

    def test_round_trip_through_topology(self):
        """CSR-built and edge-list-built graphs agree array for array."""
        g = random_regular(20, 3, seed=4)
        back = Topology(g.n, g.edges)
        assert back.csr() == g.csr()
        assert back.edges == g.edges

    def test_malformed_csr_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology._from_csr(3, array("l", [0, 1, 2]), array("l", [1, 0]), "bad")
        with pytest.raises(ConfigurationError):
            Topology._from_csr(0, array("l", [0]), array("l"), "empty")


class TestTopologyCsrCache:
    def test_csr_memoized(self):
        topo = ring(8)
        assert topo.csr() is topo.csr()

    def test_csr_matches_neighbors(self):
        topo = grid(3, 4, torus=True)
        indptr, indices = topo.csr()
        for u in range(topo.n):
            assert (
                frozenset(indices[indptr[u]:indptr[u + 1]])
                == topo.neighbors(u)
            )


FAMILIES = {
    "ring": lambda: ring(11),
    "path": lambda: path(6),
    "complete": lambda: complete(5),
    "star": lambda: star(6),
    "tree": lambda: balanced_tree(2, 3),
    "grid": lambda: grid(3, 5),
    "torus": lambda: grid(4, 3, torus=True),
    "gnp": lambda: random_connected(15, 0.1, random.Random(2)),
    "random-regular": lambda: random_regular(16, 3, seed=1),
    "edge-list": lambda: Topology(5, [(4, 0), (2, 1), (1, 2), (3, 0)]),
}


class TestOneGraphType:
    def test_no_mutator(self):
        public = {name for name in dir(Topology) if not name.startswith("_")}
        assert public == {
            "csr", "degree", "diameter", "edges", "has_edge", "is_complete",
            "is_connected", "max_degree", "n", "name", "neighbors",
            "radius_bound", "spanning_tree_edges", "bfs_distances", "vertices",
        }
        topo = ring(5)
        with pytest.raises(AttributeError):
            topo.add_edge(0, 2)
        with pytest.raises(AttributeError):
            topo.extra = 1  # __slots__: no ad-hoc state either

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_csr_rows_sorted_and_match_neighbors(self, family):
        topo = FAMILIES[family]()
        indptr, indices = topo.csr()
        assert len(indptr) == topo.n + 1 and indptr[topo.n] == len(indices)
        for u in range(topo.n):
            row = list(indices[indptr[u]:indptr[u + 1]])
            assert row == sorted(set(row))
            assert frozenset(row) == topo.neighbors(u)
            assert len(row) == topo.degree(u)
        assert len(topo.edges) * 2 == len(indices)

