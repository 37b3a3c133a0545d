"""Tests for communication graphs (paper §3.1)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ConfigurationError
from repro.sync import (
    Topology,
    balanced_tree,
    complete,
    grid,
    path,
    random_connected,
    random_spanning_tree,
    ring,
    star,
)


class TestTopologyBasics:
    def test_add_edge_symmetric(self):
        topo = Topology(3, [(0, 1)])
        assert 1 in topo.neighbors(0)
        assert 0 in topo.neighbors(1)

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology(2, [(0, 0)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology(2, [(0, 5)])

    def test_has_edge_order_independent(self):
        topo = Topology(3, [(2, 1)])
        assert topo.has_edge(1, 2) and topo.has_edge(2, 1)

    def test_degree_and_max_degree(self):
        topo = star(5)
        assert topo.degree(0) == 4
        assert topo.max_degree() == 4

    def test_disconnected_diameter_raises(self):
        topo = Topology(4, [(0, 1), (2, 3)])
        assert not topo.is_connected()
        with pytest.raises(ConfigurationError):
            topo.diameter()


class TestFamilies:
    def test_ring_shape(self):
        topo = ring(6)
        assert all(topo.degree(v) == 2 for v in topo.vertices())
        assert topo.diameter() == 3

    def test_ring_minimum_size(self):
        with pytest.raises(ConfigurationError):
            ring(2)

    def test_path_diameter(self):
        assert path(7).diameter() == 6

    def test_complete_graph(self):
        topo = complete(5)
        assert topo.is_complete()
        assert topo.diameter() == 1
        assert len(topo.edges) == 10

    def test_star_diameter_two(self):
        assert star(6).diameter() == 2

    def test_balanced_tree_counts(self):
        topo = balanced_tree(2, 3)
        assert topo.n == 15
        assert topo.is_connected()
        assert len(topo.edges) == 14

    def test_grid_dimensions(self):
        topo = grid(3, 4)
        assert topo.n == 12
        assert topo.diameter() == 5  # (3-1) + (4-1)

    def test_torus_smaller_diameter_than_grid(self):
        assert grid(4, 4, torus=True).diameter() < grid(4, 4).diameter()

    def test_random_connected_is_connected(self):
        for seed in range(5):
            topo = random_connected(20, 0.05, random.Random(seed))
            assert topo.is_connected()


class TestSpanningTrees:
    def test_bfs_spanning_tree_size(self):
        topo = grid(4, 5)
        tree = topo.spanning_tree_edges()
        assert len(tree) == topo.n - 1

    def test_bfs_tree_edges_exist_in_graph(self):
        topo = random_connected(15, 0.2)
        for (u, v) in topo.spanning_tree_edges():
            assert topo.has_edge(u, v)

    def test_random_spanning_tree_spans(self):
        topo = complete(8)
        rng = random.Random(3)
        tree = random_spanning_tree(topo, rng)
        assert len(tree) == 7
        # Spanning: union-find over tree edges reaches everyone.
        parent = list(range(8))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in tree:
            parent[find(u)] = find(v)
        assert len({find(v) for v in range(8)}) == 1

    def test_random_spanning_trees_vary(self):
        topo = complete(8)
        rng = random.Random(0)
        trees = {random_spanning_tree(topo, rng) for _ in range(10)}
        assert len(trees) > 1

    def test_random_spanning_tree_ignores_edge_order(self):
        """Equal graphs give equal TREE-adversary trees for equal seeds,
        whatever order their edges were listed in."""
        edges = [(i, (i + 1) % 10) for i in range(10)]
        built = ring(10)
        reversed_edges = Topology(10, edges[::-1])
        for seed in range(50):
            assert random_spanning_tree(
                built, random.Random(seed)
            ) == random_spanning_tree(reversed_edges, random.Random(seed)), seed


class TestBfs:
    def test_distances_on_path(self):
        topo = path(5)
        assert topo.bfs_distances(0) == [0, 1, 2, 3, 4]

    def test_unreachable_is_none(self):
        topo = Topology(3, [(0, 1)])
        assert topo.bfs_distances(0)[2] is None


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 40))
def test_ring_diameter_formula(n):
    assert ring(n).diameter() == n // 2


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 30))
def test_complete_diameter_is_one(n):
    assert complete(n).diameter() == 1


class TestDistanceCaches:
    def test_bfs_distances_returns_fresh_lists(self):
        topo = path(5)
        first = topo.bfs_distances(0)
        first[0] = 999  # corrupting the returned list must not poison the cache
        assert topo.bfs_distances(0) == [0, 1, 2, 3, 4]

    def test_repeated_diameter_is_cached_value(self):
        topo = ring(12)
        assert topo.diameter() == topo.diameter() == 6

    def test_diameter_does_not_populate_per_source_cache(self):
        # A single scalar answer must not pin O(n^2) distance maps.
        topo = ring(64)
        topo.diameter()
        assert len(topo._distance_cache) <= 1
