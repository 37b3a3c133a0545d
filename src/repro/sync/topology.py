"""Communication graphs for the synchronous LOCAL model (paper §3.1).

The synchronous system is an undirected connected graph ``G = (V, E)``:
vertices are reliable sequential processes, edges are reliable
bidirectional channels.  This module provides one immutable graph type,
:class:`Topology`, stored as CSR (compressed sparse row) adjacency in
two ``array('l')`` columns, plus constructors for the standard graph
families used in the locality literature (ring, path, complete, star,
balanced tree, grid/torus, Erdős–Rényi, random regular) and the
graph-theoretic utilities the algorithms need (diameter, BFS distances,
spanning trees, connectivity).

The same type serves laptop-scale graphs and the mega-scale columnar
engine (:mod:`repro.sync.arraykernel`): :func:`ring`, :func:`grid` and
:func:`random_regular` build the CSR arrays directly in O(n·d) without
materializing a Python edge set.  Pure Python and stdlib ``array``
only; no networkx.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.exceptions import ConfigurationError

Edge = Tuple[int, int]


def _canonical(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _pack_rows(rows: Sequence[Iterable[int]]) -> Tuple[array, array]:
    """Pack per-vertex neighbor collections into sorted CSR arrays."""
    indptr = array("l", [0])
    indices = array("l")
    for row in rows:
        indices.extend(sorted(row))
        indptr.append(len(indices))
    return indptr, indices


class Topology:
    """An immutable undirected graph on vertices ``0..n-1``.

    Adjacency is CSR: vertex ``u``'s neighbors are
    ``indices[indptr[u]:indptr[u + 1]]``, sorted ascending.
    """

    __slots__ = ("n", "name", "_csr", "_distance_cache", "_diameter", "_edges")

    def __init__(self, n: int, edges: Iterable[Edge], name: str = "graph") -> None:
        if n < 1:
            raise ConfigurationError(f"a topology needs n >= 1 vertices, got {n}")
        rows: List[set] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ConfigurationError(f"self-loop at vertex {u} not allowed")
            for w in (u, v):
                if not 0 <= w < n:
                    raise ConfigurationError(
                        f"vertex {w} outside 0..{n - 1} in edge ({u},{v})"
                    )
            rows[u].add(v)
            rows[v].add(u)
        self._adopt(n, *_pack_rows(rows), name)

    @classmethod
    def _from_csr(cls, n: int, indptr: array, indices: array, name: str) -> "Topology":
        """Wrap ready CSR arrays (sorted rows, symmetric, no self-loops)."""
        if n < 1:
            raise ConfigurationError(f"a topology needs n >= 1 vertices, got {n}")
        if len(indptr) != n + 1 or indptr[0] != 0 or indptr[n] != len(indices):
            raise ConfigurationError("malformed CSR: indptr does not index indices")
        topology = cls.__new__(cls)
        topology._adopt(n, indptr, indices, name)
        return topology

    def _adopt(self, n: int, indptr: array, indices: array, name: str) -> None:
        self.n = n
        self.name = name
        self._csr = (indptr, indices)
        # Flooding benchmarks ask for BFS distances and the diameter once
        # per seed over the same graph.  The graph is immutable, so these
        # memos stay valid for its lifetime.
        self._distance_cache: Dict[int, Tuple[Optional[int], ...]] = {}
        self._diameter: Optional[int] = None
        self._edges: Optional[FrozenSet[Edge]] = None

    # -- queries -------------------------------------------------------------

    def neighbors(self, u: int) -> FrozenSet[int]:
        """The neighbor set of vertex ``u``."""
        indptr, indices = self._csr
        return frozenset(indices[indptr[u]:indptr[u + 1]])

    def degree(self, u: int) -> int:
        indptr = self._csr[0]
        return indptr[u + 1] - indptr[u]

    def max_degree(self) -> int:
        """Δ(G), the maximum degree."""
        indptr = self._csr[0]
        return max(indptr[u + 1] - indptr[u] for u in range(self.n))

    @property
    def edges(self) -> FrozenSet[Edge]:
        """All edges as canonical (min, max) pairs."""
        if self._edges is None:
            indptr, indices = self._csr
            self._edges = frozenset(
                (u, v)
                for u in range(self.n)
                for v in indices[indptr[u]:indptr[u + 1]]
                if u < v
            )
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        if not 0 <= u < self.n:
            return False
        indptr, indices = self._csr
        hi = indptr[u + 1]
        j = bisect_left(indices, v, indptr[u], hi)
        return j < hi and indices[j] == v

    def csr(self) -> Tuple[array, array]:
        """The adjacency in CSR form: ``(indptr, indices)`` arrays.

        Vertex ``u``'s neighbors are ``indices[indptr[u]:indptr[u+1]]``,
        sorted ascending.  This is the layout the columnar engine
        (:mod:`repro.sync.arraykernel`) executes against.  These are the
        graph's own arrays; callers must treat them as read-only.
        """
        return self._csr

    def vertices(self) -> range:
        return range(self.n)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    # -- graph algorithms ----------------------------------------------------

    def bfs_distances(self, source: int) -> List[Optional[int]]:
        """Hop distances from ``source``; ``None`` for unreachable vertices.

        Memoized per source; a fresh list is returned on every call so
        callers can't corrupt the cache.
        """
        cached = self._distance_cache.get(source)
        if cached is not None:
            return list(cached)
        dist = self._bfs(source)
        self._distance_cache[source] = tuple(dist)
        return dist

    def _bfs(
        self, source: int, rows: Optional[List[Tuple[int, ...]]] = None
    ) -> List[Optional[int]]:
        """Level-synchronous BFS over CSR slices, or over ``rows`` when
        given (per-vertex neighbor tuples, see :meth:`diameter`)."""
        indptr, indices = self._csr
        dist: List[Optional[int]] = [None] * self.n
        dist[source] = 0
        frontier = [source]
        level = 0
        while frontier:
            level += 1
            nxt: List[int] = []
            for u in frontier:
                row = rows[u] if rows is not None else indices[indptr[u]:indptr[u + 1]]
                for v in row:
                    if dist[v] is None:
                        dist[v] = level
                        nxt.append(v)
            frontier = nxt
        return dist

    def is_connected(self) -> bool:
        """True when the graph is connected (the model requires it)."""
        if self.n == 1:
            return True
        return all(d is not None for d in self.bfs_distances(0))

    def radius_bound(self) -> int:
        """A cheap upper bound on the diameter: ``2 · ecc(0)``.

        One BFS instead of n — the mega-scale substitute for
        :meth:`diameter`, used to pick a safe round budget for flooding
        (any R ≥ diameter works).  Not memoized, so a mega-scale graph
        keeps no O(n) distance map.
        """
        dist = self._bfs(0)
        if None in dist:
            raise ConfigurationError("radius bound undefined: graph is disconnected")
        return 2 * max(dist)  # type: ignore[type-var]

    def diameter(self) -> int:
        """The diameter D of the graph (max over all BFS eccentricities).

        Memoized (flooding benchmarks ask for D once per run).  The n
        BFS runs read per-vertex neighbor tuples, which iterate faster
        than CSR slices; the tuples live only for this call.
        """
        if self._diameter is not None:
            return self._diameter
        if not self.is_connected():
            raise ConfigurationError("diameter undefined: graph is disconnected")
        indptr, indices = self._csr
        rows = [tuple(indices[indptr[u]:indptr[u + 1]]) for u in range(self.n)]
        # Raw BFS on purpose: memoizing all n sources here would cost
        # O(n²) memory on big graphs for a single scalar answer.
        self._diameter = max(
            max(self._bfs(source, rows))  # type: ignore[type-var]
            for source in range(self.n)
        )
        return self._diameter

    def is_complete(self) -> bool:
        return len(self._csr[1]) == self.n * (self.n - 1)

    def spanning_tree_edges(self, root: int = 0) -> FrozenSet[Edge]:
        """A BFS spanning tree rooted at ``root`` (graph must be connected)."""
        if not self.is_connected():
            raise ConfigurationError("spanning tree needs a connected graph")
        indptr, indices = self._csr
        seen = {root}
        tree = set()
        frontier = [root]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for v in indices[indptr[u]:indptr[u + 1]]:
                    if v not in seen:
                        seen.add(v)
                        tree.add(_canonical(u, v))
                        nxt.append(v)
            frontier = nxt
        return frozenset(tree)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Topology({self.name!r}, n={self.n}, m={len(self._csr[1]) // 2})"


# ---------------------------------------------------------------------------
# Standard families
# ---------------------------------------------------------------------------


def ring(n: int) -> Topology:
    """The n-cycle — the graph of the Cole–Vishkin coloring result (§3.2).

    Built directly in CSR in O(n).
    """
    if n < 3:
        raise ConfigurationError(f"a ring needs n >= 3 vertices, got {n}")
    indptr = array("l", range(0, 2 * n + 1, 2))
    indices = array("l")
    for i in range(n):
        left = (i - 1) % n
        right = (i + 1) % n
        if left < right:
            indices.append(left)
            indices.append(right)
        else:
            indices.append(right)
            indices.append(left)
    return Topology._from_csr(n, indptr, indices, f"ring-{n}")


def path(n: int) -> Topology:
    """The n-vertex path (diameter n-1, the worst case for flooding)."""
    if n < 2:
        raise ConfigurationError(f"a path needs n >= 2 vertices, got {n}")
    return Topology(n, [(i, i + 1) for i in range(n - 1)], name=f"path-{n}")


def complete(n: int) -> Topology:
    """K_n — required by the TOUR adversary (§3.3)."""
    if n < 2:
        raise ConfigurationError(f"a complete graph needs n >= 2 vertices, got {n}")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Topology(n, edges, name=f"complete-{n}")


def star(n: int) -> Topology:
    """A star with center 0 (diameter 2)."""
    if n < 2:
        raise ConfigurationError(f"a star needs n >= 2 vertices, got {n}")
    return Topology(n, [(0, i) for i in range(1, n)], name=f"star-{n}")


def balanced_tree(branching: int, height: int) -> Topology:
    """A complete ``branching``-ary tree of the given height."""
    if branching < 1 or height < 0:
        raise ConfigurationError("balanced tree needs branching >= 1, height >= 0")
    count = 1
    layer = 1
    for _ in range(height):
        layer *= branching
        count += layer
    edges: List[Edge] = []
    for child in range(1, count):
        parent = (child - 1) // branching
        edges.append((parent, child))
    return Topology(count, edges, name=f"tree-{branching}x{height}")


def grid(rows: int, cols: int, torus: bool = False) -> Topology:
    """A rows×cols grid, optionally with wraparound (torus).

    A dimension of size ≤ 2 never wraps (its wrap edge would repeat a
    grid edge or be a self-loop).  The 4-regular torus (both dimensions
    ≥ 3) is built directly in CSR in O(rows·cols).
    """
    if rows < 1 or cols < 1:
        raise ConfigurationError("grid needs rows >= 1 and cols >= 1")
    kind = "torus" if torus else "grid"
    name = f"{kind}-{rows}x{cols}"
    if torus and rows > 2 and cols > 2:
        n = rows * cols
        indptr = array("l", range(0, 4 * n + 1, 4))
        indices = array("l")
        for r in range(rows):
            up = ((r - 1) % rows) * cols
            down = ((r + 1) % rows) * cols
            base = r * cols
            for c in range(cols):
                nbrs = [
                    up + c,
                    down + c,
                    base + (c - 1) % cols,
                    base + (c + 1) % cols,
                ]
                nbrs.sort()
                indices.extend(nbrs)
        return Topology._from_csr(n, indptr, indices, name)

    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges: List[Edge] = []
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
    return Topology(rows * cols, edges, name=name)


def random_regular(
    n: int, d: int, seed: int = 0, max_attempts: int = 200
) -> Topology:
    """A connected random d-regular graph, deterministic in ``(n, d, seed)``.

    Configuration model with whole-pairing rejection: shuffle the
    ``n·d`` stub multiset, pair consecutive stubs, reject the attempt on
    any self-loop or repeated edge (and on disconnection), retry with
    the next derived RNG state.  For d ≥ 3 a constant fraction of
    pairings is simple and simple d-regular graphs are connected w.h.p.,
    so the expected attempt count is O(1); the result is a pure function
    of the arguments.  Built directly in CSR in O(n·d).
    """
    if d < 2:
        raise ConfigurationError(f"random regular graph needs degree >= 2, got {d}")
    if d >= n:
        raise ConfigurationError(f"degree {d} needs n > d, got n={n}")
    if (n * d) % 2 != 0:
        raise ConfigurationError(f"n*d must be even, got n={n}, d={d}")
    rng = random.Random(seed)
    stubs = list(range(n)) * d
    for _attempt in range(max_attempts):
        rng.shuffle(stubs)
        adjacency: List[List[int]] = [[] for _ in range(n)]
        seen_pairs = set()
        simple = True
        for k in range(0, len(stubs), 2):
            u, v = stubs[k], stubs[k + 1]
            if u == v:
                simple = False
                break
            key = _canonical(u, v)
            if key in seen_pairs:
                simple = False
                break
            seen_pairs.add(key)
            adjacency[u].append(v)
            adjacency[v].append(u)
        if not simple:
            continue
        graph = Topology._from_csr(
            n, *_pack_rows(adjacency), f"rr-{n}-d{d}-s{seed}"
        )
        if None not in graph._bfs(0):  # connected; no distance map kept
            return graph
    raise ConfigurationError(
        f"no connected simple {d}-regular graph found in {max_attempts} "
        f"attempts for n={n}, seed={seed}"
    )


def random_connected(n: int, p: float, rng: Optional[random.Random] = None) -> Topology:
    """An Erdős–Rényi G(n, p) graph, re-sampled / patched until connected.

    If the sampled graph is disconnected, a spanning set of bridging edges
    is added (keeping the result close to G(n, p) for reasonable ``p``).
    """
    if n < 2:
        raise ConfigurationError(f"random graph needs n >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"edge probability must be in [0,1], got {p}")
    rng = rng or random.Random(0)
    name = f"gnp-{n}-{p}"
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    topo = Topology(n, edges, name=name)
    # Patch connectivity: link each unreachable component to vertex 0's.
    while not topo.is_connected():
        dist = topo.bfs_distances(0)
        unreachable = [v for v in range(n) if dist[v] is None]
        reachable = [v for v in range(n) if dist[v] is not None]
        edges.add((rng.choice(reachable), rng.choice(unreachable)))
        topo = Topology(n, edges, name=name)
    return topo


def random_spanning_tree(
    topology: Topology, rng: random.Random
) -> FrozenSet[Edge]:
    """A uniform-ish random spanning tree via randomized BFS/DFS hybrid.

    Used by the TREE message adversary to change the tree every round.
    Neighbors are shuffled from their sorted CSR order, so equal graphs
    give equal trees for equal RNG states, however they were built.
    """
    indptr, indices = topology.csr()
    root = rng.randrange(topology.n)
    seen = {root}
    tree = set()
    frontier = [root]
    while frontier:
        u = frontier.pop(rng.randrange(len(frontier)))
        row = indices[indptr[u]:indptr[u + 1]]
        candidates = [v for v in row if v not in seen]
        rng.shuffle(candidates)
        for v in candidates:
            if v not in seen:
                seen.add(v)
                tree.add(_canonical(u, v))
                frontier.append(v)
        # u may still have unseen neighbors later; re-add if any remain.
        if any(v not in seen for v in row):
            frontier.append(u)
    if len(seen) != topology.n:
        raise ConfigurationError("random_spanning_tree requires a connected graph")
    return frozenset(tree)
