"""Dual graphs of nodal curves and their derived graphs.

A nodal curve is encoded by its dual graph: one vertex per irreducible
component, weighted by the geometric genus of the component's normalization,
and one edge per node.  A node joining a component to itself is a loop.
Parallel edges are kept as distinct, individually indexable objects so that
sets of nodes can be named exactly; the edge index is the position in the
edge tuple and is stable under all operations here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CapExceeded
from .intlinalg import bareiss_determinant

DEFAULT_MAX_SUBCURVE_VERTICES = 20
# graphs kept by each per-graph memo; their reuse is a second read of a
# curve that was just computed
MEMO_SIZE = 8


@dataclass(frozen=True)
class Vertex:
    """An irreducible component: a name and the geometric genus of its normalization."""

    name: str
    genus: int


@dataclass(frozen=True)
class Subcurve:
    """A nonempty set of components, stored as sorted vertex indices."""

    vertices: tuple[int, ...]

    def __init__(self, vertices: Iterable[int]):
        object.__setattr__(self, "vertices", tuple(sorted(set(int(v) for v in vertices))))
        if not self.vertices:
            raise ValueError("a subcurve needs at least one component")

    @classmethod
    def _sorted(cls, vertices: tuple[int, ...]) -> "Subcurve":
        """The subcurve of a nonempty tuple of ints already sorted and free
        of duplicates, taken as it is."""
        subcurve = object.__new__(cls)
        object.__setattr__(subcurve, "vertices", vertices)
        return subcurve


@dataclass(frozen=True)
class NodeSet:
    """A set of nodes, stored as sorted edge indices (parallel edges are distinct)."""

    edges: tuple[int, ...]

    def __init__(self, edges: Iterable[int] = ()):
        items = tuple(sorted(int(e) for e in edges))
        if len(set(items)) != len(items):
            raise ValueError("node set references an edge twice")
        object.__setattr__(self, "edges", items)

    def __len__(self) -> int:
        return len(self.edges)


class Counts(NamedTuple):
    vertices: int
    edges: int
    first_betti: int
    genus: int


@dataclass(frozen=True, init=False)
class DualGraph:
    """Connected vertex-weighted multigraph with loops.

    Vertex order is fixed at construction and determines the coordinate
    order of every multidegree; edge order fixes the node indexing.

    The derived fields are computed at construction, in one pass over the
    edges: ``gamma`` and ``delta``, the vertex ``names``, the ``loops`` at
    each vertex, the non-loop edge ``multiplicity`` between vertex pairs,
    each vertex's ``nonloop_degree`` (its codegree) and the arithmetic
    ``genus``.  They are plain attributes, not dataclass fields, so they
    take no part in equality, hashing or ``repr``.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple[int, int]]):
        verts = tuple(vertices)
        object.__setattr__(self, "vertices", verts)
        norm = []
        for u, v in edges:
            u, v = int(u), int(v)
            norm.append((u, v) if u <= v else (v, u))
        object.__setattr__(self, "edges", tuple(norm))
        self._validate()
        n = len(verts)
        loops = [0] * n
        mult = [[0] * n for _ in range(n)]
        for u, v in norm:
            if u == v:
                loops[u] += 1
            else:
                mult[u][v] += 1
                mult[v][u] += 1
        self.__dict__.update(
            gamma=n,
            delta=len(norm),
            names=tuple(v.name for v in verts),
            loops=tuple(loops),
            multiplicity=tuple(map(tuple, mult)),
            nonloop_degree=tuple(map(sum, mult)),
            genus=sum(v.genus for v in verts) + len(norm) - n + 1,
        )

    def _validate(self) -> None:
        names = [v.name for v in self.vertices]
        if not names:
            raise ValueError("a dual graph needs at least one vertex")
        if len(set(names)) != len(names):
            raise ValueError("vertex names must be unique")
        for v in self.vertices:
            if v.genus < 0:
                raise ValueError(f"vertex {v.name!r} has negative genus")
        n = len(self.vertices)
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
        if n > 1 and len(_components(_adjacency(n, self.edges), range(n))) != 1:
            raise ValueError("the dual graph must be connected")

    @classmethod
    def from_names(
        cls,
        vertices: Sequence[tuple[str, int]],
        edges: Sequence[tuple[str, str]] = (),
    ) -> "DualGraph":
        """Build a graph from (name, genus) pairs and name-based edges."""
        verts = tuple(Vertex(name, int(genus)) for name, genus in vertices)
        index = {v.name: i for i, v in enumerate(verts)}
        if len(index) != len(verts):
            raise ValueError("vertex names must be unique")
        idx_edges = []
        for a, b in edges:
            if a not in index:
                raise ValueError(f"edge references unknown vertex {a!r}")
            if b not in index:
                raise ValueError(f"edge references unknown vertex {b!r}")
            idx_edges.append((index[a], index[b]))
        return cls(verts, idx_edges)

    def index_of(self, vertex: str | int) -> int:
        if isinstance(vertex, int):
            if not 0 <= vertex < self.gamma:
                raise ValueError(f"vertex index {vertex} out of range")
            return vertex
        try:
            return self.names.index(vertex)
        except ValueError:
            raise ValueError(f"unknown vertex {vertex!r}") from None


def _adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Per vertex, its neighbours, once per edge; loops are left out."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def _components(adj: list[list[int]], members: Sequence[int]) -> list[list[int]]:
    """Connected components of the subgraph induced on ``members``.

    Each component is sorted; with ``members`` in increasing order the
    components come ordered by their smallest vertex.
    """
    left = [False] * len(adj)
    for i in members:
        left[i] = True
    out = []
    for start in members:
        if not left[start]:
            continue
        left[start] = False
        comp = [start]
        for x in comp:
            for y in adj[x]:
                if left[y]:
                    left[y] = False
                    comp.append(y)
        comp.sort()
        out.append(comp)
    return out


def vine_graph(g1: int, g2: int, delta: int, names: tuple[str, str] = ("C1", "C2")) -> DualGraph:
    """Two components joined by ``delta`` nodes (the basic reducible example)."""
    if delta < 1:
        raise ValueError("a vine needs at least one connecting node")
    return DualGraph.from_names(
        [(names[0], g1), (names[1], g2)],
        [(names[0], names[1])] * delta,
    )


# -- counting ----------------------------------------------------------------


def counts(graph: DualGraph) -> Counts:
    """Vertex count, edge count, first Betti number and arithmetic genus."""
    gamma = graph.gamma
    delta = graph.delta
    b1 = delta - gamma + 1
    return Counts(gamma, delta, b1, graph.genus)


def component_arithmetic_genus(graph: DualGraph, vertex: str | int) -> int:
    """Arithmetic genus of a single component: geometric genus plus self-nodes."""
    i = graph.index_of(vertex)
    return graph.vertices[i].genus + graph.loops[i]


def component_codegree(graph: DualGraph, vertex: str | int) -> int:
    """Number of nodes joining the component to the rest of the curve."""
    i = graph.index_of(vertex)
    return graph.nonloop_degree[i]


@lru_cache(maxsize=MEMO_SIZE)
def complexity(graph: DualGraph) -> int:
    """Number of spanning trees (loops ignored, parallel edges distinct).

    Computed as the determinant of a reduced Laplacian over exact integers,
    so the result never overflows.  Every report's curve block reads it, so
    equal graphs share it through a memo of the last ``MEMO_SIZE`` curves:
    the reports of one curve take one determinant.
    """
    n = graph.gamma
    if n == 1:
        return 1
    mult = graph.multiplicity
    deg = graph.nonloop_degree
    reduced = [
        [deg[i] if i == j else -mult[i][j] for j in range(1, n)]
        for i in range(1, n)
    ]
    return bareiss_determinant(reduced)


def is_tree_like(graph: DualGraph) -> bool:
    """True when deleting all loops leaves a tree."""
    return graph.delta - sum(graph.loops) == graph.gamma - 1


# -- bridges, essential graph, connectivity ----------------------------------


def bridges(graph: DualGraph) -> tuple[int, ...]:
    """Indices of non-loop edges whose removal disconnects the graph.

    One depth-first search: a tree edge is a bridge when nothing below it
    reaches back above it.  A vertex skips its parent only when one edge
    joins them, so a parallel edge is a way back and never a bridge.
    """
    adj = _adjacency(graph.gamma, graph.edges)
    mult = graph.multiplicity
    order = [-1] * graph.gamma
    low = [0] * graph.gamma
    order[0] = 0
    found = 1
    out = []
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        x, parent, rest = stack[-1]
        for y in rest:
            if y == parent and mult[x][y] == 1:
                continue
            if order[y] < 0:
                order[y] = low[y] = found
                found += 1
                stack.append((y, x, iter(adj[y])))
                break
            low[x] = min(low[x], order[y])
        else:
            stack.pop()
            if stack:
                low[parent] = min(low[parent], low[x])
                if low[x] > order[parent]:
                    # a bridge is the one edge joining its ends
                    out.append(graph.edges.index((min(x, parent), max(x, parent))))
    return tuple(sorted(out))


def _contract_bridges(graph: DualGraph) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """The groups that bridges join, and the other non-loop edges as group pairs."""
    bridge_set = set(bridges(graph))
    adj = _adjacency(graph.gamma, (graph.edges[i] for i in bridge_set))
    groups = _components(adj, range(graph.gamma))
    new_id = [0] * graph.gamma
    for k, members in enumerate(groups):
        for i in members:
            new_id[i] = k
    # a non-bridge edge never closes up inside a contracted group
    edges = [
        (new_id[u], new_id[v])
        for idx, (u, v) in enumerate(graph.edges)
        if u != v and idx not in bridge_set
    ]
    return groups, edges


def essential_graph(graph: DualGraph) -> DualGraph:
    """Delete every loop, then contract every bridge.

    Genera of merged vertices are summed and their names joined with "+", so
    genus bookkeeping survives the contraction.  A joined name that a vertex
    or an earlier group already holds gets "'" appended until it is unique.
    The operation is idempotent.
    """
    groups, edges = _contract_bridges(graph)
    v = graph.vertices
    taken = set(graph.names)
    merged = []
    for g in groups:
        name = "+".join(v[i].name for i in g)
        while len(g) > 1 and name in taken:
            name += "'"
        taken.add(name)
        merged.append(Vertex(name, sum(v[i].genus for i in g)))
    return DualGraph(merged, edges)


@lru_cache(maxsize=MEMO_SIZE)
def essential_connectivity(graph: DualGraph) -> int | float:
    """Edge connectivity of the essential graph; infinity when it is a point.

    Read off the contracted edges, never naming a vertex, so no joined name
    can collide.  Every report's curve block reads it and ``abel`` reads it
    again, so equal graphs share it through a memo of the last ``MEMO_SIZE``
    curves: the reports of one curve run one minimum cut.
    """
    groups, edges = _contract_bridges(graph)
    if len(groups) == 1:
        return math.inf
    return _global_min_cut(len(groups), edges)


def _global_min_cut(n: int, edges: list[tuple[int, int]]) -> int:
    """Stoer-Wagner global minimum cut of the multigraph on range(n)."""
    w = [[0] * n for _ in range(n)]
    for u, v in edges:
        w[u][v] += 1
        w[v][u] += 1
    active = list(range(n))
    best: int | None = None
    while len(active) > 1:
        start = active[0]
        added = [start]
        rest = [x for x in active if x != start]
        conn = {x: w[start][x] for x in rest}
        while rest:
            nxt = max(rest, key=lambda x: (conn[x], -x))
            rest.remove(nxt)
            added.append(nxt)
            for x in rest:
                conn[x] += w[nxt][x]
        s, t = added[-2], added[-1]
        cut = conn[t]
        if best is None or cut < best:
            best = cut
        for x in active:
            if x != s and x != t:
                w[s][x] += w[t][x]
                w[x][s] = w[s][x]
        active.remove(t)
    assert best is not None
    return best


# -- subcurves ----------------------------------------------------------------


@lru_cache(maxsize=MEMO_SIZE)
def _subcurve_table(graph: DualGraph, max_vertices: int) -> tuple[tuple[Subcurve, int], ...]:
    """All connected proper subcurves with their arithmetic genera.

    Ordered by size then lexicographically; singletons first, which lets
    stability scans reject unbalanced multidegrees quickly.

    One pass over the vertex sets as bitmasks, in that order.  S is
    connected when some j in S is adjacent to S - j and S - j is connected
    (a leaf of a spanning tree of S is such a j), and then
    p_a(S) = p_a(S - j) + g_j + loops_j - 1 + e(j, S - j).  S - j is
    smaller, so it was met before; the last vertex of S is tried first.
    """
    n = graph.gamma
    if n == 1:  # no proper subcurve, so nothing for the cap to bound
        return ()
    if n > max_vertices:
        raise CapExceeded(
            f"subcurve enumeration capped at {max_vertices} vertices "
            f"(graph has {n})"
        )
    bit = [1 << i for i in range(n)]
    near = [0] * n
    for u, v in graph.edges:
        if u != v:
            near[u] |= bit[v]
            near[v] |= bit[u]
    own = [graph.vertices[i].genus + graph.loops[i] - 1 for i in range(n)]
    mult = graph.multiplicity
    # p_a of each connected set met so far, keyed by its bitmask
    pa = {bit[i]: own[i] + 1 for i in range(n)}
    # combinations of range(n) are sorted and free of duplicates
    subcurve = Subcurve._sorted
    table = [(subcurve((i,)), own[i] + 1) for i in range(n)]
    for size in range(2, n):
        for combo, bits in zip(combinations(range(n), size), combinations(bit, size)):
            s = sum(bits)
            j = combo[-1]
            rest = s ^ bits[-1]
            known = pa.get(rest)
            if known is None or not near[j] & rest:
                for j, b in zip(combo, bits):
                    rest = s ^ b
                    known = pa.get(rest)
                    if known is not None and near[j] & rest:
                        break
                else:
                    continue
            # mult[j][j] is 0, so summing over all of S counts e(j, S - j)
            p = pa[s] = known + own[j] + sum(map(mult[j].__getitem__, combo))
            table.append((subcurve(combo), p))
    return tuple(table)


def connected_subcurves(
    graph: DualGraph, max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES
) -> list[Subcurve]:
    """Every nonempty proper subcurve whose induced subgraph is connected."""
    return [z for z, _ in _subcurve_table(graph, max_vertices)]


def subcurve_arithmetic_genus(graph: DualGraph, subcurve: Subcurve) -> int:
    """Arithmetic genus of a connected subcurve, self-nodes included."""
    members = subcurve.vertices
    for i in members:
        if not 0 <= i < graph.gamma:
            raise ValueError(f"subcurve references missing vertex index {i}")
    if len(_components(_adjacency(graph.gamma, graph.edges), members)) != 1:
        raise ValueError("subcurve is not connected")
    inside = set(members)
    edges_inside = sum(1 for u, v in graph.edges if u in inside and v in inside)
    genera = sum(graph.vertices[i].genus for i in members)
    return genera + edges_inside - len(members) + 1


# -- partial normalization -----------------------------------------------------


def partial_normalization(graph: DualGraph, nodes: NodeSet | Iterable[int]) -> list[DualGraph]:
    """Separate the curve at exactly the given nodes.

    Returns the connected components of the result as dual graphs, ordered
    by their smallest original vertex index.  Vertex genera are unchanged;
    normalizing a loop keeps its vertex and lowers the Betti number.
    """
    node_set = nodes if isinstance(nodes, NodeSet) else NodeSet(nodes)
    for e in node_set.edges:
        if not 0 <= e < graph.delta:
            raise ValueError(f"unknown edge index {e}")
    return [
        DualGraph(tuple(graph.vertices[i] for i in comp), edges)
        for comp, edges in _normalization_pieces(graph, node_set.edges)
    ]


def _normalization_pieces(
    graph: DualGraph, removed: Iterable[int]
) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """The pieces of the curve separated at the edges ``removed``, ordered by
    their smallest vertex: each as its sorted original vertex indices and its
    kept edges, in edge order, between positions in that tuple.  The pair
    determines the piece's ``DualGraph``, so it can key a memo of pieces."""
    removed = set(removed)
    kept = [e for i, e in enumerate(graph.edges) if i not in removed]
    pieces = _components(_adjacency(graph.gamma, kept), range(graph.gamma))
    piece_of = [0] * graph.gamma
    local = [0] * graph.gamma
    for k, comp in enumerate(pieces):
        for j, i in enumerate(comp):
            piece_of[i] = k
            local[i] = j
    piece_edges: list[list[tuple[int, int]]] = [[] for _ in pieces]
    for u, v in kept:
        piece_edges[piece_of[u]].append((local[u], local[v]))
    for comp, edges in zip(pieces, piece_edges):
        yield tuple(comp), tuple(edges)
