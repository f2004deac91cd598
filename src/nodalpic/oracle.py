"""Brute-force cross-checks, kept simple rather than fast.

Nothing here shares nontrivial code with the main modules: connectivity,
arithmetic genus and the balancing predicate are all reimplemented from
scratch, otherwise these routines would certify nothing.  They are meant for
tests and for small desk-scale examples only, except the closed-form counts
(``semistable_count``, ``stable_count``): they need no degree box and reach
curves well past the brute-force bounds.

The one shortcut is in ``semistable_bruteforce``: its scan never enters a
value that the balancing predicate's own singleton inequality rejects, so the
padded box costs no more than the unpadded one.  The reason it leaves the
output unchanged is given in that function's docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, product

from .errors import CapExceeded
from .graph import DualGraph
from .multidegree import Multidegree


@dataclass(frozen=True)
class OracleConfig:
    max_vertices: int = 6
    max_edges: int = 10
    box_radius: int = 4
    coset_depth: int = 6

    def __post_init__(self):
        if min(self.max_vertices, self.max_edges, self.box_radius, self.coset_depth) <= 0:
            raise ValueError("oracle bounds must be positive")


class SearchOutcome(Enum):
    """Result of a bounded search: it can confirm, but never refute beyond its depth."""

    FOUND = "found"
    NOT_FOUND_WITHIN_BOUNDS = "not_found_within_bounds"
    INCONCLUSIVE = "inconclusive"


def _check_bounds(graph: DualGraph, config: OracleConfig) -> None:
    if graph.gamma > config.max_vertices or graph.delta > config.max_edges:
        raise CapExceeded(
            f"oracle limited to {config.max_vertices} vertices / "
            f"{config.max_edges} edges"
        )


def _spans(n: int, pairs: list[tuple[int, int]]) -> bool:
    # union-find based tree test: n-1 edges that never close a cycle
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def spanning_trees_bruteforce(graph: DualGraph, config: OracleConfig = OracleConfig()) -> int:
    """Count spanning trees by scanning all edge subsets of the right size."""
    _check_bounds(graph, config)
    n = graph.gamma
    if n == 1:
        return 1
    nonloop = [e for e in graph.edges if e[0] != e[1]]
    count = 0
    for subset in combinations(nonloop, n - 1):
        if _spans(n, list(subset)):
            count += 1
    return count


def spanning_forest_counts(graph: DualGraph) -> list[int]:
    """f_k, the number of k-edge spanning forests of the loopless graph, for
    k = 0 .. gamma - 1 (parallel edges are distinct).

    The edges are taken in order, each either skipped or kept.  A state is
    the partition of the vertices into the components of the edges kept so
    far, each vertex labelled by the smallest vertex of its component, with
    the number of ways to reach it per edge count; an edge is kept only when
    it joins two components, so loops never are.  The states number at most
    the set partitions of the vertices, and far fewer when consecutive edges
    share vertices, as on a cycle listed in order.
    """
    n = graph.gamma
    states = {tuple(range(n)): [1] + [0] * (n - 1)}
    for u, v in graph.edges:
        after = {label: ways[:] for label, ways in states.items()}
        for label, ways in states.items():
            a, b = sorted((label[u], label[v]))
            if a == b:
                continue
            merged = tuple(a if x == b else x for x in label)
            target = after.setdefault(merged, [0] * n)
            for k in range(n - 1):
                target[k + 1] += ways[k]
        states = after
    return [sum(ways[k] for ways in states.values()) for k in range(n)]


def semistable_count(graph: DualGraph) -> int:
    """The number of semistable multidegrees in degree g-1: the number of
    spanning forests of the loopless graph."""
    return sum(spanning_forest_counts(graph))


def stable_count(graph: DualGraph) -> int:
    """The number of stable multidegrees in degree g-1: the alternating sum
    of the forest counts, sum over k of (-1)^(gamma-1-k) f_k, which is the
    Tutte polynomial's T(0, 1)."""
    n = graph.gamma
    return sum((-1) ** (n - 1 - k) * f for k, f in enumerate(spanning_forest_counts(graph)))


def equivalent_bruteforce(
    graph: DualGraph,
    d1: Multidegree,
    d2: Multidegree,
    config: OracleConfig = OracleConfig(),
) -> SearchOutcome:
    """Search for a twisting vector certifying d1 - d2, over a bounded box.

    The vectors tried have entries in [-depth, depth] and at least one zero
    coordinate (adding a constant vector never changes the twist).  A graph
    beyond the configured bounds yields INCONCLUSIVE, never a refutation.
    """
    if graph.gamma > config.max_vertices or graph.delta > config.max_edges:
        return SearchOutcome.INCONCLUSIVE
    if d1.total != d2.total:
        return SearchOutcome.NOT_FOUND_WITHIN_BOUNDS
    n = graph.gamma
    target = tuple(a - b for a, b in zip(d1.entries, d2.entries))
    depth = config.coset_depth

    # local Laplacian action, written out directly
    def twist(vec):
        out = [0] * n
        for u, v in graph.edges:
            if u != v:
                out[u] += vec[v] - vec[u]
                out[v] += vec[u] - vec[v]
        return tuple(out)

    for vec in product(range(-depth, depth + 1), repeat=n):
        if 0 not in vec:
            continue
        if twist(vec) == target:
            return SearchOutcome.FOUND
    return SearchOutcome.NOT_FOUND_WITHIN_BOUNDS


def semistable_bruteforce(
    graph: DualGraph,
    config: OracleConfig = OracleConfig(),
    strict: bool = False,
) -> list[Multidegree]:
    """Scan a padded degree box with a from-scratch balancing predicate.

    ``strict=True`` returns the strictly balanced (stable) multidegrees.

    The box pads the necessary bounds by ``config.box_radius`` on each side,
    and ``balanced()`` is evaluated on each leaf the scan reaches.  With two
    or more components every singleton {i} is a connected proper subcurve of
    arithmetic genus ``vertex_pa[i]``, so ``balanced()`` rejects any leaf with
    d_i < vertex_pa[i] - 1, in the plain and in the strict mode alike.  The
    scan therefore does not descend into such a value.  Every leaf skipped so
    is one that ``balanced()`` rejects, so the list returned is the same as
    that of a leaf-by-leaf filter of the whole padded box.  Without this
    rejection nearly all the padding is wasted work: a point of the padded
    box with every d_i >= vertex_pa[i] - 1 already lies in the unpadded box.
    """
    _check_bounds(graph, config)
    n = graph.gamma
    vertex_pa = [
        graph.vertices[i].genus + sum(1 for u, v in graph.edges if u == v == i)
        for i in range(n)
    ]
    edge_count = len(graph.edges)
    genus = sum(v.genus for v in graph.vertices) + edge_count - n + 1
    total = genus - 1

    # connected proper vertex subsets, smallest first, with arithmetic genus
    subsets: list[tuple[tuple[int, ...], int]] = []
    for size in range(1, n):
        for combo in combinations(range(n), size):
            inside = set(combo)
            reach = {combo[0]}
            frontier = [combo[0]]
            while frontier:
                x = frontier.pop()
                for u, v in graph.edges:
                    if u == v:
                        continue
                    if u == x and v in inside and v not in reach:
                        reach.add(v)
                        frontier.append(v)
                    if v == x and u in inside and u not in reach:
                        reach.add(u)
                        frontier.append(u)
            if len(reach) != size:
                continue
            inner_edges = sum(1 for u, v in graph.edges if u in inside and v in inside)
            pa = sum(graph.vertices[i].genus for i in combo) + inner_edges - size + 1
            subsets.append((combo, pa))

    if n == 1:
        lows = [total - config.box_radius]
        highs = [total + config.box_radius]
    else:
        lows = [vertex_pa[i] - 1 - config.box_radius for i in range(n)]
        base = sum(vertex_pa[i] - 1 for i in range(n))
        highs = [
            total - (base - (vertex_pa[i] - 1)) + config.box_radius for i in range(n)
        ]

    def balanced(entries) -> bool:
        for members, pa in subsets:
            dz = sum(entries[i] for i in members)
            if strict:
                if dz <= pa - 1:
                    return False
            elif dz < pa - 1:
                return False
        return True

    found: list[Multidegree] = []
    suffix_low = [0] * (n + 1)
    suffix_high = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_low[i] = suffix_low[i + 1] + lows[i]
        suffix_high[i] = suffix_high[i + 1] + highs[i]

    # singleton inequality of balanced(): d_i >= vertex_pa[i] - 1 when n > 1
    floors = [vertex_pa[i] - 1 for i in range(n)] if n > 1 else lows

    def scan(i, remaining, prefix):
        if i == n:
            if remaining == 0 and balanced(prefix):
                found.append(Multidegree(prefix))
            return
        lo = max(lows[i], floors[i], remaining - suffix_high[i + 1])
        hi = min(highs[i], remaining - suffix_low[i + 1])
        for val in range(lo, hi + 1):
            scan(i + 1, remaining - val, prefix + (val,))

    scan(0, total, ())
    return found
