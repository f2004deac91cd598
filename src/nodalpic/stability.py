"""Semistable and stable multidegrees in total degree g-1.

A multidegree d with |d| = g-1 is semistable when every connected proper
subcurve Z satisfies d_Z >= p_a(Z) - 1, and stable when the inequality is
strict.  On a disconnected curve the condition is imposed per connected
component, together with the matching total degree on each component.

The enumerators choose d_0, d_1, ... in turn.  Each connected proper
subcurve Z is tested once, at the earlier of the last vertex of Z and the
last vertex of Z^c; one of the two is the last vertex of the curve, so the
test lands on the other.  When Z ends first, d_Z >= p_a(Z) - 1 (>= p_a(Z)
when strict) is tested once d_i is chosen for Z's last vertex i; otherwise
Z^c ends first, and d(Z^c) <= g - p_a(Z) (<= g - p_a(Z) - 1 when strict),
the same inequality read through |d| = g-1, is tested at Z^c's last vertex.
Each test bounds d_i to a range, and no prefix outside it is extended.  The
pruning is exact: each test is a necessary condition, so no result is lost.
The tests held back at the last vertex are implied: its entry is the
degree that remains, so |d| = g-1 and there d_Z = g-1 - d(Z^c), which the
kept test already bounded.  So the last depth has no tests, and every visit
there is a result.

Besides the tests, one bound caps d_i at r - sum_{j>i} low_j, r the degree
left for d_i, d_{i+1}, ... and low_j = p_a({j}) - 1, as no upper test need
land where {i+1, ..., gamma-1} is disconnected (a star listed hub first).
No per-vertex bound is needed: the singleton {i}, the first test at each
depth but the last, gives d_i >= low_i; the earlier singletons keep the cap
at most high_i = low_i + E, E the number of non-loop nodes; and the tests on
the components of {0, ..., i} give d({0, ..., i}) >= sum_{j<=i} low_j,
which is at least g-1 - sum_{j>i} high_j, as g-1 = sum_j low_j + E.

Each test needs the degree of its set minus i, which the scan keeps in
slots: one slot per such vertex tuple and per tuple obtained from it by
dropping last vertices.  When d_j is set, every slot whose tuple ends in j
is filled with one add, its parent's sum (the tuple without j) plus d_j, so
a test reads its known degree instead of summing it.  No slot holds the
last vertex, so the last depth fills none.  ``_plan`` builds the bounds and
slots of one scan.

The semistable scan also classifies each leaf.  Z is saturated when
d_Z = p_a(Z) - 1.  If Z is tested from below at its last vertex i, that is
when d_i equals the test's value p_a(Z) - 1 - d(Z minus i); every d_i the
scan tries is at least the largest such value, lo, so the subcurves
saturated there are those whose value equals lo, and only at d_i = lo.  If
Z is tested from above at the last vertex i of Z^c, saturation is
d(Z^c) = g - p_a(Z), the test being tight; every d_i tried is at most the
smallest such value, hi, so those subcurves are recorded at d_i = hi only.
Every Z has exactly one test, so each saturated Z is found once.  A leaf's
witnesses are the union of its depths' records, sorted by table index,
which is ``check_stability``'s order; every leaf is semistable, so no
subcurve is violated.  ``enumerate_semistable`` and ``semistable_verdicts``
read the rows and verdicts off one memoized ``_scan``.

``stability_status`` decides a single multidegree without the subcurve
table, from one orientation of the nodes; its docstring gives the proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from typing import Sequence

from .errors import TotalDegreeError
from .graph import (
    DEFAULT_MAX_SUBCURVE_VERTICES,
    MEMO_SIZE,
    DualGraph,
    Subcurve,
    _subcurve_table,
)
from .multidegree import Multidegree


class StabilityStatus(Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictly_semistable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the balancing inequalities, with the subcurves that decide it.

    For an unstable multidegree the witnesses violate the inequality; for a
    strictly semistable one they are exactly the subcurves where it is an
    equality.  A stable multidegree has no witnesses.
    """

    status: StabilityStatus
    witnesses: tuple[Subcurve, ...] = ()

    @property
    def is_semistable(self) -> bool:
        return self.status is not StabilityStatus.UNSTABLE

    @property
    def is_stable(self) -> bool:
        return self.status is StabilityStatus.STABLE


def _classify(table, d: Multidegree) -> StabilityVerdict:
    violating = []
    saturating = []
    entries = d.entries
    for subcurve, pa in table:
        dz = sum([entries[i] for i in subcurve.vertices])
        if dz < pa - 1:
            violating.append(subcurve)
        elif dz == pa - 1:
            saturating.append(subcurve)
    return _verdict(violating, saturating)


def _verdict(violating: list[Subcurve], saturating: list[Subcurve]) -> StabilityVerdict:
    if violating:
        return StabilityVerdict(StabilityStatus.UNSTABLE, tuple(violating))
    if saturating:
        return StabilityVerdict(StabilityStatus.STRICTLY_SEMISTABLE, tuple(saturating))
    return StabilityVerdict(StabilityStatus.STABLE)


def check_stability(
    graph: DualGraph,
    d: Multidegree,
    max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES,
) -> StabilityVerdict:
    """Classify a multidegree of total degree g-1 on a connected curve."""
    _check_degree(graph, d)
    return _classify(_subcurve_table(graph, max_vertices), d)


def _check_degree(graph: DualGraph, d: Multidegree) -> None:
    if len(d) != graph.gamma:
        raise ValueError(f"multidegree has {len(d)} entries, graph has {graph.gamma}")
    expected = graph.genus - 1
    if d.total != expected:
        raise TotalDegreeError(
            f"stability in degree g-1 needs total {expected}, got {d.total}"
        )


def stability_status(
    graph: DualGraph, d: Multidegree
) -> tuple[StabilityStatus, Subcurve | None]:
    """The status of a multidegree of total degree g-1 on a connected curve,
    and, when it is unstable, one violated subcurve; no subcurve is listed.

    Put D'(v) = d_v - g_v - loops_v + 1, and let e'(Z) count the non-loop
    nodes inside Z.  Then f(Z) = d_Z - p_a(Z) + 1 = D'(Z) - e'(Z), and under
    any orientation O of the non-loop nodes whose indegrees are D', f(Z) is
    in_O(Z), the number of nodes entering Z (Hakimi 1965).  Such an O exists
    exactly when f(Z) >= 0 for every Z, so d is semistable exactly when it
    exists, and stable exactly when moreover every proper Z is entered,
    that is when O is strongly connected.

    Each node is given a head greedily, at an endpoint with a head to spare.
    A node left over is placed by an augmenting path: a search from its two
    endpoints backwards along heads, to a vertex with a head to spare, whose
    path is then reversed.  If the search fails, the set Z it reached is
    closed under that step, so every head in Z comes from a node inside Z,
    and every vertex of Z is full; with the node left over, e'(Z) exceeds
    D'(Z), so f(Z) <= -1.  Z is connected, as the search grew it along nodes
    from the leftover node's ends, and proper, as f(whole curve) = 0.  A
    vertex with D'(v) < 0 is returned as Z = {v}.  Otherwise one forward and
    one backward reachability pass from vertex 0 decide strong connectivity.
    """
    _check_degree(graph, d)
    n = graph.gamma
    # spare[v]: the heads v may still take, D'(v) less those it holds
    spare = [
        x - v.genus - loops + 1 for x, v, loops in zip(d.entries, graph.vertices, graph.loops)
    ]
    for v, s in enumerate(spare):
        if s < 0:
            return StabilityStatus.UNSTABLE, Subcurve._sorted((v,))
    # tails[v]: the other end of each node whose head is v
    tails: list[list[int]] = [[] for _ in range(n)]
    left = []
    for u, v in graph.edges:
        if u == v:
            continue
        if spare[u]:
            spare[u] -= 1
            tails[u].append(v)
        elif spare[v]:
            spare[v] -= 1
            tails[v].append(u)
        else:
            left.append((u, v))
    for u, v in left:
        parent = {u: v, v: u}
        queue = [u, v]
        for x in queue:
            for y in tails[x]:
                if y not in parent:
                    parent[y] = x
                    if spare[y]:
                        break
                    queue.append(y)
            else:
                continue
            # reverse the path from y back to an end of (u, v), which then
            # has a head to spare for the node
            spare[y] -= 1
            while y != u and y != v:
                x = parent[y]
                tails[x].remove(y)
                tails[y].append(x)
                y = x
            tails[y].append(parent[y])
            break
        else:
            return StabilityStatus.UNSTABLE, Subcurve._sorted(tuple(sorted(parent)))
    heads: list[list[int]] = [[] for _ in range(n)]
    for x, ends in enumerate(tails):
        for y in ends:
            heads[y].append(x)
    for step in (heads, tails):
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            for y in step[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        if not all(seen):
            return StabilityStatus.STRICTLY_SEMISTABLE, None
    return StabilityStatus.STABLE, None


def check_stability_parts(
    components: Sequence[DualGraph],
    d: Multidegree,
    vertex_order: Sequence[str],
    max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES,
) -> StabilityVerdict:
    """Componentwise stability on a disconnected curve.

    ``d`` is indexed by ``vertex_order``; each component must carry total
    degree (its genus - 1) before the inequalities are even tested.
    Witnesses come back in parent indices.
    """
    placements = _placements(components, vertex_order)
    if len(d) != len(vertex_order):
        raise ValueError("multidegree length does not match the vertex order")
    violating: list[Subcurve] = []
    saturating: list[Subcurve] = []
    for comp, parent_idx in zip(components, placements):
        local = Multidegree(d[i] for i in parent_idx)
        expected = comp.genus - 1
        if local.total != expected:
            raise TotalDegreeError(
                f"component {'+'.join(comp.names)} needs total {expected}, "
                f"got {local.total}"
            )
        verdict = _classify(_subcurve_table(comp, max_vertices), local)
        lifted = [
            Subcurve(parent_idx[i] for i in w.vertices) for w in verdict.witnesses
        ]
        if verdict.status is StabilityStatus.UNSTABLE:
            violating.extend(lifted)
        elif verdict.status is StabilityStatus.STRICTLY_SEMISTABLE:
            saturating.extend(lifted)
    return _verdict(violating, saturating)


def _placements(components: Sequence[DualGraph], vertex_order: Sequence[str]) -> list[list[int]]:
    """Each component's vertices as positions in ``vertex_order``, which must
    name every component vertex exactly once and nothing else."""
    position = {name: i for i, name in enumerate(vertex_order)}
    if len(position) != len(vertex_order):
        raise ValueError("vertex order contains duplicate names")
    component_names = [name for comp in components for name in comp.names]
    if len(set(component_names)) != len(component_names):
        raise ValueError("components share vertex names")
    missing = [name for name in component_names if name not in position]
    if missing:
        raise ValueError(f"vertex order is missing {missing[0]!r}")
    if len(component_names) != len(position):
        named = set(component_names)
        extra = next(name for name in vertex_order if name not in named)
        raise ValueError(f"no component has vertex {extra!r}")
    return [[position[name] for name in comp.names] for comp in components]


_STABLE = StabilityVerdict(StabilityStatus.STABLE)


def _plan(graph: DualGraph, strict: bool, max_vertices: int):
    """The scan's work at each depth i, ``(lower, upper, fills, suffix_low)``,
    the slot count and the table's subcurves.

    Each connected proper subcurve Z, at table index k, gets one test, at
    the earlier of the last vertices of Z and Z^c, one of which is the last
    vertex of the curve.  When Z ends earlier, ``(slot, p_a(Z) - 1, k)`` in
    ``lower`` at Z's last vertex bounds d_Z >= p_a(Z) - 1; otherwise
    ``(slot, g - p_a(Z), k)`` in ``upper`` at the last vertex of Z^c bounds
    d(Z^c) <= g - p_a(Z).  Strict bounds are one tighter.  The slot holds
    the degree of the bounded set minus that vertex.  Once d_i is set, each
    ``(slot, parent)`` in ``fills`` takes its parent's sum plus d_i.  No
    slot holds the last vertex, so the last depth has no tests and no fills.
    ``lower`` starts with the singleton {i}, and ``suffix_low`` is sum_{j>i} low_j.
    """
    n = graph.gamma
    g = graph.genus
    table = _subcurve_table(graph, max_vertices)
    slack = 0 if strict else 1
    slots = {(): 0}
    fills: list[list[tuple[int, int]]] = [[] for _ in range(n)]

    def slot(t: tuple[int, ...]) -> int:
        s = slots.get(t)
        if s is None:
            parent = slot(t[:-1])
            s = slots[t] = len(slots)
            fills[t[-1]].append((s, parent))
        return s

    lower: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    upper: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for k, (subcurve, pa) in enumerate(table):
        z = subcurve.vertices
        if z[-1] < n - 1:
            lower[z[-1]].append((slot(z[:-1]), pa - slack, k))
        else:
            inside = set(z)
            zc = tuple(i for i in range(n) if i not in inside)
            upper[zc[-1]].append((slot(zc[:-1]), g - pa - 1 + slack, k))
    # the closure holds itself; dropping it frees the plan by reference counting
    del slot

    lows = [graph.vertices[i].genus + graph.loops[i] - 1 for i in range(n)]
    levels = tuple(
        (tuple(lower[i]), tuple(upper[i]), tuple(fills[i]), sum(lows[i + 1 :]))
        for i in range(n)
    )
    return levels, len(slots), tuple(z for z, _ in table)


@lru_cache(maxsize=MEMO_SIZE)
def _scan(
    graph: DualGraph, strict: bool, max_vertices: int
) -> tuple[tuple[Multidegree, ...], tuple[StabilityVerdict, ...]]:
    """The multidegrees that pass every test, in lexicographic order, and,
    unless strict, the verdict of each.  Callers pass every argument by
    position, so equal calls share one memo key."""
    levels, slot_count, subcurves = _plan(graph, strict, max_vertices)
    classify = not strict
    last = graph.gamma - 1
    rows: list[Multidegree] = []
    verdicts: list[StabilityVerdict] = []
    prefix = [0] * graph.gamma
    sums = [0] * slot_count

    def scan(i, remaining, found):
        if i == last:
            # the tests held back here are implied, so d_i = remaining needs
            # no bound; on a one-component curve it is g - 1
            prefix[i] = remaining
            rows.append(Multidegree(prefix))
            if classify:
                if found:
                    witnesses = tuple(map(subcurves.__getitem__, sorted(found)))
                    verdicts.append(_verdict([], witnesses))
                else:
                    verdicts.append(_STABLE)
            return
        lower, upper, fills, suffix_low = levels[i]
        # each test holds i, so bounds d_i; the first is {i}, whose slot 0 stays 0
        lo = lower[0][1]
        hi = remaining - suffix_low
        at_lo = []
        for slot, low, k in lower:
            v = low - sums[slot]
            if v >= lo:
                if v > lo:
                    lo = v
                    at_lo = [k]
                else:
                    at_lo.append(k)
        at_hi = []
        for slot, high, k in upper:
            v = high - sums[slot]
            if v <= hi:
                if v < hi:
                    hi = v
                    at_hi = [k]
                else:
                    at_hi.append(k)
        if lo > hi:
            return
        for val in range(lo, hi + 1):
            prefix[i] = val
            for t, p in fills:
                sums[t] = sums[p] + val
            child = found
            if classify:
                # the subcurves of at_lo are saturated at d_i = lo only, those
                # of at_hi (through their complements) at d_i = hi only
                if val == lo and at_lo:
                    child = child + at_lo
                if val == hi and at_hi:
                    child = child + at_hi
            scan(i + 1, remaining - val, child)

    scan(0, graph.genus - 1, [])
    # the closure holds itself; dropping it frees the scan by reference counting
    del scan
    return tuple(rows), tuple(verdicts)


def enumerate_semistable(
    graph: DualGraph, max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES
) -> list[Multidegree]:
    """All semistable multidegrees of total degree g-1, in lexicographic order.

    Each call returns a new list, read off the memo ``_scan``.
    """
    return list(_scan(graph, False, max_vertices)[0])


def semistable_verdicts(
    graph: DualGraph, max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES
) -> list[StabilityVerdict]:
    """The verdict of each multidegree of ``enumerate_semistable``, in its
    order; equal to ``check_stability`` on each, without summing the table
    again.  Each call returns a new list, read off ``_scan``."""
    return list(_scan(graph, False, max_vertices)[1])


def enumerate_stable(
    graph: DualGraph, max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES
) -> list[Multidegree]:
    """All stable multidegrees of total degree g-1; may be empty.  Each
    call returns a new list, read off ``_scan``."""
    return list(_scan(graph, True, max_vertices)[0])


def enumerate_stable_disconnected(
    components: Sequence[DualGraph],
    vertex_order: Sequence[str] | None = None,
    max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES,
) -> list[Multidegree]:
    """Stable multidegrees of a disconnected curve, one component at a time.

    The result is the Cartesian product of the per-component stable sets,
    reassembled so the entries follow ``vertex_order`` (by default, the
    concatenation of the component vertex orders).
    """
    if vertex_order is None:
        vertex_order = [name for comp in components for name in comp.names]
    placements = _placements(components, vertex_order)
    per_component = [enumerate_stable(comp, max_vertices) for comp in components]
    out: list[Multidegree] = []
    for choice in product(*per_component):
        entries = [0] * len(vertex_order)
        for comp_positions, local in zip(placements, choice):
            for pos, value in zip(comp_positions, local.entries):
                entries[pos] = value
        out.append(Multidegree(entries))
    return out
