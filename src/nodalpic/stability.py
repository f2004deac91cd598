"""Semistable and stable multidegrees in total degree g-1.

A multidegree d with |d| = g-1 is semistable when every connected proper
subcurve Z satisfies d_Z >= p_a(Z) - 1, and stable when the inequality is
strict.  On a disconnected curve the condition is imposed per connected
component, together with the matching total degree on each component.

The enumerators choose d_0, d_1, ... in turn.  When d_i is chosen, every
subcurve Z whose last vertex is i has its degree fixed, so d_Z >= p_a(Z) - 1
(>= p_a(Z) when strict) is tested there; and every Z whose complement's last
vertex is i has d(Z^c) fixed, so d(Z^c) <= g - p_a(Z) (<= g - p_a(Z) - 1
when strict), the same inequality read through |d| = g-1, is tested there.
Both tests bound d_i to a range, and no prefix outside it is extended.  The
pruning is exact: each test is a necessary condition, so no result is lost;
and a full multidegree has passed the test of every subcurve Z, at the depth
of Z's last vertex and again through Z^c, so every leaf reached is a result.
Either test alone would be exact; together they cut a failing prefix
sooner.

Each test needs the degree of its set minus i, which the scan keeps in
slots: one slot per such vertex tuple and per tuple obtained from it by
dropping last vertices.  When d_j is set, every slot whose tuple ends in j
is filled with one add, its parent's sum (the tuple without j) plus d_j, so
a test reads its known degree instead of summing it.  The per-graph plan of
bounds and slots is built once and kept by ``_plan``.

The semistable scan also classifies each leaf.  Z is saturated when
d_Z = p_a(Z) - 1, that is when d_i equals the lower test's value
p_a(Z) - 1 - d(Z minus i), where i is Z's last vertex.  Every d_i the scan
tries is at least the largest such value, lo, so the subcurves saturated at
depth i are those whose value equals lo, and only at d_i = lo.  Recording
them from the lower tests alone is exact: every saturated Z is a connected
proper subcurve with a lower test at its own last vertex; and the upper test
at Z^c is tight exactly when d(Z^c) = g - p_a(Z), the same equation, so it
would only find Z again.  A leaf's witnesses are the union of its depths'
records, sorted by table index, which is ``check_stability``'s order; every
leaf is semistable, so no subcurve is violated.  ``enumerate_semistable``
and ``semistable_verdicts`` read the rows and verdicts off one memoized scan.
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
    if len(d) != graph.gamma:
        raise ValueError(f"multidegree has {len(d)} entries, graph has {graph.gamma}")
    expected = graph.genus - 1
    if d.total != expected:
        raise TotalDegreeError(
            f"stability in degree g-1 needs total {expected}, got {d.total}"
        )
    return _classify(_subcurve_table(graph, max_vertices), d)


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


# graphs whose scan plans ``_plan`` keeps; a strata call scans each distinct
# piece once, so its hits are pieces that recur between curves
PLAN_CACHE_SIZE = 32
# curves whose semistable rows and verdicts ``_semistable_scan`` keeps: the
# two readers of one report run back to back
SCAN_CACHE_SIZE = 2

_STABLE = StabilityVerdict(StabilityStatus.STABLE)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(graph: DualGraph, strict: bool, max_vertices: int):
    """The scan's work at each depth i, ``(lower, upper, fills, low, high,
    suffix_high, suffix_low)``, the slot count and the table's subcurves.

    Each connected proper subcurve Z, at table index k, gives two bounds:
    ``(slot, p_a(Z) - 1, k)`` in ``lower`` at Z's last vertex, for
    d_Z >= p_a(Z) - 1, and ``(slot, g - p_a(Z))`` in ``upper`` at the last
    vertex of Z^c, for d(Z^c) <= g - p_a(Z); strict bounds are one tighter.
    The slot holds the degree of the bounded set minus that vertex.  Once
    d_i is set, each ``(slot, parent)`` in ``fills`` takes its parent's sum
    plus d_i.
    """
    n = graph.gamma
    g = graph.genus
    table = _subcurve_table(graph, max_vertices) if n > 1 else ()
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
    upper: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (subcurve, pa) in enumerate(table):
        z = subcurve.vertices
        lower[z[-1]].append((slot(z[:-1]), pa - slack, k))
        inside = set(z)
        zc = tuple(i for i in range(n) if i not in inside)
        upper[zc[-1]].append((slot(zc[:-1]), g - pa - 1 + slack))

    total = g - 1
    lows = [graph.vertices[i].genus + graph.loops[i] - 1 for i in range(n)]
    base = sum(lows)
    highs = [total - (base - lows[i]) for i in range(n)]
    suffix_low = [0] * (n + 1)
    suffix_high = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_low[i] = suffix_low[i + 1] + lows[i]
        suffix_high[i] = suffix_high[i + 1] + highs[i]
    levels = tuple(
        (
            tuple(lower[i]),
            tuple(upper[i]),
            tuple(fills[i]),
            lows[i],
            highs[i],
            suffix_high[i + 1],
            suffix_low[i + 1],
        )
        for i in range(n)
    )
    return levels, len(slots), tuple(z for z, _ in table)


def _scan(
    graph: DualGraph, strict: bool, max_vertices: int
) -> tuple[list[Multidegree], list[StabilityVerdict]]:
    """The multidegrees that pass every test, in lexicographic order, and,
    unless strict, the verdict of each."""
    levels, slot_count, subcurves = _plan(graph, strict, max_vertices)
    classify = not strict
    n = graph.gamma
    rows: list[Multidegree] = []
    verdicts: list[StabilityVerdict] = []
    prefix = [0] * n
    sums = [0] * slot_count

    def scan(i, remaining, found):
        if i == n:
            rows.append(Multidegree(prefix))
            if classify:
                if found:
                    witnesses = tuple(map(subcurves.__getitem__, sorted(found)))
                    verdicts.append(_verdict([], witnesses))
                else:
                    verdicts.append(_STABLE)
            return
        lower, upper, fills, low_i, high_i, suffix_high, suffix_low = levels[i]
        # every bounded subset at depth i holds i, so each test is a range for d_i
        lo = max(low_i, remaining - suffix_high)
        hi = min(high_i, remaining - suffix_low)
        frame = []
        for slot, low, k in lower:
            v = low - sums[slot]
            if v >= lo:
                if v > lo:
                    lo = v
                    frame = [k]
                else:
                    frame.append(k)
        for slot, high in upper:
            v = high - sums[slot]
            if v < hi:
                hi = v
        if lo > hi:
            return
        # the frame's subcurves are saturated at d_i = lo only
        child = found + frame if classify and frame else found
        for val in range(lo, hi + 1):
            prefix[i] = val
            for t, p in fills:
                sums[t] = sums[p] + val
            scan(i + 1, remaining - val, child)
            child = found

    scan(0, graph.genus - 1, [])
    return rows, verdicts


@lru_cache(maxsize=SCAN_CACHE_SIZE)
def _semistable_scan(
    graph: DualGraph, max_vertices: int
) -> tuple[tuple[Multidegree, ...], tuple[StabilityVerdict, ...]]:
    rows, verdicts = _scan(graph, strict=False, max_vertices=max_vertices)
    return tuple(rows), tuple(verdicts)


def enumerate_semistable(
    graph: DualGraph, max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES
) -> list[Multidegree]:
    """All semistable multidegrees of total degree g-1, in lexicographic order.

    Each call returns a new list, read off the memo ``_semistable_scan``.
    """
    return list(_semistable_scan(graph, max_vertices)[0])


def semistable_verdicts(
    graph: DualGraph, max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES
) -> list[StabilityVerdict]:
    """The verdict of each multidegree of ``enumerate_semistable``, in its
    order; equal to ``check_stability`` on each, without summing the table
    again.  Each call returns a new list, read off ``_semistable_scan``."""
    return list(_semistable_scan(graph, max_vertices)[1])


def enumerate_stable(
    graph: DualGraph, max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES
) -> list[Multidegree]:
    """All stable multidegrees of total degree g-1; may be empty."""
    return _scan(graph, strict=True, max_vertices=max_vertices)[0]


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
