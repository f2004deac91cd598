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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
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


def _prefix_bounds(graph: DualGraph, strict: bool, table) -> list[list]:
    """Per depth i, the subsets S of {0..i} with i in S whose degree the
    balancing inequalities bound: [S minus i, lower, upper].

    A connected proper subcurve Z bounds d_Z from below, and through
    |d| = g-1 it bounds the complement from above: d_Z >= p_a(Z) - 1 (or
    >= p_a(Z) when strict) is d(Z^c) <= g - p_a(Z) (or <= g - p_a(Z) - 1).
    Z is filed under its last vertex, Z^c under its own.
    """
    n = graph.gamma
    g = graph.genus
    slack = 0 if strict else 1
    bounds: list[dict] = [{} for _ in range(n)]
    for subcurve, pa in table:
        z = subcurve.vertices
        entry = bounds[z[-1]].setdefault(z, [z[:-1], -math.inf, math.inf])
        entry[1] = max(entry[1], pa - slack)
        inside = set(z)
        zc = tuple(i for i in range(n) if i not in inside)
        entry = bounds[zc[-1]].setdefault(zc, [zc[:-1], -math.inf, math.inf])
        entry[2] = min(entry[2], g - pa - 1 + slack)
    return [list(level.values()) for level in bounds]


def _enumerate(graph: DualGraph, strict: bool, max_vertices: int) -> list[Multidegree]:
    n = graph.gamma
    total = graph.genus - 1
    if n == 1:
        return [Multidegree((total,))]
    bounds = _prefix_bounds(graph, strict, _subcurve_table(graph, max_vertices))
    vertex_pa = [graph.vertices[i].genus + graph.loops[i] for i in range(n)]
    lows = [vertex_pa[i] - 1 for i in range(n)]
    base = sum(lows)
    highs = [total - (base - lows[i]) for i in range(n)]

    suffix_low = [0] * (n + 1)
    suffix_high = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_low[i] = suffix_low[i + 1] + lows[i]
        suffix_high[i] = suffix_high[i + 1] + highs[i]

    out: list[Multidegree] = []
    prefix = [0] * n

    def scan(i, remaining):
        if i == n:
            out.append(Multidegree(prefix))
            return
        # every bounded subset at depth i holds i, so each test is a range for d_i
        lo = max(lows[i], remaining - suffix_high[i + 1])
        hi = min(highs[i], remaining - suffix_low[i + 1])
        for rest, low, high in bounds[i]:
            known = sum([prefix[j] for j in rest])
            if low - known > lo:
                lo = low - known
            if high - known < hi:
                hi = high - known
        for val in range(lo, hi + 1):
            prefix[i] = val
            scan(i + 1, remaining - val)

    scan(0, total)
    return out


def enumerate_semistable(
    graph: DualGraph, max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES
) -> list[Multidegree]:
    """All semistable multidegrees of total degree g-1, in lexicographic order."""
    return _enumerate(graph, strict=False, max_vertices=max_vertices)


def enumerate_stable(
    graph: DualGraph, max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES
) -> list[Multidegree]:
    """All stable multidegrees of total degree g-1; may be empty."""
    return _enumerate(graph, strict=True, max_vertices=max_vertices)


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
