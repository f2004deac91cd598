"""Abel-map predicates: naturality and the degree-1 embedding criterion.

An Abel map built by specialization depends a priori on the chosen
one-parameter smoothing.  In degree g-1 on a two-component curve the
dependence is controlled entirely by the multidegree corrections needed to
make every intermediate multidegree (l, g-1-l) semistable; in general degree
the essential connectivity of the curve gives a necessary bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .classgroup import semistabilize
from .graph import (
    DualGraph,
    bridges,
    essential_connectivity,
    vine_graph,
)
from .multidegree import Multidegree
from .picard import DGeneralVerdict, d_general_verdict
from .stability import StabilityStatus, stability_status
from typing import NamedTuple


class Naturality(Enum):
    NATURAL = "natural"
    NOT_NATURAL = "not-natural"
    POSSIBLY_NATURAL = "possibly-natural"


@dataclass(frozen=True)
class NaturalityVerdict:
    status: Naturality
    reason: str
    offending: tuple[Multidegree, ...] = ()
    essential_connectivity: int | float | None = None
    d_general: DGeneralVerdict | None = None


@dataclass(frozen=True)
class CorrectionEntry:
    degree_on_first: int
    correction: int
    corrected: Multidegree


@dataclass(frozen=True)
class CorrectionProfile:
    """Per-slice corrections a(l) turning (l, g-1-l) semistable by twisting."""

    entries: tuple[CorrectionEntry, ...]

    @property
    def all_zero(self) -> bool:
        return all(e.correction == 0 for e in self.entries)


class Degree1Embedding(NamedTuple):
    is_embedding: bool
    offenders: tuple[str, ...]


def _check_vine_params(g1: int, g2: int, delta: int) -> int:
    if delta < 1:
        raise ValueError("need at least one node")
    if g1 < 0 or g2 < 0:
        raise ValueError("genera must be non-negative")
    g = g1 + g2 + delta - 1
    if g < 2:
        raise ValueError(f"the analysis assumes genus at least 2, got {g}")
    return g


def natural_g_minus_1_vine(g1: int, g2: int, delta: int) -> NaturalityVerdict:
    """Smoothing-independence of the degree-(g-1) Abel map on a two-component
    curve.

    With one node every twister is pinned down by its multidegree, so the map
    is always natural.  With two or more, naturality holds exactly when every
    slice multidegree (l, g-1-l) is semistable, which happens precisely for
    g1 <= 1 and g2 <= 1.
    """
    g = _check_vine_params(g1, g2, delta)
    if delta == 1:
        return NaturalityVerdict(
            status=Naturality.NATURAL,
            reason="one node: a twister is determined by its multidegree, "
            "so no choice of smoothing matters",
        )
    graph = vine_graph(g1, g2, delta)
    offending = tuple(
        d
        for d in (Multidegree((l, g - 1 - l)) for l in range(g))
        if stability_status(graph, d)[0] is StabilityStatus.UNSTABLE
    )
    if not offending:
        return NaturalityVerdict(
            status=Naturality.NATURAL,
            reason="every slice multidegree (l, g-1-l) is semistable "
            f"(g1={g1} <= 1 and g2={g2} <= 1)",
        )
    return NaturalityVerdict(
        status=Naturality.NOT_NATURAL,
        reason=f"slice multidegree {offending[0]} is not semistable, so the "
        "map needs a smoothing-dependent twist",
        offending=offending,
    )


def correction_profile_vine(g1: int, g2: int, delta: int) -> CorrectionProfile:
    """The corrections a(l) with (l - a(l)*delta, g-1-l + a(l)*delta)
    semistable, for l = 0..g-1; zero whenever the slice is already semistable.
    """
    g = _check_vine_params(g1, g2, delta)
    graph = vine_graph(g1, g2, delta)
    entries = []
    for l in range(g):
        d = Multidegree((l, g - 1 - l))
        corrected, firing = semistabilize(graph, d)
        entries.append(
            CorrectionEntry(
                degree_on_first=l,
                correction=firing[0] - firing[1],
                corrected=corrected,
            )
        )
    return CorrectionProfile(tuple(entries))


def naturality_necessary(graph: DualGraph, d: int) -> NaturalityVerdict:
    """Necessary condition for a natural degree-d Abel map: d below the
    essential connectivity.  This test can rule naturality out but never
    confirm it.
    """
    if d < 1:
        raise ValueError("Abel maps start in degree 1")
    eps = essential_connectivity(graph)
    g = graph.genus
    dg = d_general_verdict(g, d, graph) if g >= 2 else None
    if d >= eps:
        return NaturalityVerdict(
            status=Naturality.NOT_NATURAL,
            reason=f"degree {d} is not below the essential connectivity {eps}",
            essential_connectivity=eps,
            d_general=dg,
        )
    return NaturalityVerdict(
        status=Naturality.POSSIBLY_NATURAL,
        reason=f"degree {d} is below the essential connectivity "
        f"{'infinity' if eps == float('inf') else eps}; the bound is only necessary",
        essential_connectivity=eps,
        d_general=dg,
    )


def degree1_abel_is_embedding(graph: DualGraph) -> Degree1Embedding:
    """False exactly when some smooth rational component meets the rest of the
    curve only in separating nodes (such a component must be contracted).

    One pass over the bridges counts each component's bridge ends; a
    component is an offender when that count is its whole codegree.
    """
    ends = [0] * graph.gamma
    for idx in bridges(graph):
        for i in graph.edges[idx]:
            ends[i] += 1
    offenders = tuple(
        v.name
        for v, loops, codeg, bridged in zip(graph.vertices, graph.loops, graph.nonloop_degree, ends)
        if v.genus == 0 and loops == 0 and bridged == codeg
    )
    return Degree1Embedding(not offenders, offenders)
