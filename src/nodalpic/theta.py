"""Theta-divisor strata of the degree-(g-1) compactification, symbolically.

The effective locus inside each stratum is described by W-loci of the
partial normalizations; cohomology of actual line bundles is not computable
from the dual graph, so strata are reported as symbolic descriptors together
with the dimensions the degree bounds determine.  Where no dimension clause
applies, the dimension stays unknown rather than extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import (
    DEFAULT_MAX_SUBCURVE_VERTICES,
    DualGraph,
    NodeSet,
    component_arithmetic_genus,
    component_codegree,
)
from .multidegree import Multidegree, fmt_md
from .picard import Stratum, strata, DEFAULT_MAX_STRATA_EDGES
from .stability import check_stability


@dataclass(frozen=True)
class WComponent:
    """One irreducible piece of a W-locus, with its dimension when known."""

    description: str
    dim: int | None
    empty: bool = False
    translate: str | None = None


@dataclass(frozen=True)
class WAnalysis:
    """Dimension report for the locus of effective line bundles in one
    multidegree."""

    multidegree: Multidegree
    w_dim: int | None
    whole_picard: bool
    abel_dim_bound: int | None
    abel_dim_exact: bool
    clause: str | None
    components: tuple[WComponent, ...] = field(default=())


@dataclass(frozen=True)
class ThetaStratum:
    base: Stratum
    description: str
    dim: int | None


def w_dimension(graph: DualGraph, d: Multidegree) -> WAnalysis:
    """Dimension of the effective locus and of the Abel image, when determined.

    Three regimes are decidable from the combinatorics alone: some component
    carries degree at least its arithmetic genus plus codegree (the locus is
    the whole Picard variety); total degree g-1 but not semistable (same
    dimension, smaller Abel image); total degree g-1 and semistable (both
    loci have dimension g-1).
    """
    if len(d) != graph.gamma:
        raise ValueError(f"multidegree has {len(d)} entries, graph has {graph.gamma}")
    if d.total < 1:
        raise ValueError("the effective-locus analysis needs total degree at least 1")
    g = graph.genus
    excess = any(
        d[i] >= component_arithmetic_genus(graph, i) + component_codegree(graph, i)
        for i in range(graph.gamma)
    )
    if excess:
        return WAnalysis(
            multidegree=d,
            w_dim=g,
            whole_picard=True,
            abel_dim_bound=d.total - 1,
            abel_dim_exact=False,
            clause="component-degree-excess",
        )
    if d.total == g - 1:
        if check_stability(graph, d).is_semistable:
            return WAnalysis(
                multidegree=d,
                w_dim=g - 1,
                whole_picard=False,
                abel_dim_bound=g - 1,
                abel_dim_exact=True,
                clause="semistable",
            )
        return WAnalysis(
            multidegree=d,
            w_dim=g,
            whole_picard=True,
            abel_dim_bound=g - 2,
            abel_dim_exact=False,
            clause="not-semistable",
        )
    return WAnalysis(
        multidegree=d,
        w_dim=None,
        whole_picard=False,
        abel_dim_bound=None,
        abel_dim_exact=False,
        clause=None,
    )


def theta_strata(
    graph: DualGraph,
    max_edges: int = DEFAULT_MAX_STRATA_EDGES,
    max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES,
) -> list[ThetaStratum]:
    """One effective-locus stratum per Picard stratum.

    Each stratum carries a stable multidegree on every connected piece of the
    partial normalization, so the per-piece W-loci have dimension one less
    than the piece's Picard variety and the stratum dimension drops by
    exactly one; pieces of genus zero contribute nothing (their theta locus
    is empty).  The stratum dimension is the sum of the pieces' genera, so
    the theta dimension stays unknown exactly when that sum is 0.  The
    pieces travel with the strata, one tuple per node set, so each set's
    pieces are located in the curve's vertex order once, and its descriptor
    template (``_template``) is built once: each stratum only fills in the
    local multidegrees of the pieces.
    """
    position = {name: i for i, name in enumerate(graph.names)}
    out = []
    nodes = parts = None
    for stratum in strata(graph, max_edges, max_vertices):
        # the template reads both the node set and its pieces
        if stratum.nodes is not nodes or stratum.pieces is not parts:
            nodes, parts = stratum.nodes, stratum.pieces
            template, takes_locals = _template(nodes, parts)
            indices = [
                [position[name] for name in piece.names] for piece in parts if takes_locals
            ]
        entries = stratum.multidegree.entries
        locals_ = [fmt_md([entries[i] for i in idx]) for idx in indices]
        dim = stratum.dim - 1 if stratum.dim else None
        out.append(ThetaStratum(stratum, template.format(*locals_), dim))
    return out


def _template(nodes: NodeSet, pieces: tuple[DualGraph, ...]) -> tuple[str, bool]:
    """The descriptor of the strata at ``nodes`` as a ``str.format``
    template, whose field ``j`` is the local multidegree on ``pieces[j]``,
    and whether it has any field.  Braces in vertex names are escaped."""
    names = [_format_piece(piece).replace("{", "{{").replace("}", "}}") for piece in pieces]
    if len(pieces) == 1:
        if not nodes.edges:
            return "W_{0}(X)", True
        if _smooth(pieces[0]):
            return f"Θ({names[0]})", False
        return "W_{0}(Xν(" + ",".join(f"e{e}" for e in nodes.edges) + "))", True
    pics = [f"Pic^{{{k}}}({name})" for k, name in enumerate(names)]
    terms = []
    for j, piece in enumerate(pieces):
        if piece.genus < 1:
            continue
        # a single smooth component has the classical theta divisor
        w = f"Θ({names[j]})" if _smooth(piece) else f"W_{{{j}}}({names[j]})"
        terms.append(" × ".join([w] + pics[:j] + pics[j + 1 :]))
    return " ∪ ".join(terms) or "(empty)", bool(terms)


def _smooth(piece: DualGraph) -> bool:
    return piece.gamma == 1 and piece.delta == 0


def _format_piece(piece: DualGraph) -> str:
    if piece.gamma == 1:
        return piece.vertices[0].name
    return "∪".join(piece.names)


def w_components_vine_strictly_semistable(g1: int, g2: int, delta: int) -> WAnalysis:
    """Irreducible pieces of the effective locus at the strictly semistable
    multidegree (g1-1, g2-1+delta) on a two-component curve.

    There are two pieces, both of dimension g-1 when nonempty: the pullback
    of Theta(C1) x Pic(C2), and the pullback of Pic(C1) x a translate of
    Theta(C2) shifted by the node branches on C2.  A genus-zero side has an
    empty theta divisor and its piece is flagged empty.
    """
    if delta < 1:
        raise ValueError("need at least one node")
    if g1 < 0 or g2 < 0:
        raise ValueError("genera must be non-negative")
    g = g1 + g2 + delta - 1
    d = Multidegree((g1 - 1, g2 - 1 + delta))
    branches = "+".join(f"q{i}" for i in range(1, delta + 1))
    first = WComponent(
        description=f"pullback of Θ(C1) × Pic^{g2 - 1 + delta}(C2)",
        dim=g - 1 if g1 >= 1 else None,
        empty=g1 < 1,
    )
    second = WComponent(
        description=(
            f"pullback of Pic^{g1 - 1}(C1) × "
            f"(Θ(C2) translated by {branches})"
        ),
        dim=g - 1 if g2 >= 1 else None,
        empty=g2 < 1,
        translate=f"-({branches})",
    )
    components = (first, second)
    any_nonempty = any(not c.empty for c in components)
    return WAnalysis(
        multidegree=d,
        w_dim=g - 1 if any_nonempty else None,
        whole_picard=False,
        abel_dim_bound=g - 1 if any_nonempty else None,
        abel_dim_exact=any_nonempty,
        clause="semistable" if any_nonempty else None,
        components=components,
    )
