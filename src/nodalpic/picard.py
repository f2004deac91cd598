"""Stratification of the degree-(g-1) compactified Jacobian and Neron-fiber
combinatorics.

Points of the canonical degree-(g-1) compactification correspond to stable
multidegrees on partial normalizations of the curve, so the whole space is
stratified by pairs (node set S, stable multidegree on the curve separated
at S).  This module enumerates those strata, picks out the maximal ones,
classifies the compactification against the Neron model and implements the
two-component boundary specialization rule.

The strata list of a curve is built once and shared: ``strata`` returns a
copy of a tuple memoized by (graph, max_edges, max_vertices), and the memo
keeps the last ``MEMO_SIZE`` curves.  ``DualGraph`` is frozen and
hashable, so equal graphs parsed apart share one entry, and the strata,
components and theta reports of one curve run the 2^delta loop once between
them.  Each stratum carries the pieces of its partial normalization, one
tuple per node set, so the theta strata read them off instead of normalizing
again.  A call that exceeds a cap raises every time; errors are not cached.

The loop visits only the node sets that hold every bridge of the curve, and
leaves a node set at its first piece that has a bridge: such a piece carries
no stable multidegree (see ``_strata``), and it is told by its vertices and
edges alone, so it is never built.  Within one call each distinct piece that
carries rows is built and scanned once, so equal pieces of different strata
are one object.  A node set whose normalization stays connected takes its
one piece's rows as its strata's multidegrees, so those strata share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import combinations, product
from typing import Sequence

from .classgroup import ClassLabel, class_listing, degree_class_group
from .errors import CapExceeded
from .graph import (
    DEFAULT_MAX_SUBCURVE_VERTICES,
    MEMO_SIZE,
    DualGraph,
    NodeSet,
    _bridges,
    _normalization_pieces,
    bridges,
    complexity,
    is_tree_like,
    partial_normalization,
)
from .multidegree import Multidegree
from .stability import enumerate_stable

DEFAULT_MAX_STRATA_EDGES = 12


@dataclass(frozen=True)
class Stratum:
    """One stratum: normalized nodes, a stable multidegree, and its dimension.

    The multidegree is indexed by the parent curve's vertex order.  ``pieces``
    holds the connected pieces of the partial normalization at ``nodes``, in
    ``partial_normalization`` order; the strata of one node set share one
    tuple, and equal pieces of different node sets are one object.  It takes
    no part in equality, hashing or ``repr``.
    """

    nodes: NodeSet
    multidegree: Multidegree
    dim: int
    pieces: tuple[DualGraph, ...] = field(default=(), compare=False, repr=False)


class PicardType(Enum):
    NERON = "N-type"
    DEGENERATION = "D-type"


@dataclass(frozen=True)
class TypeClassification:
    kind: PicardType
    tree_like: bool
    component_count: int
    complexity: int
    component_rule_validated: bool


@dataclass(frozen=True)
class NeronFiber:
    """Closed Neron fiber in one degree: one component per multidegree class."""

    degree: int
    components: tuple[tuple[ClassLabel, Multidegree], ...]
    count: int


class DGeneralVerdict(Enum):
    ALL_CURVES = "all-curves"
    TREE_LIKE_ONLY = "tree-like-only"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class BoundaryPoint:
    """Limit point in the deepest stratum reached from a strictly semistable
    multidegree on a two-component curve."""

    stratum: Stratum
    twisted_vertex: str
    twisted_branches: tuple[int, ...]
    description: str


def strata(
    graph: DualGraph,
    max_edges: int = DEFAULT_MAX_STRATA_EDGES,
    max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES,
) -> list[Stratum]:
    """Every stratum (S, d), ordered by |S|, then S, then d.

    Each call returns a new list, read off the memo ``_strata``.
    """
    return list(_strata(graph, max_edges, max_vertices))


@lru_cache(maxsize=MEMO_SIZE)
def _strata(graph: DualGraph, max_edges: int, max_vertices: int) -> tuple[Stratum, ...]:
    """The strata list, visiting only the node sets whose pieces all carry a
    stable multidegree.

    A piece P with two or more components and a bridge carries none.  Split
    P at the bridge into connected Z and Z^c; stability asks d_Z >= p_a(Z)
    and d(Z^c) >= p_a(Z^c), and p_a(Z) + p_a(Z^c) = g_P, so d_P >= g_P,
    while d_P = g_P - 1.  A bridge of the curve is a bridge of its piece in
    every S that leaves it joined, so every stratum's S holds every bridge:
    the loop runs over the other edges only and adds the bridges to each
    set.  For sorted sets of one size, the first element of their symmetric
    difference decides their order, and adding the same bridges to both
    leaves that difference alone, so the sets still come in (|S|, S) order.
    A node set is left at its first piece that has a bridge.

    The pieces of different node sets often coincide, so each distinct
    piece is met once per call, in a dict keyed by its vertices and local
    edges.  A key whose edges have a bridge is recorded with no rows and no
    piece is built for it; any other piece is built and scanned.  A one-vertex
    piece has no proper subcurve, so its one stable multidegree is its total
    degree g_P - 1 and it needs no scan.  When S leaves the curve connected,
    its one piece holds every vertex in the curve's order, so the piece's
    rows are the strata's multidegrees, shared with every node set that
    leaves an equal piece; with two or more pieces each row of the product
    is reassembled by the pieces' original vertex indices.
    """
    if graph.delta > max_edges:
        raise CapExceeded(
            f"stratum enumeration capped at {max_edges} edges (graph has {graph.delta})"
        )
    # the whole curve is the piece of S = {}, which the loop skips when the
    # curve has a bridge; its subcurve table would trip this cap
    if 1 < graph.gamma and graph.gamma > max_vertices:
        raise CapExceeded(
            f"subcurve enumeration capped at {max_vertices} vertices "
            f"(graph has {graph.gamma})"
        )
    g = graph.genus
    fixed = bridges(graph)
    free = [e for e in range(graph.delta) if e not in fixed]
    known: dict[tuple, tuple[DualGraph | None, list[Multidegree]]] = {}
    out: list[Stratum] = []
    for size in range(len(fixed), graph.delta + 1):
        for combo in combinations(free, size - len(fixed)):
            nodes = NodeSet(fixed + combo)
            found = []
            for comp, edges in _normalization_pieces(graph, nodes.edges):
                entry = known.get((comp, edges))
                if entry is None:
                    if _bridges(len(comp), edges):
                        piece, rows = None, []
                    else:
                        piece = DualGraph(tuple(graph.vertices[i] for i in comp), edges)
                        if piece.gamma == 1:
                            rows = [Multidegree((piece.genus - 1,))]
                        else:
                            rows = enumerate_stable(piece, max_vertices)
                    entry = known[comp, edges] = (piece, rows)
                if not entry[1]:
                    break
                found.append((comp, *entry))
            else:
                parts = tuple(piece for _, piece, _ in found)
                dim = g - size + (len(parts) - 1)
                if len(found) == 1:
                    # the one piece holds every vertex in the curve's order
                    out.extend(Stratum(nodes, row, dim, parts) for row in found[0][2])
                    continue
                for choice in product(*(rows for _, _, rows in found)):
                    entries = [0] * graph.gamma
                    for (comp, _, _), local in zip(found, choice):
                        for pos, value in zip(comp, local.entries):
                            entries[pos] = value
                    out.append(Stratum(nodes, Multidegree(entries), dim, parts))
    return tuple(out)


def irreducible_components(
    graph: DualGraph,
    max_edges: int = DEFAULT_MAX_STRATA_EDGES,
    max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES,
) -> list[Stratum]:
    """Maximal strata: the strata of dimension g, which are the strata at
    S = B, the set of bridges of the curve.

    A stratum's dimension g - |S| + c(S) - 1 is the genus of the partial
    normalization at S, the sum of its pieces' genera.  Normalize the nodes
    of S one at a time: a node that is a bridge of the current normalization
    keeps the genus, and any other node lowers it by 1.  Every stratum's S
    holds B (see ``_strata``).  Normalizing B first keeps the genus g and
    leaves the 2-edge-connected blocks and single vertices of the curve.
    Each of these carries a stable multidegree: a vertex its total degree,
    and a block a + indeg_O - 1, with a_v = g_v + loops_v, for a strongly
    connected orientation O of its nodes (Robbins 1939).  So S = B is a
    stratum of dimension g.  When S holds more than B, the next node lies
    inside a block, which it does not separate, so the dimension is below g.
    """
    return [s for s in strata(graph, max_edges, max_vertices) if s.dim == graph.genus]


def component_rule_validated(graph: DualGraph) -> bool:
    """Whether the maximal-stratum rule has a closed-form confirmation.

    Irreducible curves, two smooth components, and tree-like curves all have
    known component counts; anything else is reported as heuristic.
    """
    if graph.gamma == 1 or is_tree_like(graph):
        return True
    return graph.gamma == 2 and sum(graph.loops) == 0


def classify_type_g_minus_1(
    graph: DualGraph,
    max_edges: int = DEFAULT_MAX_STRATA_EDGES,
    max_vertices: int = DEFAULT_MAX_SUBCURVE_VERTICES,
) -> TypeClassification:
    """Neron-type exactly for tree-like curves; evidence: component count vs
    spanning-tree count."""
    tree = is_tree_like(graph)
    comps = irreducible_components(graph, max_edges, max_vertices)
    return TypeClassification(
        kind=PicardType.NERON if tree else PicardType.DEGENERATION,
        tree_like=tree,
        component_count=len(comps),
        complexity=complexity(graph),
        component_rule_validated=component_rule_validated(graph),
    )


def neron_fiber(graph: DualGraph, degree: int = 0) -> NeronFiber:
    """Component labels and canonical representatives in one total degree."""
    dcg = degree_class_group(graph)
    components = tuple(class_listing(dcg, degree))
    return NeronFiber(degree=degree, components=components, count=dcg.order)


def d_general_verdict(g: int, d: int, graph: DualGraph | None = None) -> DGeneralVerdict:
    """Whether every stable curve of genus g admits a Neron-type degree-d
    compactification.

    The coprimality test gcd(d-g+1, 2g-2) = 1 answers for all curves at
    once; failing that, tree-like curves still qualify, and the general
    boundary of the d-general locus is outside this library's scope.
    """
    if g < 2:
        raise ValueError("the classification assumes genus at least 2")
    if math.gcd(d - g + 1, 2 * g - 2) == 1:
        return DGeneralVerdict.ALL_CURVES
    if graph is not None and is_tree_like(graph):
        return DGeneralVerdict.TREE_LIKE_ONLY
    return DGeneralVerdict.UNKNOWN


def specialize_two_component(graph: DualGraph, d: Multidegree) -> BoundaryPoint:
    """Limit of a strictly semistable multidegree on a two-component curve.

    The limit lies in the deepest stratum (all nodes normalized, multidegree
    (g1-1, g2-1)); the component carrying the excess degree has its
    restriction twisted down by all its node branches.
    """
    if graph.gamma != 2:
        raise ValueError("the specialization rule is only written out for two components")
    if sum(graph.loops) != 0:
        raise ValueError("the two components must be smooth (no self-nodes)")
    if len(d) != 2:
        raise ValueError("expected a two-entry multidegree")
    delta = graph.delta
    if delta < 2:
        raise ValueError(
            "with a single node the curve has no interior strata and no "
            "strictly semistable limit to take"
        )
    g1 = graph.vertices[0].genus
    g2 = graph.vertices[1].genus
    low_first = Multidegree((g1 - 1, g2 - 1 + delta))
    low_second = Multidegree((g1 - 1 + delta, g2 - 1))
    if d == low_first:
        twisted = 1
    elif d == low_second:
        twisted = 0
    else:
        raise ValueError(f"{d} is not strictly semistable on this curve")
    all_nodes = NodeSet(range(delta))
    stratum = Stratum(
        nodes=all_nodes,
        multidegree=Multidegree((g1 - 1, g2 - 1)),
        dim=graph.genus - delta + 1,
        pieces=tuple(partial_normalization(graph, all_nodes)),
    )
    name = graph.vertices[twisted].name
    other = graph.vertices[1 - twisted].name
    return BoundaryPoint(
        stratum=stratum,
        twisted_vertex=name,
        twisted_branches=tuple(range(delta)),
        description=(
            f"restriction to {other} kept; restriction to {name} twisted down "
            f"by its {delta} node branches"
        ),
    )


def stratum_description_frame(nodes: NodeSet, node_names: Sequence[str]) -> tuple[str, str]:
    """Human-readable account of the strata at ``nodes`` as line bundles on a
    blow-up, as the text before and after the multidegree: the stratum of
    multidegree d reads ``before + fmt_md(d.entries) + after``.
    ``node_names`` holds the ``edge_name`` of each node in ``nodes``."""
    if not nodes.edges:
        return "line bundles of multidegree ", " on the curve itself"
    return (
        f"line bundles on the blow-up at nodes [{', '.join(node_names)}] with degree 1 on "
        "each exceptional curve and multidegree ",
        " on the normalization",
    )


def edge_name(graph: DualGraph, e: int) -> str:
    u, v = graph.edges[e]
    return f"e{e}:{graph.vertices[u].name}-{graph.vertices[v].name}"
