"""Shared graph builders and random generators for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

from nodalpic import DualGraph, Multidegree, Stratum, bridges
from nodalpic.cli import parse_curve

GOLDEN = Path(__file__).parent / "golden"


def triangle(genera=(0, 0, 0)) -> DualGraph:
    return DualGraph.from_names(
        [("a", genera[0]), ("b", genera[1]), ("c", genera[2])],
        [("a", "b"), ("b", "c"), ("a", "c")],
    )


def path3(genera=(0, 0, 0)) -> DualGraph:
    return DualGraph.from_names(
        [("a", genera[0]), ("b", genera[1]), ("c", genera[2])],
        [("a", "b"), ("b", "c")],
    )


def four_cycle() -> DualGraph:
    return DualGraph.from_names(
        [("a", 0), ("b", 0), ("c", 0), ("d", 0)],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
    )


def complete4() -> DualGraph:
    names = ["a", "b", "c", "d"]
    edges = [(x, y) for i, x in enumerate(names) for y in names[i + 1 :]]
    return DualGraph.from_names([(n, 0) for n in names], edges)


def single_vertex(genus=0, loops=0, name="C") -> DualGraph:
    return DualGraph.from_names([(name, genus)], [(name, name)] * loops)


def random_connected_graph(
    rng: random.Random, max_vertices=6, max_edges=10, max_genus=3
) -> DualGraph:
    n = rng.randint(1, max_vertices)
    vertices = [(f"v{i}", rng.randint(0, max_genus)) for i in range(n)]
    edges = [(f"v{rng.randrange(i)}", f"v{i}") for i in range(1, n)]
    room = max_edges - len(edges)
    for _ in range(rng.randint(0, room) if room > 0 else 0):
        a, b = rng.randrange(n), rng.randrange(n)
        edges.append((f"v{a}", f"v{b}"))
    return DualGraph.from_names(vertices, edges)


def golden_curves() -> list[DualGraph]:
    """The curve files under ``golden/``, in name order."""
    return [parse_curve(str(p)) for p in sorted(GOLDEN.glob("*.txt")) if p.name.count(".") == 1]


def bridged_multigraph(rng: random.Random) -> DualGraph:
    """A random curve with a loop, a doubled edge to a new vertex w and a
    bridge to a new vertex t, in shuffled edge order."""
    g = random_connected_graph(rng, max_vertices=4, max_edges=5, max_genus=2)
    vertices = [(v.name, v.genus) for v in g.vertices] + [("w", 0), ("t", rng.randint(0, 2))]
    edges = [(g.names[u], g.names[v]) for u, v in g.edges]
    edges += [(rng.choice(g.names),) * 2] + [(rng.choice(g.names), "w")] * 2
    edges.append((rng.choice(g.names + ("w",)), "t"))
    rng.shuffle(edges)
    return DualGraph.from_names(vertices, edges)


def bridged_curves() -> list[DualGraph]:
    """Thirty seeded ``bridged_multigraph`` curves, each with at most 9 nodes."""
    rng = random.Random(83)
    curves = [bridged_multigraph(rng) for _ in range(30)]
    assert all(bridges(g) and g.delta <= 9 for g in curves)
    return curves


def permuted(graph: DualGraph, new_to_old: list[int]) -> DualGraph:
    """Same curve with vertices listed in a different order."""
    vertices = [
        (graph.vertices[old].name, graph.vertices[old].genus) for old in new_to_old
    ]
    edges = [
        (graph.vertices[u].name, graph.vertices[v].name) for u, v in graph.edges
    ]
    return DualGraph.from_names(vertices, edges)


def permuted_md(d: Multidegree, new_to_old: list[int]) -> Multidegree:
    return Multidegree(d[old] for old in new_to_old)


def random_multidegree(rng: random.Random, length: int, total: int, spread=4) -> Multidegree:
    entries = [rng.randint(-spread, spread) for _ in range(length - 1)]
    entries.append(total - sum(entries))
    return Multidegree(entries)


# -- reference descriptions: each stratum formatted on its own -----------------


def reference_stratum_description(stratum: Stratum, node_names) -> str:
    """The strata report's description of one stratum; ``node_names`` holds
    the ``edge_name`` of each node in ``stratum.nodes``."""
    d = stratum.multidegree
    if not stratum.nodes.edges:
        return f"line bundles of multidegree {d} on the curve itself"
    return (
        f"line bundles on the blow-up at nodes [{', '.join(node_names)}] with degree 1 on "
        f"each exceptional curve and multidegree {d} on the normalization"
    )


def _format_piece(piece: DualGraph) -> str:
    if piece.gamma == 1:
        return piece.vertices[0].name
    return "∪".join(piece.names)


def _w_term(piece: DualGraph, local: Multidegree) -> str:
    # a single smooth component has the classical theta divisor
    if piece.gamma == 1 and piece.delta == 0:
        return f"Θ({piece.vertices[0].name})"
    return f"W_{local}({_format_piece(piece)})"


def reference_theta_description(graph: DualGraph, stratum: Stratum) -> str:
    """The theta descriptor of one stratum of ``graph``."""
    position = {name: i for i, name in enumerate(graph.names)}
    entries = stratum.multidegree.entries
    parts = stratum.pieces
    locals_ = [Multidegree([entries[position[name]] for name in p.names]) for p in parts]

    if len(parts) == 1:
        piece, local = parts[0], locals_[0]
        if not stratum.nodes.edges:
            return f"W_{local}(X)"
        if piece.gamma == 1 and piece.delta == 0:
            return _w_term(piece, local)
        nodes = ",".join(f"e{e}" for e in stratum.nodes.edges)
        return f"W_{local}(Xν({nodes}))"

    terms = []
    for j, piece in enumerate(parts):
        if piece.genus < 1:
            continue
        factors = [_w_term(piece, locals_[j])]
        for k, other in enumerate(parts):
            if k != j:
                factors.append(f"Pic^{locals_[k]}({_format_piece(other)})")
        terms.append(" × ".join(factors))
    return " ∪ ".join(terms) or "(empty)"


# -- reference text table: the two-pass padder the report tables once used ----


def reference_table(headers: list[str], rows: list[list[str]], indent: str) -> list[str]:
    """Each column padded to its widest cell, header included, two spaces
    between columns, and each line right-stripped after its indent."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [indent + "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append(indent + "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


# -- reference graph fields: each derived on its own, from the edges ---------


def reference_fields(graph: DualGraph) -> dict:
    """The derived fields of ``graph``, each computed again from its vertices
    and edges by its own walk, the way the lazy accessors once did."""
    gamma = len(graph.vertices)
    delta = len(graph.edges)
    loops = [0] * gamma
    for u, v in graph.edges:
        if u == v:
            loops[u] += 1
    m = [[0] * gamma for _ in range(gamma)]
    for u, v in graph.edges:
        if u != v:
            m[u][v] += 1
            m[v][u] += 1
    multiplicity = tuple(tuple(row) for row in m)
    return {
        "gamma": gamma,
        "delta": delta,
        "names": tuple(v.name for v in graph.vertices),
        "loops": tuple(loops),
        "multiplicity": multiplicity,
        "nonloop_degree": tuple(sum(row) for row in multiplicity),
        "genus": sum(v.genus for v in graph.vertices) + delta - gamma + 1,
    }
