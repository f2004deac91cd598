import copy
import dataclasses
import math
import pickle
import random

import pytest

from nodalpic import (
    CapExceeded,
    DualGraph,
    NodeSet,
    Subcurve,
    Vertex,
    bridges,
    complexity,
    component_arithmetic_genus,
    component_codegree,
    connected_subcurves,
    counts,
    essential_connectivity,
    essential_graph,
    is_tree_like,
    partial_normalization,
    subcurve_arithmetic_genus,
    vine_graph,
)
from nodalpic import graph as graph_module
from nodalpic.oracle import spanning_trees_bruteforce

from helpers import (
    bridged_curves,
    complete4,
    four_cycle,
    golden_curves,
    path3,
    permuted,
    random_connected_graph,
    reference_bridges,
    reference_fields,
    seeded_multigraphs,
    single_vertex,
    triangle,
)


def test_counts_vine():
    assert counts(vine_graph(1, 1, 3)) == (2, 3, 2, 4)


def test_counts_point():
    assert counts(single_vertex(0)) == (1, 0, 0, 0)


def test_counts_triangle():
    assert counts(triangle()) == (3, 3, 1, 1)


def test_component_arithmetic_genus():
    g = DualGraph.from_names([("A", 1), ("B", 2)], [("A", "A"), ("A", "B")])
    assert component_arithmetic_genus(g, "A") == 2  # one self-node
    assert component_arithmetic_genus(g, "B") == 2  # smooth
    h = DualGraph.from_names([("A", 0)], [("A", "A"), ("A", "A")])
    assert component_arithmetic_genus(h, "A") == 2
    # one-vertex one-loop graph has first Betti number 1: this is the
    # independent justification for the +1 per self-node
    assert counts(single_vertex(0, loops=1)).first_betti == 1
    with pytest.raises(ValueError):
        component_arithmetic_genus(g, "Z")


def test_component_codegree():
    v = vine_graph(2, 3, 4)
    assert component_codegree(v, "C1") == 4
    assert component_codegree(v, "C2") == 4
    assert component_codegree(single_vertex(1, loops=2), "C") == 0
    assert component_codegree(triangle(), "b") == 2


def test_complexity_vine():
    assert complexity(vine_graph(1, 1, 5)) == 5


def test_complexity_trees():
    assert complexity(path3()) == 1
    # one vertex leaves an empty minor, of determinant 1, whatever its loops
    for genus, loops in ((0, 0), (0, 1), (0, 4), (2, 3)):
        g = single_vertex(genus, loops=loops)
        assert graph_module.laplacian(g) == ((0,),)
        assert complexity(g) == 1
    star = DualGraph.from_names(
        [("r", 0), ("x", 0), ("y", 0), ("z", 0)],
        [("r", "x"), ("r", "y"), ("r", "z")],
    )
    assert complexity(star) == 1


def test_complexity_triangle_matches_oracle():
    assert complexity(triangle()) == 3 == spanning_trees_bruteforce(triangle())


def test_complexity_complete4():
    assert complexity(complete4()) == 16 == spanning_trees_bruteforce(complete4())


def test_is_tree_like():
    g = DualGraph.from_names([("C1", 1), ("C2", 1)], [("C1", "C2"), ("C1", "C1")])
    assert is_tree_like(g)
    assert not is_tree_like(vine_graph(1, 1, 2))
    assert is_tree_like(single_vertex(0, loops=3))


def test_essential_graph_vine1():
    ess = essential_graph(vine_graph(2, 1, 1))
    assert ess.gamma == 1 and ess.delta == 0
    assert ess.vertices[0].genus == 3


def test_essential_graph_vine2_unchanged():
    g = vine_graph(1, 1, 2)
    assert essential_graph(g) == g


def test_essential_graph_pendant():
    g = DualGraph.from_names(
        [("a", 0), ("b", 0), ("c", 0), ("d", 1)],
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],
    )
    ess = essential_graph(g)
    assert counts(ess)[:2] == (3, 3)
    assert complexity(ess) == 3
    # the pendant genus survives on the merged vertex
    assert sum(v.genus for v in ess.vertices) == 1


def test_essential_graph_idempotent_random():
    rng = random.Random(11)
    for _ in range(40):
        g = random_connected_graph(rng)
        once = essential_graph(g)
        assert essential_graph(once) == once


def test_essential_connectivity():
    assert essential_connectivity(vine_graph(1, 1, 3)) == 3
    assert essential_connectivity(vine_graph(1, 1, 1)) == math.inf
    assert essential_connectivity(four_cycle()) == 2
    assert essential_connectivity(single_vertex(2, loops=2)) == math.inf


def test_essential_connectivity_at_least_two():
    rng = random.Random(7)
    for _ in range(40):
        g = random_connected_graph(rng)
        eps = essential_connectivity(g)
        assert eps == math.inf or eps >= 2


def test_equal_graphs_share_one_invariant_entry():
    a = DualGraph.from_names([("P", 1), ("Q", 0), ("R", 2)], [("P", "Q")] * 3 + [("Q", "R")] * 2)
    b = DualGraph.from_names([("P", 1), ("Q", 0), ("R", 2)], [("P", "Q")] * 3 + [("Q", "R")] * 2)
    assert a is not b and a == b
    for memo, value in ((complexity, 6), (essential_connectivity, 2)):
        memo.cache_clear()
        assert memo(a) == memo(b) == value
        info = memo.cache_info()
        assert (info.misses, info.hits) == (1, 1)



def test_essential_connectivity_matches_bipartition_scan():
    from itertools import combinations

    def brute_min_cut(g):
        best = None
        for size in range(1, g.gamma // 2 + 1):
            for side in combinations(range(g.gamma), size):
                s = set(side)
                crossing = sum(
                    1 for u, v in g.edges if u != v and ((u in s) != (v in s))
                )
                if best is None or crossing < best:
                    best = crossing
        return best

    def eps_of(ess):
        return math.inf if ess.gamma == 1 else brute_min_cut(ess)

    rng = random.Random(42)
    primed = 0
    for _ in range(60):
        g = random_connected_graph(rng)
        eps = essential_connectivity(g)
        assert eps == eps_of(essential_graph(g))
        # vertex i renamed to i + 1 copies of "p" joined by "+": a merged
        # group's joined name can equal another vertex's name
        plus = DualGraph(
            tuple(Vertex("+".join("p" * (i + 1)), v.genus) for i, v in enumerate(g.vertices)),
            g.edges,
        )
        ess = essential_graph(plus)
        assert len(set(ess.names)) == ess.gamma
        assert eps_of(ess) == essential_connectivity(plus) == eps
        primed += any(name.endswith("'") for name in ess.names)
    assert primed > 0


def test_essential_graph_primes_taken_joined_names():
    # the bridge a-b merges into "a+b", which the vertex "a+b" already holds;
    # the bridge c-d merges into "c+d", which "c+d'" leaves free
    g = DualGraph.from_names(
        [("a", 0), ("b", 1), ("a+b", 0), ("c", 0), ("d", 2), ("c+d'", 0)],
        [("a", "b"), ("b", "a+b"), ("b", "a+b"), ("a+b", "c"), ("a+b", "c"),
         ("c", "d"), ("d", "c+d'"), ("d", "c+d'")],
    )
    ess = essential_graph(g)
    assert ess.names == ("a+b'", "a+b", "c+d", "c+d'")
    assert [v.genus for v in ess.vertices] == [1, 0, 2, 0]
    assert essential_graph(ess) == ess
    # two bridges merge into the same joined name: the later group is primed
    g = DualGraph.from_names(
        [("p+q", 0), ("r", 0), ("p", 0), ("q+r", 0)],
        [("p+q", "r"), ("r", "p"), ("r", "p"), ("p", "q+r")],
    )
    assert essential_graph(g).names == ("p+q+r", "p+q+r'")


def test_connected_subcurves_vine():
    assert connected_subcurves(vine_graph(1, 1, 2)) == [
        Subcurve((0,)),
        Subcurve((1,)),
    ]


def test_connected_subcurves_triangle():
    assert len(connected_subcurves(triangle())) == 6


def test_connected_subcurves_path():
    got = connected_subcurves(path3())
    expected = [
        Subcurve((0,)),
        Subcurve((1,)),
        Subcurve((2,)),
        Subcurve((0, 1)),
        Subcurve((1, 2)),
    ]
    assert got == expected  # {a, c} induces a disconnected subgraph


def test_connected_subcurves_cap():
    rng = random.Random(0)
    g = random_connected_graph(rng, max_vertices=5)
    with pytest.raises(CapExceeded):
        connected_subcurves(g, max_vertices=g.gamma - 1)


def test_subcurve_genus_vine():
    g = vine_graph(2, 1, 3)
    assert subcurve_arithmetic_genus(g, Subcurve((0,))) == 2


def test_subcurve_genus_full_set_is_genus():
    rng = random.Random(3)
    for _ in range(25):
        g = random_connected_graph(rng)
        full = Subcurve(range(g.gamma))
        assert subcurve_arithmetic_genus(g, full) == counts(g).genus


def test_subcurve_genus_pair_in_triangle():
    assert subcurve_arithmetic_genus(triangle(), Subcurve((0, 1))) == 0


def test_subcurve_genus_disconnected_rejected():
    with pytest.raises(ValueError):
        subcurve_arithmetic_genus(path3(), Subcurve((0, 2)))


def test_partial_normalization_vine_full():
    parts = partial_normalization(vine_graph(2, 1, 2), NodeSet((0, 1)))
    assert [counts(p).genus for p in parts] == [2, 1]
    assert [p.names for p in parts] == [("C1",), ("C2",)]


def test_partial_normalization_empty():
    g = vine_graph(1, 1, 2)
    assert partial_normalization(g, NodeSet()) == [g]


def test_partial_normalization_one_edge():
    g = vine_graph(1, 1, 2)
    parts = partial_normalization(g, NodeSet((0,)))
    assert len(parts) == 1
    c = counts(parts[0])
    assert c.first_betti == 0
    assert c.genus == counts(g).genus - 1


def test_partial_normalization_unknown_edge():
    with pytest.raises(ValueError):
        partial_normalization(vine_graph(1, 1, 2), NodeSet((5,)))


def test_partial_normalization_genus_bookkeeping():
    # sum of component genera = g - |S| + (#components - 1)
    rng = random.Random(17)
    for _ in range(50):
        g = random_connected_graph(rng)
        if g.delta == 0:
            continue
        size = rng.randint(1, g.delta)
        s = NodeSet(rng.sample(range(g.delta), size))
        parts = partial_normalization(g, s)
        total = sum(counts(p).genus for p in parts)
        assert total == counts(g).genus - len(s) + (len(parts) - 1)


def test_complexity_one_iff_tree_like():
    rng = random.Random(23)
    for _ in range(60):
        g = random_connected_graph(rng)
        c = complexity(g)
        assert c >= 1
        assert (c == 1) == is_tree_like(g)
        assert c == spanning_trees_bruteforce(g)


def test_relabeling_invariance():
    rng = random.Random(5)
    for _ in range(25):
        g = random_connected_graph(rng, max_vertices=5)
        order = list(range(g.gamma))
        rng.shuffle(order)
        h = permuted(g, order)
        assert counts(h) == counts(g)
        assert complexity(h) == complexity(g)
        assert essential_connectivity(h) == essential_connectivity(g)


def test_bridges_parallel_edges_are_not_bridges():
    assert bridges(vine_graph(1, 1, 2)) == ()
    assert bridges(vine_graph(1, 1, 1)) == (0,)


def test_graph_validation():
    with pytest.raises(ValueError):
        DualGraph.from_names([("a", 0), ("a", 1)], [("a", "a")])
    with pytest.raises(ValueError):
        DualGraph.from_names([("a", -1)], [])
    with pytest.raises(ValueError):
        DualGraph.from_names([("a", 0)], [("a", "b")])
    with pytest.raises(ValueError):
        DualGraph.from_names([("a", 0), ("b", 0)], [])


# -- graph primitives against in-test references --------------------------------


def _reference_components(n, edges):
    """Components of the graph on range(n), by label propagation: each vertex
    ends labelled with the smallest vertex of its component."""
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            low = min(label[u], label[v])
            if label[u] != low or label[v] != low:
                label[u] = label[v] = low
                changed = True
    groups = {}
    for i in range(n):
        groups.setdefault(label[i], []).append(i)
    return list(groups.values())


def _reference_bridges(g):
    return tuple(
        idx
        for idx, (u, v) in enumerate(g.edges)
        if u != v
        and len(_reference_components(g.gamma, g.edges[:idx] + g.edges[idx + 1 :])) > 1
    )


def _random_graphs(seed, count=120):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, random_connected_graph(rng, max_vertices=8, max_edges=14)


def test_bridges_match_per_edge_removal():
    found = 0
    for _, g in _random_graphs(101, 300):
        assert bridges(g) == _reference_bridges(g)
        found += len(bridges(g))
    assert found > 0


def test_bridge_core_matches_the_multiplicity_search():
    # the core skips the edge id it arrived by; the search it replaced
    # skipped its parent when one edge joined them
    curves = seeded_multigraphs()
    for g in curves:
        assert graph_module._bridges(g.gamma, g.edges) == bridges(g) == reference_bridges(g)
    assert {g.gamma for g in curves} == set(range(1, 8))
    assert any(sum(g.loops) for g in curves)
    assert any(bridges(g) and max(map(max, g.multiplicity)) > 1 for g in curves)


def test_partial_normalization_pieces_match_reference():
    for rng, g in _random_graphs(102):
        nodes = rng.sample(range(g.delta), rng.randint(0, g.delta))
        kept = [e for i, e in enumerate(g.edges) if i not in set(nodes)]
        comps = _reference_components(g.gamma, kept)
        parts = partial_normalization(g, nodes)
        assert len(parts) == len(comps)
        for piece, comp in zip(parts, comps):
            local = {old: new for new, old in enumerate(comp)}
            assert piece.vertices == tuple(g.vertices[i] for i in comp)
            assert piece.names == tuple(g.names[i] for i in comp)
            assert piece.edges == tuple(
                (local[u], local[v]) for u, v in kept if u in local
            )


def test_essential_graph_matches_reference():
    for _, g in _random_graphs(103):
        cut = set(_reference_bridges(g))
        groups = _reference_components(g.gamma, [g.edges[i] for i in sorted(cut)])
        group_of = {v: k for k, group in enumerate(groups) for v in group}
        ess = essential_graph(g)
        assert ess.names == tuple(
            "+".join(g.names[i] for i in group) for group in groups
        )
        assert [v.genus for v in ess.vertices] == [
            sum(g.vertices[i].genus for i in group) for group in groups
        ]
        assert ess.edges == tuple(
            tuple(sorted((group_of[u], group_of[v])))
            for idx, (u, v) in enumerate(g.edges)
            if u != v and idx not in cut
        )


def test_connected_subcurves_match_brute_force():
    from itertools import combinations

    for _, g in _random_graphs(104, 80):
        expected = []
        for size in range(1, g.gamma):
            for combo in combinations(range(g.gamma), size):
                local = {old: new for new, old in enumerate(combo)}
                inside = [
                    (local[u], local[v])
                    for u, v in g.edges
                    if u in local and v in local
                ]
                if len(_reference_components(size, inside)) == 1:
                    expected.append(Subcurve(combo))
        assert connected_subcurves(g) == expected


def test_subcurve_table_equals_the_reference():
    from itertools import combinations
    from pathlib import Path

    from nodalpic.cli import parse_curve
    from nodalpic.graph import _subcurve_table

    golden = Path(__file__).parent / "golden"
    curves = [parse_curve(str(p)) for p in sorted(golden.glob("*.txt")) if p.name.count(".") == 1]
    curves += [g for _, g in _random_graphs(105, 80)]
    assert any(u == v for g in curves for u, v in g.edges)
    assert any(len(set(g.edges)) < g.delta for g in curves)
    assert any(g.gamma > 1 and bridges(g) for g in curves)
    for g in curves:
        expected = []
        for size in range(1, g.gamma):
            for combo in combinations(range(g.gamma), size):
                z = Subcurve(combo)
                try:
                    expected.append((z, subcurve_arithmetic_genus(g, z)))
                except ValueError:
                    pass
        assert _subcurve_table(g, 20) == tuple(expected)


# -- derived fields against the reference -------------------------------------


def _fields(g):
    return {name: getattr(g, name) for name in reference_fields(g)}


def _field_cases():
    """Golden curves, seeded multigraphs with loops and parallel edges, and
    pieces of a partial normalization of each."""
    rng = random.Random(104)
    graphs = golden_curves() + bridged_curves() + [g for _, g in _random_graphs(105, 80)]
    pieces = [
        piece
        for g in graphs
        for piece in partial_normalization(g, rng.sample(range(g.delta), rng.randint(0, g.delta)))
    ]
    return graphs + pieces


def test_derived_fields_equal_the_reference():
    cases = _field_cases()
    assert any(sum(g.loops) for g in cases)
    assert any(max(map(max, g.multiplicity)) > 1 for g in cases)
    for g in cases:
        assert _fields(g) == reference_fields(g)


def test_derived_fields_take_no_part_in_equality_hash_or_repr():
    a = DualGraph.from_names([("P", 1), ("Q", 0)], [("P", "Q"), ("Q", "P"), ("P", "P")])
    b = DualGraph(a.vertices, [(1, 0), (0, 1), (0, 0)])
    assert a is not b and a == b and hash(a) == hash(b)
    assert [f.name for f in dataclasses.fields(DualGraph)] == ["vertices", "edges"]
    assert repr(a) == (
        "DualGraph(vertices=(Vertex(name='P', genus=1), Vertex(name='Q', genus=0)), "
        "edges=((0, 1), (0, 1), (0, 0)))"
    )


def test_replace_copy_and_pickle_keep_the_fields_consistent():
    for g in golden_curves():
        for other in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert other == g and hash(other) == hash(g)
            assert _fields(other) == reference_fields(g)
        raised = dataclasses.replace(g, vertices=tuple(Vertex(v.name, v.genus + 1) for v in g.vertices))
        assert raised.genus == g.genus + g.gamma
        assert _fields(raised) == reference_fields(raised)


def test_index_of_by_name_and_by_index():
    g = triangle()
    assert [g.index_of(name) for name in g.names] == [0, 1, 2]
    assert [g.index_of(i) for i in range(3)] == [0, 1, 2]
    with pytest.raises(ValueError, match=r"^unknown vertex 'z'$"):
        g.index_of("z")
    for i in (3, -1):
        with pytest.raises(ValueError, match=rf"^vertex index {i} out of range$"):
            g.index_of(i)
