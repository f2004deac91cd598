import random
from itertools import combinations, product

import pytest

from nodalpic import Multidegree, vine_graph
from nodalpic.errors import CapExceeded
from nodalpic.oracle import (
    OracleConfig,
    SearchOutcome,
    equivalent_bruteforce,
    semistable_bruteforce,
    spanning_forest_counts,
    spanning_trees_bruteforce,
)

from helpers import (
    complete4,
    four_cycle,
    path3,
    random_connected_graph,
    single_vertex,
    triangle,
)


def test_spanning_trees_vine():
    assert spanning_trees_bruteforce(vine_graph(1, 1, 3)) == 3


def test_spanning_trees_tree():
    assert spanning_trees_bruteforce(path3()) == 1
    assert spanning_trees_bruteforce(single_vertex(1, loops=2)) == 1


def test_spanning_trees_complete4():
    assert spanning_trees_bruteforce(complete4()) == 16


def test_spanning_trees_bounds():
    import random

    rng = random.Random(1)
    g = random_connected_graph(rng, max_vertices=6)
    with pytest.raises(CapExceeded):
        spanning_trees_bruteforce(g, OracleConfig(max_vertices=g.gamma - 1, max_edges=1))


def test_spanning_forest_counts():
    # a cycle's forests are its proper edge subsets, a vine's at most one edge
    assert spanning_forest_counts(four_cycle()) == [1, 4, 6, 4]
    assert spanning_forest_counts(vine_graph(1, 1, 3)) == [1, 3]
    assert spanning_forest_counts(single_vertex(2, loops=3)) == [1]
    rng = random.Random(6)
    for _ in range(30):
        g = random_connected_graph(rng, max_vertices=6, max_edges=10)
        forests = spanning_forest_counts(g)
        assert forests[0] == 1
        assert forests[-1] == spanning_trees_bruteforce(g)
        if g.gamma > 1:
            assert forests[1] == sum(1 for u, v in g.edges if u != v)


def test_equivalent_reflexive():
    g = triangle()
    d = Multidegree((1, 0, -1))
    assert equivalent_bruteforce(g, d, d) is SearchOutcome.FOUND


def test_equivalent_vine_pair():
    g = vine_graph(1, 1, 2)
    assert (
        equivalent_bruteforce(g, Multidegree((1, -1)), Multidegree((-1, 1)))
        is SearchOutcome.FOUND
    )


def test_equivalent_vine_parity_obstruction():
    # on two components with two nodes, the first entry is invariant mod 2
    g = vine_graph(1, 1, 2)
    assert (
        equivalent_bruteforce(g, Multidegree((1, -1)), Multidegree((0, 0)))
        is SearchOutcome.NOT_FOUND_WITHIN_BOUNDS
    )


def test_equivalent_oversized_graph_is_inconclusive():
    names = [f"v{i}" for i in range(8)]
    edges = [(names[i], names[i + 1]) for i in range(7)]
    from nodalpic import DualGraph

    g = DualGraph.from_names([(n, 0) for n in names], edges)
    d = Multidegree([0] * 8)
    assert equivalent_bruteforce(g, d, d) is SearchOutcome.INCONCLUSIVE


def test_semistable_bruteforce_vine():
    got = semistable_bruteforce(vine_graph(1, 1, 2))
    assert got == [Multidegree((0, 2)), Multidegree((1, 1)), Multidegree((2, 0))]


def test_semistable_bruteforce_strict_vine1_empty():
    assert semistable_bruteforce(vine_graph(2, 1, 1), strict=True) == []


def test_semistable_bruteforce_irreducible():
    assert semistable_bruteforce(single_vertex(3)) == [Multidegree((2,))]
    assert semistable_bruteforce(single_vertex(1, loops=2)) == [Multidegree((2,))]


def _padded_box_filter(graph, radius, strict):
    """Every leaf of the padded box, tested one at a time against each subcurve."""
    n = graph.gamma
    loops = [sum(1 for u, v in graph.edges if u == v == i) for i in range(n)]
    vertex_pa = [graph.vertices[i].genus + loops[i] for i in range(n)]
    total = sum(v.genus for v in graph.vertices) + len(graph.edges) - n
    subcurves = []
    for size in range(1, n):
        for members in combinations(range(n), size):
            inner = [(u, v) for u, v in graph.edges if u in members and v in members]
            reach = {members[0]}
            for _ in members:
                reach |= {x for u, v in inner for x in (u, v) if u in reach or v in reach}
            if len(reach) == size:
                pa = sum(graph.vertices[i].genus for i in members) + len(inner) - size + 1
                subcurves.append((members, pa))
    if n == 1:
        ranges = [range(total - radius, total + radius + 1)]
    else:
        base = sum(pa - 1 for pa in vertex_pa)
        ranges = [
            range(pa - 1 - radius, total - base + pa - 1 + radius + 1) for pa in vertex_pa
        ]
    kept = []
    for entries in product(*ranges):
        if sum(entries) != total:
            continue
        if all(
            sum(entries[i] for i in members) > pa - 1
            if strict
            else sum(entries[i] for i in members) >= pa - 1
            for members, pa in subcurves
        ):
            kept.append(Multidegree(entries))
    return kept


def test_semistable_bruteforce_equals_padded_box_filter():
    # the scan's singleton rejection may only skip leaves the predicate rejects
    config = OracleConfig()
    rng = random.Random(5)
    for _ in range(30):
        g = random_connected_graph(rng, max_vertices=4, max_edges=10, max_genus=3)
        for strict in (False, True):
            expected = _padded_box_filter(g, config.box_radius, strict)
            assert semistable_bruteforce(g, config, strict=strict) == expected


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(box_radius=0)
