import math
import random
from collections import Counter
from itertools import combinations

import pytest

from nodalpic import (
    DGeneralVerdict,
    DualGraph,
    Multidegree,
    NodeSet,
    PicardType,
    Stratum,
    bridges,
    check_stability_parts,
    classify_type_g_minus_1,
    complexity,
    counts,
    d_general_verdict,
    enumerate_stable,
    enumerate_stable_disconnected,
    irreducible_components,
    is_tree_like,
    neron_fiber,
    partial_normalization,
    specialize_two_component,
    strata,
    vine_graph,
)
from nodalpic import graph as graph_module, picard, stability
from nodalpic.errors import CapExceeded
from nodalpic.oracle import stable_count
from nodalpic.picard import component_rule_validated

from helpers import (
    bridged_multigraph,
    golden_curves,
    random_connected_graph,
    single_vertex,
    triangle,
)


def test_strata_vine_112():
    got = strata(vine_graph(1, 1, 2))
    assert got == [
        Stratum(NodeSet(()), Multidegree((1, 1)), 3),
        Stratum(NodeSet((0, 1)), Multidegree((0, 0)), 2),
    ]


def test_strata_vine_delta1():
    for g1, g2 in [(2, 1), (0, 3)]:
        g = vine_graph(g1, g2, 1)
        got = strata(g)
        assert got == [
            Stratum(NodeSet((0,)), Multidegree((g1 - 1, g2 - 1)), counts(g).genus)
        ]


def test_strata_smooth_curve():
    g = single_vertex(4)
    assert strata(g) == [Stratum(NodeSet(()), Multidegree((3,)), 4)]


def test_strata_cap():
    with pytest.raises(CapExceeded):
        strata(vine_graph(1, 1, 5), max_edges=4)


def test_strata_returns_a_new_list_each_call():
    g = vine_graph(1, 2, 3)
    first = strata(g)
    expected = list(first)
    first.clear()
    assert strata(g) == expected
    assert strata(g) is not strata(g)


def test_strata_cap_raises_on_every_call():
    g = vine_graph(1, 1, 5)
    for _ in range(3):
        with pytest.raises(CapExceeded):
            strata(g, max_edges=4)
    assert len(strata(g)) > 0


def test_strata_max_vertices_reaches_the_pieces():
    with pytest.raises(CapExceeded, match="capped at 2 vertices"):
        strata(triangle(), max_vertices=2)
    with pytest.raises(CapExceeded, match="capped at 2 vertices"):
        irreducible_components(triangle(), max_vertices=2)
    with pytest.raises(CapExceeded, match="capped at 2 vertices"):
        classify_type_g_minus_1(triangle(), max_vertices=2)


def test_strata_max_vertices_caps_a_curve_with_a_bridge():
    # S = {} is skipped here, since P-Q is a bridge; the whole curve still trips the cap
    g = DualGraph.from_names([("P", 1), ("Q", 0), ("R", 1)], [("P", "Q"), ("Q", "R"), ("Q", "R")])
    assert bridges(g) == (0,)
    with pytest.raises(CapExceeded, match="capped at 2 vertices"):
        strata(g, max_vertices=2)
    assert len(strata(g, max_vertices=3)) == 2


def test_equal_graphs_share_one_strata_entry():
    a = DualGraph.from_names([("P", 1), ("Q", 2)], [("P", "Q")] * 4)
    b = DualGraph.from_names([("P", 1), ("Q", 2)], [("P", "Q")] * 4)
    assert a is not b and a == b
    strata(a)
    hits = picard._strata.cache_info().hits
    assert strata(b) == strata(a)
    assert picard._strata.cache_info().hits == hits + 2


def test_caches_are_bounded():
    for cached in (picard._strata, graph_module._subcurve_table):
        assert cached.cache_info().maxsize == graph_module.MEMO_SIZE


def test_strata_are_componentwise_stable_with_correct_dims():
    rng = random.Random(29)
    for _ in range(15):
        g = random_connected_graph(rng, max_vertices=4, max_edges=6)
        seen = set()
        for s in strata(g):
            key = (s.nodes.edges, s.multidegree.entries)
            assert key not in seen
            seen.add(key)
            parts = partial_normalization(g, s.nodes)
            assert s.dim == counts(g).genus - len(s.nodes) + (len(parts) - 1)
            assert 0 <= s.dim <= counts(g).genus
            verdict = check_stability_parts(parts, s.multidegree, g.names)
            assert verdict.is_stable
            if not s.nodes.edges:
                assert s.dim == counts(g).genus


def _golden_and_random_curves():
    rng = random.Random(71)
    curves = [random_connected_graph(rng, max_vertices=5, max_edges=7) for _ in range(8)]
    return golden_curves() + curves


def _bridged_curves():
    rng = random.Random(83)
    curves = [bridged_multigraph(rng) for _ in range(30)]
    assert all(bridges(g) and g.delta <= 9 for g in curves)
    return curves


def _strata_over_every_node_set(g: DualGraph) -> list[Stratum]:
    out = []
    for size in range(g.delta + 1):
        for combo in combinations(range(g.delta), size):
            nodes = NodeSet(combo)
            parts = tuple(partial_normalization(g, nodes))
            dim = g.genus - size + len(parts) - 1
            for d in enumerate_stable_disconnected(parts, vertex_order=g.names):
                out.append(Stratum(nodes, d, dim, parts))
    return out


def test_strata_equal_the_walk_over_every_node_set():
    for g in _golden_and_random_curves() + _bridged_curves():
        got = strata(g)
        expected = _strata_over_every_node_set(g)
        assert got == expected
        fixed = set(bridges(g))
        assert all(fixed <= set(s.nodes.edges) for s in got)


def test_strata_carry_the_pieces_of_their_node_set():
    for g in _golden_and_random_curves() + _bridged_curves():
        shared = {}
        pieces = {}
        for s in strata(g):
            assert s.pieces == tuple(partial_normalization(g, s.nodes))
            # one tuple per node set, shared by all its strata
            assert shared.setdefault(s.nodes, s.pieces) is s.pieces
            # and equal pieces of different node sets are one object
            assert all(pieces.setdefault(p, p) is p for p in s.pieces)
            bare = Stratum(s.nodes, s.multidegree, s.dim)
            assert bare == s and hash(bare) == hash(s) and repr(bare) == repr(s)


def test_strata_match_independent_componentwise_scan():
    # rebuild the strata for one node subset using the oracle's strict scan
    # on each component, reassembled by vertex name
    from itertools import product as cartesian

    from nodalpic.oracle import semistable_bruteforce

    rng = random.Random(61)
    for _ in range(12):
        g = random_connected_graph(rng, max_vertices=4, max_edges=6)
        if g.delta == 0:
            continue
        size = rng.randint(0, g.delta)
        subset = NodeSet(rng.sample(range(g.delta), size))
        parts = partial_normalization(g, subset)
        position = {name: i for i, name in enumerate(g.names)}
        per_part = [semistable_bruteforce(p, strict=True) for p in parts]
        expected = set()
        for choice in cartesian(*per_part):
            entries = [0] * g.gamma
            for part, local in zip(parts, choice):
                for name, value in zip(part.names, local.entries):
                    entries[position[name]] = value
            expected.add(tuple(entries))
        got = {
            s.multidegree.entries for s in strata(g) if s.nodes == subset
        }
        assert got == expected


def test_one_vertex_piece_row_is_its_total_degree():
    # _strata gives a one-vertex piece this row without a scan
    for genus in range(4):
        for loops in range(4):
            piece = single_vertex(genus, loops)
            assert enumerate_stable(piece) == [Multidegree((piece.genus - 1,))]
    stability._scan.cache_clear()
    picard._strata.cache_clear()
    assert strata(single_vertex(1, 2))[-1] == Stratum(NodeSet((0, 1)), Multidegree((0,)), 1)
    assert stability._scan.cache_info().misses == 0


def _two_vines_joined_by_a_bridge() -> DualGraph:
    return DualGraph.from_names(
        [(x, 1) for x in "ABCD"], [("A", "B")] * 6 + [("C", "D")] * 6 + [("B", "C")]
    )


@pytest.mark.parametrize(
    "g, max_edges, total",
    [(vine_graph(1, 1, 12), 12, 20482), (_two_vines_joined_by_a_bridge(), 13, 16900)],
    ids=["vine_1_1_12", "two_vines_joined_by_a_bridge"],
)
def test_strata_counts_equal_the_closed_form(g, max_edges, total):
    # past the oracle's range: at each S, the product of T_piece(0, 1)
    expected = {}
    for size in range(g.delta + 1):
        for combo in combinations(range(g.delta), size):
            count = math.prod(map(stable_count, partial_normalization(g, combo)))
            if count:
                expected[NodeSet(combo)] = count
    got = Counter(s.nodes for s in strata(g, max_edges))
    assert dict(got) == expected
    assert sum(got.values()) == sum(expected.values()) == total


def test_irreducible_components_vine():
    assert len(irreducible_components(vine_graph(1, 1, 4))) == 3
    comps = irreducible_components(vine_graph(2, 1, 1))
    assert len(comps) == 1
    assert comps[0].nodes.edges == (0,)


def test_irreducible_components_irreducible_curve():
    assert len(irreducible_components(single_vertex(2, loops=2))) == 1


def test_irreducible_components_vine_family():
    for delta in range(2, 7):
        g = vine_graph(1, 0, delta)
        comps = irreducible_components(g)
        assert len(comps) == delta - 1
        assert len(comps) < complexity(g)


def test_stratum_dim_is_the_genus_of_its_normalization():
    for g in _golden_and_random_curves() + _bridged_curves():
        for s in strata(g):
            assert s.dim == sum(piece.genus for piece in s.pieces)


def test_irreducible_components_are_the_strata_of_maximal_dimension():
    curves = _golden_and_random_curves() + _bridged_curves()
    assert any(not bridges(g) and g.gamma > 1 for g in curves)
    assert any(g.gamma == 1 and g.delta > 0 for g in curves)
    for g in curves:
        all_strata = strata(g)
        best = max(s.dim for s in all_strata)
        assert irreducible_components(g) == [s for s in all_strata if s.dim == best]
        # the S = {} rule the maximal dimension replaces: such strata exist
        # exactly on bridgeless curves, and then they are the dimension-g ones
        whole = [s for s in all_strata if not s.nodes.edges]
        assert bool(whole) == (not bridges(g))
        if whole:
            assert whole == [s for s in all_strata if s.dim == g.genus]
            assert irreducible_components(g) == whole


def test_component_count_on_tree_like():
    g = DualGraph.from_names(
        [("a", 1), ("b", 2), ("c", 0)],
        [("a", "b"), ("b", "c"), ("c", "c")],
    )
    assert is_tree_like(g)
    assert len(irreducible_components(g)) == 1 == complexity(g)


def test_classify_type():
    c = classify_type_g_minus_1(vine_graph(1, 1, 3))
    assert c.kind is PicardType.DEGENERATION
    assert c.component_count == 2
    assert c.complexity == 3
    assert classify_type_g_minus_1(vine_graph(2, 1, 1)).kind is PicardType.NERON
    assert classify_type_g_minus_1(single_vertex(1, loops=1)).kind is PicardType.NERON


def test_classify_matches_tree_likeness_random():
    rng = random.Random(33)
    for _ in range(25):
        g = random_connected_graph(rng, max_vertices=5, max_edges=7)
        c = classify_type_g_minus_1(g)
        assert (c.kind is PicardType.NERON) == is_tree_like(g)


def test_component_rule_validated():
    assert component_rule_validated(vine_graph(1, 1, 3))
    assert component_rule_validated(single_vertex(2, loops=3))
    assert component_rule_validated(vine_graph(2, 1, 1))
    assert not component_rule_validated(triangle())


def test_neron_fiber():
    assert neron_fiber(vine_graph(1, 1, 5), 0).count == 5
    assert neron_fiber(vine_graph(2, 1, 1), 7).count == 1
    fiber = neron_fiber(triangle(), 2)
    assert fiber.count == 3
    labels = {label for label, _ in fiber.components}
    assert len(labels) == 3
    assert all(rep.total == 2 for _, rep in fiber.components)


def test_neron_fiber_count_independent_of_degree():
    g = vine_graph(0, 2, 4)
    assert {neron_fiber(g, d).count for d in range(-2, 3)} == {4}


def test_d_general():
    assert d_general_verdict(3, 1) is DGeneralVerdict.ALL_CURVES
    assert d_general_verdict(4, 2) is DGeneralVerdict.ALL_CURVES
    for g in range(2, 9):
        assert d_general_verdict(g, g - 1) is not DGeneralVerdict.ALL_CURVES
    assert d_general_verdict(4, 3, vine_graph(2, 1, 1)) is DGeneralVerdict.TREE_LIKE_ONLY
    assert d_general_verdict(4, 3, vine_graph(1, 1, 3)) is DGeneralVerdict.UNKNOWN
    assert d_general_verdict(4, 3) is DGeneralVerdict.UNKNOWN
    with pytest.raises(ValueError):
        d_general_verdict(1, 0)


def test_specialize_two_component_excess_on_second():
    g = vine_graph(1, 1, 2)
    bp = specialize_two_component(g, Multidegree((0, 2)))
    assert bp.twisted_vertex == "C2"
    assert bp.twisted_branches == (0, 1)
    assert bp.stratum.nodes.edges == (0, 1)
    assert bp.stratum.multidegree == Multidegree((0, 0))
    assert bp.stratum.dim == counts(g).genus - 1


def test_specialize_two_component_excess_on_first():
    g = vine_graph(0, 2, 3)
    bp = specialize_two_component(g, Multidegree((2, 1)))
    assert bp.twisted_vertex == "C1"
    assert bp.twisted_branches == (0, 1, 2)
    assert bp.stratum.multidegree == Multidegree((-1, 1))


def test_specialize_two_component_carries_its_pieces():
    g = vine_graph(1, 2, 3)
    pieces = specialize_two_component(g, Multidegree((0, 4))).stratum.pieces
    assert pieces == tuple(partial_normalization(g, range(3)))
    assert [(p.names, p.genus, p.delta) for p in pieces] == [(("C1",), 1, 0), (("C2",), 2, 0)]


def test_specialize_two_component_rejections():
    with pytest.raises(ValueError):
        specialize_two_component(vine_graph(1, 1, 1), Multidegree((0, 1)))
    with pytest.raises(ValueError):
        specialize_two_component(vine_graph(1, 1, 2), Multidegree((1, 1)))
    with pytest.raises(ValueError):
        specialize_two_component(triangle(), Multidegree((0, 0, 0)))
    looped = DualGraph.from_names(
        [("C1", 1), ("C2", 1)], [("C1", "C2"), ("C1", "C2"), ("C1", "C1")]
    )
    with pytest.raises(ValueError):
        specialize_two_component(looped, Multidegree((0, 3)))
