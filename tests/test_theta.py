import random
import sys
from itertools import combinations

import pytest

from nodalpic import (
    Multidegree,
    counts,
    specialize_two_component,
    strata,
    theta_strata,
    vine_graph,
    w_components_vine_strictly_semistable,
    w_dimension,
)
from nodalpic import graph as graph_module, picard
from nodalpic.stability import check_stability

from helpers import bridged_multigraph, golden_curves, random_connected_graph, single_vertex


def test_w_dimension_semistable_vine():
    g = vine_graph(1, 1, 2)
    analysis = w_dimension(g, Multidegree((1, 1)))
    assert analysis.w_dim == 2
    assert analysis.abel_dim_bound == 2
    assert analysis.abel_dim_exact
    assert analysis.clause == "semistable"


def test_w_dimension_component_excess():
    g = vine_graph(1, 1, 2)
    analysis = w_dimension(g, Multidegree((-1, 3)))
    assert analysis.w_dim == 3 == counts(g).genus
    assert analysis.whole_picard
    assert analysis.abel_dim_bound == 1  # |d| - 1
    assert not analysis.abel_dim_exact


def test_w_dimension_not_semistable():
    # total g-1, unstable via a two-component subcurve, but no single
    # component reaches genus + codegree (on a two-component curve the two
    # clauses coincide, so a chain is needed to separate them)
    from nodalpic import DualGraph

    g = DualGraph.from_names(
        [("a", 1), ("b", 1), ("c", 1), ("d", 1)],
        [("a", "b"), ("b", "c"), ("c", "d")],
    )
    genus = counts(g).genus
    assert genus == 4
    d = Multidegree((0, 0, 2, 1))
    assert not check_stability(g, d).is_semistable
    analysis = w_dimension(g, d)
    assert analysis.clause == "not-semistable"
    assert analysis.w_dim == genus
    assert analysis.abel_dim_bound == genus - 2


def test_w_dimension_irreducible_semistable():
    g = single_vertex(3)
    analysis = w_dimension(g, Multidegree((2,)))
    assert analysis.w_dim == 2
    assert analysis.abel_dim_exact


def test_w_dimension_unknown_outside_clauses():
    g = vine_graph(2, 2, 2)
    analysis = w_dimension(g, Multidegree((1, 1)))  # total 2, g-1 is 4
    assert analysis.w_dim is None
    assert analysis.clause is None


def test_w_dimension_requires_positive_total():
    with pytest.raises(ValueError):
        w_dimension(vine_graph(1, 1, 2), Multidegree((0, 0)))


def test_w_dimension_exhaustive_vine_box():
    # every multidegree of total g-1 in the padded box falls in exactly the
    # clause its stability dictates
    for g1 in range(4):
        for g2 in range(4):
            for delta in range(1, 5):
                g = vine_graph(g1, g2, delta)
                genus = counts(g).genus
                if genus < 2:
                    continue
                lo = [g1 - 1 - 2, g2 - 1 - 2]
                hi0 = genus - 1 - (g2 - 1) + 2
                for d0 in range(lo[0], hi0 + 1):
                    d = Multidegree((d0, genus - 1 - d0))
                    if d[1] < lo[1]:
                        continue
                    analysis = w_dimension(g, d)
                    if check_stability(g, d).is_semistable:
                        assert analysis.w_dim == genus - 1
                        assert analysis.abel_dim_bound == genus - 1
                        assert analysis.abel_dim_exact
                    else:
                        assert analysis.w_dim == genus
                        assert analysis.whole_picard
                        assert analysis.abel_dim_bound <= genus - 2


def test_theta_strata_irreducible_pattern():
    # one stratum per node subset, of dimension g-1-i
    geometric = 2
    for delta in (1, 2, 3):
        g = single_vertex(geometric, loops=delta)
        genus = counts(g).genus
        ts = theta_strata(g)
        assert len(ts) == 2**delta
        by_nodes = {t.base.nodes.edges: t for t in ts}
        for size in range(delta + 1):
            for combo in combinations(range(delta), size):
                t = by_nodes[combo]
                assert t.dim == genus - 1 - size
        full = by_nodes[tuple(range(delta))]
        assert full.description == "Θ(C)"


def test_theta_strata_vine1_descriptor():
    g = vine_graph(2, 1, 1)
    ts = theta_strata(g)
    assert len(ts) == 1
    t = ts[0]
    assert t.dim == counts(g).genus - 1
    assert (
        t.description
        == "Θ(C1) × Pic^0(C2) ∪ Θ(C2) × Pic^1(C1)"
    )


def test_theta_strata_vine2_descriptor():
    g = vine_graph(1, 1, 2)
    ts = theta_strata(g)
    assert len(ts) == 2
    top, boundary = ts
    assert top.description == "W_(1,1)(X)"
    assert top.dim == 2  # g - 1
    assert (
        boundary.description
        == "Θ(C1) × Pic^0(C2) ∪ Θ(C2) × Pic^0(C1)"
    )
    assert boundary.dim == 1


def test_theta_strata_count_and_dims():
    rng = random.Random(37)
    for _ in range(12):
        g = random_connected_graph(rng, max_vertices=4, max_edges=6)
        base = strata(g)
        ts = theta_strata(g)
        assert len(ts) == len(base)
        for t in ts:
            if t.dim is not None:
                assert t.dim == t.base.dim - 1


def test_theta_strata_reads_the_pieces_off_the_strata(monkeypatch):
    # count partial normalizations through every nodalpic module that binds one
    real = graph_module.partial_normalization
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if name.split(".")[0] == "nodalpic"
        and getattr(module, "partial_normalization", None) is real
    ]
    assert picard in modules
    for module in modules:
        monkeypatch.setattr(module, "partial_normalization", counting)
    g = vine_graph(1, 2, 4)
    # the counter is wired: the boundary point normalizes its one node set
    specialize_two_component(g, Multidegree((0, 5)))
    assert len(calls) == 1
    calls.clear()
    picard._strata.cache_clear()
    base = strata(g)
    ts = theta_strata(g)
    assert calls == []
    assert [t.base for t in ts] == base


def test_theta_dim_is_unknown_exactly_on_strata_of_dimension_zero():
    rng = random.Random(41)
    curves = golden_curves() + [bridged_multigraph(rng) for _ in range(30)]
    unknown = 0
    for g in curves:
        for t in theta_strata(g):
            assert (t.dim is None) == (t.base.dim == 0)
            # the rule it replaces: the dimension is known when some piece has genus >= 1
            assert (t.dim is None) == all(p.genus < 1 for p in t.base.pieces)
            if t.dim is not None:
                assert t.dim == t.base.dim - 1
            unknown += t.dim is None
    assert unknown


def test_theta_stratum_empty_when_all_pieces_rational():
    g = vine_graph(0, 0, 2)
    ts = theta_strata(g)
    boundary = [t for t in ts if t.base.nodes.edges][0]
    assert boundary.dim is None
    assert boundary.description == "(empty)"


def test_w_components_vine():
    analysis = w_components_vine_strictly_semistable(2, 1, 2)
    g = 2 + 1 + 2 - 1
    assert analysis.multidegree == Multidegree((1, 2))
    first, second = analysis.components
    assert first.dim == g - 1 == 3
    assert second.dim == g - 1 == 3
    assert not first.empty and not second.empty
    assert second.translate == "-(q1+q2)"


def test_w_components_vine_rational_side():
    analysis = w_components_vine_strictly_semistable(0, 2, 2)
    first, second = analysis.components
    assert first.empty
    assert not second.empty
    assert sum(1 for c in analysis.components if not c.empty) == 1


def test_w_components_vine_symmetry():
    a = w_components_vine_strictly_semistable(2, 1, 3)
    b = w_components_vine_strictly_semistable(1, 2, 3)
    assert a.w_dim == b.w_dim
    assert [c.empty for c in a.components] == [c.empty for c in reversed(b.components)]
    assert [c.dim for c in a.components] == [c.dim for c in reversed(b.components)]
