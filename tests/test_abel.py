import math
import random

import pytest

from nodalpic import (
    DualGraph,
    Multidegree,
    Naturality,
    bridges,
    correction_profile_vine,
    degree1_abel_is_embedding,
    essential_connectivity,
    natural_g_minus_1_vine,
    naturality_necessary,
    vine_graph,
)
from nodalpic.stability import check_stability

from helpers import (
    bridged_multigraph,
    random_connected_graph,
    reference_degree1_offenders,
    single_vertex,
)


def test_natural_023_not_natural():
    verdict = natural_g_minus_1_vine(0, 2, 3)
    assert verdict.status is Naturality.NOT_NATURAL
    # genus 4, delta = g-1, but the genus pair {0,2} still breaks it
    assert Multidegree((3, 0)) in verdict.offending


def test_natural_112():
    assert natural_g_minus_1_vine(1, 1, 2).status is Naturality.NATURAL


def test_natural_delta_one_always():
    for g1, g2 in [(0, 2), (3, 3), (2, 0)]:
        assert natural_g_minus_1_vine(g1, g2, 1).status is Naturality.NATURAL


def test_natural_requires_genus_two():
    with pytest.raises(ValueError):
        natural_g_minus_1_vine(0, 0, 1)


def test_natural_two_formulations_agree():
    # delta >= g-1 and {g1,g2} != {0,2}  <=>  g1 <= 1 and g2 <= 1, given delta >= 2
    for g1 in range(4):
        for g2 in range(4):
            for delta in range(2, 7):
                g = g1 + g2 + delta - 1
                if g < 2:
                    continue
                via_bound = delta >= g - 1 and {g1, g2} != {0, 2}
                via_genera = g1 <= 1 and g2 <= 1
                assert via_bound == via_genera
                got = natural_g_minus_1_vine(g1, g2, delta).status
                assert (got is Naturality.NATURAL) == via_genera


def test_correction_profile_112_all_zero():
    profile = correction_profile_vine(1, 1, 2)
    assert [e.correction for e in profile.entries] == [0, 0, 0]
    assert [e.corrected.entries for e in profile.entries] == [(0, 2), (1, 1), (2, 0)]
    assert profile.all_zero


def test_correction_profile_023():
    profile = correction_profile_vine(0, 2, 3)
    by_l = {e.degree_on_first: e for e in profile.entries}
    assert by_l[3].correction != 0
    assert by_l[3].corrected == Multidegree((0, 3))
    assert not profile.all_zero


def test_correction_profile_rational_components():
    for delta in (3, 4, 5):
        assert correction_profile_vine(0, 0, delta).all_zero


def test_profile_zero_iff_slices_semistable():
    rng = random.Random(51)
    for _ in range(10):
        g1, g2, delta = rng.randint(0, 3), rng.randint(0, 3), rng.randint(2, 5)
        g = g1 + g2 + delta - 1
        if g < 2:
            continue
        graph = vine_graph(g1, g2, delta)
        profile = correction_profile_vine(g1, g2, delta)
        all_semistable = all(
            check_stability(graph, Multidegree((l, g - 1 - l))).is_semistable
            for l in range(g)
        )
        assert profile.all_zero == all_semistable
        for entry in profile.entries:
            slice_md = Multidegree((entry.degree_on_first, g - 1 - entry.degree_on_first))
            assert (entry.correction == 0) == check_stability(
                graph, slice_md
            ).is_semistable
            assert check_stability(graph, entry.corrected).is_semistable


def test_small_delta_forces_corrections():
    # delta <= g-2 guarantees at least one slice is not semistable
    for g1 in range(4):
        for g2 in range(4):
            for delta in range(2, 7):
                g = g1 + g2 + delta - 1
                if g < 2 or delta > g - 2:
                    continue
                assert not correction_profile_vine(g1, g2, delta).all_zero


def test_naturality_necessary_vine2():
    g = vine_graph(1, 1, 2)
    assert naturality_necessary(g, 2).status is Naturality.NOT_NATURAL
    assert naturality_necessary(g, 1).status is Naturality.POSSIBLY_NATURAL


def test_naturality_necessary_irreducible():
    g = single_vertex(2, loops=1)
    for d in (1, 2, 5):
        verdict = naturality_necessary(g, d)
        assert verdict.status is Naturality.POSSIBLY_NATURAL
        assert verdict.essential_connectivity == math.inf


def test_naturality_necessary_threshold_random():
    rng = random.Random(52)
    for _ in range(20):
        g = random_connected_graph(rng, max_vertices=5, max_edges=8)
        eps = essential_connectivity(g)
        for d in (1, 2, 3):
            verdict = naturality_necessary(g, d)
            expected = (
                Naturality.NOT_NATURAL if d >= eps else Naturality.POSSIBLY_NATURAL
            )
            assert verdict.status is expected


def test_naturality_necessary_rejects_degree_zero():
    with pytest.raises(ValueError):
        naturality_necessary(vine_graph(1, 1, 2), 0)


def test_degree1_embedding_vine2():
    assert degree1_abel_is_embedding(vine_graph(0, 0, 2)).is_embedding


def test_degree1_embedding_rational_tail():
    verdict = degree1_abel_is_embedding(vine_graph(0, 2, 1))
    assert not verdict.is_embedding
    assert verdict.offenders == ("C1",)


def test_degree1_embedding_nodal_rational_curve():
    assert degree1_abel_is_embedding(single_vertex(0, loops=1)).is_embedding


def test_degree1_embedding_bare_point_contracts():
    verdict = degree1_abel_is_embedding(single_vertex(0))
    assert not verdict.is_embedding


def test_degree1_embedding_mixed_graph():
    # rational pendant on a cycle: pendant contracted, cycle fine
    g = DualGraph.from_names(
        [("a", 0), ("b", 0), ("c", 1), ("p", 0)],
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "p")],
    )
    verdict = degree1_abel_is_embedding(g)
    assert not verdict.is_embedding
    assert verdict.offenders == ("p",)
    # a genus-1 pendant is fine
    h = DualGraph.from_names(
        [("a", 0), ("b", 0), ("c", 1), ("p", 1)],
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "p")],
    )
    assert degree1_abel_is_embedding(h).is_embedding


def test_degree1_embedding_matches_the_per_vertex_edge_scan():
    # one pass over the bridges against the scan of every edge per vertex
    rng = random.Random(131)
    curves = [
        random_connected_graph(rng, max_vertices=6, max_edges=9, max_genus=1)
        for _ in range(1500)
    ] + [bridged_multigraph(rng) for _ in range(600)]
    assert sum(map(bool, map(bridges, curves))) > 1000
    assert sum(sum(g.loops) > 0 for g in curves) > 1000
    with_offenders = 0
    for g in curves:
        expected = reference_degree1_offenders(g)
        assert degree1_abel_is_embedding(g) == (not expected, expected)
        with_offenders += bool(expected)
    assert with_offenders > 500
