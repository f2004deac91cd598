import gc
import random
import sys
from itertools import product

import pytest

from nodalpic import (
    CapExceeded,
    DualGraph,
    Multidegree,
    StabilityStatus,
    Subcurve,
    TotalDegreeError,
    bridges,
    check_stability,
    check_stability_parts,
    class_of,
    counts,
    degree_class_group,
    enumerate_semistable,
    enumerate_stable,
    enumerate_stable_disconnected,
    partial_normalization,
    semistable_verdicts,
    stability_status,
    vine_graph,
)
from nodalpic import graph, picard, stability
from nodalpic.cli import build_semistable
from nodalpic.oracle import OracleConfig, semistable_bruteforce, semistable_count, stable_count

from helpers import (
    bridged_multigraph,
    golden_curves,
    permuted,
    permuted_md,
    random_connected_graph,
    single_vertex,
)


def test_check_stability_stable():
    v = check_stability(vine_graph(1, 1, 2), Multidegree((1, 1)))
    assert v.status is StabilityStatus.STABLE
    assert v.witnesses == ()


def test_check_stability_strictly_semistable():
    v = check_stability(vine_graph(1, 1, 2), Multidegree((0, 2)))
    assert v.status is StabilityStatus.STRICTLY_SEMISTABLE
    assert v.witnesses == (Subcurve((0,)),)


def test_check_stability_unstable():
    v = check_stability(vine_graph(1, 1, 2), Multidegree((-1, 3)))
    assert v.status is StabilityStatus.UNSTABLE
    assert v.witnesses == (Subcurve((0,)),)


def test_check_stability_wrong_total_is_an_error_not_unstable():
    with pytest.raises(TotalDegreeError):
        check_stability(vine_graph(1, 1, 2), Multidegree((5, 5)))


def test_stability_status_rejects_a_wrong_length_or_total():
    g = vine_graph(1, 1, 2)
    with pytest.raises(ValueError, match="multidegree has 3 entries, graph has 2"):
        stability_status(g, Multidegree((1, 1, 0)))
    with pytest.raises(TotalDegreeError):
        stability_status(g, Multidegree((5, 5)))


def test_stability_status_equals_check_stability_and_the_oracle():
    # the orientation, the subcurve table and the oracle's box scan decide
    # each verdict on their own; a violated set is connected, proper and
    # violated exactly when check_stability lists it as a witness
    rng = random.Random(49)
    config = OracleConfig(max_vertices=7, max_edges=11)
    seen = dict.fromkeys(StabilityStatus, 0)
    searched = 0
    for k in range(400):
        if k % 2:
            g = random_connected_graph(rng, max_vertices=7, max_edges=11, max_genus=2)
        else:
            g = bridged_multigraph(rng)
        semistable = semistable_bruteforce(g, config)
        # a semistable d has low_i <= d_i <= low_i + codeg_i; draw one past each end
        low = [v.genus + loops - 1 for v, loops in zip(g.vertices, g.loops)]
        box = [(a - 1, a + codeg + 1) for a, codeg in zip(low, g.nonloop_degree)]
        cases = [rng.choice(semistable) for _ in range(2)]
        for _ in range(4):
            entries = [rng.randint(a, b) for a, b in box[1:]]
            cases.append(Multidegree([g.genus - 1 - sum(entries), *entries]))
        for d in cases:
            status, violated = stability_status(g, d)
            verdict = check_stability(g, d)
            assert status is verdict.status
            assert (status is not StabilityStatus.UNSTABLE) == (d in semistable)
            if status is StabilityStatus.UNSTABLE:
                assert violated in verdict.witnesses
                # a set of two or more comes from a failed augmenting search
                searched += len(violated.vertices) > 1
            else:
                assert violated is None
            seen[status] += 1
    assert min(seen.values()) >= 200 and searched >= 100


def test_stability_status_on_vines_equals_the_closed_form():
    # the proper subcurves of vine(g1, g2, delta) are its two components:
    # semistable iff g1 - 1 <= d_1 <= g1 - 1 + delta, stable iff both are strict
    for g1, g2, delta in product(range(4), range(4), range(1, 7)):
        g = vine_graph(g1, g2, delta)
        for d1 in range(g1 - 3, g1 + delta + 2):
            status, violated = stability_status(g, Multidegree((d1, g.genus - 1 - d1)))
            if g1 - 1 < d1 < g1 - 1 + delta:
                assert (status, violated) == (StabilityStatus.STABLE, None)
            elif g1 - 1 <= d1 <= g1 - 1 + delta:
                assert (status, violated) == (StabilityStatus.STRICTLY_SEMISTABLE, None)
            else:
                below = Subcurve((0,)) if d1 < g1 - 1 else Subcurve((1,))
                assert (status, violated) == (StabilityStatus.UNSTABLE, below)


def test_enumerate_vine_112():
    g = vine_graph(1, 1, 2)
    assert enumerate_semistable(g) == [
        Multidegree((0, 2)),
        Multidegree((1, 1)),
        Multidegree((2, 0)),
    ]
    assert enumerate_stable(g) == [Multidegree((1, 1))]


def test_enumerate_irreducible():
    for genus, loops in [(3, 0), (2, 2)]:
        g = single_vertex(genus, loops=loops)
        total = counts(g).genus - 1
        assert enumerate_semistable(g) == [Multidegree((total,))]
        assert enumerate_stable(g) == [Multidegree((total,))]


def test_enumerate_vine1_stable_empty():
    assert enumerate_stable(vine_graph(2, 1, 1)) == []


def test_any_bridge_forces_stable_empty():
    # a separating node splits g - 1 below the two arithmetic genera
    g = DualGraph.from_names(
        [("a", 1), ("b", 0), ("c", 1)],
        [("a", "b"), ("b", "c"), ("b", "b")],
    )
    assert enumerate_stable(g) == []
    assert enumerate_semistable(g) != []


def test_enumerate_stable_disconnected_two_points():
    parts = [single_vertex(2, name="A"), single_vertex(1, name="B")]
    assert enumerate_stable_disconnected(parts) == [Multidegree((1, 0))]


def test_enumerate_stable_disconnected_single_component():
    g = vine_graph(1, 1, 2)
    assert enumerate_stable_disconnected([g]) == enumerate_stable(g)


def test_enumerate_stable_disconnected_product():
    parts = [vine_graph(1, 1, 2), single_vertex(2, name="D")]
    got = enumerate_stable_disconnected(parts, vertex_order=("C1", "C2", "D"))
    assert got == [Multidegree((1, 1, 1))]


def test_enumerate_stable_disconnected_reassembles_parent_order():
    parts = [single_vertex(2, name="A"), single_vertex(1, name="B")]
    got = enumerate_stable_disconnected(parts, vertex_order=("B", "A"))
    assert got == [Multidegree((0, 1))]


def test_check_stability_parts():
    g = vine_graph(2, 1, 2)
    parts = partial_normalization(g, range(g.delta))
    verdict = check_stability_parts(parts, Multidegree((1, 0)), g.names)
    assert verdict.status is StabilityStatus.STABLE
    with pytest.raises(TotalDegreeError):
        check_stability_parts(parts, Multidegree((0, 1)), g.names)


@pytest.mark.parametrize(
    "parts,d,order,message",
    [
        # a name no component has is rejected, not filled or ignored
        ([vine_graph(1, 1, 2)], (1, 1, 57), ("C1", "C2", "Z"), "no component has vertex 'Z'"),
        ([vine_graph(1, 1, 2)], (1, 1, 0), ("C1", "C2", "C1"), "duplicate names"),
        ([vine_graph(1, 1, 2), single_vertex(1, name="C1")], (1, 1), ("C1", "C2"), "share"),
        ([vine_graph(1, 1, 2)], (2,), ("C1",), "missing 'C2'"),
        ([vine_graph(1, 1, 2)], (1, 1, 0), ("C1", "C2"), "length"),
    ],
)
def test_parts_reject_a_vertex_order_that_does_not_place_them(parts, d, order, message):
    with pytest.raises(ValueError, match=message):
        check_stability_parts(parts, Multidegree(d), order)
    if message != "length":
        with pytest.raises(ValueError, match=message):
            enumerate_stable_disconnected(parts, vertex_order=order)


def test_semistable_contains_stable_and_matches_oracle():
    rng = random.Random(8)
    for _ in range(25):
        g = random_connected_graph(rng, max_vertices=5, max_edges=8)
        semi = enumerate_semistable(g)
        stab = enumerate_stable(g)
        assert set(stab) <= set(semi)
        assert semi == semistable_bruteforce(g)
        assert stab == semistable_bruteforce(g, strict=True)
        report = build_semistable(g, 20)["semistable"]
        assert report["stable"] == [list(d.entries) for d in stab]


def test_vine_counts_formula():
    for g1 in range(4):
        for g2 in range(4):
            for delta in range(1, 7):
                g = vine_graph(g1, g2, delta)
                assert len(enumerate_semistable(g)) == delta + 1
                assert len(enumerate_stable(g)) == delta - 1


def test_semistable_never_empty():
    rng = random.Random(9)
    for _ in range(30):
        g = random_connected_graph(rng, max_vertices=5, max_edges=8)
        assert enumerate_semistable(g)


def test_semistable_covers_all_classes():
    rng = random.Random(10)
    for _ in range(20):
        g = random_connected_graph(rng, max_vertices=5, max_edges=8)
        dcg = degree_class_group(g)
        labels = {class_of(dcg, d) for d in enumerate_semistable(g)}
        assert len(labels) == dcg.order


def test_enumeration_permutation_equivariance():
    rng = random.Random(21)
    for _ in range(15):
        g = random_connected_graph(rng, max_vertices=5, max_edges=8)
        order = list(range(g.gamma))
        rng.shuffle(order)
        h = permuted(g, order)
        expected = sorted(
            permuted_md(d, order).entries for d in enumerate_semistable(g)
        )
        got = sorted(d.entries for d in enumerate_semistable(h))
        assert got == expected


def _multigraph(rng: random.Random, n: int) -> DualGraph:
    """A connected curve on n components with a doubled node, maybe a loop,
    and genera 0-2."""
    vertices = [(f"v{i}", rng.randint(0, 2)) for i in range(n)]
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    edges.append(rng.choice(edges))
    for _ in range(rng.randint(0, 3)):
        edges.append(tuple(rng.sample(range(n), 2)))
    if rng.random() < 0.6:
        v = rng.randrange(n)
        edges.append((v, v))
    return DualGraph.from_names(vertices, [(f"v{a}", f"v{b}") for a, b in edges])


def _cycle(n: int) -> DualGraph:
    names = [f"c{i}" for i in range(n)]
    return DualGraph.from_names(
        [(x, 0) for x in names], [(names[i], names[(i + 1) % n]) for i in range(n)]
    )


def _complete(n: int) -> DualGraph:
    names = [f"k{i}" for i in range(n)]
    edges = [(x, y) for i, x in enumerate(names) for y in names[i + 1 :]]
    return DualGraph.from_names([(x, 0) for x in names], edges)


def _hub_first_star(genera: list[int], loop: bool) -> DualGraph:
    """A genus-0 hub listed first, two nodes to each leaf, and maybe a loop
    at the first leaf.  The leaves are disconnected, so no upper test lands
    at the hub's depth and only sum_{j>0} low_j caps d_0."""
    leaves = [f"l{i}" for i in range(len(genera))]
    edges = [("h", x) for x in leaves for _ in range(2)] + [(leaves[0], leaves[0])] * loop
    return DualGraph.from_names([("h", 0), *zip(leaves, genera)], edges)


def _classifying_scan_curves() -> list[DualGraph]:
    rng = random.Random(44)
    curves = [_multigraph(rng, 2 + k % 8) for k in range(56)]
    assert any(len(set(g.edges)) < len(g.edges) for g in curves)
    assert any(u == v for g in curves for u, v in g.edges)
    stars = [_hub_first_star([0, 0, 0, 0], True), _hub_first_star([0, 1, 0, 0, 0], False)]
    # no upper test at the hub's depth
    assert all(stability._plan(g, False, 20)[0][0][1] == () for g in stars)
    return curves + [_cycle(10), _complete(6)] + stars


@pytest.mark.parametrize("g", _classifying_scan_curves())
def test_scan_verdicts_equal_check_stability(g):
    # the scan tests a subcurve at whichever of its ends and its complement's
    # comes first, so every rotation of the vertex order is checked
    for r in range(g.gamma):
        h = permuted(g, [(i + r) % g.gamma for i in range(g.gamma)])
        semi = enumerate_semistable(h)
        verdicts = semistable_verdicts(h)
        assert verdicts == [check_stability(h, d) for d in semi]
        stable = [d for d, v in zip(semi, verdicts) if v.status is StabilityStatus.STABLE]
        assert enumerate_stable(h) == stable


@pytest.mark.parametrize("strict", [False, True])
def test_plan_tests_each_subcurve_once_and_nothing_at_the_last_depth(strict):
    for g in _classifying_scan_curves():
        levels, _, subcurves = stability._plan(g, strict, 20)
        tested = [k for lower, upper, *_ in levels for *_, k in lower + upper]
        assert sorted(tested) == list(range(len(subcurves)))
        assert levels[-1][:3] == ((), (), ())
        # the singleton {i} comes first at each earlier depth: the scan's lo
        # starts at its value, which implies the per-vertex bounds
        for i, (lower, *_) in enumerate(levels[:-1]):
            assert subcurves[lower[0][2]] == Subcurve((i,))
            assert lower[0][0] == 0


def test_scan_witnesses_are_the_table_subcurves_in_table_order():
    g = _complete(5)
    table = stability._subcurve_table(g, 20)
    position = {z: k for k, (z, _) in enumerate(table)}
    for v in semistable_verdicts(g):
        indices = [position[w] for w in v.witnesses]
        assert indices == sorted(indices)
        assert all(w is table[k][0] for w, k in zip(v.witnesses, indices))


@pytest.mark.parametrize("read", [enumerate_semistable, semistable_verdicts])
def test_scan_readers_return_a_new_list_each_call(read):
    g = vine_graph(1, 2, 3)
    first = read(g)
    expected = list(first)
    first.clear()
    assert read(g) == expected
    assert read(g) is not read(g)


@pytest.mark.parametrize("read", [enumerate_semistable, semistable_verdicts, enumerate_stable])
def test_scan_cap_raises_on_every_call(read):
    g = _cycle(4)
    for _ in range(3):
        with pytest.raises(CapExceeded, match="capped at 3 vertices"):
            read(g, max_vertices=3)
    assert len(read(g)) > 0


def test_scan_memos_are_bounded():
    # the scan is the only memo in stability; its plan is not memoized apart
    assert stability._scan.cache_info().maxsize == stability.MEMO_SIZE
    assert not hasattr(stability._plan, "cache_info")


def _scan_visits(g: DualGraph, strict: bool) -> int:
    """Calls of the ``scan`` closure in one uncached ``_scan`` of ``g``."""
    visits = 0

    def count(frame, event, arg):
        nonlocal visits
        code = frame.f_code
        if event == "call" and code.co_name == "scan" and code.co_filename == stability.__file__:
            visits += 1

    stability._scan.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        stability._scan.__wrapped__(g, strict, stability.DEFAULT_MAX_SUBCURVE_VERTICES)
    finally:
        sys.setprofile(previous)
    return visits


@pytest.mark.parametrize(
    "g,expected",
    [
        (_hub_first_star([0] * 9, False), (39356, 90)),
        (_cycle(14), (32752, 14)),
        (_complete(6), (3973, 861)),
    ],
    ids=["star9", "C14", "K6"],
)
def test_scan_visit_counts_are_pinned(g, expected):
    # a looser cap on d_i leaves rows and verdicts as they are, since the
    # extra prefixes die one depth later, and shows only in these counts
    assert (_scan_visits(g, False), _scan_visits(g, True)) == expected


def test_enumerate_stable_is_empty_exactly_on_bridged_curves():
    # a bridge splits the curve into Z and Z^c with p_a(Z) + p_a(Z^c) = g,
    # and stability would need d >= g; without a bridge a stable row exists
    rng = random.Random(47)
    seen = {True: 0, False: 0}
    for _ in range(120):
        g = random_connected_graph(rng, max_vertices=5, max_edges=8)
        bridged = g.gamma > 1 and bool(bridges(g))
        expected = semistable_bruteforce(g, strict=True)
        assert (expected == []) == bridged
        assert enumerate_stable(g) == expected
        seen[bridged] += 1
    assert min(seen.values()) >= 20


def _bridgeless_multigraph(rng: random.Random, n: int) -> DualGraph:
    """A curve on n components: a cycle through them in random order, one to
    four chords (maybe parallel to an edge), maybe a loop, genera 0-2."""
    order = rng.sample(range(n), n)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    for _ in range(rng.randint(1, 4)):
        edges.append(tuple(rng.sample(range(n), 2)))
    if rng.random() < 0.6:
        v = rng.randrange(n)
        edges.append((v, v))
    vertices = [(f"v{i}", rng.randint(0, 2)) for i in range(n)]
    return DualGraph.from_names(vertices, [(f"v{a}", f"v{b}") for a, b in edges])


def _closed_form_cases() -> list[tuple[DualGraph, tuple[int, int] | None]]:
    rng = random.Random(48)
    seeded = [(_multigraph(rng, 7 + k % 3), None) for k in range(6)]
    seeded += [(_bridgeless_multigraph(rng, 7 + k % 3), None) for k in range(6)]
    return [(_cycle(14), (16383, 1)), (_complete(7), (36961, 7575))] + seeded


@pytest.mark.parametrize("g,known", _closed_form_cases())
def test_counts_equal_the_forest_closed_forms_past_the_oracle_range(g, known):
    # the brute-force oracle stops at 6 vertices; the closed forms reach further
    counted = (len(enumerate_semistable(g)), len(enumerate_stable(g)))
    assert counted == (semistable_count(g), stable_count(g))
    if known is not None:
        assert counted == known


def test_scans_and_strata_leave_no_cyclic_garbage():
    # a result its memo drops is freed by reference counting, not left to
    # wait for the cyclic collector
    curves = golden_curves()
    for memo in (stability._scan, graph._subcurve_table, picard._strata):
        memo.cache_clear()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for g in curves:
            enumerate_semistable(g)
            semistable_verdicts(g)
            enumerate_stable(g)
            picard.strata(g)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
