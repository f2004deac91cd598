import random
from fractions import Fraction
from itertools import product

import pytest

from nodalpic import (
    ClassLabel,
    DualGraph,
    Multidegree,
    StabilityStatus,
    TotalDegreeError,
    class_listing,
    class_of,
    class_representatives,
    complexity,
    connected_subcurves,
    counts,
    degree_class_group,
    equivalent,
    laplacian,
    semistabilize,
    subcurve_arithmetic_genus,
    twister_lattice,
    twister_multidegree,
    vine_graph,
)
from nodalpic import classgroup
from nodalpic.classgroup import representative
from nodalpic.intlinalg import mat_mul, mat_vec, smith_normal_form
from nodalpic.oracle import SearchOutcome, equivalent_bruteforce
from nodalpic.stability import check_stability, enumerate_semistable

from helpers import (
    complete4,
    path3,
    permuted,
    permuted_md,
    random_connected_graph,
    random_multidegree,
    single_vertex,
    triangle,
)


def test_laplacian_vine():
    assert laplacian(vine_graph(1, 1, 4)) == ((4, -4), (-4, 4))


def test_laplacian_ignores_loops():
    assert laplacian(single_vertex(1, loops=3)) == ((0,),)


def test_laplacian_triangle():
    assert laplacian(triangle()) == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))


def test_laplacian_symmetric_zero_row_sums():
    rng = random.Random(2)
    for _ in range(20):
        g = random_connected_graph(rng)
        lap = laplacian(g)
        for i in range(g.gamma):
            assert sum(lap[i]) == 0
            for j in range(g.gamma):
                assert lap[i][j] == lap[j][i]


def test_twister_multidegree_vine():
    assert twister_multidegree(vine_graph(1, 1, 4), (1, 0)) == Multidegree((-4, 4))


def test_twister_multidegree_constant_vector():
    g = triangle()
    assert twister_multidegree(g, (5, 5, 5)) == Multidegree((0, 0, 0))


def test_twister_multidegree_triangle():
    assert twister_multidegree(triangle(), (1, 0, 0)) == Multidegree((-2, 1, 1))


def test_twister_lattice_basis():
    g = triangle()
    lat = twister_lattice(g)
    assert lat.rank == 2
    assert all(b.total == 0 for b in lat.basis)
    dcg = degree_class_group(g)
    zero = Multidegree((0, 0, 0))
    assert all(equivalent(dcg, b, zero) for b in lat.basis)


def test_degree_class_group_vine6():
    dcg = degree_class_group(vine_graph(1, 1, 6))
    assert dcg.invariant_factors == (6,)
    assert dcg.order == 6


def test_degree_class_group_tree_like():
    for g in (path3(), vine_graph(2, 1, 1), single_vertex(3, loops=2)):
        dcg = degree_class_group(g)
        assert dcg.invariant_factors == ()
        assert dcg.order == 1


def test_degree_class_group_triangle():
    dcg = degree_class_group(triangle())
    assert dcg.invariant_factors == (3,)
    assert dcg.order == 3


def test_smith_form_reconstructs():
    for g in (triangle(), vine_graph(1, 1, 5), path3()):
        n = g.gamma
        lap = laplacian(g)
        reduced = [[lap[i][j] for j in range(1, n)] for i in range(1, n)]
        snf = smith_normal_form(reduced)
        lhs = mat_mul(mat_mul(snf.left, reduced), snf.right)
        for i in range(n - 1):
            for j in range(n - 1):
                assert lhs[i][j] == (snf.diagonal[i] if i == j else 0)
        ident = mat_mul(snf.left, snf.left_inv)
        assert all(
            ident[i][j] == (1 if i == j else 0)
            for i in range(n - 1)
            for j in range(n - 1)
        )


def test_class_of_twister_is_trivial():
    g = vine_graph(1, 1, 3)
    dcg = degree_class_group(g)
    assert class_of(dcg, Multidegree((0, 0))) == class_of(dcg, Multidegree((3, -3)))


def test_class_of_reflexive():
    dcg = degree_class_group(triangle())
    d = Multidegree((4, -1, -3))
    assert class_of(dcg, d) == class_of(dcg, d)


def test_class_of_triangle_pairs():
    # (1,-1,0) - (0,1,-1) = (1,-2,1) = -L(0,1,0), so they are equivalent
    g = triangle()
    dcg = degree_class_group(g)
    a, b = Multidegree((1, -1, 0)), Multidegree((0, 1, -1))
    assert equivalent(dcg, a, b)
    assert equivalent_bruteforce(g, a, b) is SearchOutcome.FOUND
    # (1,0,-1) lies in the remaining third class
    c, e = Multidegree((1, 0, -1)), Multidegree((0, -1, 1))
    assert equivalent(dcg, c, e)
    assert equivalent_bruteforce(g, c, e) is SearchOutcome.FOUND
    assert not equivalent(dcg, c, a)
    assert equivalent_bruteforce(g, c, a) is SearchOutcome.NOT_FOUND_WITHIN_BOUNDS


def test_equivalent_vine_shift_by_two():
    for g1, g2 in [(1, 1), (0, 2), (3, 0)]:
        g = vine_graph(g1, g2, 2)
        dcg = degree_class_group(g)
        assert equivalent(
            dcg,
            Multidegree((g1 - 1, g2 + 1)),
            Multidegree((g1 + 1, g2 - 1)),
        )


def test_equivalent_totals_differ():
    dcg = degree_class_group(vine_graph(1, 1, 2))
    assert not equivalent(dcg, Multidegree((1, 0)), Multidegree((1, 1)))


def test_class_representatives_vine4():
    dcg = degree_class_group(vine_graph(1, 1, 4))
    reps = class_representatives(dcg, 0)
    assert len(reps) == 4
    assert all(d.total == 0 for d in reps)
    for i in range(4):
        for j in range(i + 1, 4):
            assert not equivalent(dcg, reps[i], reps[j])


def test_class_representatives_tree_like():
    dcg = degree_class_group(path3())
    assert class_representatives(dcg, 5) == [Multidegree((5, 0, 0))]


def test_class_representatives_triangle_total1():
    dcg = degree_class_group(triangle())
    reps = class_representatives(dcg, 1)
    assert len(reps) == 3
    assert all(d.total == 1 for d in reps)
    for i in range(3):
        for j in range(i + 1, 3):
            assert not equivalent(dcg, reps[i], reps[j])
    # deterministic
    assert class_representatives(dcg, 1) == reps


def test_representative_round_trips_label():
    rng = random.Random(31)
    for _ in range(20):
        g = random_connected_graph(rng, max_vertices=5)
        dcg = degree_class_group(g)
        d = random_multidegree(rng, g.gamma, rng.randint(-3, 3))
        label = class_of(dcg, d)
        lifted = representative(dcg, label)
        assert class_of(dcg, lifted) == label
        assert equivalent(dcg, lifted, d)


@pytest.mark.parametrize("total", [-2, 0, 3])
def test_class_listing_lists_each_class_once(total):
    rng = random.Random(61)
    graphs = [random_connected_graph(rng, max_vertices=6, max_edges=12) for _ in range(25)]
    graphs += [path3((1, 0, 2)), single_vertex(genus=1, loops=2), complete4()]
    assert any(len(degree_class_group(g).invariant_factors) >= 2 for g in graphs)
    for g in graphs:
        dcg = degree_class_group(g)
        listing = class_listing(dcg, total)
        assert len(listing) == dcg.order
        # each label is its representative's class, and the labels are distinct,
        # so the representatives are pairwise inequivalent
        assert all(class_of(dcg, rep) == label for label, rep in listing)
        assert len({label for label, _ in listing}) == dcg.order
        assert all(rep.total == total for _, rep in listing)
        lifted = [
            (ClassLabel(residues, total), representative(dcg, ClassLabel(residues, total)))
            for residues in product(*(range(f) for f in dcg.invariant_factors))
        ]
        assert listing == lifted
        assert class_representatives(dcg, total) == [rep for _, rep in lifted]
        # the CLI reads the plain rows that class_listing wraps
        assert classgroup.class_rows(dcg, total) == [
            (list(label.residues), list(rep.entries)) for label, rep in listing
        ]


def test_semistabilize_vine_023():
    g = vine_graph(0, 2, 3)
    d2, firing = semistabilize(g, Multidegree((3, 0)))
    assert d2 == Multidegree((0, 3))
    assert twister_multidegree(g, firing) == Multidegree((-3, 3))


def test_semistabilize_already_semistable():
    g = vine_graph(1, 1, 2)
    d = Multidegree((1, 1))
    assert semistabilize(g, d) == (d, (0, 0))


def test_semistabilize_vine_112():
    g = vine_graph(1, 1, 2)
    d2, firing = semistabilize(g, Multidegree((3, -1)))
    assert d2 == Multidegree((1, 1))
    assert twister_multidegree(g, firing) == Multidegree((-2, 2))


def test_semistabilize_wrong_total():
    with pytest.raises(TotalDegreeError):
        semistabilize(vine_graph(1, 1, 2), Multidegree((0, 0)))


def test_semistabilize_rejects_wrong_length():
    with pytest.raises(ValueError, match="multidegree has 3 entries, graph has 2"):
        semistabilize(vine_graph(1, 1, 2), Multidegree((1, 1, 0)))


def _fire_from_zero(g, d):
    # plain firing loop with no cap: each firing lowers the quadratic
    # Q(f) = f.L.f/2 - (d - m).f by at least one, and Q is bounded below
    firing = [0] * g.gamma
    current = d
    while True:
        bad = [
            z
            for z in connected_subcurves(g)
            if current.degree_on(z.vertices) < subcurve_arithmetic_genus(g, z) - 1
        ]
        if not bad:
            break
        step = [0 if i in bad[0].vertices else 1 for i in range(g.gamma)]
        current = current + twister_multidegree(g, step)
        firing = [a + b for a, b in zip(firing, step)]
    return current, tuple(x - min(firing) for x in firing)


@pytest.mark.parametrize("loops", [(0, 0), (1, 0), (0, 2)])
def test_semistabilize_two_components_matches_firing_from_zero(loops):
    # pins the vine results that correction_profile_vine and abel --g-minus-1 read
    for g1, g2, nodes in product(range(3), range(3), range(1, 5)):
        edges = [("A", "B")] * nodes + [("A", "A")] * loops[0] + [("B", "B")] * loops[1]
        g = DualGraph.from_names([("A", g1), ("B", g2)], edges)
        total = g.genus - 1
        for a in range(-12, 13):
            d = Multidegree((a, total - a))
            assert semistabilize(g, d) == _fire_from_zero(g, d)


def _complete(n):
    names = [f"v{i}" for i in range(n)]
    return DualGraph.from_names(
        [(x, 0) for x in names], [(x, y) for i, x in enumerate(names) for y in names[i + 1 :]]
    )


def _cycle(n):
    names = [f"v{i}" for i in range(n)]
    return DualGraph.from_names(
        [(x, 0) for x in names], [(names[i], names[(i + 1) % n]) for i in range(n)]
    )


@pytest.mark.parametrize("n", range(2, 10))
def test_invariant_factors_of_complete_graphs(n):
    # the critical group of K_n is (Z/n)^(n-2), after Cayley's n^(n-2) trees
    assert degree_class_group(_complete(n)).invariant_factors == (n,) * (n - 2)


@pytest.mark.parametrize("n", range(3, 9))
def test_invariant_factors_of_cycles(n):
    # the critical group of C_n is cyclic of order n
    assert degree_class_group(_cycle(n)).invariant_factors == (n,)


def test_semistabilize_fires_at_most_half_the_nodes_after_the_jump(monkeypatch):
    found = []
    status_of = classgroup.stability_status

    def counting(graph, d):
        found.append(status_of(graph, d))
        return found[-1]

    monkeypatch.setattr(classgroup, "stability_status", counting)
    rng = random.Random(43)
    cases = [(_cycle(10), Multidegree([-300, 300] + [0] * 8))]
    k7 = _complete(7)
    cases.append((k7, Multidegree([10**6, -(10**6), 0, 0, 0, 0, k7.genus - 1])))
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=6, max_edges=12)
        cases.append((g, random_multidegree(rng, g.gamma, g.genus - 1, spread=10**6)))
    for g, d in cases:
        found.clear()
        result, firing = semistabilize(g, d)
        assert check_stability(g, result).is_semistable
        assert equivalent(degree_class_group(g), d, result)
        assert d + twister_multidegree(g, firing) == result
        assert min(firing) == 0
        after_jump = sum(status is StabilityStatus.UNSTABLE for status, _ in found[1:])
        nonloop_nodes = sum(u != v for u, v in g.edges)
        assert after_jump <= nonloop_nodes // 2


# (result, firing) of semistabilize on the seeded inputs of _after_jump_inputs
# that fire after the balanced jump, as recorded when the first violated
# subcurve in table order (size, then vertices) fired; most of them had more
# than one violated subcurve to choose from, so a change of choice shows here
AFTER_JUMP_OUTPUTS = {
    0: ((2, 5, 2, 2, 1, 1, 2, 0), (17, 11, 9, 32, 13, 0, 1, 7)),
    16: ((1, 5, 6, 2), (27, 16, 5, 0)),
    22: ((7, 1, 3, 1, 4), (4, 0, 0, 2, 11)),
    68: ((0, 5, 4, 0, 3, 3, 0, 3), (23, 5, 21, 73, 98, 0, 63, 117)),
    109: ((-1, 3, 2, 0, 4, 0), (0, 15, 22, 10, 13, 25)),
    111: ((3, 3, 2, 1, 2, 4, 0, 1, 1), (53, 101, 113, 102, 97, 110, 16, 0, 133)),
    151: ((9, 4, 0, 2, 0), (4, 3, 0, 10, 17)),
    174: ((0, 1, 6, -1, 3, 4, 4, 2, -1), (40, 32, 37, 25, 0, 22, 43, 45, 55)),
    177: ((-1, 4, 2, 5, 5, 2), (0, 12, 8, 6, 11, 18)),
    206: ((1, 4, -1, 2, 5), (5, 0, 9, 0, 2)),
    231: ((0, 0, 4, 0, 3, -1, -1, 2, 1), (7, 1, 10, 3, 22, 1, 23, 0, 53)),
    245: ((2, 2, 2, 1, 1, 3, 1), (15, 19, 9, 2, 0, 19, 64)),
    271: ((0, 3, -1, 1), (33, 19, 0, 23)),
    335: ((2, 5, 3), (9, 1, 0)),
    336: ((6, 4, 0, 2, 2, 3, 6), (20, 20, 20, 20, 0, 19, 13)),
    360: ((1, 3, 1, 1, 5, 3, 0, 1), (71, 48, 41, 35, 46, 21, 68, 0)),
    377: ((1, 5, 5, -1, 0), (3, 6, 0, 4, 10)),
    379: ((1, 7, 3, 3), (0, 13, 18, 29)),
    398: ((-1, 5, 1, 4, 3, -1, 1, 0), (0, 29, 41, 32, 26, 18, 35, 19)),
    412: ((1, 4, 3, 4), (0, 8, 7, 24)),
    419: ((6, 4, 3, 1), (14, 15, 8, 0)),
    443: ((2, 2, 2, -1, 3, 2, 2), (27, 0, 63, 12, 63, 81, 153)),
    447: ((6, 1, 3, 3, 3, 2, 1, 2), (22, 19, 1, 23, 8, 0, 19, 15)),
    451: ((5, 4, 3, 4, 2), (0, 5, 3, 3, 8)),
    502: ((4, 6, 2, 2, 3, 2, 3, 3, 1), (2, 33, 33, 0, 45, 35, 5, 48, 49)),
    504: ((-1, 1, 5, 3, 1, 5), (27, 10, 15, 45, 34, 0)),
    507: ((0, 4, 4, 1, 4, 2, 1, 4, 2), (103, 106, 162, 52, 13, 11, 0, 102, 254)),
    519: ((1, 5, 5, 2, 3, 2, 1, -1, 3), (12, 21, 27, 35, 24, 32, 16, 0, 40)),
    533: ((0, 1, 3, 5, 5), (3, 12, 5, 0, 11)),
    552: ((2, 3, 6), (3, 0, 6)),
    571: ((2, 5, -1, 3, 3, 4, 2, 2), (19, 17, 7, 11, 4, 0, 19, 20)),
}


def _after_jump_inputs():
    rng = random.Random(50)
    for index in range(600):
        g = random_connected_graph(rng, max_vertices=9, max_edges=14, max_genus=3)
        d = random_multidegree(rng, g.gamma, g.genus - 1, spread=30)
        if index in AFTER_JUMP_OUTPUTS:
            yield index, g, d


def test_semistabilize_outputs_after_the_jump_are_pinned(monkeypatch):
    statuses = []
    status_of = classgroup.stability_status

    def counting(graph, d):
        found = status_of(graph, d)
        statuses.append(found[0])
        return found

    monkeypatch.setattr(classgroup, "stability_status", counting)
    for index, g, d in _after_jump_inputs():
        statuses.clear()
        result, firing = semistabilize(g, d)
        assert (result.entries, firing) == AFTER_JUMP_OUTPUTS[index]
        assert StabilityStatus.UNSTABLE in statuses[1:]


def _solve_exact(g, rhs):
    # Gauss-Jordan over the rationals on the reduced Laplacian, with x_0 = 0
    lap = laplacian(g)
    rows = [[Fraction(v) for v in lap[i][1:]] + [Fraction(rhs[i])] for i in range(1, g.gamma)]
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col]:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
    return [Fraction(0)] + [row[-1] for row in rows]


def test_balanced_firing_rounds_the_exact_solution_ties_toward_zero():
    # |n - x| <= 1/2 on every vertex is what bounds the firings after the jump
    rng = random.Random(44)
    ties = 0
    for _ in range(60):
        g = random_connected_graph(rng, max_vertices=6, max_edges=10)
        d = random_multidegree(rng, g.gamma, g.genus - 1, spread=50)
        m = [
            Fraction(2 * (v.genus + loops) - 2 + codeg, 2)
            for v, loops, codeg in zip(g.vertices, g.loops, g.nonloop_degree)
        ]
        x = _solve_exact(g, [a - b for a, b in zip(d, m)])
        n = classgroup._balanced_firing(g, degree_class_group(g), d)
        for nv, xv in zip(n, x):
            assert abs(nv - xv) <= Fraction(1, 2)
            if abs(nv - xv) == Fraction(1, 2):
                ties += 1
                assert abs(nv) < abs(xv)
    assert ties > 0


def test_semistabilize_balances_a_thirty_vertex_cycle():
    # beyond the subcurve cap, which semistabilize no longer reads; the connected
    # proper subcurves of a cycle are its arcs, and an arc's p_a is its genus sum,
    # so a running sum over the arcs from each start checks d_Z >= p_a(Z) - 1 in O(n^2)
    rng = random.Random(45)
    n = 30
    names = [f"c{i}" for i in range(n)]
    genera = [rng.randint(0, 2) for _ in names]
    g = DualGraph.from_names(list(zip(names, genera)), [(x, names[i - 1]) for i, x in enumerate(names)])
    lap = laplacian(g)
    moved = 0
    for _ in range(20):
        d = random_multidegree(rng, n, g.genus - 1, spread=40)
        result, firing = semistabilize(g, d)
        assert [r - x for r, x in zip(result, d)] == [-y for y in mat_vec(lap, list(firing))]
        assert min(firing) == 0
        moved += result != d
        for start in range(n):
            slack = 0
            for length in range(n - 1):
                i = (start + length) % n
                slack += result[i] - genera[i]
                assert slack >= -1
    assert moved == 20
def test_order_equals_complexity_random():
    rng = random.Random(12)
    for _ in range(40):
        g = random_connected_graph(rng)
        dcg = degree_class_group(g)
        assert dcg.order == complexity(g)
        prod = 1
        for f in dcg.invariant_factors:
            prod *= f
        assert prod == dcg.order
        for a, b in zip(dcg.invariant_factors, dcg.invariant_factors[1:]):
            assert b % a == 0


def test_class_label_residues_reduced():
    rng = random.Random(19)
    for _ in range(20):
        g = random_connected_graph(rng, max_vertices=5)
        dcg = degree_class_group(g)
        d = random_multidegree(rng, g.gamma, rng.randint(-4, 4), spread=6)
        label = class_of(dcg, d)
        assert len(label.residues) == len(dcg.invariant_factors)
        for r, f in zip(label.residues, dcg.invariant_factors):
            assert 0 <= r < f
        assert label.total_degree == d.total
    with pytest.raises(ValueError):
        class_of(degree_class_group(triangle()), Multidegree((1, -1)))


def test_twister_always_trivial_class():
    rng = random.Random(13)
    for _ in range(25):
        g = random_connected_graph(rng, max_vertices=5)
        dcg = degree_class_group(g)
        n = [rng.randint(-3, 3) for _ in range(g.gamma)]
        t = twister_multidegree(g, n)
        assert t.total == 0
        assert equivalent(dcg, t, Multidegree([0] * g.gamma))


def test_equivalence_relation_laws():
    rng = random.Random(14)
    g = random_connected_graph(rng, max_vertices=5)
    dcg = degree_class_group(g)
    sample = [random_multidegree(rng, g.gamma, 2) for _ in range(8)]
    for a in sample:
        assert equivalent(dcg, a, a)
        for b in sample:
            assert equivalent(dcg, a, b) == equivalent(dcg, b, a)
            for c in sample:
                if equivalent(dcg, a, b) and equivalent(dcg, b, c):
                    assert equivalent(dcg, a, c)


def test_class_equivariance_under_relabeling():
    rng = random.Random(15)
    for _ in range(15):
        g = random_connected_graph(rng, max_vertices=5)
        order = list(range(g.gamma))
        rng.shuffle(order)
        h = permuted(g, order)
        dg, dh = degree_class_group(g), degree_class_group(h)
        assert dg.invariant_factors == dh.invariant_factors
        for _ in range(5):
            a = random_multidegree(rng, g.gamma, 1)
            b = random_multidegree(rng, g.gamma, 1)
            assert equivalent(dg, a, b) == equivalent(
                dh, permuted_md(a, order), permuted_md(b, order)
            )


def test_semistabilize_lands_in_semistable_set():
    rng = random.Random(16)
    for _ in range(30):
        g = random_connected_graph(rng, max_vertices=5, max_edges=8)
        total = counts(g).genus - 1
        d = random_multidegree(rng, g.gamma, total)
        result, firing = semistabilize(g, d)
        assert check_stability(g, result).is_semistable
        assert equivalent(degree_class_group(g), d, result)
        assert d + twister_multidegree(g, firing) == result
        assert min(firing) == 0


def test_equivalent_agrees_with_bounded_oracle():
    # the bounded search can confirm but never refute: FOUND must imply
    # equivalence, and pairs built from small twists must be found
    rng = random.Random(77)
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=4, max_edges=8)
        dcg = degree_class_group(g)
        for _ in range(2):
            d1 = random_multidegree(rng, g.gamma, rng.randint(-2, 2), spread=3)
            n = [rng.randint(-2, 2) for _ in range(g.gamma)]
            d2 = d1 + twister_multidegree(g, n)
            assert equivalent(dcg, d1, d2)
            assert equivalent_bruteforce(g, d1, d2) is SearchOutcome.FOUND
        for _ in range(2):
            d1 = random_multidegree(rng, g.gamma, 0, spread=3)
            d2 = random_multidegree(rng, g.gamma, 0, spread=3)
            if equivalent_bruteforce(g, d1, d2) is SearchOutcome.FOUND:
                assert equivalent(dcg, d1, d2)


def test_semistable_set_covers_every_class():
    rng = random.Random(18)
    for _ in range(20):
        g = random_connected_graph(rng, max_vertices=5, max_edges=8)
        dcg = degree_class_group(g)
        labels = {class_of(dcg, d) for d in enumerate_semistable(g)}
        assert len(labels) == dcg.order


def test_equal_graphs_share_one_class_group():
    a = DualGraph.from_names([("P", 1), ("Q", 0), ("R", 2)], [("P", "Q")] * 3 + [("Q", "R")] * 2)
    b = DualGraph.from_names([("P", 1), ("Q", 0), ("R", 2)], [("P", "Q")] * 3 + [("Q", "R")] * 2)
    assert a is not b and a == b
    assert degree_class_group(a) is degree_class_group(b)
    assert degree_class_group(a).order == complexity(a) == 6
