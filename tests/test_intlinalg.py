import random

import pytest

from nodalpic.classgroup import laplacian
from nodalpic.cli import parse_curve
from nodalpic.intlinalg import (
    bareiss_determinant,
    identity,
    mat_mul,
    mat_vec,
    smith_normal_form,
)

from helpers import GOLDEN


def test_determinant_small_cases():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[7]]) == 7
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[2, -1], [-1, 2]]) == 3
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0


def test_determinant_stays_exact_on_large_values():
    # 2^60 on the diagonal would overflow any fixed-width path
    n = 6
    a = [[(1 << 60) if i == j else 1 for j in range(n)] for i in range(n)]
    det = bareiss_determinant(a)
    assert det % ((1 << 60) - 1) == 0


def test_mat_vec():
    assert mat_vec([[2, -1], [-1, 2]], [3, 1]) == [5, -1]
    assert mat_vec([], [1]) == []
    for m, v in (([[1, 2]], [1, 2, 3]), ([[1, 2, 3]], [1, 2]), ([[1, 2], [3]], [1, 2])):
        with pytest.raises(ValueError):
            mat_vec(m, v)


def test_smith_normal_form_random_matrices():
    rng = random.Random(71)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        snf = smith_normal_form(a)
        lhs = mat_mul(mat_mul(snf.left, a), snf.right)
        for i in range(m):
            for j in range(n):
                want = snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
                assert lhs[i][j] == want
        assert mat_mul(snf.left, snf.left_inv) == identity(m)
        assert all(x >= 0 for x in snf.diagonal)
        nonzero = [x for x in snf.diagonal if x]
        for p, q in zip(nonzero, nonzero[1:]):
            assert q % p == 0
        if m == n:
            prod = 1
            for x in snf.diagonal:
                prod *= x
            assert abs(bareiss_determinant(a)) == prod


def test_smith_normal_form_empty():
    snf = smith_normal_form([])
    assert snf.diagonal == ()


def test_smith_normal_form_rejects_ragged_rows():
    # a short or long row would shift the left transform riding after it
    for a in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError):
            smith_normal_form(a)


def _seeded_singular():
    # three seeded rows and row 0 - 2 * row 1: rank 3, and the reduction
    # pulls a non-divisible entry into the pivot row once
    rng = random.Random(2050)
    rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(3)]
    return rows + [[x - 2 * y for x, y in zip(rows[0], rows[1])]]


@pytest.mark.parametrize(
    "matrix,expected",
    [
        (
            # the reduced Laplacians of K5 and of the triloop golden curve
            lambda: [[4 if i == j else -1 for j in range(4)] for i in range(4)],
            (
                (1, 5, 5, 5),
                ((-1, 0, 0, 0), (-4, -1, 0, 0), (-3, -1, -1, 0), (2, 1, 1, 1)),
                ((-1, 0, 0, 0), (4, -1, 0, 0), (-1, 1, -1, 0), (-1, 0, 1, 1)),
                ((0, 0, 0, 1), (1, -1, 0, 1), (0, 1, -1, 1), (0, 0, 1, 2)),
            ),
        ),
        (
            lambda: [list(row[1:]) for row in laplacian(parse_curve(str(GOLDEN / "triloop.txt")))[1:]],
            (
                (1, 5),
                ((-1, 0), (2, 1)),
                ((-1, 0), (2, 1)),
                ((0, 1), (1, 3)),
            ),
        ),
        (
            _seeded_singular,
            (
                (1, 1, 2, 0),
                ((1, 0, 0, 0), (11, -1, 1, 0), (26, -3, 2, 0), (-1, 2, 0, 1)),
                ((1, 0, 0, 0), (4, 2, -1, 0), (-7, 3, -1, 0), (-7, -4, 2, 1)),
                (
                    (0, 0, 0, 0, 1),
                    (1, -1, 3, 38, -32),
                    (0, 0, 1, 17, -15),
                    (0, 1, -2, -20, 14),
                    (0, 2, -6, -73, 64),
                ),
            ),
        ),
    ],
    ids=["K5", "triloop", "singular4x5"],
)
def test_smith_normal_form_transforms_are_pinned(matrix, expected):
    # the class labels, representatives and firing vectors of every curve
    # are read off these transforms, so a reduction that finds other valid
    # transforms would still relabel curves the goldens do not cover
    snf = smith_normal_form(matrix())
    assert (snf.diagonal, snf.left, snf.left_inv, snf.right) == expected
