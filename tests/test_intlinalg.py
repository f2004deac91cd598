import random

import pytest

from nodalpic.intlinalg import (
    bareiss_determinant,
    identity,
    mat_mul,
    mat_vec,
    smith_normal_form,
)


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
