"""Exact integer linear algebra on plain Python ints.

Everything here works on small dense matrices given as lists of lists (or
tuples of tuples) of arbitrary-precision integers.  Determinants use the
fraction-free Bareiss scheme so intermediate values stay integral.  The Smith
normal form reduces one augmented matrix: each row carries its row of the
left transform, each column operation also runs over the right transform, and
the inverse of the left transform, which the class-group canonicalization
needs, is kept as columns that take the inverse of every row operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Sequence

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(m: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    n = len(v)
    if any(len(row) != n for row in m):
        raise ValueError("mat_vec: a row and the vector differ in length")
    return [sum(map(mul, row, v)) for row in m]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik:
                brow = b[k]
                orow = out[i]
                for j in range(cols):
                    orow[j] += aik * brow[j]
    return out


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (empty matrix -> 1)."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division by construction of the Bareiss recurrence
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithNormalForm:
    """Decomposition left @ matrix @ right = diag(diagonal).

    ``left``/``right`` are unimodular and ``left_inv`` is the inverse of
    ``left``.  ``diagonal`` entries are non-negative and each divides the
    next; trivial factors (ones) come first.
    """

    diagonal: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    left_inv: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithNormalForm:
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if any(len(row) != n for row in matrix):
        raise ValueError("smith_normal_form: the rows differ in length")
    # row i is the matrix's row i followed by left's row i: one operation moves both
    a = [[int(x) for x in row] + unit for row, unit in zip(matrix, identity(m))]
    inv_cols = identity(m)  # the columns of ``left_inv``
    right = identity(n)

    def row_add(i, j, c):
        # row i += c * row j; the inverse subtracts c * column i from column j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        inv_cols[j] = [x - c * y for x, y in zip(inv_cols[j], inv_cols[i])]

    def col_add(i, j, c):
        # col i += c * col j
        for r in chain(a, right):
            r[i] += c * r[j]

    def move_pivot(t):
        # bring the first least nonzero |entry| (row-major) to (t, t), made positive
        best, best_val = None, 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best_val):
                    best = (i, j)
                    best_val = abs(x)
        if best is None:
            return False
        i, j = best
        a[t], a[i] = a[i], a[t]
        inv_cols[t], inv_cols[i] = inv_cols[i], inv_cols[t]
        if j != t:
            for r in chain(a, right):
                r[t], r[j] = r[j], r[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            inv_cols[t] = [-x for x in inv_cols[t]]
        return True

    for t in range(min(m, n)):
        if not move_pivot(t):
            break
        while True:
            clean = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        row_add(i, t, -q)
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        col_add(j, t, -q)
                    if a[t][j]:
                        clean = False
            if not clean:
                # a smaller remainder appeared; restart with it as pivot
                move_pivot(t)
                continue
            for i in range(t + 1, m):
                row = a[i]
                for j in range(t + 1, n):
                    if row[j] % a[t][t]:
                        break
                else:
                    continue
                # pull a non-divisible entry into the pivot row and keep reducing
                row_add(t, i, 1)
                break
            else:
                break  # the pivot divides every entry left

    return SmithNormalForm(
        tuple(a[i][i] for i in range(min(m, n))),
        tuple(tuple(r[n:]) for r in a),
        tuple(zip(*inv_cols)),
        tuple(map(tuple, right)),
    )
