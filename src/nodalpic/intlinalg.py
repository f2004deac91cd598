"""Exact integer linear algebra on plain Python ints.

Everything here works on small dense matrices given as lists of lists (or
tuples of tuples) of arbitrary-precision integers.  Determinants use the
fraction-free Bareiss scheme so intermediate values stay integral; the Smith
normal form tracks the unimodular row/column transforms and the inverse of
the row transform, which the class-group canonicalization needs.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = identity(m)
    u_inv = identity(m)
    v = identity(n)

    def row_swap(i, j):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in u_inv:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, c):
        # row i += c * row j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for r in u_inv:
            r[j] -= c * r[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in u_inv:
            r[i] = -r[i]

    def col_swap(i, j):
        if i == j:
            return
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def col_add(i, j, c):
        # col i += c * col j
        for r in a:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]

    def min_pivot(t):
        best = None
        best_val = 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best_val):
                    best = (i, j)
                    best_val = abs(x)
        return best

    def move_pivot(t):
        pos = min_pivot(t)
        if pos is None:
            return False
        row_swap(t, pos[0])
        col_swap(t, pos[1])
        if a[t][t] < 0:
            row_negate(t)
        return True

    t = 0
    while t < min(m, n):
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
            violation = None
            for i in range(t + 1, m):
                row = a[i]
                for j in range(t + 1, n):
                    if row[j] % a[t][t]:
                        violation = i
                        break
                if violation is not None:
                    break
            if violation is None:
                break
            # pull a non-divisible entry into the pivot row and keep reducing
            row_add(t, violation, 1)
        t += 1

    diag = tuple(a[i][i] for i in range(min(m, n)))
    freeze = lambda rows: tuple(tuple(r) for r in rows)
    return SmithNormalForm(diag, freeze(u), freeze(u_inv), freeze(v))
