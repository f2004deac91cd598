"""Twister lattice, degree class group and chip-firing semistabilization.

Twisting a line bundle by a component divisor sum(n_i C_i) changes its
multidegree by -L @ n, where L is the loopless Laplacian of the dual graph.
The lattice of all such changes has full rank inside the degree-zero
sublattice, and the finite quotient (one copy per total degree) is the
degree class group.  Its order equals the number of spanning trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Sequence

from .errors import TotalDegreeError
from .graph import MEMO_SIZE, DualGraph
from .intlinalg import mat_vec, smith_normal_form
from .multidegree import Multidegree
from .stability import StabilityStatus, stability_status


def laplacian(graph: DualGraph) -> tuple[tuple[int, ...], ...]:
    """Loopless Laplacian: degrees on the diagonal, minus multiplicities off it."""
    n = graph.gamma
    mult = graph.multiplicity
    deg = graph.nonloop_degree
    return tuple(
        tuple(deg[i] if i == j else -mult[i][j] for j in range(n)) for i in range(n)
    )


def twister_multidegree(graph: DualGraph, firing: Sequence[int]) -> Multidegree:
    """Multidegree change from twisting by sum(firing[i] * C_i): -L @ firing."""
    if len(firing) != graph.gamma:
        raise ValueError("firing vector length must equal the vertex count")
    lap = laplacian(graph)
    return Multidegree(-x for x in mat_vec(lap, list(firing)))


@dataclass(frozen=True)
class TwisterLattice:
    """Integer basis of the lattice of twister multidegrees."""

    basis: tuple[Multidegree, ...]
    rank: int


def twister_lattice(graph: DualGraph) -> TwisterLattice:
    n = graph.gamma
    basis = []
    for j in range(1, n):
        unit = [0] * n
        unit[j] = 1
        basis.append(twister_multidegree(graph, unit))
    return TwisterLattice(tuple(basis), n - 1)


@dataclass(frozen=True)
class ClassLabel:
    """Canonical coset label: residues modulo the nontrivial invariant factors."""

    residues: tuple[int, ...]
    total_degree: int


@dataclass(frozen=True)
class DegreeClassGroup:
    """Presentation of the multidegree class group of a connected curve.

    ``invariant_factors`` lists the factors larger than one; their product is
    ``order``, the number of spanning trees.  The private transform data maps
    any multidegree to a canonical label and back:  coordinates of a
    degree-zero multidegree in the basis (e_i - e_0) are just its entries
    past the first, and the Smith transform of the reduced Laplacian turns
    those into residues.
    """

    gamma: int
    invariant_factors: tuple[int, ...]
    order: int
    _diagonal: tuple[int, ...]
    _left: tuple[tuple[int, ...], ...]
    _left_inv: tuple[tuple[int, ...], ...]
    _right: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=MEMO_SIZE)
def degree_class_group(graph: DualGraph) -> DegreeClassGroup:
    """The class group of ``graph``, from one Smith normal form per curve.

    The result is frozen and holds only tuples, so equal graphs share it
    through a memo of the last ``MEMO_SIZE`` curves: the ``classgroup``,
    ``neron`` and ``semistabilize`` reports of one curve build it once.
    """
    n = graph.gamma
    lap = laplacian(graph)
    reduced = [[lap[i][j] for j in range(1, n)] for i in range(1, n)]
    snf = smith_normal_form(reduced)
    order = 1
    for f in snf.diagonal:
        order *= f
    return DegreeClassGroup(
        gamma=n,
        invariant_factors=tuple(f for f in snf.diagonal if f > 1),
        order=order,
        _diagonal=snf.diagonal,
        _left=snf.left,
        _left_inv=snf.left_inv,
        _right=snf.right,
    )


def class_of(dcg: DegreeClassGroup, d: Multidegree) -> ClassLabel:
    """Deterministic label of the class of ``d``; equal labels plus equal
    totals characterize equivalence."""
    if len(d) != dcg.gamma:
        raise ValueError(f"multidegree has {len(d)} entries, expected {dcg.gamma}")
    coords = list(d.entries[1:])
    image = mat_vec(dcg._left, coords)
    residues = tuple(
        x % f for x, f in zip(image, dcg._diagonal) if f > 1
    )
    return ClassLabel(residues, d.total)


def equivalent(dcg: DegreeClassGroup, d1: Multidegree, d2: Multidegree) -> bool:
    """True when the two multidegrees differ by a twister (same total required)."""
    if d1.total != d2.total:
        return False
    return class_of(dcg, d1) == class_of(dcg, d2)


def representative(dcg: DegreeClassGroup, label: ClassLabel) -> Multidegree:
    """Canonical multidegree carrying the given label.

    The residues (zero on trivial factors) are pulled back through the Smith
    transform, and the remaining total degree is placed on the first vertex.
    """
    nontrivial = [i for i, f in enumerate(dcg._diagonal) if f > 1]
    if len(label.residues) != len(nontrivial):
        raise ValueError("label does not match the invariant factors")
    full = [0] * len(dcg._diagonal)
    for pos, r in zip(nontrivial, label.residues):
        full[pos] = r % dcg._diagonal[pos]
    coords = mat_vec(dcg._left_inv, full)
    return Multidegree([label.total_degree - sum(coords)] + coords)


def class_rows(dcg: DegreeClassGroup, total_degree: int) -> list[tuple[list[int], list[int]]]:
    """Every class of the given total as plain (residues, entries) lists.

    The entries are those of ``representative`` of the label with these
    residues.  Labels run in ``itertools.product`` order over the invariant
    factors, so each label is read off the odometer rather than recomputed
    by ``class_of``.  The representative of residues r has coordinates
    c = left_inv @ r, a sum of r_k times the k-th column of ``left_inv``, and
    first entry total - sum(c), which is linear in r as well.  So each
    factor extends the partial entries of the previous ones by a multiple of
    one column and of its sum: O(gamma) work per class.
    """
    labels: list[list[int]] = [[]]
    rows: list[list[int]] = [[total_degree] + [0] * (dcg.gamma - 1)]
    for pos, f in enumerate(dcg._diagonal):
        if f > 1:
            column = [row[pos] for row in dcg._left_inv]
            column.insert(0, -sum(column))
            multiples = [[r * x for x in column] for r in range(f)]
            rows = [list(map(add, c, m)) for c in rows for m in multiples]
            labels = [label + [r] for label in labels for r in range(f)]
    return list(zip(labels, rows))


def class_listing(
    dcg: DegreeClassGroup, total_degree: int
) -> list[tuple[ClassLabel, Multidegree]]:
    """Every class of the given total as (label, ``representative(label)``),
    in the order of ``class_rows``."""
    return [
        (ClassLabel(tuple(residues), total_degree), Multidegree(entries))
        for residues, entries in class_rows(dcg, total_degree)
    ]


def class_representatives(dcg: DegreeClassGroup, total_degree: int) -> list[Multidegree]:
    """Exactly ``order`` pairwise-inequivalent multidegrees of the given total."""
    return [rep for _, rep in class_listing(dcg, total_degree)]


def semistabilize(graph: DualGraph, d: Multidegree) -> tuple[Multidegree, tuple[int, ...]]:
    """Move a total-degree g-1 multidegree into the semistable set by twisting.

    Returns (d', firing) with d' = d + twister_multidegree(firing) semistable
    and firing normalized to have minimum entry zero; a semistable d comes
    back unchanged.  Otherwise d first jumps by n, the rounded solution of
    L x = d - m, where m_v = p_a(v) - 1 + codeg(v)/2 puts every subcurve Z at
    the midpoint p_a(Z) - 1 + delta_Z/2 of its semistable range.  Then, while
    ``stability_status`` finds a violated subcurve Z, connected with
    d_Z < p_a(Z) - 1, the complement of Z fires.  No subcurve is listed.

    Each such firing lowers Q(f) = f.L.f/2 - (d - m).f by p_a(Z) - 1 - d_Z >= 1,
    and Q(n) - min Q = (n - x).L.(n - x)/2 <= delta/2 because |n - x| <= 1/2
    entrywise, so at most floor(delta/2) firings follow the jump.
    """
    if len(d) != graph.gamma:
        raise ValueError(f"multidegree has {len(d)} entries, graph has {graph.gamma}")
    expected = graph.genus - 1
    if d.total != expected:
        raise TotalDegreeError(
            f"semistabilization needs total degree {expected}, got {d.total}"
        )
    n = graph.gamma
    if stability_status(graph, d)[0] is not StabilityStatus.UNSTABLE:
        return d, (0,) * n
    lap = laplacian(graph)
    firing = _balanced_firing(graph, degree_class_group(graph), d)
    current = d - Multidegree(mat_vec(lap, firing))
    for _ in range(graph.delta // 2 + 1):
        status, violated = stability_status(graph, current)
        if status is not StabilityStatus.UNSTABLE:
            shift = min(firing)
            return current, tuple(x - shift for x in firing)
        inside = set(violated.vertices)
        step = [0 if i in inside else 1 for i in range(n)]
        current = current - Multidegree(mat_vec(lap, step))
        firing = list(map(add, firing, step))
    raise AssertionError("more than floor(delta/2) firings after the balanced jump")


def _balanced_firing(graph: DualGraph, dcg: DegreeClassGroup, d: Multidegree) -> list[int]:
    """Solution of L x = d - m with x_0 = 0, rounded to nearest, ties toward zero.

    With w = 2m, the canonical degree, reduced(L) x' = (2d - w)'/2 is solved
    through the Smith data in integers over the common denominator 2 f_max.
    """
    canonical = [
        2 * (v.genus + loops) - 2 + codeg
        for v, loops, codeg in zip(graph.vertices, graph.loops, graph.nonloop_degree)
    ]
    target = [2 * a - w for a, w in zip(d.entries[1:], canonical[1:])]
    image = mat_vec(dcg._left, target)
    f_max = max(dcg._diagonal, default=1)
    numerators = mat_vec(dcg._right, [y * (f_max // f) for y, f in zip(image, dcg._diagonal)])
    halves = [(abs(x) + f_max - 1) // (2 * f_max) for x in numerators]
    return [0] + [h if x >= 0 else -h for h, x in zip(halves, numerators)]
