"""Builders for the bundled example algebras."""

from __future__ import annotations

import operator
from itertools import combinations, permutations

from .algebra import Algebra, Derivation, MultilinearIdentity, verify_leibniz
from .rings import GF, QQ, CoeffRing


def _matrix_units(n: int, keep, ring: CoeffRing) -> Algebra:
    """The n x n matrix units e_ab with keep(a, b), in row-major order, with
    e_ab * e_bc = e_ac and all other products zero; the kept pairs are
    closed under that product."""
    if n < 1:
        raise ValueError("matrix size is positive")
    sep = "" if n < 10 else "_"
    units = [(a, b) for a in range(n) for b in range(n) if keep(a, b)]
    index = {u: i for i, u in enumerate(units)}
    table = {
        (index[a, b], index[b, c]): {index[a, c]: ring.one}
        for a, b in units for c in range(n) if (b, c) in index
    }
    names = tuple(f"e{a + 1}{sep}{b + 1}" for a, b in units)
    return Algebra(ring, len(units), names, table)


def strictly_upper(n: int, ring: CoeffRing = QQ) -> Algebra:
    """Strictly upper-triangular n x n matrices: the matrix units e_ab with
    a < b in row-major order, e_ab * e_bc = e_ac and all other products
    zero."""
    return _matrix_units(n, operator.lt, ring)


def strictly_upper_3x3(ring: CoeffRing = QQ) -> Algebra:
    """Strictly upper-triangular 3x3 matrices: basis e12, e13, e23 with
    e12*e23 = e13 and all other products zero."""
    return strictly_upper(3, ring)


def full_matrix(n: int, ring: CoeffRing = QQ) -> Algebra:
    """All n x n matrices: the matrix units e_ab in row-major order, with
    e_ab * e_bc = e_ac and all other products zero."""
    return _matrix_units(n, lambda a, b: True, ring)


def block_upper(sizes, ring: CoeffRing = QQ) -> Algebra:
    """Block upper-triangular matrices with diagonal blocks of the given
    sizes: the matrix units e_ab whose row a lies in a block no later than
    the block of column b, in row-major order. (n,) gives all n x n
    matrices, (1,) * n the upper-triangular ones."""
    sizes = [operator.index(s) for s in sizes]
    if not sizes or min(sizes) < 1:
        raise ValueError("block sizes are positive and there is at least one block")
    block = [s for s, size in enumerate(sizes) for _ in range(size)]
    return _matrix_units(len(block), lambda a, b: block[a] <= block[b], ring)


def upper_2x2(ring: CoeffRing = QQ) -> Algebra:
    """Upper-triangular 2x2 matrices: basis e11, e12, e22 (unital)."""
    return _matrix_units(2, operator.le, ring)


def square_zero(rank: int = 1, ring: CoeffRing = QQ) -> Algebra:
    """All products zero."""
    names = tuple(f"z{i}" for i in range(rank))
    return Algebra(ring, rank, names, {})


def truncated_polynomial(ring: CoeffRing, power: int) -> Algebra:
    """ring[t]/(t^power), basis 1, t, ..., t^(power-1) (unital)."""
    if power < 2:
        raise ValueError("power is at least 2")
    one = ring.one
    table = {}
    for i in range(power):
        for j in range(power):
            if i + j < power:
                table[(i, j)] = {i + j: one}
    names = ("1",) + tuple(f"t^{i}" if i > 1 else "t" for i in range(1, power))
    return Algebra(ring, power, names, table, unit=0)


def split_pair(ring: CoeffRing = QQ) -> Algebra:
    """ring x ring with the two diagonal idempotents (unital, semisimple)."""
    one = ring.one
    table = {(0, 0): {0: one}, (1, 1): {1: one}}
    A = Algebra(ring, 2, ("p", "q"), table)
    return A


def charp_truncated(p: int) -> tuple[Algebra, Derivation]:
    """GF(p)[T]/(T^p) with the derivation sending t to 1.

    d/dt respects the truncation exactly because p * t^(p-1) vanishes
    mod p; over characteristic zero no such derivation exists.
    """
    A = truncated_polynomial(GF(p), p)
    D = formal_derivative(A, p)
    return A, D


def formal_derivative(A: Algebra, power: int) -> Derivation:
    """d/dt on truncated_polynomial(ring, power); Leibniz-checked, so the
    ring characteristic must divide the truncation power."""
    ring = A.ring
    rows = [[ring.zero] * power for _ in range(power)]
    for j in range(1, power):
        rows[j - 1][j] = ring.from_int(j)
    return verify_leibniz(A, tuple(tuple(r) for r in rows))


def scaling_derivation(A: Algebra, power: int, factor=None) -> Derivation:
    """t^j -> j * factor * t^j on truncated_polynomial(ring, power);
    Leibniz-valid in every characteristic."""
    ring = A.ring
    c = ring.one if factor is None else factor
    rows = [[ring.zero] * power for _ in range(power)]
    for j in range(1, power):
        rows[j][j] = ring.mul(ring.from_int(j), c)
    return verify_leibniz(A, tuple(tuple(r) for r in rows))


def commutators_identity() -> MultilinearIdentity:
    """X1 X2 = X2 X1."""
    return MultilinearIdentity(2, {(2, 1): 1})


def vanishing_identity(degree: int) -> MultilinearIdentity:
    """X1 ... Xd = 0 (empty right-hand side)."""
    return MultilinearIdentity(degree, {})


def standard_identity(degree: int) -> MultilinearIdentity:
    """The standard polynomial s_d = sum of sgn(sigma) X_sigma(1)...X_sigma(d)
    = 0, written X1...Xd = -sum over sigma != id of sgn(sigma) X_sigma.
    By Amitsur-Levitzki, the n x n matrices satisfy s_2n but not s_(2n-1)."""
    coeffs = {}
    for perm in permutations(range(1, degree + 1)):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        coeffs[perm] = 1 if inversions % 2 else -1
    del coeffs[tuple(range(1, degree + 1))]
    return MultilinearIdentity(degree, coeffs)
