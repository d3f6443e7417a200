"""Exact linear algebra over the coefficient rings.

One elimination, ``_echelon``, serves every ring. Subspaces are stored
canonically: reduced row echelon form over a field; over the integers, the
rational RREF rows scaled to primitive integer rows with positive pivots.
A ZZ subspace spanned by a lattice L stands for its saturation, QL
intersected with Z^r, which depends only on the rational span QL; so
membership of an integer vector is rational-span membership and the
representation is division-free and canonical.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .rings import QQ, CoeffRing, _from_numerators, _numerators


def _echelon(rows, ring: CoeffRing):
    """Gauss-Jordan elimination on integer rows: (rows, pivot columns).

    Over GF(p) the rows are reduced mod p and each pivot is scaled to 1.
    Over QQ each row is scaled to integers and elimination is fraction-free,
    with rows kept primitive (gcd removed); RREF row t is rows[t] divided by
    rows[t][pivots[t]]. The subtraction in a row update runs over the
    nonzero columns of the pivot row only.
    """
    if not ring.is_field:
        raise ValueError("rref requires a field")
    p = ring.p
    if p:
        work = [[a % p for a in r] for r in rows]
    else:
        work = [_numerators(r)[0] for r in rows]
    work = [r for r in work if any(r)]
    m = len(work)
    pivots = []
    for j in range(len(work[0]) if work else 0):
        i = len(pivots)
        t = next((t for t in range(i, m) if work[t][j]), None)
        if t is None:
            continue
        row = work[t]
        work[t] = work[i]
        if p:
            f = pow(row[j], -1, p)
            row = [a * f % p for a in row]
        else:
            g = gcd(*row)
            if g > 1:
                row = [a // g for a in row]
        work[i] = row
        pv = row[j]
        nz = [(k, b) for k, b in enumerate(row) if b]
        for t in range(m):
            r = work[t]
            c = r[j]
            if not c or t == i:
                continue
            if p:
                for k, b in nz:
                    r[k] = (r[k] - c * b) % p
                continue
            # r <- (pv * r - c * row) / gcd(pv, c), then made primitive
            g = gcd(pv, c)
            f, c = pv // g, c // g
            if f != 1:
                r = [f * a for a in r]
            for k, b in nz:
                r[k] -= c * b
            g = gcd(*r)
            work[t] = [a // g for a in r] if g > 1 else r
        pivots.append(j)
        if i + 1 == m:
            break
    return work[:len(pivots)], pivots


def rref(rows, ring: CoeffRing):
    """Reduced row echelon form over a field; returns canonical row tuples."""
    work, pivots = _echelon(rows, ring)
    return [_from_numerators(ring, r, r[j]) for r, j in zip(work, pivots)]


def nullspace(rows, ring: CoeffRing):
    """Basis of {x : rows @ x = 0} over a field, from the RREF free columns."""
    if not rows:
        return []
    n = len(rows[0])
    work, pivots = _echelon(rows, ring)
    p = ring.p
    basis = []
    for f in sorted(set(range(n)).difference(pivots)):
        v = [ring.zero] * n
        v[f] = ring.one
        for r, j in zip(work, pivots):
            if r[f]:
                v[j] = -r[f] % p if p else Fraction(-r[f], r[j])
        basis.append(tuple(v))
    return basis


def solve_linear(rows, rhs, ring: CoeffRing):
    """One solution x of rows @ x = rhs over a field, or None."""
    if not rows:
        return None
    n = len(rows[0])
    work, pivots = _echelon([list(r) + [b] for r, b in zip(rows, rhs)], ring)
    if pivots and pivots[-1] == n:
        return None  # row 0 = 1: inconsistent
    x = [ring.zero] * n
    for r, j in zip(work, pivots):
        x[j] = r[n] if ring.p else Fraction(r[n], r[j])
    # pivot-only assignment solves the system when consistent; verify
    for r, b in zip(rows, rhs):
        acc = ring.zero
        for c, xv in zip(r, x):
            acc = ring.add(acc, ring.mul(c, xv))
        if acc != b:
            return None
    return tuple(x)


class Subspace:
    """Canonical subspace of a rank-r coordinate module over a coefficient ring.

    Over a field the basis is RREF; over ZZ it is the rational RREF with
    each row scaled to primitive integers and a positive pivot. RREF is
    unique for a rational span, so both are canonical: two subspaces are
    equal iff their bases coincide. A ZZ basis spans the saturation over
    QQ but need not be a Z-basis of it.
    """

    __slots__ = ("ring", "ambient", "basis")

    def __init__(self, ring: CoeffRing, ambient: int, basis):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(tuple(row) for row in basis))

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, ring: CoeffRing, ambient: int, vectors) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise ValueError(f"vector length {len(v)} != ambient rank {ambient}")
        if ring.is_field:
            basis = rref(vecs, ring)
        else:
            work, pivots = _echelon(vecs, QQ)
            basis = [[-a for a in r] if r[j] < 0 else r for r, j in zip(work, pivots)]
        return cls(ring, ambient, basis)

    @classmethod
    def zero(cls, ring: CoeffRing, ambient: int) -> "Subspace":
        return cls(ring, ambient, [])

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ring == other.ring
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ring, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, ring={self.ring})"

    def contains(self, vector) -> bool:
        """Membership. Over ZZ this is membership in the saturation, i.e.
        rational-span membership of an integer vector."""
        v = list(vector)
        if len(v) != self.ambient:
            raise ValueError("vector length mismatch")
        p = self.ring.p
        w = [a % p for a in v] if p else _numerators(v)[0]
        for row in self.basis:
            b = row if p else _numerators(row)[0]
            j = next(j for j, a in enumerate(b) if a)
            c = w[j]
            if c:
                # w <- (b[j] * w - c * b) / gcd(b[j], c)
                g = gcd(b[j], c)
                f, c = b[j] // g, c // g
                w = [f * a - c * x for a, x in zip(w, b)]
                if p:
                    w = [a % p for a in w]
        return not any(w)

    def plus(self, other: "Subspace") -> "Subspace":
        if self.ring != other.ring or self.ambient != other.ambient:
            raise ValueError("subspace sum requires matching ring and ambient rank")
        return Subspace.span(self.ring, self.ambient, list(self.basis) + list(other.basis))
