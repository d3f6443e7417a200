"""Exact linear algebra over the coefficient rings.

One elimination, ``_echelon``, serves every ring, and the helpers of
``rings`` decide how its integer rows become ring elements; nothing here
branches on the ring. See ``Subspace`` for the canonical forms.
"""

from __future__ import annotations

from math import gcd

from .rings import CoeffRing, _basis_row, _from_numerators, _numerators, _reduce, _unit_row


def _echelon(rows, ring: CoeffRing):
    """Gauss-Jordan elimination on integer rows: (rows, pivot columns).

    The rows are taken as integer numerators (`rings._numerators`). A row
    is replaced by its canonical unit multiple (`rings._unit_row`: reduced
    mod p over GF(p), primitive over QQ and ZZ) when it is picked as a
    pivot row and after every update. The update is fraction-free and the
    same for every ring: a row r with entry c in the pivot column of the
    pivot row `row` (pivot pv) becomes (pv * r - c * row) / gcd(pv, c); its
    subtraction runs over the nonzero columns of the pivot row only. RREF
    row t is rows[t] divided by rows[t][pivots[t]]. Over ZZ this is the
    rational elimination of the integer rows.
    """
    work = [r for r in (_numerators(ring, x)[0] for x in rows) if any(r)]
    m = len(work)
    pivots = []
    for j in range(len(work[0]) if work else 0):
        i = len(pivots)
        for t in range(i, m):
            if work[t][j]:
                # an input row becomes canonical when it is first a pivot
                # candidate; an unreduced entry over GF(p) can vanish then
                row = work[t] = _unit_row(ring, work[t])
                if row[j]:
                    break
        else:
            continue
        work[t] = work[i]
        work[i] = row
        pv = row[j]
        nz = [(k, b) for k, b in enumerate(row) if b]
        for t in range(m):
            r = work[t]
            c = r[j]
            if not c or t == i:
                continue
            g = gcd(pv, c)
            f, c = pv // g, c // g
            if f != 1:
                r = [f * a for a in r]
            for k, b in nz:
                r[k] -= c * b
            work[t] = _unit_row(ring, r)
        pivots.append(j)
        if i + 1 == m:
            break
    return work[:len(pivots)], pivots


def _field_echelon(rows, ring: CoeffRing):
    """`_echelon` for the functions whose results need division."""
    if not ring.is_field:
        raise ValueError("rref requires a field")
    return _echelon(rows, ring)


def rref(rows, ring: CoeffRing):
    """Reduced row echelon form over a field; returns canonical row tuples."""
    work, pivots = _field_echelon(rows, ring)
    return [_basis_row(ring, r, j) for r, j in zip(work, pivots)]


def nullspace(rows, ring: CoeffRing):
    """Basis of {x : rows @ x = 0} over a field, from the RREF free columns."""
    if not rows:
        return []
    n = len(rows[0])
    work, pivots = _field_echelon(rows, ring)
    free = sorted(set(range(n)).difference(pivots))
    # echelon row r with pivot j sets x[j] = -sum over free f of r[f] / r[j] * x[f]
    coeffs = [_from_numerators(ring, [r[f] for f in free], -r[j]) for r, j in zip(work, pivots)]
    basis = []
    for s, f in enumerate(free):
        v = [ring.zero] * n
        v[f] = ring.one
        for c, j in zip(coeffs, pivots):
            v[j] = c[s]
        basis.append(tuple(v))
    return basis


def solve_linear(rows, rhs, ring: CoeffRing):
    """One solution x of rows @ x = rhs over a field, or None."""
    if not rows:
        return None
    n = len(rows[0])
    work, pivots = _field_echelon([list(r) + [b] for r, b in zip(rows, rhs)], ring)
    if pivots and pivots[-1] == n:
        return None  # row 0 = 1: inconsistent
    x = [ring.zero] * n
    for r, j in zip(work, pivots):
        x[j] = _from_numerators(ring, (r[n],), r[j])[0]
    # pivot-only assignment solves the system when consistent; verify
    # against rhs as ring elements (it need not be reduced mod p)
    for r, b in zip(rows, _reduce(ring, rhs)):
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
    equal iff their bases coincide. A ZZ subspace spanned by a lattice L
    stands for its saturation QL ∩ Z^r, which depends only on QL; its basis
    need not be a Z-basis of it.
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
        work, pivots = _echelon(vecs, ring)
        return cls(ring, ambient, [_basis_row(ring, r, j) for r, j in zip(work, pivots)])

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
        ring = self.ring
        w = _reduce(ring, _numerators(ring, v)[0])
        for row in self.basis:
            b = _numerators(ring, row)[0]
            j = next(j for j, a in enumerate(b) if a)
            c = w[j]
            if c:
                # w <- (b[j] * w - c * b) / gcd(b[j], c)
                g = gcd(b[j], c)
                f, c = b[j] // g, c // g
                w = _reduce(ring, [f * a - c * x for a, x in zip(w, b)])
        return not any(w)

    def plus(self, other: "Subspace") -> "Subspace":
        if self.ring != other.ring or self.ambient != other.ambient:
            raise ValueError("subspace sum requires matching ring and ambient rank")
        return Subspace.span(self.ring, self.ambient, list(self.basis) + list(other.basis))
