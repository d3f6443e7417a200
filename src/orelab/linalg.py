"""Exact linear algebra over the coefficient rings.

Subspaces are stored canonically: reduced row echelon form over a field;
over the integers, a Hermite-normal-form basis of the *saturated* lattice
(the saturation of L is QL intersected with Z^r, so membership of an
integer vector reduces to rational-span membership and the representation
is division-free and canonical).
"""

from __future__ import annotations

from fractions import Fraction

from .rings import CoeffRing


def rref(rows, ring: CoeffRing):
    """Reduced row echelon form over a field; returns canonical row tuples."""
    if not ring.is_field:
        raise ValueError("rref requires a field")
    work = [list(r) for r in rows if any(not ring.is_zero(a) for a in r)]
    if not work:
        return []
    m, n = len(work), len(work[0])
    i = 0
    for j in range(n):
        piv = next((t for t in range(i, m) if not ring.is_zero(work[t][j])), None)
        if piv is None:
            continue
        work[i], work[piv] = work[piv], work[i]
        inv = ring.inv(work[i][j])
        work[i] = [ring.mul(inv, a) for a in work[i]]
        for t in range(m):
            if t != i and not ring.is_zero(work[t][j]):
                f = work[t][j]
                work[t] = [ring.sub(a, ring.mul(f, b)) for a, b in zip(work[t], work[i])]
        i += 1
        if i == m:
            break
    return [tuple(r) for r in work[:i]]


def nullspace(rows, ring: CoeffRing):
    """Basis of {x : rows @ x = 0} over a field, from the RREF free columns."""
    if not rows:
        return []
    n = len(rows[0])
    red = rref(rows, ring)
    pivots = []
    for r in red:
        pivots.append(next(j for j in range(n) if not ring.is_zero(r[j])))
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        v = [ring.zero] * n
        v[f] = ring.one
        for r, p in zip(red, pivots):
            v[p] = ring.neg(r[f])
        basis.append(tuple(v))
    return basis


def solve_linear(rows, rhs, ring: CoeffRing):
    """One solution x of rows @ x = rhs over a field, or None."""
    if not rows:
        return None
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red = rref(aug, ring)
    x = [ring.zero] * n
    for row in red:
        p = next(j for j in range(n + 1) if not ring.is_zero(row[j]))
        if p == n:
            return None  # row 0 = 1: inconsistent
        x[p] = row[n]
    # pivot-only assignment solves the system when consistent; verify
    for r, b in zip(rows, rhs):
        acc = ring.zero
        for c, xv in zip(r, x):
            acc = ring.add(acc, ring.mul(c, xv))
        if acc != b:
            return None
    return tuple(x)


def hermite_form(rows):
    """Row-style Hermite normal form of an integer row lattice (canonical)."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    m, n = len(work), len(work[0])
    i = 0
    for j in range(n):
        while True:
            nz = [t for t in range(i, m) if work[t][j] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda t: abs(work[t][j]))
            t0 = nz[0]
            for t in nz[1:]:
                q = work[t][j] // work[t0][j]
                if q:
                    work[t] = [a - q * b for a, b in zip(work[t], work[t0])]
        nz = [t for t in range(i, m) if work[t][j] != 0]
        if not nz:
            continue
        work[i], work[nz[0]] = work[nz[0]], work[i]
        if work[i][j] < 0:
            work[i] = [-a for a in work[i]]
        for t in range(i):
            q = work[t][j] // work[i][j]
            if q:
                work[t] = [a - q * b for a, b in zip(work[t], work[i])]
        i += 1
        if i == m:
            break
    return [tuple(r) for r in work[:i] if any(r)]


def integer_kernel(rows, n: int):
    """Saturated basis of {x in Z^n : rows @ x = 0}.

    Column-reduces the stack [rows; I_n] with unimodular column operations;
    the identity block below columns whose top part vanished is the kernel.
    """
    k = len(rows)
    cols = [
        [rows[i][j] for i in range(k)] + [1 if t == j else 0 for t in range(n)]
        for j in range(n)
    ]
    lead = 0
    for pr in range(k):
        while True:
            nz = [c for c in range(lead, n) if cols[c][pr] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(cols[c][pr]))
            c0 = nz[0]
            for c in nz[1:]:
                q = cols[c][pr] // cols[c0][pr]
                if q:
                    cols[c] = [a - q * b for a, b in zip(cols[c], cols[c0])]
        nz = [c for c in range(lead, n) if cols[c][pr] != 0]
        if nz:
            cols[lead], cols[nz[0]] = cols[nz[0]], cols[lead]
            lead += 1
        if lead == n:
            break
    kernel = []
    for c in range(lead, n):
        if all(cols[c][i] == 0 for i in range(k)):
            kernel.append(tuple(cols[c][k:]))
    return kernel


def saturate(rows, n: int):
    """Canonical HNF basis of (Q-span of rows) intersected with Z^n."""
    work = [r for r in rows if any(r)]
    if not work:
        return []
    complement = integer_kernel(work, n)
    if not complement:
        # rows span the full space
        return hermite_form([[1 if i == j else 0 for j in range(n)] for i in range(n)])
    return hermite_form(integer_kernel(complement, n))


class Subspace:
    """Canonical subspace of a rank-r coordinate module over a coefficient ring.

    Over a field the basis is RREF; over ZZ it is the HNF basis of the
    saturated lattice. Two subspaces are equal iff their bases coincide.
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
            basis = saturate([[int(a) for a in v] for v in vecs], ambient)
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
        """Membership. Over ZZ this is saturated-lattice membership, i.e.
        rational-span membership of an integer vector."""
        v = list(vector)
        if len(v) != self.ambient:
            raise ValueError("vector length mismatch")
        if self.ring.is_field:
            ring = self.ring
            for row in self.basis:
                p = next(j for j in range(self.ambient) if not ring.is_zero(row[j]))
                if not ring.is_zero(v[p]):
                    f = v[p]
                    v = [ring.sub(a, ring.mul(f, b)) for a, b in zip(v, row)]
            return all(ring.is_zero(a) for a in v)
        w = [Fraction(int(a)) for a in v]
        for row in self.basis:
            p = next(j for j in range(self.ambient) if row[j] != 0)
            if w[p] != 0:
                f = w[p] / row[p]
                w = [a - f * b for a, b in zip(w, row)]
        return all(a == 0 for a in w)

    def plus(self, other: "Subspace") -> "Subspace":
        if self.ring != other.ring or self.ambient != other.ambient:
            raise ValueError("subspace sum requires matching ring and ambient rank")
        return Subspace.span(self.ring, self.ambient, list(self.basis) + list(other.basis))
