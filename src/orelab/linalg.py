"""Exact linear algebra over the coefficient rings.

One elimination, ``_eliminate``, serves every ring, and the helpers of
``rings`` decide how its integer rows become ring elements. See
``Subspace`` for the one stored form of a span.

``_echelon`` takes integer rows. The public functions bring ring-element
rows to integer numerators first (``_numerator_rows``, one
``rings._numerators`` scan per row); callers that build integer rows
themselves hand them over without that scan. The Leibniz system of
``algebra.derivation_space`` (through ``_nullspace``) and the trace-form
gram matrix of ``radical.radical_char0`` are such rows: they come from the
integer structure constants ``Algebra._rows`` without any ``mul``, as do
the Leibniz residual of ``algebra.verify_leibniz`` and the matrix of
``algebra.inner_derivation``.

A tall system over QQ or ZZ (at least twice as many distinct rows as
columns, such as the Leibniz system of ``algebra.derivation_space``) is
eliminated on a few of its rows: ``_echelon`` keeps one row of each set
that repeat up to sign and scale, picks the earliest rows that are
independent mod a fixed prime, eliminates those exactly, and keeps that
result only if every kernel vector it gives annihilates each distinct row
exactly. Otherwise it eliminates all the distinct rows. RREF is unique for
a span, so the result is the same either way.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .rings import CoeffRing, _from_numerators, _numerators, _reduce, _unit_row

# the prime of the row selection in `_echelon`: large, so that it seldom
# divides the minors of a system and drops its rank (which costs one more
# elimination), and below 2**30, so that a residue is a one-digit int
_SELECTION_PRIME = 2**30 - 35


def _numerator_rows(ring: CoeffRing, rows):
    """The integer numerators of ring-element rows (`rings._numerators`),
    as new lists that `_echelon` may overwrite."""
    return [_numerators(ring, x)[0] for x in rows]


def _echelon(rows, ring: CoeffRing):
    """Gauss-Jordan elimination on integer rows: (rows, pivot columns).

    `rows` are lists of ints, each scaling a ring-element row (see
    `_numerator_rows`); the lists may be overwritten. Zero rows are
    dropped, and the rest are reduced by `_eliminate`. Over GF(p), and
    over QQ and ZZ when there are fewer than 2n nonzero rows for n
    columns, that is the whole work.

    Otherwise one row is kept of each set of rows that repeat up to sign
    and scale (compared in primitive form). If at least 2n rows are still
    left, `_independent_rows` picks the earliest ones that are independent
    mod `_SELECTION_PRIME`; they are independent over QQ too, so they span
    a subspace of the rows' span. `_eliminate` reduces the picked rows
    only, and the result is kept only if `_annihilates` finds that each
    kernel vector read off its free columns annihilates every distinct row
    exactly (a dropped row is a multiple of one of them): then every row
    lies in the span of the picked ones, and both spans have the same RREF.
    If the prime dropped the rank, some row fails that check, and
    `_eliminate` reduces all the distinct rows instead. With fewer than 2n
    rows, as in a sparse system with many repeats, picking and checking
    would cost more than they save.
    """
    work = [r for r in rows if any(r)]
    if ring.p or not work or len(work) < 2 * len(work[0]):
        return _eliminate(work, ring)
    work = _distinct(work, ring)
    n = len(work[0])
    if len(work) < 2 * n:
        return _eliminate(work, ring)
    picked = _independent_rows(work)
    # copies: `_eliminate` may update a row in place, and `work` is checked
    echelon, pivots = _eliminate([list(work[t]) for t in picked], ring)
    if _annihilates(echelon, pivots, n, work):
        return echelon, pivots
    return _eliminate(work, ring)


def _eliminate(work, ring: CoeffRing):
    """Fraction-free Gauss-Jordan elimination of the integer rows `work`
    (a list it reorders and overwrites): (rows, pivot columns).

    A row is replaced by its canonical unit multiple (`rings._unit_row`:
    reduced mod p over GF(p), primitive over QQ and ZZ) when it is picked
    as a pivot row and after every update. The update is fraction-free and
    the same for every ring: a row r with entry c in the pivot column of
    the pivot row `row` (pivot pv) becomes (pv * r - c * row) / gcd(pv, c);
    its subtraction runs over the nonzero columns of the pivot row only.
    The rows returned are unique unit multiples (`_unit_row` with the
    pivot): RREF row t is rows[t] / rows[t][pivots[t]]. Over ZZ this is the
    rational elimination of the integer rows.
    """
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
    return [_unit_row(ring, r, j) for r, j in zip(work, pivots)], pivots


def _distinct(work, ring: CoeffRing):
    """One row of each set of the nonzero integer rows `work` that repeat
    up to sign and scale, in the order of first appearance: the primitive
    multiple with a positive leading entry (`rings._unit_row`)."""
    # the first nonzero value of a row first occurs at its leading column
    lead = [r.index(next(filter(None, r))) for r in work]
    return [list(r) for r in dict.fromkeys(
        tuple(_unit_row(ring, r, j)) for r, j in zip(work, lead))]


def _independent_rows(work):
    """Indices of the earliest rows of the integer rows `work` that are
    independent mod `_SELECTION_PRIME`: row t is picked iff it is
    independent of rows 0..t-1 mod that prime, so these are the pivot
    columns of the transpose's echelon form mod the prime.

    The picked rows are held in reduced echelon form mod the prime, stored
    by the columns that are not yet pivots: cols[k][i] is entry k of
    reduced row i, whose pivot is pivots[i]. A row's residual in column k
    is then r[k] - sum over i of r[pivots[i]] * cols[k][i], one dot product
    per free column, and the row is independent iff some residual is
    nonzero. As the rank grows the free columns get fewer, so a tall system
    costs little per row.
    """
    P = _SELECTION_PRIME
    n = len(work[0])
    free = list(range(n))
    cols = [[] for _ in range(n)]
    pivots = []
    picked = []
    for t, r in enumerate(work):
        rp = [r[j] for j in pivots]
        for k in free:
            c = (r[k] - sum(map(mul, rp, cols[k]))) % P
            if c:
                break
        else:
            continue
        # the residual over c is a new reduced row with pivot k; clear
        # column k from the rows held so far
        inv = pow(c, -1, P)
        ck = cols[k]
        free.remove(k)
        for k2 in free:
            col = cols[k2]
            e = (r[k2] - sum(map(mul, rp, col))) % P * inv % P
            if e:
                cols[k2] = col = [(a - b * e) % P for a, b in zip(col, ck)]
            col.append(e)
        pivots.append(k)
        picked.append(t)
        if not free:
            break
    return picked


def _annihilates(echelon, pivots, n: int, rows) -> bool:
    """Whether each kernel vector of the `_eliminate` result (`echelon`,
    `pivots`) with n columns annihilates every integer row of `rows`
    exactly. The vector of free column f is an integer one: D at f,
    -r[f] * D / r[j] at the pivot j of each echelon row r, and 0 elsewhere,
    for D the lcm of the pivots r[j] with r[f] != 0."""
    for f in set(range(n)).difference(pivots):
        terms = [(j, r[f], r[j]) for r, j in zip(echelon, pivots) if r[f]]
        D = lcm(*[pv for _, _, pv in terms])
        v = [0] * n
        v[f] = D
        for j, c, pv in terms:
            v[j] = -c * (D // pv)
        if any(sum(map(mul, r, v)) for r in rows):
            return False
    return True


def _field_echelon(rows, ring: CoeffRing):
    """`_echelon` of integer rows for the functions whose results need
    division."""
    if not ring.is_field:
        raise ValueError("rref requires a field")
    return _echelon(rows, ring)


def rref(rows, ring: CoeffRing):
    """Reduced row echelon form over a field; returns canonical row tuples."""
    work, pivots = _field_echelon(_numerator_rows(ring, rows), ring)
    return [_from_numerators(ring, r, r[j]) for r, j in zip(work, pivots)]


def nullspace(rows, ring: CoeffRing):
    """Basis of {x : rows @ x = 0} over a field, from the RREF free columns."""
    if not rows:
        return []
    return _nullspace(_numerator_rows(ring, rows), ring)


def _nullspace(rows, ring: CoeffRing):
    """`nullspace` of integer rows (at least one), which it may overwrite."""
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
    aug = _numerator_rows(ring, [(*r, b) for r, b in zip(rows, rhs)])
    work, pivots = _field_echelon(aug, ring)
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

    One form is stored: the integer rows of `_echelon`, each the unique
    unit multiple of an RREF row (pivot 1 over GF(p), primitive with a
    positive pivot over QQ and ZZ), and their pivot columns. RREF is unique
    for a rational span, so two subspaces are equal iff their rows
    coincide. ``basis`` is built on access: RREF over a field, the rows over
    ZZ. A ZZ subspace spanned by a lattice L stands for its saturation
    QL ∩ Z^r, which depends only on QL; its basis need not be a Z-basis.
    """

    __slots__ = ("ring", "ambient", "rows", "pivots")

    def __init__(self, ring: CoeffRing, ambient: int, rows, pivots):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rows", tuple(tuple(row) for row in rows))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, ring: CoeffRing, ambient: int, vectors) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise ValueError(f"vector length {len(v)} != ambient rank {ambient}")
        return cls(ring, ambient, *_echelon(_numerator_rows(ring, vecs), ring))

    @classmethod
    def zero(cls, ring: CoeffRing, ambient: int) -> "Subspace":
        return cls(ring, ambient, (), ())

    @property
    def basis(self):
        if not self.ring.is_field:
            return self.rows
        return tuple(_from_numerators(self.ring, r, r[j]) for r, j in zip(self.rows, self.pivots))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ring == other.ring
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, ring={self.ring})"

    def contains(self, vector) -> bool:
        """Membership. Over ZZ this is membership in the saturation, i.e.
        rational-span membership of an integer vector."""
        if len(vector) != self.ambient:
            raise ValueError("vector length mismatch")
        ring = self.ring
        w = _reduce(ring, _numerators(ring, vector)[0])
        for row, j in zip(self.rows, self.pivots):
            c = w[j]
            if c:
                # w <- (row[j] * w - c * row) / gcd(row[j], c)
                g = gcd(row[j], c)
                f, c = row[j] // g, c // g
                w = _reduce(ring, [f * a - c * b for a, b in zip(w, row)])
        return not any(w)

    def plus(self, other: "Subspace") -> "Subspace":
        if self.ring != other.ring or self.ambient != other.ambient:
            raise ValueError("subspace sum requires matching ring and ambient rank")
        return Subspace.span(self.ring, self.ambient, self.rows + other.rows)
