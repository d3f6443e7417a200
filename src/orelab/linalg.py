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
``algebra.inner_derivation``. So are the products of the Ore power walk
(``orepoly._power_dims``) and the radical's kernel vectors (``_kernel``).

A tall system over QQ or ZZ (at least twice as many distinct rows as
columns, such as the Leibniz system of ``algebra.derivation_space``) is
solved on a few of its rows: ``_echelon`` keeps one row of each set that
repeat up to sign and scale, picks the earliest rows that are independent
mod the prime 2**61 - 1, and reads their RREF over QQ off their RREF mod
that prime by rational reconstruction. The result is kept only if every
kernel vector it gives annihilates each distinct row exactly. If the
reconstruction fails or misses the picked rows, they are eliminated
exactly and checked the same way; if a row lies outside their span, all
the distinct rows are eliminated. RREF is unique for a span, so the
result is the same either way.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul

from .rings import CoeffRing, _from_numerators, _numerators, _reduce, _unit_row

# the prime of the row selection in `_echelon`: large, so that it seldom
# divides the minors of a system and drops its rank (which costs one more
# elimination), and so that `_lift` reconstructs fractions with numerator
# and denominator up to _LIFT_BOUND (about 2**30) from one residue
_SELECTION_PRIME = 2**61 - 1
_LIFT_BOUND = isqrt(_SELECTION_PRIME // 2)
# `_independent_rows` weighs the free columns by its powers mod the prime
_WEIGHT_BASE = 0x9E3779B97F4A7C15


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
    a subspace of the rows' span. `_lift` reads their RREF over QQ off
    their RREF mod the prime, which `_independent_rows` also returns. The
    lift is their RREF if the kernel vectors read off its free columns
    annihilate them exactly (`_annihilates`): the lift has the shape of an
    RREF and is orthogonal to those n - r independent vectors, which span
    the kernel of r independent rows. If it fails that check, or an entry
    has no fraction within the bound, `_eliminate` reduces the picked rows
    instead. That RREF is returned if its kernel vectors annihilate the
    other distinct rows exactly too (a dropped row is a multiple of one of
    them): then every row lies in the span of the picked ones, and both
    spans have the same RREF. If the prime dropped the rank, some row
    fails that check, and `_eliminate` reduces all the distinct rows. With
    fewer than 2n rows, as in a sparse system with many repeats, picking
    and checking would cost more than they save.
    """
    work = [r for r in rows if any(r)]
    if ring.p or not work or len(work) < 2 * len(work[0]):
        return _eliminate(work, ring)
    work = _distinct(work, ring)
    n = len(work[0])
    if len(work) < 2 * n:
        return _eliminate(work, ring)
    picked, pivots, free_cols = _independent_rows(work)
    chosen = set(picked)
    top = [work[t] for t in picked]
    rest = [r for t, r in enumerate(work) if t not in chosen]
    echelon = _lift(pivots, free_cols, n)
    if echelon is None or not _annihilates(*echelon, n, top):
        # copies: `_eliminate` may update a row in place; its result is
        # exact, so only the other rows are checked
        echelon = _eliminate([list(r) for r in top], ring)
    return echelon if _annihilates(*echelon, n, rest) else _eliminate(work, ring)


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
    multiple with a positive leading entry (`rings._unit_row`). Exact
    repeats are dropped first, by hashing, before any gcd."""
    rows = dict.fromkeys(map(tuple, work))
    # the first nonzero value of a row first occurs at its leading column
    return [list(r) for r in dict.fromkeys(
        tuple(_unit_row(ring, r, r.index(next(filter(None, r))))) for r in rows)]


def _independent_rows(work):
    """The earliest rows of the integer rows `work` that are independent
    mod `_SELECTION_PRIME`, and their RREF mod that prime: (indices,
    pivots, [(f, column f of the RREF) for each free column f]). Row t is
    picked iff it is independent of rows 0..t-1 mod the prime, so these
    are the pivot columns of the transpose's echelon form mod the prime.

    The picked rows are held in reduced echelon form mod the prime, stored
    by the columns that are not yet pivots: cols[k][i] is entry k of
    reduced row i, whose pivot is pivots[i]; the row is 1 there and 0 at
    the other pivots and at the free columns left of its pivot. A row's
    residual in free column k is r[k] - sum over i of r[pivots[i]] *
    cols[k][i], and the row is independent iff some residual is nonzero;
    its first nonzero residual is the new pivot. A dependent row costs
    one dot product: its residuals weighted by the powers of
    `_WEIGHT_BASE` sum to zero, and that sum is the weighted sum of
    r[free] minus the sum over i of r[pivots[i]] * comb[i], for comb[i]
    the same weighted sum of the free entries of reduced row i. An
    independent row whose weighted sum vanishes too (the base is then a
    root of a nonzero polynomial of degree below n, as about n in P bases
    are) is passed over as if the prime dropped the rank, which the exact
    checks of `_echelon` catch.
    """
    P = _SELECTION_PRIME
    n = len(work[0])
    free = list(range(n))
    cols = [[] for _ in range(n)]
    weights = [1]
    for _ in range(1, n):
        weights.append(weights[-1] * _WEIGHT_BASE % P)
    wfree, comb = weights[:], []
    pivots = []
    picked = []
    for t, r in enumerate(work):
        get = r.__getitem__
        if not (sum(map(mul, wfree, map(get, free))) - sum(map(mul, map(get, pivots), comb))) % P:
            continue
        rp = list(map(get, pivots))
        for at, k in enumerate(free):
            c = (r[k] - sum(map(mul, rp, cols[k]))) % P
            if c:
                break
        # the residual over c is a new reduced row with pivot k; clear
        # column k from the rows held so far
        inv = pow(c, -1, P)
        ck = cols[k]
        del free[at], wfree[at]
        wsum = 0
        for k2 in free:
            col = cols[k2]
            e = (r[k2] - sum(map(mul, rp, col))) % P * inv % P
            if e:
                cols[k2] = col = [(a - b * e) % P for a, b in zip(col, ck)]
                wsum += weights[k2] * e
            col.append(e)
        pivots.append(k)
        picked.append(t)
        if not free:
            break
        # column k leaves the combination, and each column k2 gained
        # -e * ck in the update
        wsum %= P
        scale = weights[k] + wsum
        comb = [(a - b * scale) % P for a, b in zip(comb, ck)]
        comb.append(wsum)
    return picked, pivots, [(f, cols[f]) for f in free]


def _lift(pivots, free_cols, n: int):
    """The RREF over QQ whose residues mod `_SELECTION_PRIME` are the
    reduced rows of `_independent_rows` (pivots, free columns), in the
    stored form of `_eliminate`: (rows, pivot columns), or None when some
    entry has no fraction a/b with |a|, b <= _LIFT_BOUND.

    Each entry is recovered by rational reconstruction (Wang, Guy and
    Davenport 1982): the extended Euclidean algorithm on (P, e), stopped
    at the first remainder within the bound. Within the bound the fraction
    is unique, since 2 * _LIFT_BOUND**2 < P. A row over the lcm L of its
    denominators is primitive with the positive pivot L: the highest power
    of a prime q that divides L divides some denominator b, and then the
    scaled numerator a * L / b is prime to q.
    """
    P, B = _SELECTION_PRIME, _LIFT_BOUND
    fracs = [[] for _ in pivots]
    for f, col in free_cols:
        for i, e in enumerate(col):
            if e:
                r0, r1, t0, t1 = P, e, 0, 1
                while r1 > B:
                    q = r0 // r1
                    r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
                if t1 < 0:
                    r1, t1 = -r1, -t1
                if t1 > B or gcd(r1, t1) != 1:
                    return None
                fracs[i].append((f, r1, t1))
    rows = []
    for j, row_fracs in sorted(zip(pivots, fracs)):
        L = lcm(*[b for _, _, b in row_fracs])
        row = [0] * n
        row[j] = L
        for f, a, b in row_fracs:
            row[f] = a * (L // b)
        rows.append(row)
    return rows, sorted(pivots)


def _kernel(echelon, pivots, n: int):
    """The integer kernel vectors of the echelon rows `echelon` (stored as
    by `_eliminate`, pivot columns `pivots`) with n columns, one per free
    column f in ascending order: D > 0 at f, -r[f] * D / r[j] at the pivot
    j of each echelon row r, and 0 elsewhere, for D the lcm of the
    (positive) pivots r[j] with r[f] != 0."""
    vecs = []
    for f in sorted(set(range(n)).difference(pivots)):
        terms = [(j, r[f], r[j]) for r, j in zip(echelon, pivots) if r[f]]
        D = lcm(*[pv for _, _, pv in terms])
        v = [0] * n
        v[f] = D
        for j, c, pv in terms:
            v[j] = -c * (D // pv)
        vecs.append(v)
    return vecs


def _annihilates(echelon, pivots, n: int, rows) -> bool:
    """Whether every `_kernel` vector of `echelon` (pivot columns `pivots`,
    n columns) annihilates each integer row of `rows` exactly.

    All vectors v_0, v_1, ... are checked by one dot product per row, with
    w = sum over s of v_s * 2**(K*s): row . w is the sum of the terms
    row . v_s * 2**(K*s), each |row . v_s| < 2**K for the K chosen, so it
    is zero iff every row . v_s is (the lowest nonzero term would leave a
    nonzero remainder mod 2**(K*(s+1))).
    """
    vecs = _kernel(echelon, pivots, n)
    if not vecs or not rows:
        return True
    K = (n.bit_length() + max(map(abs, chain.from_iterable(rows))).bit_length()
         + max(map(abs, chain.from_iterable(vecs))).bit_length())
    w = [sum(a << (K * s) for s, a in enumerate(col)) for col in zip(*vecs)]
    return not any(sum(map(mul, r, w)) for r in rows)


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
    """`nullspace` of integer rows (at least one), which it may overwrite:
    the `_kernel` vectors, each scaled to 1 at its free column."""
    n = len(rows[0])
    work, pivots = _field_echelon(rows, ring)
    free = sorted(set(range(n)).difference(pivots))
    return [_from_numerators(ring, v, v[f]) for f, v in zip(free, _kernel(work, pivots, n))]


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
