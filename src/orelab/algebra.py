"""Finite-rank non-unital associative algebras over exact coefficient
rings: structure constants, derivations, multilinear identities, spans,
and nilpotency computations.

Elements are plain coordinate tuples over the algebra's coefficient
ring; the Algebra object carries the multiplication.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, lcm

from .errors import (
    AssociativityViolation,
    BadUnit,
    BudgetExceeded,
    LeibnizViolation,
    MalformedInput,
    NotNilpotent,
    RankMismatch,
)
from .linalg import Subspace, _nullspace
from .rings import GF, QQ, ZZ, CoeffRing, _from_numerators, _numerators, _reduce, _to_ring
from .words import BoundSequence

# nonzero prefixes the identity walk may visit; each support tuple keeps a
# sparse product, so this also caps its memory
DEFAULT_IDENTITY_BUDGET = 200_000

# entries of a derivation's identity table of delta-chains (see
# `Derivation._chain`) before it is cleared
_CHAIN_IDS = 256


class Algebra:
    """Associative algebra given by sparse structure constants c_{ij}^k.

    e_i * e_j = sum_k c_{ij}^k e_k. Not necessarily unital; `unit` is the
    index of a two-sided identity when one is declared.
    """

    def __init__(self, ring: CoeffRing, rank: int, basis_names, table,
                 unit: int | None = None):
        if rank < 1:
            raise ValueError("rank is positive")
        names = tuple(basis_names) if basis_names else tuple(f"e{i}" for i in range(rank))
        if len(names) != rank:
            raise ValueError("basis_names length must equal rank")
        self.ring = ring
        self.rank = rank
        self.basis_names = names
        # table: {(i, j): {k: coeff}} in the ring, zero coefficients dropped
        self.table = {}
        for ij, row in table.items():
            row = {k: c for k, c in zip(row, _to_ring(ring, row.values())) if c}
            if row:
                self.table[ij] = row
        self.unit = unit
        # mul works on integers: the table scaled by the lcm of its
        # denominators, as rows i -> ((j, ((k, c), ...)), ...)
        self._den = lcm(*(c.denominator for row in self.table.values() for c in row.values()))
        rows = [[] for _ in range(rank)]
        for (i, j), row in self.table.items():
            rows[i].append((j, tuple(
                (k, c.numerator * (self._den // c.denominator)) for k, c in row.items()
            )))
        self._rows = tuple(tuple(r) for r in rows)
        # the same constants by right factor: column j -> ((i, consts), ...)
        cols = [[] for _ in range(rank)]
        for i, row in enumerate(self._rows):
            for j, consts in row:
                cols[j].append((i, consts))
        self._cols = tuple(tuple(c) for c in cols)
        self._zero = (ring.zero,) * rank
        self._check_associativity()
        if unit is not None:
            self._check_unit()

    # --- element helpers ---

    def zero(self):
        return self._zero

    def basis_element(self, i: int):
        z = self.ring.zero
        return tuple(self.ring.one if t == i else z for t in range(self.rank))

    def element(self, coords):
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise RankMismatch(f"expected {self.rank} coordinates, got {len(coords)}")
        return coords

    def add(self, x, y):
        return _reduce(self.ring, [a + b for a, b in zip(x, y)])

    def sub(self, x, y):
        return _reduce(self.ring, [a - b for a, b in zip(x, y)])

    def scale(self, c, x):
        return _reduce(self.ring, [c * a for a in x])

    def is_zero_elem(self, x) -> bool:
        return not any(x)

    def _sum_num(self, terms):
        """Sum of m * nums / den over (integer m, numerators nums,
        denominator den) triples, as (numerators, denominator) over one
        common denominator, not reduced mod p (as `_mul_num`). A single
        term is scaled as it stands."""
        if len(terms) == 1:
            (m, nums, den), = terms
            return [m * n for n in nums], den
        den = lcm(*[d for _, _, d in terms])
        acc = [0] * self.rank
        for m, nums, d in terms:
            f = m * (den // d)
            for k, n in enumerate(nums):
                if n:
                    acc[k] += f * n
        return acc, den

    def mul(self, x, y):
        """Bilinear product via the structure constants, in every ring:
        `_mul_num` on the integer numerators of x and y, and one division
        back into the ring per coordinate (a Fraction over QQ, mod p)."""
        if len(x) != self.rank or len(y) != self.rank:
            raise RankMismatch("element length does not match algebra rank")
        ring = self.ring
        return _from_numerators(ring, *self._mul_num(*_numerators(ring, x), *_numerators(ring, y)))

    def _mul_num(self, x, xd, y, yd):
        """The product of x / xd and y / yd for integer numerator vectors
        x and y, as (numerators, denominator): one integer loop over the
        structure constants, left for the caller to reduce mod p."""
        rows = self._rows
        acc = [0] * self.rank
        for i, a in enumerate(x):
            row = rows[i]
            if row and a:
                for j, consts in row:
                    b = y[j]
                    if b:
                        f = a * b
                        for k, c in consts:
                            acc[k] += f * c
        return acc, xd * yd * self._den

    def basis_product(self, i: int, j: int):
        row = self.table.get((i, j), {})
        z = self.ring.zero
        return tuple(row.get(k, z) for k in range(self.rank))

    def fmt_element(self, x) -> str:
        ring = self.ring
        parts = [
            f"{ring.fmt(a)}*{self.basis_names[i]}"
            for i, a in enumerate(x)
            if not ring.is_zero(a)
        ]
        return " + ".join(parts) if parts else "0"

    # --- validation ---

    def _check_associativity(self):
        """Raise AssociativityViolation unless (e_i e_j) e_k = e_i (e_j e_k)
        on every basis triple (sufficient by trilinearity).

        The residuals of all triples are summed in one pass over the integer
        rows, keyed ((i * r + j) * r + k) * r + w for coordinate w. Both
        sides carry the factor _den ** 2, so a residual vanishes iff its sum
        is zero in the ring. `mul` runs only for the failing triples, which
        are reported in lexicographic order as (i, j, k, left, right).
        """
        r = self.rank
        rows, cols = self._rows, self._cols
        residual = {}
        # a structure constant e_a e_b = ... + c e_k enters (e_a e_b) e_u
        # through row k and e_s (e_a e_b) through column k
        for a, row in enumerate(rows):
            for b, consts in row:
                for k, c in consts:
                    for u, prod in rows[k]:
                        key = ((a * r + b) * r + u) * r
                        for w, v in prod:
                            residual[key + w] = residual.get(key + w, 0) + c * v
                    for s, prod in cols[k]:
                        key = ((s * r + a) * r + b) * r
                        for w, v in prod:
                            residual[key + w] = residual.get(key + w, 0) - c * v
        values = _reduce(self.ring, residual.values())
        failing = sorted({key // r for key, v in zip(residual, values) if v})
        if failing:
            failures = []
            for ijk in failing:
                i, jk = divmod(ijk, r * r)
                j, k = divmod(jk, r)
                left = self.mul(self.basis_product(i, j), self.basis_element(k))
                right = self.mul(self.basis_element(i), self.basis_product(j, k))
                failures.append((i, j, k, left, right))
            raise AssociativityViolation(failures)

    def _check_unit(self):
        u = self.basis_element(self.unit)
        for i in range(self.rank):
            e = self.basis_element(i)
            if self.mul(u, e) != e or self.mul(e, u) != e:
                raise BadUnit(
                    f"basis index {self.unit} is not a two-sided identity "
                    f"(fails on {self.basis_names[i]})"
                )

    def span(self, vectors) -> Subspace:
        return Subspace.span(self.ring, self.rank, vectors)

    def __repr__(self):
        return f"Algebra(rank={self.rank}, ring={self.ring})"


@dataclass(frozen=True)
class Derivation:
    """Leibniz-verified linear map, stored as a row-major matrix applied
    to coordinate columns."""

    matrix: tuple[tuple[object, ...], ...]

    def __post_init__(self):
        # sparse integer rows ((b, c), ...) of the matrix scaled by the lcm
        # of its denominators
        den = lcm(*(c.denominator for row in self.matrix for c in row if c))
        self._set_rows(tuple(
            tuple((b, c.numerator * (den // c.denominator)) for b, c in enumerate(row) if c)
            for row in self.matrix
        ), den)

    def _set_rows(self, rows, den: int):
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_rows", rows)
        # (ring, element) -> [its numerator chain, whether it reached zero],
        # and id(element) -> (element, ring, that entry); see `_chain`
        object.__setattr__(self, "_chains", {})
        object.__setattr__(self, "_chain_ids", {})

    @classmethod
    def _from_int_rows(cls, ring: CoeffRing, acc, den: int) -> "Derivation":
        """The derivation with the matrix acc / den for integer rows acc.
        It holds the sparse integer rows that `__post_init__` builds from
        that matrix, taken from acc instead of read back out of the ring
        elements: acc / g over den / g over QQ, for g the gcd of den and
        the entries, and the matrix itself over ZZ and GF(p)."""
        D = object.__new__(cls)
        matrix = tuple(_from_numerators(ring, row, den) for row in acc)
        object.__setattr__(D, "matrix", matrix)
        if ring.kind != CoeffRing.RATIONALS:
            acc, den = matrix, 1
        g = gcd(den, *[c for row in acc for c in row])
        D._set_rows(tuple(tuple((b, c // g) for b, c in enumerate(row) if c) for row in acc),
                    den // g)
        return D

    def apply(self, ring: CoeffRing, x):
        self._check_length(x)
        return _from_numerators(ring, *self._apply_num(*_numerators(ring, x)))

    def iterates(self, ring: CoeffRing, x, order: int) -> list:
        """[x, delta(x), ..., delta^order(x)], cut before the first zero
        iterate (every later one is zero too); [] when x is zero."""
        self._check_length(x)
        chain = self._iterates_num(ring, *_numerators(ring, x), order)
        return [x] + [_from_numerators(ring, *it) for it in chain[1:]] if chain else []

    def _check_length(self, x):
        if len(x) != len(self._rows):
            raise RankMismatch(f"element of length {len(x)}, derivation of size {len(self._rows)}")

    def _apply_num(self, x, den: int):
        """delta(x / den) for an integer numerator vector x, as
        (numerators, denominator), not reduced mod p (as `Algebra._mul_num`)."""
        acc = []
        for row in self._rows:
            s = 0
            for b, c in row:
                a = x[b]
                if a:
                    s += c * a
            acc.append(s)
        return acc, den * self._den

    def _iterates_num(self, ring: CoeffRing, x, den: int, order: int) -> list:
        """`iterates` of x / den as (numerators, denominator) pairs, each
        reduced mod p once, so the chain ends at the first zero in the ring."""
        chain = [(x, den)] if any(x) else []
        while chain and len(chain) <= order:
            x, den = self._apply_num(x, den)
            x = _reduce(ring, x)
            if not any(x):
                break
            chain.append((x, den))
        return chain

    def _chain(self, ring: CoeffRing, x, order: int) -> tuple:
        """`_iterates_num` of the ring element x up to `order`, memoised by
        (ring, x) on equality: a tuple of (numerators, denominator) pairs
        with tuple numerators, so no caller can change a stored chain. The
        memo keeps the longest prefix computed so far and whether it
        reached zero, and extends the prefix when a larger order is asked.

        A repeat ask with the same element object and the same ring object
        finds its entry by id(x) without hashing x's coordinates. The id
        table holds x itself, so an id cannot be reused while its entry
        lives, and it is cleared when it reaches _CHAIN_IDS entries. Equal
        but distinct elements or rings fall through to the memo on
        equality and share its entry."""
        hit = self._chain_ids.get(id(x))
        if hit is not None and hit[0] is x and hit[1] is ring:
            entry = hit[2]
        else:
            entry = self._chains.setdefault((ring, x), [(), False])
            ids = self._chain_ids
            if len(ids) >= _CHAIN_IDS:
                ids.clear()
            ids[id(x)] = (x, ring, entry)
        chain, ended = entry
        if ended or len(chain) > order:
            return chain[:order + 1]
        if chain:
            # extend from the last stored iterate; `_iterates_num` returns it first
            start, steps = chain[-1], order - len(chain) + 1
            chain = chain[:-1]
        else:
            start, steps = _numerators(ring, x), order
        new = self._iterates_num(ring, *start, steps)
        chain += tuple((tuple(nums), den) for nums, den in new)
        entry[:] = chain, len(new) <= steps
        return chain

    @property
    def is_zero(self) -> bool:
        return not any(self._rows)


def _check_operands(A: Algebra, delta: Derivation | None = None, elements=(),
                    subspace: Subspace | None = None):
    """Refuse operands of another algebra: RankMismatch for a derivation,
    an element or a subspace of another rank, ValueError for a subspace
    over another ring."""
    r = A.rank
    if delta is not None and len(delta._rows) != r:
        raise RankMismatch(f"derivation of size {len(delta._rows)} on an algebra of rank {r}")
    for x in elements:
        if len(x) != r:
            raise RankMismatch(f"element of length {len(x)} in an algebra of rank {r}")
    if subspace is not None:
        if subspace.ring != A.ring:
            raise ValueError(f"subspace over {subspace.ring} in an algebra over {A.ring}")
        if subspace.ambient != r:
            raise RankMismatch(f"subspace of ambient rank {subspace.ambient}, algebra of rank {r}")


@dataclass(frozen=True)
class MultilinearIdentity:
    """X_1...X_d = sum over non-identity permutations of c_sigma
    X_{sigma(1)}...X_{sigma(d)}, with integer c_sigma.

    Permutations are stored as tuples (sigma(1), ..., sigma(d)) on the
    letters 1..d.
    """

    degree: int
    coefficients: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, degree: int, coefficients):
        if degree < 1:
            raise ValueError("identity degree is positive")
        ident = tuple(range(1, degree + 1))
        items = []
        for perm, c in (coefficients.items() if isinstance(coefficients, dict) else coefficients):
            perm = tuple(perm)
            if sorted(perm) != list(ident):
                raise ValueError(f"{perm} is not a permutation of 1..{degree}")
            if perm == ident:
                raise ValueError("identity permutation is not allowed on the right side")
            items.append((perm, int(c)))
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coefficients", tuple(sorted(items)))


def _leibniz_terms(A: Algebra, rows, cols):
    """The Leibniz residual D(e_i e_j) - D(e_i) e_j - e_i D(e_j) over the
    algebra's integer rows, one group of terms per structure constant and
    side.

    rows[a] lists (b, x) and cols[b] lists (a, x), where x stands for the
    entry D[a][b]: a value, or the index of an unknown. Coordinate w of the
    residual at the pair (i, j) has the key (i * r + j) * r + w, as in
    `Algebra._check_associativity`. Yields (base, step, pairs, c): for
    each (u, x) in pairs, the residual at key base + step * u gains c * x.
    A structure constant e_s e_t = ... + c e_k enters through column k of
    D and rows s and t.
    """
    r = A.rank
    rr = r * r
    for s, row in enumerate(A._rows):
        for t, consts in row:
            for k, c in consts:
                yield (s * r + t) * r, 1, cols[k], c  # D(e_s e_t), coordinate u
                yield t * r + k, rr, rows[s], -c  # D[s][u] e_s e_t in D(e_u) e_t, at (u, t, k)
                yield s * rr + k, r, rows[t], -c  # D[t][u] e_s e_t in e_s D(e_u), at (s, u, k)


def verify_leibniz(A: Algebra, matrix) -> Derivation:
    """Accept a matrix as a derivation iff Leibniz holds on all basis
    pairs (sufficient by bilinearity). Raises LeibnizViolation for the
    first failing pair (i, j) otherwise. Entries are brought into the ring
    first: reduced mod p over GF(p), and ValueError for a denominator that
    is not a unit (any over ZZ).

    The residual is summed for all pairs in one pass over the integer rows
    of A and D, keyed as in `_leibniz_terms`; both are scaled by their own
    denominator, so every term carries the same positive factor; it is
    tested for zero in the ring.
    """
    r = A.rank
    rows = tuple(_to_ring(A.ring, row) for row in matrix)
    if len(rows) != r or any(len(row) != r for row in rows):
        raise RankMismatch(f"derivation matrix must be {r}x{r}")
    D = Derivation(rows)
    cols = [[] for _ in range(r)]
    for a, row in enumerate(D._rows):
        for b, x in row:
            cols[b].append((a, x))
    residual = {}
    for base, step, pairs, c in _leibniz_terms(A, D._rows, cols):
        for u, x in pairs:
            key = base + step * u
            residual[key] = residual.get(key, 0) + c * x
    values = _reduce(A.ring, residual.values())
    failing = [key // r for key, v in zip(residual, values) if v]
    if failing:
        i, j = divmod(min(failing), r)
        ring = A.ring
        ei, ej = A.basis_element(i), A.basis_element(j)
        lhs = D.apply(ring, A.basis_product(i, j))
        rhs = A.add(A.mul(D.apply(ring, ei), ej), A.mul(ei, D.apply(ring, ej)))
        raise LeibnizViolation(i, j, lhs, rhs)
    return D


def derivation_space(A: Algebra) -> list[tuple[tuple, ...]]:
    """Basis of the space of derivation matrices (fields only).

    Solves the Leibniz constraints D(e_i e_j) = D(e_i) e_j + e_i D(e_j)
    as a linear system in the r^2 matrix entries; every returned matrix
    passes verify_leibniz, and every derivation is a combination of them.
    """
    if not A.ring.is_field:
        raise ValueError("derivation space computed over fields only")
    r = A.rank
    n = r * r
    # one equation per coordinate of the residual, keyed as in
    # `_leibniz_terms`, in the unknowns a*r + b = D[a][b]: a dense integer
    # row. The constants are the algebra's integer rows (the table times
    # one denominator), which leave the solution space unchanged.
    unknown_rows = [tuple((b, a * r + b) for b in range(r)) for a in range(r)]
    unknown_cols = [tuple((a, a * r + b) for a in range(r)) for b in range(r)]
    eqs = {}
    for base, step, pairs, c in _leibniz_terms(A, unknown_rows, unknown_cols):
        for u, col in pairs:
            row = eqs.get(base + step * u)
            if row is None:
                row = eqs[base + step * u] = [0] * n
            row[col] += c
    # a zero row keeps the column count when there are no constraints
    basis = _nullspace(list(eqs.values()) or [[0] * n], A.ring)
    return [
        tuple(tuple(flat[a * r + b] for b in range(r)) for a in range(r))
        for flat in basis
    ]


def inner_derivation(A: Algebra, u) -> Derivation:
    """The commutator map x -> u*x - x*u, whose column j is u e_j - e_j u.

    One pass over the integer rows of A with u's numerators: a structure
    constant e_s e_t = ... + c e_k adds u_s * c to entry (k, t), from
    u e_t, and takes u_t * c from entry (k, s), from e_s u. Each row of the
    matrix becomes ring elements at once, and the derivation keeps the
    integer rows it came from (`Derivation._from_int_rows`).
    """
    _check_operands(A, elements=(u,))
    r, ring = A.rank, A.ring
    x, den = _numerators(ring, u)
    acc = [[0] * r for _ in range(r)]
    for s, row in enumerate(A._rows):
        a = x[s]
        for t, consts in row:
            b = x[t]
            if a or b:
                for k, c in consts:
                    out = acc[k]
                    out[t] += a * c
                    out[s] -= b * c
    return Derivation._from_int_rows(ring, acc, den * A._den)


def _identity_support(A: Algebra, d: int):
    """Yield (i, P[i]) for every nonzero P[i] = e_{i_1}...e_{i_d}, in
    lexicographic order of i.

    The products are built on the integer rows by a depth-first walk: each
    nonzero prefix product is extended by every basis element at once, and
    a prefix is dropped as soon as its product is zero in the ring.
    P[i] is a sparse integer vector scaled by A._den ** (d - 1), the same
    factor for every tuple. Every nonzero prefix visited counts against
    DEFAULT_IDENTITY_BUDGET; BudgetExceeded is raised when the count passes
    it.
    """
    budget = DEFAULT_IDENTITY_BUDGET
    ring = A.ring
    rows = A._rows
    visited = 0
    # popped smallest first, so the walk runs in lexicographic order
    stack = [((i,), {i: 1}) for i in reversed(range(A.rank))]
    while stack:
        prefix, vec = stack.pop()
        visited += 1
        if visited > budget:
            raise BudgetExceeded(
                f"identity walk visits more than {budget} nonzero prefixes"
            )
        if len(prefix) == d:
            yield prefix, vec
            continue
        children = {}
        for k, a in vec.items():
            for j, consts in rows[k]:
                acc = children.setdefault(j, {})
                for w, c in consts:
                    acc[w] = acc.get(w, 0) + a * c
        for j in sorted(children, reverse=True):
            child = children[j]
            acc = {w: v for w, v in zip(child, _reduce(ring, child.values())) if v}
            if acc:
                stack.append((prefix + (j,), acc))


def verify_identity(A: Algebra, ident: MultilinearIdentity):
    """Check the identity on all basis tuples (sufficient by
    multilinearity). Returns (True, None), or (False, witness) with the
    lexicographically first failing tuple.

    The support {i : P[i] != 0} comes from `_identity_support`. Without a
    right-hand side the residual is P[i] itself, so the identity holds iff
    the support is empty and the witness is the first support tuple; the
    walk stops there. Otherwise the residual P[i] - sum c_sigma P[i o sigma]
    can be nonzero only on the S_d-orbits of the support (every other tuple
    vanishes term by term), so the whole support is built, each support
    tuple adds its product to the tuples of its orbit that it reaches, and
    the orbits are checked in sorted order until no later orbit can hold a
    smaller witness.
    """
    d = ident.degree
    if not ident.coefficients:
        for i, _ in _identity_support(A, d):
            return False, i
        return True, None
    support = dict(_identity_support(A, d))

    # R[i] gains -c P[t] where t = i o sigma, i.e. i = t o sigma^-1
    moves = [(tuple(range(d)), 1)] + [
        (tuple(perm.index(s + 1) for s in range(d)), -c)
        for perm, c in ident.coefficients
    ]
    orbits = {}
    for t in support:
        orbits.setdefault(tuple(sorted(t)), []).append(t)
    witness = None
    for least in sorted(orbits):
        if witness is not None and least > witness:
            break  # every tuple of this orbit and the later ones is larger
        residual = {}
        for t in orbits[least]:
            vec = support[t].items()
            for inv, m in moves:
                acc = residual.setdefault(tuple([t[q] for q in inv]), {})
                for w, v in vec:
                    acc[w] = acc.get(w, 0) + m * v
        for i, acc in residual.items():
            if (witness is None or i < witness) and any(_reduce(A.ring, acc.values())):
                witness = i
    return witness is None, witness


def nilpotency_index(A: Algebra, S: Subspace) -> int | None:
    """Least b with S^b = 0, or None when S is not nilpotent.

    One walk S^b = span(S^(b-1) S) on the stored rows for b = 2 .. rank + 1.
    S lies in the subalgebra B it generates; if S is nilpotent, so is B, and
    a nilpotent B has B^(dim B + 1) = 0 with dim B <= rank, so S^(rank+1) = 0.
    """
    _check_operands(A, subspace=S)
    if S.is_zero:
        return 1
    current = S
    for b in range(2, A.rank + 2):
        current = A.span([A._mul_num(x, 1, y, 1)[0] for x in current.rows for y in S.rows])
        if current.is_zero:
            return b
    return None


def b_sequence(A: Algebra, delta: Derivation, T) -> BoundSequence:
    """Nilpotency indices of the spans of T, T u delta(T), ...

    Entry n is the index of span(T_n) where T_n collects derivative
    iterates up to order n. One walk on the stored rows:
    span(T_{n+1}) = span(T_n) + delta(span T_n), since delta(span T_n) is
    spanned by the iterates of orders 1..n+1. The prefix always extends to
    the level where the span stabilizes (it can only grow rank-many
    times), so the constant-tail rule of the result is honest.
    """
    _check_operands(A, delta)
    span_now = A.span([A.element(t) for t in T])
    prefix = []
    while True:
        b = nilpotency_index(A, span_now)
        if b is None:
            raise NotNilpotent(len(prefix))
        prefix.append(b)
        span_next = A.span([*span_now.rows, *(delta._apply_num(v, 1)[0] for v in span_now.rows)])
        if span_next == span_now:
            break
        span_now = span_next
    return BoundSequence(tuple(prefix), extend_tail=True)


# --- the algebra-definition document ------------------------------------


def _parse_ring(spec, field: str) -> CoeffRing:
    if spec == "integers":
        return ZZ
    if spec == "rationals":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"prime"}:
        p = spec["prime"]
        if not isinstance(p, int):
            raise MalformedInput("prime must be an integer", field=field)
        try:
            return GF(p)
        except ValueError as exc:
            raise MalformedInput(str(exc), field=field) from None
    raise MalformedInput(
        "coeff_ring must be \"integers\", \"rationals\", or {\"prime\": p}",
        field=field,
    )


def parse_algebra_document(doc: dict):
    """Validated (Algebra, derivations, identities) from a parsed document.

    See load_algebra for the format.
    """
    if not isinstance(doc, dict):
        raise MalformedInput("document root must be an object")
    ring = _parse_ring(doc.get("coeff_ring"), "coeff_ring")
    rank = doc.get("rank")
    if not isinstance(rank, int) or rank < 1:
        raise MalformedInput("rank must be a positive integer", field="rank")
    names = doc.get("basis_names")
    if names is not None:
        if not isinstance(names, list) or len(names) != rank or not all(
            isinstance(s, str) for s in names
        ):
            raise MalformedInput(
                f"basis_names must be {rank} strings", field="basis_names"
            )
    table: dict = {}
    sc = doc.get("structure_constants", [])
    if not isinstance(sc, list):
        raise MalformedInput("structure_constants must be a list", field="structure_constants")
    for idx, rec in enumerate(sc):
        field = f"structure_constants[{idx}]"
        if not isinstance(rec, list) or len(rec) != 4:
            raise MalformedInput("expected [i, j, k, value]", field=field)
        i, j, k, value = rec
        for name, v in (("i", i), ("j", j), ("k", k)):
            if not isinstance(v, int) or not 0 <= v < rank:
                raise MalformedInput(
                    f"index {name}={v!r} out of range 0..{rank - 1}", field=field
                )
        c = ring.parse(value, field=field)
        row = table.setdefault((i, j), {})
        row[k] = ring.add(row.get(k, ring.zero), c)
    unit = doc.get("unit")
    if unit is not None and (not isinstance(unit, int) or not 0 <= unit < rank):
        raise MalformedInput("unit must be a basis index", field="unit")
    A = Algebra(ring, rank, names, table, unit=unit)

    derivations = {}
    for name, mat in (doc.get("derivations") or {}).items():
        field = f"derivations[{name!r}]"
        if (
            not isinstance(mat, list)
            or len(mat) != rank
            or any(not isinstance(row, list) or len(row) != rank for row in mat)
        ):
            raise MalformedInput(f"expected a {rank}x{rank} matrix", field=field)
        rows = tuple(
            tuple(ring.parse(v, field=f"{field}[{r}][{c}]") for c, v in enumerate(row))
            for r, row in enumerate(mat)
        )
        derivations[name] = verify_leibniz(A, rows)

    identities = {}
    for name, spec in (doc.get("identities") or {}).items():
        field = f"identities[{name!r}]"
        if not isinstance(spec, dict) or "degree" not in spec:
            raise MalformedInput("expected {degree, terms}", field=field)
        degree = spec["degree"]
        terms = spec.get("terms", [])
        if not isinstance(degree, int) or degree < 1 or not isinstance(terms, list):
            raise MalformedInput("expected {degree, terms}", field=field)
        coeffs = []
        for t_idx, term in enumerate(terms):
            tf = f"{field}.terms[{t_idx}]"
            if not isinstance(term, dict) or set(term) != {"perm", "coeff"}:
                raise MalformedInput("expected {perm, coeff}", field=tf)
            if not isinstance(term["coeff"], int):
                raise MalformedInput("coeff must be an integer", field=tf)
            coeffs.append((tuple(term["perm"]), term["coeff"]))
        try:
            identities[name] = MultilinearIdentity(degree, coeffs)
        except ValueError as exc:
            raise MalformedInput(str(exc), field=field) from None

    return A, derivations, identities


def algebra_to_document(A: Algebra, derivations=None, identities=None) -> dict:
    """The document that parse_algebra_document reads back as A with the
    named derivations and identities."""
    ring = A.ring
    fmt = ring.fmt
    doc = {
        "coeff_ring": {"prime": ring.p} if ring.p else ring.kind,
        "rank": A.rank,
        "basis_names": list(A.basis_names),
        "structure_constants": [
            [i, j, k, fmt(c)] for (i, j), row in sorted(A.table.items())
            for k, c in sorted(row.items())
        ],
    }
    if A.unit is not None:
        doc["unit"] = A.unit
    if derivations:
        doc["derivations"] = {
            name: [[fmt(c) for c in row] for row in D.matrix]
            for name, D in derivations.items()
        }
    if identities:
        doc["identities"] = {
            name: {"degree": ident.degree,
                   "terms": [{"perm": list(perm), "coeff": c} for perm, c in ident.coefficients]}
            for name, ident in identities.items()
        }
    return doc


def load_algebra(path_or_text):
    """Load an algebra-definition document.

    The document is JSON with fields: coeff_ring ("integers" | "rationals"
    | {"prime": p}), rank, optional basis_names, structure_constants as
    records [i, j, k, value] with value a decimal-integer or "a/b" string
    (0-based indices), optional unit index, optional named derivations
    (row-major rank x rank matrices of value strings), optional named
    identities ({degree, terms: [{perm, coeff}]}). Values are exact.

    Returns (Algebra, {name: Derivation}, {name: MultilinearIdentity}).
    """
    text = path_or_text
    if hasattr(path_or_text, "read"):
        text = path_or_text.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    return parse_algebra_document(doc)
