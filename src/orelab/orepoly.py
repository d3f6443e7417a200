"""Differential polynomial arithmetic over a finite-rank algebra.

Polynomials in x with algebra-element coefficients multiply through the
rule x*a = a*x + delta(a); canonical rewriting collects products of
generators and x-powers into head * delta-iterate terms, and the
nilpotency pipeline bounds powers of finite polynomial sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import comb

from .algebra import (Algebra, Derivation, MultilinearIdentity, _check_operands, b_sequence,
                      verify_identity)
from .errors import BudgetExceeded, ExponentTooLarge, IdentityFails
from .linalg import Subspace
from .rings import _numerators, _reduce
from .words import Word, compute_bounds

# largest span dimension a power of a polynomial set may reach before the
# next power is formed; its graded coordinate space may be 8 times wider
DEFAULT_SPAN_CAP = 4096

# partial products (j-prefixes) rewrite_product may visit; the expansion
# grows like a product of binomial rows, so this caps its time and memory
DEFAULT_REWRITE_BUDGET = 200_000


class DiffPoly:
    """Polynomial sum a_n x^n + ... + a_1 x + a_0 with a_i in the algebra.

    Coefficients are stored by ascending x-degree with trailing zeros
    trimmed; the zero polynomial has no coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, A: Algebra, coeffs):
        coeffs = [A.element(c) for c in coeffs]
        while coeffs and A.is_zero_elem(coeffs[-1]):
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, A: Algebra) -> "DiffPoly":
        return cls(A, [])

    @classmethod
    def constant(cls, A: Algebra, a) -> "DiffPoly":
        return cls(A, [a])

    @classmethod
    def monomial(cls, A: Algebra, a, degree: int) -> "DiffPoly":
        return cls(A, [A.zero()] * degree + [a])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, DiffPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"DiffPoly(degree={self.degree})"

    def fmt(self, A: Algebra) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if A.is_zero_elem(c):
                continue
            body = A.fmt_element(c)
            if i == 0:
                parts.append(f"({body})")
            elif i == 1:
                parts.append(f"({body})*x")
            else:
                parts.append(f"({body})*x^{i}")
        return " + ".join(parts)


def dp_add(A: Algebra, f: DiffPoly, g: DiffPoly) -> DiffPoly:
    n = max(len(f.coeffs), len(g.coeffs))
    z = A.zero()
    out = []
    for i in range(n):
        a = f.coeffs[i] if i < len(f.coeffs) else z
        b = g.coeffs[i] if i < len(g.coeffs) else z
        out.append(A.add(a, b))
    return DiffPoly(A, out)


def commute_xd(A: Algebra, delta: Derivation, d: int, a):
    """Expansion of x^d * a as [(binomial, delta^j(a), d - j)] for j = 0..d."""
    if d < 0:
        raise ValueError("d is a natural number")
    chain = delta.iterates(A.ring, A.element(a), d)
    chain += [A.zero()] * (d + 1 - len(chain))
    return [(comb(d, j), cur, d - j) for j, cur in enumerate(chain)]


def mul_x_left(A: Algebra, delta: Derivation, f: DiffPoly) -> DiffPoly:
    """Single left multiplication by x: x * (a_i x^i) = a_i x^(i+1) + delta(a_i) x^i."""
    z = A.zero()
    out = [z] * (len(f.coeffs) + 1)
    for i, c in enumerate(f.coeffs):
        out[i + 1] = A.add(out[i + 1], c)
        out[i] = A.add(out[i], delta.apply(A.ring, c))
    return DiffPoly(A, out)


def ore_multiply(A: Algebra, delta: Derivation, f: DiffPoly, g: DiffPoly) -> DiffPoly:
    """Product in A[x; delta]: x-powers commute past coefficients via the
    binomial expansion of x^d * a.

    The products and delta-iterates are kept as integer numerators, and
    each output coefficient is reduced once.
    """
    _check_operands(A, delta, f.coeffs + g.coeffs)
    if f.is_zero or g.is_zero:
        return DiffPoly.zero(A)
    ring = A.ring
    fnums = [_numerators(ring, fa) if any(fa) else None for fa in f.coeffs]
    by_degree = [[] for _ in range(len(f.coeffs) + len(g.coeffs) - 1)]
    for j, gb in enumerate(g.coeffs):
        chain = delta._iterates_num(ring, *_numerators(ring, gb), f.degree) if any(gb) else ()
        for i, fa in enumerate(fnums):
            if fa is None:
                continue
            # fa x^i * gb x^j = sum_t C(i,t) fa delta^t(gb) x^(i-t+j)
            for t, cur in enumerate(chain[:i + 1]):
                by_degree[i - t + j].append((comb(i, t), *A._mul_num(*fa, *cur)))
    return DiffPoly(A, [A._combine_num(terms) for terms in by_degree])


def ore_product(A: Algebra, delta: Derivation, polys) -> DiffPoly:
    it = iter(polys)
    acc = next(it)
    for p in it:
        acc = ore_multiply(A, delta, acc, p)
    return acc


@dataclass(frozen=True)
class CanonicalTerm:
    """coeff * a_head * delta^{j_1}(a_{i_1}) * ... * delta^{j_n}(a_{i_n}) * x^M."""

    coeff: int
    head: int
    indices: tuple[int, ...]
    jword: Word
    xdeg: int

    def key(self):
        return ((self.head,) + self.indices, self.jword.letters, self.xdeg)

    def fmt(self) -> str:
        idx = ",".join(str(i) for i in (self.head,) + self.indices)
        js = " ".join(str(j) for j in self.jword.letters)
        return f"{self.coeff} | {idx} | {js} | {self.xdeg}"


def rewrite_product(A: Algebra, delta: Derivation, generators, head: int,
                    indices, exponents, k: int) -> list[CanonicalTerm]:
    """Canonical terms of a_{i0} x^{p_1} a_{i_1} x^{p_2} ... a_{i_n} x^{p_{n+1}}.

    generators: the generating elements; head = i_0 and indices =
    (i_1..i_n) select the factors; exponents = (p_1..p_{n+1}), all <= k.
    The x-powers are pushed right with the binomial expansion; branches
    whose derivative iterate delta^j(a) vanishes contribute nothing and
    are dropped. Terms with equal (indices, jword, xdeg) merge with
    summed integer coefficients, zeros drop, output sorted by that key.
    Every partial product visited counts against DEFAULT_REWRITE_BUDGET;
    BudgetExceeded is raised when the count passes it.
    """
    _check_operands(A, delta)
    gens = [A.element(g) for g in generators]
    gen_indices = tuple(int(i) for i in indices)
    exps = [int(p) for p in exponents]
    n = len(gen_indices)
    if n < 1:
        raise ValueError("need at least one factor after the head")
    if not 0 <= head < len(gens) or any(not 0 <= i < len(gens) for i in gen_indices):
        raise ValueError("head/indices out of range of the generator list")
    if len(exps) != n + 1:
        raise ValueError("need one exponent per x-block: p_1..p_{n+1}")
    if any(p < 0 for p in exps):
        raise ValueError("exponents are natural numbers")
    if any(p > k for p in exps):
        raise ExponentTooLarge(f"exponents {exps} exceed k={k}")

    # per factor, the number of nonzero delta-iterates up to the largest
    # possible carried degree: delta^j(a) is nonzero exactly for j < reach
    chain_len = {i: len(delta._iterates_num(A.ring, *_numerators(A.ring, gens[i]), sum(exps)))
                 for i in set(gen_indices)}
    reach = [chain_len[i] for i in gen_indices]

    budget = DEFAULT_REWRITE_BUDGET
    visited = 0
    out: dict = {}
    if not A.is_zero_elem(gens[head]):
        # (j-prefix, coefficient, x-degree carried into the next factor)
        stack = [((), 1, 0)]
        while stack:
            jprefix, coeff, carried = stack.pop()
            visited += 1
            if visited > budget:
                raise BudgetExceeded(f"rewriting visits more than {budget} partial products")
            t = len(jprefix)
            if t == n:
                key = (jprefix, carried + exps[n])
                out[key] = out.get(key, 0) + coeff
                continue
            d = carried + exps[t]
            for j in range(min(d + 1, reach[t])):
                stack.append((jprefix + (j,), coeff * comb(d, j), d - j))

    return [
        CanonicalTerm(c, head, gen_indices, Word(jword), M)
        for (jword, M), c in sorted(out.items())
        if c != 0
    ]


def evaluate_terms(A: Algebra, delta: Derivation, generators, terms) -> DiffPoly:
    """Sum of canonical terms as a DiffPoly; generators[i] is the element
    a_i referenced by term indices.

    Terms are taken in the given order, and each one reuses the partial
    products a_head * delta^{j_1}(a_{i_1}) * ... that it shares with the
    term before it, so the sorted output of `rewrite_product` costs one
    product per distinct j-prefix. A term stops at its first zero partial
    product. Products stay integer numerators until the one reduction per
    x-degree.
    """
    _check_operands(A, delta)
    terms = list(terms)
    ring = A.ring
    order: dict = {}  # generator index -> highest delta-order a term asks of it
    for t in terms:
        for idx, j in zip(t.indices, t.jword.letters):
            if j > order.get(idx, -1):
                order[idx] = j
    chains = {idx: delta._iterates_num(ring, *_numerators(ring, A.element(generators[idx])), j)
              for idx, j in order.items()}
    by_degree: dict = {}
    # the previous term's factors (its head, then (index, j) pairs) and the
    # partial product over each prefix of them: (numerators, denominator),
    # or None once the product is zero
    path: list = []
    prods: list = []
    for t in terms:
        key = (t.head, *zip(t.indices, t.jword.letters))
        s = 0
        while s < min(len(key), len(path)) and key[s] == path[s]:
            s += 1
        del path[s:], prods[s:]
        for s in range(s, len(key)):
            if s == 0:
                cur = _numerators(ring, A.element(generators[t.head]))
            elif prods[-1] is None:
                break
            else:
                idx, j = key[s]
                chain = chains[idx]
                # delta^j(a) = 0 for j past the chain; reduced mod p, so a
                # product that vanishes in GF(p) ends the term
                nums, den = A._mul_num(*prods[-1], *chain[j]) if j < len(chain) else ((), 1)
                cur = _reduce(ring, nums), den
            path.append(key[s])
            prods.append(cur if any(cur[0]) else None)
        if prods[-1] is not None and t.coeff:
            by_degree.setdefault(t.xdeg, []).append((t.coeff, *prods[-1]))
    top = max(by_degree, default=-1)
    return DiffPoly(A, [A._combine_num(by_degree.get(d, ())) for d in range(top + 1)])


def direct_product(A: Algebra, delta: Derivation, generators, head: int,
                   gen_indices, exponents) -> DiffPoly:
    """a_head x^{p_1} a_{i_1} ... a_{i_n} x^{p_{n+1}} by plain Ore multiplication."""
    gens = list(generators)
    exps = list(exponents)
    factors = [DiffPoly.monomial(A, A.element(gens[head]), exps[0])]
    for idx, p in zip(gen_indices, exps[1:]):
        factors.append(DiffPoly.monomial(A, A.element(gens[idx]), p))
    return ore_product(A, delta, factors)


def _poly_vector(A: Algebra, f: DiffPoly, deg_cap: int):
    vec = []
    for i in range(deg_cap + 1):
        c = f.coeffs[i] if i < len(f.coeffs) else A.zero()
        vec.extend(c)
    return vec


def _power_dims(A: Algebra, delta: Derivation, S):
    """dim span(S^m) for m = 1, 2, ..., stopping after the first 0.

    One walk: span(S^m) = span(span(S^(m-1)) * S), on the stored rows of
    span(S^(m-1)). Power m has x-degree at most m * (max degree of S), so
    each power gets its own graded coordinate block.
    """
    S = list(S)
    maxdeg = max((f.degree for f in S if not f.is_zero), default=0)
    r = A.rank
    polys, current = S, None
    for m in count(1):
        deg_cap = maxdeg * m
        ambient = (deg_cap + 1) * r
        if ambient > DEFAULT_SPAN_CAP * 8:
            raise BudgetExceeded(
                f"graded coordinate space of dimension {ambient} exceeds the budget"
            )
        if current is not None:
            if current.dim > DEFAULT_SPAN_CAP:
                raise BudgetExceeded(
                    f"span dimension {current.dim} exceeds cap {DEFAULT_SPAN_CAP}"
                )
            prev = [DiffPoly(A, [row[i:i + r] for i in range(0, len(row), r)])
                    for row in current.rows]
            polys = [ore_multiply(A, delta, f, g) for f in prev for g in S]
        current = Subspace.span(A.ring, ambient, [_poly_vector(A, f, deg_cap) for f in polys])
        yield current.dim
        if current.is_zero:
            return


@dataclass(frozen=True)
class NilpotencyReport:
    """Outcome of the nilpotency pipeline on a finite set S.

    minimal_N: least N with S^(N+1) = 0, or None when the cap was reached
    first.
    power_dims: dim span(S^m) for m = 1.. as far as computed.
    """

    minimal_N: int | None
    power_dims: tuple[int, ...]


def minimal_nilpotency(A: Algebra, delta: Derivation, S, cap: int) -> NilpotencyReport:
    """Least N <= cap with every (N+1)-fold product of S zero."""
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")
    S = list(S)
    _check_operands(A, delta, [c for f in S for c in f.coeffs])
    dims = tuple(dim for _, dim in zip(range(cap + 1), _power_dims(A, delta, S)))
    return NilpotencyReport(len(dims) - 1 if dims and dims[-1] == 0 else None, dims)


def theorem_bound(A: Algebra, delta: Derivation, T, k: int,
                  ident: MultilinearIdentity) -> int:
    """Guaranteed nilpotency bound for sets S inside T + Tx + ... + Tx^k.

    Needs the identity to hold and every span(T_n) nilpotent; returns the
    N with S^(N+1) = 0 from the bound recursion at eps = 1.
    """
    return _theorem_bound(A, ident, k, lambda: b_sequence(A, delta, T))


def _theorem_bound(A: Algebra, ident: MultilinearIdentity, k: int, bseq) -> int:
    """theorem_bound with the b-sequence of T given by the callable bseq,
    which is called only once the identity is known to hold."""
    ok, witness = verify_identity(A, ident)
    if not ok:
        raise IdentityFails(witness)
    return compute_bounds(ident.degree, bseq(), k, 1).N
