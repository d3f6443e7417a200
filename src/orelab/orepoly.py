"""Differential polynomial arithmetic over a finite-rank algebra.

Polynomials in x with algebra-element coefficients multiply through the
rule x*a = a*x + delta(a); canonical rewriting collects products of
generators and x-powers into head * delta-iterate terms, and the
nilpotency pipeline bounds powers of finite polynomial sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import comb, lcm
from operator import index

from .algebra import (Algebra, Derivation, MultilinearIdentity, _check_operands, b_sequence,
                      verify_identity)
from .errors import BudgetExceeded, ExponentTooLarge, IdentityFails
from .linalg import Subspace
from .rings import _from_numerators, _numerators, _reduce
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
        if degree < 0:
            raise ValueError("degree is a natural number")
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


def ore_multiply(A: Algebra, delta: Derivation, f: DiffPoly, g: DiffPoly) -> DiffPoly:
    """Product in A[x; delta]: x-powers commute past coefficients via the
    binomial expansion of x^d * a.

    The coefficients of f and the delta-iterates of g's coefficients are
    brought to one denominator each, `_ore_product` adds the products as
    integer numerators, and each output coefficient is reduced once.
    """
    _check_operands(A, delta, f.coeffs + g.coeffs)
    if f.is_zero or g.is_zero:
        return DiffPoly.zero(A)
    ring = A.ring
    fnums = [_numerators(ring, fa) if any(fa) else None for fa in f.coeffs]
    chains = [delta._iterates_num(ring, *_numerators(ring, gb), f.degree) if any(gb) else ()
              for gb in g.coeffs]
    fden = lcm(*[fa[1] for fa in fnums if fa])
    gden = lcm(*[d for chain in chains for _, d in chain])
    out = _ore_product(A, _over(fden, fnums), [_over(gden, chain) for chain in chains])
    den = fden * gden * A._den
    return DiffPoly(A, [_from_numerators(ring, v, den) for v in out])


def _over(den: int, pairs) -> list:
    """The numerators of (numerators, denominator) pairs, None kept, over
    den, a multiple of every denominator."""
    return [p and (p[0] if p[1] == den else [a * (den // p[1]) for a in p[0]]) for p in pairs]


def _ore_product(A: Algebra, fvecs, chains) -> list:
    """The product loop of `ore_multiply`, `direct_product` and `_power_dims`
    on integer numerators: one numerator vector per x-degree of f * g, over
    the denominator of f's vectors times that of g's chains times A._den. f
    is given as a vector per x-degree (None where zero), and g as the
    delta-chain of its coefficient per x-degree (empty where zero), each
    chain reaching at least the degree of f.

    fa x^i * gb x^j = sum over t of C(i, t) fa delta^t(gb) x^(i-t+j), and
    each product runs over the structure constants straight into the
    vector of its x-degree.
    """
    rows = A._rows
    out = [[0] * A.rank for _ in range(len(fvecs) + len(chains) - 1)]
    for j, chain in enumerate(chains):
        for i, fa in enumerate(fvecs):
            if fa is None:
                continue
            for t, cur in enumerate(chain[:i + 1]):
                acc = out[i - t + j]
                m = comb(i, t)
                for s, a in enumerate(fa):
                    row = rows[s]
                    if row and a:
                        a *= m
                        for q, consts in row:
                            b = cur[q]
                            if b:
                                b *= a
                                for k, c in consts:
                                    acc[k] += b * c
    return out


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


def _check_factors(A: Algebra, delta: Derivation, generators, head: int, indices,
                   exponents):
    """(generators, head, indices, exponents) of the product
    a_head x^{p_1} a_{i_1} ... a_{i_n} x^{p_{n+1}}, the integers read with
    `operator.index` (TypeError for a float or a string); RankMismatch for
    a generator of another length, and ValueError unless there is at least
    one factor after the head, every index selects a generator, and there
    is one natural exponent per x-block. Only the generators at the head
    and the indices, the ones the product reads, are made elements."""
    gens = list(generators)
    _check_operands(A, delta, gens)
    head = index(head)
    gen_indices = tuple(map(index, indices))
    exps = list(map(index, exponents))
    if not gen_indices:
        raise ValueError("need at least one factor after the head")
    if not (0 <= head < len(gens) and 0 <= min(gen_indices) and max(gen_indices) < len(gens)):
        raise ValueError("head/indices out of range of the generator list")
    if len(exps) != len(gen_indices) + 1:
        raise ValueError("need one exponent per x-block: p_1..p_{n+1}")
    if min(exps) < 0:
        raise ValueError("exponents are natural numbers")
    for i in {head, *gen_indices}:
        gens[i] = A.element(gens[i])
    return gens, head, gen_indices, exps


def rewrite_product(A: Algebra, delta: Derivation, generators, head: int,
                    indices, exponents, k: int) -> list[CanonicalTerm]:
    """Canonical terms of a_{i0} x^{p_1} a_{i_1} x^{p_2} ... a_{i_n} x^{p_{n+1}}.

    generators: the generating elements; head = i_0 and indices =
    (i_1..i_n) select the factors; exponents = (p_1..p_{n+1}), all <= k.
    The x-powers are pushed right with the binomial expansion; branches
    whose derivative iterate delta^j(a) vanishes contribute nothing and
    are dropped. Each leaf of the expansion is one term: its j-word has
    length n, distinct leaves have distinct j-words (and the x-degree
    follows from the j-word), and its coefficient is a product of
    binomials C(d, j) with j <= d, so positive. No two terms merge and
    none is zero; the walk takes j in ascending order at every factor,
    so the terms come out sorted by (indices, jword, xdeg) as built.
    Every partial product visited counts against DEFAULT_REWRITE_BUDGET;
    BudgetExceeded is raised when the count passes it.
    """
    gens, head, gen_indices, exps = _check_factors(A, delta, generators, head, indices,
                                                   exponents)
    n = len(gen_indices)
    if max(exps) > index(k):
        raise ExponentTooLarge(f"exponents {exps} exceed k={k}")
    if A.is_zero_elem(gens[head]):
        return []

    # per factor, the number of nonzero delta-iterates up to the largest
    # possible carried degree: delta^j(a) is nonzero exactly for j < reach
    chain_len = {i: len(delta._chain(A.ring, gens[i], sum(exps))) for i in set(gen_indices)}
    reach = [chain_len[i] for i in gen_indices]

    budget = DEFAULT_REWRITE_BUDGET
    visited = 0
    out = []
    # (j-prefix, coefficient, x-degree carried into the next factor); j is
    # pushed descending, so the smallest pops first
    stack = [((), 1, 0)]
    while stack:
        jprefix, coeff, carried = stack.pop()
        visited += 1
        if visited > budget:
            raise BudgetExceeded(f"rewriting visits more than {budget} partial products")
        t = len(jprefix)
        if t == n:
            out.append(CanonicalTerm(coeff, head, gen_indices, Word._from_letters(jprefix),
                                     carried + exps[n]))
            continue
        d = carried + exps[t]
        for j in range(min(d + 1, reach[t]) - 1, -1, -1):
            stack.append((jprefix + (j,), coeff * comb(d, j), d - j))
    return out


def evaluate_terms(A: Algebra, delta: Derivation, generators, terms) -> DiffPoly:
    """Sum of canonical terms as a DiffPoly; generators[i] is the element
    a_i referenced by term indices.

    ValueError, before any product, for a malformed term: a j-word whose
    length is not the number of indices, a head or index outside the
    generator list, or a negative x-degree.

    Terms are taken in the given order, and each one reuses the partial
    products a_head * delta^{j_1}(a_{i_1}) * ... that it shares with the
    term before it (the same head, then the same index and j position by
    position), so the sorted output of `rewrite_product` costs one
    product per distinct j-prefix. A term stops at its first zero partial
    product. Products stay integer numerators until the one reduction per
    x-degree. The delta-chains and the heads' numerators come from the
    derivation's memo (`Derivation._chain`), each to the highest order a
    term asks of its generator.
    """
    _check_operands(A, delta)
    terms = list(terms)
    ring = A.ring
    order: dict = {}  # generator index -> highest delta-order a term asks of it
    jwords: dict = {}  # indices -> the j-words of the terms with them
    for t in terms:
        letters = t.jword.letters
        if len(letters) != len(t.indices):
            raise ValueError(f"term with {len(t.indices)} indices and a j-word of "
                             f"{len(letters)} letters")
        if t.xdeg < 0:
            raise ValueError(f"x-degree {t.xdeg} is not a natural number")
        order.setdefault(t.head, 0)
        jwords.setdefault(t.indices, []).append(letters)
    for indices, words in jwords.items():
        for idx, j in zip(indices, map(max, zip(*words))):
            if j > order.get(idx, -1):
                order[idx] = j
    if not all(0 <= idx < len(generators) for idx in order):
        raise ValueError("head/indices out of range of the generator list")
    chains = {idx: delta._chain(ring, A.element(generators[idx]), j)
              for idx, j in order.items()}
    by_degree: dict = {}
    # the previous term's head, indices and j-word, and prods[s] = the
    # partial product of its head and first s factors: (numerators,
    # denominator), or None (then the last entry) once the product is zero
    head = indices = letters = None
    prods: list = []
    for t in terms:
        if t.head == head:
            prev_indices, prev_letters = indices, letters
            indices, letters = t.indices, t.jword.letters
            s, m = 0, min(len(indices), len(prods) - 1)
            while s < m and indices[s] == prev_indices[s] and letters[s] == prev_letters[s]:
                s += 1
            del prods[s + 1:]
        else:
            head, indices, letters = t.head, t.indices, t.jword.letters
            chain = chains[head]
            prods = [chain[0] if chain else None]
            s = 0
        cur = prods[-1]
        for s in range(s, len(indices)):
            if cur is None:
                break
            chain = chains[indices[s]]
            j = letters[s]
            # delta^j(a) = 0 for j past the chain; reduced mod p, so a
            # product that vanishes in GF(p) ends the term
            if j < len(chain):
                nums, den = A._mul_num(*cur, *chain[j])
                nums = _reduce(ring, nums)
                cur = (nums, den) if any(nums) else None
            else:
                cur = None
            prods.append(cur)
        if cur is not None and t.coeff:
            by_degree.setdefault(t.xdeg, []).append((t.coeff, *cur))
    top = max(by_degree, default=-1)
    return DiffPoly(A, [_from_numerators(ring, *A._sum_num(by_degree.get(d, ())))
                        for d in range(top + 1)])


def direct_product(A: Algebra, delta: Derivation, generators, head: int,
                   gen_indices, exponents) -> DiffPoly:
    """a_head x^{p_1} a_{i_1} ... a_{i_n} x^{p_{n+1}} by plain Ore multiplication.

    The factors are taken as in `rewrite_product`, with the same checks.
    Equal to the `ore_multiply` product of the monomials a_head x^{p_1},
    a_{i_1} x^{p_2}, ... taken left to right, but the running product
    stays integer numerators, a vector or None per x-degree over one
    denominator; `_ore_product` forms each factor's products, which are
    reduced mod p once per factor, and the coefficients become ring
    elements at the end.
    """
    gens, head, gen_indices, exps = _check_factors(A, delta, generators, head, gen_indices,
                                                   exponents)
    ring = A.ring
    chain = delta._chain(ring, gens[head], 0)
    if not chain:
        return DiffPoly.zero(A)
    vecs, den = [None] * exps[0] + [chain[0][0]], chain[0][1]
    for idx, p in zip(gen_indices, exps[1:]):
        chain = delta._chain(ring, gens[idx], len(vecs) - 1)
        gden = lcm(*[d for _, d in chain])
        out = _ore_product(A, vecs, [()] * p + [_over(gden, chain)])
        vecs = [v if any(v) else None for v in (_reduce(ring, v) for v in out)]
        den *= gden * A._den
        while vecs and vecs[-1] is None:
            vecs.pop()
        if not vecs:
            return DiffPoly.zero(A)
    return DiffPoly(A, [_from_numerators(ring, v, den) if v else A.zero() for v in vecs])


def _power_dims(A: Algebra, delta: Derivation, S):
    """dim span(S^m) for m = 1, 2, ..., stopping after the first 0.

    One walk on integer rows: span(S^m) = span(span(S^(m-1)) * S). Each
    stored row of span(S^(m-1)) is cut into a vector per x-degree (None
    where zero) and multiplied by each element of S through `_ore_product`,
    whose products (over one denominator, which does not change their span)
    are the rows of span(S^m). The delta-chains of S's coefficients are
    formed once per power, unmemoised. Power m has x-degree at most m * (max
    degree of S), so each power gets its own graded coordinate block.
    """
    ring, r = A.ring, A.rank
    # each nonzero element's (numerators, denominator) per x-degree, to maxdeg
    S = [[_numerators(ring, c) for c in g.coeffs] for g in S if g.coeffs]
    maxdeg = max(map(len, S), default=1) - 1
    S = [g + [([0] * r, 1)] * (maxdeg + 1 - len(g)) for g in S]
    rows, current = [_over(lcm(*[d for _, d in g]), g) for g in S], None
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
            chains = [[delta._iterates_num(ring, *p, deg_cap - maxdeg) for p in g] for g in S]
            den = lcm(*[d for g in chains for chain in g for _, d in chain])
            chains = [[_over(den, chain) for chain in g] for g in chains]
            rows = []
            for row in current.rows:
                fvecs = [row[i:i + r] for i in range(0, len(row), r)]
                fvecs = [v if any(v) else None for v in fvecs]
                rows.extend(_ore_product(A, fvecs, g) for g in chains)
        current = Subspace.span(ring, ambient, [[a for v in vecs for a in v] for vecs in rows])
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
