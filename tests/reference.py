"""Reference oracles that only the tests use: slow, exact definitions that
the library's fast paths are checked against."""

from __future__ import annotations

import itertools
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby, permutations
from math import comb
from operator import add, index

from orelab import orepoly
from orelab._kernels import b_bounded
from orelab._kernels import weight as kernel_weight
from orelab.algebra import Algebra, Derivation
from orelab.errors import BudgetExceeded, ExponentTooLarge, OrelabError
from orelab.linalg import nullspace
from orelab.orepoly import CanonicalTerm, DiffPoly, ore_multiply
from orelab.rings import _from_numerators, _numerators
from orelab.words import Factorization, Word, as_word

DEFAULT_FACTORIAL_CAP = 8


class FactorialCapExceeded(OrelabError):
    """Brute-force permutation enumeration refused beyond the configured cap."""


def weight_bruteforce(u) -> int:
    """Reference oracle: exact minimum over all n! permutations, refused
    beyond DEFAULT_FACTORIAL_CAP letters."""
    u = as_word(u)
    n = len(u)
    cap = DEFAULT_FACTORIAL_CAP
    if n > cap:
        raise FactorialCapExceeded(
            f"word length {n} exceeds the factorial cap {cap}"
        )
    best = None
    for perm in permutations(u.letters):
        total = sum((n - i) * a for i, a in enumerate(perm))
        if best is None or total < best:
            best = total
    return best


def oracle_candidates_bruteforce(n: int, cap: int, limit: int, bounds):
    """Reference for words._oracle_candidates: every word of length n over
    0..cap, in lexicographic order, of weight <= limit and with no run of
    letters <= m of length >= b_m for any m < len(bounds). For m >= cap
    such a run is the whole word, so a length n >= b_m leaves no word."""
    for u in itertools.product(range(cap + 1), repeat=n):
        if sum(accumulate(sorted(u))) > limit:
            continue
        if any(
            len(list(run)) >= bm
            for m, bm in enumerate(bounds)
            for low, run in groupby(u, key=lambda x: x <= m)
            if low
        ):
            continue
        yield u


# --- the word sampler as it was before long samples carried their code ---


def _v2(i: int) -> int:
    return (i & -i).bit_length() - 1


def _ruler(i: int) -> int:
    return (2 << _v2(i)) - 2


def capped_demoted_reference(n: int) -> list[int]:
    letters = [0] * (n + 1)
    J = 0
    while (1 << (J + 1)) <= n:
        J += 1
    for i in range(1, n + 1):
        letters[i] = min(_ruler(i), n - 1)
    for j in range(1, J):
        g = 1 << j
        p = n - (n % g)
        if p <= 0 or _v2(p) != j:
            continue
        trail = n - p
        newval = min((2 << j) - 2, max(trail + g - 1, g - 1))
        if newval < letters[p]:
            letters[p] = newval
    top, half = 1 << J, 1 << (J - 1)
    if n - top <= half - 1 and half >= 2:
        letters[half] = n - 1
        letters[top] = min(letters[top], max(n - half - 1, half - 1))
    return letters[1:]


def tail_capped_reference(n: int) -> list[int]:
    letters = [0] * (n + 1)
    for i in range(1, n + 1):
        letters[i] = min(_ruler(i), 2 * (n - i) + 1, n - 1)
    t = 0
    while True:
        val = min((1 << (t + 1)) - 1, n - 1)
        i_t = n - (1 << t)
        if i_t >= 1:
            letters[i_t] = max(letters[i_t], val)
        if val >= n - 1:
            break
        t += 1
    mx = max(letters)
    if mx < n - 1:
        letters[letters.index(mx)] = n - 1
    return letters[1:]


def base_word_reference(n: int) -> list[int]:
    """The base word of wordgen, one ruler letter per position: the
    lighter layered one of the two families."""
    if n == 1:
        return [0]
    cands = [
        w for w in (capped_demoted_reference(n), tail_capped_reference(n))
        if max(w) >= n - 1 and b_bounded(w, tuple(range(2, n + 2)), True) == 1
    ]
    if not cands:
        raise ValueError(f"no base layered word of length {n}")
    return min(cands, key=kernel_weight)


@lru_cache(maxsize=32)
def _layout_reference(n: int):
    base = base_word_reference(n)
    positions = array("i", sorted(range(n), key=base.__getitem__))
    groups = []
    start = 0
    while start < n and base[positions[start]] < n - 1:
        a = base[positions[start]]
        end = start + 1
        while end < n and base[positions[end]] == a:
            end += 1
        groups.append((start, end - start, n - end + 1))
        start = end
    full = kernel_weight([a + 1 if a < n - 1 else a for a in base])
    return tuple(base), kernel_weight(base), full, positions, tuple(groups), start


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def random_valid_word_reference(n: int, k: int, rng) -> tuple[int, ...]:
    """The letters wordgen.random_valid_word sampled before long samples
    carried their rank code: the same draws, applied to a list of
    letters."""
    letters, w, full_weight, positions, groups, top = _layout_reference(n)
    budget = k * (n * (n + 1) // 2)
    if w > budget:
        raise ValueError(f"base construction weighs {w} against budget {budget}")
    if full_weight <= budget:
        bits = rng.getrandbits(2 * n)
        coins = bytearray(f"{bits | bits >> 1:0{2 * n}b}"[-1::-2].encode().translate(_BITS))
        for i in positions[top:]:
            coins[i] = 0
        letters = list(map(add, letters, coins))
    else:
        slack = budget - w
        state = [[start, size, size, cost, 0] for start, size, cost in groups]
        live = [g for g in state if g[3] <= slack]
        while live:
            r = rng.randrange(sum(g[2] for g in live) << 2)
            raise_it, r = r & 3, r >> 2
            for g in live:
                if r < g[2]:
                    break
                r -= g[2]
            g[2] -= 1
            if raise_it:
                slack -= g[3]
                g[3] += 1
                g[4] += 1
            live = [g for g in live if g[2] and g[3] <= slack]
        letters = list(letters)
        for start, size, _, _, raised in state:
            for j in rng.sample(range(size), raised):
                letters[positions[start + j]] += 1
    if rng.random() < 0.5:
        letters.reverse()
    return tuple(letters)


def find_d_decreasing_constrained(u, d: int, eps, M: int) -> Factorization | None:
    """As words.find_d_decreasing, but blocks lie in the final
    floor(eps*n) letters and every block's first letter is below M."""
    d = index(d)
    if d < 0:
        raise ValueError("d is a natural number")
    u = as_word(u)
    eps = Fraction(eps)
    if not (0 < eps <= 1):
        raise ValueError("eps lies in (0, 1]")
    n = len(u)
    return _search_decreasing_windowed(u, d, n - int(eps * n), M)


def _search_decreasing_windowed(word: Word, d: int, window_start: int,
                                letter_bound: int) -> Factorization | None:
    """words._search_decreasing with a window and a first-letter bound:
    the lex-greatest cut tuple whose first cut is at least window_start
    and whose first block starts below letter_bound. Block first letters
    never rise, so the bound needs checking on the first block alone."""
    n = len(word)
    if d == 0:
        return Factorization(word, (n,))
    if n - window_start < d:
        return None
    letters = word.letters
    memo = {}

    def best_tail(plo: int, phi: int, rem: int):
        top = min(phi - plo, n - phi)
        l = 0
        while l < top and letters[phi + l] == letters[plo + l]:
            l += 1
        if l == top or letters[phi + l] > letters[plo + l]:
            return None
        if rem == 1:
            return (n,)
        first = letters[phi]
        rem -= 1
        for end in range(n - rem, phi + l, -1):
            if letters[end] > first:
                continue
            key = (phi, end, rem)
            if key in memo:
                tail = memo[key]
            else:
                tail = memo[key] = best_tail(phi, end, rem)
            if tail is not None:
                return (end,) + tail
        return None

    for c0 in range(n - d, window_start - 1, -1):
        first = letters[c0]
        if first >= letter_bound:
            continue
        if d == 1:
            return Factorization(word, (c0, n))
        for c1 in range(n - (d - 1), c0, -1):
            if letters[c1] > first:
                continue
            tail = best_tail(c0, c1, d - 1)
            if tail is not None:
                return Factorization(word, (c0, c1) + tail)
    return None


# --- algebras: element helpers and the unitalization ---------------------

def scale_int(A: Algebra, m: int, x):
    return A.scale(A.ring.from_int(m), x)


def linear_combination(A: Algebra, pairs):
    """Sum of m * x over (integer m, element x) pairs, with one exact
    reduction per coordinate."""
    terms = [(m, *_numerators(A.ring, x)) for m, x in pairs if m]
    return _from_numerators(A.ring, *A._sum_num(terms))


def product(A: Algebra, elems):
    it = iter(elems)
    acc = next(it)
    for e in it:
        acc = A.mul(acc, e)
    return acc


def unitalize(A: Algebra) -> Algebra:
    """Adjoin a two-sided identity at basis index 0; A embeds as the
    span of the remaining coordinates."""
    r = A.rank
    table = {}
    table[(0, 0)] = {0: A.ring.one}
    for i in range(r):
        table[(0, i + 1)] = {i + 1: A.ring.one}
        table[(i + 1, 0)] = {i + 1: A.ring.one}
    for (i, j), row in A.table.items():
        table[(i + 1, j + 1)] = {k + 1: c for k, c in row.items()}
    names = ("1",) + tuple(A.basis_names)
    return Algebra(A.ring, r + 1, names, table, unit=0)


# --- derivations: the Leibniz system term by term, commutators by mul -----

def leibniz_terms(A: Algebra, rows, cols):
    """Reference for algebra._leibniz_terms, one term at a time: yields
    ((i, j, w), x, c), where coordinate w of the Leibniz residual at the
    pair (i, j) gains c * x. rows[a] lists (b, x) and cols[b] lists (a, x)
    for the entry D[a][b]; a structure constant e_s e_t = ... + c e_k
    enters through column k of D and rows s and t."""
    for s, row in enumerate(A._rows):
        for t, consts in row:
            for k, c in consts:
                for u, x in cols[k]:
                    yield (s, t, u), x, c  # D(e_s e_t), coordinate u
                for u, x in rows[s]:
                    yield (u, t, k), x, -c  # D[s][u] e_s e_t in D(e_u) e_t
                for u, x in rows[t]:
                    yield (s, u, k), x, -c  # D[t][u] e_s e_t in e_s D(e_u)


def derivation_space(A: Algebra) -> list[tuple[tuple, ...]]:
    """Reference for algebra.derivation_space: the Leibniz equations
    collected per (i, j, w) key in dicts, made dense, and solved by the
    public `nullspace` on those rows."""
    r = A.rank
    unknown_rows = [tuple((b, a * r + b) for b in range(r)) for a in range(r)]
    unknown_cols = [tuple((a, a * r + b) for a in range(r)) for b in range(r)]
    eqs: dict = {}
    for key, col, c in leibniz_terms(A, unknown_rows, unknown_cols):
        eq = eqs.setdefault(key, {})
        eq[col] = eq.get(col, 0) + c
    rows = []
    for eq in eqs.values():
        dense = [0] * (r * r)
        for col, v in eq.items():
            dense[col] = v
        rows.append(dense)
    basis = nullspace(rows or [[0] * (r * r)], A.ring)
    return [
        tuple(tuple(flat[a * r + b] for b in range(r)) for a in range(r))
        for flat in basis
    ]


def inner_derivation(A: Algebra, u) -> Derivation:
    """Reference for algebra.inner_derivation: column j is u e_j - e_j u,
    built with `Algebra.mul` and `Algebra.sub`."""
    cols = []
    for j in range(A.rank):
        e = A.basis_element(j)
        cols.append(A.sub(A.mul(u, e), A.mul(e, u)))
    return Derivation(tuple(tuple(cols[j][i] for j in range(A.rank)) for i in range(A.rank)))


# --- Ore polynomials: single steps and plain products -------------------------

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


def ore_product(A: Algebra, delta: Derivation, polys) -> DiffPoly:
    it = iter(polys)
    acc = next(it)
    for p in it:
        acc = ore_multiply(A, delta, acc, p)
    return acc


def rewrite_product_merged(A: Algebra, delta: Derivation, generators, head: int,
                           indices, exponents, k: int) -> list[CanonicalTerm]:
    """Reference for orepoly.rewrite_product: the same walk, in any order,
    with the terms merged by (j-word, x-degree) in a dict, sorted, and
    zero sums dropped. Visits the same partial products against the same
    orepoly.DEFAULT_REWRITE_BUDGET."""
    gens, head, gen_indices, exps = orepoly._check_factors(A, delta, generators, head, indices,
                                                           exponents)
    n = len(gen_indices)
    if max(exps) > k:
        raise ExponentTooLarge(f"exponents {exps} exceed k={k}")

    chain_len = {i: len(delta._chain(A.ring, gens[i], sum(exps))) for i in set(gen_indices)}
    reach = [chain_len[i] for i in gen_indices]

    budget = orepoly.DEFAULT_REWRITE_BUDGET
    visited = 0
    out: dict = {}
    if not A.is_zero_elem(gens[head]):
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
