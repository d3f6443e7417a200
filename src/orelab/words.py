"""Combinatorics on words: weights, validity, boundedness, decreasing
factorizations, and the constructive bound recursion with its witness
builder.

Letters are natural numbers; the order on words is prefix-lexicographic
(words where one is a strict prefix of the other are incomparable). All
arithmetic is exact: integers and Fractions only. Integer parameters (k, d,
lengths) go through operator.index, as letters do, so k = 1.5 raises
TypeError rather than giving a verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm
from operator import index

from . import _kernels as kernels
from .errors import (
    BudgetExceeded,
    ConstructionFailed,
    InsufficientBoundData,
    PreconditionViolated,
)

DEFAULT_ORACLE_BUDGET = 4_000_000


class Ordering(enum.Enum):
    EQUAL = "equal"
    LESS = "less"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


_CODE_TO_ORDERING = {
    0: Ordering.EQUAL,
    -1: Ordering.LESS,
    1: Ordering.GREATER,
    2: Ordering.INCOMPARABLE,
}


@dataclass(frozen=True)
class Word:
    """Nonempty finite sequence of natural-number letters.

    Letters go through operator.index, so a float or a string letter
    raises TypeError rather than being truncated or parsed.

    Every Word memoises its `_kernels.b_bounded` code per BoundSequence
    (equal sequences share one entry), so a second ask on the same
    sequence is a lookup. A long Word (at least `_kernels.LONG_WORD`
    letters) also memoises its weight and, when it holds at most 256
    distinct letters, its `_kernels.rank_code`, which the weight and the
    boundedness kernel both read; a short word is weighed afresh every
    time, as most short words are weighed once. These are filled on first
    use, except that a long word sampled by `wordgen.random_valid_word`
    comes with its rank code and its weight already set. They are
    class-level None until filled and are not dataclass fields, so
    equality, hash and repr see the letters only.

    `Word._from_letters` builds a Word without the checks, for letters
    that are natural-number ints by construction; `Word._from_code` builds
    one from a rank code that it keeps.
    """

    letters: tuple[int, ...]

    _weight = None  # long word only
    _bounded = None  # {BoundSequence: code}
    _ranks = None  # long word: rank code, or False past 256 distinct letters

    def __init__(self, letters):
        letters = tuple(map(index, letters))
        if not letters:
            raise ValueError("words are nonempty")
        if min(letters) < 0:
            raise ValueError("letters are natural numbers")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _from_letters(cls, letters) -> Word:
        """A Word of a nonempty sequence of natural-number ints, unchecked."""
        u = object.__new__(cls)
        object.__setattr__(u, "letters", tuple(letters))
        return u

    @classmethod
    def _from_code(cls, vals, enc) -> Word:
        """A long Word of its `_kernels.rank_code` (vals, enc), unchecked,
        with the code memoised."""
        u = cls._from_letters(map(vals.__getitem__, enc))
        object.__setattr__(u, "_ranks", (vals, enc))
        return u

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __repr__(self):
        return f"Word({','.join(map(str, self.letters))})"

    def segment(self, lo: int, hi: int) -> tuple[int, ...]:
        return self.letters[lo:hi]


def as_word(u) -> Word:
    return u if isinstance(u, Word) else Word(u)


@dataclass(frozen=True)
class BoundSequence:
    """Finite prefix b_0..b_L of positive integers, optionally extended by
    the constant-tail rule b_m = b_L for m > L. Entries go through
    operator.index, as Word's letters do."""

    prefix: tuple[int, ...]
    extend_tail: bool = True

    _hash = None
    _floors = None  # `_kernels.suffix_minima` of the prefix

    def __init__(self, prefix, extend_tail: bool = True):
        prefix = tuple(map(index, prefix))
        if not prefix:
            raise ValueError("bound sequence prefix is nonempty")
        if any(b < 1 for b in prefix):
            raise ValueError("bound sequence entries are >= 1")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "extend_tail", bool(extend_tail))

    def __hash__(self):
        # a Word's boundedness memo is keyed by the sequence, whose prefix
        # can run to thousands of entries: hash it once
        h = self._hash
        if h is None:
            h = hash((self.prefix, self.extend_tail))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def floors(self) -> tuple[int, ...]:
        """floors[m] = min(prefix[m:]), built once; a nondecreasing prefix
        is its own table."""
        f = self._floors
        if f is None:
            f = kernels.suffix_minima(self.prefix)
            object.__setattr__(self, "_floors", f)
        return f

    def determines(self, m: int) -> bool:
        return m < len(self.prefix) or self.extend_tail

    def value(self, m: int) -> int:
        if m < 0:
            raise ValueError("bound index is a natural number")
        if m < len(self.prefix):
            return self.prefix[m]
        if self.extend_tail:
            return self.prefix[-1]
        raise InsufficientBoundData(m, len(self.prefix))


@dataclass(frozen=True)
class Factorization:
    """Split u = v w_1 ... w_d x recorded as d+1 ascending cut indices.

    cuts[0] ends the prefix v; block t is [cuts[t-1], cuts[t]); the suffix
    x starts at cuts[-1]. Blocks are nonempty and strictly decreasing in
    the prefix-lexicographic order. Cuts go through operator.index, as
    Word's letters do.
    """

    word: Word
    cuts: tuple[int, ...]

    def __init__(self, word: Word, cuts):
        word = as_word(word)
        cuts = tuple(map(index, cuts))
        n = len(word)
        if not cuts:
            raise ValueError("cuts carry at least the prefix/suffix split")
        if not (0 <= cuts[0] and cuts[-1] <= n):
            raise ValueError("cuts out of range")
        if any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise ValueError("blocks are nonempty, cuts strictly increase")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "cuts", cuts)
        if not self.blocks_decreasing():
            raise ValueError("blocks are not strictly decreasing")

    @property
    def block_count(self) -> int:
        return len(self.cuts) - 1

    @property
    def prefix(self) -> tuple[int, ...]:
        return self.word.segment(0, self.cuts[0])

    @property
    def blocks(self) -> list[tuple[int, ...]]:
        return [
            self.word.segment(a, b) for a, b in zip(self.cuts, self.cuts[1:])
        ]

    @property
    def suffix(self) -> tuple[int, ...]:
        return self.word.segment(self.cuts[-1], len(self.word))

    def blocks_decreasing(self) -> bool:
        letters = self.word.letters
        c = self.cuts
        for t in range(1, len(c) - 1):
            code = kernels.compare_ranges(letters, c[t - 1], c[t], c[t], c[t + 1])
            if code != 1:  # need strictly greater
                return False
        return True

    def is_valid(self) -> bool:
        """The blocks strictly decrease, as `__init__` already checked."""
        return self.blocks_decreasing()

    def satisfies_window(self, eps, M: int) -> bool:
        """Blocks lie within the final floor(eps*n) letters, and every
        block's first letter is below M. Decreasing blocks never raise
        their first letter, so the first block's is checked alone."""
        eps = Fraction(eps)
        if not (0 < eps <= 1):
            raise ValueError("eps lies in (0, 1]")
        if self.block_count == 0:
            return True
        n = len(self.word)
        c0 = self.cuts[0]
        return c0 >= n - int(eps * n) and self.word[c0] < M


@dataclass(frozen=True)
class BoundsLevel:
    """Constants chosen at one recursion depth."""

    M1: int
    N1: int
    M2: int
    N2: int


@dataclass(frozen=True)
class BoundsResult:
    M: int
    N: int
    trace: tuple[BoundsLevel, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise ValueError("bounds are positive")
        for lev in self.trace:
            if not (lev.M2 > lev.M1 and lev.N2 >= lev.N1):
                raise ValueError("level constants violate M2 > M1, N2 >= N1")


# --- basic operations -------------------------------------------------


def compare(u, v) -> Ordering:
    u, v = as_word(u), as_word(v)
    return _CODE_TO_ORDERING[kernels.compare(u.letters, v.letters)]


def weight(u) -> int:
    u = as_word(u)
    w = u._weight
    if w is None:
        letters = u.letters
        if len(letters) < kernels.LONG_WORD:
            return kernels.weight(letters)
        w = kernels.weight(letters, _ranks(u))
        object.__setattr__(u, "_weight", w)
    return w


def _ranks(u: Word):
    """The long word's memoised rank code; None for a short word or past
    256 distinct letters."""
    if len(u.letters) < kernels.LONG_WORD:
        return None
    ranks = u._ranks
    if ranks is None:
        ranks = kernels.rank_code(u.letters) or False
        object.__setattr__(u, "_ranks", ranks)
    return ranks or None


def is_k_valid(u, k: int) -> bool:
    k = index(k)
    if k < 1:
        raise ValueError("k is a positive integer")
    u = as_word(u)
    letters = u.letters
    n = len(letters)
    if n < kernels.LONG_WORD:
        return kernels.k_valid(letters, k)
    return weight(u) <= k * (n * (n + 1) // 2)


def is_b_bounded(u, b: BoundSequence) -> bool:
    u = as_word(u)
    memo = u._bounded
    if memo is None:
        memo = {}
        object.__setattr__(u, "_bounded", memo)
    code = memo.get(b)
    if code is None:
        code = memo[b] = kernels.b_bounded(
            u.letters, b.prefix, b.extend_tail, _ranks(u), b.floors
        )
    if code == -1:
        raise InsufficientBoundData(max(u.letters), len(b.prefix))
    return bool(code)


# --- decreasing factorizations ----------------------------------------


def _search_decreasing(word: Word, d: int) -> Factorization | None:
    """Lex-greatest cut tuple among valid d-block factorizations.

    Cuts are pushed as far right as possible (first cut maximal, then the
    next, and so on), which keeps results reproducible. Memoized on
    (previous block, remaining depth) in a dict local to the call.

    Interval rule: with l the common-prefix length of letters[phi:] and
    letters[plo:], block [phi, end) is strictly below block [plo, phi) iff
    l < phi - plo, letters[phi + l] < letters[plo + l] and end > phi + l.
    So a state scans l once, fails in O(l) when the letter test fails, and
    otherwise the valid ends are the interval (phi + l, n - rem + 1].

    First-letter test: a block sits strictly below the one before it only
    if its first letter is at most that block's first letter, so a
    candidate next block is skipped by one comparison before the recursive
    call. A strictly increasing word is refused by comparisons without any
    recursive call.
    """
    n = len(word)
    if d == 0:
        return Factorization(word, (n,))
    if n < d:
        return None
    if d == 1:
        return Factorization(word, (n - 1, n))
    letters = word.letters
    memo = {}

    def best_tail(plo: int, phi: int, rem: int):
        # lex-greatest tuple of cut indices finishing `rem` more blocks,
        # the next starting at phi (letters[phi] <= letters[plo], checked
        # by the caller) and required to sit strictly below
        # letters[plo:phi]; None when impossible
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

    for c0 in range(n - d, -1, -1):
        first = letters[c0]
        for c1 in range(n - (d - 1), c0, -1):
            if letters[c1] > first:
                continue
            tail = best_tail(c0, c1, d - 1)
            if tail is not None:
                return Factorization(word, (c0, c1) + tail)
    return None


def find_d_decreasing(u, d: int) -> Factorization | None:
    """Factorization u = v w_1...w_d x with strictly decreasing blocks, or
    None. d = 0 always succeeds with an empty block list."""
    d = index(d)
    if d < 0:
        raise ValueError("d is a natural number")
    return _search_decreasing(as_word(u), d)


# --- the bound recursion ----------------------------------------------


def _tail_positive_from(qa: int, qb: int, qc: int) -> int:
    """Least integer t with qa*n^2 + qb*n + qc > 0 for every integer
    n >= t, for qa > 0; clipped below at 1. Exact via isqrt."""
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return 1
    s = isqrt(disc)
    n0 = max(1, (-qb + s) // (2 * qa) - 2)
    # past the larger root iff value positive and derivative nonnegative
    while not (qa * n0 * n0 + qb * n0 + qc > 0 and 2 * qa * n0 + qb >= 0):
        n0 += 1
    return n0


def compute_bounds(d: int, b: BoundSequence, k: int, eps) -> BoundsResult:
    """Constants (M, N) of the decreasing-subword guarantee.

    Base depth 0 is (1, 1). Depth j builds on depth j - 1, whose constants
    are taken for half of depth j's eps (depth d uses eps itself). M2 is
    the least integer exceeding both M1 and 8 b_{M1}^2 k / eps^2, and N2
    is the least threshold at/after N1 from which
    M2 * C((eps n/2 - 1)/b_{M1}, 2) > k * C(n+1, 2) holds for all n
    (generalized binomial; exact rational root isolation). Strictness
    N2 > N1 is restored by bumping on equality.
    """
    d, k = index(d), index(k)
    if d < 0:
        raise ValueError("d is a natural number")
    if k < 1:
        raise ValueError("k is a positive integer")
    eps = Fraction(eps)
    if not (0 < eps <= 1):
        raise ValueError("eps lies in (0, 1]")

    M1, N1 = 1, 1
    trace = []
    e = eps / 2 ** d
    for _ in range(d):
        e *= 2
        b1 = b.value(M1)

        bound_ii = Fraction(8 * b1 * b1 * k) / (e * e)
        M2 = max(M1 + 1, int(bound_ii) + 1)

        # difference quadratic M2*C((e n/2 - 1)/b1, 2) - k*C(n+1, 2) in n
        a_lin = e / (2 * b1)            # y = a_lin*n + c_lin
        c_lin = Fraction(-1, b1)
        qa = Fraction(M2, 2) * a_lin * a_lin - Fraction(k, 2)
        qb = Fraction(M2, 2) * (2 * a_lin * c_lin - a_lin) - Fraction(k, 2)
        qc = Fraction(M2, 2) * (c_lin * c_lin - c_lin)
        if qa <= 0:
            raise ConstructionFailed("difference quadratic lost its positive lead")
        den = lcm(qa.denominator, qb.denominator, qc.denominator)
        n0 = _tail_positive_from(int(qa * den), int(qb * den), int(qc * den))

        N2 = max(n0, N1)
        if N2 == N1:
            N2 += 1
        trace.append(BoundsLevel(M1, N1, M2, N2))
        M1, N1 = M2, N2
    return BoundsResult(M1, N1, tuple(trace))


# --- the recursive witness construction --------------------------------


def decreasing_witness(u, d: int, b: BoundSequence, k: int, eps,
                   bounds: BoundsResult | None = None) -> Factorization:
    """Build the guaranteed decreasing factorization for a valid word.

    The word must be k-valid, b-bounded, and at least N letters long for
    the (M, N) of compute_bounds(d, b, k, eps); these are checked, as are
    d, eps and the depth of a given `bounds`. The construction follows
    the recursion: split u = v w x with |wx| = floor(eps n) and |x| =
    floor(eps n / 2), scan w in segments of length b_{M1} for a letter in
    [M1, M2), then recurse on the suffix window at depth d-1 with eps/2
    and prepend the block starting at that letter.
    """
    u = as_word(u)
    d, k = index(d), index(k)
    eps = Fraction(eps)
    if d < 0:
        raise ValueError("d is a natural number")
    if not (0 < eps <= 1):
        raise ValueError("eps lies in (0, 1]")
    if bounds is None:
        bounds = compute_bounds(d, b, k, eps)
    if len(bounds.trace) != d:
        raise ValueError(f"bounds have {len(bounds.trace)} levels, d is {d}")
    n = len(u)
    if not is_k_valid(u, k):
        raise PreconditionViolated(f"word is not {k}-valid")
    if not is_b_bounded(u, b):
        raise PreconditionViolated("word is not b-bounded")
    if n < bounds.N:
        raise PreconditionViolated(
            f"word length {n} is below the guarantee threshold N={bounds.N}"
        )
    cuts = _witness_cuts(u.letters, d, b, eps.numerator, eps.denominator,
                         bounds.trace, n)
    return Factorization(u, cuts)


def _witness_cuts(letters, level: int, b: BoundSequence, num: int, den: int,
                  trace: tuple[BoundsLevel, ...], n: int) -> tuple[int, ...]:
    # eps = num/den at this level; floors in integers, eps/2 by doubling den
    if level == 0:
        return (n,)
    lev = trace[level - 1]
    wx_len = num * n // den
    x_len = num * n // (2 * den)
    w_start = n - wx_len
    x_start = n - x_len
    b1 = b.value(lev.M1)
    j = (x_start - w_start) // b1
    scan_end = w_start + j * b1
    pos = -1
    for t in range(w_start, scan_end):
        if lev.M1 <= letters[t] < lev.M2:
            pos = t
            break
    if pos < 0:
        raise ConstructionFailed(
            f"no letter in [{lev.M1}, {lev.M2}) in the scanned segments; "
            "preconditions should make this impossible"
        )
    tail = _witness_cuts(letters, level - 1, b, num, 2 * den, trace, n)
    return (pos,) + tail


# --- empirical minimal-length oracle -----------------------------------


def _oracle_candidates(n: int, cap: int, limit: int, bounds):
    """Words of length n over 0..cap, in lexicographic order, none of
    whose prefixes is pruned.

    A prefix is pruned when its weight exceeds `limit` (appending a letter
    c adds c + sum(min(x, c)) to the weight, so weight never falls and that
    increment grows with c), or when it holds a run of letters <= m of
    length >= b_m for some m < len(bounds) (no extension is bounded).

    Each node costs O(top) once and O(1) per letter it tries. The weight
    increment is carried from c - 1 to c: it grows by 1 plus the number of
    prefix letters >= c, read off per-letter counts. The run test is a
    suffix-OR over m: appending c closes a run that is too long iff some
    m >= c has runs[m] + 1 >= b_m, so the letters refused are exactly
    those up to the largest such m, `dead`. The child's run tuple is built
    only for a letter that is kept.
    """
    top = min(cap, len(bounds) - 1)
    if n >= min(bounds[top + 1:], default=n + 1):
        return  # for m in (cap, L) every word is one run of letters <= m
    low = bounds[:top + 1]
    alphabet = range(cap + 1)
    zeros = (0,) * (top + 1)
    counts = [0] * (cap + 1)  # counts[v]: letters v in the current prefix

    def grow(prefix, w, runs):
        # runs[m]: length of the run of letters <= m ending the prefix
        dead = -1
        for m in range(top, -1, -1):
            if runs[m] + 1 >= low[m]:
                dead = m
                break
        leaf = len(prefix) + 1 == n
        wc = w
        at_least = len(prefix)  # prefix letters >= c
        for c in alphabet:
            if c:
                at_least -= counts[c - 1]
                wc += 1 + at_least
            if wc > limit:
                break
            if c <= dead:
                continue
            word = prefix + (c,)
            if leaf:
                yield word
            else:
                counts[c] += 1
                yield from grow(word, wc, zeros[:c] + tuple([r + 1 for r in runs[c:]]))
                counts[c] -= 1

    yield from grow((), 0, zeros)


def _oracle_length_ok(d: int, b: BoundSequence, k: int, n: int, cap: int) -> bool:
    """Every valid word of length n over 0..cap has the subword; the walk
    stops at the first word without it. Under minimal_N_oracle's
    conditions the candidates are exactly the k-valid, b-bounded words."""
    limit = k * (n * (n + 1) // 2)
    for tup in _oracle_candidates(n, cap, limit, b.prefix):
        w = Word._from_letters(tup)
        is_k_valid(w, k)  # cannot fail; perfbench's traced oracle counts words by it
        if find_d_decreasing(w, d) is None:
            return False
    return True


def minimal_N_oracle(d: int, b: BoundSequence, k: int, max_n: int,
                     max_letter: int, workers: int = 1) -> int | None:
    """Smallest n <= max_n such that every k-valid, b-bounded word of
    length n over letters 0..max_letter has a d-decreasing subword; None
    when no such n exists within max_n. Letters above k*C(n+1,2) cannot
    occur in a k-valid word and are excluded from the enumeration.

    Each length is one serial walk, depth first in lexicographic order,
    that stops at the first word without the subword. A prefix is dropped
    once its weight exceeds k*C(n+1, 2), or once it holds a run of letters
    <= m of length >= b_m for some m < L = the length of b's prefix. A
    length is vacuously settled when the tail extends and b_{L-1} <= n (no
    word of that length is bounded). Without the tail, a length whose
    letters reach L raises InsufficientBoundData: (L, 0, ..., 0) is
    k-valid and b cannot judge it. So every length walked has n < b_{L-1}
    (with the tail) or letters below L (without it), and there the words
    left are exactly the k-valid, b-bounded ones: each goes straight to
    the decreasing search. The budget DEFAULT_ORACLE_BUDGET counts the words before pruning,
    over the lengths before the first vacuously settled one, and is
    priced before any length is searched.

    `workers` is accepted and ignored.
    """
    d, k, max_n, max_letter = index(d), index(k), index(max_n), index(max_letter)
    if max_n < 1:
        raise ValueError("max_n is at least 1")
    if d < 0:
        raise ValueError("d is a natural number")
    if k < 1:
        raise ValueError("k is a positive integer")
    if max_letter < 0:
        raise ValueError("max_letter is a natural number")
    vacuous = b.prefix[-1] if b.extend_tail and b.prefix[-1] <= max_n else None
    lengths = range(1, vacuous or max_n + 1)
    caps = [min(max_letter, k * (n * (n + 1) // 2)) for n in lengths]
    total = sum((cap + 1) ** n for n, cap in zip(lengths, caps))
    budget = DEFAULT_ORACLE_BUDGET
    if total > budget:
        raise BudgetExceeded(
            f"oracle would enumerate {total} words, budget is {budget}"
        )
    for n, cap in zip(lengths, caps):
        if not b.extend_tail and cap >= len(b.prefix):
            raise InsufficientBoundData(len(b.prefix), len(b.prefix))
        if _oracle_length_ok(d, b, k, n, cap):
            return n
    return vacuous
