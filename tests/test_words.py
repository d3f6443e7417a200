"""Word combinatorics: orders, weights, validity, boundedness, decreasing
factorizations, the bound recursion, and the witness construction."""

import itertools
import random
import re
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orelab import _kernels
from orelab.errors import InsufficientBoundData, PreconditionViolated
from orelab.wordgen import _base_word, arithmetic_bounds, random_valid_word
from orelab.words import (
    BoundSequence,
    BoundsResult,
    Factorization,
    Ordering,
    Word,
    _oracle_candidates,
    compare,
    compute_bounds,
    find_d_decreasing,
    is_b_bounded,
    is_k_valid,
    minimal_N_oracle,
    decreasing_witness,
    weight,
)
from reference import (
    FactorialCapExceeded,
    find_d_decreasing_constrained,
    oracle_candidates_bruteforce,
    weight_bruteforce,
)

words = st.lists(st.integers(0, 6), min_size=1, max_size=7).map(tuple)


# --- Word ---------------------------------------------------------------

def test_word_validation():
    assert Word([1, True, 0]).letters == (1, 1, 0)
    with pytest.raises(ValueError, match="words are nonempty"):
        Word(())
    with pytest.raises(ValueError, match="letters are natural numbers"):
        Word((3, -1))
    # non-integral letters are refused, not truncated or parsed
    for bad in ((1.7, 2), (2.0,), (Fraction(3, 2),), ("2", 0)):
        with pytest.raises(TypeError):
            Word(bad)
    # cuts are refused the same way
    with pytest.raises(TypeError):
        Factorization(Word((3, 2, 1)), (0.9, 1.5, 2.7))


def test_bound_sequence_validation():
    assert BoundSequence([2, 3]).prefix == (2, 3)
    with pytest.raises(ValueError, match="entries are >= 1"):
        BoundSequence((2, 0))
    for bad in ((2.5,), (2, 3.0), ("4",)):
        with pytest.raises(TypeError):
            BoundSequence(bad)


# --- compare ------------------------------------------------------------

def test_compare_prefix_incomparable():
    assert compare((1, 2), (1, 2, 5)) is Ordering.INCOMPARABLE
    assert compare((1, 2, 5), (1, 2)) is Ordering.INCOMPARABLE


def test_compare_lexicographic():
    assert compare((1, 3, 0), (1, 2, 9, 9)) is Ordering.GREATER
    assert compare((1, 2, 9, 9), (1, 3, 0)) is Ordering.LESS


def test_compare_equal():
    assert compare((4,), (4,)) is Ordering.EQUAL


@given(words, words)
def test_compare_antisymmetric(u, v):
    a, b = compare(u, v), compare(v, u)
    flip = {
        Ordering.LESS: Ordering.GREATER,
        Ordering.GREATER: Ordering.LESS,
        Ordering.EQUAL: Ordering.EQUAL,
        Ordering.INCOMPARABLE: Ordering.INCOMPARABLE,
    }
    assert b is flip[a]
    assert (a is Ordering.EQUAL) == (u == v)


# --- weight -------------------------------------------------------------

def test_weight_examples():
    assert weight((0, 0, 0)) == 0
    assert weight((7,)) == 7
    assert weight((2, 1)) == 4


def test_weight_bruteforce_examples():
    assert weight_bruteforce((2, 1)) == 4
    assert weight_bruteforce((0, 0)) == 0
    assert weight_bruteforce((5, 0, 0)) == 5


def test_weight_bruteforce_cap():
    with pytest.raises(FactorialCapExceeded):
        weight_bruteforce(tuple(range(9)))


@given(words)
def test_weight_matches_bruteforce(u):
    assert weight(u) == weight_bruteforce(u)


@given(words, st.randoms(use_true_random=False))
def test_weight_permutation_invariant(u, rnd):
    shuffled = list(u)
    rnd.shuffle(shuffled)
    assert weight(u) == weight(tuple(shuffled))


# --- k-validity ---------------------------------------------------------

def test_k_valid_boundary():
    # weight equals the threshold exactly
    assert weight((1, 1, 1)) == 6
    assert is_k_valid((1, 1, 1), 1)


def test_k_valid_examples():
    assert not is_k_valid((2, 1), 1)
    # every word with letters <= k is valid termwise
    assert is_k_valid((2, 2, 2, 2), 2)


@given(words, st.integers(1, 3), st.randoms(use_true_random=False))
def test_k_valid_permutation_invariant(u, k, rnd):
    shuffled = list(u)
    rnd.shuffle(shuffled)
    assert is_k_valid(u, k) == is_k_valid(tuple(shuffled), k)


@given(words)
def test_k_valid_whenever_letters_at_most_k(u):
    # termwise bound: weight <= max(u) * C(n+1, 2)
    k = max(max(u), 1)
    assert is_k_valid(u, k)


# --- b-boundedness ------------------------------------------------------

def test_b_bounded_examples():
    assert not is_b_bounded((0, 1, 0, 1), BoundSequence((2, 4)))
    assert is_b_bounded((2, 0, 2, 0), BoundSequence((2, 4, 5)))
    assert not is_b_bounded((0, 0), BoundSequence((2,)))


def test_b_bounded_no_tail_matches_prefix_only_semantics():
    # without the tail rule the check covers only the declared entries
    assert is_b_bounded((2, 0, 2, 0), BoundSequence((2, 4, 5), extend_tail=False))


def test_b_bounded_insufficient_data():
    with pytest.raises(InsufficientBoundData):
        is_b_bounded((0, 3, 0), BoundSequence((2, 4), extend_tail=False))


def test_all_ones_bounds_admit_no_words():
    ones = BoundSequence((1,))
    for n in range(1, 5):
        for letters in itertools.product(range(5), repeat=n):
            assert not is_b_bounded(letters, ones)


def _b_bounded_naive(letters, b: BoundSequence) -> bool:
    n = len(letters)
    top = max(max(letters), len(b.prefix) - 1)
    for m in range(top + 1):
        if not b.determines(m):
            continue
        bm = b.value(m)
        for s in range(n - bm + 1):
            if all(a <= m for a in letters[s:s + bm]):
                return False
    return True


@given(st.lists(st.integers(0, 8), min_size=1, max_size=24).map(tuple),
       st.lists(st.integers(1, 30), min_size=1, max_size=10), st.booleans())
def test_b_bounded_matches_naive(u, prefix, tail):
    b = BoundSequence(prefix, extend_tail=tail)
    if not tail and len(prefix) <= max(u):
        with pytest.raises(InsufficientBoundData):
            is_b_bounded(u, b)
    else:
        assert is_b_bounded(u, b) == _b_bounded_naive(u, b)


def _longest_run(letters, m):
    best = cur = 0
    for a in letters:
        cur = cur + 1 if a <= m else 0
        best = max(best, cur)
    return best


@st.composite
def long_bounded_cases(draw):
    """Words of 64 letters or more with a bound sequence one letter above
    each longest run (the tightest bounded one) and at most one entry
    lowered onto its run. Narrow alphabets take the kernel's byte path;
    the wide words are permutations of 256 letters or more checked
    against prefixes that reach past 255 letters, which take its stack
    path."""
    tail = draw(st.booleans())
    if draw(st.booleans()):
        n = draw(st.integers(64, 160))
        top = draw(st.sampled_from((1, 3, 8, 40)))
        step = draw(st.sampled_from((1, 3)))  # 3: some m lie between letters
        letters = st.integers(0, top).map(step.__mul__)
        u = tuple(draw(st.lists(letters, min_size=n, max_size=n)))
    else:
        n = draw(st.integers(256, 300))
        u = tuple(draw(st.permutations(range(n))))
    # without the tail the prefix must cover the top letter; with it,
    # letters above the prefix are walls
    if not tail:
        lo = max(u) + 1
    else:
        lo = 257 if n > 255 else 1
    L = draw(st.integers(lo, max(u) + 3))
    prefix = [_longest_run(u, m) + 1 for m in range(L)]
    if tail:
        prefix[-1] = n + 1  # the tail serves every m >= L, where the run is n
    miss = draw(st.none() | st.integers(0, L - 1))
    if miss is not None and prefix[miss] > 1:
        prefix[miss] -= 1
    return u, BoundSequence(prefix, extend_tail=tail)


@settings(max_examples=60, deadline=None)
@given(long_bounded_cases())
def test_b_bounded_matches_naive_on_long_words(case):
    u, b = case
    assert is_b_bounded(u, b) == _b_bounded_naive(u, b)


# --- the per-Word memo ----------------------------------------------------

def _count_kernel_calls(monkeypatch, names=("weight", "b_bounded")):
    """Wrap the named _kernels functions; returns the call Counter."""
    calls = Counter()
    for name in names:
        def counting(*args, _real=getattr(_kernels, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(_kernels, name, counting)
    return calls


MEMO_BOUNDS = (
    BoundSequence((2, 3, 4)),
    BoundSequence((2, 4, 6, 8), extend_tail=False),
    BoundSequence(range(2, 40)),
    BoundSequence(range(3, 300), extend_tail=False),
    BoundSequence((400,)),
)


def test_memo_matches_fresh_kernels(monkeypatch):
    rng = random.Random(41)
    cases = [tuple(rng.randrange(top) for _ in range(n))
             for n in (1, 5, 40, 63, 64, 200, 700) for top in (3, 12, 90)]
    cases += [random_valid_word(n, k, rng).letters for n in (20, 200) for k in (1, 2)]
    for letters in cases:
        u = Word(letters)
        for _ in range(2):  # the second pass reads the memo
            assert weight(u) == _kernels.weight(letters)
            n = len(letters)
            for k in (1, 2, 3):
                assert is_k_valid(u, k) == (_kernels.weight(letters) <= k * n * (n + 1) // 2)
            for b in MEMO_BOUNDS:
                code = _kernels.b_bounded(letters, b.prefix, b.extend_tail)
                if code == -1:
                    with pytest.raises(InsufficientBoundData):
                        is_b_bounded(u, b)
                else:
                    assert is_b_bounded(u, b) == bool(code)
    # every fact was computed once per word, the rest were lookups
    calls = _count_kernel_calls(monkeypatch)
    u = Word(cases[-1])
    for _ in range(3):
        weight(u), is_k_valid(u, 1)
        for b in MEMO_BOUNDS:
            try:
                is_b_bounded(u, b)
            except InsufficientBoundData:
                pass
    assert calls == {"weight": 1, "b_bounded": len(MEMO_BOUNDS)}


def test_memo_keeps_verdicts_per_bound_sequence():
    u = Word((0, 1, 0, 1) * 20)
    loose = BoundSequence((2, 81))
    tight = BoundSequence((2, 4))
    for _ in range(3):
        assert is_b_bounded(u, loose)
        assert not is_b_bounded(u, tight)


def test_memo_shares_equal_bound_sequences(monkeypatch):
    u = random_valid_word(200, 1, random.Random(2))
    b = arithmetic_bounds(200)
    twin = BoundSequence(b.prefix, extend_tail=b.extend_tail)
    assert twin == b and twin is not b and hash(twin) == hash(b)
    calls = _count_kernel_calls(monkeypatch)
    assert is_b_bounded(u, b) and is_b_bounded(u, twin)
    assert calls == {"b_bounded": 1}


def test_memo_raises_every_time_b_cannot_judge():
    for letters in ((0, 3, 0), (0, 1, 5) * 30):
        u = Word(letters)
        b = BoundSequence((2, 4), extend_tail=False)
        for _ in range(3):
            with pytest.raises(InsufficientBoundData):
                is_b_bounded(u, b)


def test_memo_leaves_equality_hash_and_repr_alone():
    letters = random_valid_word(200, 1, random.Random(3)).letters
    checked, fresh = Word(letters), Word(letters)
    assert weight(checked) > 0 and is_b_bounded(checked, arithmetic_bounds(200))
    assert checked == fresh and hash(checked) == hash(fresh)
    assert repr(checked) == repr(fresh)
    assert fresh in {checked} and {checked: 1}[fresh] == 1


# --- decreasing factorizations -------------------------------------------

def _all_factorizations(word: Word, d: int):
    n = len(word)
    for cuts in itertools.combinations(range(n + 1), d + 1):
        try:
            f = Factorization(word, cuts)
        except ValueError:
            continue
        if f.is_valid():
            yield f


def test_find_d_decreasing_examples():
    f = find_d_decreasing((3, 2, 1), 2)
    assert f.prefix == (3,) and f.blocks == [(2,), (1,)] and f.suffix == ()
    assert find_d_decreasing((1, 1, 1, 1), 2) is None
    # (1, 1), (1), (0) fails: a block that is a prefix of the one before
    # it is incomparable, not smaller
    assert find_d_decreasing((1, 1, 1, 0), 3) is None
    # d=1 always succeeds and the greedy keeps the last letter as the block
    f1 = find_d_decreasing((5, 0, 9), 1)
    assert f1.blocks == [(9,)]


def test_find_d_decreasing_zero():
    f = find_d_decreasing((4, 4), 0)
    assert f.block_count == 0 and f.is_valid()


@given(st.lists(st.integers(0, 3), min_size=1, max_size=8).map(tuple),
       st.integers(1, 3))
def test_find_matches_exhaustive_enumeration(u, d):
    word = Word(u)
    found = find_d_decreasing(word, d)
    brute = list(_all_factorizations(word, d))
    if found is None:
        assert not brute
    else:
        assert found.is_valid()
        assert brute
        # the deterministic tie-break picks the right-most cut tuple
        assert found.cuts == max(f.cuts for f in brute)


def test_constrained_examples():
    f = find_d_decreasing_constrained((9, 9, 3, 2, 1), 2, Fraction(3, 5), 4)
    assert f.blocks == [(2,), (1,)]
    assert f.satisfies_window(Fraction(3, 5), 4)
    f0 = find_d_decreasing_constrained((9, 9), 0, Fraction(1, 2), 1)
    assert f0.block_count == 0
    assert find_d_decreasing_constrained((9, 9, 3, 2, 1), 2, Fraction(1, 5), 4) is None


@given(st.lists(st.integers(0, 4), min_size=2, max_size=8).map(tuple),
       st.integers(1, 2), st.fractions(min_value=Fraction(1, 4), max_value=1),
       st.integers(1, 5))
def test_constrained_output_satisfies_predicate(u, d, eps, M):
    f = find_d_decreasing_constrained(u, d, eps, M)
    if f is not None:
        assert f.is_valid()
        assert f.satisfies_window(eps, M)


def test_satisfies_window_refuses_eps_outside_unit_interval():
    f = find_d_decreasing((9, 9, 3, 2, 1), 2)
    assert f.satisfies_window(1, 4) and f.satisfies_window(Fraction(3, 5), 4)
    for eps in (2, -1, 0, Fraction(6, 5)):
        with pytest.raises(ValueError, match=re.escape("eps lies in (0, 1]")):
            f.satisfies_window(eps, 4)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=7).map(tuple), st.integers(0, 3),
       st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8),
       st.integers(0, 4))
def test_satisfies_window_matches_every_block_check(u, d, eps, M):
    # the first block's first letter stands for every block's
    n = len(u)
    for f in _all_factorizations(Word(u), d):
        expected = all(c >= n - int(eps * n) and u[c] < M for c in f.cuts[:-1])
        assert f.satisfies_window(eps, M) == expected


def _end_by_end_search(letters, d, window_start, letter_bound):
    """Reference cut tuple: compares the block at every candidate end."""
    n = len(letters)
    if d == 0:
        return (n,)
    if n - window_start < d:
        return None

    @lru_cache(maxsize=None)
    def best_tail(plo, phi, rem):
        if rem == 0:
            return ()
        if n - phi < rem:
            return None
        if letter_bound is not None and letters[phi] >= letter_bound:
            return None
        for end in range(n - (rem - 1), phi, -1):
            if compare(letters[phi:end], letters[plo:phi]) is Ordering.LESS:
                tail = best_tail(phi, end, rem - 1)
                if tail is not None:
                    return (end,) + tail
        return None

    for c0 in range(n - d, window_start - 1, -1):
        if letter_bound is not None and letters[c0] >= letter_bound:
            continue
        for c1 in range(n - (d - 1), c0, -1):
            tail = best_tail(c0, c1, d - 1)
            if tail is not None:
                return (c0, c1) + tail
    return None


search_words = st.sampled_from((1, 3, 6)).flatmap(
    lambda top: st.lists(st.integers(0, top), min_size=1, max_size=30).map(tuple)
) | st.sampled_from((1, 2, 3)).flatmap(
    # long words over 2 to 4 letters, where the first-letter test skips most
    lambda top: st.lists(st.integers(0, top), min_size=31, max_size=120).map(tuple)
)


@given(search_words, st.integers(1, 4))
def test_find_matches_end_by_end_search(u, d):
    f = find_d_decreasing(u, d)
    assert (None if f is None else f.cuts) == _end_by_end_search(u, d, 0, None)


@given(search_words, st.integers(1, 4),
       st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8),
       st.integers(1, 7))
def test_constrained_matches_end_by_end_search(u, d, eps, M):
    f = find_d_decreasing_constrained(u, d, eps, M)
    window_start = len(u) - int(eps * len(u))
    assert (None if f is None else f.cuts) == _end_by_end_search(u, d, window_start, M)


@pytest.mark.parametrize("letters, d", [
    (tuple(range(400)), 2),
    ((0,) * 300, 2),
    ((0, 1) * 100, 3),
])
def test_find_d_decreasing_none_on_long_words(letters, d):
    assert find_d_decreasing(letters, d) is None


@pytest.mark.parametrize("n", [2, 60, 400])
def test_find_d_decreasing_on_increasing_words(n):
    # d = 1 still keeps the last letter as the block
    assert find_d_decreasing(tuple(range(n)), 1).cuts == (n - 1, n)
    assert find_d_decreasing_constrained(tuple(range(n)), 1, 1, n).cuts == (n - 1, n)
    for d in (2, 3):
        assert find_d_decreasing(tuple(range(n)), d) is None
        assert find_d_decreasing_constrained(tuple(range(n)), d, 1, n) is None


# --- bound recursion ------------------------------------------------------

def test_bounds_base_case():
    res = compute_bounds(0, BoundSequence((5, 7)), 3, Fraction(1, 2))
    assert (res.M, res.N) == (1, 1)
    assert res.trace == ()


def test_bounds_d1_all_ones():
    res = compute_bounds(1, BoundSequence((1,)), 1, 1)
    assert (res.M, res.N) == (9, 11)
    # the derived quadratic 5n^2 - 58n + 72 is positive from 11 on
    assert 5 * 11**2 - 58 * 11 + 72 > 0
    assert 5 * 10**2 - 58 * 10 + 72 <= 0


def test_bounds_level_invariants():
    for d in (1, 2, 3):
        for k in (1, 2):
            for eps in (Fraction(1), Fraction(1, 2)):
                res = compute_bounds(d, BoundSequence((2, 3, 4)), k, eps)
                assert len(res.trace) == d
                prev_M, prev_N = 1, 1
                for lev in res.trace:
                    assert lev.M1 == prev_M and lev.N1 == prev_N
                    assert lev.M2 > lev.M1
                    assert lev.N2 > lev.N1
                    b1 = BoundSequence((2, 3, 4)).value(lev.M1)
                    assert lev.M2 > Fraction(8 * b1 * b1 * k) / (eps * eps) or lev.M2 > lev.M1
                    prev_M, prev_N = lev.M2, lev.N2


def test_bounds_condition_ii_holds_per_level():
    b = BoundSequence((2, 3, 4))
    for d, k, eps in [(1, 1, Fraction(1)), (2, 2, Fraction(1, 2))]:
        res = compute_bounds(d, b, k, eps)
        level_eps = [eps / (2 ** (d - lv)) for lv in range(1, d + 1)]
        for lev, e in zip(res.trace, level_eps):
            b1 = b.value(lev.M1)
            assert lev.M2 > Fraction(8 * b1 * b1 * k) / (e * e)


def test_bounds_deep_recursion_is_iterative():
    res = compute_bounds(1500, BoundSequence((2,)), 1, 1)
    assert len(res.trace) == 1500
    assert (res.trace[-1].M2, res.trace[-1].N2) == (res.M, res.N)


def test_bounds_insufficient_data():
    with pytest.raises(InsufficientBoundData):
        compute_bounds(2, BoundSequence((1,), extend_tail=False), 1, Fraction(1, 2))


def test_bounds_result_validates():
    with pytest.raises(ValueError):
        BoundsResult(0, 1, ())


# --- witness construction -------------------------------------------------

def test_witness_d0():
    w = Word((1, 0, 2))
    f = decreasing_witness(w, 0, BoundSequence((2, 3, 4)), 1, 1)
    assert f.block_count == 0 and f.is_valid()


def test_witness_rejects_invalid_inputs():
    b = arithmetic_bounds(32)
    with pytest.raises(PreconditionViolated):
        decreasing_witness(Word((9,) * 25), 1, b, 1, 1)  # not 1-valid
    with pytest.raises(PreconditionViolated):
        decreasing_witness(Word((0,) * 25), 1, b, 1, 1)  # not b-bounded
    good = random_valid_word(20, 1, random.Random(5))
    with pytest.raises(PreconditionViolated):
        decreasing_witness(good, 1, arithmetic_bounds(20), 1, Fraction(1, 2))  # too short


def test_witness_rejects_checked_invalid_words():
    # a word whose verdicts are already memoised is still refused, each time
    b = arithmetic_bounds(64)
    for u in (Word((9,) * 70), Word((0,) * 70)):
        is_k_valid(u, 1), is_b_bounded(u, b)
        for _ in range(2):
            with pytest.raises(PreconditionViolated):
                decreasing_witness(u, 1, b, 1, 1)


def test_witness_path_scans_the_word_once(monkeypatch):
    """Sampling, the caller's two checks and the witness on one b weigh the
    word once and scan it for boundedness once."""
    d, k, eps = 2, 1, Fraction(1, 2)
    probe = compute_bounds(d, arithmetic_bounds(4096), k, eps)
    b = arithmetic_bounds(max(probe.N, max(lev.M1 for lev in probe.trace) + 2))
    bounds = compute_bounds(d, b, k, eps)
    assert bounds.N == 9254
    random_valid_word(bounds.N, k, random.Random(0))  # builds the per-length layout
    calls = _count_kernel_calls(monkeypatch)
    u = random_valid_word(bounds.N, k, random.Random(1))
    assert is_k_valid(u, k)
    assert is_b_bounded(u, b)
    assert decreasing_witness(u, d, b, k, eps, bounds=bounds).block_count == d
    assert calls == {"weight": 1, "b_bounded": 1}


def test_witness_path_builds_one_rank_code(monkeypatch):
    """The long word's weight and its byte scan read one rank code."""
    b = arithmetic_bounds(1172)
    bounds = compute_bounds(2, b, 1, 1)
    assert bounds.N == 1172
    random_valid_word(bounds.N, 1, random.Random(0))  # builds the per-length layout
    calls = _count_kernel_calls(monkeypatch, ("rank_code", "weight", "b_bounded"))
    u = random_valid_word(bounds.N, 1, random.Random(1))
    assert is_k_valid(u, 1) and is_b_bounded(u, b)
    assert decreasing_witness(u, 2, b, 1, 1, bounds=bounds).block_count == 2
    assert calls == {"rank_code": 1, "weight": 1, "b_bounded": 1}


@pytest.mark.parametrize("k, eps, n", [(1, Fraction(1), 20), (2, Fraction(1, 2), 38)])
def test_short_witness_path_scans_the_word_once(monkeypatch, k, eps, n):
    """A d = 1 word is short; the witness's boundedness check on the
    caller's b reads the word's boundedness memo."""
    probe = compute_bounds(1, arithmetic_bounds(4096), k, eps)
    b = arithmetic_bounds(max(probe.N, max(lev.M1 for lev in probe.trace) + 2))
    bounds = compute_bounds(1, b, k, eps)
    assert bounds.N == n < _kernels.LONG_WORD
    random_valid_word(n, k, random.Random(0))  # builds the per-length layout
    calls = _count_kernel_calls(monkeypatch, ("b_bounded",))
    for seed in range(1, 6):
        u = random_valid_word(n, k, random.Random(seed))
        assert is_k_valid(u, k) and is_b_bounded(u, b)
        assert decreasing_witness(u, 1, b, k, eps, bounds=bounds).block_count == 1
    assert calls == {"b_bounded": 5}


def test_short_word_memo_keeps_alternating_bound_sequences(monkeypatch):
    u = Word((0, 1, 0, 1) * 5)
    assert len(u) < _kernels.LONG_WORD
    loose, tight = BoundSequence((2, 21)), BoundSequence((2, 4))
    blind = BoundSequence((2,), extend_tail=False)  # cannot judge the letter 1
    calls = _count_kernel_calls(monkeypatch, ("b_bounded",))
    for _ in range(3):
        assert is_b_bounded(u, loose)
        assert not is_b_bounded(u, tight)
        with pytest.raises(InsufficientBoundData):
            is_b_bounded(u, blind)
    assert calls == {"b_bounded": 3}  # one scan per sequence, then lookups
    twin = BoundSequence(blind.prefix, extend_tail=False)
    for _ in range(2):
        with pytest.raises(InsufficientBoundData):
            is_b_bounded(u, twin)
    assert not is_b_bounded(u, tight) and not is_b_bounded(u, tight)
    assert calls == {"b_bounded": 3}  # an equal sequence shares the entry


def test_sampled_word_is_an_ordinary_word():
    for n, k in ((20, 1), (38, 2), (200, 1), (1172, 1)):
        u = random_valid_word(n, k, random.Random(n))
        fresh = Word(u.letters)
        assert type(u.letters) is tuple and {type(a) for a in u} == {int}
        assert u == fresh and hash(u) == hash(fresh) and repr(u) == repr(fresh)
        assert fresh in {u} and min(u) >= 0
    # the unchecked constructor leaves Word's own checks in place
    with pytest.raises(ValueError, match="letters are natural numbers"):
        Word((2, -1))
    for bad in ((1.5,), ("3",)):
        with pytest.raises(TypeError):
            Word(bad)


def test_witness_rejects_bad_parameters():
    b = arithmetic_bounds(64)
    bounds = compute_bounds(1, b, 1, 1)
    u = random_valid_word(bounds.N, 1, random.Random(3))
    assert decreasing_witness(u, 1, b, 1, 1, bounds=bounds).block_count == 1
    # a given `bounds` does not excuse d or eps from their checks
    for eps in (0, 2, -1):
        with pytest.raises(ValueError, match="eps lies in"):
            decreasing_witness(u, 1, b, 1, eps, bounds=bounds)
    with pytest.raises(ValueError, match="d is a natural number"):
        decreasing_witness(u, -1, b, 1, 1, bounds=bounds)
    with pytest.raises(ValueError, match="bounds have 1 levels, d is 2"):
        decreasing_witness(u, 2, b, 1, 1, bounds=bounds)


def test_witness_d1_samples():
    rng = random.Random(11)
    b = arithmetic_bounds(64)
    bounds = compute_bounds(1, b, 1, 1)
    for _ in range(25):
        u = random_valid_word(bounds.N, 1, rng)
        f = decreasing_witness(u, 1, b, 1, 1, bounds=bounds)
        assert f.block_count == 1
        assert f.is_valid()
        assert f.satisfies_window(Fraction(1), bounds.M)
        assert u[f.cuts[0]] < bounds.M


def test_witness_d2_standalone_recomputes_bounds():
    rng = random.Random(13)
    b = arithmetic_bounds(1600)
    bounds = compute_bounds(2, b, 1, 1)
    u = random_valid_word(bounds.N, 1, rng)
    f = decreasing_witness(u, 2, b, 1, 1)
    assert f.block_count == 2 and f.is_valid()
    assert f.satisfies_window(Fraction(1), bounds.M)


# --- minimal-length oracle -------------------------------------------------

def test_oracle_d1_trivial():
    b = arithmetic_bounds(8)
    assert minimal_N_oracle(1, b, 1, max_n=3, max_letter=2) == 1


def test_oracle_vacuous_all_ones():
    # no word is bounded for the all-ones sequence, so every length works
    assert minimal_N_oracle(2, BoundSequence((1,)), 1, max_n=8, max_letter=3) == 1


def test_oracle_within_bound_small_grid():
    b = BoundSequence((2, 3, 4, 5, 6))
    val = minimal_N_oracle(2, b, 1, max_n=5, max_letter=4)
    if val is not None:
        assert val <= compute_bounds(2, b, 1, 1).N


def test_oracle_budget(monkeypatch):
    import orelab.words as words_mod
    from orelab.errors import BudgetExceeded

    monkeypatch.setattr(words_mod, "DEFAULT_ORACLE_BUDGET", 1000)
    with pytest.raises(BudgetExceeded):
        minimal_N_oracle(2, BoundSequence((2, 7)), 3, max_n=12, max_letter=9)


def test_oracle_prices_lengths_before_the_first_vacuous_one(monkeypatch):
    import orelab.words as words_mod
    from orelab.errors import BudgetExceeded

    # length 3 is vacuous (b_1 = 3) and returned without enumeration, so
    # 4 + 10^2 words are priced, not the 10^12 of length 12
    b = BoundSequence((2, 3))
    monkeypatch.setattr(words_mod, "DEFAULT_ORACLE_BUDGET", 104)
    assert minimal_N_oracle(2, b, 3, max_n=12, max_letter=9) == 3
    monkeypatch.setattr(words_mod, "DEFAULT_ORACLE_BUDGET", 103)
    with pytest.raises(BudgetExceeded):
        minimal_N_oracle(2, b, 3, max_n=12, max_letter=9)


def test_oracle_non_vacuous_value():
    assert minimal_N_oracle(2, BoundSequence((2, 4, 6)), 1, 7, 3) == 6


def test_oracle_rejects_bad_parameters():
    b = BoundSequence((2, 3))
    for d, k, max_letter in ((-1, 1, 2), (2, 0, 2), (2, -1, 2), (2, 1, -1)):
        with pytest.raises(ValueError):
            minimal_N_oracle(d, b, k, max_n=3, max_letter=max_letter)
    # the decreasing searches refuse a negative d the same way
    with pytest.raises(ValueError, match="d is a natural number"):
        find_d_decreasing((3, 2, 1), -1)
    with pytest.raises(ValueError, match="d is a natural number"):
        find_d_decreasing_constrained((3, 2, 1), -1, 1, 5)


def test_oracle_checks_only_unpruned_words(monkeypatch):
    import orelab.words as words_mod

    seen = []
    real = words_mod.is_k_valid

    def recording(u, k):
        seen.append(tuple(u))
        return real(u, k)

    monkeypatch.setattr(words_mod, "is_k_valid", recording)
    b = BoundSequence((2, 4, 6))
    assert minimal_N_oracle(2, b, 1, 7, 3) == 6
    assert seen
    for u in seen:
        assert real(u, 1)
        # no run of letters <= m of length b_m
        for m, bm in enumerate(b.prefix):
            assert all(max(u[s:s + bm]) > m for s in range(len(u) - bm + 1))


def test_oracle_candidates_match_bruteforce():
    rng = random.Random(20261020)
    seen_vacuous = seen_full = 0
    for _ in range(400):
        n, cap = rng.randint(1, 6), rng.randint(0, 5)
        if (cap + 1) ** n > 8000:
            cap = rng.randint(0, 2)
        bounds = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 6)))
        k = rng.randint(1, 2)
        full = k * (n * (n + 1) // 2)
        limit = full if rng.random() < 0.5 else rng.randint(0, full + 10)
        got = list(_oracle_candidates(n, cap, limit, bounds))
        assert got == list(oracle_candidates_bruteforce(n, cap, limit, bounds))
        if n >= min(bounds[min(cap, len(bounds) - 1) + 1:], default=n + 1):
            assert got == []
            seen_vacuous += 1
        if limit == full:
            assert all(is_k_valid(u, k) for u in got)
            seen_full += len(got)
    assert seen_vacuous and seen_full


def test_oracle_candidates_are_the_valid_bounded_words():
    """Under minimal_N_oracle's conditions (with the tail, n < b_{L-1};
    without it, every letter below L) the walk at limit k*C(n+1, 2) yields
    exactly the k-valid, b-bounded words, so the oracle need not re-check
    boundedness."""
    rng = random.Random(27)
    seen = Counter()
    for _ in range(300):
        tail = rng.random() < 0.5
        prefix = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 6)))
        n, cap = rng.randint(1, 6), rng.randint(0, 5)
        if tail and n >= prefix[-1] or not tail and cap >= len(prefix):
            continue
        b, k = BoundSequence(prefix, extend_tail=tail), rng.randint(1, 2)
        cap = min(cap, k * (n * (n + 1) // 2))
        got = list(_oracle_candidates(n, cap, k * (n * (n + 1) // 2), b.prefix))
        expected = [u for u in itertools.product(range(cap + 1), repeat=n)
                    if is_k_valid(u, k) and is_b_bounded(u, b)]
        assert got == expected, (prefix, tail, n, cap, k)
        seen[tail, bool(got)] += 1
    # both tail settings, each with and without surviving words
    assert len(seen) == 4


def _oracle_bruteforce(d, b, k, max_n, max_letter):
    for n in range(1, max_n + 1):
        cap = min(max_letter, k * (n * (n + 1) // 2))
        ok = True
        for u in itertools.product(range(cap + 1), repeat=n):
            # every k-valid word is judged: b may be unable to judge one
            if is_k_valid(u, k) and is_b_bounded(u, b) and ok:
                ok = next(_all_factorizations(Word(u), d), None) is not None
        if ok:
            return n
    return None


@settings(max_examples=200)
@given(st.lists(st.integers(1, 8), min_size=1, max_size=5), st.booleans(),
       st.integers(2, 3), st.integers(1, 2), st.integers(1, 5), st.integers(0, 4))
def test_oracle_matches_bruteforce(prefix, tail, d, k, max_n, max_letter):
    b = BoundSequence(prefix, extend_tail=tail)
    try:
        expected = _oracle_bruteforce(d, b, k, max_n, max_letter)
    except InsufficientBoundData:
        with pytest.raises(InsufficientBoundData):
            minimal_N_oracle(d, b, k, max_n, max_letter)
    else:
        assert minimal_N_oracle(d, b, k, max_n, max_letter) == expected


def test_oracle_searches_once_per_failing_length(monkeypatch):
    import orelab.words as words_mod

    calls = []
    real = words_mod.find_d_decreasing

    def recording(u, d):
        calls.append(tuple(u))
        return real(u, d)

    monkeypatch.setattr(words_mod, "find_d_decreasing", recording)
    # each of lengths 1..9 fails at its first valid bounded word, so the
    # walk stops there: one search per length
    assert minimal_N_oracle(3, BoundSequence((2, 4, 6, 8, 10)), 1, 9, 4) is None
    assert len(calls) == 9
    assert [len(u) for u in calls] == list(range(1, 10))


# --- non-integral parameters -------------------------------------------------

_B = BoundSequence((2, 4, 6))
NON_INTEGRAL = {
    "is_k_valid": lambda: is_k_valid((1, 0, 2), 1.5),
    "random_valid_word_k": lambda: random_valid_word(20, 1.5, random.Random(0)),
    "random_valid_word_n": lambda: random_valid_word(20.0, 1, random.Random(0)),
    "compute_bounds_k": lambda: compute_bounds(1, _B, 1.5, 1),
    "compute_bounds_d": lambda: compute_bounds(1.0, _B, 1, 1),
    "decreasing_witness_k": lambda: decreasing_witness((1, 0, 2), 0, _B, 1.5, 1),
    "decreasing_witness_d": lambda: decreasing_witness((1, 0, 2), 0.5, _B, 1, 1),
    "minimal_N_oracle_k": lambda: minimal_N_oracle(2, _B, 1.5, 5, 3),
    "minimal_N_oracle_d": lambda: minimal_N_oracle(Fraction(2), _B, 1, 5, 3),
    "minimal_N_oracle_max_n": lambda: minimal_N_oracle(2, _B, 1, 5.0, 3),
    "find_d_decreasing": lambda: find_d_decreasing((3, 2, 1), 1.5),
    "find_d_decreasing_constrained": lambda: find_d_decreasing_constrained((3, 2, 1), 1.5, 1, 5),
}


@pytest.mark.parametrize("call", NON_INTEGRAL.values(), ids=NON_INTEGRAL.keys())
def test_non_integral_parameters_are_refused(call):
    # refused at the entry point, as a non-integral letter is
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


# --- generator sanity -------------------------------------------------------

@pytest.mark.parametrize("n", [2, 5, 20, 38, 64, 200, 1172])
@pytest.mark.parametrize("k", [1, 2])
def test_random_valid_word_is_valid(n, k, rng):
    b = arithmetic_bounds(n)
    for _ in range(5):
        u = random_valid_word(n, k, rng)
        assert len(u) == n
        assert max(u) == n - 1
        assert is_k_valid(u, k)
        assert is_b_bounded(u, b)


@pytest.mark.parametrize("n", [0, -1, -7])
def test_random_valid_word_rejects_short_lengths(n):
    with pytest.raises(ValueError, match=f"length must be at least 1, got {n}"):
        random_valid_word(n, 1, random.Random(0))


@pytest.mark.parametrize("n", [257, 513, 1025])
def test_random_valid_word_thin_lengths(n):
    budget = n * (n + 1) // 2
    with pytest.raises(ValueError, match=rf"weighs \d+ against budget {budget}$") as info:
        random_valid_word(n, 1, random.Random(0))
    assert int(re.search(r"weighs (\d+)", str(info.value)).group(1)) > budget


def _raise_in_order(start, k, order, coin):
    """The process random_valid_word draws from, for one visiting order:
    a letter a < n - 1 is raised when the slack still pays its cost
    t_{a+1} + 1 (t_v = #letters >= v) and then coin(i) is true."""
    n = len(start)
    budget = k * (n * (n + 1) // 2)
    letters = list(start)
    w = weight(letters)
    counts = [0] * (n + 2)
    for a in letters:
        if a:
            counts[min(a, n)] += 1
    for v in range(n - 1, 0, -1):
        counts[v] += counts[v + 1]
    for i in order:
        a = letters[i]
        if a >= n - 1:
            continue
        cost = counts[a + 1] + 1
        if w + cost > budget or not coin(i):
            continue
        letters[i] = a + 1
        counts[a + 1] += 1
        w += cost
    return tuple(letters)


def _shuffle_and_coin(base, k, rng):
    """Reference sampler, run literally: optional reflection, a shuffled
    visiting order and a 3/4 coin for each payable position."""
    start = list(base)
    if rng.random() < 0.5:
        start.reverse()
    order = list(range(len(start)))
    rng.shuffle(order)
    return _raise_in_order(start, k, order, lambda i: rng.random() >= 0.25)


def _shuffle_and_coin_law(n, k):
    """Exact law of _shuffle_and_coin: every reflection, order and coin
    vector, a raise weighing 3 against 1 for a skip."""
    law = Counter()
    base = _base_word(n)
    for start in (base, base[::-1]):
        for order in itertools.permutations(range(n)):
            for coins in itertools.product((True, False), repeat=n):
                law[_raise_in_order(start, k, order, coins.__getitem__)] += 3 ** sum(coins)
    total = sum(law.values())
    return {u: c / total for u, c in law.items()}


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("k", [1, 2])  # k = 1: the budget binds; k = 2: bulk coins
def test_random_valid_word_matches_reference_law(n, k):
    law = _shuffle_and_coin_law(n, k)
    samples = 30_000
    rng = random.Random(1000 * n + k)
    seen = Counter(random_valid_word(n, k, rng).letters for _ in range(samples))
    assert set(seen) <= set(law)
    # the expected distance at this sample size is about 0.01-0.016
    tv = sum(abs(seen[u] / samples - p) for u, p in law.items()) / 2
    assert tv < 0.03


def _raised(u, base):
    """Per-position raises of a sample against the base word, undoing the
    reflection; a position where base and reflection differ by >= 2 tells
    the two apart."""
    rev = base[::-1]
    i = next(i for i in range(len(base)) if abs(base[i] - rev[i]) >= 2)
    start = base if u[i] - base[i] in (0, 1) else rev
    raised = [x - y for x, y in zip(u, start)]
    assert set(raised) <= {0, 1}
    return raised if start is base else raised[::-1]


@pytest.mark.parametrize("n", [38, 64])
@pytest.mark.parametrize("k", [1, 2])
def test_random_valid_word_matches_reference_rates(n, k):
    base = _base_word(n)
    samples = 4000
    stats = []
    for seed, sample in ((1, lambda rng: random_valid_word(n, k, rng).letters),
                         (2, lambda rng: _shuffle_and_coin(base, k, rng))):
        rng = random.Random(seed)
        rates = [0] * n
        weights = []
        for _ in range(samples):
            u = sample(rng)
            rates = list(map(add, rates, _raised(u, base)))
            weights.append(weight(u))
        stats.append(([r / samples for r in rates], sorted(weights)))
    (rates, weights), (ref_rates, ref_weights) = stats
    # a rate's standard error is at most 0.008 here; the bound is 6 of them
    assert max(abs(x - y) for x, y in zip(rates, ref_rates)) < 0.05
    # largest gap between the cumulative weight histograms (two-sample
    # Kolmogorov-Smirnov); 0.05 is above its 0.1 % critical value, 0.044
    gap = max(
        abs(bisect_right(weights, v) - bisect_right(ref_weights, v))
        for v in set(weights) | set(ref_weights)
    )
    assert gap / samples < 0.05


class _CountingRandom(random.Random):
    def __init__(self, seed):
        self.draws = 0
        super().__init__(seed)

    def random(self):
        self.draws += 1
        return super().random()

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


def test_random_valid_word_draws_only_for_payable_letters():
    n = 1172
    for seed in range(5):
        rng = _CountingRandom(seed)
        random_valid_word(n, 1, rng)
        # a shuffled visiting order alone takes n - 1 draws
        assert 0 < rng.draws < n / 10
