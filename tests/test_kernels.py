"""Word kernels against their definitions on randomized inputs."""

import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

import orelab
from orelab import _kernels
from orelab.wordgen import arithmetic_bounds, random_valid_word
from orelab.words import Word, compute_bounds, weight
from reference import DEFAULT_FACTORIAL_CAP, weight_bruteforce

letters_strategy = st.lists(st.integers(0, 40), min_size=1, max_size=60).map(tuple)


def test_backend_reported():
    assert orelab.kernel_backend == "pure"


@given(letters_strategy, st.data())
def test_compare_ranges_matches_compare_of_slices(letters, data):
    n = len(letters)
    alo = data.draw(st.integers(0, n - 1))
    ahi = data.draw(st.integers(alo + 1, n))
    blo = data.draw(st.integers(0, n - 1))
    bhi = data.draw(st.integers(blo + 1, n))
    assert _kernels.compare_ranges(letters, alo, ahi, blo, bhi) == \
        _kernels.compare(letters[alo:ahi], letters[blo:bhi])


def test_big_letters_stay_exact():
    big = (1 << 61, 0, 1 << 61)
    assert _kernels.weight(big) == 3 * (1 << 61)  # sorted (0, B, B) . (3, 2, 1)
    assert _kernels.compare((1 << 70, 2), (1 << 70, 3)) == -1
    # runs of letters <= 0 and <= 1 have length 1 < 2; 2^65 > n covers the rest
    assert _kernels.b_bounded((0, 1 << 70), (2, 1 << 65), True) == 1
    # the run of letters <= 2^70 is the whole word, and the tail 2 <= 3
    assert _kernels.b_bounded((0, 1 << 70, 0), (2, 2), True) == 0
    assert _kernels.b_bounded((0, 1 << 70), (2, 1 << 65), False) == -1


def test_long_words_with_big_letters():
    big = 1 << 70
    prefix = (2, 1 << 65)
    # 2^70 is a wall above the prefix; runs of letters <= 0 decide
    assert _kernels.b_bounded((0, big) * 40, prefix, True) == 1
    assert _kernels.b_bounded((0, 0, big + 1) * 40, prefix, True) == 0
    assert _kernels.b_bounded((0, big) * 40, prefix, False) == -1
    # 300 distinct letters before a 2^70 wall: the longest run of letters
    # <= m is m + 1, one below b_m = m + 2, and the tail b_300 exceeds n
    wide = tuple(range(299, -1, -1)) + (big,)
    arith = tuple(range(2, 303))
    assert _kernels._runs_short_bytes(wide, arith, 300) is None
    assert _kernels.b_bounded(wide, arith, True) == 1
    assert _kernels.b_bounded(wide, arith[:150] + (1,) + arith[151:], True) == 0


def test_byte_path_boundaries():
    # b_3 = 1 lies between the letters 0 and 5 and meets the runs of 0s
    assert _kernels.b_bounded((0, 5) * 40, (2, 2, 2, 1, 2, 81), True) == 0
    assert _kernels.b_bounded((0, 5) * 40, (2, 2, 2, 2, 2, 81), True) == 1
    # one wall (a split mask) and thirty (a searched one), each with its
    # longest run of 0s exactly at the bound and one below it
    for u, run in (((0,) * 40 + (1,) + (0,) * 39, 40), ((0, 0, 1) * 30, 2)):
        assert _kernels.b_bounded(u, (run, len(u) + 1), True) == 0
        assert _kernels.b_bounded(u, (run + 1, len(u) + 1), True) == 1


def _arith_bounded(letters):
    """Windowed reference for b_m = m + 2 with the tail: the top letter is
    at least n - 1, and for each letter a every window of a + 2 letters
    holds a letter above a. No other m needs a check: b_m grows with m,
    and the runs of letters <= m are those of letters <= the largest
    letter a <= m."""
    n = len(letters)
    if max(letters) < n - 1:
        return False
    for a in set(letters):
        w = a + 2
        low = [x <= a for x in letters]
        inside = sum(low[:w])
        if inside == w:
            return False
        for i in range(w, n):
            inside += low[i] - low[i - w]
            if inside == w:
                return False
    return True


def _criterion_3_lengths():
    """(N, k) over criterion 3's grid of d, k and eps."""
    return sorted({
        (compute_bounds(d, arithmetic_bounds(4096), k, eps).N, k)
        for d in (1, 2) for k in (1, 2) for eps in (Fraction(1), Fraction(1, 2))
    })


@pytest.mark.parametrize("n, k", _criterion_3_lengths())
def test_grid_words_accepted_and_lowered_walls_rejected(n, k):
    rng = random.Random(n)
    prefix = tuple(range(2, n + 2))
    u = list(random_valid_word(n, k, rng))
    assert _arith_bounded(u)
    assert _kernels.b_bounded(u, prefix, True) == 1
    if n >= 64:
        assert _kernels._runs_short_bytes(u, prefix, n - 1) is True
    # raising a letter only shortens runs, so the word stays bounded, also
    # when the top letter goes past 2^70
    for i in (rng.randrange(n), u.index(n - 1)):
        raised = list(u)
        raised[i] += 1 << 70 if u[i] == n - 1 else 1
        assert _kernels.b_bounded(raised, prefix, True) == 1
    # lowering the wall between two zeros makes a run of three
    i = next(i for i in range(1, n - 1) if u[i - 1] == u[i + 1] == 0 < u[i])
    # and lowering a high letter merges two of its gaps; the reference decides
    j = max(range(n), key=lambda p: (u[p] < n - 1, u[p]))
    for p in (i, j):
        lowered = list(u)
        lowered[p] = 0
        expected = _arith_bounded(lowered)
        assert p == j or not expected
        assert _kernels.b_bounded(lowered, prefix, True) == expected


# --- the rank code --------------------------------------------------------

def _random_words(rng, count, max_len):
    """Words of 1 to max_len letters over alphabets from {0} to 256 wide,
    some shifted past 2^64."""
    for _ in range(count):
        n = rng.randint(1, max_len)
        width = rng.choice((1, 2, 5, 40, 256))
        shift = rng.choice((0, 0, 7, 1 << 64))
        yield tuple(shift + rng.randrange(width) for _ in range(n))


def test_rank_code_weight_matches_the_sort_and_the_bruteforce():
    rng = random.Random(22)
    for letters in _random_words(rng, 300, 700):
        code = _kernels.rank_code(letters)
        vals, enc = code
        assert vals == sorted(set(letters)) and len(enc) == len(letters)
        assert [vals[r] for r in enc] == list(letters)
        w = _kernels.weight(letters, code)
        assert w == sum(accumulate(sorted(letters))) == _kernels.weight(letters)
        if len(letters) <= DEFAULT_FACTORIAL_CAP:
            assert w == weight_bruteforce(letters)


def test_rank_code_holds_256_distinct_letters_and_no_more():
    rng = random.Random(256)
    for distinct in (256, 257):
        letters = list(range(0, 3 * distinct, 3)) * 2 + [3, 3, 0]
        rng.shuffle(letters)
        letters = tuple(letters)
        code = _kernels.rank_code(letters)
        if distinct == 256:
            assert max(code[1]) == 255
        else:
            assert code is None
        expected = sum(accumulate(sorted(letters)))
        assert _kernels.weight(letters, code) == expected
        # the word layer memoises the code and takes the sort past 256
        u = Word(letters)
        assert weight(u) == expected
        assert (u._ranks is False) == (distinct == 257)


def _prefixes(letters, code, rng):
    """A random prefix, the tightest bounded one (each b_m one above the
    longest run of letters <= m, the tail above n) and that one with one
    entry lowered onto its run. Their lengths run from 1 to two past the
    top letter (at most 302), so most leave letters above the prefix:
    walls with the tail, the -1 code without it."""
    vals, enc = code
    n = len(letters)
    L = rng.randint(1, min(vals[-1], 300) + 2)
    yield tuple(rng.randint(1, n + 2) for _ in range(L))
    tight = []
    for m in range(L):
        i = bisect_right(vals, m)  # the letters <= m have the ranks below i
        mask = enc.translate(bytes(i) + b"\x01" * (256 - i))
        tight.append(max(map(len, mask.split(b"\x01"))) + 1)
    tight[-1] = n + 1
    yield tuple(tight)
    m = rng.randrange(L)
    tight[m] = max(1, tight[m] - 1)
    yield tuple(tight)


def test_b_bounded_with_a_code_matches_the_stack_path(monkeypatch):
    monkeypatch.setattr(_kernels, "LONG_WORD", float("inf"))  # no code: the stack path
    rng = random.Random(7)
    verdicts = Counter()
    for letters in _random_words(rng, 300, 300):
        code = _kernels.rank_code(letters)
        for prefix in _prefixes(letters, code, rng):
            for tail in (True, False):
                got = _kernels.b_bounded(letters, prefix, tail, code)
                assert got == _kernels.b_bounded(letters, prefix, tail), (letters, prefix, tail)
                verdicts[got] += 1
    assert min(verdicts[v] for v in (-1, 0, 1)) > 100


def test_b_bounded_code_serves_256_letters_below_top(monkeypatch):
    monkeypatch.setattr(_kernels, "LONG_WORD", float("inf"))  # no code: the stack path
    # 256 distinct letters, all below the last prefix index: without a code
    # the byte path refuses them and the stack path decides
    letters = tuple(range(255, -1, -1)) + tuple(range(256))
    assert _kernels._runs_short_bytes(letters, (1,) * 300, 255) is None
    code = _kernels.rank_code(letters)
    # the run of letters <= m is 2m + 2 long around the central zeros
    tight = tuple(2 * m + 3 for m in range(256)) + (513,) * 44
    for prefix in (tight, tight[:100] + (201,) + tight[101:], (513,) * 300):
        for tail in (True, False):
            got = _kernels.b_bounded(letters, prefix, tail, code)
            assert got == _kernels.b_bounded(letters, prefix, tail)
    assert _kernels.b_bounded(letters, tight, True, code) == 1
    assert _kernels.b_bounded(letters, tight[:100] + (201,) + tight[101:], True, code) == 0
