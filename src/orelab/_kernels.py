"""Word-scan kernels: the hot primitives of the word layer.

Letters are nonnegative ints, words nonempty sequences. Everything here is
exact integer arithmetic, so arbitrarily large letters are fine.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain
from operator import le

CMP_EQUAL = 0
CMP_LESS = -1
CMP_GREATER = 1
CMP_INCOMPARABLE = 2

# Words of at least this many letters are long: b_bounded scans them by
# the byte path, and the word layer memoises on the Word their weight and,
# when they hold at most 256 distinct letters, one rank code (`rank_code`)
# that the weight and the byte path share. The sampler builds a long
# sample as its rank code, so that word never calls `rank_code`. Every
# word, long or short, keeps its boundedness code per bound sequence. A
# shorter word is weighed afresh on each ask: the Ore layer's words are
# mostly weighed once, so a weight memo would only add to their cost.
LONG_WORD = 64


def rank_code(letters):
    """The rank code of a word: (vals, enc) with vals the sorted distinct
    letters and enc one byte per letter, its rank in vals; None when the
    word holds more than 256 distinct letters."""
    vals = sorted(set(letters))
    if len(vals) > 256:
        return None
    return vals, _encode(letters, vals, len(vals))


def _encode(letters, vals, t: int) -> bytes:
    """One byte per letter: i for vals[i] with i < t, t for the rest."""
    code = dict(zip(vals, range(t)))
    code.update(dict.fromkeys(vals[t:], t))
    return bytes(map(code.__getitem__, letters))


def weight(letters, ranks=None) -> int:
    """Minimum over all permutations of sum (n+1-i) * letter_{sigma(i)}.

    Closed form by the rearrangement inequality: sort ascending and pair
    with descending coefficients n, n-1, ..., 1, which is the sum of the
    prefix sums of the sorted letters. Given the letters' `rank_code`, the
    sort is read off its counts instead: a value v held c times from sorted
    position s onward pairs with n - s, ..., n - s - c + 1, so it adds
    v * (c * (n - s) - c * (c - 1) / 2).
    """
    if ranks is None:
        return sum(accumulate(sorted(letters)))
    vals, enc = ranks
    n = len(enc)
    total = s = 0
    for v, c in zip(vals, map(enc.count, range(len(vals)))):
        total += v * (c * (n - s) - c * (c - 1) // 2)
        s += c
    return total


def k_valid(letters, k: int) -> bool:
    n = len(letters)
    return weight(letters) <= k * (n * (n + 1) // 2)


def compare(a, b) -> int:
    """Prefix-lexicographic comparison code.

    0 equal, -1 less, 1 greater, 2 incomparable (one a strict prefix of
    the other).
    """
    for x, y in zip(a, b):
        if x != y:
            return CMP_LESS if x < y else CMP_GREATER
    if len(a) == len(b):
        return CMP_EQUAL
    return CMP_INCOMPARABLE


def compare_ranges(letters, alo: int, ahi: int, blo: int, bhi: int) -> int:
    """compare on two index ranges of the same letter sequence."""
    la = ahi - alo
    lb = bhi - blo
    m = la if la < lb else lb
    for t in range(m):
        x = letters[alo + t]
        y = letters[blo + t]
        if x != y:
            return CMP_LESS if x < y else CMP_GREATER
    return CMP_EQUAL if la == lb else CMP_INCOMPARABLE


def b_bounded(letters, prefix, extend_tail: bool, ranks=None, floors=None) -> int:
    """Bounded-word check against b; 1 yes, 0 no, -1 undetermined entry.

    The word is bounded iff for every determined m, every window of
    length b_m contains a letter > m; equivalently the longest run of
    letters <= m stays below b_m. Entries beyond the max letter force
    b_m > n. Determination is required for every m up to the max letter.

    `floors` is the prefix's `suffix_minima` table, computed here when not
    given. The entries beyond the max letter are checked first, as one
    lookup in it; once they pass, each exceeds n and bounds no run.

    For m up to top = min(max letter, last prefix index) the runs are
    measured by one of two paths, chosen from the input alone. A word
    given with its `rank_code`, or of at least 64 letters whose letters
    <= top take at most 255 distinct values, goes through the byte path
    (`_runs_short_bytes`): C-level scans of one byte mask per distinct
    letter, each against one suffix minimum. Every other word goes
    through the monotone-stack path (`_runs_short_stack`): one Python
    pass over the letters, cheaper on short words and the only one that
    serves wide alphabets. Both give the same answer on every input.
    """
    n = len(letters)
    mx = max(letters) if ranks is None else ranks[0][-1]
    L = len(prefix)
    if not extend_tail and L <= mx:
        return -1
    if floors is None:
        floors = suffix_minima(prefix)
    # for m >= mx the whole word is one run of letters <= m, so b_m must
    # exceed n; with the tail that takes in every m >= L through b_{L-1}
    if floors[min(mx + 1, L - 1)] <= n:
        return 0
    top = mx if mx < L - 1 else L - 1
    if ranks is not None or n >= LONG_WORD:
        short = _runs_short_bytes(letters, floors, top, ranks)
    else:
        short = None
    if short is None:
        short = _runs_short_stack(letters, prefix, top)
    return 1 if short else 0


def suffix_minima(prefix):
    """The table floors[m] = min(prefix[m:]); a nondecreasing prefix is
    its own table and comes back as it is."""
    if all(map(le, prefix, prefix[1:])):
        return prefix
    return tuple(accumulate(reversed(prefix), min))[::-1]


def _runs_short_stack(letters, prefix, top: int) -> bool:
    """Whether the longest run of letters <= m is below b_m for every
    m <= top; letters above top are walls.

    One monotone-stack pass finds, for each position, the widest run of
    letters <= its letter through it; the longest run of letters <= m is
    the running max of those widths over letters 0..m.
    """
    wall = top + 1
    widest = [0] * wall
    # (letter, position) pairs with letters non-increasing from a bottom
    # wall; the top pair lives in (tv, tp). A letter is popped by the first
    # greater one after it, and a wall after the last letter pops the rest.
    stack = []
    tv, tp = wall, -1
    for i, v in enumerate(chain(letters, (wall,))):
        if v > top:
            v = wall
        while tv < v:
            a = tv
            tv, tp = stack.pop()
            w = i - tp - 1
            if w > widest[a]:
                widest[a] = w
        stack.append((tv, tp))
        tv, tp = v, i
    for bm, best in zip(prefix, accumulate(widest, max)):
        if bm <= best:
            return False
    return True


_WALL = b"\x01"


def _runs_short_bytes(letters, floors, top: int, ranks=None) -> bool | None:
    """As `_runs_short_stack`, or None when no rank code is given and the
    letters <= top take more than 255 distinct values. `floors` is the
    prefix's `suffix_minima` table, whose entries past top exceed n.

    The longest run of letters <= m only grows with m, so the runs pass
    iff each distinct letter v <= top has its run below B(v) = floors[v],
    the least b_m over m >= v: past top every entry exceeds n, so that is
    the least over v <= m <= top or more than n. The word is read as
    bytes: the given rank code, or else one built here (code i for the
    i-th distinct letter <= top, one wall code for the rest). For each v
    a translate gives a mask, 0 at letters <= v and 1 elsewhere, which
    must hold no B(v) zeros in a row. A higher letter checked against
    the same bound covers v, so v is skipped when B(v) equals the last
    bound checked (or exceeds n). A mask with few walls is split at them
    and its longest piece measured; a dense one is searched for B(v)
    zeros.
    """
    n = len(letters)
    if ranks is None:
        vals = sorted(set(letters))
        t = bisect_right(vals, top)
        if t > 255:
            return None
        enc = _encode(letters, vals, t)
    else:
        vals, enc = ranks
        t = bisect_right(vals, top)
    low = n + 1  # the last bound checked; no run exceeds n
    for i in range(t - 1, -1, -1):
        bv = floors[vals[i]]
        if bv >= low:
            continue
        low = bv
        mask = enc.translate(bytes(i + 1) + _WALL * (255 - i))
        # a byte search is slow on near misses, a split on many walls
        if mask.count(1) * 32 < n:
            if max(map(len, mask.split(_WALL))) >= bv:
                return False
        elif bytes(bv) in mask:
            return False
    return True
