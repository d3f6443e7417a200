"""Word-scan kernels: the hot primitives of the word layer.

Letters are nonnegative ints, words nonempty sequences. Everything here is
exact integer arithmetic, so arbitrarily large letters are fine.
"""

from __future__ import annotations

from itertools import accumulate, chain

CMP_EQUAL = 0
CMP_LESS = -1
CMP_GREATER = 1
CMP_INCOMPARABLE = 2


def weight(letters) -> int:
    """Minimum over all permutations of sum (n+1-i) * letter_{sigma(i)}.

    Closed form by the rearrangement inequality: sort ascending and pair
    with descending coefficients n, n-1, ..., 1, which is the sum of the
    prefix sums of the sorted letters.
    """
    return sum(accumulate(sorted(letters)))


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


def b_bounded(letters, prefix, extend_tail: bool) -> int:
    """Bounded-word check against b; 1 yes, 0 no, -1 undetermined entry.

    The word is bounded iff for every determined m, every window of
    length b_m contains a letter > m; equivalently the longest run of
    letters <= m stays below b_m. Entries beyond the max letter force
    b_m > n. Determination is required for every m up to the max letter.

    One monotone-stack pass finds, for each position, the widest run of
    letters <= its letter through it; the longest run of letters <= m is
    the running max of those widths over letters 0..m. Letters above the
    last prefix index are walls for every m checked against the prefix.
    """
    n = len(letters)
    mx = max(letters)
    L = len(prefix)
    if not extend_tail and L <= mx:
        return -1
    top = mx if mx < L - 1 else L - 1
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
            return 0
    if mx > L - 1:
        # m in [L, mx] all use the tail value and the run eventually spans u
        if prefix[L - 1] <= n:
            return 0
    for m in range(mx + 1, L):
        if prefix[m] <= n:
            return 0
    if extend_tail and prefix[L - 1] <= n:
        return 0
    return 1
