"""Randomized generation of k-valid, b-bounded words.

Targets bound sequences b_m = m + 2 (prefixes of 2, 3, 4, ... long enough
for the word). A word is bounded for that sequence iff for every v >= 1
the letters >= v leave no gap longer than v (word boundaries included),
and the maximum letter is at least n - 1.

Base words come from two deterministic families built on the dyadic
ruler a_i = 2^(v2(i)+1) - 2, whose level sets are the 2^j grids:

* capped-demoted: values capped at n - 1; the final point of each grid
  is lowered to the levels it still owes (the previous grid point's
  trailing distance covers the rest); when the top grid point sits close
  enough to the end, the peak moves down to the half-grid position.
* tail-capped: ruler values trimmed by the trailing profile 2(n-i)+1
  with a mirrored dyadic tail supplying each level's final point.

The lighter valid candidate is kept; for 1-validity the margin is thin
(fractions of a percent at lengths in the thousands), so the choice is
verified exactly.

Randomness is an optional reflection plus letter increments, both of
which keep the gap system valid. The process being sampled visits the
positions in a uniformly random order and raises the letter a at a
position by one with probability 3/4 when the exact weight slack still
pays its cost t_{a+1} + 1 (t_v = #letters >= v), skipping it otherwise.
Letters at n - 1 are never raised. Costs only rise and the slack only
falls, so a skipped position could never be raised later, and the next
payable position in a uniform order is uniform among the payable ones not
yet visited. The sampler draws exactly that, in one of two regimes chosen
by the slack:

* budget-bound: when raising every letter below n - 1 would exceed the
  budget, positions are grouped by letter, a group is picked with
  probability proportional to its unvisited payable positions, and the
  walk stops once no group is payable; each group's raised positions are
  then a uniform subset of it;
* bulk: when raising every such letter still fits, no position is ever
  refused and order is irrelevant, so each gets an independent 3/4 coin,
  all drawn in one call.

The reflection commutes in distribution with the increments (it maps a
uniform order to a uniform order), so it is applied last.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from operator import add, index
from random import Random
from typing import NamedTuple

from . import _kernels as kernels
from .errors import ConstructionFailed
from .words import BoundSequence, Word, weight


def arithmetic_bounds(length: int) -> BoundSequence:
    """Prefix (2, 3, ..., length+1) of the sequence b_m = m + 2."""
    return BoundSequence(tuple(range(2, length + 2)), extend_tail=True)


def _v2(i: int) -> int:
    return (i & -i).bit_length() - 1


def _ruler(i: int) -> int:
    return (2 << _v2(i)) - 2


def _capped_demoted(n: int) -> list[int]:
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


def _tail_capped(n: int) -> list[int]:
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


def _is_layered(letters: list[int]) -> bool:
    """Exact check of the gap system: letters >= v leave no run longer
    than v, for every v up to the max letter, and max letter >= n - 1."""
    n = len(letters)
    if max(letters) < n - 1:
        return False
    return kernels.b_bounded(letters, tuple(range(2, n + 2)), True) == 1


def _base_word(n: int) -> list[int]:
    if n == 1:
        return [0]
    cands = [w for w in (_capped_demoted(n), _tail_capped(n)) if _is_layered(w)]
    if not cands:
        raise ValueError(f"no base layered word of length {n}")
    return min(cands, key=kernels.weight)


class _Layout(NamedTuple):
    """Per-length data of the base word that every sample reuses."""

    letters: tuple[int, ...]
    weight: int
    full_weight: int  # weight with every letter below n - 1 raised by one
    positions: array  # positions sorted by letter, stable
    groups: tuple[tuple[int, int, int], ...]  # (start, size, cost) per letter below n - 1
    top: int  # start in `positions` of the letters n - 1, never raised


@lru_cache(maxsize=32)
def _layout(n: int) -> _Layout:
    base = _base_word(n)
    positions = array("i", sorted(range(n), key=base.__getitem__))
    groups = []
    start = 0
    while start < n and base[positions[start]] < n - 1:
        a = base[positions[start]]
        end = start + 1
        while end < n and base[positions[end]] == a:
            end += 1
        # raising an a changes only t_{a+1}, the count of letters past this group
        groups.append((start, end - start, n - end + 1))
        start = end
    return _Layout(
        tuple(base),
        kernels.weight(base),
        kernels.weight([a + 1 if a < n - 1 else a for a in base]),
        positions,
        tuple(groups),
        start,
    )


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def random_valid_word(n: int, k: int, rng: Random) -> Word:
    """A random k-valid word of length n, bounded for b_m = m + 2.

    Raises ValueError for n < 1, and when even the base construction
    exceeds the weight budget at this length (thin set of lengths near
    powers of two). The word comes back with its weight memoised.
    """
    n, k = index(n), index(k)
    if n < 1:
        raise ValueError(f"word length must be at least 1, got {n}")
    lay = _layout(n)
    budget = k * (n * (n + 1) // 2)
    w = lay.weight
    if w > budget:
        raise ValueError(
            f"no {k}-valid layered word of length {n}: base construction "
            f"weighs {w} against budget {budget}"
        )
    bulk = lay.full_weight <= budget
    if bulk:
        # two random bits per position; the pair is nonzero with probability 3/4
        bits = rng.getrandbits(2 * n)
        coins = bytearray(f"{bits | bits >> 1:0{2 * n}b}"[-1::-2].encode().translate(_BITS))
        for i in lay.positions[lay.top:]:
            coins[i] = 0
        letters = list(map(add, lay.letters, coins))
    else:
        slack = budget - w
        # [start, size, unvisited, cost, raised] per letter group
        state = [[start, size, size, cost, 0] for start, size, cost in lay.groups]
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
                w += g[3]
                slack -= g[3]
                g[3] += 1
                g[4] += 1
            live = [g for g in live if g[2] and g[3] <= slack]
        letters = list(lay.letters)
        positions = lay.positions
        for start, size, _, _, raised in state:
            for j in rng.sample(range(size), raised):
                letters[positions[start + j]] += 1
    if rng.random() < 0.5:
        letters.reverse()
    u = Word._from_letters(letters)
    if bulk:
        if weight(u) > budget:
            raise ConstructionFailed(f"bulk increments overran the budget {budget}")
    elif weight(u) != w:
        raise ConstructionFailed(f"tracked weight {w} does not match the sampled word")
    return u
