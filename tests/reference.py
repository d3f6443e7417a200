"""Reference oracles that only the tests use: slow, exact definitions that
the library's fast paths are checked against."""

from __future__ import annotations

from itertools import accumulate, groupby, permutations, product

from orelab.errors import OrelabError
from orelab.words import as_word

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
    for u in product(range(cap + 1), repeat=n):
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
