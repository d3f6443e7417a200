"""Reference oracles that only the tests use: slow, exact definitions that
the library's fast paths are checked against."""

from __future__ import annotations

from itertools import permutations

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
