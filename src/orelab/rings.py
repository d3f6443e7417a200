"""Exact coefficient rings: integers, rationals, and prime fields.

Scalars are plain Python objects (int for ZZ and GF(p), Fraction for QQ).
The ring object parses, formats and combines single scalars. The helpers at
the end are the one place where integer vectors become ring elements, so
the algebra and linear-algebra layers compute on plain ints without asking
which ring they serve. No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import MalformedInput


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class CoeffRing:
    """One of ZZ, QQ, or GF(p). Immutable."""

    __slots__ = ("kind", "p", "zero", "one")

    INTEGERS = "integers"
    RATIONALS = "rationals"
    PRIME_FIELD = "prime_field"

    def __init__(self, kind: str, p: int | None = None):
        if kind not in (self.INTEGERS, self.RATIONALS, self.PRIME_FIELD):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == self.PRIME_FIELD:
            if p is None or not _is_prime(p):
                raise ValueError(f"prime field requires a prime modulus, got {p!r}")
        elif p is not None:
            raise ValueError("modulus only meaningful for prime fields")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "zero", Fraction(0) if kind == self.RATIONALS else 0)
        object.__setattr__(self, "one", Fraction(1) if kind == self.RATIONALS else 1)

    def __setattr__(self, *a):
        raise AttributeError("CoeffRing is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, CoeffRing)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        if self.kind == self.PRIME_FIELD:
            return f"GF({self.p})"
        return "ZZ" if self.kind == self.INTEGERS else "QQ"

    # --- structural queries ---

    @property
    def is_field(self) -> bool:
        return self.kind != self.INTEGERS

    # --- element arithmetic ---

    def from_int(self, n: int):
        return _from_numerators(self, (n,), 1)[0]

    def add(self, a, b):
        c = a + b
        return c % self.p if self.kind == self.PRIME_FIELD else c

    def mul(self, a, b):
        c = a * b
        return c % self.p if self.kind == self.PRIME_FIELD else c

    def is_zero(self, a) -> bool:
        return a == 0

    # --- text encoding (exact values only) ---

    def parse(self, text: str, field: str | None = None):
        """Parse a decimal integer string or an 'a/b' rational string."""
        if not isinstance(text, str):
            raise MalformedInput(f"expected a string value, got {text!r}", field=field)
        s = text.strip()
        try:
            if "/" in s:
                num_s, den_s = s.split("/", 1)
                num, den = int(num_s), int(den_s)
                if den == 0:
                    raise MalformedInput(f"zero denominator in {s!r}", field=field)
                if not self.is_field:
                    raise MalformedInput(
                        f"rational value {s!r} not allowed over the integers", field=field
                    )
                if self.p and den % self.p == 0:
                    raise MalformedInput(
                        f"denominator of {s!r} vanishes mod {self.p}", field=field
                    )
                return _from_numerators(self, (num,), den)[0]
            return self.from_int(int(s))
        except ValueError:
            raise MalformedInput(f"cannot parse exact value {s!r}", field=field) from None

    def fmt(self, a) -> str:
        if isinstance(a, Fraction) and a.denominator != 1:
            return f"{a.numerator}/{a.denominator}"
        return str(int(a))


ZZ = CoeffRing(CoeffRing.INTEGERS)
QQ = CoeffRing(CoeffRing.RATIONALS)


def GF(p: int) -> CoeffRing:
    return CoeffRing(CoeffRing.PRIME_FIELD, p)


# --- vectors as integer numerators --------------------------------------
# A vector over QQ is a list of integer numerators over one common
# denominator; over ZZ or GF(p) it is a list of ints reduced once at the end.


def _reduce(ring: CoeffRing, coords):
    """Coordinates computed with plain operators, as ring elements."""
    p = ring.p
    return tuple([a % p for a in coords]) if p else tuple(coords)


def _numerators(ring: CoeffRing, x):
    """(a new list of integer numerators of x over a common denominator
    d, d); outside QQ, and for a row of ints over QQ, x's own integers
    over 1. Ring elements over QQ hold Fractions, so the first entry
    settles the common case."""
    if ring.kind != CoeffRing.RATIONALS or (
            x and type(x[0]) is int and all(type(a) is int for a in x)):
        return list(x), 1
    ratios = [a.as_integer_ratio() for a in x]
    d = lcm(*[e for _, e in ratios])
    if d == 1:
        return [n for n, _ in ratios], 1
    return [n * (d // e) for n, e in ratios], d


def _from_numerators(ring: CoeffRing, acc, den: int):
    """Ring elements acc / den for a unit den of the ring: one Fraction per
    nonzero coordinate over QQ, times den^-1 mod p over GF(p). ValueError
    when den is not a unit (den != 1 over ZZ, den = 0 mod p over GF(p))."""
    if ring.kind == CoeffRing.RATIONALS:
        zero = ring.zero
        return tuple([Fraction(s, den) if s else zero for s in acc])
    if den != 1:
        if not ring.p or den % ring.p == 0:
            raise ValueError(f"denominator {den} is not a unit of {ring}")
        f = pow(den, -1, ring.p)
        acc = [s * f for s in acc]
    return _reduce(ring, acc)


def _to_ring(ring: CoeffRing, values):
    """Exact ints and Fractions as ring elements: unchanged over QQ,
    reduced mod p over GF(p); ValueError for a denominator that is not a
    unit of the ring (see `_from_numerators`)."""
    values = tuple(values)
    if ring.kind == CoeffRing.RATIONALS:
        return values
    return _from_numerators(ring, *_numerators(QQ, values))


def _unit_row(ring: CoeffRing, row):
    """The canonical unit multiple of an integer row: reduced mod p over
    GF(p), primitive over QQ and over ZZ (a ZZ subspace is a rational span)."""
    p = ring.p
    if p:
        return [a % p for a in row]
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _basis_row(ring: CoeffRing, row, j: int):
    """Canonical basis vector from an echelon row with pivot column j: the
    RREF row row / row[j] over a field, the row with a positive pivot over ZZ."""
    if ring.is_field:
        return _from_numerators(ring, row, row[j])
    return tuple(row) if row[j] > 0 else tuple([-a for a in row])
