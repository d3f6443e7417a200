"""Structure-constant algebras, derivations, identities, spans, and the
definition-file format."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    UPPER2X2,
    _invert,
    random_conjugate,
    random_derivation,
    random_element,
    truncated_ideal,
)
import reference
from reference import linear_combination, product, scale_int, unitalize

from orelab.algebra import (
    _CHAIN_IDS,
    Algebra,
    Derivation,
    MultilinearIdentity,
    algebra_to_document,
    b_sequence,
    derivation_space,
    inner_derivation,
    load_algebra,
    nilpotency_index,
    parse_algebra_document,
    verify_identity,
    verify_leibniz,
)
from orelab.catalog import (
    block_upper,
    charp_truncated,
    commutators_identity,
    formal_derivative,
    full_matrix,
    scaling_derivation,
    split_pair,
    square_zero,
    standard_identity,
    strictly_upper,
    strictly_upper_3x3,
    truncated_polynomial,
    upper_2x2,
    vanishing_identity,
)
from orelab.errors import (
    AssociativityViolation,
    BadUnit,
    BudgetExceeded,
    LeibnizViolation,
    MalformedInput,
    NotNilpotent,
    PreconditionViolated,
    RankMismatch,
)
from orelab.orepoly import (
    CanonicalTerm,
    DiffPoly,
    evaluate_terms,
    minimal_nilpotency,
    ore_multiply,
    rewrite_product,
)
from orelab.radical import (
    NilpotentImageReport,
    StabilityResult,
    check_delta_stability,
    is_nil_ideal,
    leibniz_coefficients,
    principal_ideal,
    verify_nilpotent_image,
)
from orelab.rings import GF, QQ, ZZ, _from_numerators, _numerators, parse_int
from orelab.words import BoundSequence, Word


# --- construction and validation -----------------------------------------

def test_upper3_valid_and_products():
    A = strictly_upper_3x3()
    e12, e13, e23 = (A.basis_element(i) for i in range(3))
    assert A.mul(e12, e23) == e13
    assert A.is_zero_elem(A.mul(e23, e12))
    assert A.is_zero_elem(A.mul(e13, e13))


def test_square_zero_valid():
    A = square_zero(3)
    x = A.element((QQ.from_int(2), QQ.from_int(-1), QQ.from_int(5)))
    assert A.is_zero_elem(A.mul(x, x))


def test_associativity_violation_reported():
    with pytest.raises(AssociativityViolation) as exc:
        Algebra(QQ, 2, None, {(0, 0): {1: QQ.one}, (1, 0): {0: QQ.one}})
    assert any(t[:3] == (0, 0, 0) for t in exc.value.failures)


def test_bad_unit_rejected():
    with pytest.raises(BadUnit):
        Algebra(QQ, 2, None, {(0, 0): {0: QQ.one}}, unit=0)


def test_unit_accepted_and_found():
    A = truncated_polynomial(QQ, 3)
    assert A.unit == 0
    # upper triangular 2x2 is unital without a basis unit: e11 + e22
    U = upper_2x2()
    assert U.unit is None
    u = U.add(U.basis_element(0), U.basis_element(2))
    for i in range(U.rank):
        e = U.basis_element(i)
        assert U.mul(u, e) == e and U.mul(e, u) == e


def test_multiply_with_unit_and_mismatch():
    A = truncated_polynomial(QQ, 3)
    x = A.element((QQ.from_int(3), QQ.from_int(1), QQ.from_int(-2)))
    assert A.mul(A.basis_element(0), x) == x
    with pytest.raises(RankMismatch):
        A.mul(x, (QQ.one,))


def _foreign_operand_cases():
    """Calls that mix strictly upper 3x3 (A3, rank 3) and strictly upper
    4x4 (A6, rank 6) operands, or GF(5) and QQ ones, with the error each
    must raise."""
    A3, A6 = strictly_upper_3x3(), strictly_upper(4)
    D3 = inner_derivation(A3, A3.basis_element(0))  # inner by e12
    D6 = inner_derivation(A6, A6.basis_element(0))
    e = A6.basis_element
    V3 = A3.span([A3.basis_element(1)])  # span(e13), a nil ideal of A3
    N6 = A6.span([e(2)])  # span(e14), a nil ideal of A6
    poly = DiffPoly(A6, [e(0), e(1)])  # e12 + e13 x
    terms = rewrite_product(A6, D6, [e(3)], 0, (0,), (1, 1), 2)
    return {
        "apply": (RankMismatch, lambda: D3.apply(QQ, e(5))),
        "iterates": (RankMismatch, lambda: D3.iterates(QQ, e(5), 2)),
        "ore_multiply": (RankMismatch, lambda: ore_multiply(A6, D3, poly, poly)),
        "minimal_nilpotency": (RankMismatch, lambda: minimal_nilpotency(A6, D3, [poly], 5)),
        "minimal_nilpotency_cap_0": (RankMismatch, lambda: minimal_nilpotency(A6, D3, [poly], 0)),
        "minimal_nilpotency_set": (RankMismatch, lambda: minimal_nilpotency(A3, D3, [poly], 3)),
        "rewrite_product": (RankMismatch,
                            lambda: rewrite_product(A6, D3, [e(3)], 0, (0,), (1, 1), 2)),
        "evaluate_terms": (RankMismatch, lambda: evaluate_terms(A6, D3, [e(3)], terms)),
        "b_sequence": (RankMismatch, lambda: b_sequence(A6, D3, [e(0)])),
        "is_nil_ideal_ring": (ValueError, lambda: is_nil_ideal(strictly_upper_3x3(GF(5)), V3)),
        "is_nil_ideal_rank": (RankMismatch, lambda: is_nil_ideal(A6, V3)),
        "nilpotency_index": (RankMismatch, lambda: nilpotency_index(A6, V3)),
        "check_delta_stability": (RankMismatch, lambda: check_delta_stability(A3, D6, V3)),
        "verify_nilpotent_image": (RankMismatch,
                                   lambda: verify_nilpotent_image(A6, D3, e(5), 2, N6)),
    }


@pytest.mark.parametrize("case", list(_foreign_operand_cases()))
def test_operands_of_another_algebra_refused(case):
    error, call = _foreign_operand_cases()[case]
    with pytest.raises(error):
        call()


# --- derivations -----------------------------------------------------------

def test_zero_derivation_accepted():
    A = strictly_upper_3x3()
    z = tuple(tuple(QQ.zero for _ in range(3)) for _ in range(3))
    verify_leibniz(A, z)


def test_charp_derivative_accepted():
    A = truncated_polynomial(GF(3), 3)
    D = formal_derivative(A, 3)
    t, t2 = A.basis_element(1), A.basis_element(2)
    assert D.apply(A.ring, t) == A.basis_element(0)
    assert D.apply(A.ring, t2) == scale_int(A, 2, t)


def test_char0_formal_derivative_rejected():
    A = truncated_polynomial(QQ, 3)
    with pytest.raises(LeibnizViolation):
        formal_derivative(A, 3)


def test_square_zero_accepts_anything():
    A = square_zero(2)
    verify_leibniz(A, ((QQ.from_int(7), QQ.from_int(-2)), (QQ.one, QQ.zero)))


def test_inner_derivation_examples():
    A = strictly_upper_3x3()
    D = inner_derivation(A, A.basis_element(0))
    assert D.apply(A.ring, A.basis_element(2)) == A.basis_element(1)
    assert A.is_zero_elem(D.apply(A.ring, A.basis_element(0)))
    assert A.is_zero_elem(D.apply(A.ring, A.basis_element(1)))
    verify_leibniz(A, D.matrix)


def test_inner_derivation_vanishes_on_commutative():
    for A in (split_pair(), truncated_polynomial(QQ, 4)):
        D = inner_derivation(A, A.element(tuple(QQ.from_int(i + 1) for i in range(A.rank))))
        assert all(
            A.is_zero_elem(D.apply(A.ring, A.basis_element(i))) for i in range(A.rank)
        )


def test_inner_derivation_kills_its_element(rng):
    for A in (upper_2x2(), strictly_upper_3x3(), truncated_polynomial(QQ, 4)):
        for _ in range(10):
            u = random_element(A, rng)
            D = inner_derivation(A, u)
            verify_leibniz(A, D.matrix)
            assert A.is_zero_elem(D.apply(A.ring, u))


def test_derivation_iterates_stop_before_first_zero(rng):
    upper = strictly_upper_3x3()
    ad = inner_derivation(upper, upper.basis_element(0))
    e12, e13, e23 = (upper.basis_element(i) for i in range(3))
    assert ad.iterates(upper.ring, e23, 5) == [e23, e13]
    assert ad.iterates(upper.ring, e23, 0) == [e23]
    assert ad.iterates(upper.ring, e12, 5) == [e12]
    charp, d = charp_truncated(3)
    one, t, t2 = (charp.basis_element(i) for i in range(3))
    assert d.iterates(charp.ring, t2, 5) == [t2, scale_int(charp, 2, t), scale_int(charp, 2, one)]
    assert d.iterates(charp.ring, t2, 1) == [t2, scale_int(charp, 2, t)]
    for A, D in ((upper, ad), (charp, d), charp_truncated(5)):
        assert D.iterates(A.ring, A.zero(), 4) == []
        for _ in range(20):
            x = random_element(A, rng)
            order = rng.randint(0, 6)
            chain = D.iterates(A.ring, x, order)
            assert len(chain) <= order + 1
            assert chain[:1] == ([] if A.is_zero_elem(x) else [x])
            assert not any(A.is_zero_elem(y) for y in chain)
            for prev, nxt in zip(chain, chain[1:]):
                assert nxt == D.apply(A.ring, prev)
            if chain and len(chain) <= order:
                assert A.is_zero_elem(D.apply(A.ring, chain[-1]))


def _repeated_apply(A, D, x, steps):
    chain = [x]
    for _ in range(steps):
        chain.append(D.apply(A.ring, chain[-1]))
    return chain


def test_iterates_match_repeated_apply(rng):
    """Forty delta-steps on unreduced integer numerators give the canonical
    values of forty apply calls: over QQ with a derivation of a random
    conjugate whose iterates have denominators > 1, and over GF(7) with the
    inner derivation by an element with distinct diagonal entries."""
    cases = []
    for _ in range(20):
        A = random_conjugate(upper_2x2(), rng)
        D = random_derivation(A, rng)
        x = random_element(A, rng)
        chain = _repeated_apply(A, D, x, 40)
        if all(any(y) for y in chain) and any(a.denominator > 1 for y in chain for a in y):
            cases.append((A, D, x))
            break
    assert cases, "no non-nilpotent derivation with fractional iterates drawn"
    A = upper_2x2(GF(7))
    D = inner_derivation(A, (3, 5, 1))
    cases.append((A, D, (1, 1, 0)))
    for A, D, x in cases:
        expected = _repeated_apply(A, D, x, 40)
        chain = D.iterates(A.ring, x, 40)
        assert len(chain) == 41 and chain == expected
        for got, want in zip(chain[1:], expected[1:]):
            assert [type(a) for a in got] == [type(a) for a in want]
        assert D.iterates(A.ring, x, 17) == expected[:18]
    # delta(x) = 28 e12, zero only mod 7
    assert D.iterates(A.ring, (2, 4, 6), 40) == [(2, 4, 6)]


def _unmemoised_chain(A, D, x, order):
    return tuple((tuple(nums), den)
                 for nums, den in D._iterates_num(A.ring, *_numerators(A.ring, x), order))


def _counting_iterates(monkeypatch):
    """Count Derivation._iterates_num calls, on every derivation."""
    calls = []
    iterates_num = Derivation._iterates_num

    def counted(self, *args):
        calls.append(args)
        return iterates_num(self, *args)

    monkeypatch.setattr(Derivation, "_iterates_num", counted)
    return calls


def test_chain_memo_matches_unmemoised_iterates(rng, monkeypatch):
    """The memoised chain equals `_iterates_num` for orders asked rising,
    then falling, on a fresh derivation: a QQ conjugate with fractional
    iterates, a chain that ends at zero, charp_truncated(p), the zero
    element, and a chain that ends only mod p. Once the chain is known to
    end, or to reach the order asked, no further chain is computed."""
    upper = strictly_upper_3x3(ZZ)
    ad = inner_derivation(upper, upper.basis_element(0))  # e23 -> e13 -> 0
    A = random_conjugate(upper_2x2(), rng)
    cases = [(A, random_derivation(A, rng), random_element(A, rng)),
             (upper, ad, upper.basis_element(2)), (upper, ad, upper.zero())]
    for p in (2, 3, 5):
        A, D = charp_truncated(p)
        cases += [(A, D, A.basis_element(p - 1)), (A, D, random_element(A, rng))]
    A = upper_2x2(GF(7))
    cases.append((A, inner_derivation(A, (3, 5, 1)), (2, 4, 6)))  # delta(x) = 28 e12
    rising, falling = [0, 1, 3, 7], [6, 2, 0]
    for A, D, x in cases:
        want = {o: _unmemoised_chain(A, D, x, o) for o in rising}
        D = Derivation(D.matrix)
        calls = _counting_iterates(monkeypatch)
        computed = 0
        for s, order in enumerate(rising):
            if not any(len(want[o]) <= o for o in rising[:s]):
                computed += 1  # one extension per larger order until the chain ends
            assert D._chain(A.ring, x, order) == want[order]
            assert len(calls) == computed
        for order in falling:
            assert D._chain(A.ring, x, order) == want[7][:order + 1]
        assert len(calls) == computed
        monkeypatch.undo()
    assert want[7] == (((2, 4, 6), 1),)


def test_chain_memo_entries_are_shared_and_immutable(monkeypatch):
    """Equal but distinct element tuples make one computation, and the
    stored chain is a tuple of (tuple numerators, denominator) pairs."""
    A = truncated_polynomial(QQ, 3)
    D = scaling_derivation(A, 3, QQ.from_int(2))
    x = (Fraction(1, 2), Fraction(3), Fraction(-2, 3))
    y = tuple(Fraction(a.numerator, a.denominator) for a in x)
    assert x == y and x is not y
    calls = _counting_iterates(monkeypatch)
    first = D._chain(A.ring, x, 4)
    assert D._chain(A.ring, y, 4) is first
    assert D._chain(A.ring, y, 2) == first[:3]
    assert len(calls) == 1
    assert type(first) is tuple and len(first) == 5
    for nums, den in first:
        assert type(nums) is tuple and type(den) is int
    with pytest.raises(TypeError):
        first[0][0][0] = 5
    # another ring is another key, even for the same tuple
    D._chain(GF(5), (1, 2, 3), 1)
    D._chain(QQ, (1, 2, 3), 1)
    assert len(calls) == 3


class _CountingTuple(tuple):
    """A tuple that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return super().__hash__()


def test_chain_memo_identity_hit_skips_hashing(monkeypatch):
    """A repeat ask with the same element and ring objects returns the
    stored tuple without hashing the element or computing a chain; an
    equal but distinct element shares that tuple through the memo on
    equality; one tuple under GF(5) and under QQ keeps two chains."""
    A = truncated_polynomial(QQ, 3)
    D = scaling_derivation(A, 3, QQ.from_int(2))
    x = _CountingTuple((Fraction(1, 2), Fraction(3), Fraction(-2, 3)))
    calls = _counting_iterates(monkeypatch)
    first = D._chain(A.ring, x, 4)
    hashed = _CountingTuple.hashes
    assert hashed > 0 and len(calls) == 1
    for _ in range(3):
        assert D._chain(A.ring, x, 4) is first
    assert D._chain(A.ring, x, 2) == first[:3]
    assert _CountingTuple.hashes == hashed and len(calls) == 1
    y = tuple(Fraction(a.numerator, a.denominator) for a in x)
    assert y == x and y is not x
    assert D._chain(A.ring, y, 4) is first and len(calls) == 1
    z = (1, 2, 3)
    gf5, qq = D._chain(GF(5), z, 2), D._chain(QQ, z, 2)
    assert len(calls) == 3
    assert gf5 == ((z, 1), ((0, 4, 2), 1), ((0, 3, 3), 1))
    assert qq == ((z, 1), ((0, 4, 12), 1), ((0, 8, 48), 1))
    # the id table now names QQ for z: GF(5) finds its chain by equality
    assert D._chain(GF(5), z, 2) == gf5 and D._chain(QQ, z, 2) is qq
    assert len(calls) == 3


def test_chain_memo_identity_table_stays_bounded(rng):
    """More fresh elements than the identity table holds: the table never
    grows past its bound, and every chain, asked again through the table
    or through the memo on equality, equals the unmemoised one."""
    A = random_conjugate(upper_2x2(), rng)
    D = Derivation(random_derivation(A, rng).matrix)
    xs = [random_element(A, rng) for _ in range(3 * _CHAIN_IDS + 5)]
    for order, x in enumerate(xs):
        order %= 4
        assert D._chain(A.ring, x, order) == _unmemoised_chain(A, D, x, order)
        assert 0 < len(D._chain_ids) <= _CHAIN_IDS
    for x in xs:
        assert D._chain(A.ring, x, 5) == _unmemoised_chain(A, D, x, 5)
        assert D._chain(A.ring, tuple(list(x)), 2) == _unmemoised_chain(A, D, x, 2)
    assert len(D._chain_ids) <= _CHAIN_IDS


def test_chain_memo_leaves_derivation_value_unchanged():
    """The memo is no dataclass field: equality, hash and repr of a
    derivation whose memo is filled are those of a fresh one."""
    A = upper_2x2()
    D = inner_derivation(A, (Fraction(1), Fraction(2), Fraction(-1, 3)))
    fresh = Derivation(D.matrix)
    before = repr(D)
    D._chain(A.ring, A.basis_element(1), 3)
    D._chain(A.ring, A.basis_element(0), 5)
    assert D._chains
    assert [f.name for f in dataclasses.fields(D)] == ["matrix"]
    assert D == fresh and hash(D) == hash(fresh)
    assert repr(D) == repr(fresh) == before


def test_leibniz_holds_on_random_pairs(rng):
    A = upper_2x2()
    D = random_derivation(A, rng)
    for _ in range(1000):
        x, y = random_element(A, rng), random_element(A, rng)
        lhs = D.apply(A.ring, A.mul(x, y))
        rhs = A.add(A.mul(D.apply(A.ring, x), y), A.mul(x, D.apply(A.ring, y)))
        assert lhs == rhs


# --- the exact scalar fast path against the definitions ----------------------

def _ref_mul(A, x, y):
    """sum over the raw table of x_i y_j c_ij^k e_k, one CoeffRing op at a time."""
    ring = A.ring
    out = [ring.zero] * A.rank
    for (i, j), row in A.table.items():
        for k, c in row.items():
            out[k] = ring.add(out[k], ring.mul(ring.mul(x[i], y[j]), c))
    return tuple(out)


def _ref_apply(ring, D, x):
    out = []
    for row in D.matrix:
        acc = ring.zero
        for c, a in zip(row, x):
            acc = ring.add(acc, ring.mul(c, a))
        out.append(acc)
    return tuple(out)


def _ref_evaluate(A, D, gens, terms):
    """Coefficients of the sum of canonical terms, trailing zeros trimmed."""
    ring = A.ring
    zero = (ring.zero,) * A.rank
    coeffs = {}
    for t in terms:
        elem = gens[t.head]
        for idx, j in zip(t.indices, t.jword.letters):
            factor = gens[idx]
            for _ in range(j):
                factor = _ref_apply(ring, D, factor)
            elem = _ref_mul(A, elem, factor)
        prev = coeffs.get(t.xdeg, zero)
        m = ring.from_int(t.coeff)
        coeffs[t.xdeg] = tuple(ring.add(p, ring.mul(m, e)) for p, e in zip(prev, elem))
    out = [coeffs.get(d, zero) for d in range(max(coeffs, default=-1) + 1)]
    while out and all(a == 0 for a in out[-1]):
        out.pop()
    return tuple(out)


def _zz_cases(rng):
    # ZZ[u]/(u^2 - 3u) has a structure constant other than 0 and 1
    twisted = Algebra(ZZ, 2, ("1", "u"), {(0, 0): {0: 1}, (0, 1): {1: 1},
                                          (1, 0): {1: 1}, (1, 1): {1: 3}})
    for A in (upper_2x2(ZZ), truncated_polynomial(ZZ, 3), twisted):
        u = tuple(rng.randint(-3, 3) for _ in range(A.rank))
        yield A, inner_derivation(A, u)
    A = truncated_polynomial(ZZ, 3)
    yield A, Derivation(tuple(tuple(ZZ.zero for _ in range(3)) for _ in range(3)))


def _qq_cases(rng):
    # QQ[u]/(u^2 - u/2) mixes int and Fraction structure constants;
    # conjugates have dense, mostly non-integral ones
    halved = Algebra(QQ, 2, ("1", "u"), {(0, 0): {0: 1}, (0, 1): {1: 1},
                                         (1, 0): {1: 1}, (1, 1): {1: Fraction(1, 2)}})
    # apply and evaluate_terms use the matrix only as a linear map
    yield halved, Derivation(((0, Fraction(-1, 3)), (Fraction(2, 5), 1)))
    for base in (strictly_upper_3x3(), truncated_polynomial(QQ, 3), upper_2x2()):
        A = random_conjugate(base, rng)
        yield A, random_derivation(A, rng)


def _gf_cases(p):
    def cases(rng):
        yield charp_truncated(p)
        A = upper_2x2(GF(p))
        yield A, inner_derivation(A, tuple(rng.randrange(p) for _ in range(A.rank)))
        # constants given outside the ring are reduced on the way in: 1/2 is
        # (p + 1) / 2 mod p (1/3 stands in over GF(2)), p and -1 are 0 and p - 1
        half = Fraction(1, 2 if p != 2 else 3)
        yield Algebra(GF(p), 1, None, {(0, 0): {0: half}}), Derivation(((1,),))
        yield Algebra(GF(p), 1, None, {(0, 0): {0: p}}), Derivation(((1,),))
        A = square_zero(2, GF(p))
        yield A, verify_leibniz(A, ((half, p), (-1, -half)))
    return cases


def _zz_scalar(rng):
    return rng.randint(-4, 4)


def _qq_scalar(rng):
    # ints, Fractions and both kinds of zero in one element
    return rng.choice((
        rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 6)), 0, QQ.zero,
    ))


@pytest.mark.parametrize("cases, scalar, check_type", [
    (_zz_cases, _zz_scalar, lambda a: type(a) is int),
    (_qq_cases, _qq_scalar, lambda a: type(a) is Fraction),
    (_gf_cases(2), lambda rng: rng.randrange(2), lambda a: type(a) is int and 0 <= a < 2),
    (_gf_cases(3), lambda rng: rng.randrange(3), lambda a: type(a) is int and 0 <= a < 3),
    (_gf_cases(5), lambda rng: rng.randrange(5), lambda a: type(a) is int and 0 <= a < 5),
    (_gf_cases(7), lambda rng: rng.randrange(7), lambda a: type(a) is int and 0 <= a < 7),
], ids=["ZZ", "QQ", "GF2", "GF3", "GF5", "GF7"])
def test_fast_path_matches_definition(cases, scalar, check_type):
    rng = random.Random(0xFA57)
    for A, D in cases(rng):
        ring = A.ring
        if ring != QQ:  # QQ keeps the ints and Fractions it is given
            assert all(check_type(c) for row in A.table.values() for c in row.values())
            assert all(check_type(c) for row in D.matrix for c in row)

        def draw():
            return tuple(scalar(rng) for _ in range(A.rank))

        zeros = [tuple(0 for _ in range(A.rank)), A.zero()]
        elems = zeros + [A.basis_element(i) for i in range(A.rank)]
        elems += [draw() for _ in range(12)]
        for x in elems:
            got = D.apply(ring, x)
            assert got == _ref_apply(ring, D, x)
            assert all(check_type(a) for a in got)
            for y in elems:
                got = A.mul(x, y)
                assert got == _ref_mul(A, x, y)
                assert all(check_type(a) for a in got)
        for _ in range(20):
            gens = [rng.choice(elems) for _ in range(3)]
            terms = []
            for _ in range(rng.randint(0, 6)):
                n = rng.randint(1, 3)
                letters = tuple(rng.randint(0, 3) for _ in range(n))
                terms.append(CanonicalTerm(
                    rng.randint(-3, 3), rng.randrange(3),
                    tuple(rng.randrange(3) for _ in range(n)), Word(letters), rng.randint(0, 3),
                ))
            got = evaluate_terms(A, D, gens, terms)
            assert got.coeffs == _ref_evaluate(A, D, gens, terms)
            assert all(check_type(a) for c in got.coeffs for a in c)


def test_constants_outside_the_ring_refused():
    # a denominator must be a unit of the ring: none is over ZZ, and no
    # multiple of p is over GF(p)
    half = Fraction(1, 2)
    with pytest.raises(ValueError):
        Algebra(ZZ, 1, None, {(0, 0): {0: half}})
    with pytest.raises(ValueError):
        verify_leibniz(square_zero(1, ZZ), ((half,),))
    with pytest.raises(ValueError):
        Derivation(((half,),)).apply(ZZ, (1,))
    with pytest.raises(ValueError):
        _from_numerators(ZZ, (1,), 2)
    with pytest.raises(ValueError):
        Algebra(GF(5), 1, None, {(0, 0): {0: Fraction(1, 10)}})
    with pytest.raises(ValueError):
        verify_leibniz(square_zero(1, GF(5)), ((Fraction(2, 5),),))


# --- identities -------------------------------------------------------------

def test_commutative_identity_on_split_pair():
    ok, witness = verify_identity(split_pair(), commutators_identity())
    assert ok and witness is None


def test_vanishing_identity_on_upper3():
    ok, _ = verify_identity(strictly_upper_3x3(), vanishing_identity(3))
    assert ok


def test_noncommutative_witness():
    ok, witness = verify_identity(upper_2x2(), commutators_identity())
    assert not ok
    assert witness == (0, 1)  # e11 * e12 = e12 but e12 * e11 = 0


def test_identity_validation():
    with pytest.raises(ValueError):
        MultilinearIdentity(2, {(1, 2): 1})  # identity permutation
    with pytest.raises(ValueError):
        MultilinearIdentity(2, {(1, 1): 1})  # not a permutation


def test_identity_holds_on_random_tuples(rng):
    # basis verification extends to arbitrary elements by multilinearity
    A = strictly_upper_3x3()
    ok, _ = verify_identity(A, vanishing_identity(3))
    assert ok
    for _ in range(1000):
        xs = [random_element(A, rng) for _ in range(3)]
        assert A.is_zero_elem(product(A, xs))
    sp = split_pair()
    ok, _ = verify_identity(sp, commutators_identity())
    assert ok
    for _ in range(1000):
        x, y = random_element(sp, rng), random_element(sp, rng)
        assert sp.mul(x, y) == sp.mul(y, x)


def test_standard_identity_format():
    assert standard_identity(2) == commutators_identity()
    s3 = dict(standard_identity(3).coefficients)
    # X1X2X3 = -(sum of sgn(sigma) X_sigma) over the five other permutations
    assert s3 == {(1, 3, 2): 1, (2, 1, 3): 1, (3, 2, 1): 1, (2, 3, 1): -1, (3, 1, 2): -1}
    assert len(standard_identity(4).coefficients) == 23


@pytest.mark.parametrize("ring", [QQ, ZZ, GF(2), GF(3)], ids=str)
def test_amitsur_levitzki_m2(ring):
    # M_n satisfies s_2n (Amitsur-Levitzki) and no identity of degree < 2n
    M2 = full_matrix(2, ring)
    assert verify_identity(M2, standard_identity(4)) == (True, None)
    ok, witness = verify_identity(M2, standard_identity(3))
    assert not ok
    assert (ok, witness) == _ref_verify_identity(M2, standard_identity(3))


def test_amitsur_levitzki_m3_s6():
    M3 = full_matrix(3)
    assert verify_identity(M3, standard_identity(6)) == (True, None)
    # the per-tuple check stops early here: the first failing tuple is small
    s4 = verify_identity(M3, standard_identity(4))
    assert not s4[0] and s4 == _ref_verify_identity(M3, standard_identity(4))


def test_vanishing_identity_on_strictly_upper_6x6():
    A = strictly_upper(6)
    assert verify_identity(A, vanishing_identity(6)) == (True, None)
    # e12 e23 e34 e45 e56 = e16 is the first nonzero product of five units
    assert verify_identity(A, vanishing_identity(5)) == (False, (0, 5, 9, 12, 14))


def test_identity_walk_budget(monkeypatch):
    from orelab import algebra

    # strictly upper 5x5 has 10 + 10 + 5 + 1 nonzero products of 1..4 units
    A = strictly_upper(5)
    monkeypatch.setattr(algebra, "DEFAULT_IDENTITY_BUDGET", 26)
    assert verify_identity(A, vanishing_identity(5)) == (True, None)
    for budget in (25, 3):
        monkeypatch.setattr(algebra, "DEFAULT_IDENTITY_BUDGET", budget)
        with pytest.raises(BudgetExceeded):
            verify_identity(A, vanishing_identity(5))


def test_vanishing_identity_stops_at_first_support_tuple(monkeypatch):
    from orelab import algebra

    # e11^12 = e11: the walk reaches (0,)*12 after 12 prefixes and stops,
    # though M_3 has 3^13 nonzero products of 12 units
    monkeypatch.setattr(algebra, "DEFAULT_IDENTITY_BUDGET", 12)
    assert verify_identity(full_matrix(3), vanishing_identity(12)) == (False, (0,) * 12)


def test_identity_with_right_side_walks_whole_support(monkeypatch):
    from orelab import algebra

    # with a right-hand side the witness needs every orbit of the support, so
    # an identity that fails at a small tuple still walks the whole support
    # and a support larger than the budget raises instead of returning it
    swap = MultilinearIdentity(12, {(2, 1) + tuple(range(3, 13)): 1})
    monkeypatch.setattr(algebra, "DEFAULT_IDENTITY_BUDGET", 1000)
    with pytest.raises(BudgetExceeded):
        verify_identity(full_matrix(3), swap)
    M2 = full_matrix(2)
    swap4 = MultilinearIdentity(4, {(2, 1, 3, 4): 1})
    assert verify_identity(M2, swap4) == _ref_verify_identity(M2, swap4)


# --- whole-algebra checks against the per-tuple and per-pair definitions ------

def _ref_verify_identity(A, ident):
    """Every basis tuple in lexicographic order, each permuted product
    rebuilt with Algebra.mul."""
    for idx in itertools.product(range(A.rank), repeat=ident.degree):
        elems = [A.basis_element(i) for i in idx]
        lhs = product(A, elems)
        rhs = A.zero()
        for perm, c in ident.coefficients:
            rhs = A.add(rhs, scale_int(A, c, product(A, [elems[p - 1] for p in perm])))
        if lhs != rhs:
            return False, idx
    return True, None


def _ref_associativity_failures(ring, rank, table):
    """(i, j, k, left, right) for every basis triple with (e_i e_j) e_k !=
    e_i (e_j e_k), in lexicographic order; both sides from the raw table."""
    T = SimpleNamespace(ring=ring, rank=rank, table=table)

    def basis_element(i):
        return tuple(ring.one if t == i else ring.zero for t in range(rank))

    def basis_product(i, j):
        row = table.get((i, j), {})
        return tuple(row.get(k, ring.zero) for k in range(rank))

    failures = []
    for i, j, k in itertools.product(range(rank), repeat=3):
        left = _ref_mul(T, basis_product(i, j), basis_element(k))
        right = _ref_mul(T, basis_element(i), basis_product(j, k))
        if left != right:
            failures.append((i, j, k, left, right))
    return failures


def _ref_leibniz_violation(A, matrix):
    """The first basis pair where D(e_i e_j) != D(e_i) e_j + e_i D(e_j), as
    (i, j, lhs, rhs), or None."""
    D = Derivation(tuple(tuple(row) for row in matrix))
    ring = A.ring
    for i in range(A.rank):
        for j in range(A.rank):
            ei, ej = A.basis_element(i), A.basis_element(j)
            lhs = D.apply(ring, A.basis_product(i, j))
            rhs = A.add(A.mul(D.apply(ring, ei), ej), A.mul(ei, D.apply(ring, ej)))
            if lhs != rhs:
                return i, j, lhs, rhs
    return None


CHECK_RINGS = [QQ, ZZ, GF(2), GF(3), GF(5)]
CHECK_BASES = [
    strictly_upper_3x3,
    upper_2x2,
    partial(full_matrix, 2),
    split_pair,
    lambda ring: truncated_polynomial(ring, 3),
    lambda ring: square_zero(2, ring),
]


def _unimodular_conjugate(A, rng):
    """A in the basis f_j = sum_i P[i][j] e_i for a random integer P of
    determinant 1, so the change of basis is exact over every ring."""
    r = A.rank
    L = [[rng.randint(-2, 2) if j < i else int(i == j) for j in range(r)] for i in range(r)]
    U = [[rng.randint(-2, 2) if j > i else int(i == j) for j in range(r)] for i in range(r)]
    P = [[sum(L[i][t] * U[t][j] for t in range(r)) for j in range(r)] for i in range(r)]
    Pinv = _invert([[QQ.from_int(c) for c in row] for row in P], QQ)
    Pinv = [[int(c) for c in row] for row in Pinv]  # determinant 1: integral
    ring = A.ring
    cols = [tuple(ring.from_int(P[i][j]) for i in range(r)) for j in range(r)]
    table = {}
    for i in range(r):
        for j in range(r):
            prod = A.mul(cols[i], cols[j])
            new = [ring.zero] * r
            for k in range(r):
                for t in range(r):
                    new[k] = ring.add(new[k], ring.mul(ring.from_int(Pinv[k][t]), prod[t]))
            table[(i, j)] = dict(enumerate(new))
    return Algebra(ring, r, None, table)


@st.composite
def check_algebras(draw):
    ring = draw(st.sampled_from(CHECK_RINGS))
    A = draw(st.sampled_from(CHECK_BASES))(ring)
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        if ring == QQ and draw(st.booleans()):
            A = random_conjugate(A, rng)
        else:
            A = _unimodular_conjugate(A, rng)
    return A


@st.composite
def identities(draw):
    degree = draw(st.integers(1, 3))
    others = list(itertools.permutations(range(1, degree + 1)))[1:]
    kind = draw(st.sampled_from(["vanishing", "standard", "random"]))
    if kind == "vanishing":
        return vanishing_identity(degree)
    if kind == "standard":
        return standard_identity(degree)
    coeffs = {p: draw(st.integers(-2, 2)) for p in others if draw(st.booleans())}
    if others and draw(st.booleans()):
        # coefficients summing to 1 let tuples with one repeated index pass,
        # so the witness lies deeper inside an orbit
        last = draw(st.sampled_from(others))
        coeffs[last] = 1 - sum(c for p, c in coeffs.items() if p != last)
    return MultilinearIdentity(degree, coeffs)


@settings(max_examples=400, deadline=None)
@given(check_algebras(), identities())
def test_verify_identity_matches_per_tuple_check(A, ident):
    assert verify_identity(A, ident) == _ref_verify_identity(A, ident)


def test_identity_residual_reduced_mod_p():
    # X1 X2 = -X2 X1 holds in a commutative algebra exactly when 2 = 0
    anti = MultilinearIdentity(2, {(2, 1): -1})
    assert verify_identity(truncated_polynomial(GF(2), 3), anti) == (True, None)
    assert verify_identity(truncated_polynomial(QQ, 3), anti) == (False, (0, 0))


@pytest.mark.parametrize("ring", CHECK_RINGS, ids=str)
def test_verify_identity_matches_on_m2_degree_4(ring):
    M2 = full_matrix(2, ring)
    for ident in (standard_identity(4), vanishing_identity(4),
                  MultilinearIdentity(4, {(2, 1, 4, 3): 1, (4, 3, 2, 1): -1})):
        assert verify_identity(M2, ident) == _ref_verify_identity(M2, ident)


@settings(max_examples=200, deadline=None)
@given(check_algebras(), st.sampled_from(["valid", "perturbed", "random"]),
       st.integers(0, 2**32))
def test_verify_leibniz_matches_per_pair_check(A, kind, seed):
    rng = random.Random(seed)
    ring, r = A.ring, A.rank
    if kind == "random":
        mat = [[ring.from_int(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)]
    else:
        if ring.is_field:
            mat = [list(row) for row in random_derivation(A, rng).matrix]
        else:
            mat = [list(row) for row in inner_derivation(A, random_element(A, rng)).matrix]
        if kind == "perturbed":
            a, b = rng.randrange(r), rng.randrange(r)
            mat[a][b] = ring.add(mat[a][b], ring.from_int(rng.choice((-2, -1, 1, 2))))
    expected = _ref_leibniz_violation(A, mat)
    if expected is None:
        assert verify_leibniz(A, mat).matrix == tuple(tuple(row) for row in mat)
    else:
        with pytest.raises(LeibnizViolation) as exc:
            verify_leibniz(A, mat)
        v = exc.value
        assert (v.i, v.j, v.lhs, v.rhs) == expected


# (e0 e0) e1 - e0 (e0 e1) = (1 - 4) e1: associative over GF(3) only
MOD3_TABLE = {(0, 0): {1: 1}, (0, 1): {1: 2}, (1, 0): {1: 2}, (1, 1): {1: 1}}


@settings(max_examples=200, deadline=None)
@given(check_algebras(), st.sampled_from(["valid", "perturbed", "random"]),
       st.integers(0, 2**32))
@example(Algebra(GF(3), 2, None, MOD3_TABLE), "valid", 0)
def test_associativity_check_matches_per_triple_check(A, kind, seed):
    rng = random.Random(seed)
    ring, r = A.ring, A.rank

    def constant():
        if ring == QQ and rng.random() < 0.5:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return ring.from_int(rng.choice((-2, -1, 1, 2)))

    if kind == "random":
        table = {(i, j): {k: constant() for k in range(r) if rng.random() < 0.5}
                 for i in range(r) for j in range(r) if rng.random() < 0.5}
    else:
        table = {ij: dict(row) for ij, row in A.table.items()}
        if kind == "perturbed":
            i, j, k = (rng.randrange(r) for _ in range(3))
            row = table.setdefault((i, j), {})
            row[k] = ring.add(row.get(k, ring.zero), constant())
    expected = _ref_associativity_failures(ring, r, table)
    if not expected:
        Algebra(ring, r, None, table)
    else:
        with pytest.raises(AssociativityViolation) as exc:
            Algebra(ring, r, None, table)
        assert exc.value.failures == expected


def test_associativity_residual_reduced_mod_p():
    # the example above holds only mod 3: over ZZ two residuals are -3 and 3
    with pytest.raises(AssociativityViolation) as exc:
        Algebra(ZZ, 2, None, MOD3_TABLE)
    assert [f[:3] for f in exc.value.failures] == [(0, 0, 1), (1, 0, 0)]


# --- spans, powers, nilpotency ----------------------------------------------

def test_nilpotency_index_examples():
    A = strictly_upper_3x3()
    S = A.span([A.basis_element(i) for i in range(3)])
    assert nilpotency_index(A, S) == 3
    sq = square_zero(2)
    assert nilpotency_index(sq, sq.span([sq.basis_element(0), sq.basis_element(1)])) == 2
    T = truncated_polynomial(GF(3), 3)
    assert nilpotency_index(T, T.span([T.basis_element(0)])) is None


def test_nilpotency_index_walks_to_rank_plus_one_when_powers_cycle():
    # (p - q)^2 = p + q and (p + q)(p - q) = p - q: the powers alternate
    # and never vanish, so the walk runs to its rank + 1 limit
    A = split_pair()
    p, q = A.basis_element(0), A.basis_element(1)
    d, s = A.sub(p, q), A.add(p, q)
    assert A.mul(d, d) == s and A.mul(s, d) == d
    assert nilpotency_index(A, A.span([d])) is None


def test_nilpotency_index_reaches_rank_plus_one():
    # t in t*QQ[t]/(t^n) has index n = rank + 1, the largest the walk allows
    for n in range(2, 7):
        A = truncated_ideal(n)
        assert nilpotency_index(A, A.span([A.basis_element(0)])) == A.rank + 1 == n


def test_nilpotency_agrees_with_naive_products(rng):
    # rank <= 4: compare against direct enumeration of m-fold products
    import itertools

    for A in (strictly_upper_3x3(), square_zero(3), truncated_polynomial(QQ, 4)):
        vectors = [random_element(A, rng, span=2) for _ in range(2)]
        S = A.span(vectors)
        idx = nilpotency_index(A, S)
        if S.is_zero:
            assert idx == 1
            continue
        for m in range(1, (idx or 6) + 1):
            prods = [
                product(A, list(tup))
                for tup in itertools.product([A.element(v) for v in S.basis], repeat=m)
            ]
            all_zero = all(A.is_zero_elem(p) for p in prods)
            if idx is None:
                assert not all_zero
            else:
                assert all_zero == (m >= idx)


def _ref_nilpotency_index(A, S):
    """Least b with S^b = 0 by A.mul on the basis, walked to rank + 1."""
    if S.is_zero:
        return 1
    current = S
    for b in range(2, A.rank + 2):
        current = A.span([A.mul(x, y) for x in current.basis for y in S.basis])
        if current.is_zero:
            return b
    return None


def _ref_nil_ideal(A, V):
    """(verdict, nilpotency index, closure failure) from A.mul and contains
    in (side, i, basis row) order."""
    for side in ("left", "right"):
        for i in range(A.rank):
            e = A.basis_element(i)
            for v in V.basis:
                w = A.mul(e, v) if side == "left" else A.mul(v, e)
                if not V.contains(w):
                    return False, None, (side, i, w)
    idx = _ref_nilpotency_index(A, V)
    return idx is not None, idx, None


def _ref_principal_ideal(A, b):
    """Frontier walk: add the basis multiples of the last new vectors that
    fall outside the span, until none does."""
    span = A.span([b])
    frontier = [b]
    while frontier:
        new = [w for v in frontier for i in range(A.rank)
               for w in (A.mul(A.basis_element(i), v), A.mul(v, A.basis_element(i)))
               if not span.contains(w)]
        if new:
            span = span.plus(A.span(new))
        frontier = new
    return span


def _ref_stability(A, delta, N):
    """check_delta_stability by Derivation.apply on N's basis vectors."""
    if not _ref_nil_ideal(A, N)[0]:
        raise PreconditionViolated("stability check requires a verified nil ideal")
    for v in N.basis:
        image = delta.apply(A.ring, A.element(v))
        if not N.contains(image):
            return StabilityResult(False, (tuple(v), image))
    return StabilityResult(True, None)


def _ref_b_sequence(A, delta, T):
    """Indices of span(T u delta(T) u ... u delta^n(T)) from ring-element
    iterates, until delta^(n+1)(T) adds nothing to the span."""
    iterates = [A.element(t) for t in T]
    span_now = A.span(iterates)
    prefix = []
    while True:
        b = _ref_nilpotency_index(A, span_now)
        if b is None:
            raise NotNilpotent(len(prefix))
        prefix.append(b)
        iterates = [delta.apply(A.ring, x) for x in iterates]
        span_next = A.span([*span_now.basis, *iterates])
        if span_next == span_now:
            return BoundSequence(tuple(prefix), extend_tail=True)
        span_now = span_next


def _ref_nilpotent_image(A, delta, b, n, N):
    """verify_nilpotent_image from A.mul products of the ring-element
    iterates of b, padded with zeros to order n."""
    if not _ref_nil_ideal(A, N)[0]:
        raise PreconditionViolated("N must be a verified nil ideal")
    if not A.is_zero_elem(product(A, [b] * n)):
        raise PreconditionViolated(f"b^{n} is nonzero")
    table = leibniz_coefficients(n)
    ideal = _ref_principal_ideal(A, b)
    iterates = delta.iterates(A.ring, b, n)
    iterates += [A.zero()] * (n + 1 - len(iterates))
    terms_ok = all(ideal.contains(product(A, [iterates[j] for j in comp]))
                   for comp, _c in table.coefficients if 0 in comp)
    c_top = table.coefficient((1,) * n)
    lead = scale_int(A, c_top, product(A, [iterates[1]] * n))
    return NilpotentImageReport(
        power_vanishes=True,
        ideal_terms_in_n=terms_ok,
        ideal_inside_n=all(N.contains(v) for v in ideal.basis),
        leading_multiple_in_n=N.contains(lead),
        leading_coefficient=c_top,
    )


def _outcome(f, *args):
    """f(*args), or the type and level of the orelab error it raises."""
    try:
        return f(*args)
    except (NotNilpotent, PreconditionViolated) as exc:
        return type(exc), getattr(exc, "level", None)


@settings(max_examples=200, deadline=None)
@given(check_algebras(), st.integers(1, 3), st.integers(0, 2**32))
def test_closure_checks_match_reference_loops(A, size, seed):
    rng = random.Random(seed)
    # random elements, basis elements and their products, so that some
    # spans are ideals and some are nilpotent
    pool = [random_element(A, rng, span=2) for _ in range(3)]
    pool += [A.basis_element(i) for i in range(A.rank)]
    pool += [A.mul(x, y) for x in pool[:3] for y in pool]
    elems = [rng.choice(pool) for _ in range(size)]
    if A.ring.is_field:
        D = random_derivation(A, rng)
    else:
        D = inner_derivation(A, random_element(A, rng))
    assert _outcome(b_sequence, A, D, elems) == _outcome(_ref_b_sequence, A, D, elems)
    ideal = principal_ideal(A, elems[0])
    assert ideal == _ref_principal_ideal(A, elems[0])
    for V in (A.span(elems), ideal):
        ok, cert = is_nil_ideal(A, V)
        expected = _ref_nil_ideal(A, V)
        assert (ok, cert.nilpotency_index, cert.closure_failure) == expected
        assert nilpotency_index(A, V) == _ref_nilpotency_index(A, V)
        stability = _outcome(check_delta_stability, A, D, V)
        assert stability == _outcome(_ref_stability, A, D, V)
        if expected[2] is None:
            # on a two-sided ideal neither check multiplies ring elements
            calls = []
            A.mul = lambda x, y: calls.append((x, y))
            try:
                is_nil_ideal(A, V)
                nilpotency_index(A, V)
            finally:
                del A.mul
            assert not calls
        if ok and stability.stable:
            # nor does a stable stability check apply delta to them
            calls = []

            def record(*args):
                calls.append(args)

            with patch.object(Algebra, "mul", record), patch.object(Derivation, "apply", record):
                check_delta_stability(A, D, V)
            assert not calls
        if ok:
            # b in the nil ideal V, so b^n = 0 at V's index n
            b = linear_combination(A, [(rng.randint(-2, 2), v) for v in V.basis])
            n = cert.nilpotency_index
            assert (verify_nilpotent_image(A, D, b, n, V)
                    == _ref_nilpotent_image(A, D, b, n, V))


def test_b_sequence_examples():
    A = strictly_upper_3x3()
    zero_rows = tuple(tuple(QQ.zero for _ in range(3)) for _ in range(3))
    D0 = verify_leibniz(A, zero_rows)
    bs = b_sequence(A, D0, [A.basis_element(0)])
    assert all(bs.value(m) == bs.value(0) for m in range(3))

    Din = inner_derivation(A, A.basis_element(0))
    bs2 = b_sequence(A, Din, [A.basis_element(2)])
    assert bs2.value(0) == 2 and bs2.value(1) == 2
    assert bs2.extend_tail

    T3 = truncated_polynomial(GF(3), 3)
    D3 = formal_derivative(T3, 3)
    with pytest.raises(NotNilpotent) as exc:
        b_sequence(T3, D3, [T3.basis_element(1)])
    assert exc.value.level == 1


def test_unitalize():
    sq = square_zero(1)
    U = unitalize(sq)
    assert U.rank == 2 and U.unit == 0
    one, z = U.basis_element(0), U.basis_element(1)
    assert U.mul(one, z) == z and U.mul(z, one) == z
    assert U.is_zero_elem(U.mul(z, z))
    # restriction to the embedded copy recovers the original products
    A = strictly_upper_3x3()
    UA = unitalize(A)
    for i in range(A.rank):
        for j in range(A.rank):
            big = UA.mul(UA.basis_element(i + 1), UA.basis_element(j + 1))
            assert big[0] == QQ.zero
            assert big[1:] == A.basis_product(i, j)


def test_derivation_space_spans_inner(rng):
    A = upper_2x2()
    basis = derivation_space(A)
    assert basis
    for B in basis:
        verify_leibniz(A, B)


def upper_triangular_table(n):
    """e_ab * e_bc = e_ac on the units a <= b of n x n matrices, written
    out; the units in row-major order."""
    units = [(a, b) for a in range(n) for b in range(a, n)]
    return {(units.index((a, b)), units.index((b, c))): {units.index((a, c)): QQ.one}
            for a, b in units for c in range(b, n)}


def test_block_upper_extremes_are_full_and_upper_triangular():
    for n in (1, 2, 3, 4):
        F = block_upper((n,))
        assert F.table == full_matrix(n).table and F.basis_names == full_matrix(n).basis_names
        U = block_upper((1,) * n)
        assert U.rank == n * (n + 1) // 2 and U.table == upper_triangular_table(n)
    assert block_upper((1, 1)).table == upper_2x2().table
    assert block_upper((2, 1), GF(3)).ring == GF(3)
    for bad in ((), (0,), (2, -1)):
        with pytest.raises(ValueError):
            block_upper(bad)
    with pytest.raises(TypeError):
        block_upper((1.5,))


@pytest.mark.parametrize("sizes, rank", [((2,), 4), ((2, 1), 7), ((3,), 9)])
def test_block_upper_derivations_on_conjugates(sizes, rank, rng):
    """Der(A) of M_2, [[M_2, *], [0, QQ]] and M_3 in a random basis: every
    derivation is inner and the centre is QQ 1, so dim Der(A) = rank - 1."""
    A = random_conjugate(block_upper(sizes), rng)
    assert A.rank == rank
    basis = derivation_space(A)
    assert len(basis) == rank - 1
    for B in basis:
        verify_leibniz(A, B)



def _typed(matrix):
    """A matrix with the type of every entry, so that Fraction(2) and 2
    compare unequal."""
    return tuple(tuple((type(a), a) for a in row) for row in matrix)


def _reference_algebras():
    """The derivation-space cases: square_zero(2) has no Leibniz equations
    at all; the conjugates have dense Fraction structure constants."""
    rng = random.Random(20261020)
    yield "square_zero(2)", square_zero(2)
    yield "strictly_upper(4)", strictly_upper(4)
    yield "upper_2x2", upper_2x2()
    yield "truncated_polynomial(QQ, 4)", truncated_polynomial(QQ, 4)
    yield "block_upper((2, 1))", block_upper((2, 1))
    yield "charp_truncated(5)", charp_truncated(5)[0]
    for name, base in (("upper_2x2", upper_2x2), ("strictly_upper_3x3", strictly_upper_3x3),
                       ("full_matrix(3)", lambda: full_matrix(3)),
                       ("truncated_polynomial(QQ, 4)", lambda: truncated_polynomial(QQ, 4))):
        yield f"conjugate of {name}", random_conjugate(base(), rng)


@pytest.mark.parametrize("name, A", list(_reference_algebras()),
                         ids=[name for name, _ in _reference_algebras()])
def test_derivation_space_matches_reference(name, A):
    """The grouped Leibniz walk into dense integer rows, handed to the
    elimination without a numerator scan, gives the basis that the
    per-term walk and the public `nullspace` give, entry types included."""
    basis = derivation_space(A)
    expected = reference.derivation_space(A)
    assert [_typed(B) for B in basis] == [_typed(B) for B in expected]
    if name == "square_zero(2)":
        assert len(basis) == 4  # every linear map is a derivation


def _inner_derivation_cases():
    """(algebra, u): Fraction and int-tuple u over QQ, u over ZZ and over
    GF(p), unreduced entries included, and u on conjugates."""
    rng = random.Random(20261021)
    A = upper_2x2()
    yield A, (Fraction(1, 2), Fraction(-3), Fraction(2, 3))
    yield A, (3, -1, 2)
    yield strictly_upper_3x3(), (Fraction(5, 7), Fraction(0), Fraction(-1, 4))
    yield strictly_upper_3x3(), (1, 2, 3)
    yield block_upper((2, 1)), tuple(rng.randint(-3, 3) for _ in range(7))
    for ring_A in (strictly_upper_3x3(ZZ), block_upper((2, 1), ZZ), strictly_upper(4, ZZ)):
        yield ring_A, tuple(rng.randint(-5, 5) for _ in range(ring_A.rank))
    for ring_A in (charp_truncated(5)[0], block_upper((2, 1), GF(3)), strictly_upper_3x3(GF(7))):
        p = ring_A.ring.p
        yield ring_A, tuple(rng.randrange(p) for _ in range(ring_A.rank))
        yield ring_A, tuple(rng.randint(-2 * p, 2 * p) for _ in range(ring_A.rank))
    for base in (upper_2x2(), truncated_polynomial(QQ, 4), full_matrix(3)):
        C = random_conjugate(base, rng)
        yield C, random_element(C, rng)
        yield C, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(C.rank))
        yield C, tuple(rng.randint(-3, 3) for _ in range(C.rank))


@pytest.mark.parametrize("A, u", list(_inner_derivation_cases()))
def test_inner_derivation_matches_reference(A, u):
    """One pass over the integer structure constants gives the matrix that
    the columns u e_j - e_j u built with `mul` and `sub` give, with the same
    entry types (Fractions over QQ, ints reduced mod p over GF(p))."""
    D = inner_derivation(A, u)
    assert _typed(D.matrix) == _typed(reference.inner_derivation(A, u).matrix)
    verify_leibniz(A, D.matrix)


@pytest.mark.parametrize("length", [0, 2, 4])
def test_inner_derivation_refuses_wrong_length(length):
    A = strictly_upper_3x3()
    with pytest.raises(RankMismatch):
        inner_derivation(A, (QQ.one,) * length)

# --- integer coefficient subspaces -------------------------------------------

def test_integer_saturated_spans():
    A = square_zero(3, ring=ZZ)
    S = A.span([(2, 0, 2), (0, 2, 2)])
    # saturation contains the primitive combination (1, -1, 0)
    assert S.contains((1, -1, 0))
    assert S.dim == 2
    assert not S.contains((1, 0, 0))


def test_integer_algebra_nilpotency():
    table = {(0, 2): {1: 1}}
    A = Algebra(ZZ, 3, ("e12", "e13", "e23"), table)
    S = A.span([A.basis_element(i) for i in range(3)])
    assert nilpotency_index(A, S) == 3


# --- the definition document --------------------------------------------------

GOOD_DOC = {
    "coeff_ring": "rationals",
    "rank": 3,
    "basis_names": ["e12", "e13", "e23"],
    "structure_constants": [[0, 2, 1, "1"]],
    "derivations": {
        "inner_e12": [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],
    },
    "identities": {"vanish3": {"degree": 3, "terms": []}},
}


def test_load_round_trip():
    A, ders, idents = load_algebra(json.dumps(GOOD_DOC))
    assert A.rank == 3 and A.ring == QQ
    assert A.mul(A.basis_element(0), A.basis_element(2)) == A.basis_element(1)
    assert set(ders) == {"inner_e12"} and set(idents) == {"vanish3"}
    ok, _ = verify_identity(A, idents["vanish3"])
    assert ok


def test_document_dump_round_trip():
    # load -> dump -> load over the catalog algebras and the upper 2x2
    # document: the reloaded objects equal the originals and dump the same
    U = strictly_upper_3x3()
    T = truncated_polynomial(QQ, 3)
    cases = [
        (*charp_truncated(3), None),
        (U, inner_derivation(U, U.basis_element(0)), vanishing_identity(3)),
        (T, scaling_derivation(T, 3, Fraction(-1, 2)), commutators_identity()),
        (full_matrix(2), None, standard_identity(4)),
        (strictly_upper(4, ZZ), None, vanishing_identity(4)),
        (upper_2x2(GF(7)), None, None),
        (square_zero(2), None, None),
        (split_pair(), None, commutators_identity()),
    ]
    cases = [
        (A, {} if D is None else {"D": D}, {} if ident is None else {"I": ident}) for A, D, ident in cases
    ]
    cases.append(parse_algebra_document(UPPER2X2))
    for A, ders, idents in cases:
        doc = algebra_to_document(A, ders, idents)
        B, ders2, idents2 = load_algebra(json.dumps(doc))
        assert (B.ring, B.rank, B.basis_names, B.table, B.unit) == \
            (A.ring, A.rank, A.basis_names, A.table, A.unit)
        assert ders2 == ders and idents2 == idents
        assert algebra_to_document(B, ders2, idents2) == doc


def test_load_rational_and_prime_values():
    doc = {
        "coeff_ring": {"prime": 5},
        "rank": 2,
        "structure_constants": [[0, 0, 1, "2/3"]],
    }
    A, _, _ = load_algebra(json.dumps(doc))
    # 2/3 mod 5 = 2 * inverse(3) = 2 * 2 = 4
    assert A.basis_product(0, 0)[1] == 4


def test_load_reports_bad_json_line():
    with pytest.raises(MalformedInput) as exc:
        load_algebra("{\n  \"coeff_ring\": rationals\n}")
    assert exc.value.line == 2


@pytest.mark.parametrize("mutate, field_part", [
    (lambda d: d.update(coeff_ring="floats"), "coeff_ring"),
    (lambda d: d.update(rank=0), "rank"),
    (lambda d: d.update(structure_constants=[[0, 9, 1, "1"]]), "structure_constants[0]"),
    (lambda d: d.update(structure_constants=[[0, 1, 1, "1.5"]]), "structure_constants[0]"),
    # int() reads Arabic-Indic digits, underscores and Unicode spaces
    (lambda d: d.update(structure_constants=[[0, 1, 1, "\u0663"]]), "structure_constants[0]"),
    (lambda d: d.update(structure_constants=[[0, 1, 1, "\u0661/2"]]), "structure_constants[0]"),
    (lambda d: d.update(structure_constants=[[0, 1, 1, "1/1_0"]]), "structure_constants[0]"),
    (lambda d: d.update(derivations={"bad": [["0", "0", "0"], ["0", "0", "1_0"], ["0"] * 3]}),
     "derivations['bad'][1][2]"),
    (lambda d: d.update(derivations={"bad": [["0", "\u20030", "0"], ["0"] * 3, ["0"] * 3]}),
     "derivations['bad'][0][1]"),
    (lambda d: d.update(unit=7), "unit"),
    (lambda d: d.update(derivations={"bad": [["1"]]}), "derivations"),
    (lambda d: d.update(identities={"bad": {"degree": 2, "terms": [{"perm": [1, 2], "coeff": 1}]}}),
     "identities"),
])
def test_load_rejects_malformed(mutate, field_part):
    doc = json.loads(json.dumps(GOOD_DOC))
    mutate(doc)
    with pytest.raises(MalformedInput) as exc:
        load_algebra(json.dumps(doc))
    assert field_part in (exc.value.field or "")


@pytest.mark.parametrize("text, value", [
    ("3", 3), ("-3", -3), ("+3", 3), (" 12\t", 12), ("007", 7), ("-0", 0),
])
def test_parse_int_takes_signed_ascii_decimals(text, value):
    assert parse_int(text) == value


@pytest.mark.parametrize("text", [
    "", " ", "-", "+-3", "\u0663", "1\u0663", "-\u0661", "1_0", "\u00b2", "3.0",
    "\u20033", "0x1", "1 2",
])
def test_parse_int_refuses_everything_else(text):
    with pytest.raises(ValueError, match="invalid integer"):
        parse_int(text)
    for ring in (ZZ, QQ, GF(5)):
        with pytest.raises(MalformedInput, match="cannot parse exact value"):
            ring.parse(text)


def test_load_rejects_integer_ring_fractions():
    doc = {"coeff_ring": "integers", "rank": 1, "structure_constants": [[0, 0, 0, "1/2"]]}
    with pytest.raises(MalformedInput):
        load_algebra(json.dumps(doc))
