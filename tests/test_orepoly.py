"""Ore multiplication, canonical rewriting, and the nilpotency pipeline."""

import itertools

import pytest

from conftest import random_conjugate, random_derivation, random_element, truncated_ideal

from orelab import orepoly

from orelab.algebra import inner_derivation, verify_leibniz
from orelab.catalog import (
    charp_truncated,
    scaling_derivation,
    square_zero,
    strictly_upper,
    strictly_upper_3x3,
    truncated_polynomial,
    upper_2x2,
    vanishing_identity,
)
from orelab.errors import BudgetExceeded, ExponentTooLarge, IdentityFails, NotNilpotent
from orelab.orepoly import (
    CanonicalTerm,
    DiffPoly,
    NilpotencyReport,
    commute_xd,
    direct_product,
    dp_add,
    evaluate_terms,
    minimal_nilpotency,
    mul_x_left,
    ore_multiply,
    rewrite_product,
    theorem_bound,
)
from orelab.rings import GF, QQ, ZZ
from orelab.words import Word, is_k_valid


def zero_derivation(A):
    z = A.ring.zero
    return verify_leibniz(A, tuple(tuple(z for _ in range(A.rank)) for _ in range(A.rank)))


# --- multiplication ---------------------------------------------------------

def test_zero_derivation_reduces_to_plain_polynomials():
    A = truncated_polynomial(QQ, 3)
    D0 = zero_derivation(A)
    t = A.basis_element(1)
    f = DiffPoly(A, [t, A.basis_element(0)])          # t + x
    g = DiffPoly(A, [A.basis_element(0), t])          # 1 + t x
    prod = ore_multiply(A, D0, f, g)
    # (t + x)(1 + t x) with commuting x: t + (t^2 + 1) x + t x^2
    assert prod.coeffs[0] == t
    assert prod.coeffs[1] == A.add(A.basis_element(2), A.basis_element(0))
    assert prod.coeffs[2] == t


def test_x_times_constant_is_ore_rule():
    A = strictly_upper_3x3()
    D = inner_derivation(A, A.basis_element(0))
    a = A.basis_element(2)
    x = DiffPoly(A, [A.zero(), find_one_like(A)]) if False else None
    f = mul_x_left(A, D, DiffPoly.constant(A, a))
    # x a = a x + delta(a)
    assert f.coeffs[1] == a
    assert f.coeffs[0] == D.apply(A.ring, a)


def find_one_like(A):
    return A.basis_element(0)


def test_ore_associative_and_distributive_random(rng):
    A = D = None
    for trial in range(500):
        if trial % 50 == 0:
            base = (strictly_upper_3x3(), truncated_polynomial(QQ, 3), upper_2x2())
            A = random_conjugate(base[(trial // 50) % 3], rng)
            D = random_derivation(A, rng)
        polys = [
            DiffPoly(A, [random_element(A, rng, 2) for _ in range(rng.randint(1, 3))])
            for _ in range(3)
        ]
        f, g, h = polys
        left = ore_multiply(A, D, ore_multiply(A, D, f, g), h)
        right = ore_multiply(A, D, f, ore_multiply(A, D, g, h))
        assert left == right
        sum_fg = dp_add(A, f, g)
        lhs = ore_multiply(A, D, sum_fg, h)
        rhs = dp_add(A, ore_multiply(A, D, f, h), ore_multiply(A, D, g, h))
        assert lhs == rhs


# --- the x^d a expansion -----------------------------------------------------

def test_commute_xd_small_cases():
    A = truncated_polynomial(QQ, 4)
    D = random_derivation(A, __import__("random").Random(3))
    a = A.basis_element(1)
    d1 = commute_xd(A, D, 1, a)
    assert d1 == [(1, a, 1), (1, D.apply(A.ring, a), 0)]
    d2 = commute_xd(A, D, 2, a)
    da = D.apply(A.ring, a)
    assert d2 == [(1, a, 2), (2, da, 1), (1, D.apply(A.ring, da), 0)]
    assert commute_xd(A, D, 0, a) == [(1, a, 0)]


@pytest.mark.parametrize("d", range(7))
def test_commute_xd_matches_single_steps(d, rng):
    A = random_conjugate(upper_2x2(), rng)
    D = random_derivation(A, rng)
    a = random_element(A, rng)
    stepped = DiffPoly.constant(A, a)
    for _ in range(d):
        stepped = mul_x_left(A, D, stepped)
    assembled = DiffPoly.zero(A)
    for c, e, m in commute_xd(A, D, d, a):
        assembled = dp_add(A, assembled, DiffPoly(A, [A.zero()] * m + [A.scale_int(c, e)]))
    assert assembled == stepped


# --- canonical rewriting -----------------------------------------------------

def test_rewrite_single_x_example():
    A = strictly_upper_3x3()
    D = inner_derivation(A, A.basis_element(0))
    gens = [A.basis_element(i) for i in range(A.rank)]
    terms = rewrite_product(A, D, gens, 0, [2], (1, 0), 1)
    assert [t.fmt() for t in terms] == ["1 | 0,2 | 0 | 1", "1 | 0,2 | 1 | 0"]
    for t in terms:
        assert is_k_valid(t.jword, 1)


def test_rewrite_zero_derivation_single_term():
    A = strictly_upper_3x3()
    D0 = zero_derivation(A)
    gens = [A.basis_element(i) for i in range(A.rank)]
    terms = rewrite_product(A, D0, gens, 0, [1, 2], (2, 1, 2), 2)
    assert len(terms) == 1
    t = terms[0]
    assert t.jword.letters == (0, 0) and t.xdeg == 5 and t.coeff == 1


def test_rewrite_rejects_large_exponents():
    A = strictly_upper_3x3()
    D0 = zero_derivation(A)
    with pytest.raises(ExponentTooLarge):
        gens = [A.basis_element(i) for i in range(A.rank)]
        rewrite_product(A, D0, gens, 0, [1], (3, 0), 2)


def test_rewrite_terms_sorted_and_merged():
    A = upper_2x2()
    D = inner_derivation(A, A.basis_element(0))
    gens = [A.basis_element(i) for i in range(A.rank)]
    terms = rewrite_product(A, D, gens, 0, [1, 2], (2, 2, 1), 2)
    keys = [t.key() for t in terms]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert all(t.coeff != 0 for t in terms)


def test_rewrite_budget(monkeypatch):
    # delta(t) = t never vanishes, so t x^1 t visits (), (0,) and (1,)
    A = truncated_polynomial(QQ, 3)
    D = scaling_derivation(A, 3)
    gens = [A.basis_element(i) for i in range(A.rank)]
    monkeypatch.setattr(orepoly, "DEFAULT_REWRITE_BUDGET", 3)
    assert len(rewrite_product(A, D, gens, 1, [1], (1, 0), 1)) == 2
    for budget in (2, 0):
        monkeypatch.setattr(orepoly, "DEFAULT_REWRITE_BUDGET", budget)
        with pytest.raises(BudgetExceeded):
            rewrite_product(A, D, gens, 1, [1], (1, 0), 1)


@pytest.mark.parametrize("k", [1, 2])
def test_rewrite_round_trip_exhaustive(k, rng):
    """Sum of canonical terms equals the direct Ore product, and every
    j-word is k-valid, over all small products on sampled algebras."""
    A = random_conjugate(strictly_upper_3x3(), rng)
    D = random_derivation(A, rng)
    gens = [A.basis_element(i) for i in range(A.rank)]
    for n in (1, 2):
        for head in range(A.rank):
            for idx in itertools.product(range(A.rank), repeat=n):
                for exps in itertools.product(range(k + 1), repeat=n + 1):
                    terms = rewrite_product(A, D, gens, head, list(idx), exps, k)
                    assert all(is_k_valid(t.jword, k) for t in terms)
                    lhs = evaluate_terms(A, D, gens, terms)
                    rhs = direct_product(A, D, gens, head, list(idx), exps)
                    assert lhs == rhs


# --- prefix-shared evaluation against a per-term reference -------------------

def _per_term_evaluate(A, D, gens, terms):
    """Each term as its own A.mul chain over repeated apply calls, summed
    per x-degree by linear_combination."""
    by_degree = {}
    for t in terms:
        elem = gens[t.head]
        for idx, j in zip(t.indices, t.jword.letters):
            factor = gens[idx]
            for _ in range(j):
                factor = D.apply(A.ring, factor)
            elem = A.mul(elem, factor)
        by_degree.setdefault(t.xdeg, []).append((t.coeff, elem))
    top = max(by_degree, default=-1)
    return DiffPoly(A, [A.linear_combination(by_degree.get(d, ())) for d in range(top + 1)])


def _qq_evaluation_cases(rng):
    # random conjugates whose derivation matrix has an entry with a
    # denominator > 1
    for base in (strictly_upper_3x3(), upper_2x2(), truncated_polynomial(QQ, 3)):
        while True:
            A = random_conjugate(base, rng)
            D = random_derivation(A, rng)
            if any(c.denominator > 1 for row in D.matrix for c in row):
                yield A, D
                break


def _zz_evaluation_cases(rng):
    for A in (strictly_upper_3x3(ZZ), upper_2x2(ZZ)):
        yield A, inner_derivation(A, tuple(rng.randint(-3, 3) for _ in range(A.rank)))


def _gf_evaluation_cases(rng):
    yield charp_truncated(3)
    yield charp_truncated(5)
    A = upper_2x2(GF(5))
    yield A, inner_derivation(A, tuple(rng.randrange(5) for _ in range(A.rank)))


@pytest.mark.parametrize("cases", [_qq_evaluation_cases, _zz_evaluation_cases,
                                   _gf_evaluation_cases], ids=["QQ", "ZZ", "GF"])
def test_evaluate_terms_matches_per_term_reference(cases, rng):
    """Terms of several rewrites with mixed heads and indices, random
    terms and repeats, shuffled: the prefix-shared sum equals the per-term
    one in any order."""
    for A, D in cases(rng):
        gens = [A.basis_element(i) for i in range(A.rank)]
        gens += [random_element(A, rng), A.zero()]
        for _ in range(6):
            terms = []
            for _ in range(4):
                k, n = rng.randint(1, 2), rng.randint(1, 3)
                head = rng.randrange(len(gens))
                idx = [rng.randrange(len(gens)) for _ in range(n)]
                exps = [rng.randint(0, k) for _ in range(n + 1)]
                terms += rewrite_product(A, D, gens, head, idx, exps, k)
            for _ in range(6):
                n = rng.randint(1, 3)
                terms.append(CanonicalTerm(
                    rng.randint(-3, 3), rng.randrange(len(gens)),
                    tuple(rng.randrange(len(gens)) for _ in range(n)),
                    Word(rng.randint(0, 3) for _ in range(n)), rng.randint(0, 3),
                ))
            terms += terms[:3]
            rng.shuffle(terms)
            expected = _per_term_evaluate(A, D, gens, terms)
            assert evaluate_terms(A, D, gens, terms) == expected
            assert evaluate_terms(A, D, gens, sorted(terms, key=CanonicalTerm.key)) == expected


def test_evaluate_terms_stops_at_a_zero_prefix(monkeypatch):
    """A term stops at its first zero partial product, and the terms after
    it reuse that zero or recompute from the first factor that differs."""
    A = strictly_upper_3x3(ZZ)  # e12 e23 = e13 is the only nonzero product
    D = inner_derivation(A, A.basis_element(0))  # e23 -> e13 -> 0, e12 -> 0
    gens = [A.basis_element(i) for i in range(3)]
    e12, e13, e23 = 0, 1, 2

    def term(head, factors, xdeg=0, coeff=1):
        return CanonicalTerm(coeff, head, tuple(i for i, _ in factors),
                             Word(j for _, j in factors), xdeg)

    terms = [
        term(e12, [(e23, 0), (e12, 0), (e23, 0)]),  # e13 e12 = 0: 2 products
        term(e12, [(e23, 0), (e12, 0), (e13, 0)]),  # same zero prefix: none
        term(e12, [(e23, 0)], coeff=2),  # prefix of the terms before: none
        term(e12, [(e23, 1), (e23, 0)]),  # e12 delta(e23) = e12 e13 = 0: 1
        term(e12, [(e23, 2), (e23, 0)], xdeg=1),  # delta^2(e23) = 0: none
        term(e23, [(e23, 0)], xdeg=1),  # new head: 1
        term(e12, [(e23, 0)], xdeg=2, coeff=-3),  # new head again: 1
    ]
    calls = []
    mul_num = A._mul_num
    monkeypatch.setattr(A, "_mul_num", lambda *args: calls.append(args) or mul_num(*args))
    got = evaluate_terms(A, D, gens, terms)
    assert len(calls) == 5
    assert got.coeffs == ((0, 2, 0), (0, 0, 0), (0, -3, 0))
    assert got == _per_term_evaluate(A, D, gens, terms)


# --- spans of polynomial sets -------------------------------------------------

def test_power_dims_examples():
    A = strictly_upper_3x3()
    D0 = zero_derivation(A)
    S = [DiffPoly(A, [A.basis_element(0), A.basis_element(2)])]  # e12 + e23 x
    assert minimal_nilpotency(A, D0, S, 1).power_dims == (1, 1)
    assert minimal_nilpotency(A, D0, S, 5).power_dims == (1, 1, 0)

    sq = square_zero(1)
    Dsq = zero_derivation(sq)
    Ssq = [DiffPoly(sq, [sq.zero(), sq.basis_element(0)])]
    assert minimal_nilpotency(sq, Dsq, Ssq, 5).power_dims == (1, 0)


def test_minimal_nilpotency_examples():
    A = strictly_upper_3x3()
    D0 = zero_derivation(A)
    S = [DiffPoly(A, [A.basis_element(0), A.basis_element(2)])]
    rep = minimal_nilpotency(A, D0, S, 5)
    assert rep.minimal_N == 2 and rep.power_dims == (1, 1, 0)

    sq = square_zero(1)
    Ssq = [DiffPoly(sq, [sq.zero(), sq.basis_element(0)])]
    assert minimal_nilpotency(sq, zero_derivation(sq), Ssq, 5).minimal_N == 1

    unital = truncated_polynomial(QQ, 2)
    one = [DiffPoly.constant(unital, unital.basis_element(0))]
    rep2 = minimal_nilpotency(unital, zero_derivation(unital), one, 3)
    assert rep2.minimal_N is None and rep2.power_dims == (1, 1, 1, 1)


def test_minimal_nilpotency_rejects_negative_cap():
    A = strictly_upper_3x3()
    D0 = zero_derivation(A)
    S = [DiffPoly(A, [A.basis_element(0), A.basis_element(2)])]
    with pytest.raises(ValueError, match="cap"):
        minimal_nilpotency(A, D0, S, -1)
    assert minimal_nilpotency(A, D0, S, 0) == NilpotencyReport(None, (1,))


def test_theorem_bound_pipeline():
    A = strictly_upper_3x3()
    D = inner_derivation(A, A.basis_element(0))
    T = [A.basis_element(i) for i in range(3)]
    N = theorem_bound(A, D, T, 1, vanishing_identity(3))
    assert N >= 1
    # sampled S inside T + Tx verify below the bound
    S = [DiffPoly(A, [T[0], T[2]]), DiffPoly(A, [T[1], T[0]])]
    rep = minimal_nilpotency(A, D, S, 8)
    assert rep.minimal_N is not None and rep.minimal_N <= N


def test_theorem_bound_monotone_in_k():
    A = strictly_upper_3x3()
    D = inner_derivation(A, A.basis_element(0))
    T = [A.basis_element(i) for i in range(3)]
    ident = vanishing_identity(3)
    values = [theorem_bound(A, D, T, k, ident) for k in (1, 2, 3)]
    assert values == sorted(values)


def test_theorem_bound_identity_failure():
    A = upper_2x2()
    D0 = zero_derivation(A)
    with pytest.raises(IdentityFails):
        theorem_bound(A, D0, [A.basis_element(1)], 1, vanishing_identity(2))


def test_theorem_bound_not_nilpotent():
    from orelab.catalog import commutators_identity

    A = truncated_polynomial(QQ, 3)
    D0 = zero_derivation(A)
    with pytest.raises(NotNilpotent):
        theorem_bound(A, D0, [A.basis_element(0)], 1, commutators_identity())


def _random_sets(A, rng, count=10):
    """(derivation, polynomial set) pairs with one or two polynomials of
    x-degree <= 1."""
    for _ in range(count):
        D = random_derivation(A, rng)
        S = [
            DiffPoly(A, [random_element(A, rng, 2) for _ in range(rng.randint(1, 2))])
            for _ in range(rng.randint(1, 2))
        ]
        yield D, S


def test_locally_nilpotent_sets_terminate(rng):
    # over a nilpotent algebra every finite polynomial set is nilpotent
    A = strictly_upper_3x3()
    for D, S in _random_sets(A, rng):
        rep = minimal_nilpotency(A, D, S, 12)
        assert rep.minimal_N is not None


@pytest.mark.parametrize("n", [3, 4])
def test_power_dims_over_zz_match_qq(n, rng):
    # a ZZ span stands for the saturated lattice of its rational span, and
    # QQ-span(L S) = QQ-span(QL S), so every power has the same dimension
    zz, qq = strictly_upper(n, ZZ), strictly_upper(n, QQ)
    for _ in range(6):
        inner = [rng.randint(-3, 3) for _ in range(zz.rank)]
        polys = [
            [[rng.randint(-3, 3) for _ in range(zz.rank)] for _ in range(2)]
            for _ in range(rng.randint(1, 2))
        ]
        dims = []
        for A in (zz, qq):
            D = inner_derivation(A, tuple(map(A.ring.from_int, inner)))
            S = [DiffPoly(A, [tuple(map(A.ring.from_int, c)) for c in poly])
                 for poly in polys]
            dims.append(minimal_nilpotency(A, D, S, 12).power_dims)
        assert dims[0] == dims[1]


def _scaled_ideal(n):
    """t*QQ[t]/(t^n) with delta = t d/dt, which sends t^j to j t^j."""
    A = truncated_ideal(n)
    rows = [[QQ.zero] * A.rank for _ in range(A.rank)]
    for i in range(A.rank):
        rows[i][i] = QQ.from_int(i + 1)
    return A, verify_leibniz(A, tuple(tuple(r) for r in rows))


def test_minimal_nilpotency_walks_the_powers_once(monkeypatch):
    # S = {t + t x}: every power has dimension 1 up to S^5 and S^6 = 0, so
    # one walk makes one product per power, 5 in all (rebuilding every
    # power from S makes 1 + 2 + ... + 5 = 15)
    A, D = _scaled_ideal(6)
    t = A.basis_element(0)
    calls = []

    def counted(*args):
        calls.append(1)
        return ore_multiply(*args)

    monkeypatch.setattr(orepoly, "ore_multiply", counted)
    rep = minimal_nilpotency(A, D, [DiffPoly(A, [t, t])], 8)
    assert rep.minimal_N == 5 and rep.power_dims == (1, 1, 1, 1, 1, 0)
    assert len(calls) == 5


def test_power_span_cap_raises_budget_exceeded(monkeypatch):
    A = strictly_upper_3x3()
    D0 = zero_derivation(A)
    e12, e23 = A.basis_element(0), A.basis_element(2)
    # graded space of e12 + e23 x at m = 1 has dimension 6 > 8 * 0
    monkeypatch.setattr(orepoly, "DEFAULT_SPAN_CAP", 0)
    with pytest.raises(BudgetExceeded, match="graded coordinate space of dimension 6"):
        minimal_nilpotency(A, D0, [DiffPoly(A, [e12, e23])], 4)
    # constants keep the graded space at 3 <= 8, but S has dimension 2 > 1
    monkeypatch.setattr(orepoly, "DEFAULT_SPAN_CAP", 1)
    S = [DiffPoly.constant(A, e12), DiffPoly.constant(A, e23)]
    with pytest.raises(BudgetExceeded, match="span dimension 2 exceeds cap 1"):
        minimal_nilpotency(A, D0, S, 4)
    assert minimal_nilpotency(A, D0, S, 0).power_dims == (2,)
