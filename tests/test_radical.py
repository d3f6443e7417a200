"""Radical computation, nil-ideal verification, derivation stability, and
the iterated-Leibniz table."""

import math

import pytest

from conftest import random_conjugate, random_derivation, random_element, truncated_ideal

from orelab.algebra import Algebra, inner_derivation, unitalize, verify_leibniz
from orelab.catalog import (
    charp_truncated,
    full_matrix,
    scaling_derivation,
    split_pair,
    square_zero,
    strictly_upper,
    strictly_upper_3x3,
    truncated_polynomial,
    upper_2x2,
)
from orelab.errors import PreconditionViolated
from orelab.linalg import Subspace
from orelab.radical import (
    check_delta_stability,
    is_nil_ideal,
    leibniz_coefficients,
    principal_ideal,
    radical_char0,
    verify_nilpotent_image,
)
from orelab.rings import GF, QQ


def zero_derivation(A):
    z = A.ring.zero
    return verify_leibniz(A, tuple(tuple(z for _ in range(A.rank)) for _ in range(A.rank)))


# --- radical ------------------------------------------------------------

def test_radical_upper_2x2():
    A = upper_2x2()
    rep = radical_char0(A)
    assert rep.method == "trace_form"
    assert rep.radical.dim == 1
    assert rep.radical.contains(A.basis_element(1))
    assert rep.certificate.nilpotency_index == 2


def test_radical_semisimple_pair():
    rep = radical_char0(split_pair())
    assert rep.radical.is_zero


def test_radical_truncated_polynomials():
    A = truncated_polynomial(QQ, 3)
    rep = radical_char0(A)
    assert rep.radical.dim == 2
    assert rep.radical.contains(A.basis_element(1))
    assert rep.radical.contains(A.basis_element(2))
    assert not rep.radical.contains(A.basis_element(0))


def test_radical_requires_rationals():
    with pytest.raises(PreconditionViolated):
        radical_char0(truncated_polynomial(GF(3), 3))


def idempotent_on_line():
    """e*e = e, e*n = n, all other products zero: no unit (n*e = 0, so e
    is only a left unit) and not nilpotent; its radical is span(n)."""
    return Algebra(QQ, 2, ("e", "n"), {(0, 0): {0: QQ.one}, (0, 1): {1: QQ.one}})


@pytest.mark.parametrize("A, index", [
    *((strictly_upper(n), n) for n in range(2, 6)),
    (square_zero(2), 2),
    (truncated_ideal(5), 5),
])
def test_radical_of_nilpotent_algebra_is_everything(A, index):
    rep = radical_char0(A)
    assert rep.radical.dim == A.rank
    assert rep.certificate.nilpotency_index == index


def test_radical_without_unit_not_nilpotent():
    A = idempotent_on_line()
    rep = radical_char0(A)
    assert rep.radical == A.span([A.basis_element(1)])
    assert rep.certificate.nilpotency_index == 2


def test_radical_matches_unitalization(rng):
    algebras = [
        *(strictly_upper(n) for n in range(2, 6)), square_zero(2), truncated_ideal(5),
        idempotent_on_line(), upper_2x2(), split_pair(), full_matrix(2),
        truncated_polynomial(QQ, 4),
    ]
    for A in algebras:
        for B in (A, random_conjugate(A, rng), random_conjugate(A, rng)):
            J = radical_char0(B).radical
            U = unitalize(B)
            # A sits in the unitalization at coordinates 1..r
            assert U.span([(QQ.zero,) + tuple(v) for v in J.basis]) == radical_char0(U).radical


# --- nil ideals ----------------------------------------------------------

def test_is_nil_ideal_examples():
    A = upper_2x2()
    ok, cert = is_nil_ideal(A, Subspace.zero(QQ, 3))
    assert ok and cert.nilpotency_index == 1
    ok, cert = is_nil_ideal(A, A.span([A.basis_element(1)]))
    assert ok and cert.nilpotency_index == 2
    ok, cert = is_nil_ideal(A, A.span([A.basis_element(0)]))
    assert not ok
    for p in (2, 3):
        A = upper_2x2(ring=GF(p))
        ok, cert = is_nil_ideal(A, A.span([A.basis_element(1)]))
        assert ok and cert.nilpotency_index == 2


def test_is_nil_ideal_catches_non_ideal():
    A = strictly_upper_3x3()
    # span(e12) is not right-closed: e12 * e23 = e13 escapes
    ok, cert = is_nil_ideal(A, A.span([A.basis_element(0)]))
    assert not ok
    assert cert.closure_failure is not None


# --- stability -----------------------------------------------------------

def test_stability_inner_derivations():
    A = upper_2x2()
    N = A.span([A.basis_element(1)])
    for i in range(3):
        D = inner_derivation(A, A.basis_element(i))
        assert check_delta_stability(A, D, N).stable


def test_stability_zero_derivation():
    A = upper_2x2()
    N = A.span([A.basis_element(1)])
    assert check_delta_stability(A, zero_derivation(A), N).stable


@pytest.mark.parametrize("p", [2, 3, 5])
def test_charp_counterexample(p):
    A, D = charp_truncated(p)
    t = A.basis_element(1)
    # t is nilpotent of index exactly p
    power = t
    idx = 1
    while not A.is_zero_elem(power):
        power = A.mul(power, t)
        idx += 1
    assert idx == p
    # delta(t) is the unit
    assert D.apply(A.ring, t) == A.basis_element(0)
    N = A.span([A.basis_element(i) for i in range(1, p)])
    ok, cert = is_nil_ideal(A, N)
    assert ok and cert.nilpotency_index == p
    res = check_delta_stability(A, D, N)
    assert not res.stable
    elem, image = res.witness
    assert tuple(elem) == t
    assert image == A.basis_element(0)


def test_stability_witness_is_a_basis_vector():
    # every subspace holding e13 = A^2 is an ideal of strictly upper 3x3;
    # N's stored row for e12 + e23/2 is (2, 0, 1), its basis vector
    # (1, 0, 1/2), and delta = diag(1, 1, 0) maps it to e12, outside N
    A = strictly_upper_3x3()
    half = QQ.one / 2
    N = A.span([(QQ.one, QQ.zero, half), A.basis_element(1)])
    assert N.rows[0] == (2, 0, 1)
    D = verify_leibniz(A, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
    res = check_delta_stability(A, D, N)
    assert not res.stable
    assert res.witness == ((QQ.one, QQ.zero, half), A.basis_element(0))


def test_stability_requires_verified_ideal():
    A = upper_2x2()
    with pytest.raises(PreconditionViolated):
        check_delta_stability(A, zero_derivation(A), A.span([A.basis_element(0)]))


def test_radical_always_stable_char0(rng):
    # the characteristic-zero invariance, at desk scale
    for A in (upper_2x2(), truncated_polynomial(QQ, 3), truncated_polynomial(QQ, 4)):
        rad = radical_char0(A).radical
        for _ in range(25):
            D = random_derivation(A, rng)
            assert check_delta_stability(A, D, rad).stable


# --- Leibniz table ----------------------------------------------------------

def test_leibniz_table_small():
    assert leibniz_coefficients(1).as_dict() == {(1,): 1}
    assert leibniz_coefficients(2).as_dict() == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_leibniz_table_is_multinomial():
    for n in range(1, 6):
        table = leibniz_coefficients(n)
        for comp, c in table.coefficients:
            expected = math.factorial(n)
            for j in comp:
                expected //= math.factorial(j)
            assert c == expected


def test_leibniz_leading_coefficient_factorial():
    for n in range(1, 7):
        assert leibniz_coefficients(n).coefficient((1,) * n) == math.factorial(n)


def test_leibniz_cap():
    with pytest.raises(PreconditionViolated):
        leibniz_coefficients(9)


def test_leibniz_matches_concrete_evaluation(rng):
    """delta^n(b_1...b_n) equals the table's expansion for generic
    elements of a rank-6 truncated polynomial algebra, n <= 4."""
    A = truncated_polynomial(QQ, 6)
    D = scaling_derivation(A, 6, QQ.from_int(1))
    for n in range(1, 5):
        bs = [random_element(A, rng, span=2) for _ in range(n)]
        prod = A.product(bs)
        lhs = prod
        for _ in range(n):
            lhs = D.apply(A.ring, lhs)
        chains = [D.iterates(A.ring, b, n) for b in bs]
        rhs = A.zero()
        for comp, c in leibniz_coefficients(n).coefficients:
            term = None
            for chain, j in zip(chains, comp):
                factor = chain[j] if j < len(chain) else A.zero()
                term = factor if term is None else A.mul(term, factor)
            rhs = A.add(rhs, A.scale_int(c, term))
        assert lhs == rhs


# --- the nilpotent-image argument ----------------------------------------

def test_verify_nilpotent_image_square():
    A = truncated_polynomial(QQ, 2)
    D = scaling_derivation(A, 2)
    N = A.span([A.basis_element(1)])
    rep = verify_nilpotent_image(A, D, A.basis_element(1), 2, N)
    assert rep.all_passed
    assert rep.leading_coefficient == 2


def test_verify_nilpotent_image_zero_derivation():
    A = truncated_polynomial(QQ, 3)
    N = A.span([A.basis_element(1), A.basis_element(2)])
    rep = verify_nilpotent_image(A, zero_derivation(A), A.basis_element(1), 3, N)
    assert rep.all_passed


def test_verify_nilpotent_image_zero_element():
    A = truncated_polynomial(QQ, 2)
    N = A.span([A.basis_element(1)])
    rep = verify_nilpotent_image(A, scaling_derivation(A, 2), A.zero(), 1, N)
    assert rep.all_passed


def test_verify_nilpotent_image_preconditions():
    A = truncated_polynomial(QQ, 2)
    N = A.span([A.basis_element(1)])
    with pytest.raises(PreconditionViolated):
        verify_nilpotent_image(A, scaling_derivation(A, 2), A.basis_element(0), 2, N)


def test_principal_ideal():
    A = strictly_upper_3x3()
    ideal = principal_ideal(A, A.basis_element(0))
    assert ideal.contains(A.basis_element(0))
    assert ideal.contains(A.basis_element(1))  # e12 * e23
    assert not ideal.contains(A.basis_element(2))
