"""Exact linear algebra: echelon forms and canonical subspaces over every ring."""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given
from hypothesis import strategies as st

from orelab import linalg
from orelab.linalg import Subspace, nullspace, rref, solve_linear
from orelab.rings import GF, QQ, ZZ

small_int_rows = st.lists(
    st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=4
)


def test_rref_canonical():
    rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
    assert rref(rows, QQ) == [(Fraction(1), Fraction(2))]
    rows = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert rref(rows, QQ) == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


def test_rref_prime_field():
    F = GF(5)
    red = rref([[2, 4], [1, 3]], F)
    assert red == [(1, 0), (0, 1)]


def dot(ring, r, v):
    acc = ring.zero
    for a, b in zip(r, v):
        acc = ring.add(acc, ring.mul(a, b))
    return acc


@given(st.data())
def test_nullspace_annihilates(data):
    ring = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    n = data.draw(st.integers(1, 6))
    rows = data.draw(rows_over(ring, n, max_rows=6))
    basis = nullspace(rows, ring)
    for v in basis:
        assert all(ring.is_zero(dot(ring, r, v)) for r in rows)
    assert len(basis) == n - len(reference_rref(rows, ring.p))
    assert Subspace.span(ring, n, basis).dim == len(basis)


def test_solve_linear():
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    x = solve_linear(rows, [Fraction(4), Fraction(0)], QQ)
    assert x == (Fraction(2), Fraction(2))
    assert solve_linear([[Fraction(0), Fraction(0)]], [Fraction(1)], QQ) is None
    # a right-hand side that is not reduced mod p is the same ring element
    assert solve_linear([[1]], [6], GF(5)) == (1,)
    assert solve_linear([[2, 0], [0, 0]], [3, 10], GF(5)) == (4, 0)


@given(st.data())
def test_solve_linear_solves_consistent_systems(data):
    ring = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    n = data.draw(st.integers(1, 6))
    rows = data.draw(rows_over(ring, n, max_rows=6))
    if data.draw(st.booleans()):
        x0 = data.draw(st.lists(entries(ring), min_size=n, max_size=n))
        rhs = [dot(ring, r, x0) for r in rows]
    else:
        rhs = data.draw(st.lists(entries(ring), min_size=len(rows), max_size=len(rows)))
    x = solve_linear(rows, rhs, ring)
    augmented = reference_rref([list(r) + [b] for r, b in zip(rows, rhs)], ring.p)
    inconsistent = any(r[n] and not any(r[:n]) for r in augmented)
    assert (x is None) == inconsistent
    if x is not None:
        assert all(dot(ring, r, x) == b for r, b in zip(rows, rhs))


def test_saturate_example():
    # lattice {(2,0,1),(0,2,1)} misses (1,-1,0); its saturation has it
    S = Subspace.span(ZZ, 3, [[2, 0, 1], [0, 2, 1]])
    assert S.contains((1, -1, 0))
    assert S.contains((2, 0, 1))
    assert S.dim == 2
    assert not S.contains((1, 0, 0))


@given(small_int_rows)
def test_saturate_idempotent_and_contains_rows(rows):
    S = Subspace.span(ZZ, 3, rows)
    for r in rows:
        assert S.contains(tuple(r))
    assert Subspace.span(ZZ, 3, S.basis) == S


def primitive_positive(row):
    """An RREF row (pivot 1) scaled to coprime integers; the pivot stays
    positive."""
    den = lcm(*[a.denominator for a in row])
    ints = [int(a * den) for a in row]
    g = gcd(*ints)
    return tuple(a // g for a in ints)


def shuffled_multiples(data, ring, rows):
    """The rows in a drawn order, each times a drawn nonzero scalar (a unit
    over a field; any nonzero integer over ZZ, whose subspaces are rational
    spans)."""
    units = st.integers(-3, 3).filter(bool) if ring == ZZ else entries(ring).filter(bool)
    order = data.draw(st.permutations(range(len(rows))))
    scalars = data.draw(st.lists(units, min_size=len(rows), max_size=len(rows)))
    return [[c * a for a in rows[t]] for c, t in zip(scalars, order)]


def assert_stored_form(ring, S):
    """The stored rows are ints with their pivot the first nonzero entry,
    1 over GF(p) and positive in a primitive row otherwise, and the basis
    is each row over its pivot (the row itself over ZZ)."""
    assert all(type(a) is int for r in S.rows for a in r)
    for r, j in zip(S.rows, S.pivots):
        assert not any(r[:j])
        assert r[j] == 1 if ring.p else (r[j] > 0 and gcd(*r) == 1)
    if ring.is_field:
        assert S.basis == tuple(tuple(Fraction(a, r[j]) if ring == QQ else a for a in r)
                                for r, j in zip(S.rows, S.pivots))
    else:
        assert S.basis == S.rows


@given(st.data())
def test_zz_span_is_scaled_rational_echelon(data):
    rows = data.draw(small_int_rows)
    S = Subspace.span(ZZ, 3, rows)
    assert S.basis == tuple(primitive_positive(r) for r in rref(rows, QQ))
    assert all(type(a) is int for r in S.basis for a in r)
    assert_stored_form(ZZ, S)
    T = Subspace.span(ZZ, 3, shuffled_multiples(data, ZZ, rows))
    assert T == S and hash(T) == hash(S)
    # membership is rational-span membership
    Q = Subspace.span(QQ, 3, [[Fraction(a) for a in r] for r in rows])
    v = data.draw(st.lists(st.integers(-4, 4), min_size=3, max_size=3))
    assert S.contains(v) == Q.contains(v)
    # a unimodular recombination (add a multiple of one row to another,
    # swap, negate) spans the same lattice, so gives an equal subspace
    moved = [list(r) for r in rows]
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, len(moved) - 1))
        j = data.draw(st.integers(0, len(moved) - 1))
        op = data.draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            c = data.draw(st.integers(-3, 3))
            moved[i] = [a + c * b for a, b in zip(moved[i], moved[j])]
        elif op == "swap":
            moved[i], moved[j] = moved[j], moved[i]
        elif op == "negate":
            moved[i] = [-a for a in moved[i]]
    assert Subspace.span(ZZ, 3, moved) == S


def test_subspace_operations():
    a = Subspace.span(QQ, 3, [(QQ.one, QQ.zero, QQ.zero)])
    b = Subspace.span(QQ, 3, [(QQ.zero, QQ.one, QQ.zero)])
    s = a.plus(b)
    assert s.dim == 2
    assert s.contains((QQ.one, QQ.from_int(5), QQ.zero))
    assert not s.contains((QQ.zero, QQ.zero, QQ.one))
    assert Subspace.zero(QQ, 3).is_zero


def reference_rref(rows, p=None):
    """Textbook Gauss-Jordan on Fractions (p is None) or on residues mod p."""
    norm = Fraction if p is None else (lambda a: a % p)
    work = [[norm(a) for a in r] for r in rows]
    out = []
    for j in range(len(work[0]) if work else 0):
        piv = next((r for r in work if r[j]), None)
        if piv is None:
            continue
        work.remove(piv)
        inv = 1 / piv[j] if p is None else pow(piv[j], -1, p)
        piv = [norm(a * inv) for a in piv]
        work = [[norm(a - r[j] * b) for a, b in zip(r, piv)] for r in work]
        out = [[norm(a - r[j] * b) for a, b in zip(r, piv)] for r in out]
        out.append(piv)
    return [tuple(r) for r in out]


def entries(ring):
    if ring == ZZ:
        return st.integers(-4, 4)
    if ring == QQ:
        return st.fractions(-3, 3, max_denominator=4)
    return st.integers(0, ring.p - 1)


def rows_over(ring, n, max_rows):
    row = st.lists(entries(ring), min_size=n, max_size=n)
    return st.lists(row, min_size=1, max_size=max_rows)


@given(st.data())
def test_rref_matches_fraction_reference(data):
    ring = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    n = data.draw(st.integers(1, 6))
    rows = data.draw(rows_over(ring, n, max_rows=6))
    red = rref(rows, ring)
    assert red == reference_rref(rows, ring.p)
    expected_type = int if ring.p else Fraction
    assert all(type(a) is expected_type for r in red for a in r)
    # a subspace stores integer rows and gives the same RREF as its basis
    S = Subspace.span(ring, n, rows)
    assert S.basis == tuple(reference_rref(rows, ring.p))
    assert all(type(a) is expected_type for r in S.basis for a in r)
    assert_stored_form(ring, S)
    T = Subspace.span(ring, n, shuffled_multiples(data, ring, rows))
    assert T == S and hash(T) == hash(S)


@given(st.data())
def test_contains_iff_span_keeps_dimension(data):
    ring = data.draw(st.sampled_from([ZZ, QQ, GF(2), GF(3), GF(5)]))
    rows = data.draw(small_int_rows if ring == ZZ else rows_over(ring, 3, 4))
    V = Subspace.span(ring, 3, rows)
    # half the draws are combinations of the rows, the rest anything
    coeffs = data.draw(st.lists(entries(ring), min_size=len(rows), max_size=len(rows)))
    v = [sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(3)]
    if data.draw(st.booleans()):
        v = data.draw(st.lists(entries(ring), min_size=3, max_size=3))
    if ring.p:
        v = [a % ring.p for a in v]
    assert V.contains(v) == (V.plus(Subspace.span(ring, 3, [v])).dim == V.dim)


# --- tall systems: repeated rows dropped, rows picked mod a prime ---------------


def spy_eliminations(monkeypatch):
    """Wrap `linalg._eliminate`; returns the list of the row counts it is
    called with."""
    calls = []
    eliminate = linalg._eliminate

    def spy(work, ring):
        calls.append(len(work))
        return eliminate(work, ring)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    return calls


def test_tall_system_eliminates_the_picked_rows_only(monkeypatch):
    # 8 distinct rows in 3 columns, of rank 3: three rows are picked, and
    # the exact check accepts their elimination
    rows = [[1, i, i * i] for i in range(8)]
    calls = spy_eliminations(monkeypatch)
    assert rref(rows, QQ) == reference_rref(rows)
    assert calls == [3]


def test_tall_system_falls_back_when_the_prime_drops_the_rank(monkeypatch):
    # mod P every row is a multiple of (1, 1), so one row is picked; over
    # QQ and ZZ the rows have rank 2, and the exact check sends the system
    # to the full elimination of its four distinct rows
    P = linalg._SELECTION_PRIME
    ints = [[1, 1], [1, 1 + P], [2, 2 + P], [3, 3 + P]]
    expected = reference_rref(ints)
    assert len(expected) == 2
    calls = spy_eliminations(monkeypatch)
    S = Subspace.span(ZZ, 2, ints)
    assert S.dim == 2 and S.basis == tuple(primitive_positive(r) for r in expected)
    assert calls == [1, 4]
    rows = [[Fraction(a) for a in r] for r in ints]
    for run in (lambda: Subspace.span(QQ, 2, rows).basis, lambda: rref(rows, QQ)):
        calls.clear()
        assert list(run()) == expected
        assert calls == [1, 4]
    calls.clear()
    assert nullspace(rows, QQ) == []
    assert calls == [1, 4]


@given(st.data())
def test_tall_systems_match_reference(data):
    """m rows in n columns, 2n <= m <= 4n: rows drawn from a few generators
    (so the rank is often below n), and repeats of earlier rows, some
    negated or scaled."""
    ring = data.draw(st.sampled_from([QQ, ZZ]))
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(2 * n, 4 * n))
    gens = data.draw(rows_over(ring, n, max_rows=n))
    scalars = st.sampled_from([1, -1, 2, -3] + ([Fraction(-1, 2)] if ring == QQ else []))
    rows = []
    for _ in range(m):
        if rows and data.draw(st.booleans()):
            c = data.draw(scalars)
            rows.append([c * a for a in rows[data.draw(st.integers(0, len(rows) - 1))]])
        else:
            coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(gens),
                                        max_size=len(gens)))
            rows.append([sum(c * g[k] for c, g in zip(coeffs, gens)) for k in range(n)])
    expected = reference_rref(rows)
    S = Subspace.span(ring, n, rows)
    assert_stored_form(ring, S)
    if ring == ZZ:
        assert S.basis == tuple(primitive_positive(r) for r in expected)
    else:
        assert S.basis == tuple(expected)
    # the field functions, on the same rows (QQ takes integer rows too)
    assert rref(rows, QQ) == expected
    basis = nullspace(rows, QQ)
    assert len(basis) == n - len(expected)
    assert all(dot(QQ, r, v) == 0 for v in basis for r in rows)
    assert Subspace.span(QQ, n, basis).dim == len(basis)
    x0 = data.draw(st.lists(entries(QQ), min_size=n, max_size=n))
    x = solve_linear(rows, [dot(QQ, r, x0) for r in rows], QQ)
    assert x is not None and all(dot(QQ, r, x) == dot(QQ, r, x0) for r in rows)
    rhs = data.draw(st.lists(entries(QQ), min_size=m, max_size=m))
    augmented = reference_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    x = solve_linear(rows, rhs, QQ)
    assert (x is None) == any(r[n] and not any(r[:n]) for r in augmented)
    if x is not None:
        assert all(dot(QQ, r, x) == b for r, b in zip(rows, rhs))
