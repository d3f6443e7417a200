"""Acceptance suite: one test per criterion, exact oracles throughout.

Each test prints one PASS line (visible with `pytest -s`); a failure
raises with the offending case. Criterion 3 samples valid words across
the whole parameter grid; the all-ones bound sequence admits no bounded
words at all (any word fails at m = its own max letter), which the test
demonstrates exhaustively at small lengths, so its witness clause is
vacuous and the required >= 10,000 samples come from the b_m = m + 2
configurations.
"""

import itertools
import math
import random
from fractions import Fraction

from conftest import random_conjugate, random_derivation, random_element, run_orelab
from reference import commute_xd, dp_add, mul_x_left, product, scale_int, weight_bruteforce

from orelab.algebra import b_sequence, inner_derivation, verify_leibniz
from orelab.catalog import (
    charp_truncated,
    scaling_derivation,
    square_zero,
    strictly_upper_3x3,
    truncated_polynomial,
    upper_2x2,
    vanishing_identity,
)
from orelab.orepoly import (
    DiffPoly,
    direct_product,
    evaluate_terms,
    minimal_nilpotency,
    rewrite_product,
    theorem_bound,
)
from orelab.radical import check_delta_stability, leibniz_coefficients, radical_char0
from orelab.rings import QQ
from orelab.wordgen import arithmetic_bounds, random_valid_word
from orelab.words import (
    BoundSequence,
    Ordering,
    compare,
    compute_bounds,
    is_b_bounded,
    is_k_valid,
    minimal_N_oracle,
    decreasing_witness,
    weight,
)


def report(num: int, text: str):
    print(f"ACCEPTANCE {num} PASS: {text}")


def zero_derivation(A):
    z = A.ring.zero
    return verify_leibniz(A, tuple(tuple(z for _ in range(A.rank)) for _ in range(A.rank)))


# -------------------------------------------------------------------------

def test_criterion_1_weight_oracle_equivalence():
    """weight = weight_bruteforce for all words of length <= 6 over {0..4}."""
    cache = {}
    checked = 0
    for n in range(1, 7):
        for letters in itertools.product(range(5), repeat=n):
            key = tuple(sorted(letters))
            if key not in cache:
                cache[key] = weight_bruteforce(key)
            assert weight(letters) == cache[key], letters
            checked += 1
    assert checked == sum(5 ** n for n in range(1, 7))
    report(1, f"weight equals the permutation brute force on {checked} words")


def test_criterion_2_order_laws():
    """compare is transitive and antisymmetric on all triples of words of
    length <= 4 over {0,1,2} (exhaustive via relation bitsets)."""
    words = [
        tuple(w)
        for n in range(1, 5)
        for w in itertools.product(range(3), repeat=n)
    ]
    m = len(words)
    assert m == 3 + 9 + 27 + 81
    less = [0] * m  # bitmask: less[i] has bit j iff words[i] < words[j]
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            c = compare(u, v)
            if c is Ordering.LESS:
                less[i] |= 1 << j
            if i == j:
                assert c is Ordering.EQUAL
            elif c is Ordering.EQUAL:
                raise AssertionError(f"equal verdict on distinct words {u} {v}")
    for i in range(m):
        for j in range(m):
            if less[i] >> j & 1:
                # antisymmetry and transitivity over every completion
                assert not (less[j] >> i & 1), (words[i], words[j])
                assert less[j] & ~less[i] == 0, (words[i], words[j])
    report(2, f"antisymmetry and transitivity hold on all {m}^3 word triples")


GRID = [
    (d, k, eps)
    for d in (1, 2)
    for k in (1, 2)
    for eps in (Fraction(1), Fraction(1, 2))
]
SAMPLES = {1: 2400, 2: 150}


def _arith_config(d, k, eps):
    """Bounds for b_m = m + 2 with a prefix long enough to cover every
    queried index and the sampled word length."""
    probe = compute_bounds(d, arithmetic_bounds(4096), k, eps)
    need = max(lev.M1 for lev in probe.trace)
    assert need < 4096
    b = arithmetic_bounds(max(probe.N, need + 2))
    res = compute_bounds(d, b, k, eps)
    assert (res.M, res.N) == (probe.M, probe.N)
    return b, res


def test_criterion_3_bounds_soundness():
    """compute_bounds succeeds on the whole grid; the witness construction
    succeeds on >= 10,000 sampled valid words of length N with blocks in
    the window and first letters below M -- zero failures."""
    ones = BoundSequence((1,))
    for d, k, eps in GRID:
        res = compute_bounds(d, ones, k, eps)
        assert res.M >= 1 and res.N >= 1
    # the all-ones sequence admits no bounded word (every word fails at
    # m = max letter); exhaustive at small scale
    for n in range(1, 5):
        for letters in itertools.product(range(5), repeat=n):
            assert not is_b_bounded(letters, ones)

    rng = random.Random(0xACCE97)
    total = 0
    for d, k, eps in GRID:
        b, res = _arith_config(d, k, eps)
        count = SAMPLES[d]
        for _ in range(count):
            u = random_valid_word(res.N, k, rng)
            assert is_k_valid(u, k)
            assert is_b_bounded(u, b)
            f = decreasing_witness(u, d, b, k, eps, bounds=res)
            assert f.block_count == d
            assert f.is_valid()
            assert f.satisfies_window(eps, res.M)
            total += 1
    assert total >= 10000
    report(3, f"bounds computed on 16 configurations; {total} sampled witnesses, "
              "0 failures (all-ones configurations shown empty exhaustively)")


def test_criterion_4_oracle_vs_bound():
    val = minimal_N_oracle(2, BoundSequence((1,)), 1, max_n=8, max_letter=3)
    bound = compute_bounds(2, BoundSequence((1,)), 1, 1).N
    assert val is not None
    assert val <= bound
    report(4, f"exhaustive oracle value {val} <= proven bound {bound}")


def _rewrite_algebras(rng):
    algebras = [
        random_conjugate(strictly_upper_3x3(), rng),
        random_conjugate(strictly_upper_3x3(), rng),
        random_conjugate(truncated_polynomial(QQ, 3), rng),
        random_conjugate(square_zero(2), rng),
        random_conjugate(upper_2x2(), rng),
    ]
    return [(A, random_derivation(A, rng)) for A in algebras]


def test_criterion_5_rewriting_exactness():
    """Sum of canonical terms equals the direct Ore product for all
    products with n <= 3 factors and exponents <= k <= 2, over 5
    randomized rank <= 3 algebras; every j-word is k-valid."""
    rng = random.Random(0x5EED5)
    checked = 0
    for A, D in _rewrite_algebras(rng):
        gens = [A.basis_element(i) for i in range(A.rank)]
        for k in (1, 2):
            for n in (1, 2, 3):
                for head in range(A.rank):
                    for idx in itertools.product(range(A.rank), repeat=n):
                        for exps in itertools.product(range(k + 1), repeat=n + 1):
                            terms = rewrite_product(A, D, gens, head, idx, exps, k)
                            for t in terms:
                                assert is_k_valid(t.jword, k), (idx, exps, t)
                            lhs = evaluate_terms(A, D, gens, terms)
                            rhs = direct_product(A, D, gens, head, idx, exps)
                            assert lhs == rhs, (head, idx, exps, k)
                            checked += 1
    report(5, f"{checked} rewrites match the direct product exactly")


def test_criterion_6_commutation_formula():
    rng = random.Random(0xC0FFEE)
    pools = [upper_2x2(), strictly_upper_3x3(), truncated_polynomial(QQ, 3)]
    checked = 0
    for trial in range(100):
        A = random_conjugate(pools[trial % len(pools)], rng)
        D = random_derivation(A, rng)
        a = random_element(A, rng)
        for d in range(7):
            stepped = DiffPoly.constant(A, a)
            for _ in range(d):
                stepped = mul_x_left(A, D, stepped)
            assembled = DiffPoly.zero(A)
            for c, e, m in commute_xd(A, D, d, a):
                assembled = dp_add(
                    A, assembled, DiffPoly(A, [A.zero()] * m + [scale_int(A, c, e)])
                )
            assert assembled == stepped
        checked += 1
    report(6, f"x^d a expansion equals d single steps on {checked} random pairs, d <= 6")


def test_criterion_7_nilpotency_pipeline_desk_instance():
    A = strictly_upper_3x3()
    D = inner_derivation(A, A.basis_element(0))
    T = [A.basis_element(i) for i in range(3)]
    bseq = b_sequence(A, D, T)
    assert all(v >= 1 for v in bseq.prefix)
    N = theorem_bound(A, D, T, 1, vanishing_identity(3))
    assert N >= 1
    rng = random.Random(0x711)
    for _ in range(20):
        S = []
        for _ in range(rng.randint(1, 3)):
            t0 = T[rng.randrange(3)]
            t1 = T[rng.randrange(3)]
            S.append(DiffPoly(A, [t0, t1]))
        rep = minimal_nilpotency(A, D, S, cap=10)
        assert rep.minimal_N is not None
        assert rep.minimal_N <= N
    report(7, f"b-sequence {bseq.prefix}, theorem bound N={N}, 20 random sets "
              "verified below it")


def test_criterion_8_radical_stability_desk_instance():
    A = upper_2x2()
    rep = radical_char0(A)
    assert rep.radical.basis == ((QQ.zero, QQ.one, QQ.zero),)
    rng = random.Random(0x812)
    derivations = [inner_derivation(A, A.basis_element(i)) for i in range(3)]
    derivations += [inner_derivation(A, random_element(A, rng)) for _ in range(7)]
    while len(derivations) < 50:
        derivations.append(random_derivation(A, rng))
    failures = [D for D in derivations if not check_delta_stability(A, D, rep.radical).stable]
    assert not failures
    report(8, "radical is span(e12); 50 random derivations all leave it stable")


def test_criterion_9_charp_counterexample():
    for p in (2, 3, 5):
        A, D = charp_truncated(p)  # construction passes verify_leibniz
        t = A.basis_element(1)
        power, idx = t, 1
        while not A.is_zero_elem(power):
            power = A.mul(power, t)
            idx += 1
        assert idx == p
        assert D.apply(A.ring, t) == A.basis_element(0)
        N = A.span([A.basis_element(i) for i in range(1, p)])
        res = check_delta_stability(A, D, N)
        assert not res.stable
        elem, image = res.witness
        assert tuple(elem) == t and image == A.basis_element(0)
    report(9, "GF(p)[T]/(T^p) with delta(t)=1 is unstable with witness t for p in {2,3,5}")


def test_criterion_10_leibniz_table():
    A = truncated_polynomial(QQ, 6)
    D = scaling_derivation(A, 6)
    rng = random.Random(0xA10)
    for n in range(1, 5):
        table = leibniz_coefficients(n)
        for _ in range(25):
            bs = [random_element(A, rng, span=2) for _ in range(n)]
            lhs = product(A, bs)
            for _ in range(n):
                lhs = D.apply(A.ring, lhs)
            chains = [D.iterates(A.ring, b, n) for b in bs]
            rhs = A.zero()
            for comp, c in table.coefficients:
                term = None
                for chain, j in zip(chains, comp):
                    factor = chain[j] if j < len(chain) else A.zero()
                    term = factor if term is None else A.mul(term, factor)
                rhs = A.add(rhs, scale_int(A, c, term))
            assert lhs == rhs, (n, bs)
    for n in range(1, 7):
        assert leibniz_coefficients(n).coefficient((1,) * n) == math.factorial(n)
    report(10, "table matches generic evaluation for n <= 4; c_{1..1} = n! for n <= 6")


CLI_RUNS = [
    ("words-analyze", "2,1", "--k", "1"),
    ("words-analyze", "4,1,3,0,2", "--k", "2", "--b", "2,3,4", "--decreasing", "2"),
    ("words-bounds", "--d", "1", "--k", "1", "--eps", "1", "--b", "1"),
    ("words-bounds", "--d", "2", "--k", "2", "--eps", "1/2", "--b", "2,3,4", "--json"),
]


def test_criterion_11_cli_determinism(tmp_path):
    def run(args):
        res = run_orelab(*args, timeout=300)
        return res.returncode, res.stdout

    runs = 0
    for args in CLI_RUNS:
        (rc1, out1), (rc2, out2) = run(args), run(args)
        assert rc1 == 0 and rc2 == 0
        assert out1 == out2, args
        runs += 1
    for name, extra in (("charp", ("--p", "5")), ("upper3strict", ()), ("squarezero", ())):
        args = ("examples", name, *extra, "--dir", str(tmp_path))
        (rc1, out1), (rc2, out2) = run(args), run(args)
        assert rc1 == 0 and rc2 == 0
        assert out1 == out2, name
        runs += 1
    report(11, f"{runs} CLI invocations repeated byte-identically")
