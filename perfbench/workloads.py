"""The four benchmark workloads.

Each workload builds its inputs in ``__init__`` (part of the set-up time)
and runs one *round*, a fixed mix of items, in ``run_round(r)``. Every item
checks its result exactly; a failed check or an exception counts the item
as failed. ``run_round`` returns the canonical outputs of its items, which
the runner hashes into the run's digest.

All library calls go through module attributes (``lib.words.find...``) so
that a traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from fractions import Fraction
from pathlib import Path


class CheckFailed(Exception):
    pass


def check(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Workload:
    name = ""
    rounds = 24  # rounds in one pass of the campaign

    def __init__(self, lib, seed: int, rounds: int | None = None):
        self.lib = lib
        self.rng = random.Random(seed)
        if rounds is not None:
            self.rounds = rounds
        self.errors: list[str] = []

    def run_round(self, r: int):
        """(outputs, attempted, failed) of round r."""
        outputs = []
        failed = 0
        items = self.items(r)
        for fn, args in items:
            try:
                outputs.append(fn(*args))
            except Exception as exc:  # counted against failed_frac, reported once
                failed += 1
                outputs.append(("failed", type(exc).__name__))
                if len(self.errors) < 5:
                    self.errors.append(f"{fn.__name__}{args!r:.200}: {type(exc).__name__}: {exc}")
        return outputs, len(items), failed

    def items(self, r: int):
        raise NotImplementedError

    def trace_ok(self, metrics) -> bool:
        """Checks that only the traced run's counters can make."""
        return True


# --- helpers copied from the test suite's conftest, so the benchmark does
# not import tests/ -----------------------------------------------------


def random_element(A, rng, span: int = 3):
    return tuple(A.ring.from_int(rng.randint(-span, span)) for _ in range(A.rank))


def random_derivation(lib, A, rng, span: int = 3):
    """Random exact combination of a derivation-space basis; always valid."""
    basis = lib.algebra.derivation_space(A)
    r = A.rank
    ring = A.ring
    mat = [[ring.zero] * r for _ in range(r)]
    for B in basis:
        c = ring.from_int(rng.randint(-span, span))
        if ring.is_zero(c):
            continue
        for i in range(r):
            for j in range(r):
                mat[i][j] = ring.add(mat[i][j], ring.mul(c, B[i][j]))
    return lib.algebra.verify_leibniz(A, tuple(tuple(row) for row in mat))


def _invert(lib, P, ring):
    n = len(P)
    aug = [list(P[i]) + [ring.one if j == i else ring.zero for j in range(n)]
           for i in range(n)]
    red = lib.linalg.rref(aug, ring)
    if len(red) != n or any(ring.is_zero(red[i][i]) for i in range(n)):
        return None
    return [row[n:] for row in red]


def random_conjugate(lib, A, rng):
    """Same algebra in a random exact basis over QQ; the constructor
    re-checks associativity."""
    QQ = lib.rings.QQ
    r = A.rank
    while True:
        P = [[QQ.from_int(rng.randint(-2, 2)) for _ in range(r)] for _ in range(r)]
        for i in range(r):
            P[i][i] = QQ.add(P[i][i], QQ.one)
        Pinv = _invert(lib, P, QQ)
        if Pinv is not None:
            break
    cols = [tuple(P[i][j] for i in range(r)) for j in range(r)]

    def to_new(vec):
        return tuple(
            sum((Pinv[i][t] * vec[t] for t in range(r)), QQ.zero) for i in range(r)
        )

    table = {}
    for i in range(r):
        for j in range(r):
            prod = to_new(A.mul(cols[i], cols[j]))
            row = {k: c for k, c in enumerate(prod) if not QQ.is_zero(c)}
            if row:
                table[(i, j)] = row
    return lib.algebra.Algebra(QQ, r, None, table)


def upper_triangular(lib, n: int, ring, strict: bool = False):
    """(Strictly) upper-triangular n x n matrices in the matrix-unit basis."""
    idx = [(i, j) for i in range(n) for j in range(i + (1 if strict else 0), n)]
    pos = {p: t for t, p in enumerate(idx)}
    table = {}
    for a, (i, j) in enumerate(idx):
        for b, (k, l) in enumerate(idx):
            if j == k:
                table[(a, b)] = {pos[(i, l)]: ring.one}
    names = [f"e{i + 1}{j + 1}" for i, j in idx]
    return lib.algebra.Algebra(ring, len(idx), names, table)


# Cost of a conjugate varies up to 3x with the size of its entries, so a
# pool drawn per run would make the run-to-run spread swamp any useful
# bound. The algebra pools are therefore drawn once from this fixed seed;
# the run seed draws everything that is evaluated on them.
POOL_SEED = 0x5EED5


# --- 1. witness_sweep ---------------------------------------------------


class WitnessSweep(Workload):
    """Criterion-3 grid: sample a valid word of length N, check it, build
    the guaranteed decreasing factorization and check that."""

    name = "witness_sweep"
    rounds = 28
    SAMPLES = {1: 15, 2: 1}  # per configuration and round

    def __init__(self, lib, seed, rounds=None):
        super().__init__(lib, seed, rounds)
        words, wordgen = lib.words, lib.wordgen
        self.configs = []
        for d in (1, 2):
            for k in (1, 2):
                for eps in (Fraction(1), Fraction(1, 2)):
                    probe = words.compute_bounds(d, wordgen.arithmetic_bounds(4096), k, eps)
                    need = max(lev.M1 for lev in probe.trace)
                    b = wordgen.arithmetic_bounds(max(probe.N, need + 2))
                    res = words.compute_bounds(d, b, k, eps)
                    check((res.M, res.N) == (probe.M, probe.N), "bounds depend on the prefix")
                    self.configs.append((d, k, eps, b, res))
        self.plan = [
            [(cfg, self.rng.getrandbits(64))
             for cfg in self.configs for _ in range(self.SAMPLES[cfg[0]])]
            for _ in range(self.rounds)
        ]

    def items(self, r):
        return [(self.witness, item) for item in self.plan[r]]

    def witness(self, cfg, item_seed):
        words = self.lib.words
        d, k, eps, b, res = cfg
        u = self.lib.wordgen.random_valid_word(res.N, k, random.Random(item_seed))
        check(words.is_k_valid(u, k), "sample is not k-valid")
        check(words.is_b_bounded(u, b), "sample is not b-bounded")
        f = words.decreasing_witness(u, d, b, k, eps, bounds=res)
        check(f.block_count == d, "witness has the wrong block count")
        check(f.is_valid(), "witness blocks are not strictly decreasing")
        check(f.satisfies_window(eps, res.M), "witness leaves the window")
        return f.cuts


# --- 2. oracle_search ---------------------------------------------------


class OracleSearch(Workload):
    """Exhaustive minimal-length oracle on bound sequences that admit
    bounded words, plus the decreasing search on words without (strictly
    increasing) and with (planted or guaranteed) a factorization."""

    name = "oracle_search"
    rounds = 32
    # (d, b prefix, k, max_n, max_letter, oracle value); every value is
    # >= 2, so some valid bounded word was searched and rejected. Round r
    # runs pair r mod 4; the pairs are matched so that each costs about the
    # same, which keeps the round latency percentiles steady.
    ORACLE_PAIRS = (
        ((2, (2, 4, 6), 1, 7, 2, 6), (2, (2, 4, 6), 1, 7, 3, 6)),
        ((2, (2, 3, 4, 5, 6, 7), 2, 7, 3, 5), (2, (2, 3, 4, 5), 2, 7, 4, 5)),
        ((2, (3, 4, 5), 2, 7, 3, 5), (2, (2, 3, 4, 5, 6), 1, 7, 4, 5)),
        ((2, (2, 3, 4, 5), 1, 7, 4, 5), (2, (3, 4, 5), 1, 7, 4, 5)),
    )
    NEGATIVE_LENGTHS = (50, 60)
    PLANTED = 12       # random words with a planted decreasing run
    GUARANTEED = 2     # sampled valid words of length N (d=2, k=1, eps=1)

    def __init__(self, lib, seed, rounds=None):
        super().__init__(lib, seed, rounds)
        words, wordgen = lib.words, lib.wordgen
        rng = self.rng
        self.oracle_pairs = []
        for pair in self.ORACLE_PAIRS:
            cfgs = []
            for d, prefix, k, max_n, max_letter, value in pair:
                b = words.BoundSequence(prefix)
                cfgs.append((d, b, k, max_n, max_letter, value,
                             words.compute_bounds(d, b, k, 1).N))
            self.oracle_pairs.append(cfgs)
        probe = words.compute_bounds(2, wordgen.arithmetic_bounds(4096), 1, 1)
        self.guarantee_N = probe.N
        self.plan = []
        for _ in range(self.rounds):
            negatives = []
            for n in self.NEGATIVE_LENGTHS:
                letters, a = [], rng.randint(0, 5)
                for _ in range(n):
                    a += rng.randint(1, 3)
                    letters.append(a)
                negatives.append((tuple(letters), rng.choice((2, 3))))
            planted = []
            for _ in range(self.PLANTED):
                d = rng.choice((2, 3, 4))
                letters = [rng.randint(0, 5) for _ in range(rng.randint(100, 400))]
                at = rng.randrange(len(letters))
                letters[at:at] = range(d + 5, 5, -1)  # d single-letter blocks
                planted.append((tuple(letters), d))
            guaranteed = [rng.getrandbits(64) for _ in range(self.GUARANTEED)]
            self.plan.append((negatives, planted, guaranteed))

    def items(self, r):
        negatives, planted, guaranteed = self.plan[r]
        pair = self.oracle_pairs[r % len(self.oracle_pairs)]
        out = [(self.oracle, (cfg,)) for cfg in pair]
        out += [(self.negative, item) for item in negatives]
        out += [(self.positive, item) for item in planted]
        out += [(self.guaranteed, (s,)) for s in guaranteed]
        return out

    def trace_ok(self, metrics):
        # the oracle must have searched some valid bounded word
        return metrics["words.oracle.useful_ratio"][0] > 0

    def oracle(self, cfg):
        d, b, k, max_n, max_letter, value, bound_N = cfg
        got = self.lib.words.minimal_N_oracle(d, b, k, max_n, max_letter, workers=1)
        check(got == value, f"oracle returned {got}, expected {value}")
        check(got <= bound_N, "oracle value exceeds the proven bound")
        return got

    def negative(self, letters, d):
        # consecutive blocks of a strictly increasing word start with
        # increasing letters, so no two of them can strictly decrease
        f = self.lib.words.find_d_decreasing(letters, d)
        check(f is None, "found a decreasing factorization of an increasing word")
        return None

    def positive(self, letters, d):
        f = self.lib.words.find_d_decreasing(letters, d)
        check(f is not None, "missed the planted decreasing run")
        check(f.block_count == d and f.is_valid(), "invalid factorization")
        return f.cuts

    def guaranteed(self, item_seed):
        words = self.lib.words
        u = self.lib.wordgen.random_valid_word(self.guarantee_N, 1, random.Random(item_seed))
        f = words.find_d_decreasing(u, 2)
        check(f is not None, "no 2-decreasing factorization above the bound N")
        check(f.block_count == 2 and f.is_valid(), "invalid factorization")
        return f.cuts


# --- 3. rewrite_check ---------------------------------------------------


class RewriteCheck(Workload):
    """Criterion-5 cases: canonical rewriting against the direct Ore
    product, with every j-word checked k-valid; and, once a round, the
    char-0 radical of one unital algebra of the pool checked stable under
    that algebra's derivation."""

    name = "rewrite_check"
    rounds = 28
    STRATA = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))  # (k, n)
    PER_STRATUM = 3  # cases per algebra, stratum and round
    # unital algebras of the pool over QQ, by pool index, and the dimension
    # of their radical: QQ[t]/(t^3) has (t, t^2), upper 2x2 has e12
    RADICALS = ((2, 2), (4, 1))

    def __init__(self, lib, seed, rounds=None):
        super().__init__(lib, seed, rounds)
        catalog, QQ = lib.catalog, lib.rings.QQ
        prng = random.Random(POOL_SEED)
        bases = [
            catalog.strictly_upper_3x3(), catalog.strictly_upper_3x3(),
            catalog.truncated_polynomial(QQ, 3), catalog.square_zero(2), catalog.upper_2x2(),
        ]
        pool = []
        for A in bases:
            C = random_conjugate(lib, A, prng)
            pool.append((C, random_derivation(lib, C, prng)))
        pool += [catalog.charp_truncated(p) for p in (2, 3, 5)]
        self.pool = [(A, D, [A.basis_element(i) for i in range(A.rank)]) for A, D in pool]
        exps = {
            (k, n): list(itertools.product(range(k + 1), repeat=n + 1))
            for k, n in self.STRATA
        }
        rng = self.rng
        self.plan = []
        for r in range(self.rounds):
            cases = []
            for a, (A, _, _) in enumerate(self.pool):
                for s, (k, n) in enumerate(self.STRATA):
                    elist = exps[(k, n)]
                    # equally spaced through the exponent list, so that
                    # every round gets light and heavy cases alike
                    for t in range(self.PER_STRATUM):
                        step = len(elist) * t // self.PER_STRATUM
                        e = elist[(r * 7 + a * 5 + s * 3 + step) % len(elist)]
                        head = rng.randrange(A.rank)
                        idx = tuple(rng.randrange(A.rank) for _ in range(n))
                        cases.append((a, head, idx, e, k))
            self.plan.append(cases)

    def items(self, r):
        out = [(self.rewrite, case) for case in self.plan[r]]
        return out + [(self.stable_radical, self.RADICALS[r % len(self.RADICALS)])]

    def stable_radical(self, a, dim):
        radical = self.lib.radical
        A, D, _ = self.pool[a]
        rep = radical.radical_char0(A)
        check(rep.radical.dim == dim, f"radical of dimension {rep.radical.dim}, expected {dim}")
        check(radical.check_delta_stability(A, D, rep.radical).stable,
              "the pool derivation moves the char-0 radical")
        return rep.radical.basis

    def rewrite(self, a, head, idx, exps, k):
        orepoly = self.lib.orepoly
        A, D, gens = self.pool[a]
        terms = orepoly.rewrite_product(A, D, gens, head, idx, exps, k)
        for t in terms:
            check(self.lib.words.is_k_valid(t.jword, k), "j-word is not k-valid")
        lhs = orepoly.evaluate_terms(A, D, gens, terms)
        rhs = orepoly.direct_product(A, D, gens, head, idx, exps)
        check(lhs == rhs, "canonical terms differ from the direct product")
        return tuple((t.coeff, t.jword.letters, t.xdeg) for t in terms)


# --- 4. structure_scan --------------------------------------------------


class StructureScan(Workload):
    """Few large exact computations: derivation spaces (sparse and dense),
    radicals and their stability, identity checks behind the theorem
    bound, minimal nilpotency over ZZ, QQ and GF(7), and the bundled CLI
    examples."""

    name = "structure_scan"
    rounds = 25
    EXAMPLES = (("charp", "--p", "5"), ("upper3strict",), ("squarezero",))

    def __init__(self, lib, seed, rounds=None):
        super().__init__(lib, seed, rounds)
        catalog, rings = lib.catalog, lib.rings
        QQ = rings.QQ
        rng = self.rng
        self.upper3 = upper_triangular(lib, 3, QQ)
        prng = random.Random(POOL_SEED)
        # derivations of a dense conjugate: the same elimination as the
        # standard basis but with every entry a Fraction
        self.dense = random_conjugate(lib, catalog.truncated_polynomial(QQ, 4), prng)
        self.unital = random_conjugate(lib, catalog.upper_2x2(), prng)
        self.strict = {ring: catalog.strictly_upper_3x3(ring) for ring in (rings.ZZ, QQ, rings.GF(7))}
        self.strict4 = upper_triangular(lib, 4, QQ, strict=True)
        self.outdir = Path(".bench_out") / "examples"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.plan = []
        for _ in range(self.rounds):
            elems = {
                id(A): [random_element(A, rng) for _ in range(2)]
                for A in (self.upper3, self.unital)
            }
            S = [(rng.randrange(3), rng.randrange(3)) for _ in range(rng.randint(2, 3))]
            self.plan.append((elems, S, rng.randrange(3)))

    def items(self, r):
        elems, S, inner = self.plan[r]
        # expected dimensions: every derivation of upper-triangular n x n
        # matrices is inner, so dim Der = 6 - 1 for n = 3; QQ[t]/(t^4) has
        # derivations t -> a t + b t^2 + c t^3; the radicals are the
        # strictly upper parts
        return [
            (self.derivations, (self.upper3, 5)),
            (self.derivations, (self.dense, 3)),
            (self.radical, (self.upper3, elems[id(self.upper3)], 3)),
            (self.radical, (self.unital, elems[id(self.unital)], 1)),
            (self.identity, (self.strict4, 4)),
            (self.nilpotency, (S, inner)),
        ] + [(self.example, (args,)) for args in self.EXAMPLES]

    def derivations(self, A, dim):
        basis = self.lib.algebra.derivation_space(A)
        check(len(basis) == dim, f"derivation space of dimension {len(basis)}, expected {dim}")
        for B in basis:
            self.lib.algebra.verify_leibniz(A, B)
        return tuple(basis)

    def radical(self, A, elems, dim):
        algebra, radical = self.lib.algebra, self.lib.radical
        rep = radical.radical_char0(A)
        check(rep.radical.dim == dim, f"radical of dimension {rep.radical.dim}, expected {dim}")
        # in characteristic zero every derivation keeps the radical
        for e in elems:
            D = algebra.inner_derivation(A, e)
            check(radical.check_delta_stability(A, D, rep.radical).stable,
                  "a derivation moves the char-0 radical")
        return rep.radical.basis, rep.certificate.nilpotency_index

    def identity(self, A, degree):
        ok, witness = self.lib.algebra.verify_identity(A, self.lib.catalog.vanishing_identity(degree))
        check(ok, f"vanishing identity fails at {witness}")
        return ok

    def nilpotency(self, S_spec, inner):
        """Minimal nilpotency of one set S over ZZ, QQ and GF(7) in strictly
        upper 3x3 matrices with an inner derivation, against the theorem
        bound; S has x-degree <= 1 and T is the whole basis, so S lies in
        T + Tx as the theorem needs."""
        algebra, orepoly = self.lib.algebra, self.lib.orepoly
        reports = []
        bound = None
        for ring, A in self.strict.items():
            delta = algebra.inner_derivation(A, A.basis_element(inner))
            S = [orepoly.DiffPoly(A, [A.basis_element(c0), A.basis_element(c1)])
                 for c0, c1 in S_spec]
            if ring == self.lib.rings.QQ:
                T = [A.basis_element(i) for i in range(A.rank)]
                bound = orepoly.theorem_bound(A, delta, T, 1, self.lib.catalog.vanishing_identity(3))
            rep = orepoly.minimal_nilpotency(A, delta, S, 8)
            # a product of three strictly upper 3x3 coefficients vanishes
            check(rep.minimal_N is not None and rep.minimal_N <= 2,
                  "strictly upper 3x3 set not nilpotent by the 3rd power")
            reports.append(rep)
        zz, qq, _ = reports
        check(zz.power_dims == qq.power_dims, "saturated ZZ spans disagree with QQ spans")
        check(all(rep.minimal_N <= bound for rep in reports), "minimal N exceeds the theorem bound")
        return tuple((rep.minimal_N, rep.power_dims) for rep in reports), bound

    def example(self, args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.lib.cli.main(["examples", *args, "--dir", str(self.outdir)])
        text = out.getvalue()
        check(rc == 0, f"examples {args[0]} exited {rc}")
        check("as expected" in text, f"examples {args[0]} missed its verdict")
        return text


WORKLOADS = {w.name: w for w in (WitnessSweep, OracleSearch, RewriteCheck, StructureScan)}
