"""Nil radicals, derivation stability, and the iterated-Leibniz table.

Over the rationals every finite-rank algebra, with or without a unit,
gets a computed radical (the kernel of the trace form of the regular
representation); positive characteristic gets verification of supplied
candidates. Stability checks reproduce the derivation-invariance of the
radical in characteristic zero and its failure mod p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, Derivation, _check_operands, nilpotency_index
from .errors import PreconditionViolated, VerificationFailed
from .linalg import Subspace, nullspace
from .rings import CoeffRing, _numerators, _reduce

LEIBNIZ_CAP = 8


@dataclass(frozen=True)
class NilIdealCertificate:
    is_nil_ideal: bool
    nilpotency_index: int | None
    closure_failure: tuple | None  # (side, basis index, vector) when not an ideal


@dataclass(frozen=True)
class RadicalReport:
    radical: Subspace
    method: str  # "trace_form", the one method that computes a radical
    certificate: NilIdealCertificate


@dataclass(frozen=True)
class StabilityResult:
    stable: bool
    witness: tuple | None  # (element of N, its image outside N)


def radical_char0(A: Algebra) -> RadicalReport:
    """Nil radical of a finite-rank algebra over the rationals, unital or not.

    The radical is the kernel of the trace form B(x, y) = trace(L_{xy}) of
    the regular representation; no unit is needed:
    - if B(x, y) = 0 for all y, then tr L_x^m = B(x, x^(m-1)) = 0 for
      m >= 2, so L_x is nilpotent and tr L_x = 0;
    - on A^1 = QQ*1 + A, tr L_{x(c+y)} = c tr L_x + B(x, y) = 0, so x lies
      in the trace-form kernel of A^1, which is J(A^1) = J(A).
    The result is re-verified as a nil ideal before returning.
    """
    if A.ring.kind != CoeffRing.RATIONALS:
        raise PreconditionViolated("radical computation requires the rationals")
    # on the integer structure constants C = den * c (A._rows):
    # tr L_{e_k} = sum_j c_kj^j and B(e_i, e_j) = sum_k c_ij^k tr L_{e_k},
    # so gram is den^2 * B, which has the same kernel
    traces = [sum(c for j, consts in row for k, c in consts if k == j) for row in A._rows]
    gram = [[0] * A.rank for _ in range(A.rank)]
    for i, row in enumerate(A._rows):
        for j, consts in row:
            gram[i][j] = sum(c * traces[k] for k, c in consts)
    basis = nullspace(gram, A.ring)
    rad = Subspace.span(A.ring, A.rank, basis)
    ok, cert = is_nil_ideal(A, rad)
    if not ok:
        raise VerificationFailed(
            "trace-form kernel failed the nil-ideal re-check; "
            f"certificate: {cert}"
        )
    return RadicalReport(rad, "trace_form", cert)


def _basis_multiples(A: Algebra, rows):
    """Yield (side, i, t, w) for w = e_i v_t ("left") and v_t e_i ("right")
    over the integer rows v_t in (side, i, t) order, from row or column i of
    the structure constants; w is A._den times the product, not reduced."""
    for side, terms in (("left", A._rows), ("right", A._cols)):
        for i, pairs in enumerate(terms):
            for t, v in enumerate(rows):
                w = [0] * A.rank
                for j, consts in pairs:
                    if v[j]:
                        for k, c in consts:
                            w[k] += v[j] * c
                yield side, i, t, w


def is_nil_ideal(A: Algebra, V: Subspace) -> tuple[bool, NilIdealCertificate]:
    """Two-sided ideal with a finite nilpotency index (nil and nilpotent
    coincide at finite rank). Closure multiplies e_i by V's stored rows;
    a failure reports the product with the matching basis vector."""
    _check_operands(A, subspace=V)
    for side, i, t, w in _basis_multiples(A, V.rows):
        if not V.contains(w):
            e, v = A.basis_element(i), V.basis[t]
            w = A.mul(e, v) if side == "left" else A.mul(v, e)
            return False, NilIdealCertificate(False, None, (side, i, w))
    idx = nilpotency_index(A, V)
    return idx is not None, NilIdealCertificate(idx is not None, idx, None)


def check_delta_stability(A: Algebra, delta: Derivation, N: Subspace) -> StabilityResult:
    """Whether the derivation maps the verified nil ideal N into itself;
    delta runs on N's stored rows, unit multiples of its basis vectors."""
    _check_operands(A, delta, subspace=N)
    if not is_nil_ideal(A, N)[0]:
        raise PreconditionViolated("stability check requires a verified nil ideal")
    for t, v in enumerate(N.rows):
        if not N.contains(delta._apply_num(v, 1)[0]):
            return StabilityResult(False, (tuple(N.basis[t]), delta.apply(A.ring, N.basis[t])))
    return StabilityResult(True, None)


@dataclass(frozen=True)
class LeibnizTable:
    """Coefficients of delta^n(b_1 ... b_n) over compositions summing to n."""

    n: int
    coefficients: tuple[tuple[tuple[int, ...], int], ...]

    def as_dict(self) -> dict:
        return dict(self.coefficients)

    def coefficient(self, composition) -> int:
        return self.as_dict().get(tuple(composition), 0)


def leibniz_coefficients(n: int) -> LeibnizTable:
    """Iterate the product rule symbolically on n free factors.

    delta^n(b_1...b_n) = sum over (j_1..j_n), sum j_i = n, of
    c_{j_1..j_n} prod delta^{j_i}(b_i); the coefficient is the
    multinomial n!/(j_1!...j_n!), and in particular c_{1,...,1} = n!.
    n is refused beyond LEIBNIZ_CAP.
    """
    if n < 1:
        raise ValueError("n is positive")
    if n > LEIBNIZ_CAP:
        raise PreconditionViolated(f"n={n} exceeds the Leibniz table cap {LEIBNIZ_CAP}")
    table = {(0,) * n: 1}
    for _ in range(n):
        nxt: dict = {}
        for comp, c in table.items():
            for i in range(n):
                bumped = comp[:i] + (comp[i] + 1,) + comp[i + 1:]
                nxt[bumped] = nxt.get(bumped, 0) + c
        table = nxt
    items = tuple(sorted(table.items()))
    assert all(sum(comp) == n for comp, _ in items)
    return LeibnizTable(n, items)


@dataclass(frozen=True)
class NilpotentImageReport:
    """Sub-checks of the nilpotent-image argument for one element b with
    b^n = 0 inside a verified stable candidate N."""

    power_vanishes: bool          # b^n = 0, so delta^n(b^n) = 0
    ideal_terms_in_n: bool        # terms with some j_i = 0 lie in the ideal of b, inside N
    ideal_inside_n: bool
    leading_multiple_in_n: bool   # c_{1..1} * delta(b)^n lands in N
    leading_coefficient: int

    @property
    def all_passed(self) -> bool:
        return (
            self.power_vanishes
            and self.ideal_terms_in_n
            and self.ideal_inside_n
            and self.leading_multiple_in_n
        )


def principal_ideal(A: Algebra, b) -> Subspace:
    """Span of b together with all one- and two-sided basis multiples,
    closed under multiplication (the ideal generated by b in the unitalization,
    restricted to A): the walk of `is_nil_ideal` grows the rows until they stop."""
    span = A.span([A.element(b)])
    while True:
        grown = A.span([*span.rows, *(w for *_, w in _basis_multiples(A, span.rows))])
        if grown == span:
            return span
        span = grown


def _chain_product(A: Algebra, chain, comp):
    """prod delta^j(b) over the entries j of comp, from b's delta-chain of
    (numerators, denominator) pairs: a positive multiple, not reduced mod p."""
    if max(comp) >= len(chain):
        return [0] * A.rank  # delta^j(b) = 0 past the chain
    x, den = chain[comp[0]]
    for j in comp[1:]:
        x, den = A._mul_num(x, den, *chain[j])
    return x


def verify_nilpotent_image(A: Algebra, delta: Derivation, b, n: int, N: Subspace) -> NilpotentImageReport:
    """Check the pieces of the argument that delta(b)^n falls in N.

    Preconditions (checked): b^n = 0 and N is a nil ideal. The report
    records whether delta^n(b^n) vanishes (it is delta^n of zero), whether
    every composition term with a zero entry lies in the ideal of b and
    that ideal inside N, and whether c_{1..1} * delta(b)^n lies in N. All of
    them are integer products over b's delta-chain, tested by `contains`.
    """
    _check_operands(A, delta, (b,), N)
    if n < 1:
        raise PreconditionViolated("n is positive")
    if not is_nil_ideal(A, N)[0]:
        raise PreconditionViolated("N must be a verified nil ideal")
    chain = delta._iterates_num(A.ring, *_numerators(A.ring, b), n)
    if any(_reduce(A.ring, _chain_product(A, chain, (0,) * n))):
        raise PreconditionViolated(f"b^{n} is nonzero")
    table = leibniz_coefficients(n)
    ideal = principal_ideal(A, b)
    c_top = table.coefficient((1,) * n)
    return NilpotentImageReport(
        power_vanishes=True,
        ideal_terms_in_n=all(ideal.contains(_chain_product(A, chain, comp))
                             for comp, _c in table.coefficients if 0 in comp),
        ideal_inside_n=all(N.contains(v) for v in ideal.rows),
        leading_multiple_in_n=N.contains([c_top * a for a in _chain_product(A, chain, (1,) * n)]),
        leading_coefficient=c_top,
    )
