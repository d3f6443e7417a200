"""Nil radicals, derivation stability, and the iterated-Leibniz table.

Over the rationals every finite-rank algebra, with or without a unit,
gets a computed radical (the kernel of the trace form of the regular
representation); positive characteristic gets verification of supplied
candidates. Stability checks reproduce the derivation-invariance of the
radical in characteristic zero and its failure mod p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, Derivation, nilpotency_index
from .errors import PreconditionViolated, VerificationFailed
from .linalg import Subspace, nullspace
from .rings import CoeffRing

LEIBNIZ_CAP = 8


@dataclass(frozen=True)
class NilIdealCertificate:
    is_nil_ideal: bool
    nilpotency_index: int | None
    closure_failure: tuple | None  # (side, basis index, vector) when not an ideal


@dataclass(frozen=True)
class RadicalReport:
    radical: Subspace
    method: str  # "trace_form" | "verified_candidate"
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


def is_nil_ideal(A: Algebra, V: Subspace) -> tuple[bool, NilIdealCertificate]:
    """Two-sided ideal with a finite nilpotency index (nil and nilpotent
    coincide at finite rank)."""
    for side, mul in (("left", lambda e, v: A.mul(e, v)), ("right", lambda e, v: A.mul(v, e))):
        for i in range(A.rank):
            e = A.basis_element(i)
            for v in V.basis:
                w = mul(e, A.element(v))
                if not V.contains(w):
                    cert = NilIdealCertificate(False, None, (side, i, w))
                    return False, cert
    idx = nilpotency_index(A, V)
    if idx is None:
        return False, NilIdealCertificate(False, None, None)
    return True, NilIdealCertificate(True, idx, None)


def check_delta_stability(A: Algebra, delta: Derivation, N: Subspace) -> StabilityResult:
    """Whether the derivation maps the verified nil ideal N into itself."""
    ok, _ = is_nil_ideal(A, N)
    if not ok:
        raise PreconditionViolated("stability check requires a verified nil ideal")
    for v in N.basis:
        image = delta.apply(A.ring, A.element(v))
        if not N.contains(image):
            return StabilityResult(False, (tuple(v), image))
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
    closed under multiplication (the ideal generated by b in the
    unitalization, restricted to A)."""
    vectors = [A.element(b)]
    frontier = [A.element(b)]
    span = A.span(vectors)
    while frontier:
        new = []
        for v in frontier:
            for i in range(A.rank):
                e = A.basis_element(i)
                for w in (A.mul(e, v), A.mul(v, e)):
                    if not span.contains(w):
                        new.append(w)
        if not new:
            break
        span = span.plus(A.span(new))
        frontier = new
    return span


def verify_nilpotent_image(A: Algebra, delta: Derivation, b, n: int, N: Subspace) -> NilpotentImageReport:
    """Check the pieces of the argument that delta(b)^n falls in N.

    Preconditions (checked): b^n = 0 and N is a nil ideal. The report
    records whether delta^n(b^n) vanishes (it is delta^n of zero), whether
    every composition term with a zero entry lies in the ideal of b and
    that ideal inside N, and whether c_{1..1} * delta(b)^n lies in N.
    """
    b = A.element(b)
    if n < 1:
        raise PreconditionViolated("n is positive")
    ok, _ = is_nil_ideal(A, N)
    if not ok:
        raise PreconditionViolated("N must be a verified nil ideal")
    power = b
    for _ in range(n - 1):
        power = A.mul(power, b)
    if not A.is_zero_elem(power):
        raise PreconditionViolated(f"b^{n} is nonzero")

    table = leibniz_coefficients(n)
    ideal = principal_ideal(A, b)
    ideal_inside = all(N.contains(v) for v in ideal.basis)
    terms_ok = True
    iterates = delta.iterates(A.ring, b, n)
    iterates += [A.zero()] * (n + 1 - len(iterates))
    for comp, _c in table.coefficients:
        if 0 not in comp:
            continue
        term = None
        for j in comp:
            factor = iterates[j]
            term = factor if term is None else A.mul(term, factor)
        if not ideal.contains(term):
            terms_ok = False
            break
    c_top = table.coefficient((1,) * n)
    delta_b = iterates[1]
    lead = delta_b
    for _ in range(n - 1):
        lead = A.mul(lead, delta_b)
    lead = A.scale_int(c_top, lead)
    return NilpotentImageReport(
        power_vanishes=True,
        ideal_terms_in_n=terms_ok,
        ideal_inside_n=ideal_inside,
        leading_multiple_in_n=N.contains(lead),
        leading_coefficient=c_top,
    )
