"""Exception hierarchy shared across the workbench."""


class OrelabError(Exception):
    """Base class for all orelab-specific errors."""


class InsufficientBoundData(OrelabError):
    """A bound sequence cannot settle a required entry b_m."""

    def __init__(self, m, prefix_len):
        self.m = m
        self.prefix_len = prefix_len
        super().__init__(
            f"bound sequence prefix of length {prefix_len} does not determine b_{m} "
            f"(tail extension disabled)"
        )


class BudgetExceeded(OrelabError):
    """An exhaustive search would exceed the configured budget."""


class PreconditionViolated(OrelabError):
    """A checked precondition of an operation failed."""


class ConstructionFailed(OrelabError):
    """Internal invariant of a guaranteed construction failed (indicates a bug)."""


class RankMismatch(OrelabError):
    """Operands belong to algebras of different rank."""


class MalformedInput(OrelabError):
    """Input document failed to parse; carries field/line context."""

    def __init__(self, message, field=None, line=None):
        self.field = field
        self.line = line
        loc = []
        if field is not None:
            loc.append(f"field {field}")
        if line is not None:
            loc.append(f"line {line}")
        where = " at " + ", ".join(loc) if loc else ""
        super().__init__(f"{message}{where}")


class AssociativityViolation(OrelabError):
    """Structure constants are not associative; carries every failing triple."""

    def __init__(self, failures):
        # failures: list of (i, j, k, lhs, rhs) basis-triple mismatches
        self.failures = failures
        shown = ", ".join(f"({i},{j},{k})" for i, j, k, _, _ in failures[:8])
        more = "" if len(failures) <= 8 else f" and {len(failures) - 8} more"
        super().__init__(f"associativity fails on basis triples {shown}{more}")


class BadUnit(OrelabError):
    """Declared unit index is not a two-sided identity."""


class LeibnizViolation(OrelabError):
    """Candidate derivation matrix violates the Leibniz rule on a basis pair."""

    def __init__(self, i, j, lhs, rhs):
        self.i = i
        self.j = j
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"Leibniz rule fails on basis pair ({i},{j}): D(e{i}*e{j})={lhs} "
            f"but D(e{i})*e{j}+e{i}*D(e{j})={rhs}"
        )


class NotNilpotent(OrelabError):
    """A span required to be nilpotent is not; carries the first failing level."""

    def __init__(self, level):
        self.level = level
        super().__init__(f"span of T_{level} is not nilpotent")


class IdentityFails(OrelabError):
    """The supplied multilinear identity does not hold; carries a witness tuple."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"multilinear identity fails on basis tuple {witness}")


class ExponentTooLarge(OrelabError):
    """An x-exponent exceeds the declared cap k."""


class VerificationFailed(OrelabError):
    """A computed object failed its own post-verification (indicates a bug)."""
