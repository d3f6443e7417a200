"""Command-line surface.

Subcommands: words-analyze, words-bounds, ore-rewrite, ore-nilpotency,
radical-check, examples. All numeric inputs are exact (integers or "a/b"
rationals); reports are deterministic plain text, or JSON with --json.

Exit codes: 0 success (for `examples`: expected verdict reproduced),
1 verdict mismatch, 2 input error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import catalog
from .algebra import (
    Algebra,
    Derivation,
    algebra_to_document,
    b_sequence,
    inner_derivation,
    load_algebra,
)
from .errors import (
    BudgetExceeded,
    FactorialCapExceeded,
    MalformedInput,
    OrelabError,
)
from .orepoly import (
    DiffPoly,
    _theorem_bound,
    minimal_nilpotency,
    rewrite_product,
    theorem_bound,
)
from .radical import (
    check_delta_stability,
    is_nil_ideal,
    radical_char0,
)
from .words import (
    BoundSequence,
    Word,
    compute_bounds,
    find_d_decreasing,
    is_b_bounded,
    is_k_valid,
    minimal_N_oracle,
    weight,
)

USAGE_ERROR = 2
BUDGET_ERROR = 3
VERDICT_MISMATCH = 1


class CliInputError(Exception):
    pass


def _parse_word(text: str) -> Word:
    parts = [p.strip() for p in text.split(",")]
    letters = []
    for i, p in enumerate(parts):
        if not p.isdigit():
            raise CliInputError(
                f"cannot parse word: item {i + 1} ({p!r}) is not a natural number"
            )
        letters.append(int(p))
    if not letters:
        raise CliInputError("word is empty")
    return Word(letters)


def _parse_bounds(text: str, tail: bool) -> BoundSequence:
    parts = [p.strip() for p in text.split(",")]
    vals = []
    for i, p in enumerate(parts):
        if not p.isdigit() or int(p) < 1:
            raise CliInputError(
                f"cannot parse bound prefix: item {i + 1} ({p!r}) is not a positive integer"
            )
        vals.append(int(p))
    return BoundSequence(vals, extend_tail=tail)


def _parse_eps(text: str) -> Fraction:
    t = text.strip()
    try:
        if "/" in t:
            num, den = t.split("/", 1)
            val = Fraction(int(num), int(den))
        else:
            val = Fraction(int(t))
    except (ValueError, ZeroDivisionError):
        raise CliInputError(f"cannot parse rational {t!r} (use a/b or an integer)") from None
    if not (0 < val <= 1):
        raise CliInputError(f"eps must lie in (0, 1], got {t}")
    return val


def _parse_int_list(text: str, what: str) -> list[int]:
    out = []
    for i, p in enumerate(t.strip() for t in text.split(",")):
        if not (p.isdigit() or (p.startswith("-") and p[1:].isdigit())):
            raise CliInputError(f"cannot parse {what}: item {i + 1} ({p!r})")
        out.append(int(p))
    return out


def _basis_index(A: Algebra, name: str) -> int:
    name = name.strip()
    if name in A.basis_names:
        return A.basis_names.index(name)
    if name.isdigit() and int(name) < A.rank:
        return int(name)
    raise CliInputError(f"unknown basis element {name!r}")


def _parse_poly(A: Algebra, text: str) -> DiffPoly:
    """One polynomial: terms joined by +/-, each term a '*'-product of an
    optional exact coefficient, a basis name, and an optional x power."""
    text = text.strip()
    if not text:
        raise CliInputError("empty polynomial")
    # split into signed terms
    terms = []
    sign, cur = 1, []
    for ch in text:
        if ch in "+-":
            if cur:
                terms.append((sign, "".join(cur).strip()))
                cur = []
                sign = 1
            if ch == "-":
                sign = -sign
        else:
            cur.append(ch)
    if cur:
        terms.append((sign, "".join(cur).strip()))
    coeffs: dict[int, object] = {}
    ring = A.ring
    for sign, term in terms:
        if not term:
            raise CliInputError(f"dangling sign in polynomial {text!r}")
        coeff = ring.one
        name_idx = None
        xpow = 0
        for part in (p.strip() for p in term.split("*")):
            if not part:
                raise CliInputError(f"empty factor in term {term!r}")
            if part == "x" or (part.startswith("x^") and part[2:].isdigit()):
                xpow += 1 if part == "x" else int(part[2:])
            elif part[0].isdigit() or part[0] == "-":
                try:
                    coeff = ring.mul(coeff, ring.parse(part))
                except MalformedInput:
                    raise CliInputError(f"bad coefficient {part!r} in term {term!r}") from None
            else:
                if name_idx is not None:
                    raise CliInputError(
                        f"term {term!r} names two basis elements; "
                        "polynomial coefficients live in the algebra"
                    )
                name_idx = _basis_index(A, part)
        if name_idx is None:
            raise CliInputError(
                f"term {term!r} has no algebra coefficient; bare x-powers are "
                "not elements of the coefficient ring"
            )
        elem = A.scale(ring.mul(ring.from_int(sign), coeff), A.basis_element(name_idx))
        prev = coeffs.get(xpow, A.zero())
        coeffs[xpow] = A.add(prev, elem)
    top = max(coeffs) if coeffs else 0
    return DiffPoly(A, [coeffs.get(i, A.zero()) for i in range(top + 1)])


def _parse_set(A: Algebra, text: str) -> list[DiffPoly]:
    polys = [p for p in (s.strip() for s in text.split(";")) if p]
    if not polys:
        raise CliInputError("empty polynomial set")
    return [_parse_poly(A, p) for p in polys]


def _parse_candidate(A: Algebra, text: str):
    """Subspace candidate: basis names 'e12,e13' or coordinate vectors
    '0,1,0;0,0,1'."""
    vectors = []
    for chunk in (c.strip() for c in text.split(";")):
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if all(p in A.basis_names for p in parts):
            for p in parts:
                vectors.append(A.basis_element(A.basis_names.index(p)))
        elif len(parts) == A.rank:
            vectors.append(tuple(A.ring.parse(p) for p in parts))
        else:
            raise CliInputError(
                f"candidate chunk {chunk!r}: use basis names or {A.rank} coordinates"
            )
    if not vectors:
        raise CliInputError("empty candidate subspace")
    return A.span(vectors)


def _zero_derivation(A: Algebra) -> Derivation:
    z = A.ring.zero
    return Derivation(tuple(tuple(z for _ in range(A.rank)) for _ in range(A.rank)))


def _load_file(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None
    return load_algebra(text)


def _resolve_derivation(A: Algebra, derivations, name: str | None) -> Derivation:
    if name is None or name == "zero":
        return _zero_derivation(A)
    if name == "inner":
        raise CliInputError("inner derivations need a file entry; name one in the document")
    if name not in derivations:
        raise CliInputError(
            f"derivation {name!r} not in file (has: {sorted(derivations) or 'none'})"
        )
    return derivations[name]


class Report:
    """Ordered key/value report, printable as text or JSON."""

    def __init__(self, command: str, params: dict):
        self.items: list[tuple[str, object]] = []
        self.items.append(("command", command))
        for k, v in params.items():
            self.items.append((f"param.{k}", v))

    def add(self, key: str, value):
        self.items.append((key, value))

    def emit(self, as_json: bool, out=None) -> None:
        out = out or sys.stdout
        if as_json:
            obj = {k: v for k, v in self.items}
            out.write(json.dumps(obj, sort_keys=True, indent=2))
            out.write("\n")
        else:
            for k, v in self.items:
                out.write(f"{k} = {v}\n")


def _fmt_eps(eps: Fraction) -> str:
    return f"{eps.numerator}/{eps.denominator}" if eps.denominator != 1 else str(eps.numerator)


# --- subcommands --------------------------------------------------------


def cmd_words_analyze(args) -> int:
    word = _parse_word(args.word)
    params = {
        "word": ",".join(map(str, word.letters)),
        "k": args.k,
        "b": args.b,
        "tail": args.tail,
        "decreasing": args.decreasing,
    }
    rep = Report("words-analyze", params)
    rep.add("length", len(word))
    rep.add("weight", weight(word))
    if args.k is not None:
        rep.add("k_valid", is_k_valid(word, args.k))
    if args.b is not None:
        b = _parse_bounds(args.b, args.tail)
        rep.add("b_bounded", is_b_bounded(word, b))
    if args.decreasing is not None:
        f = find_d_decreasing(word, args.decreasing)
        if f is None:
            rep.add("decreasing", "none")
        else:
            rep.add("decreasing.prefix", ",".join(map(str, f.prefix)) or "-")
            for t, blk in enumerate(f.blocks, start=1):
                rep.add(f"decreasing.block{t}", ",".join(map(str, blk)))
            rep.add("decreasing.suffix", ",".join(map(str, f.suffix)) or "-")
    rep.emit(args.json)
    return 0


def cmd_words_bounds(args) -> int:
    eps = _parse_eps(args.eps)
    b = _parse_bounds(args.b, args.tail)
    params = {
        "d": args.d,
        "k": args.k,
        "eps": _fmt_eps(eps),
        "b": args.b,
        "tail": args.tail,
        "oracle": " ".join(map(str, args.oracle)) if args.oracle else None,
        "threads": args.threads,
    }
    if args.threads < 1:
        raise CliInputError(f"--threads must be at least 1, got {args.threads}")
    rep = Report("words-bounds", params)
    res = compute_bounds(args.d, b, args.k, eps)
    rep.add("M", res.M)
    rep.add("N", res.N)
    for i, lev in enumerate(res.trace, start=1):
        rep.add(f"trace.level{i}", f"M1={lev.M1} N1={lev.N1} M2={lev.M2} N2={lev.N2}")
    if args.oracle:
        max_n, max_letter = args.oracle
        val = minimal_N_oracle(args.d, b, args.k, max_n, max_letter,
                               workers=args.threads)
        rep.add("oracle.minimal_N", "none" if val is None else val)
        if val is not None:
            rep.add("oracle.le_bound", val <= res.N)
    rep.emit(args.json)
    return 0


def cmd_ore_rewrite(args) -> int:
    A, derivations, _ = _load_file(args.file)
    delta = _resolve_derivation(A, derivations, args.derivation)
    head = _basis_index(A, args.head)
    indices = [_basis_index(A, s) for s in args.indices.split(",")]
    exponents = _parse_int_list(args.exponents, "exponents")
    params = {
        "file": args.file,
        "derivation": args.derivation or "zero",
        "head": args.head,
        "indices": args.indices,
        "exponents": args.exponents,
        "k": args.k,
    }
    rep = Report("ore-rewrite", params)
    gens = [A.basis_element(i) for i in range(A.rank)]
    terms = rewrite_product(A, delta, gens, head, indices, exponents, args.k)
    rep.add("terms", len(terms))
    for i, t in enumerate(terms):
        rep.add(f"term{i}", t.fmt())
    rep.emit(args.json)
    return 0


def cmd_ore_nilpotency(args) -> int:
    A, derivations, identities = _load_file(args.file)
    delta = _resolve_derivation(A, derivations, args.derivation)
    S = _parse_set(A, args.set)
    params = {
        "file": args.file,
        "set": args.set,
        "derivation": args.derivation or "zero",
        "cap": args.cap,
        "bound": args.bound,
        "k": args.k,
        "T": args.T,
    }
    if args.cap < 0:
        raise CliInputError(f"--cap must be at least 0, got {args.cap}")
    rep = Report("ore-nilpotency", params)
    bound_value = None
    if args.bound is not None:
        if args.bound not in identities:
            raise CliInputError(
                f"identity {args.bound!r} not in file (has: {sorted(identities) or 'none'})"
            )
        T_names = args.T.split(",") if args.T else list(A.basis_names)
        T = [A.basis_element(_basis_index(A, s)) for s in T_names]
        _check_set_in_span(A, S, A.span(T), args.k)
        bseq = b_sequence(A, delta, T)
        rep.add("b_sequence", ",".join(map(str, bseq.prefix)))
        bound_value = _theorem_bound(A, identities[args.bound], args.k, lambda: bseq)
        rep.add("theorem_bound", bound_value)
    result = minimal_nilpotency(A, delta, S, args.cap)
    if (bound_value is not None and result.minimal_N is not None
            and result.minimal_N > bound_value):
        rep.add("minimal_le_bound", False)
        rep.add("verdict", "MISMATCH: verified minimal nilpotency exceeds the proven bound")
        rep.emit(args.json)
        return VERDICT_MISMATCH
    rep.add("power_dims", ",".join(map(str, result.power_dims)))
    if result.minimal_N is None:
        rep.add("minimal_N", f"cap {args.cap} exceeded")
    else:
        rep.add("minimal_N", result.minimal_N)
        if bound_value is not None:
            rep.add("minimal_le_bound", result.minimal_N <= bound_value)
    rep.emit(args.json)
    return 0


def _check_set_in_span(A: Algebra, S, span_T, k: int) -> None:
    """The theorem bound covers only S inside T + Tx + ... + Tx^k."""
    for n, f in enumerate(S, start=1):
        for i, c in enumerate(f.coeffs):
            if A.is_zero_elem(c):
                continue
            if i > k:
                why = f"x-degree {i} exceeds k={k}"
            elif not span_T.contains(c):
                why = "coefficient is not in span(T)"
            else:
                continue
            raise CliInputError(
                f"set element {n} ({f.fmt(A)}): x^{i} coefficient "
                f"{A.fmt_element(c)}: {why}; the theorem bound needs "
                f"S inside T + Tx + ... + Tx^{k}"
            )


def cmd_radical_check(args) -> int:
    A, derivations, _ = _load_file(args.file)
    delta = _resolve_derivation(A, derivations, args.derivation)
    params = {
        "file": args.file,
        "derivation": args.derivation or "zero",
        "candidate": args.candidate,
    }
    rep = Report("radical-check", params)
    if args.candidate is not None:
        N = _parse_candidate(A, args.candidate)
        ok, cert = is_nil_ideal(A, N)
        rep.add("candidate.dim", N.dim)
        rep.add("candidate.is_nil_ideal", ok)
        if not ok:
            rep.add("candidate.failure", str(cert.closure_failure))
            rep.emit(args.json)
            return USAGE_ERROR
        rep.add("candidate.nilpotency_index", cert.nilpotency_index)
        rad = N
        rep.add("method", "verified_candidate")
    else:
        report = radical_char0(A)
        rad = report.radical
        rep.add("method", report.method)
        rep.add("radical.dim", rad.dim)
        for i, v in enumerate(rad.basis):
            rep.add(f"radical.basis{i}", A.fmt_element(v))
        rep.add("radical.nilpotency_index", report.certificate.nilpotency_index)
    res = check_delta_stability(A, delta, rad)
    rep.add("stable", res.stable)
    if not res.stable:
        elem, image = res.witness
        rep.add("witness.element", A.fmt_element(elem))
        rep.add("witness.image", A.fmt_element(image))
    rep.emit(args.json)
    return 0


# --- bundled examples ---------------------------------------------------


def _write_example(rep, outdir: Path, filename: str, doc: dict):
    """Write the example document and load it back from the file."""
    path = outdir / filename
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    rep.add("file", str(path))
    return load_algebra(path.read_text())


def cmd_examples(args) -> int:
    name = args.name
    params = {"name": name, "p": args.p if name == "charp" else None, "dir": args.dir}
    rep = Report("examples", params)
    outdir = Path(args.dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliInputError(f"cannot create {outdir}: {exc}") from None

    if name == "charp":
        A, ddt = catalog.charp_truncated(args.p)
        doc = algebra_to_document(A, {"ddt": ddt})
        A, derivations, _ = _write_example(rep, outdir, f"charp_{args.p}.json", doc)
        delta = derivations["ddt"]
        t = A.basis_element(1)
        N = A.span([A.basis_element(i) for i in range(1, A.rank)])
        ok, cert = is_nil_ideal(A, N)
        rep.add("candidate.is_nil_ideal", ok)
        rep.add("candidate.nilpotency_index", cert.nilpotency_index)
        rep.add("delta_t", A.fmt_element(delta.apply(A.ring, t)))
        res = check_delta_stability(A, delta, N)
        rep.add("stable", res.stable)
        if res.witness:
            rep.add("witness.element", A.fmt_element(res.witness[0]))
            rep.add("witness.image", A.fmt_element(res.witness[1]))
        expected = (not res.stable) and ok
        rep.add("verdict", "unstable as expected" if expected else "MISMATCH")
        rep.emit(args.json)
        return 0 if expected else VERDICT_MISMATCH

    if name == "upper3strict":
        A = catalog.strictly_upper_3x3()
        doc = algebra_to_document(A, {"inner_e12": inner_derivation(A, A.basis_element(0))},
                                  {"vanish3": catalog.vanishing_identity(3)})
        A, derivations, identities = _write_example(rep, outdir, "upper3strict.json", doc)
        delta = derivations["inner_e12"]
        S = _parse_set(A, "e12 + e23*x")
        result = minimal_nilpotency(A, delta, S, 6)
        rep.add("set", "e12 + e23*x")
        rep.add("minimal_N", result.minimal_N)
        T = [A.basis_element(i) for i in range(3)]
        bound = theorem_bound(A, delta, T, 1, identities["vanish3"])
        rep.add("theorem_bound", bound)
        expected = result.minimal_N == 2 and result.minimal_N <= bound
        rep.add("verdict", "nilpotency pipeline as expected" if expected else "MISMATCH")
        rep.emit(args.json)
        return 0 if expected else VERDICT_MISMATCH

    if name == "squarezero":
        doc = algebra_to_document(catalog.square_zero(1))
        doc["basis_names"] = ["z"]
        A, _, _ = _write_example(rep, outdir, "squarezero.json", doc)
        S = _parse_set(A, "z*x")
        result = minimal_nilpotency(A, _zero_derivation(A), S, 4)
        rep.add("set", "z*x")
        rep.add("minimal_N", result.minimal_N)
        expected = result.minimal_N == 1
        rep.add("verdict", "minimal_N=1 as expected" if expected else "MISMATCH")
        rep.emit(args.json)
        return 0 if expected else VERDICT_MISMATCH

    raise CliInputError(f"unknown example {name!r} (have: charp, upper3strict, squarezero)")


# --- entry point --------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and main may run many times in one process."""
    parser = argparse.ArgumentParser(
        prog="orelab",
        description="Exact-arithmetic workbench for differential polynomial rings",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("words-analyze", help="weight, validity, boundedness, factorization")
    p.add_argument("word", help="comma-separated natural numbers, e.g. 2,1")
    p.add_argument("--k", type=int, default=None, help="validity threshold")
    p.add_argument("--b", default=None, help="bound sequence prefix, e.g. 2,3,4")
    p.add_argument("--no-tail", dest="tail", action="store_false",
                   help="disable the constant-tail extension of the b prefix")
    p.add_argument("--decreasing", type=int, default=None, metavar="D",
                   help="search for a D-decreasing factorization")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_words_analyze)

    p = sub.add_parser("words-bounds", help="constants of the decreasing-subword guarantee")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", default="1", help="rational in (0,1], e.g. 1/2")
    p.add_argument("--b", required=True, help="bound sequence prefix")
    p.add_argument("--no-tail", dest="tail", action="store_false")
    p.add_argument("--oracle", nargs=2, type=int, metavar=("MAX_N", "MAX_LETTER"),
                   default=None, help="run the exhaustive minimal-length oracle")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_words_bounds)

    p = sub.add_parser("ore-rewrite", help="canonical terms of a generator/x-power product")
    p.add_argument("file", help="algebra-definition document")
    p.add_argument("--derivation", default=None, help="derivation name from the file")
    p.add_argument("--head", required=True, help="basis name of the head factor")
    p.add_argument("--indices", required=True, help="comma-separated basis names")
    p.add_argument("--exponents", required=True, help="p_1..p_{n+1}, comma-separated")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ore_rewrite)

    p = sub.add_parser("ore-nilpotency", help="minimal nilpotency of a polynomial set")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="polynomials, e.g. 'e12 + e23*x; e13*x^2'")
    p.add_argument("--derivation", default=None)
    p.add_argument("--cap", type=int, default=16)
    p.add_argument("--bound", default=None, metavar="IDENTITY",
                   help="also compute the guaranteed bound via this identity")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--T", default=None, help="generating set for the bound (basis names)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ore_nilpotency)

    p = sub.add_parser("radical-check", help="radical and derivation stability")
    p.add_argument("file")
    p.add_argument("--derivation", default=None)
    p.add_argument("--candidate", default=None,
                   help="candidate nil ideal (basis names or coordinate vectors)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_radical_check)

    p = sub.add_parser("examples", help="write a bundled algebra file and run its pipeline")
    p.add_argument("name", help="charp | upper3strict | squarezero")
    p.add_argument("--p", type=int, default=3, help="prime for the charp example")
    p.add_argument("--dir", default=".", help="output directory for generated files")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the input-error code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliInputError, ValueError) as exc:
        # the library raises ValueError for out-of-range arguments
        print(f"input error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (BudgetExceeded, FactorialCapExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except OrelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
