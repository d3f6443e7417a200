"""Span tracer that wraps orelab's functions from outside the package.

A traced call records one span: name, start, end, parent span and round
id. Spans live in flat arrays while the run goes on; they are analysed and
written to disk once, when the run ends. Self time is a span's duration
minus the durations of its direct children, so the self times of all spans
under a root add up to the root's duration.

Scalar ring arithmetic (``CoeffRing`` methods) is not wrapped: it runs tens
of millions of times and a span per call would swamp the measurement, so
its time lands in whichever wrapped function called it.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("words", "wordgen", "algebra", "linalg", "orepoly", "radical", "cli", "bench")


def _length(args, kwargs, result):
    return len(result)


def _witness_letters(args, kwargs, result):
    return len(result.word)


def _found(args, kwargs, result):
    return result is not None


def _cells(args, kwargs, result):
    rows = list(args[0]) if args else []
    return len(rows) * (len(rows[0]) if rows else 0)


def _identity_tuples(args, kwargs, result):
    A, ident = args[0], args[1]
    ok, witness = result
    if ok:
        return A.rank ** ident.degree
    index = 0
    for i in witness:
        index = index * A.rank + i
    return index + 1


# (module, attribute or Class.method, span name, value recorded per span).
# Every orelab module that imported the same function object by name is
# patched too, so calls between modules are traced as well.
SPECS = (
    ("_kernels", "weight", "words.kernel.weight", None),
    ("_kernels", "k_valid", "words.kernel.k_valid", None),
    ("_kernels", "compare", "words.kernel.compare", None),
    ("_kernels", "compare_ranges", "words.kernel.compare_ranges", None),
    ("_kernels", "b_bounded", "words.kernel.b_bounded", None),
    ("_kernels", "max_run_profile", "words.kernel.max_run_profile", None),
    ("words", "is_k_valid", "words.check.k_valid", None),
    ("words", "is_b_bounded", "words.check.b_bounded", None),
    ("words", "Factorization.is_valid", "words.check.factorization", None),
    ("words", "Factorization.satisfies_window", "words.check.window", None),
    ("words", "compute_bounds", "words.bounds", None),
    ("words", "decreasing_witness", "words.witness", _witness_letters),
    ("words", "find_d_decreasing", "words.search", _found),
    ("words", "minimal_N_oracle", "words.oracle", None),
    ("wordgen", "random_valid_word", "wordgen.sample", _length),
    ("algebra", "Algebra.__init__", "algebra.construct", None),
    ("algebra", "Algebra.mul", "algebra.mul", None),
    ("algebra", "Derivation.apply", "algebra.derivation_apply", None),
    ("algebra", "verify_leibniz", "algebra.leibniz", None),
    ("algebra", "derivation_space", "algebra.derivation_space", None),
    ("algebra", "inner_derivation", "algebra.inner_derivation", None),
    ("algebra", "verify_identity", "algebra.identity", _identity_tuples),
    ("algebra", "nilpotency_index", "algebra.nilpotency_index", None),
    ("algebra", "b_sequence", "algebra.b_sequence", None),
    ("algebra", "find_unit", "algebra.find_unit", None),
    ("linalg", "rref", "linalg.rref", _cells),
    ("linalg", "saturate", "linalg.saturate", None),
    ("linalg", "Subspace.span", "linalg.span", None),
    ("linalg", "Subspace.contains", "linalg.contains", None),
    ("orepoly", "rewrite_product", "orepoly.rewrite", _length),
    ("orepoly", "evaluate_terms", "orepoly.evaluate", None),
    ("orepoly", "direct_product", "orepoly.direct", None),
    ("orepoly", "set_power_dimension", "orepoly.power_dim", None),
    ("orepoly", "minimal_nilpotency", "orepoly.minimal", None),
    ("orepoly", "theorem_bound", "orepoly.theorem_bound", None),
    ("radical", "radical_char0", "radical.char0", None),
    ("radical", "is_nil_ideal", "radical.nil_ideal", None),
    ("radical", "check_delta_stability", "radical.stability", None),
    ("cli", "main", "cli.examples", None),
)


class Tracer:
    """Records spans into flat arrays; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.round = array("i")
        self.value = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.round_id = -1
        self.power_dim_attempts = 0
        self.power_dim_useful = 0
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # --- spans opened by the benchmark itself ---

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self.current)
        self.round.append(self.round_id)
        self.value.append(0)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.current = idx
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.current = self.parent[idx]

    # --- wrapped library calls ---

    def wrap(self, name: str, fn, measure=None):
        nid = self._name_id(name)
        names, parents, rounds = self.name, self.parent, self.round
        values, starts, ends = self.value, self.start, self.end
        clock = perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            prev = tracer.current
            names.append(nid)
            parents.append(prev)
            rounds.append(tracer.round_id)
            values.append(0)
            starts.append(0.0)
            ends.append(0.0)
            tracer.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.current = prev
                starts[idx] = t0
                ends[idx] = t1
            if measure is not None:
                values[idx] = int(measure(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_power_dim(self, traced):
        # useful_ratio needs dim S^(m-1) * |S| for each dim S^m; the pipeline
        # calls set_power_dimension for m = 1, 2, ... on one list S
        last: dict[int, tuple[int, int]] = {}
        tracer = self

        def power_dim(A, delta, S, m, *rest, **kwargs):
            dim = traced(A, delta, S, m, *rest, **kwargs)
            prev = last.get(id(S))
            if m >= 2 and prev is not None and prev[0] == m - 1:
                tracer.power_dim_attempts += prev[1] * len(S)
                tracer.power_dim_useful += dim
            last[id(S)] = (m, dim)
            return dim

        power_dim.__wrapped__ = traced.__wrapped__
        return power_dim

    def install(self, lib) -> None:
        modules = lib.modules
        for modname, attr, name, measure in SPECS:
            owner = modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            if owner is None or meth not in vars(owner):
                self.missing.append(f"{modname}.{attr}")
                continue
            raw = vars(owner)[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, measure))
                self._patch(owner, meth, wrapped)
                continue
            wrapped = self.wrap(name, raw, measure)
            if name == "orepoly.power_dim":
                wrapped = self._wrap_power_dim(wrapped)
            self._patch(owner, meth, wrapped)
            if not cls_name:
                for mod in modules.values():
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    # --- analysis ---

    def analyse(self) -> dict:
        """Per-name totals: calls, self seconds, recorded values."""
        n = len(self.name)
        names, parent, start, end = self.name, self.parent, self.start, self.end
        child = array("d", bytes(8 * n))
        root_s = 0.0
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
            else:
                root_s += end[i] - start[i]
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        values = [0] * k
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
            values[nid] += self.value[i]
        # oracle work: words it enumerated (each passes the validity check
        # first) and the ones that reached the decreasing search
        oracle = self._ids.get("words.oracle", -2)
        kval = self._ids.get("words.check.k_valid", -2)
        search = self._ids.get("words.search", -2)
        enumerated = useful = 0
        for i in range(n):
            p = parent[i]
            if p >= 0 and names[p] == oracle:
                if names[i] == kval:
                    enumerated += 1
                elif names[i] == search:
                    useful += 1
        return {
            "by_name": {
                self.names[j]: {"calls": calls[j], "self_s": self_s[j], "value": values[j]}
                for j in range(k)
            },
            "root_s": root_s,
            "spans": n,
            "oracle_enumerated": enumerated,
            "oracle_useful": useful,
        }

    def write(self, path: Path, header: dict) -> None:
        """Span arrays as raw machine words, described by a JSON sidecar."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name, self.parent, self.round, self.value, self.start, self.end):
                arr.tofile(fh)
        layout = [
            {"field": f, "typecode": a.typecode, "itemsize": a.itemsize}
            for f, a in (("name", self.name), ("parent", self.parent), ("round", self.round),
                         ("value", self.value), ("start", self.start), ("end", self.end))
        ]
        doc = dict(header, spans=len(self.name), names=self.names, layout=layout)
        path.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n")


def layer_metrics(summary: dict, tracer: Tracer) -> dict:
    """The per-layer metrics, by the names BENCHMARK.json lists."""
    by = summary["by_name"]

    def tot(prefix: str, field: str):
        return sum(v[field] for k, v in by.items() if k == prefix or k.startswith(prefix + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tot(layer, "self_s"), "s")
    m.update({
        "words.kernel.calls": (tot("words.kernel", "calls"), "count"),
        "words.kernel.self_s": (tot("words.kernel", "self_s"), "s"),
        "wordgen.sample.self_s": (tot("wordgen.sample", "self_s"), "s"),
        "wordgen.sample.letters": (tot("wordgen.sample", "value"), "count"),
        "words.witness.self_s": (tot("words.witness", "self_s"), "s"),
        "words.witness.letters": (tot("words.witness", "value"), "count"),
        "words.search.calls": (tot("words.search", "calls"), "count"),
        "words.search.self_s": (tot("words.search", "self_s"), "s"),
        "words.search.found_ratio": (
            ratio(tot("words.search", "value"), tot("words.search", "calls")), "ratio"),
        "words.oracle.self_s": (tot("words.oracle", "self_s"), "s"),
        "words.oracle.words_enumerated": (summary["oracle_enumerated"], "count"),
        "words.oracle.useful_ratio": (
            ratio(summary["oracle_useful"], summary["oracle_enumerated"]), "ratio"),
        "algebra.mul.calls": (tot("algebra.mul", "calls"), "count"),
        "algebra.derivation_apply.calls": (tot("algebra.derivation_apply", "calls"), "count"),
        "algebra.construct.self_s": (tot("algebra.construct", "self_s"), "s"),
        "algebra.derivation_space.self_s": (tot("algebra.derivation_space", "self_s"), "s"),
        "algebra.identity.tuples": (tot("algebra.identity", "value"), "count"),
        "algebra.identity.self_s": (tot("algebra.identity", "self_s"), "s"),
        "orepoly.rewrite.self_s": (tot("orepoly.rewrite", "self_s"), "s"),
        "orepoly.rewrite.terms": (tot("orepoly.rewrite", "value"), "count"),
        "orepoly.evaluate.self_s": (tot("orepoly.evaluate", "self_s"), "s"),
        "orepoly.direct.self_s": (tot("orepoly.direct", "self_s"), "s"),
        "orepoly.power_dim.self_s": (tot("orepoly.power_dim", "self_s"), "s"),
        "orepoly.power_dim.useful_ratio": (
            ratio(tracer.power_dim_useful, tracer.power_dim_attempts), "ratio"),
        "linalg.rref.calls": (tot("linalg.rref", "calls"), "count"),
        "linalg.rref.cells": (tot("linalg.rref", "value"), "count"),
        "linalg.rref.self_s": (tot("linalg.rref", "self_s"), "s"),
        "linalg.saturate.self_s": (tot("linalg.saturate", "self_s"), "s"),
        "radical.char0.self_s": (tot("radical.char0", "self_s"), "s"),
        "radical.stability.self_s": (tot("radical.stability", "self_s"), "s"),
        "cli.examples.self_s": (tot("cli.examples", "self_s"), "s"),
        "trace.spans": (summary["spans"], "count"),
    })
    return m

