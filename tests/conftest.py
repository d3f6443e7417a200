"""Shared helpers: random elements, random Leibniz-valid derivations,
random exact basis changes of the catalog algebras, and CLI subprocesses."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from orelab.algebra import Algebra, Derivation, derivation_space, verify_leibniz
from orelab.linalg import rref
from orelab.rings import QQ


def random_element(A: Algebra, rng: random.Random, span: int = 3):
    return tuple(A.ring.from_int(rng.randint(-span, span)) for _ in range(A.rank))


def random_derivation(A: Algebra, rng: random.Random, span: int = 3) -> Derivation:
    """Random exact combination of a derivation-space basis; always valid."""
    basis = derivation_space(A)
    r = A.rank
    mat = [[A.ring.zero] * r for _ in range(r)]
    for B in basis:
        c = A.ring.from_int(rng.randint(-span, span))
        if A.ring.is_zero(c):
            continue
        for i in range(r):
            for j in range(r):
                mat[i][j] = A.ring.add(mat[i][j], A.ring.mul(c, B[i][j]))
    return verify_leibniz(A, tuple(tuple(row) for row in mat))


def _invert(P, ring):
    n = len(P)
    aug = [list(P[i]) + [ring.one if j == i else ring.zero for j in range(n)]
           for i in range(n)]
    red = rref(aug, ring)
    if len(red) != n or any(ring.is_zero(red[i][i]) for i in range(n)):
        return None
    return [row[n:] for row in red]


def random_conjugate(A: Algebra, rng: random.Random) -> Algebra:
    """Same algebra in a random exact basis; associativity is preserved
    and re-checked by the constructor."""
    assert A.ring == QQ
    r = A.rank
    while True:
        P = [[QQ.from_int(rng.randint(-2, 2)) for _ in range(r)] for _ in range(r)]
        for i in range(r):
            P[i][i] = QQ.add(P[i][i], QQ.one)
        Pinv = _invert(P, QQ)
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
    return Algebra(QQ, r, None, table)


# upper-triangular 2x2 matrices with the inner derivation by e11
UPPER2X2 = {
    "coeff_ring": "rationals",
    "rank": 3,
    "basis_names": ["e11", "e12", "e22"],
    "structure_constants": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 2, 1, "1"], [2, 2, 2, "1"]],
    "derivations": {"inner_e11": [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]},
}


def truncated_ideal(n: int, ring=QQ) -> Algebra:
    """t*ring[t]/(t^n): basis t, ..., t^(n-1), so rank n - 1 and nilpotent
    of index exactly n."""
    table = {
        (i, j): {i + j + 1: ring.one}
        for i in range(n - 1) for j in range(n - 1) if i + j + 2 < n
    }
    names = tuple("t" if i == 1 else f"t^{i}" for i in range(1, n))
    return Algebra(ring, n - 1, names, table)


SRC = Path(__file__).resolve().parent.parent / "src"


def run_orelab(*args, cwd=None, timeout=120):
    """`python -m orelab args` in a subprocess that imports this checkout's
    src/ (pytest's own pythonpath setting does not reach subprocesses)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "orelab", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=timeout, env=env)


@pytest.fixture
def rng():
    return random.Random(20260808)
