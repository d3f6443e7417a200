"""orelab: exact-arithmetic workbench for differential polynomial rings.

Word combinatorics with computable bounds, finite-rank algebras with
derivations, Ore-extension rewriting and nilpotency pipelines, and
radical/derivation-stability checks.
"""

__version__ = "0.1.0"
kernel_backend = "pure"

__all__ = ["kernel_backend", "__version__"]
