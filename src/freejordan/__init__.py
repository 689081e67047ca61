"""Exact computations with free Jordan algebras.

The two halves of the library check each other: a lambda-ring recursion
predicts the sl2 x GL(V) character of the free Jordan algebra degree by
degree, while an identity-consequence rank method computes the actual
multilinear module structure. A truncated Laurent series predictor, the
two-generator special realization, and homology of the associated
Tits-Allison-Gao Lie algebras complete the toolkit. All arithmetic is exact
(integers, rationals, certified modular ranks), with no floating-point
arithmetic anywhere in a result: the modular kernel multiplies residues in
float64 only where every intermediate value is an integer below 2**53.

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is already
set, so that numpy's OpenBLAS runs the kernel's small matmuls on one
thread; the package's own parallelism is jord_module(workers=).
"""

import os

# before any submodule imports numpy, which reads it once when loaded
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
