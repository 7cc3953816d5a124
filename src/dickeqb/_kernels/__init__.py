"""Kernel backend selection: compiled Cython core with NumPy/SciPy fallback.

The compiled module is built by ``python setup.py build_ext --inplace`` (or
any pip install); when it is missing the fallback is used transparently.
Set DICKEQB_KERNEL=compiled|fallback to force a backend, e.g. for the
benchmark in benchmarks/bench_kernels.py.
"""

from __future__ import annotations

import os

import numpy as np

from dickeqb.errors import ConfigError, NumericalError
from dickeqb._kernels import fallback

try:
    from dickeqb._kernels import _core
except ImportError:
    _core = None

HAVE_COMPILED = _core is not None

BACKENDS = ("compiled", "fallback")


def default_backend() -> str:
    choice = os.environ.get("DICKEQB_KERNEL", "auto").lower()
    if choice == "auto":
        return "compiled" if HAVE_COMPILED else "fallback"
    if choice not in BACKENDS:
        raise ConfigError(f"DICKEQB_KERNEL must be auto, compiled or fallback, got {choice!r}")
    if choice == "compiled" and not HAVE_COMPILED:
        raise ConfigError("DICKEQB_KERNEL=compiled but the extension is not built")
    return choice


class CsrExpm:
    """Applies exp(M) @ v for CSR matrices on a fixed sparsity pattern.

    The pattern (indptr/indices) is bound once; each call supplies a fresh
    data array, so the propagator can swap Hamiltonian coefficients without
    rebuilding matrices.
    """

    def __init__(self, indptr, indices, dim: int, backend: str | None = None):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int32)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.dim = dim
        self.backend = backend if backend is not None else default_backend()
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown kernel backend {self.backend!r}")
        if self.backend == "compiled":
            if not HAVE_COMPILED:
                raise ConfigError("compiled kernel requested but the extension is not built")
            self._out = np.empty(dim, dtype=np.complex128)
            self._term = np.empty(dim, dtype=np.complex128)
            self._work = np.empty(dim, dtype=np.complex128)
        else:
            self._fallback = fallback.TaylorApplier(self.indptr, self.indices, dim)

    def apply(self, data, v, segments: int = 1, tol: float = 1e-12,
              max_terms: int = 64) -> np.ndarray:
        """exp(M) @ v with M given by ``data`` on the bound pattern."""
        data = np.ascontiguousarray(data, dtype=np.complex128)
        v = np.ascontiguousarray(v, dtype=np.complex128)
        if self.backend == "compiled":
            used = _core.expm_taylor_apply(
                self.indptr, self.indices, data, v,
                self._out, self._term, self._work,
                int(segments), float(tol), int(max_terms),
            )
            result = self._out.copy()
        else:
            result, used = self._fallback.apply(data, v, int(segments), float(tol), int(max_terms))
        if used < 0:
            raise NumericalError(
                f"exponential Taylor series did not converge within {max_terms} terms "
                f"(segments={segments}); split the exponent into more segments "
                "or raise max_terms"
            )
        return result
