"""Pure NumPy/SciPy implementation of the exponential-apply kernel.

Mirrors ``_core.expm_taylor_apply`` term by term, including its stop rule:
a segment ends when the squared norm of the last term is at most tol^2 times
the squared norm of the running result.  Used whenever the compiled
extension is unavailable (or explicitly requested).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class TaylorApplier:
    """exp(M) @ v for CSR matrices sharing one fixed sparsity pattern."""

    def __init__(self, indptr, indices, dim: int):
        self._mat = sp.csr_matrix(
            (np.zeros(len(indices), dtype=np.complex128), indices.copy(), indptr.copy()),
            shape=(dim, dim),
        )

    def apply(self, data, v, segments: int, tol: float, max_terms: int):
        """Return (result, terms_used); terms_used is -1 on non-convergence.

        ``v`` is never written: the first term's sum allocates the result.
        """
        mat = self._mat
        mat.data = data
        tol_sq = tol * tol
        out = v
        used = -1
        for _ in range(segments):
            term = out
            for m in range(1, max_terms + 1):
                term = mat.dot(term)
                term *= 1.0 / (segments * m)
                if m == 1:
                    out = out + term
                else:
                    out += term
                if np.vdot(term, term).real <= tol_sq * np.vdot(out, out).real:
                    used = m
                    break
            else:
                return out, -1
        return out, used
