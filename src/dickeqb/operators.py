"""Joint spin-boson Hilbert space: dimensions, sparse operators, states.

Basis convention (part of the external contract, e.g. for CSV state dumps):
the joint index is ``spin_index * boson_dim + photon_number``.  The spin
index is the big-endian bit string over sites 1..N, bit value 1 = excited
|e>, bit value 0 = ground |g>; site 1 owns the most significant bit.  With
this ordering a joint state is a row-major (spin, Fock) array, the layout
the stepper and the recorder work on.  Operators and states live in the
full joint space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from dickeqb.errors import ContractError, DomainError

HERMITIAN_ATOL = 1e-12
NORM_ATOL = 1e-10


def require_int(name: str, value) -> None:
    """Raise DomainError unless ``value`` is a Python or NumPy integer.  A
    bool is rejected, although Python counts it as one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class HilbertDims:
    """Sizes of the joint Hilbert space of N two-level atoms and one mode."""

    n_atoms: int
    n_photon_max: int

    def __post_init__(self):
        require_int("n_atoms", self.n_atoms)
        require_int("n_photon_max", self.n_photon_max)
        if self.n_atoms < 1:
            raise DomainError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.n_photon_max < 0:
            raise DomainError(f"n_photon_max must be >= 0, got {self.n_photon_max}")

    @property
    def spin_dim(self) -> int:
        return 2**self.n_atoms

    @property
    def boson_dim(self) -> int:
        return self.n_photon_max + 1

    @property
    def total_dim(self) -> int:
        return self.spin_dim * self.boson_dim


def _hermitian_defect(mat) -> float:
    """Largest |M - M'| entry of a canonical CSR matrix M.

    When M' has M's pattern, as it does for every operator the model
    builds, the data of the two are compared position by position; the
    sparse subtraction is the fallback for any other pattern.
    """
    adjoint = mat.transpose().tocsr()
    if np.array_equal(adjoint.indptr, mat.indptr) and np.array_equal(adjoint.indices, mat.indices):
        defect = mat.data - adjoint.data.conj()
    else:
        defect = (mat - mat.getH()).data
    return float(np.abs(defect).max()) if len(defect) else 0.0


class SparseOperator:
    """Complex sparse matrix on the joint space, tagged with its dimensions.

    Treated as immutable after construction; safe to share across workers.
    When ``hermitian=True`` the matrix is verified entrywise at construction.
    """

    __slots__ = ("dims", "mat", "hermitian")

    def __init__(self, dims: HilbertDims, mat, hermitian: bool = False):
        mat = sp.csr_matrix(mat, dtype=np.complex128)
        dim = dims.total_dim
        if mat.shape != (dim, dim):
            raise DomainError(f"matrix shape {mat.shape} does not match total_dim {dim}")
        mat.sum_duplicates()
        mat.sort_indices()
        if hermitian:
            worst = _hermitian_defect(mat)
            if worst > HERMITIAN_ATOL:
                raise ContractError(
                    f"operator tagged Hermitian deviates by {worst:.3e}"
                )
        self.dims = dims
        self.mat = mat
        self.hermitian = hermitian

    @property
    def nnz(self) -> int:
        return self.mat.nnz

    def entry(self, row: int, col: int) -> complex:
        return complex(self.mat[row, col])

    def to_dense(self) -> np.ndarray:
        return self.mat.toarray()


class StateVector:
    """Normalized complex amplitude vector over the joint basis."""

    __slots__ = ("dims", "amplitudes")

    def __init__(self, dims: HilbertDims, amplitudes, norm_atol: float = NORM_ATOL):
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (dims.total_dim,):
            raise DomainError(
                f"amplitude vector length {amps.shape} does not match "
                f"total_dim {dims.total_dim}"
            )
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > norm_atol:
            raise ContractError(f"state norm {nrm!r} deviates from 1 beyond {norm_atol}")
        self.dims = dims
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

