"""Joint spin-boson Hilbert space: dimensions, sparse operators, states.

Basis convention (part of the external contract, e.g. for CSV state dumps):
the joint index is ``spin_index * boson_dim + photon_number``.  The spin
index is the big-endian bit string over sites 1..N, bit value 1 = excited
|e>, bit value 0 = ground |g>; site 1 owns the most significant bit.  With
this ordering the partial trace over the cavity is a contiguous-block sum.
Operators and states live in the full joint space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from dickeqb.errors import ContractError, DomainError, NumericalError

HERMITIAN_ATOL = 1e-12
NORM_ATOL = 1e-10
IMAG_RESIDUE_LIMIT = 1e-8

# Single-site matrices in the (|g>, |e>) basis.  sigma_z is diag(-1, +1) so
# that the all-ground register has J_z = -N/2.
PAULI_2 = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
    "z": np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex),
    "+": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    "-": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
}


@dataclass(frozen=True)
class HilbertDims:
    """Sizes of the joint Hilbert space of N two-level atoms and one mode."""

    n_atoms: int
    n_photon_max: int

    def __post_init__(self):
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


def linear_keys(mat) -> np.ndarray:
    """Row-major linear positions row * n_cols + col (int64) of the stored
    entries of a CSR matrix, in storage order; sorted for sorted indices."""
    rows = np.repeat(np.arange(mat.shape[0], dtype=np.int64), np.diff(mat.indptr))
    return rows * mat.shape[1] + mat.indices


def union_keys(*keys: np.ndarray) -> np.ndarray:
    """Sorted distinct union of linear-position arrays.  A stable sort
    merges the sorted runs of CSR keys in near-linear time; np.unique
    takes tens of times longer on them."""
    merged = np.sort(np.concatenate(keys), kind="stable")
    first = np.ones(len(merged), dtype=bool)
    first[1:] = merged[1:] != merged[:-1]
    return merged[first]


def pattern_from_keys(keys: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 indptr and indices of the dim x dim CSR pattern whose entries
    sit at the sorted, distinct row-major linear positions ``keys``."""
    indptr = np.searchsorted(keys, np.arange(dim + 1, dtype=np.int64) * dim)
    return indptr.astype(np.int32), (keys % dim).astype(np.int32)


def site_operator(site: int, axis: str, n_atoms: int) -> sp.csr_matrix:
    """Single-site Pauli matrix embedded in the 2^N spin space (no boson factor)."""
    if axis not in PAULI_2:
        raise DomainError(f"unknown Pauli axis {axis!r}")
    if not 1 <= site <= n_atoms:
        raise DomainError(f"site {site} out of range 1..{n_atoms}")
    left = sp.identity(2 ** (site - 1), format="csr", dtype=complex)
    right = sp.identity(2 ** (n_atoms - site), format="csr", dtype=complex)
    core = sp.csr_matrix(PAULI_2[axis])
    return sp.kron(sp.kron(left, core, format="csr"), right, format="csr")


def spin_to_joint(spin_mat, dims: HilbertDims) -> sp.csr_matrix:
    """Tensor a spin-space matrix with the cavity identity."""
    return sp.kron(spin_mat, sp.identity(dims.boson_dim, format="csr", dtype=complex), format="csr")


def boson_to_joint(boson_mat, dims: HilbertDims) -> sp.csr_matrix:
    """Tensor a cavity-space matrix with the spin identity."""
    return sp.kron(sp.identity(dims.spin_dim, format="csr", dtype=complex), boson_mat, format="csr")


def build_pauli(site: int, axis: str, dims: HilbertDims) -> SparseOperator:
    """sigma_site^axis acting on one atom, identity elsewhere.

    ``axis`` is one of x, y, z, +, -.  Raising/lowering operators are not
    Hermitian and are tagged accordingly.
    """
    mat = spin_to_joint(site_operator(site, axis, dims.n_atoms), dims)
    return SparseOperator(dims, mat, hermitian=axis in ("x", "y", "z"))


def build_collective_spin(axis: str, dims: HilbertDims) -> SparseOperator:
    """J_axis = (1/2) sum_i sigma_i^axis, tensored with the cavity identity."""
    if axis not in ("x", "y", "z"):
        raise DomainError(f"collective spin axis must be x, y or z, got {axis!r}")
    total = sum(site_operator(i, axis, dims.n_atoms) for i in range(1, dims.n_atoms + 1))
    return SparseOperator(dims, spin_to_joint(0.5 * total, dims), hermitian=True)


def boson_matrix(kind: str, boson_dim: int) -> sp.csr_matrix:
    """Truncated ladder/number matrix on the bare Fock space 0..N_ph.

    Hard cutoff: the creation operator annihilates the top Fock state, so
    every operator stays inside the truncated space.
    """
    n = np.arange(1, boson_dim)
    a = sp.csr_matrix(
        (np.sqrt(n, dtype=float), (n - 1, n)), shape=(boson_dim, boson_dim), dtype=complex
    )
    if kind == "annihilate":
        return a
    if kind == "create":
        return a.conjugate().T.tocsr()
    if kind == "number":
        return (a.conjugate().T @ a).tocsr()
    raise DomainError(f"unknown boson operator kind {kind!r}")


def build_boson(kind: str, dims: HilbertDims) -> SparseOperator:
    """Cavity operator (annihilate / create / number) on the joint space."""
    mat = boson_to_joint(boson_matrix(kind, dims.boson_dim), dims)
    return SparseOperator(dims, mat, hermitian=kind == "number")


def expectation(state: StateVector, op: SparseOperator) -> float:
    """<psi| op |psi> for a Hermitian operator; the imaginary residue is checked."""
    if state.dims != op.dims:
        raise DomainError("state and operator dimensions differ")
    if not op.hermitian:
        raise ContractError("expectation requires an operator tagged Hermitian")
    val = np.vdot(state.amplitudes, op.mat.dot(state.amplitudes))
    if abs(val.imag) > IMAG_RESIDUE_LIMIT:
        raise NumericalError(f"imaginary residue {val.imag:.3e} in expectation value")
    return float(val.real)


def partial_trace_spin(state: StateVector) -> np.ndarray:
    """Reduced density matrix of the atomic register (cavity traced out).

    Returns a dense (2^N, 2^N) Hermitian matrix with unit trace.  Thanks to
    the spin-major basis ordering this is a single reshaped Gram product.
    """
    nrm = state.norm()
    if abs(nrm - 1.0) > 1e-8:
        raise ContractError(f"partial trace requires a normalized state, norm={nrm!r}")
    block = state.amplitudes.reshape(state.dims.spin_dim, state.dims.boson_dim)
    rho = block @ block.conj().T
    # Hermitize away rounding asymmetry; the result is exact for exact input.
    return 0.5 * (rho + rho.conj().T)
