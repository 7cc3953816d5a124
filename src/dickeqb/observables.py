"""Figures of merit: stored energy, charging power, fluctuation, magnetization.

Every battery figure of merit is a function of the J_z moments <J_z> and
<J_z^2>: E_b = omega0 (<J_z> + N/2), P_b = E_b / t and dE_b the growth of
omega0 sqrt(<J_z^2> - <J_z>^2).  So ``stored_energy`` and
``energy_fluctuation`` take ``JzMoments``, which ``jz_moments`` gives for a
state and the propagation recorder reads off |x|^2 with the J_z diagonal
of the space it steps in.  J_z is diagonal in every space, so the model's
bit-built spin terms hold it as that diagonal, ``SpinTerms.jz``.  The
ground-state solver for the (eta, g) phase diagram lives here as well.  It
takes the Hamiltonian as a matrix, checks once that it is Hermitian and
solves it in its own dtype: real symmetric for the model's real CSR
matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from dickeqb.errors import ContractError, DomainError, NumericalError
from dickeqb.model import full_spin_terms
from dickeqb.operators import HilbertDims, StateVector

HERMITIAN_ATOL = 1e-12
VARIANCE_FLOOR = -1e-10
DEGENERACY_GAP = 1e-10
RESIDUAL_LIMIT = 1e-8

# Above this dimension the solver tries ARPACK first; below it dense
# diagonalization is both faster and unconditionally robust.
DENSE_SOLVER_DIM = 32
DENSE_FALLBACK_MAX_DIM = 4096


class JzMoments(NamedTuple):
    """<J_z> and <J_z^2> of a state, the moments every battery figure of
    merit is a function of."""

    mean: float
    square: float


def jz_moments(state: StateVector) -> JzMoments:
    """<J_z> and <J_z^2> on the joint state."""
    diag = np.repeat(full_spin_terms(state.dims.n_atoms).jz, state.dims.boson_dim)
    prob = np.abs(state.amplitudes) ** 2
    return JzMoments(float(diag @ prob), float((diag * diag) @ prob))


def jz_mean(state: StateVector) -> float:
    """<J_z> on the joint state."""
    return jz_moments(state).mean


def stored_energy(moments: JzMoments, params) -> float:
    """Energy gained by the battery relative to the all-ground start, from
    the state's J_z moments.

    Equals omega0 * (<J_z>_t + N/2); bounded by [0, N*omega0] up to rounding.
    """
    return params.omega0 * (moments.mean + params.N / 2.0)


def charging_power(E_b: float, t: float) -> float:
    """Average charging power E_b / t, defined as 0 at t = 0."""
    if t < 0:
        raise ContractError(f"charging power needs t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    return E_b / t


def _hb_std(moments: JzMoments, omega0: float) -> float:
    var = omega0**2 * (moments.square - moments.mean * moments.mean)
    if not var >= VARIANCE_FLOOR:
        raise NumericalError(f"negative battery-energy variance {var:.3e}")
    return math.sqrt(max(var, 0.0))


def energy_fluctuation(moments_t: JzMoments, moments_0: JzMoments, params) -> float:
    """Growth of the battery-energy standard deviation since t = 0, from the
    J_z moments at t and at t = 0.

    Computed as sqrt(Var(H_b))_t - sqrt(Var(H_b))_0 with H_b = omega0 J_z.
    (At omega0 = 1 this coincides with the conventional definition that
    carries an extra overall omega0 factor.)  Raises NumericalError when a
    variance is below VARIANCE_FLOOR.
    """
    return _hb_std(moments_t, params.omega0) - _hb_std(moments_0, params.omega0)


def magnetization(state: StateVector) -> float:
    """<J_z> / (N/2): -1 all ground, 0 equal population, +1 all excited."""
    return jz_mean(state) / (state.dims.n_atoms / 2.0)


@dataclass(frozen=True)
class GroundStateResult:
    """Lowest eigenpair of the static Hamiltonian plus the order parameter."""

    energy: float
    state: StateVector
    magnetization: float
    gap: float
    degenerate: bool


def _dense_lowest_pair(mat) -> tuple[np.ndarray, np.ndarray]:
    # Imported here: only ground_state reaches this, and scipy.linalg adds
    # ~8 MB of resident memory and ~40 ms to a process that imports it.
    import scipy.linalg

    dense = mat.toarray()
    vals, vecs = scipy.linalg.eigh(dense, subset_by_index=[0, min(1, dense.shape[0] - 1)])
    return vals, vecs


def _hermitian_defect(mat) -> float:
    """Largest |M - M'| entry of a CSR matrix M.

    When M is canonical and M' has its pattern, as for every operator the
    model builds, the data of the two are compared position by position;
    the sparse subtraction is the fallback for any other matrix.
    """
    adjoint = mat.transpose().tocsr()
    if (mat.has_canonical_format and np.array_equal(adjoint.indptr, mat.indptr)
            and np.array_equal(adjoint.indices, mat.indices)):
        defect = mat.data - adjoint.data.conj()
    else:
        defect = (mat - mat.getH()).data
    return float(np.abs(defect).max()) if len(defect) else 0.0


def ground_state(H, dims: HilbertDims) -> GroundStateResult:
    """Lowest eigenpair of the undriven Hamiltonian ``H``, a 2-D array or
    sparse matrix on the joint space of ``dims``.

    ``H`` must be finite and Hermitian within HERMITIAN_ATOL (ContractError)
    and of shape (dims.total_dim, dims.total_dim) (DomainError).  It is
    solved in its own dtype, integers and single precision promoted to
    double: the model's real Hamiltonians as real symmetric matrices with a
    real start vector, a complex Hermitian one on the complex solve.  Dense
    diagonalization up to DENSE_SOLVER_DIM; above it ARPACK, with a dense
    fallback (dimensions up to DENSE_FALLBACK_MAX_DIM) when ARPACK does not
    converge.  The ARPACK start vector is fixed so repeated runs are bitwise
    reproducible.  It is the ramp 1 + k/n over the basis index k,
    normalised, which is not symmetric: the model's H commutes exactly with
    the site reflection, and a Krylov space stays in the symmetry sectors of
    its start vector, so a reflection-even start such as the uniform vector
    reaches odd eigenstates only through rounding (at N = 2 not at all) and
    can return a wrong ground state or gap.
    """
    # Imported here: scipy.sparse.linalg brings scipy.linalg with it, ~40 ms
    # and ~8 MB that no propagation run needs.
    import scipy.sparse.linalg as spla

    if not (sp.issparse(H) or isinstance(H, np.ndarray)) or H.ndim != 2:
        raise ContractError(
            f"ground_state needs a 2-D array or sparse matrix, got {type(H).__name__}")
    n = dims.total_dim
    if H.shape != (n, n):
        raise DomainError(f"matrix shape {H.shape} does not match total_dim {n}")
    mat = sp.csr_matrix(H, dtype=np.result_type(H.dtype, np.float64))
    if not np.isfinite(mat.data).all():
        raise ContractError("ground_state needs a finite matrix; it holds a NaN or inf entry")
    worst = _hermitian_defect(mat)
    if worst > HERMITIAN_ATOL:
        raise ContractError(f"ground_state needs a Hermitian matrix; it deviates by {worst:.3e}")

    vals = vecs = None
    if n > DENSE_SOLVER_DIM:
        v0 = 1.0 + np.arange(n, dtype=mat.dtype) / n
        v0 /= np.linalg.norm(v0)
        k = min(2, n - 1)
        try:
            # ARPACK asks for one vector at a time; handing it the matrix's
            # 1-D product skips SciPy's one-column multivector path.
            op = spla.LinearOperator(mat.shape, matvec=mat.dot, dtype=mat.dtype)
            vals, vecs = spla.eigsh(op, k=k, which="SA", v0=v0, maxiter=50 * n)
            order = np.argsort(vals)
            vals, vecs = vals[order], vecs[:, order]
        except (spla.ArpackNoConvergence, spla.ArpackError) as exc:
            if n > DENSE_FALLBACK_MAX_DIM:
                raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    if vals is None:
        vals, vecs = _dense_lowest_pair(mat)

    energy = float(vals[0])
    vec = np.ascontiguousarray(vecs[:, 0])
    vec = vec / np.linalg.norm(vec)
    residual = float(np.linalg.norm(mat.dot(vec) - energy * vec))
    if not residual <= RESIDUAL_LIMIT:  # a NaN residual fails too
        raise NumericalError(f"ground-state residual {residual:.3e} exceeds {RESIDUAL_LIMIT}")
    gap = float(vals[1] - vals[0]) if len(vals) > 1 else float("inf")
    state = StateVector(dims, vec)
    return GroundStateResult(
        energy=energy,
        state=state,
        magnetization=magnetization(state),
        gap=gap,
        degenerate=gap < DEGENERACY_GAP,
    )
