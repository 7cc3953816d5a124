"""Independent references the tests check the package against.

Every operator here is built Pauli by Pauli: single-site matrices embedded
by Kronecker chains, summed over sites or atom pairs, and tensored with
the cavity identity, in the joint basis of ``dickeqb.operators``
(spin_index * boson_dim + photon_number).  The package builds its spin
terms from the bits of the spin index instead, so agreement between the
two checks both.  The operators are complex CSR matrices, apart from the
real Kronecker-sum references of ``kron_sum_operators``.  ``step_magnus4``
is one Gauss-Magnus-4 step in the full joint space, from the package's
stepper; ``pack`` lays block vectors out in a stepper's padded grid, and
``lift`` maps a reflection-sector state to the full joint basis.
"""

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from dickeqb.dynamics import NORM_DRIFT_LIMIT, _charging_segments, _Stepper
from dickeqb.errors import ContractError, DomainError, NumericalError
from dickeqb.model import COUPLING_CUTOFF, dipole_coupling, full_spin_terms, reflection_isometry
from dickeqb.observables import HERMITIAN_ATOL, _hermitian_defect
from dickeqb.operators import StateVector

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


def collective_spin(axis: str, n_atoms: int) -> sp.csr_matrix:
    """J_axis = (1/2) sum_i sigma_i^axis on the spin space."""
    return 0.5 * sum(site_operator(i, axis, n_atoms) for i in range(1, n_atoms + 1))


def flip_flop(i: int, j: int, n_atoms: int) -> sp.csr_matrix:
    """s_i^- s_j^+ + s_j^- s_i^+ on the spin space."""
    return (site_operator(i, "-", n_atoms) @ site_operator(j, "+", n_atoms)
            + site_operator(j, "-", n_atoms) @ site_operator(i, "+", n_atoms))


def spin_to_joint(spin_mat, dims) -> sp.csr_matrix:
    """Tensor a spin-space matrix with the cavity identity."""
    return sp.kron(spin_mat, sp.identity(dims.boson_dim, format="csr", dtype=complex), format="csr")


def boson_to_joint(boson_mat, dims) -> sp.csr_matrix:
    """Tensor a cavity-space matrix with the spin identity."""
    return sp.kron(sp.identity(dims.spin_dim, format="csr", dtype=complex), boson_mat, format="csr")


def build_pauli(site: int, axis: str, dims) -> sp.csr_matrix:
    """sigma_site^axis acting on one atom, identity elsewhere.

    ``axis`` is one of x, y, z, +, -; the raising and lowering operators are
    not Hermitian.
    """
    return spin_to_joint(site_operator(site, axis, dims.n_atoms), dims)


def build_collective_spin(axis: str, dims) -> sp.csr_matrix:
    """J_axis, tensored with the cavity identity."""
    if axis not in ("x", "y", "z"):
        raise DomainError(f"collective spin axis must be x, y or z, got {axis!r}")
    return spin_to_joint(collective_spin(axis, dims.n_atoms), dims)


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


def build_boson(kind: str, dims) -> sp.csr_matrix:
    """Cavity operator (annihilate / create / number) on the joint space."""
    return boson_to_joint(boson_matrix(kind, dims.boson_dim), dims)


def expectation(state: StateVector, op) -> float:
    """<psi| op |psi> for a Hermitian sparse matrix ``op``; the imaginary
    residue is checked."""
    if op.shape != (state.dims.total_dim,) * 2:
        raise DomainError("state and operator dimensions differ")
    if _hermitian_defect(op) > HERMITIAN_ATOL:
        raise ContractError("expectation requires a Hermitian operator")
    val = np.vdot(state.amplitudes, op.dot(state.amplitudes))
    if abs(val.imag) > IMAG_RESIDUE_LIMIT:
        raise NumericalError(f"imaginary residue {val.imag:.3e} in expectation value")
    return float(val.real)


def partial_trace_spin(state: StateVector) -> np.ndarray:
    """Reduced density matrix of the atomic register (cavity traced out).

    Returns a dense (2^N, 2^N) Hermitian matrix with unit trace.  Thanks to
    the spin-major basis ordering this is a single reshaped Gram product.
    """
    nrm = np.linalg.norm(state.amplitudes)
    if abs(nrm - 1.0) > 1e-8:
        raise ContractError(f"partial trace requires a normalized state, norm={nrm!r}")
    block = state.amplitudes.reshape(state.dims.spin_dim, state.dims.boson_dim)
    rho = block @ block.conj().T
    # Hermitize away rounding asymmetry; the result is exact for exact input.
    return 0.5 * (rho + rho.conj().T)


def kron_spin_terms(n):
    """Reference J_z, J_x and F_1, F_2, ...: sums of ``site_operator``
    Kronecker chains and their products, made real and duplicate-free."""

    def real(mat):
        out = sp.csr_matrix(mat.real, copy=True)
        out.sum_duplicates()
        return out

    flip_flops = [sum(flip_flop(i, i + d, n) for i in range(1, n + 1 - d))
                  for d in range(1, min(COUPLING_CUTOFF, n - 1) + 1)]
    return [real(m) for m in (collective_spin("z", n), collective_spin("x", n), *flip_flops)]


def pair_loop_hamiltonians(params):
    """Reference H_b and H_static: a loop over atom pairs of site operators."""
    n, dims = params.N, params.dims
    pairs = sp.csr_matrix((dims.spin_dim, dims.spin_dim))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pairs = pairs + dipole_coupling(i, j, params) * flip_flop(i, j, n)
    quadrature = build_boson("annihilate", dims) + build_boson("create", dims)
    h_b = params.omega0 * build_collective_spin("z", dims)
    h_static = (params.omegac * build_boson("number", dims)
                + 2.0 * params.g * build_collective_spin("x", dims) @ quadrature
                + spin_to_joint(pairs, dims))
    return h_b, h_static


def pauli_drive_operators(params):
    """Reference a'+a, C = omega_c (a'-a) and the nested commutators
    [H_b + H_static, C] and [a'+a, C], in closed form from
    ``build_collective_spin`` and ``build_boson``, on the joint space."""
    dims, wc = params.dims, params.omegac
    a = build_boson("annihilate", dims)
    a_dag = build_boson("create", dims)
    jx = build_collective_spin("x", dims)
    ladder = a @ a_dag - a_dag @ a
    return (a + a_dag, wc * (a_dag - a),
            wc**2 * (a + a_dag) + 4.0 * params.g * wc * (jx @ ladder), 2.0 * wc * ladder)


def kron_sum_operators(params):
    """Reference H_b, H_static, a'+a and H_b + H_static, by name: each a sum
    of coefficient * sp.kron(spin factor, cavity factor) over
    ``kron_spin_terms`` and ``boson_matrix``, built anew on every call, as
    a real CSR matrix.  The sparse sums drop the entries that cancel
    exactly."""
    dims = params.dims
    jz, jx, *flip_flops = kron_spin_terms(params.N)
    spin_eye = sp.identity(dims.spin_dim, format="csr")
    cavity_eye = sp.identity(dims.boson_dim, format="csr")
    quadrature = (boson_matrix("annihilate", dims.boson_dim)
                  + boson_matrix("create", dims.boson_dim)).real
    battery = [(params.omega0, jz, cavity_eye)]
    static = [(params.omegac, spin_eye, boson_matrix("number", dims.boson_dim).real),
              (2.0 * params.g, jx, quadrature),
              *((dipole_coupling(1, 1 + d, params), f_d, cavity_eye)
                for d, f_d in enumerate(flip_flops, start=1))]

    def total(terms):
        mat = sp.csr_matrix((dims.total_dim, dims.total_dim))
        for coefficient, spin, cavity in terms:
            mat = mat + coefficient * sp.kron(spin, cavity, format="csr")
        return mat

    return {"H_battery": total(battery), "H_static": total(static),
            "drive": total([(1.0, spin_eye, quadrature)]), "static": total(battery + static)}


@lru_cache(maxsize=4)
def _full_space_stepper(params) -> _Stepper:
    return _Stepper(params, full_spin_terms)


def step_magnus4(state: StateVector, t: float, dt: float, params) -> StateVector:
    """One 4th-order Gauss-Magnus step (a single exponential per charging
    piece) of the switched Hamiltonian, in the full joint space, so it is
    exact on any state, reflection-even or not."""
    stepper = _full_space_stepper(params)
    amps = state.amplitudes
    for a, b, on in _charging_segments(t, t + dt, params):
        amps = stepper.step(amps, a, b - a, on)
    return StateVector(state.dims, amps, norm_atol=NORM_DRIFT_LIMIT)


def pack(stepper: _Stepper, parts) -> np.ndarray:
    """A stepper's amplitudes from one vector per block, each in its block's
    own coordinates spin * (N_ph + 1) + n; ``stepper.unpack`` inverted."""
    amps = np.zeros(stepper.blocks[-1].stop, dtype=np.complex128)
    for block, boson_dim, part in zip(stepper.blocks, stepper.boson_dims, parts):
        amps[block].reshape(-1, stepper.width)[:, :boson_dim] = np.reshape(part, (-1, boson_dim))
    return amps


def lift(params, amps) -> np.ndarray:
    """A reflection-even sector state, laid out sector spin index * (N_ph + 1)
    + n as ``propagate``'s final amplitudes are, on the full joint basis."""
    return (reflection_isometry(params.N) @ np.reshape(amps, (-1, params.dims.boson_dim))).ravel()
