"""Physical parameters and Hamiltonian assembly for the driven battery.

The system is N two-level atoms (the battery) in a single-mode cavity (the
charger).  The charger Hamiltonian holds the cavity energy, the collective
coupling 2g(a'+a)J_x, the distance-dependent atomic flip-flop couplings and
a cosine drive on the cavity quadrature.  Everything is expressed in units
of the atomic splitting omega0 (hbar = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from dickeqb.errors import DomainError
from dickeqb import operators as ops
from dickeqb.operators import HilbertDims, SparseOperator, StateVector

# Flip-flop couplings fall off as 1/|i-j|^3 and are dropped beyond this
# many lattice offsets.
COUPLING_CUTOFF = 4

COUPLING_MODES = ("direct", "geometric")


@dataclass(frozen=True)
class ModelParams:
    """All physical knobs of one simulation instance.

    ``N_ph`` defaults to 4N.  That keeps the photon-truncation error of the
    recorded observables below 1e-5 only when coupling and drive are both
    weak: at N=5 over t in [0, 20] the N_ph=20-vs-24 deviation is 4.5e-7 at
    g=0.1, Omega=0.1, but 2.1e-1 at g=0.1, Omega=1.0 and 3.5e-1 at g=0.5,
    Omega=0.1.  The resonant drive (omegad = omegac) keeps pumping the cavity,
    so at g=0.5, Omega=1.0 no cutoff up to 48 converges.  Outside the weak
    corner, check a run with ``analysis.convergence_check``.

    ``n_init`` defaults to N so the cavity starts with exactly enough quanta
    to excite every atom.  ``T`` is the charging window; ``None`` keeps the
    charger switched on for the whole run.

    In ``direct`` coupling mode the nearest-neighbour strength is ``eta``
    and decays as 1/d^3.  In ``geometric`` mode it is derived from the
    radiative parameters (Gamma0, R, alpha_angle, c_light).
    """

    N: int
    g: float = 0.0
    Omega: float = 0.0
    eta: float = 0.0
    omega0: float = 1.0
    omegac: float = 1.0
    omegad: float = 1.0
    N_ph: int | None = None
    n_init: int | None = None
    T: float | None = None
    coupling_mode: str = "direct"
    Gamma0: float = 1.0
    R: float = 1.0
    alpha_angle: float = 0.0
    c_light: float = 1.0

    def __post_init__(self):
        if self.N < 1:
            raise DomainError(f"N must be >= 1, got {self.N}")
        if self.omega0 <= 0 or self.omegac <= 0:
            raise DomainError("omega0 and omegac must be positive")
        if self.photon_cutoff < 0:
            raise DomainError(f"N_ph must be >= 0, got {self.N_ph}")
        if not 0 <= self.initial_photons <= self.photon_cutoff:
            raise DomainError(
                f"n_init={self.initial_photons} outside 0..N_ph={self.photon_cutoff}"
            )
        if self.T is not None and self.T <= 0:
            raise DomainError(f"charging window T must be positive, got {self.T}")
        if self.coupling_mode not in COUPLING_MODES:
            raise DomainError(f"coupling_mode must be one of {COUPLING_MODES}")

    @property
    def photon_cutoff(self) -> int:
        return 4 * self.N if self.N_ph is None else self.N_ph

    @property
    def initial_photons(self) -> int:
        return self.N if self.n_init is None else self.n_init

    @property
    def dims(self) -> HilbertDims:
        return HilbertDims(self.N, self.photon_cutoff)


def dipole_coupling(i: int, j: int, params: ModelParams) -> float:
    """Coupling eta_ij between atoms i and j of the equally spaced chain.

    Zero beyond COUPLING_CUTOFF lattice offsets.  Direct mode scales the
    nearest-neighbour value by 1/|i-j|^3; geometric mode evaluates
    -(3/4) Gamma0 c^3 / (omega0^3 |(i-j)R|^3) * (3 cos^2(alpha) - 1).
    """
    for site in (i, j):
        if not 1 <= site <= params.N:
            raise DomainError(f"site {site} out of range 1..{params.N}")
    if i == j:
        raise DomainError("dipole coupling requires two distinct atoms")
    d = abs(i - j)
    if d > COUPLING_CUTOFF:
        return 0.0
    if params.coupling_mode == "direct":
        return params.eta / d**3
    angular = 3.0 * math.cos(params.alpha_angle) ** 2 - 1.0
    return (
        -0.75
        * params.Gamma0
        * params.c_light**3
        / (params.omega0**3 * (d * params.R) ** 3)
        * angular
    )


def eta_matrix(params: ModelParams) -> np.ndarray:
    """Symmetric N x N matrix of couplings; zero diagonal, zero beyond cutoff."""
    n = params.N
    out = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out[i - 1, j - 1] = out[j - 1, i - 1] = dipole_coupling(i, j, params)
    return out


class SpinTerms(NamedTuple):
    """Real spin-space parts of the Hamiltonians, for one atom count N."""

    jz: sp.csr_matrix
    jx: sp.csr_matrix
    # flip_flops[d - 1] = sum_{|i-j|=d} (s_i^- s_j^+ + s_j^- s_i^+), d = 1..
    # min(COUPLING_CUTOFF, N-1): the couplings depend on |i-j| alone.
    flip_flops: tuple


def _frozen(mat) -> sp.csr_matrix:
    out = sp.csr_matrix(mat.real, copy=True)
    out.sum_duplicates()
    for arr in (out.data, out.indices, out.indptr):
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=16)
def _spin_terms(n_atoms: int) -> SpinTerms:
    """Spin-space J_z, J_x and flip-flop sums, built once per atom count.

    The matrices are shared by every caller, so their arrays are read-only;
    combine them only out of place.
    """
    sites = range(1, n_atoms + 1)
    lower = {i: ops.site_operator(i, "-", n_atoms) for i in sites}
    upper = {i: ops.site_operator(i, "+", n_atoms) for i in sites}

    def collective(axis):
        return 0.5 * sum(ops.site_operator(i, axis, n_atoms) for i in sites)

    def flip_flop(d):
        pairs = range(1, n_atoms + 1 - d)
        return sum(lower[i] @ upper[i + d] + lower[i + d] @ upper[i] for i in pairs)

    return SpinTerms(
        jz=_frozen(collective("z")),
        jx=_frozen(collective("x")),
        flip_flops=tuple(
            _frozen(flip_flop(d)) for d in range(1, min(COUPLING_CUTOFF, n_atoms - 1) + 1)
        ),
    )


@lru_cache(maxsize=16)
def reflection_isometry(n_atoms: int) -> sp.csr_matrix:
    """Real isometry V onto the spin states even under the site reflection.

    The reflection i -> N+1-i maps the spin index s to R s, s with its N
    big-endian site bits reversed.  Column c of V is |s> for a palindrome
    s = R s, or (|s> + |R s>)/sqrt(2) for a pair s < R s, with the columns
    ordered by that representative s; so |g...g> is column 0.  V is
    2^N x (2^N + 2^ceil(N/2))/2, V'V = I and VV' = (I + R)/2.  Every caller
    shares the matrix, so its arrays are read-only.
    """
    states = np.arange(2**n_atoms)
    mirrors = np.zeros_like(states)
    for k in range(n_atoms):
        mirrors |= ((states >> k) & 1) << (n_atoms - 1 - k)
    reps = states[states <= mirrors]
    partners = mirrors[reps]
    paired = reps != partners
    weights = np.where(paired, math.sqrt(0.5), 1.0)
    columns = np.arange(len(reps))
    mat = sp.csr_matrix(
        (
            np.concatenate([weights, weights[paired]]),
            (np.concatenate([reps, partners[paired]]), np.concatenate([columns, columns[paired]])),
        ),
        shape=(len(states), len(reps)),
    )
    return _frozen(mat)


def build_H_battery(params: ModelParams) -> SparseOperator:
    """Battery Hamiltonian omega0 * J_z (tensored with the cavity identity)."""
    mat = ops.spin_to_joint(params.omega0 * _spin_terms(params.N).jz, params.dims)
    return SparseOperator(params.dims, mat, hermitian=True)


def build_H_static(params: ModelParams) -> SparseOperator:
    """Static part of the charger: cavity + collective coupling + flip-flops.

    omega_c a'a + 2g(a'+a)J_x + sum_{i<j} eta_ij (s_i^- s_j^+ + s_j^- s_i^+).
    Each unordered atom pair contributes once, so <eg|H|ge> = eta_12.  The
    flip-flop part is sum_d eta_{1,1+d} F_d over the cached distance sums
    F_d of ``_spin_terms``; the three terms have disjoint supports.
    """
    dims = params.dims
    terms = _spin_terms(dims.n_atoms)
    a = ops.boson_matrix("annihilate", dims.boson_dim)
    quad = a + a.conjugate().T
    number = (a.conjugate().T @ a).tocsr()

    mat = ops.boson_to_joint(params.omegac * number, dims)
    mat = mat + 2.0 * params.g * sp.kron(terms.jx, quad, format="csr")
    flip_flop = sp.csr_matrix((dims.spin_dim, dims.spin_dim))
    for d, f_d in enumerate(terms.flip_flops, start=1):
        coupling = dipole_coupling(1, 1 + d, params)
        if coupling != 0.0:
            flip_flop = flip_flop + coupling * f_d
    if flip_flop.nnz:
        mat = mat + ops.spin_to_joint(flip_flop, dims)
    return SparseOperator(dims, mat, hermitian=True)


def drive_operator(params: ModelParams) -> SparseOperator:
    """Cavity quadrature a' + a on the joint space (the drive couples to it)."""
    a = ops.boson_matrix("annihilate", params.dims.boson_dim)
    return SparseOperator(
        params.dims, ops.boson_to_joint(a + a.conjugate().T, params.dims), hermitian=True
    )


def drive_commutator(params: ModelParams) -> SparseOperator:
    """Commutator [H_b + H_static, a' + a] = omega_c (a' - a) on the joint space.

    Only the cavity energy fails to commute with the drive quadrature, and
    the truncated number operator is exactly diag(0..N_ph), so the identity
    holds on the truncated space too.  The result is anti-Hermitian.
    """
    a = ops.boson_matrix("annihilate", params.dims.boson_dim)
    return SparseOperator(
        params.dims, ops.boson_to_joint(params.omegac * (a.conjugate().T - a), params.dims)
    )


def nested_commutators(params: ModelParams) -> tuple[SparseOperator, SparseOperator]:
    """[H_b + H_static, C] and [a' + a, C] for C = ``drive_commutator``.

    With P = [a, a'] = diag(1, ..., 1, -N_ph) on the truncated Fock space
    the two are omega_c^2 (a' + a) + 4 g omega_c J_x P and 2 omega_c P; the
    cavity energy and the collective coupling are the only parts of H that
    fail to commute with C.  Both are built from the boson factor and J_x,
    never from products of joint-space matrices.
    """
    dims = params.dims
    a = ops.boson_matrix("annihilate", dims.boson_dim)
    quad = a + a.conjugate().T
    ladder = (a @ a.conjugate().T - a.conjugate().T @ a).tocsr()
    jx = _spin_terms(dims.n_atoms).jx
    with_static = ops.boson_to_joint(params.omegac**2 * quad, dims)
    if params.g != 0.0:
        with_static = with_static + 4.0 * params.g * params.omegac * sp.kron(
            jx, ladder, format="csr"
        )
    with_drive = ops.boson_to_joint(2.0 * params.omegac * ladder, dims)
    return SparseOperator(dims, with_static), SparseOperator(dims, with_drive)


def drive_coefficient(t: float, params: ModelParams) -> float:
    """Scalar drive amplitude Omega * cos(omega_d t) at time t."""
    return params.Omega * math.cos(params.omegad * t)


def charger_is_on(t: float, params: ModelParams) -> bool:
    """Charging window indicator: 1 on [0, T], 0 elsewhere (T=None: t >= 0)."""
    if t < 0:
        return False
    return params.T is None or t <= params.T


def hamiltonian_at(t: float, params: ModelParams) -> SparseOperator:
    """Full system Hamiltonian H_b + window(t) * [H_static + drive(t) (a'+a)]."""
    h = build_H_battery(params)
    if charger_is_on(t, params):
        h = h + build_H_static(params)
        c = drive_coefficient(t, params)
        if c != 0.0:
            h = h + c * drive_operator(params)
    return h


def static_hamiltonian(params: ModelParams) -> SparseOperator:
    """Undriven total Hamiltonian H_b + H_static (used by the ground-state solver)."""
    return build_H_battery(params) + build_H_static(params)


def initial_state(params: ModelParams) -> StateVector:
    """All atoms in |g>, cavity in the Fock state |n_init>."""
    dims = params.dims
    amps = np.zeros(dims.total_dim, dtype=complex)
    amps[params.initial_photons] = 1.0  # spin_index 0 block, photon slot n_init
    return StateVector(dims, amps)
