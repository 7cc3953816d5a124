"""Physical parameters and Hamiltonian assembly for the driven battery.

The system is N two-level atoms (the battery) in a single-mode cavity (the
charger).  The charger Hamiltonian holds the cavity energy, the collective
coupling 2g(a'+a)J_x, the distance-dependent atomic flip-flop couplings and
a cosine drive on the cavity quadrature.  Everything is expressed in units
of the atomic splitting omega0 (hbar = 1).

Every operator below is assembled in the full joint space, the same way,
as a sum of terms spin factor x cavity factor: the spin factors J_z, J_x
and the flip-flop distance sums F_d of ``full_spin_terms`` and the
identity; the cavity factors I, a'a and a'+a.  The spin factors are written
from the bits of the spin index, with no site-operator Kronecker chain:
popcounts on the diagonal of J_z, single-bit flips for J_x, and two-bit
flips of unequal pair bits for F_d.  Each term's Kronecker product is
built once per (N, N_ph) and cached read-only, so repeated assemblies at
one (N, N_ph), such as a phase diagram's points, build no Kronecker
product; an operator is its terms' scaled entries, summed into a new real
CSR matrix in canonical form, symmetric by construction.  A spin space is
the cached builder N -> SpinTerms of its three spin factors, J_z as its
diagonal: ``full_spin_terms``, or ``even_spin_terms`` for the
reflection-even sector, which has no assembled operator; a sector state
goes back to the full basis through ``reflection_isometry``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from dickeqb.errors import DomainError
from dickeqb.operators import HilbertDims, StateVector, require_float_fields, require_int

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
        require_float_fields(self)
        require_int("N", self.N)
        require_int("N_ph", self.photon_cutoff)
        require_int("n_init", self.initial_photons)
        if self.N < 1:
            raise DomainError(f"N must be >= 1, got {self.N}")
        if self.omega0 <= 0 or self.omegac <= 0:
            raise DomainError("omega0 and omegac must be positive")
        if self.R <= 0 or self.c_light <= 0:
            raise DomainError(
                f"R and c_light must be positive, got R={self.R} c_light={self.c_light}"
            )
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


class SpinTerms(NamedTuple):
    """Real spin-space parts of the Hamiltonians, for one atom count N, in
    one space: everything a stepper or a recorder needs to know of it.

    J_z is diagonal in every space, so ``jz`` is its diagonal, a 1-D float64
    array; ``jx`` and the flip-flop sums are CSR matrices.  Every space puts
    |g...g> at spin index 0.  All arrays are shared and read-only.
    """

    jz: np.ndarray
    jx: sp.csr_matrix
    # flip_flops[d - 1] = sum_{|i-j|=d} (s_i^- s_j^+ + s_j^- s_i^+), d = 1..
    # min(COUPLING_CUTOFF, N-1): the couplings depend on |i-j| alone.
    flip_flops: tuple


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _frozen(mat) -> sp.csr_matrix:
    out = sp.csr_matrix(mat.real, copy=True)
    out.sum_duplicates()
    for arr in (out.data, out.indices, out.indptr):
        _read_only(arr)
    return out


@lru_cache(maxsize=16)
def full_spin_terms(n_atoms: int) -> SpinTerms:
    """Spin-space J_z, J_x and flip-flop sums, built once per atom count
    from the bits of the spin index.

    Site i owns bit 2^(N-i) of the spin index s (see ``operators``).  J_z's
    diagonal is popcount(s) - N/2; J_x holds 1/2 at (s, s ^ 2^(N-i)) for
    every site i; F_d holds 1 at (s, s ^ (2^(N-i) | 2^(N-i-d))) for every
    pair (i, i+d) whose two bits differ in s.  Those are exactly the
    entries, with the same values, of the sums of single-site Pauli
    Kronecker chains and their products that they stand for (the tests
    build those sums as the reference).  The arrays are shared by every
    caller, so they are read-only; combine them only out of place.
    """
    dim = 2**n_atoms
    states = np.arange(dim, dtype=np.int64)
    site_bits = np.int64(1) << np.arange(n_atoms - 1, -1, -1, dtype=np.int64)

    def flips(masks, keep, value):
        """Read-only CSR matrix with ``value`` at (s, s ^ mask) for every s
        and mask where ``keep`` holds."""
        rows = np.broadcast_to(states[:, None], keep.shape)[keep]
        cols = (states[:, None] ^ masks)[keep]
        return _frozen(sp.coo_matrix((np.full(rows.shape, value), (rows, cols)), shape=(dim, dim)))

    def flip_flop(d):
        masks = site_bits[:-d] | site_bits[d:]
        return flips(masks, np.bitwise_count(states[:, None] & masks) == 1, 1.0)

    return SpinTerms(
        jz=_read_only(np.bitwise_count(states) - 0.5 * n_atoms),
        jx=flips(site_bits, np.ones((dim, n_atoms), dtype=bool), 0.5),
        flip_flops=tuple(flip_flop(d) for d in range(1, min(COUPLING_CUTOFF, n_atoms - 1) + 1)),
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


def even_sector_dim(n_atoms: int) -> int:
    """Spin dimension of the reflection-even sector, the column count of
    ``reflection_isometry``, without building it: one state per palindrome
    (2^ceil(N/2) of them) and one per mirror pair."""
    return (2**n_atoms + 2 ** ((n_atoms + 1) // 2)) // 2


@lru_cache(maxsize=16)
def even_spin_terms(n_atoms: int) -> SpinTerms:
    """V' S V for every spin factor S of ``full_spin_terms``, V =
    ``reflection_isometry``: the spin terms on the reflection-even sector,
    read-only like them.  V maps a sector state back to the full basis.

    Exact because every S commutes with the site reflection (the couplings
    depend on |i-j| alone).  V' J_z V is diagonal, as J_z has the same
    value on both states of a mirror pair; ``jz`` is its diagonal, which
    differs from the popcount's by rounding (at most 8.9e-16 up to N = 12).
    """
    v = reflection_isometry(n_atoms)
    full = full_spin_terms(n_atoms)

    def restrict(mat):
        return _frozen(v.T @ mat @ v)

    return SpinTerms(
        jz=_read_only(restrict(sp.diags(full.jz)).diagonal()),
        jx=restrict(full.jx),
        flip_flops=tuple(restrict(f_d) for f_d in full.flip_flops),
    )


@lru_cache(maxsize=8)
def _kron_terms(n_atoms: int, n_photon_max: int) -> dict:
    """The terms of one (N, N_ph), built once: each kron(spin factor, cavity
    factor) as a COO matrix, keyed by name.  The spin factors are those of
    ``full_spin_terms`` and the identity; the cavity factors, on the Fock
    space 0..N_ph, are I, a'a and a'+a, with a hard cutoff: a' annihilates
    the top Fock state.  Every caller shares the terms, so their arrays are
    read-only."""
    spin = full_spin_terms(n_atoms)
    n = np.arange(1, n_photon_max + 1)
    a = sp.csr_matrix((np.sqrt(n, dtype=float), (n - 1, n)), shape=(n_photon_max + 1,) * 2)
    spin_eye, cavity_eye = sp.identity(2**n_atoms), sp.identity(n_photon_max + 1)
    quadrature = a + a.T
    # The diagonal J_z's COO form, which sp.kron takes, drops its exact zeros.
    factors = {"Jz": (sp.diags(spin.jz), cavity_eye), "a'a": (spin_eye, a.T @ a),
               "Jx(a'+a)": (spin.jx, quadrature), "a'+a": (spin_eye, quadrature)}
    factors.update((f"F{d}", (f_d, cavity_eye)) for d, f_d in enumerate(spin.flip_flops, start=1))
    terms = {key: sp.kron(*pair, format="coo") for key, pair in factors.items()}
    for term in terms.values():
        for arr in (term.data, term.row, term.col):
            _read_only(arr)
    return terms


def _assemble(params: ModelParams, coefficients) -> sp.csr_matrix:
    """The real symmetric operator sum of coefficient * term over
    ``coefficients``, a list of (term name, coefficient) pairs: the terms'
    scaled entries, converted to CSR at once, which sums the entries that
    terms share and sorts each row, with the exact zeros dropped.  The
    matrix shares no array with the terms."""
    dim = params.dims.total_dim
    terms = _kron_terms(params.N, params.photon_cutoff)
    used = [(terms[key], coefficient) for key, coefficient in coefficients if coefficient != 0.0]
    data = np.concatenate([coefficient * term.data for term, coefficient in used])
    rows = np.concatenate([term.row for term, _ in used])
    cols = np.concatenate([term.col for term, _ in used])
    mat = sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))
    mat.eliminate_zeros()
    return mat


def _static_terms(params: ModelParams) -> list:
    """(term, coefficient) pairs of H_static."""
    flip_flops = [(f"F{d}", dipole_coupling(1, 1 + d, params))
                  for d in range(1, min(COUPLING_CUTOFF, params.N - 1) + 1)]
    return [("a'a", params.omegac), ("Jx(a'+a)", 2.0 * params.g), *flip_flops]


def build_H_battery(params: ModelParams) -> sp.csr_matrix:
    """Battery Hamiltonian omega0 * J_z (tensored with the cavity identity)."""
    return _assemble(params, [("Jz", params.omega0)])


def build_H_static(params: ModelParams) -> sp.csr_matrix:
    """Static part of the charger: cavity + collective coupling + flip-flops.

    omega_c a'a + 2g(a'+a)J_x + sum_{i<j} eta_ij (s_i^- s_j^+ + s_j^- s_i^+).
    Each unordered atom pair contributes once, so <eg|H|ge> = eta_12.  The
    flip-flop part is sum_d eta_{1,1+d} F_d over the cached distance sums
    F_d of ``full_spin_terms``; the three terms have disjoint supports.
    """
    return _assemble(params, _static_terms(params))


def drive_operator(params: ModelParams) -> sp.csr_matrix:
    """Cavity quadrature a' + a (the drive couples to it)."""
    return _assemble(params, [("a'+a", 1.0)])


def drive_coefficient(t: float, params: ModelParams) -> float:
    """Scalar drive amplitude Omega * cos(omega_d t) at time t."""
    return params.Omega * math.cos(params.omegad * t)


def charger_is_on(t: float, params: ModelParams) -> bool:
    """Charging window indicator: 1 on [0, T], 0 elsewhere (T=None: t >= 0)."""
    if t < 0:
        return False
    return params.T is None or t <= params.T


def static_hamiltonian(params: ModelParams) -> sp.csr_matrix:
    """Undriven total Hamiltonian H_b + H_static (used by the ground-state solver)."""
    return _assemble(params, [("Jz", params.omega0), *_static_terms(params)])


def initial_state(params: ModelParams) -> StateVector:
    """All atoms in |g>, cavity in the Fock state |n_init>."""
    dims = params.dims
    amps = np.zeros(dims.total_dim, dtype=complex)
    amps[params.initial_photons] = 1.0  # spin_index 0 block, photon slot n_init
    return StateVector(dims, amps)
