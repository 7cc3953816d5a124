"""Physical parameters and Hamiltonian assembly for the driven battery.

The system is N two-level atoms (the battery) in a single-mode cavity (the
charger).  The charger Hamiltonian holds the cavity energy, the collective
coupling 2g(a'+a)J_x, the distance-dependent atomic flip-flop couplings and
a cosine drive on the cavity quadrature.  Everything is expressed in units
of the atomic splitting omega0 (hbar = 1).

Every operator below is assembled the same way.  A read-only term table,
cached per (N, N_ph, space), holds each term spin factor x boson factor of
TERMS: the spin factors J_z, J_x and the flip-flop distance sums F_d of
``_spin_terms`` and the identity, restricted to V' S V in the
reflection-even sector (V = ``reflection_isometry``); the boson factors I,
a'a, a'+a, a'-a and P = [a, a'].  The full-space spin factors are written
from the bits of the spin index, with no site-operator Kronecker chain:
popcounts on the diagonal of J_z, single-bit flips for J_x, and two-bit
flips of unequal pair bits for F_d.  All terms sit on one CSR pattern, the
sorted union of their row-major linear positions (a term's positions are
an outer sum of its factors'), so one parameter set's operator is a
coefficient combination of term data; its nonzeros become a new matrix,
which the Hermitian check of SparseOperator then verifies.  Repeated
assemblies at one (N, N_ph), such as a phase diagram's points, build no
Kronecker product, and an operator asked for in the sector is never formed
in the full space.  ``release_term_tables`` drops the cached tables.
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _frozen(mat) -> sp.csr_matrix:
    out = sp.csr_matrix(mat.real, copy=True)
    out.sum_duplicates()
    for arr in (out.data, out.indices, out.indptr):
        _read_only(arr)
    return out


def _spin_matrix(dim: int, rows: np.ndarray, cols: np.ndarray, data) -> sp.csr_matrix:
    """Read-only real dim x dim CSR matrix with ``data`` at the distinct
    positions (rows, cols)."""
    keys = rows * dim + cols
    order = np.argsort(keys, kind="stable")
    indptr, indices = ops.pattern_from_keys(keys[order], dim)
    data = np.broadcast_to(np.asarray(data, dtype=np.float64), keys.shape)[order]
    return _frozen(sp.csr_matrix((data, indices, indptr), shape=(dim, dim)))


@lru_cache(maxsize=16)
def _spin_terms(n_atoms: int) -> SpinTerms:
    """Spin-space J_z, J_x and flip-flop sums, built once per atom count
    from the bits of the spin index.

    Site i owns bit 2^(N-i) of the spin index s (see ``operators``).  J_z
    is diagonal, popcount(s) - N/2, with its exact zeros not stored; J_x
    holds 1/2 at (s, s ^ 2^(N-i)) for every site i; F_d holds 1 at
    (s, s ^ (2^(N-i) | 2^(N-i-d))) for every pair (i, i+d) whose two bits
    differ in s.  Those are exactly the entries of the sums of
    ``operators.site_operator`` products they stand for, with the same
    values.  The matrices are shared by every caller, so their arrays are
    read-only; combine them only out of place.
    """
    dim = 2**n_atoms
    states = np.arange(dim, dtype=np.int64)
    site_bits = np.int64(1) << np.arange(n_atoms - 1, -1, -1, dtype=np.int64)
    jz = np.bitwise_count(states) - 0.5 * n_atoms
    stored = jz != 0.0

    def flips(masks, keep, value):
        """``value`` at (s, s ^ mask) for every s and mask where ``keep`` holds."""
        rows = np.broadcast_to(states[:, None], keep.shape)[keep]
        return _spin_matrix(dim, rows, (states[:, None] ^ masks)[keep], value)

    def flip_flop(d):
        masks = site_bits[:-d] | site_bits[d:]
        return flips(masks, np.bitwise_count(states[:, None] & masks) == 1, 1.0)

    return SpinTerms(
        jz=_spin_matrix(dim, states[stored], states[stored], jz[stored]),
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


@lru_cache(maxsize=16)
def _even_spin_terms(n_atoms: int) -> SpinTerms:
    """V' S V for every matrix S of ``_spin_terms``, V = ``reflection_isometry``:
    the spin terms on the reflection-even sector, read-only like them.

    Exact because every S commutes with the site reflection (the couplings
    depend on |i-j| alone).
    """
    v = reflection_isometry(n_atoms)
    full = _spin_terms(n_atoms)

    def restrict(mat):
        return _frozen(v.T @ mat @ v)

    return SpinTerms(
        jz=restrict(full.jz),
        jx=restrict(full.jx),
        flip_flops=tuple(restrict(f_d) for f_d in full.flip_flops),
    )


def spin_terms(n_atoms: int, space: str) -> SpinTerms:
    """The cached, read-only spin terms of ``space``: ``_spin_terms`` in the
    full space, ``_even_spin_terms`` in the reflection-even sector."""
    if space == "full":
        return _spin_terms(n_atoms)
    if space == "even":
        return _even_spin_terms(n_atoms)
    raise DomainError(f"space must be one of {ops.SPACES}, got {space!r}")


def _boson_factors(boson_dim: int) -> dict:
    """Real cavity factors of the terms on the Fock space 0..N_ph: I, a'a,
    a'+a, a'-a and P = [a, a'] = diag(1, ..., 1, -N_ph)."""
    a = ops.boson_matrix("annihilate", boson_dim)
    a_dag = a.conjugate().T
    factors = {
        "1": sp.identity(boson_dim),
        "a'a": a_dag @ a,
        "a'+a": a + a_dag,
        "a'-a": a_dag - a,
        "P": a @ a_dag - a_dag @ a,
    }
    return {name: _frozen(mat) for name, mat in factors.items()}


# Terms (spin factor, boson factor) that the operators below combine; "1"
# is an identity, and F<d> = flip_flops[d - 1] adds one term per distance.
TERMS = (("Jz", "1"), ("1", "a'a"), ("Jx", "a'+a"), ("1", "a'+a"), ("1", "a'-a"),
         ("Jx", "P"), ("1", "P"))


class _TermTable(NamedTuple):
    """The terms of one (N, N_ph, space) on one CSR pattern, the union of
    theirs.  ``terms`` maps a term to (spin factor, boson factor, positions):
    its Kronecker product's k-th stored entry, the product of the factors'
    data at k // B.nnz and k % B.nnz, sits at positions[k] of the pattern's
    data."""

    indptr: np.ndarray
    indices: np.ndarray
    terms: dict


@lru_cache(maxsize=8)
def _term_table(n_atoms: int, n_photon_max: int, space: str) -> _TermTable:
    """The term table of one (N, N_ph, space), built once.

    A term is kron(spin factor, boson factor), with the spin factors of
    ``_spin_terms`` in the full space and of ``_even_spin_terms`` in the
    even sector, whose spin identity is exact.  Only the positions are
    stored per entry; the values are the factors' products.  Every caller
    shares the table, so its arrays are read-only.
    """
    spin = spin_terms(n_atoms, space)
    spin_factors = {"1": _frozen(sp.identity(spin.jz.shape[0])), "Jz": spin.jz, "Jx": spin.jx}
    spin_factors.update((f"F{d}", f_d) for d, f_d in enumerate(spin.flip_flops, start=1))
    boson_dim = n_photon_max + 1
    boson = _boson_factors(boson_dim)
    dim = spin.jz.shape[0] * boson_dim

    def kron_keys(s_mat, b_mat):
        """Row-major linear positions of kron(s_mat, b_mat)'s stored entries,
        in its entry order: entries (r, c) and (p, q) of the factors sit at
        (r B + p) dim + c B + q = (r dim + c) B + (p dim + q)."""
        s_rows, s_cols = np.divmod(ops.linear_keys(s_mat), s_mat.shape[1])
        b_rows, b_cols = np.divmod(ops.linear_keys(b_mat), boson_dim)
        return (((s_rows * dim + s_cols) * boson_dim)[:, None] + (b_rows * dim + b_cols)).ravel()

    keys = TERMS + tuple((f"F{d}", "1") for d in range(1, len(spin.flip_flops) + 1))
    flats = {(s_key, b_key): kron_keys(spin_factors[s_key], boson[b_key]) for s_key, b_key in keys}
    # Row-major linear positions; sorted, they are the CSR order.
    union = ops.union_keys(*flats.values())
    indptr, indices = ops.pattern_from_keys(union, dim)
    return _TermTable(
        indptr=_read_only(indptr),
        indices=_read_only(indices),
        terms={(s_key, b_key): (spin_factors[s_key], boson[b_key],
                                _read_only(np.searchsorted(union, flat).astype(np.int32)))
               for (s_key, b_key), flat in flats.items()},
    )


def release_term_tables() -> None:
    """Drop every cached term table; the next assembly builds its table again."""
    _term_table.cache_clear()


def _assemble(params: ModelParams, space: str, coefficients,
              hermitian: bool = False) -> SparseOperator:
    """The operator sum of coefficient * term over ``coefficients``, a list of
    (term, coefficient) pairs, in ``space`` ("full" or "even").

    The sum is formed on the table's pattern and its nonzeros, the entries a
    sparse sum of the terms would keep, become a new matrix that shares no
    array with the table.
    """
    dim = params.dims.space_dim(space)
    table = _term_table(params.N, params.photon_cutoff, space)
    data = np.zeros(len(table.indices))
    for key, coefficient in coefficients:
        if coefficient != 0.0:
            spin, boson, positions = table.terms[key]
            data[positions] += coefficient * np.multiply.outer(spin.data, boson.data).ravel()
    mat = sp.csr_matrix((data, table.indices.copy(), table.indptr.copy()), shape=(dim, dim))
    mat.eliminate_zeros()
    return SparseOperator(params.dims, mat, hermitian=hermitian, space=space)


def _static_terms(params: ModelParams) -> list:
    """(term, coefficient) pairs of H_static."""
    flip_flops = [((f"F{d}", "1"), dipole_coupling(1, 1 + d, params))
                  for d in range(1, min(COUPLING_CUTOFF, params.N - 1) + 1)]
    return [(("1", "a'a"), params.omegac), (("Jx", "a'+a"), 2.0 * params.g), *flip_flops]


def build_H_battery(params: ModelParams, space: str = "full") -> SparseOperator:
    """Battery Hamiltonian omega0 * J_z (tensored with the cavity identity)."""
    return _assemble(params, space, [(("Jz", "1"), params.omega0)], hermitian=True)


def build_H_static(params: ModelParams, space: str = "full") -> SparseOperator:
    """Static part of the charger: cavity + collective coupling + flip-flops.

    omega_c a'a + 2g(a'+a)J_x + sum_{i<j} eta_ij (s_i^- s_j^+ + s_j^- s_i^+).
    Each unordered atom pair contributes once, so <eg|H|ge> = eta_12.  The
    flip-flop part is sum_d eta_{1,1+d} F_d over the cached distance sums
    F_d of ``_spin_terms``; the three terms have disjoint supports.
    """
    return _assemble(params, space, _static_terms(params), hermitian=True)


def drive_operator(params: ModelParams, space: str = "full") -> SparseOperator:
    """Cavity quadrature a' + a (the drive couples to it)."""
    return _assemble(params, space, [(("1", "a'+a"), 1.0)], hermitian=True)


def drive_commutator(params: ModelParams, space: str = "full") -> SparseOperator:
    """Commutator [H_b + H_static, a' + a] = omega_c (a' - a).

    Only the cavity energy fails to commute with the drive quadrature, and
    the truncated number operator is exactly diag(0..N_ph), so the identity
    holds on the truncated space too.  The result is anti-Hermitian.
    """
    return _assemble(params, space, [(("1", "a'-a"), params.omegac)])


def nested_commutators(params: ModelParams,
                       space: str = "full") -> tuple[SparseOperator, SparseOperator]:
    """[H_b + H_static, C] and [a' + a, C] for C = ``drive_commutator``.

    With P = [a, a'] = diag(1, ..., 1, -N_ph) on the truncated Fock space
    the two are omega_c^2 (a' + a) + 4 g omega_c J_x P and 2 omega_c P; the
    cavity energy and the collective coupling are the only parts of H that
    fail to commute with C.  Both are built from the boson factor and J_x,
    never from products of joint-space matrices.
    """
    with_static = _assemble(params, space, [(("1", "a'+a"), params.omegac**2),
                                            (("Jx", "P"), 4.0 * params.g * params.omegac)])
    with_drive = _assemble(params, space, [(("1", "P"), 2.0 * params.omegac)])
    return with_static, with_drive


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
    return _assemble(params, "full", [(("Jz", "1"), params.omega0), *_static_terms(params)],
                     hermitian=True)


def initial_state(params: ModelParams) -> StateVector:
    """All atoms in |g>, cavity in the Fock state |n_init>."""
    dims = params.dims
    amps = np.zeros(dims.total_dim, dtype=complex)
    amps[params.initial_photons] = 1.0  # spin_index 0 block, photon slot n_init
    return StateVector(dims, amps)
