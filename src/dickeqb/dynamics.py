"""Time propagation of the joint state under the switched, driven Hamiltonian.

The production integrator is the 4th-order Gauss-Magnus scheme (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151): each step applies one
exponential of the Magnus-4 exponent built from the Hamiltonian at the two
Gauss-Legendre nodes of the step.  Only the drive coefficient c(t) depends on
time, so the commutator of the node Hamiltonians is c_b - c_a times the fixed
operator [H_b + H_static, a'+a] = omega_c (a' - a), and the exponent is

    -i h (H_on + (c_a + c_b)/2 (a'+a)) + (sqrt(3)/12) h^2 (c_b - c_a) omega_c (a' - a).

The run steps from sample to sample.  The samples sit at every
sample_stride-th point of the dt grid (and at t_max); each sample interval,
split at the window edges, is covered in n equal steps, with n the smallest
count whose estimated local error per unit time is at most MAGNUS_TOL.  The
estimate is ||(Omega6 - Omega4) psi||, the three-node Gauss-Magnus-6 exponent
minus the applied one on the current state (an a-posteriori Magnus error
estimate in the sense of Auzinger et al., ESAIM:M2AN 53 (2019)).  It is 0
without a drive or with the charger off, so such intervals take one step:
Magnus-4 is exact for a static Hamiltonian.  dt therefore sets the sample
spacing, not the step.

The exponent is applied by the Taylor kernel ``CsrExpm`` defined here: the
scaled Taylor apply of Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488,
on SciPy's CSR matvec.  The kernel takes the step's scalar -i h apart from
the matrix and multiplies it into the factor it applies to every Taylor
term, so the matrix data never depend on h.  They live on one fixed CSR
pattern: H_on as built, and for a driven step one work array that differs
from H_on only on the ~2 dim entries where a'+a and a'-a are nonzero.  With
the charger off only the diagonal H_b acts, and a step is its exact phase.

``propagate`` steps in the reflection-even sector.  The initial state
|g...g> x |n_init> and every term of the Hamiltonian are unchanged by the
site reflection i -> N+1-i (the dipole couplings depend on |i-j| alone), so
the state never leaves the span of P = V x I_b, V the spin isometry of
``model.reflection_isometry``.  The stepper asks the model builders for its
operators in that sector, where they are assembled from the spin terms
V' S V and equal P' M P; no full-space operator is built.  That is about
half the dimension and kernel nonzeros of the full space at N >= 5, with
the same step plan; each sample is lifted back to the full joint basis
before the observables are taken.  ``step_magnus4`` acts on the full space,
so it stays exact on any state.

``propagate`` also takes a batch: parameter sets that share the time
dependence (Omega, omegad and T), such as the N = 1..6 points of a sweep
cell.  Their sector operators are stacked block-diagonally, so the batch
steps as one system: one exponent array, one drive coefficient c(t) and
one sequence of kernel calls per interval.  The tolerances hold per block.
An interval takes the largest step count any block needs, since its error
estimate is the largest of the per-block ||(Omega6 - Omega4) psi_k||, and
the Taylor series stops only when every block has converged against its own
norm.  A block's trajectory can therefore differ from a solo run of the same
point at the MAGNUS_TOL level, as its steps are shorter where another block
needs them.  A single parameter set is a batch of one, with the arithmetic
of a solo run.

The independent reference ``oracle_propagate`` integrates i psi' = H(t) psi
in the full space with the 8th-order Runge-Kutta method DOP853 (Hairer,
Norsett & Wanner, Solving ODEs I, Springer 1993).  It shares only the model
builders and the sample times with that code path and cross-validates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from dickeqb import observables as obs
from dickeqb.errors import (
    ContractError,
    DomainError,
    IntegrationError,
    NumericalError,
    ResourceError,
)
from dickeqb.model import (
    ModelParams,
    build_H_battery,
    build_H_static,
    drive_coefficient,
    drive_commutator,
    drive_operator,
    initial_state,
    nested_commutators,
    reflection_isometry,
    release_term_tables,
)
from dickeqb.operators import StateVector, linear_keys, pattern_from_keys, union_keys

# Gauss-Legendre nodes of one step and the weight of the node commutator in
# the Magnus-4 exponent.
GL_NODE_A = 0.5 - math.sqrt(3.0) / 6.0
GL_NODE_B = 0.5 + math.sqrt(3.0) / 6.0
MAGNUS_COMMUTATOR_WEIGHT = math.sqrt(3.0) / 12.0
# Offset from the midpoint of the outer nodes of the three-node
# Gauss-Legendre rule, used by the Magnus-6 exponent of the error estimate.
GL3_OFFSET = math.sqrt(15.0) / 10.0

# Bound on the estimated local error per unit time of one magnus4 step; a
# sample interval takes the fewest equal steps that meet it.
MAGNUS_TOL = 1e-8

TAYLOR_TOL = 1e-12
TAYLOR_MAX_TERMS = 64
SEGMENT_NORM_BUDGET = 2.0  # max ||M||_inf handed to one Taylor segment

NORM_DRIFT_LIMIT = 1e-6

ORACLE_TOL = 1e-12  # rtol and atol of the DOP853 reference

METHODS = ("magnus4", "oracle_expm")


@dataclass(frozen=True)
class PropagationConfig:
    """Grid and method knobs for one propagation run (times in 1/omega0).

    ``dt * sample_stride`` is the sample spacing: observables are recorded
    at every sample_stride-th point of the dt grid and at t_max.  Neither
    method steps at dt: the magnus4 step comes from the error bound
    MAGNUS_TOL, the oracle's from DOP853's own control at ORACLE_TOL.
    """

    t_max: float = 20.0
    dt: float = 1e-3
    sample_stride: int = 10
    method: str = "magnus4"
    max_dim: int = 200_000

    def __post_init__(self):
        if self.dt <= 0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        if self.t_max < self.dt:
            raise DomainError(f"t_max must be >= dt, got t_max={self.t_max} dt={self.dt}")
        if self.sample_stride < 1:
            raise DomainError(f"sample_stride must be >= 1, got {self.sample_stride}")
        if self.method not in METHODS:
            raise DomainError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.max_dim < 1:
            raise DomainError("max_dim must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Sampled time series of one charging run."""

    times: np.ndarray
    E_b: np.ndarray
    P_b: np.ndarray
    dE_b: np.ndarray
    Jz_mean: np.ndarray
    norms: np.ndarray
    params: ModelParams
    final_state: StateVector
    # Largest population of the top Fock level |N_ph> over the samples: how
    # much weight the photon cutoff holds.
    edge_population: float = 0.0
    # magnus4 runs: exponentials taken (in a batch, the count all its runs
    # share), and the sum of this run's accepted local error estimates.  The
    # propagator is unitary, so the global error is at most the sum of the
    # true local errors, which the estimates track.
    steps: int = 0
    step_error: float = 0.0

    def __len__(self) -> int:
        return len(self.times)

    def to_csv(self, path) -> None:
        """Write columns t, E_b, P_b, dE_b, Jz_mean, norm (12 significant digits)."""
        columns = (self.times, self.E_b, self.P_b, self.dE_b, self.Jz_mean, self.norms)
        with open(path, "w", newline="\n") as fh:
            fh.write("t,E_b,P_b,dE_b,Jz_mean,norm\n")
            for row in zip(*columns):
                fh.write(",".join("%.12g" % x for x in row) + "\n")


def _entries(mat, keys) -> np.ndarray:
    """Entries of the canonical CSR ``mat`` at ``keys``, sorted distinct
    row-major linear positions row * dim + col, which must hold every
    nonzero of ``mat``."""
    own = linear_keys(mat)
    at = np.searchsorted(keys, own)
    found = at < len(keys)
    found[found] = keys[at[found]] == own[found]
    if np.count_nonzero(mat.data[~found]):
        raise AssertionError("operator entries outside the positions read")
    data = np.zeros(len(keys), dtype=np.complex128)
    data[at[found]] = mat.data[found]
    return data


def _inf_norm(mat) -> float:
    return float(abs(mat).sum(axis=1).max()) if mat.nnz else 0.0


class CsrExpm:
    """Applies exp(M) @ v for CSR matrices on a fixed sparsity pattern.

    The pattern (indptr/indices) is bound once; each call supplies a fresh
    data array, so the propagator can swap Hamiltonian coefficients without
    rebuilding matrices.  perfbench/spans.py wraps ``apply`` by replacing
    this module global, so the stepper looks the class up when it is built.
    """

    def __init__(self, indptr, indices, dim: int):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int32)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self._mat = sp.csr_matrix(
            (np.zeros(len(self.indices), dtype=np.complex128), self.indices, self.indptr),
            shape=(dim, dim),
        )

    def apply(self, data, v, scale: complex = 1.0, segments: int = 1,
              blocks=None, first=None) -> np.ndarray:
        """exp(scale * M) @ v with M given by ``data`` on the bound pattern.

        exp(scale * M) is applied as ``segments`` factors
        exp(scale * M / segments), each a Taylor series whose m-th term is
        the previous one times M and scale / (segments * m); it stops when
        the squared norm of its last term is at most TAYLOR_TOL^2 times the
        squared norm of the running result, and raises NumericalError after
        TAYLOR_MAX_TERMS terms.  For a block-diagonal M, ``blocks`` (slices
        of v) applies that test to every block against its own norm, and the
        series stops once all pass; None treats v as one block.  ``first``,
        M @ v when the caller already holds it, stands in for the first
        segment's first matvec and is scaled in place.  Neither ``v`` nor
        ``data`` is written: the first term's sum allocates the result.
        """
        mat = self._mat
        mat.data = np.ascontiguousarray(data, dtype=np.complex128)
        out = np.ascontiguousarray(v, dtype=np.complex128)
        tol_sq = TAYLOR_TOL * TAYLOR_TOL
        blocks = (slice(None),) if blocks is None else blocks
        for _ in range(segments):
            term = out
            for m in range(1, TAYLOR_MAX_TERMS + 1):
                term = mat.dot(term) if first is None else first
                first = None
                term *= scale / (segments * m)
                if m == 1:
                    out = out + term
                else:
                    out += term
                if all(np.vdot(term[b], term[b]).real <= tol_sq * np.vdot(out[b], out[b]).real
                       for b in blocks):
                    break
            else:
                raise NumericalError(
                    f"exponential Taylor series did not converge within {TAYLOR_MAX_TERMS} "
                    f"terms (segments={segments}); split the exponent into more segments"
                )
        return out


def _batch(params) -> tuple:
    """The parameter sets of a run: one ModelParams, or a sequence that
    shares the time dependence (Omega, omegad and T)."""
    batch = (params,) if isinstance(params, ModelParams) else tuple(params)
    if not batch:
        raise DomainError("a batch needs at least one parameter set")
    clock = (batch[0].Omega, batch[0].omegad, batch[0].T)
    for p in batch[1:]:
        if (p.Omega, p.omegad, p.T) != clock:
            raise ContractError(
                "a batch must share Omega, omegad and T; got "
                f"{clock} and {(p.Omega, p.omegad, p.T)}"
            )
    return batch


def _block_operators(params: ModelParams, space: str):
    """H_on, a'+a, C, the static nested commutator, and the diagonals of H_b
    and of the drive nested commutator, for one parameter set, assembled in
    ``space``."""
    h_batt = build_H_battery(params, space).mat
    a_on = h_batt + build_H_static(params, space).mat
    drive = drive_operator(params, space).mat
    commutator = drive_commutator(params, space).mat
    with_static, with_drive = nested_commutators(params, space)
    return (a_on, drive, commutator, with_static.mat,
            h_batt.diagonal().real, with_drive.mat.diagonal())


def _stack(mats):
    """Block-diagonal CSR stack of ``mats``.

    A single block is kept as it is, entry order included, so a batch of
    one does a solo run's arithmetic.
    """
    return mats[0] if len(mats) == 1 else sp.block_diag(mats, format="csr")


class _Stepper:
    """Gauss-Magnus 4th-order stepping machinery bound to a batch of
    parameter sets.

    ``params`` is one ModelParams or a sequence sharing Omega, omegad and T.
    Each set's operators form one block of a block-diagonal system, and
    ``blocks`` holds the slice of the amplitude vector each block owns; the
    drive coefficient c(t) is common to all blocks.

    The kernel applies exp(-i h M) with M on the union pattern of
    H_on = H_b + H_static and the drive quadrature.  Each operator's data
    is aligned to that pattern by its row-major linear positions
    row * dim + col: the union is their sorted merge, and an operator's
    entries land where ``np.searchsorted`` finds its positions in it.
    ``data_on`` holds H_on, not scaled by h.  A driven step writes
    H_on + c_mean (a'+a) + (i c_comm / h) omega_c (a' - a) into one work
    array that equals ``data_on`` elsewhere, rewriting only the drive
    positions, where the commutator also sits; the drive and commutator
    data are stored on those positions only.  ``advance`` picks the step
    count of an interval from the per-block local error estimates of
    ``local_error``, and hands the H_on, a'+a and C products of that
    estimate to the interval's first step, whose first Taylor term they
    make up.  H_b = omega0 J_z x I is diagonal, in the full space and in
    the sector, so a step with the charger off multiplies by the exact
    phases exp(-i h diag(H_b)) and never calls the kernel.

    ``space`` is where every block's operators are assembled: the full
    joint space, or the reflection-even sector, whose coordinates the
    stepper then acts on.  The sector is exact for states in it, which no
    operator leaves.
    """

    def __init__(self, params, space: str = "full"):
        self.params = params
        batch = _batch(params)
        # The blocks share the time dependence, so the first one's drive
        # coefficient is every block's.
        self.clock = batch[0]
        parts = [_block_operators(p, space) for p in batch]
        # Each block is assembled once, and a term table held through the
        # rest of the construction and the stepping would sit at the
        # memory peak, so drop the tables here.
        release_term_tables()
        a_on, drive, commutator, comm_static = (
            _stack([part[i] for part in parts]) for i in range(4))
        edges = np.cumsum([0] + [part[0].shape[0] for part in parts])
        self.blocks = tuple(slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]))
        dim = a_on.shape[0]
        drive_keys = linear_keys(drive)
        keys = union_keys(linear_keys(a_on), drive_keys)
        self.data_on = _entries(a_on, keys)
        self.drive_pos = np.searchsorted(keys, drive_keys)
        self.drive_data = _entries(drive, drive_keys)
        self.comm_data = _entries(commutator, drive_keys)
        self.on_at_drive = self.data_on[self.drive_pos]
        self.work = None  # H_on with the drive terms of the last driven step
        # Per-block infinity norms: the stacked exponent's is their maximum.
        self.norm_on, self.norm_drive, self.norm_comm = (
            np.array([_inf_norm(part[i]) for part in parts]) for i in (0, 1, 2))
        # The Taylor stop tests the block with the largest H_on first, the
        # one that is slowest to converge.
        self.stop_order = tuple(self.blocks[k] for k in np.argsort(-self.norm_on, kind="stable"))
        self.kernel = CsrExpm(*pattern_from_keys(keys, dim), dim)
        # Operators of the local error estimate; H_on shares the kernel's arrays.
        self.h_on = sp.csr_matrix(
            (self.data_on, self.kernel.indices, self.kernel.indptr), shape=(dim, dim)
        )
        self.drive, self.comm, self.comm_static = drive, commutator, comm_static
        self.diag_off = np.concatenate([part[4] for part in parts])
        self.comm_drive = np.concatenate([part[5] for part in parts])
        self.has_drive = self.clock.Omega != 0.0

    def _apply(self, data, amps, h, norm_bounds, first=None):
        """exp(-i h M) amps for M given by ``data``, given a bound on each
        block's norm of -i h M and, optionally, M amps."""
        segments = max(1, int(math.ceil(norm_bounds.max() / SEGMENT_NORM_BUDGET)))
        return self.kernel.apply(data, amps, -1j * h, segments=segments, blocks=self.stop_order,
                                 first=first)

    def step(self, amps: np.ndarray, t: float, h: float, on: bool, probe=None) -> np.ndarray:
        """Advance the amplitudes from t to t + h (charger on or off).

        ``probe``, the ``_probe`` of ``amps``, saves the driven step its
        first H_on matvec.
        """
        if not on:
            return np.exp((-1j * h) * self.diag_off) * amps
        if not self.has_drive:
            return self._apply(self.data_on, amps, h, h * self.norm_on)
        c_a = drive_coefficient(t + GL_NODE_A * h, self.clock)
        c_b = drive_coefficient(t + GL_NODE_B * h, self.clock)
        c_mean = 0.5 * (c_a + c_b)
        c_comm = MAGNUS_COMMUTATOR_WEIGHT * h * h * (c_b - c_a)
        if self.work is None:
            # Made here, not in __init__, so it can reuse memory the
            # constructor's temporaries have freed instead of raising the peak.
            self.work = self.data_on.copy()
        self.work[self.drive_pos] = (
            self.on_at_drive + c_mean * self.drive_data + (1j * c_comm / h) * self.comm_data
        )
        norm = h * (self.norm_on + abs(c_mean) * self.norm_drive) + abs(c_comm) * self.norm_comm
        first = None
        if probe is not None:
            k_psi, d_psi, c_psi = probe[:3]
            first = k_psi + c_mean * d_psi + (1j * c_comm / h) * c_psi
        return self._apply(self.work, amps, h, norm, first)

    def _probe(self, amps):
        """H_on, a'+a, C and the nested commutators applied to the state."""
        return (self.h_on @ amps, self.drive @ amps, self.comm @ amps,
                self.comm_static @ amps, self.comm_drive * amps)

    def local_error(self, probe, t: float, h: float) -> np.ndarray:
        """Estimated local error ||(Omega6 - Omega4) psi_k|| of a driven step,
        one per block.

        Omega6 is the three-node Gauss-Magnus-6 exponent (Blanes et al. 2009):
        alpha1 + alpha3/12 + [X, Y]/240 with X = -20 alpha1 - alpha3 + C1 and
        Y = alpha2 + C2.  For A(t) = -i (H_on + c(t) D) every commutator in it
        reduces to D, C = [H_on, D] and the nested commutators, so after the
        matvecs in ``probe`` one estimate costs one H_on matvec and three on
        the smaller drive operators.
        """
        k_psi, d_psi, c_psi, es_psi, ed_psi = probe
        c_a, c_b, k1, k2, k3 = (
            drive_coefficient(t + x * h, self.clock)
            for x in (GL_NODE_A, GL_NODE_B, 0.5 - GL3_OFFSET, 0.5, 0.5 + GL3_OFFSET)
        )
        # alpha1 = -i h (H_on + k2 D), alpha2 = -i b2 D, alpha3 = -i b3 D
        b2 = (math.sqrt(15.0) / 3.0) * h * (k3 - k1)
        b3 = (10.0 / 3.0) * h * (k3 - 2.0 * k2 + k1)
        # X = x_k H_on + x_d D + x_c C;  Y = y_d D + y_c C + y_e (E_static + k2 E_drive)
        x_k, x_d, x_c = 20j * h, 1j * (20.0 * h * k2 + b3), -h * b2
        y_d, y_c, y_e = -1j * b2, h * b3 / 30.0, -1j * h * h * b2 / 60.0
        x_psi = x_k * k_psi + x_d * d_psi + x_c * c_psi
        y_psi = y_d * d_psi + y_c * c_psi + y_e * (es_psi + k2 * ed_psi)
        # [X, Y] psi = X y_psi - Y x_psi, with the D and C terms merged
        xy_yx = (x_k * (self.h_on @ y_psi)
                 + self.drive @ (x_d * y_psi - y_d * x_psi)
                 + self.comm @ (x_c * y_psi - y_c * x_psi)
                 - y_e * (self.comm_static @ x_psi + k2 * (self.comm_drive * x_psi)))
        diff = ((-1j * (h * (k2 - 0.5 * (c_a + c_b)) + b3 / 12.0)) * d_psi
                - (MAGNUS_COMMUTATOR_WEIGHT * h * h * (c_b - c_a)) * c_psi
                + xy_yx / 240.0)
        return np.array([np.linalg.norm(diff[b]) for b in self.blocks])

    def advance(self, amps: np.ndarray, t: float, length: float, on: bool):
        """Cover [t, t + length] in n equal steps, n the smallest count at which
        every block's estimated local error per unit time is at most
        MAGNUS_TOL.

        Returns the amplitudes, n and each block's error estimate for the
        interval, n times that of its first step.  Without a drive, or with
        the charger off, the step is exact up to the Taylor tolerance and n
        is 1.
        """
        n, errors, probe = 1, np.zeros(len(self.blocks)), None
        if on and self.has_drive:
            probe = self._probe(amps)
            errors = self.local_error(probe, t, length)
            while errors.max() > MAGNUS_TOL * length / n:
                n += 1
                errors = self.local_error(probe, t, length / n)
        h = length / n
        for i in range(n):
            amps = self.step(amps, t + i * h, h, on, probe if i == 0 else None)
        return amps, n, n * errors


class _Sector:
    """Maps between the full joint space and its reflection-even sector,
    spanned by P = V x I_b.

    V is the spin isometry of ``reflection_isometry``.  Sector coordinate
    c * boson_dim + n lifts to weight * x on the joint indices of the
    representative s and its mirror R s (one index for a palindrome), so a
    sample is lifted by scatter, without a matvec.
    """

    def __init__(self, params: ModelParams):
        iso = reflection_isometry(params.N).tocsc()
        boson_dim = params.dims.boson_dim
        self.total_dim = params.dims.total_dim
        photons = np.arange(boson_dim)
        first, last = iso.indptr[:-1], iso.indptr[1:] - 1
        self.reps = (iso.indices[first, None] * boson_dim + photons).ravel()
        self.mirrors = (iso.indices[last, None] * boson_dim + photons).ravel()
        self.weights = np.repeat(iso.data[first], boson_dim)

    def restrict(self, amps: np.ndarray) -> np.ndarray:
        """P' amps."""
        return (amps[self.reps] + amps[self.mirrors]) * (0.5 / self.weights)

    def lift(self, amps: np.ndarray) -> np.ndarray:
        """P amps, a vector on the full joint basis."""
        out = np.zeros(self.total_dim, dtype=np.complex128)
        scaled = self.weights * amps
        out[self.reps] = scaled
        out[self.mirrors] = scaled
        return out


@lru_cache(maxsize=4)
def _shared_stepper(params: ModelParams) -> _Stepper:
    return _Stepper(params)


def step_magnus4(state: StateVector, t: float, dt: float, params: ModelParams) -> StateVector:
    """One 4th-order Gauss-Magnus step (a single exponential) of the switched Hamiltonian.

    Acts on the full joint space, so it is exact on any state, reflection-even or not.
    """
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    stepper = _shared_stepper(params)
    amps = state.amplitudes
    for a, b, on in _charging_segments(t, t + dt, params.T):
        amps = stepper.step(amps, a, b - a, on)
    return StateVector(state.dims, amps, norm_atol=NORM_DRIFT_LIMIT)


def _charging_segments(t0: float, t1: float, T):
    """Split [t0, t1] at the window edges so the charger state is constant
    on each piece (the window is [0, T]; T=None means no switch-off)."""
    cuts = {t0, t1}
    for c in (0.0, T):
        if c is not None and t0 < c < t1:
            cuts.add(c)
    edges = sorted(cuts)
    segments = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        segments.append((a, b, mid >= 0 and (T is None or mid <= T)))
    return segments


def _time_grid(cfg: PropagationConfig):
    """Step boundaries covering [0, t_max]; the last step may be shorter."""
    n_steps = int(math.ceil(cfg.t_max / cfg.dt - 1e-9))
    edges = [min(k * cfg.dt, cfg.t_max) for k in range(n_steps + 1)]
    edges[-1] = cfg.t_max
    return edges


def _sample_intervals(cfg: PropagationConfig, T):
    """Yield (t1, pieces) per sample interval [t0, t1]: the pieces are its
    (start, length, charger on) spans between the window edges.

    The sample times are every sample_stride-th point of the dt grid, and
    t_max.  A piece as long as the nominal spacing sample_stride * dt gets
    exactly that length, so the step width does not jitter with the float
    sample times.
    """
    edges = _time_grid(cfg)
    times = edges[::cfg.sample_stride]
    if (len(edges) - 1) % cfg.sample_stride:
        times.append(edges[-1])
    nominal = cfg.sample_stride * cfg.dt
    for t0, t1 in zip(times[:-1], times[1:]):
        pieces = []
        for a, b, on in _charging_segments(t0, t1, T):
            length = nominal if math.isclose(b - a, nominal, rel_tol=1e-9) else b - a
            pieces.append((a, length, on))
        yield t1, pieces


class _Recorder:
    """Accumulates the sampled observable series of one run."""

    def __init__(self, params: ModelParams, state0: StateVector):
        self.params = params
        self.state0 = state0
        self.times = []
        self.E_b = []
        self.P_b = []
        self.dE_b = []
        self.Jz = []
        self.norms = []
        self.edge_population = 0.0
        self.last_state = None

    def record(self, t: float, amps: np.ndarray) -> None:
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > NORM_DRIFT_LIMIT:
            raise IntegrationError(
                f"norm drift {abs(nrm - 1.0):.3e} at t={t:.6g} exceeds {NORM_DRIFT_LIMIT}; "
                "the Taylor kernel's drift grows with ||H|| and the run length, not with dt: "
                "lower the photon cutoff N_ph or shorten t_max"
            )
        state = StateVector(self.params.dims, amps.copy(), norm_atol=2 * NORM_DRIFT_LIMIT)
        energy = obs.stored_energy(state, self.params)
        self.times.append(t)
        self.E_b.append(energy)
        self.P_b.append(obs.charging_power(energy, t))
        self.dE_b.append(obs.energy_fluctuation(state, self.state0, self.params))
        self.Jz.append(obs.jz_mean(state))
        self.norms.append(nrm)
        top = amps[self.params.photon_cutoff::self.params.dims.boson_dim]
        self.edge_population = max(self.edge_population, float(np.vdot(top, top).real))
        self.last_state = state

    def build(self, steps: int = 0, step_error: float = 0.0) -> Trajectory:
        return Trajectory(
            times=np.asarray(self.times),
            E_b=np.asarray(self.E_b),
            P_b=np.asarray(self.P_b),
            dE_b=np.asarray(self.dE_b),
            Jz_mean=np.asarray(self.Jz),
            norms=np.asarray(self.norms),
            params=self.params,
            final_state=self.last_state,
            edge_population=self.edge_population,
            steps=steps,
            step_error=step_error,
        )


def _check_dim(params: ModelParams, cap: int) -> None:
    dim = params.dims.total_dim
    if dim > cap:
        raise ResourceError(f"total dimension {dim} exceeds the configured bound {cap}")


def propagate(params, cfg: PropagationConfig | None = None):
    """Evolve the initial product state over [0, t_max] and sample observables.

    ``params`` is one ModelParams, which gives one Trajectory, or a sequence
    of them that shares Omega, omegad and T (else ContractError), which gives
    one Trajectory per entry, in order.  Records at every
    ``sample_stride``-th point of the dt grid plus the initial and final
    times.  The magnus4 path steps from sample to sample, each interval in
    the fewest equal steps that meet MAGNUS_TOL, in the reflection-even
    sector: the initial state and the Hamiltonian are unchanged by the site
    reflection, so the state stays there.  A batch steps as one
    block-diagonal system with the tolerances held per block (see the module
    docstring); each entry reports the batch's step count and its own error
    estimate.  Samples and the final state are lifted to the full joint
    basis.  Raises ResourceError when an entry's dimension exceeds
    ``max_dim`` and IntegrationError when an entry's norm drifts beyond
    1e-6.
    """
    cfg = cfg or PropagationConfig()
    batch = _batch(params)
    if cfg.method == "oracle_expm":
        trajectories = [oracle_propagate(p, cfg) for p in batch]
    else:
        trajectories = _magnus4_batch(batch, cfg)
    return trajectories[0] if isinstance(params, ModelParams) else trajectories


def _magnus4_batch(batch, cfg: PropagationConfig) -> list:
    """magnus4 trajectories of a batch, stepped as one block-diagonal system."""
    for p in batch:
        _check_dim(p, cfg.max_dim)
    sectors = [_Sector(p) for p in batch]
    stepper = _Stepper(batch, "even")
    states0 = [initial_state(p) for p in batch]
    recorders = [_Recorder(p, state0) for p, state0 in zip(batch, states0)]
    lifts = list(zip(recorders, sectors, stepper.blocks))

    def record(t, amps):
        for recorder, sector, block in lifts:
            recorder.record(t, sector.lift(amps[block]))

    amps = np.concatenate([sector.restrict(state0.amplitudes)
                           for sector, state0 in zip(sectors, states0)])
    record(0.0, amps)
    steps, step_errors = 0, np.zeros(len(batch))
    for t1, pieces in _sample_intervals(cfg, batch[0].T):
        for a, length, on in pieces:
            amps, n, errors = stepper.advance(amps, a, length, on)
            steps += n
            step_errors += errors
        record(t1, amps)
    return [recorder.build(steps=steps, step_error=float(error))
            for recorder, error in zip(recorders, step_errors)]


def oracle_propagate(params: ModelParams, cfg: PropagationConfig | None = None) -> Trajectory:
    """Independent reference propagation: DOP853 on i psi' = H(t) psi.

    Integrates in the full joint space with the sparse H_b, H_static and
    a'+a, at rtol = atol = ORACLE_TOL, with one solve per (start, length,
    charger on) piece of the sample intervals magnus4 walks, so both record
    at the same times.  DOP853 is not unitary; the recorder's norm guard
    still applies.  Raises ResourceError when the dimension exceeds
    ``max_dim`` and NumericalError when a solve fails.
    """
    # Imported here: scipy.integrate would add ~0.3 s to every CLI start.
    from scipy.integrate import solve_ivp

    cfg = cfg or PropagationConfig()
    _check_dim(params, cfg.max_dim)
    h_off = build_H_battery(params).mat
    h_on = h_off + build_H_static(params).mat
    drive = drive_operator(params).mat

    def rhs_on(t, y):
        return -1j * (h_on @ y + drive_coefficient(t, params) * (drive @ y))

    def rhs_off(t, y):
        return -1j * (h_off @ y)

    amps = initial_state(params).amplitudes
    recorder = _Recorder(params, StateVector(params.dims, amps))
    recorder.record(0.0, amps)
    for t1, pieces in _sample_intervals(cfg, params.T):
        for a, length, on in pieces:
            sol = solve_ivp(rhs_on if on else rhs_off, (a, a + length), amps,
                            method="DOP853", rtol=ORACLE_TOL, atol=ORACLE_TOL)
            if not sol.success:
                raise NumericalError(f"DOP853 failed on [{a:.6g}, {a + length:.6g}]: {sol.message}")
            amps = sol.y[:, -1]
        recorder.record(t1, amps)
    return recorder.build()
