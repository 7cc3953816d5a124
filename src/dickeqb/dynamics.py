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

The exponent lives in a data buffer on a fixed CSR pattern and is applied
by the Taylor kernel ``CsrExpm`` defined here: the scaled Taylor apply of
Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488, on SciPy's CSR
matvec.  The buffer holds -i h H_on and is built once per distinct
(h, charger state); a driven step rewrites only the ~2 dim entries where a'+a
and a'-a are nonzero.

``propagate`` steps in the reflection-even sector.  The initial state
|g...g> x |n_init> and every term of the Hamiltonian are unchanged by the
site reflection i -> N+1-i (the dipole couplings depend on |i-j| alone), so
the state never leaves the span of P = V x I_b, V the spin isometry of
``model.reflection_isometry``.  The stepper works on the projections P' M P
of its operators, about half the dimension and kernel nonzeros of the full
space at N >= 5, with the same step plan; each sample is lifted back to the
full joint basis before the observables are taken.  ``step_magnus4`` acts on
the full space, so it stays exact on any state.

An independent brute-force oracle (dense piecewise-constant exponential on a
20x finer dt grid, in the full space) shares nothing with that code path
beyond the sample times and is used to cross-validate trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from dickeqb import observables as obs
from dickeqb.errors import DomainError, IntegrationError, NumericalError, ResourceError
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
)
from dickeqb.operators import StateVector

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
BUFFER_SLOTS = 4  # exponent buffers kept, one per recent (h, charger on)

NORM_DRIFT_LIMIT = 1e-6

ORACLE_SUBSTEPS = 20
ORACLE_MAX_DIM = 4096

METHODS = ("magnus4", "oracle_expm")


@dataclass(frozen=True)
class PropagationConfig:
    """Grid and method knobs for one propagation run (times in 1/omega0).

    ``dt * sample_stride`` is the sample spacing: observables are recorded
    at every sample_stride-th point of the dt grid and at t_max.  The magnus4
    step is not dt but comes from the error bound MAGNUS_TOL; the oracle
    still steps at dt / ORACLE_SUBSTEPS.
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
    # magnus4 runs: exponentials taken, and the sum of their accepted local
    # error estimates.  The propagator is unitary, so the global error is at
    # most the sum of the true local errors, which the estimates track.
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


def _union_pattern(mats):
    """Union CSR sparsity pattern over the stored entries of ``mats``."""
    pat = None
    for m in mats:
        p = m.tocsr(copy=True)
        p.data = np.ones_like(p.data)
        pat = p if pat is None else pat + p
    pat = pat.tocsr()
    pat.sum_duplicates()
    pat.sort_indices()
    return pat.indptr.copy(), pat.indices.copy()


def _row_major_keys(indptr, indices, dim) -> np.ndarray:
    """row * dim + column of every stored entry, ascending for a sorted CSR."""
    rows = np.repeat(np.arange(dim, dtype=np.int64), np.diff(indptr))
    return rows * dim + indices


def _positions_on_pattern(pattern_keys, dim, mat):
    """Positions of the entries of ``mat`` in the (superset) pattern, and their data."""
    m = mat.tocsr()
    m.sum_duplicates()
    m.sort_indices()
    keys = _row_major_keys(m.indptr, m.indices, dim)
    pos = np.searchsorted(pattern_keys, keys)
    if len(keys) and not np.array_equal(pattern_keys[pos], keys):
        raise AssertionError("matrix entries outside the union pattern")
    return pos, m.data


def _data_on_pattern(pattern_keys, dim, mat) -> np.ndarray:
    """Data array of ``mat`` scattered onto the (superset) pattern."""
    pos, data = _positions_on_pattern(pattern_keys, dim, mat)
    out = np.zeros(len(pattern_keys), dtype=np.complex128)
    out[pos] = data
    return out


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

    def apply(self, data, v, segments: int = 1, tol: float = 1e-12,
              max_terms: int = 64) -> np.ndarray:
        """exp(M) @ v with M given by ``data`` on the bound pattern.

        exp(M) is applied as ``segments`` factors exp(M / segments), each a
        Taylor series that stops when the squared norm of its last term is at
        most tol^2 times the squared norm of the running result.  Neither
        ``v`` nor ``data`` is written: the first term's sum allocates the
        result.
        """
        mat = self._mat
        mat.data = np.ascontiguousarray(data, dtype=np.complex128)
        out = np.ascontiguousarray(v, dtype=np.complex128)
        tol_sq = tol * tol
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
                    break
            else:
                raise NumericalError(
                    f"exponential Taylor series did not converge within {max_terms} terms "
                    f"(segments={segments}); split the exponent into more segments "
                    "or raise max_terms"
                )
        return out


class _Stepper:
    """Gauss-Magnus 4th-order stepping machinery bound to one parameter set.

    The exponent handed to the kernel is a buffer on the union pattern of
    H_on = H_b + H_static, H_b and the drive quadrature.  It holds -i h H_on
    (or -i h H_b with the charger off) for the (h, on) it was built for, and
    up to BUFFER_SLOTS such buffers are kept; a driven step then overwrites
    only the drive positions, which also carry the commutator
    omega_c (a' - a).  The drive and commutator data are stored on those
    positions only.  ``advance`` picks the step count of an interval from
    the local error estimate of ``local_error``.

    With an isometry ``basis`` (a real joint-space matrix P with P'P = I)
    every operator is projected once to P' M P and the stepper acts on
    coordinates in the range of P; that is exact for states in the range
    when it is invariant under every operator.  Without one it acts on the
    full joint space.
    """

    def __init__(self, params: ModelParams, basis=None):
        self.params = params
        basis_t = None if basis is None else basis.T.tocsr()

        def project(mat):
            return mat if basis is None else basis_t @ mat @ basis

        h_full = build_H_battery(params).mat
        a_on = project(h_full + build_H_static(params).mat)
        h_batt = project(h_full)
        drive = project(drive_operator(params).mat)
        commutator = project(drive_commutator(params).mat)
        dim = a_on.shape[0]
        indptr, indices = _union_pattern([a_on, drive, h_batt])
        keys = _row_major_keys(indptr, indices, dim)
        self.data_on = _data_on_pattern(keys, dim, a_on)
        self.data_off = _data_on_pattern(keys, dim, h_batt)
        self.drive_pos, self.drive_data = _positions_on_pattern(keys, dim, drive)
        comm_pos, self.comm_data = _positions_on_pattern(keys, dim, commutator)
        if not np.array_equal(comm_pos, self.drive_pos):
            raise AssertionError("drive commutator entries off the drive positions")
        self.on_at_drive = self.data_on[self.drive_pos]
        self.norm_on = _inf_norm(a_on)
        self.norm_off = _inf_norm(h_batt)
        self.norm_drive = _inf_norm(drive)
        self.norm_comm = _inf_norm(commutator)
        self.kernel = CsrExpm(indptr, indices, dim)
        # Operators of the local error estimate; H_on shares the kernel's arrays.
        self.h_on = sp.csr_matrix(
            (self.data_on, self.kernel.indices, self.kernel.indptr), shape=(dim, dim)
        )
        self.drive, self.comm = drive, commutator
        with_static, with_drive = nested_commutators(params)
        self.comm_static = project(with_static.mat)
        self.comm_drive = project(with_drive.mat).diagonal()
        self.has_drive = params.Omega != 0.0
        self._buffers = {}  # (h, on) -> buffer whose static part was built for it
        self._buffer = None
        self.builds = 0  # times a buffer's static part was built

    def _load(self, h: float, on: bool) -> None:
        """Make the buffer hold -i h H_on (on) or -i h H_b (off).

        A step count that alternates between neighbours, as the error
        control's does, finds its buffer kept; the oldest slot is reused.
        """
        key = (h, on)
        self._buffer = self._buffers.get(key)
        if self._buffer is None:
            if len(self._buffers) < BUFFER_SLOTS:
                out = np.empty(len(self.data_on), dtype=np.complex128)
            else:
                out = self._buffers.pop(next(iter(self._buffers)))
            self._buffer = self._buffers[key] = out
            np.multiply(self.data_on if on else self.data_off, -1j * h, out=out)
            self.builds += 1

    def _apply(self, amps, norm_bound):
        segments = max(1, int(math.ceil(norm_bound / SEGMENT_NORM_BUDGET)))
        return self.kernel.apply(
            self._buffer, amps, segments=segments, tol=TAYLOR_TOL, max_terms=TAYLOR_MAX_TERMS
        )

    def step(self, amps: np.ndarray, t: float, h: float, on: bool) -> np.ndarray:
        """Advance the amplitudes from t to t + h (charger on or off)."""
        self._load(h, on)
        if not on:
            return self._apply(amps, h * self.norm_off)
        if not self.has_drive:
            return self._apply(amps, h * self.norm_on)
        c_a = drive_coefficient(t + GL_NODE_A * h, self.params)
        c_b = drive_coefficient(t + GL_NODE_B * h, self.params)
        c_mean = 0.5 * (c_a + c_b)
        c_comm = MAGNUS_COMMUTATOR_WEIGHT * h * h * (c_b - c_a)
        self._buffer[self.drive_pos] = (
            (-1j * h) * (self.on_at_drive + c_mean * self.drive_data) + c_comm * self.comm_data
        )
        norm = h * (self.norm_on + abs(c_mean) * self.norm_drive) + abs(c_comm) * self.norm_comm
        return self._apply(amps, norm)

    def _probe(self, amps):
        """H_on, a'+a, C and the nested commutators applied to the state."""
        return (self.h_on @ amps, self.drive @ amps, self.comm @ amps,
                self.comm_static @ amps, self.comm_drive * amps)

    def local_error(self, probe, t: float, h: float) -> float:
        """Estimated local error ||(Omega6 - Omega4) psi|| of a driven step.

        Omega6 is the three-node Gauss-Magnus-6 exponent (Blanes et al. 2009):
        alpha1 + alpha3/12 + [X, Y]/240 with X = -20 alpha1 - alpha3 + C1 and
        Y = alpha2 + C2.  For A(t) = -i (H_on + c(t) D) every commutator in it
        reduces to D, C = [H_on, D] and the nested commutators, so after the
        matvecs in ``probe`` one estimate costs one H_on matvec and three on
        the smaller drive operators.
        """
        k_psi, d_psi, c_psi, es_psi, ed_psi = probe
        c_a, c_b, k1, k2, k3 = (
            drive_coefficient(t + x * h, self.params)
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
        return float(np.linalg.norm(diff))

    def advance(self, amps: np.ndarray, t: float, length: float, on: bool):
        """Cover [t, t + length] in n equal steps, n the smallest count whose
        estimated local error per unit time is at most MAGNUS_TOL.

        Returns the amplitudes, n and the interval's error estimate, n times
        that of its first step.  Without a drive, or with the charger off,
        the step is exact up to the Taylor tolerance and n is 1.
        """
        n, error = 1, 0.0
        if on and self.has_drive:
            probe = self._probe(amps)
            error = self.local_error(probe, t, length)
            while error > MAGNUS_TOL * length / n:
                n += 1
                error = self.local_error(probe, t, length / n)
        h = length / n
        for i in range(n):
            amps = self.step(amps, t + i * h, h, on)
        return amps, n, n * error


class _Sector:
    """The reflection-even sector of the joint space, spanned by P = V x I_b.

    V is the spin isometry of ``reflection_isometry``.  Sector coordinate
    c * boson_dim + n lifts to weight * x on the joint indices of the
    representative s and its mirror R s (one index for a palindrome), so a
    sample is lifted by scatter, without a matvec.
    """

    def __init__(self, params: ModelParams):
        iso = reflection_isometry(params.N).tocsc()
        boson_dim = params.dims.boson_dim
        self.basis = sp.kron(iso, sp.identity(boson_dim), format="csr")
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
        out = np.zeros(self.basis.shape[0], dtype=np.complex128)
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
    sample times and the exponent buffer is built once per distinct step.
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


def propagate(params: ModelParams, cfg: PropagationConfig | None = None) -> Trajectory:
    """Evolve the initial product state over [0, t_max] and sample observables.

    Records at every ``sample_stride``-th point of the dt grid plus the
    initial and final times.  The magnus4 path steps from sample to sample,
    each interval in the fewest equal steps that meet MAGNUS_TOL, in the
    reflection-even sector: the initial state and the Hamiltonian are
    unchanged by the site reflection, so the state stays there.  Samples and
    the final state are lifted to the full joint basis.  Raises
    IntegrationError when the state norm drifts beyond 1e-6.
    """
    cfg = cfg or PropagationConfig()
    if cfg.method == "oracle_expm":
        return oracle_propagate(params, cfg)
    _check_dim(params, cfg.max_dim)
    sector = _Sector(params)
    stepper = _Stepper(params, sector.basis)
    state0 = initial_state(params)
    amps = sector.restrict(state0.amplitudes)
    recorder = _Recorder(params, state0)
    recorder.record(0.0, sector.lift(amps))
    steps, step_error = 0, 0.0
    for t1, pieces in _sample_intervals(cfg, params.T):
        for a, length, on in pieces:
            amps, n, error = stepper.advance(amps, a, length, on)
            steps += n
            step_error += error
        recorder.record(t1, sector.lift(amps))
    return recorder.build(steps=steps, step_error=step_error)


def oracle_propagate(params: ModelParams, cfg: PropagationConfig | None = None) -> Trajectory:
    """Brute-force reference propagation (dense, piecewise-constant exponential).

    Each main step is split into ORACLE_SUBSTEPS substeps; within a substep
    the Hamiltonian is frozen at its midpoint and applied through a dense
    eigendecomposition.  Limited to total dimensions <= 4096.
    """
    cfg = cfg or PropagationConfig()
    _check_dim(params, min(cfg.max_dim, ORACLE_MAX_DIM))
    a_on = (build_H_battery(params) + build_H_static(params)).to_dense()
    a_off = build_H_battery(params).to_dense()
    drive = drive_operator(params).to_dense()
    has_drive = params.Omega != 0.0

    cache: dict[bool, tuple[np.ndarray, np.ndarray]] = {}

    def substep(amps, t_mid, h, on):
        if not on or not has_drive:
            if on not in cache:
                cache[on] = np.linalg.eigh(a_on if on else a_off)
            w, v = cache[on]
        else:
            w, v = np.linalg.eigh(a_on + drive_coefficient(t_mid, params) * drive)
        return v @ (np.exp(-1j * h * w) * (v.conj().T @ amps))

    amps = initial_state(params).amplitudes
    recorder = _Recorder(params, StateVector(params.dims, amps))
    recorder.record(0.0, amps)
    edges = _time_grid(cfg)
    n_steps = len(edges) - 1
    for k in range(n_steps):
        t0, t1 = edges[k], edges[k + 1]
        h_sub = (t1 - t0) / ORACLE_SUBSTEPS
        for s in range(ORACLE_SUBSTEPS):
            a = t0 + s * h_sub
            for lo, hi, on in _charging_segments(a, a + h_sub, params.T):
                if hi > lo:
                    amps = substep(amps, 0.5 * (lo + hi), hi - lo, on)
        if (k + 1) % cfg.sample_stride == 0 or k + 1 == n_steps:
            recorder.record(t1, amps)
    return recorder.build()
