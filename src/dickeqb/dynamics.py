"""Time propagation of the joint state under the switched, driven Hamiltonian.

The production integrator is the fixed-step 4th-order Gauss-Magnus scheme
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151): each step applies one
exponential of the Magnus-4 exponent built from the Hamiltonian at the two
Gauss-Legendre nodes of the step.  Only the drive coefficient c(t) depends on
time, so the commutator of the node Hamiltonians is c_b - c_a times the fixed
operator [H_b + H_static, a'+a] = omega_c (a' - a), and the exponent is

    -i h (H_on + (c_a + c_b)/2 (a'+a)) + (sqrt(3)/12) h^2 (c_b - c_a) omega_c (a' - a).

The exponent lives in one data buffer on a fixed CSR pattern, applied by the
CSR Taylor kernel.  The buffer holds -i h H_on and is rebuilt only when h or
the charger state changes; a driven step rewrites only the ~2 dim entries
where a'+a and a'-a are nonzero.

An independent brute-force oracle (dense piecewise-constant exponential on a
20x finer grid) shares nothing with that code path beyond the time grid and
is used to cross-validate trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from dickeqb import observables as obs
from dickeqb._kernels import CsrExpm
from dickeqb.errors import DomainError, IntegrationError, ResourceError
from dickeqb.model import (
    ModelParams,
    build_H_battery,
    build_H_static,
    drive_coefficient,
    drive_commutator,
    drive_operator,
    initial_state,
)
from dickeqb.operators import StateVector

# Gauss-Legendre nodes of one step and the weight of the node commutator in
# the Magnus-4 exponent.
GL_NODE_A = 0.5 - math.sqrt(3.0) / 6.0
GL_NODE_B = 0.5 + math.sqrt(3.0) / 6.0
MAGNUS_COMMUTATOR_WEIGHT = math.sqrt(3.0) / 12.0

TAYLOR_TOL = 1e-12
TAYLOR_MAX_TERMS = 64
SEGMENT_NORM_BUDGET = 2.0  # max ||M||_inf handed to one Taylor segment

NORM_DRIFT_LIMIT = 1e-6

ORACLE_SUBSTEPS = 20
ORACLE_MAX_DIM = 4096

METHODS = ("magnus4", "oracle_expm")


@dataclass(frozen=True)
class PropagationConfig:
    """Grid and method knobs for one propagation run (times in 1/omega0)."""

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


class _Stepper:
    """Gauss-Magnus 4th-order stepping machinery bound to one parameter set.

    The exponent handed to the kernel is one persistent buffer on the union
    pattern of H_on = H_b + H_static, H_b and the drive quadrature.  It holds
    -i h H_on (or -i h H_b with the charger off) for the (h, on) it was last
    built for; a driven step then overwrites only the drive positions, which
    also carry the commutator omega_c (a' - a).  The drive and commutator data
    are stored on those positions only.
    """

    def __init__(self, params: ModelParams, backend: str | None = None):
        self.params = params
        dim = params.dims.total_dim
        h_batt = build_H_battery(params).mat
        a_on = (h_batt + build_H_static(params).mat).tocsr()
        drive = drive_operator(params).mat
        commutator = drive_commutator(params).mat
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
        self.kernel = CsrExpm(indptr, indices, dim, backend=backend)
        self.has_drive = params.Omega != 0.0
        self._buffer = np.empty(len(indices), dtype=np.complex128)
        self._buffer_key = None  # (h, on) the buffer's static part was built for

    def _load(self, h: float, on: bool) -> None:
        """Make the buffer hold -i h H_on (on) or -i h H_b (off)."""
        if self._buffer_key != (h, on):
            np.multiply(self.data_on if on else self.data_off, -1j * h, out=self._buffer)
            self._buffer_key = (h, on)

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


@lru_cache(maxsize=4)
def _shared_stepper(params: ModelParams, backend: str | None) -> _Stepper:
    return _Stepper(params, backend=backend)


def step_magnus4(state: StateVector, t: float, dt: float, params: ModelParams,
                 backend: str | None = None) -> StateVector:
    """One 4th-order Gauss-Magnus step (a single exponential) of the switched Hamiltonian."""
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    stepper = _shared_stepper(params, backend)
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
                "reduce dt"
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

    def build(self) -> Trajectory:
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
        )


def _check_dim(params: ModelParams, cap: int) -> None:
    dim = params.dims.total_dim
    if dim > cap:
        raise ResourceError(f"total dimension {dim} exceeds the configured bound {cap}")


def propagate(params: ModelParams, cfg: PropagationConfig | None = None,
              backend: str | None = None) -> Trajectory:
    """Evolve the initial product state over [0, t_max] and sample observables.

    Records every ``sample_stride``-th step plus the initial and final times.
    Raises IntegrationError when the state norm drifts beyond 1e-6.
    """
    cfg = cfg or PropagationConfig()
    if cfg.method == "oracle_expm":
        return oracle_propagate(params, cfg)
    _check_dim(params, cfg.max_dim)
    stepper = _Stepper(params, backend=backend)
    amps = initial_state(params).amplitudes
    recorder = _Recorder(params, StateVector(params.dims, amps))
    recorder.record(0.0, amps)
    edges = _time_grid(cfg)
    n_steps = len(edges) - 1
    for k in range(n_steps):
        t0, t1 = edges[k], edges[k + 1]
        for a, b, on in _charging_segments(t0, t1, params.T):
            if b > a:
                amps = stepper.step(amps, a, b - a, on)
        if (k + 1) % cfg.sample_stride == 0 or k + 1 == n_steps:
            recorder.record(t1, amps)
    return recorder.build()


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
