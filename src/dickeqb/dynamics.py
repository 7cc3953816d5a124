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
over a matvec.  The kernel takes the step's scalar -i h apart from the
operator and multiplies it into the factor it applies to every Taylor term.
No operator is assembled: every term of the exponent is a spin factor x
cavity factor (``model.TERMS``), and the stepper's matvec applies them on
the state viewed as a (spin, Fock) array, with one sparse product of the
real spin factors and elementwise Fock-level moves (see ``_Stepper``).
With the charger off only the diagonal H_b acts, and a step is its exact
phase.

``propagate`` steps in the reflection-even sector.  The initial state
|g...g> x |n_init> and every term of the Hamiltonian are unchanged by the
site reflection i -> N+1-i (the dipole couplings depend on |i-j| alone), so
the state never leaves the span of P = V x I_b, V the spin isometry of
``model.reflection_isometry``.  The stepper applies its operators there
from the sector spin terms V' S V, so they equal P' M P; no full-space
operator or state is stepped.  That is about half the dimension of the
full space at N >= 5, with the same step plan; each sample is lifted back
to the full joint basis before the observables are taken.
``step_magnus4`` acts on the full space, with the full spin terms, so it
stays exact on any state.

``propagate`` also takes a batch: parameter sets that share the time
dependence (Omega, omegad and T), such as the N = 1..6 points of a sweep
cell.  Their sector states are stacked, each padded to the batch's
largest Fock dimension, and their spin factors block-diagonally, so the
batch steps as one system: one spin product per matvec, one drive
coefficient c(t) and one sequence of kernel calls per interval.  The
tolerances hold per block.  An interval takes the largest step count any
block needs, since its error estimate is the largest of the per-block
||(Omega6 - Omega4) psi_k||, and the Taylor series stops only when every
block has converged against its own norm.  A block's trajectory can
therefore differ from a solo run of the same point at the MAGNUS_TOL level,
as its steps are shorter where another block needs them.  A single
parameter set is a batch of one, with no padding and the arithmetic of a
solo run.

The independent reference ``oracle_propagate`` integrates i psi' = H(t) psi
in the full space with the 8th-order Runge-Kutta method DOP853 (Hairer,
Norsett & Wanner, Solving ODEs I, Springer 1993) on the operators the
model builders assemble.  It shares only the spin and cavity terms and the
sample times with that code path and cross-validates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
    dipole_coupling,
    drive_coefficient,
    drive_operator,
    initial_state,
    reflection_isometry,
    spin_terms,
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


def _diagonal(mat) -> np.ndarray:
    """The diagonal of a sparse matrix that must have no nonzero entry off it."""
    coo = mat.tocoo()
    if np.count_nonzero(coo.data[coo.row != coo.col]):
        raise AssertionError("operator entries outside the positions read")
    return mat.diagonal()


class CsrExpm:
    """Applies exp(scale * M) @ v by a Taylor series over M's matvec.

    M is handed to ``apply`` as a function v -> M v, so the stepper passes
    the product it forms from M's spin x cavity factors and no matrix of M
    is built.  perfbench/spans.py wraps ``apply`` by replacing this module
    global, so the stepper looks the class up when it is built.
    """

    def apply(self, matvec, v, scale: complex = 1.0, segments: int = 1,
              blocks=None, first=None) -> np.ndarray:
        """exp(scale * M) @ v for M v = ``matvec(v)``.

        exp(scale * M) is applied as ``segments`` factors
        exp(scale * M / segments), each a Taylor series whose m-th term is
        the previous one times M and scale / (segments * m); it stops when
        the squared norm of its last term is at most TAYLOR_TOL^2 times the
        squared norm of the running result, and raises NumericalError after
        TAYLOR_MAX_TERMS terms.  For a block-diagonal M, ``blocks`` (slices
        of v) applies that test to every block against its own norm, and the
        series stops once all pass; None treats v as one block.  ``first``,
        M @ v when the caller already holds it, stands in for the first
        segment's first matvec and is scaled in place, as is every new array
        ``matvec`` returns.  ``v`` is not written: the first term's sum
        allocates the result.
        """
        out = np.ascontiguousarray(v, dtype=np.complex128)
        tol_sq = TAYLOR_TOL * TAYLOR_TOL
        blocks = (slice(None),) if blocks is None else blocks
        for _ in range(segments):
            term = out
            for m in range(1, TAYLOR_MAX_TERMS + 1):
                term = matvec(term) if first is None else first
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


class _BlockFactors(NamedTuple):
    """One parameter set's share of the stepper's operators.

    ``jx`` and ``flips`` act on the spin index; the other arrays are
    (spin, width) grids that multiply the state element by element, and are
    zero on the Fock levels n > N_ph that pad the block to the batch width.
    """

    jx: sp.csr_matrix  # 2g J_x
    flips: sp.csr_matrix  # sum_d eta_d F_d
    diag_off: np.ndarray  # H_b = omega0 J_z
    diag_on: np.ndarray  # omega0 J_z + omega_c n
    weights: np.ndarray  # sqrt(n + 1) for n < N_ph: a moves n + 1 to n, a' n to n + 1
    omegac: np.ndarray
    comm_drive: np.ndarray  # [a' + a, C] = 2 omega_c P
    norms: tuple  # infinity norms of H_on, a'+a and C


def _block_factors(p: ModelParams, spin, width: int) -> _BlockFactors:
    """The factors of one parameter set with spin terms ``spin``, laid out
    on ``width`` >= N_ph + 1 Fock levels.

    The infinity norms are the largest row sums of the operators, taken from
    the factors' row sums: on row (s, n), H_on holds the diagonal
    omega0 J_z + omega_c n + sum_d eta_d F_d[s, s], the off-diagonal spin
    entries of the flip-flop sum, and 2g J_x times the a'+a entries of level
    n, whose positions are all distinct.
    """
    boson_dim = p.dims.boson_dim
    fock = np.arange(width)
    inside = fock < boson_dim
    height = spin.jz.shape[0]

    def combination(pairs):
        mats = [coefficient * mat for coefficient, mat in pairs if coefficient != 0.0]
        return sum(mats[1:], mats[0]).tocsr() if mats else sp.csr_matrix((height, height))

    jx = combination([(2.0 * p.g, spin.jx)])
    flips = combination([(dipole_coupling(1, 1 + d, p), f_d)
                         for d, f_d in enumerate(spin.flip_flops, start=1)])
    h_b = p.omega0 * _diagonal(spin.jz)
    weights = np.where(fock < boson_dim - 1, np.sqrt(fock + 1.0), 0.0)
    # [a, a'] = diag(1, ..., 1, -N_ph)
    commutator = np.where(fock < boson_dim - 1, 1.0, np.where(inside, -float(p.photon_cutoff), 0.0))

    def grid(levels, rows=np.zeros(height)):
        """rows[s] + levels[n] on the block's Fock levels, 0 above them."""
        return np.where(inside, rows[:, None] + levels, 0.0)

    # Row sums of |a'+a| per Fock level, and of the spin factors per spin row.
    ladder_rows = (weights + np.concatenate(([0.0], weights[:-1])))[:boson_dim]
    off = abs(flips).tocoo()
    mask = off.row != off.col
    flip_rows = np.bincount(off.row[mask], weights=off.data[mask], minlength=height)
    jx_rows = np.asarray(abs(jx).sum(axis=1)).ravel()
    diagonal = (h_b + flips.diagonal())[:, None] + p.omegac * fock[:boson_dim]
    on_rows = flip_rows[:, None] + abs(diagonal) + jx_rows[:, None] * ladder_rows
    ladder_norm = float(ladder_rows.max())
    return _BlockFactors(
        jx=jx,
        flips=flips,
        diag_off=grid(0.0, h_b),
        diag_on=grid(p.omegac * fock, h_b),
        weights=grid(weights),
        omegac=grid(p.omegac),
        comm_drive=grid(2.0 * p.omegac * commutator),
        norms=(float(on_rows.max()), ladder_norm, p.omegac * ladder_norm),
    )


class _Stepper:
    """Gauss-Magnus 4th-order stepping machinery bound to a batch of
    parameter sets.

    ``params`` is one ModelParams or a sequence sharing Omega, omegad and T.
    Each set's operators form one block of a block-diagonal system, and
    ``blocks`` holds the slice of the amplitude vector each block owns; the
    drive coefficient c(t) is common to all blocks.

    No operator is assembled: every one is applied from its spin x cavity
    factors (``model.TERMS``).  A block with spin dimension S is laid out
    as an S x width grid, spin-major, with width the largest N_ph + 1 of
    the batch; the levels above the block's own N_ph pad it and stay zero,
    since every weight and diagonal entry there is zero.  A batch of one
    has no padding, and ``pack``/``unpack`` convert between the layout and
    each block's own coordinates.  H_on v, with the drive terms
    c (a'+a) + kappa C of a driven step, is then four parts: the real
    diagonal omega0 J_z + omega_c n times v; one sparse product of the
    block-diagonal spin stack [2g J_x ; sum_d eta_d F_d] with the state
    viewed as a real (spin, 2 width) array; its flip-flop half, added as it
    is; and its J_x half plus c v and kappa omega_c v moved one Fock level
    up (a') and down (a), each a flat shift of the state weighted by
    sqrt(n + 1), which is zero at every row's top level.  The probe of
    ``local_error`` (D, C and the nested commutators on the state) and the
    commutator [X, Y] of the estimate reuse those pieces: the probe takes
    one spin product, and each estimate one more plus a product with the
    J_x half alone.

    ``advance`` picks the step count of an interval from the per-block
    local error estimates of ``local_error``, and hands the H_on, a'+a and
    C products of that estimate to the interval's first step, whose first
    Taylor term they make up.  H_b = omega0 J_z x I is diagonal, in the
    full space and in the sector, so a step with the charger off multiplies
    by the exact phases exp(-i h diag(H_b)) and never calls the kernel.

    ``space`` says which spin terms the blocks use: the full joint space,
    or the reflection-even sector, whose coordinates the stepper then acts
    on.  The sector is exact for states in it, which no operator leaves.
    """

    def __init__(self, params, space: str = "full"):
        self.params = params
        batch = _batch(params)
        # The blocks share the time dependence, so the first one's drive
        # coefficient is every block's.
        self.clock = batch[0]
        self.boson_dims = tuple(p.dims.boson_dim for p in batch)
        self.width = max(self.boson_dims)
        parts = [_block_factors(p, spin_terms(p.N, space), self.width) for p in batch]
        heights = [part.diag_on.shape[0] for part in parts]
        self.height = sum(heights)
        edges = self.width * np.cumsum([0] + heights)
        self.blocks = tuple(slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]))
        self.jx = sp.block_diag([part.jx for part in parts], format="csr")
        self.spin_stack = sp.vstack([self.jx, sp.block_diag([part.flips for part in parts])],
                                    format="csr")
        self.diag_off = np.concatenate([part.diag_off.ravel() for part in parts])
        # The factors that multiply complex states are stored complex: NumPy
        # multiplies two complex arrays faster than a real one by a complex one.
        self.diag_on, weights, self.omegac, self.comm_drive = (
            np.concatenate([getattr(part, name).ravel() for part in parts]).astype(np.complex128)
            for name in ("diag_on", "weights", "omegac", "comm_drive"))
        self.weights = weights[:-1]
        self.omegac_sq = self.omegac * self.omegac
        # Per-block infinity norms: the stacked exponent's is their maximum.
        self.norm_on, self.norm_drive, self.norm_comm = np.array([part.norms for part in parts]).T
        # The Taylor stop tests the block with the largest H_on first, the
        # one that is slowest to converge.
        self.stop_order = tuple(self.blocks[k] for k in np.argsort(-self.norm_on, kind="stable"))
        self.kernel = CsrExpm()
        self.has_drive = self.clock.Omega != 0.0

    def pack(self, parts) -> np.ndarray:
        """The stepper's amplitudes from one vector per block, each in its
        block's own coordinates spin * (N_ph + 1) + n."""
        amps = np.zeros(self.blocks[-1].stop, dtype=np.complex128)
        for block, boson_dim, part in zip(self.blocks, self.boson_dims, parts):
            amps[block].reshape(-1, self.width)[:, :boson_dim] = np.reshape(part, (-1, boson_dim))
        return amps

    def unpack(self, amps) -> list:
        """Each block's amplitudes in its own coordinates; ``pack`` inverted."""
        return [amps[block].reshape(-1, self.width)[:, :boson_dim].ravel()
                for block, boson_dim in zip(self.blocks, self.boson_dims)]

    def _spin(self, mat, v) -> np.ndarray:
        """The real spin matrix ``mat`` (``spin_stack`` or its J_x half
        ``jx``) applied to the spin index of the state v: one sparse product
        with v viewed as a real (spin, 2 width) array, returned flat."""
        grid = np.ascontiguousarray(v, dtype=np.complex128).reshape(self.height, -1)
        return (mat @ grid.view(np.float64)).view(np.complex128).ravel()

    def _ladder(self, out, up, down) -> np.ndarray:
        """out += a' up + a down, in place, on every block's Fock levels."""
        out[1:] += self.weights * up[:-1]
        out[:-1] += self.weights * down[1:]
        return out

    def drive_scales(self, c: float, kappa: complex) -> tuple:
        """c + kappa omega_c and c - kappa omega_c, per amplitude: with
        C = omega_c (a' - a), c (a'+a) + kappa C moves the state times the
        first up a Fock level and times the second down one."""
        kappa_c = kappa * self.omegac
        return c + kappa_c, c - kappa_c

    def matvec(self, v, scales=None) -> np.ndarray:
        """(H_on + c (a'+a) + kappa C) v, given ``scales``, the
        ``drive_scales`` of c and kappa, or None for c = kappa = 0."""
        product = self._spin(self.spin_stack, v)
        jx, out = product[:len(v)], product[len(v):]
        out += self.diag_on * v
        if scales is None:
            return self._ladder(out, jx, jx)
        up, down = scales
        return self._ladder(out, jx + up * v, jx + down * v)

    def _exp(self, matvec, amps, h, norm_bounds, first=None):
        """exp(-i h M) amps for M v = matvec(v), given a bound on each
        block's norm of -i h M and, optionally, M amps."""
        segments = max(1, int(math.ceil(norm_bounds.max() / SEGMENT_NORM_BUDGET)))
        return self.kernel.apply(matvec, amps, -1j * h, segments=segments,
                                 blocks=self.stop_order, first=first)

    def step(self, amps: np.ndarray, t: float, h: float, on: bool, probe=None) -> np.ndarray:
        """Advance the amplitudes from t to t + h (charger on or off).

        ``probe``, the ``_probe`` of ``amps``, saves the driven step its
        first matvec.
        """
        if not on:
            return np.exp((-1j * h) * self.diag_off) * amps
        if not self.has_drive:
            return self._exp(self.matvec, amps, h, h * self.norm_on)
        c_a = drive_coefficient(t + GL_NODE_A * h, self.clock)
        c_b = drive_coefficient(t + GL_NODE_B * h, self.clock)
        c_mean = 0.5 * (c_a + c_b)
        c_comm = MAGNUS_COMMUTATOR_WEIGHT * h * h * (c_b - c_a)
        kappa = 1j * c_comm / h
        scales = self.drive_scales(c_mean, kappa)
        norm = h * (self.norm_on + abs(c_mean) * self.norm_drive) + abs(c_comm) * self.norm_comm
        first = None
        if probe is not None:
            k_psi, d_psi, c_psi = probe[:3]
            first = k_psi + c_mean * d_psi + kappa * c_psi
        return self._exp(lambda v: self.matvec(v, scales), amps, h, norm, first)

    def _probe(self, amps):
        """H_on, a'+a, C and the nested commutators applied to the state,
        from one spin product."""
        amps = np.ascontiguousarray(amps, dtype=np.complex128)
        product = self._spin(self.spin_stack, amps)
        jx, flips = product[:len(amps)], product[len(amps):]
        raised, lowered = np.zeros_like(amps), np.zeros_like(amps)
        np.multiply(self.weights, amps[:-1], out=raised[1:])
        np.multiply(self.weights, amps[1:], out=lowered[:-1])
        d_psi = raised + lowered
        c_psi = self.omegac * (raised - lowered)
        k_psi = self._ladder(self.diag_on * amps + flips, jx, jx)
        # [H_on, C] = omega_c^2 (a'+a) + 2 omega_c P (2g J_x)
        es_psi = self.omegac_sq * d_psi + self.comm_drive * jx
        return k_psi, d_psi, c_psi, es_psi, self.comm_drive * amps

    def local_error(self, probe, t: float, h: float) -> np.ndarray:
        """Estimated local error ||(Omega6 - Omega4) psi_k|| of a driven step,
        one per block.

        Omega6 is the three-node Gauss-Magnus-6 exponent (Blanes et al. 2009):
        alpha1 + alpha3/12 + [X, Y]/240 with X = -20 alpha1 - alpha3 + C1 and
        Y = alpha2 + C2.  For A(t) = -i (H_on + c(t) D) every commutator in it
        reduces to D, C = [H_on, D] and the nested commutators, so after the
        products in ``probe`` one estimate takes one spin product of the
        state Y acts on, and the J_x half of one of the state X acts on.
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
        # [X, Y] psi = X y_psi - Y x_psi, where Y's nested commutators need
        # only J_x of x_psi; every D and C term is one Fock move of
        # ``ladder`` up (a') and down (a).
        product = self._spin(self.spin_stack, y_psi)
        jx_y, flips_y = product[:len(y_psi)], product[len(y_psi):]
        jx_x = self._spin(self.jx, x_psi)
        ladder = x_k * jx_y + (x_d * y_psi - y_d * x_psi) - (y_e * self.omegac_sq) * x_psi
        comm = self.omegac * (x_c * y_psi - y_c * x_psi)
        xy_yx = self._ladder(
            x_k * (self.diag_on * y_psi + flips_y) - y_e * (self.comm_drive * (jx_x + k2 * x_psi)),
            ladder + comm, ladder - comm)
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

    def record(t, amps):
        for recorder, sector, part in zip(recorders, sectors, stepper.unpack(amps)):
            recorder.record(t, sector.lift(part))

    amps = stepper.pack([sector.restrict(state0.amplitudes)
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
