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
No operator is assembled: every term of the exponent is a spin factor of
the space's spin terms x a cavity factor, and the stepper's matvec applies
them on the state viewed as a (spin, Fock) array, with one sparse product
of the real spin factors and elementwise Fock-level moves (see
``_Stepper``).  With the charger off only the diagonal H_b acts, and a
step is its exact phase.

``propagate`` steps in the reflection-even sector.  The initial state
|g...g> x |n_init> and every term of the Hamiltonian are unchanged by the
site reflection i -> N+1-i (the dipole couplings depend on |i-j| alone), so
the state never leaves the span of P = V x I_b, V the spin isometry of
``model.reflection_isometry``.  The stepper applies its operators there
from the sector spin terms V' S V of ``model.even_spin_terms``, so they
equal P' M P; no full-space operator or state is stepped.  That is about
half the dimension of the full space at N >= 5, with the same step plan.
The observables are J_z moments, which the sector gives exactly: J_z has
the same value on both states of a mirror pair, so V' J_z^k V is the
sector's diagonal J_z to the k-th power.  Each sample is therefore
recorded in the sector, from |x|^2 and the ``jz`` diagonal of the sector
spin terms (see ``_Recorder``), and the final state stays there: a
trajectory's ``final_amplitudes`` are sector amplitudes, which P x maps
back to the full joint basis.  ``max_dim`` bounds the sector dimension
``model.even_sector_dim`` x (N_ph + 1), the one stepped.  Built with
``model.full_spin_terms``, the stepper acts on the full space instead,
exact on any state; the tests check the sector against it.

``propagate`` also takes a batch: parameter sets that share the time
dependence (Omega, omegad and T), such as the N = 1..6 points of a sweep
cell.  Their sector states are stacked, each padded to the batch's largest
Fock dimension, and the stepper builds their factors in one pass, the spin
factors block-diagonally (see ``_Stepper``), so the batch steps as one
system: one spin product per matvec, one drive coefficient c(t) and one
sequence of kernel calls per interval.  The tolerances hold per block.  An
interval takes the largest step count any block needs, since its error
estimate is the largest of the per-block ||(Omega6 - Omega4) psi_k||, and
the Taylor series stops only when every block has converged against its
own norm.  A block's trajectory can therefore differ from a solo run of
the same point at the MAGNUS_TOL level, as its steps are shorter where
another block needs them.  A single parameter set is a batch of one, with
no padding and the arithmetic of a solo run.

The independent reference ``oracle_propagate`` integrates i psi' = H(t) psi
in the full space with the 8th-order Runge-Kutta method DOP853 (Hairer,
Norsett & Wanner, Solving ODEs I, Springer 1993) on the operators the
model builders assemble.  It shares only the spin and cavity terms, the
sample times and the recorder, which it runs on the full space's J_z
diagonal, with that code path and cross-validates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    charger_is_on,
    dipole_coupling,
    drive_coefficient,
    drive_operator,
    even_sector_dim,
    even_spin_terms,
    full_spin_terms,
    initial_state,
)
from dickeqb.operators import require_float_fields, require_int

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


@dataclass(frozen=True)
class PropagationConfig:
    """Sample grid and dimension bound of one run (times in 1/omega0).

    ``dt * sample_stride`` is the sample spacing: observables are recorded
    at every sample_stride-th point of the dt grid and at t_max.  Neither
    ``propagate`` nor ``oracle_propagate`` steps at dt: the magnus4 step
    comes from the error bound MAGNUS_TOL, the oracle's from DOP853's own
    control at ORACLE_TOL.  ``max_dim`` bounds the dimension a run steps
    in: the reflection-even sector's for ``propagate``, per batch entry,
    and the full 2^N (N_ph + 1) for ``oracle_propagate``.
    """

    t_max: float = 20.0
    dt: float = 1e-3
    sample_stride: int = 10
    max_dim: int = 200_000

    def __post_init__(self):
        require_float_fields(self)
        if self.dt <= 0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        if self.t_max < self.dt:
            raise DomainError(f"t_max must be >= dt, got t_max={self.t_max} dt={self.dt}")
        require_int("sample_stride", self.sample_stride)
        require_int("max_dim", self.max_dim)
        if self.sample_stride < 1:
            raise DomainError(f"sample_stride must be >= 1, got {self.sample_stride}")
        if self.max_dim < 1:
            raise DomainError("max_dim must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Sampled time series of one charging run.

    ``final_amplitudes`` is the state at t_max in the space the run was
    stepped in, laid out spin index * (N_ph + 1) + n: for ``propagate`` the
    reflection-even sector, whose spin index is the column of
    ``model.reflection_isometry`` V, so (V @ amps.reshape(-1, N_ph + 1))
    flattened is the state on the full joint basis; for
    ``oracle_propagate`` the full joint basis itself.
    """

    times: np.ndarray
    E_b: np.ndarray
    P_b: np.ndarray
    dE_b: np.ndarray
    Jz_mean: np.ndarray
    norms: np.ndarray
    params: ModelParams
    final_amplitudes: np.ndarray
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


def _block_diag(blocks, heights) -> sp.csr_matrix:
    """The block-diagonal CSR matrix whose k-th block, of height
    heights[k], is the sum of c M over the (c, M) pairs of blocks[k] with
    c != 0."""
    parts = []
    for pairs, height in zip(blocks, heights):
        mats = [c * mat for c, mat in pairs if c != 0.0]
        parts.append(sum(mats[1:], mats[0]).tocsr() if mats else sp.csr_matrix((height, height)))
    return sp.block_diag(parts, format="csr")


class _Stepper:
    """Gauss-Magnus 4th-order stepping machinery bound to a batch of
    parameter sets.

    ``params`` is one ModelParams or a sequence sharing Omega, omegad and T.
    Each set's operators form one block of a block-diagonal system, and
    ``blocks`` holds the slice of the amplitude vector each block owns; the
    drive coefficient c(t) is common to all blocks.

    No operator is assembled: every one is applied from its spin x cavity
    factors.  A block with spin dimension S is laid out as an S x width
    grid, spin-major, with width the largest N_ph + 1 of the batch; the
    levels above the block's own N_ph pad it and stay zero, since every
    weight and diagonal entry there is zero.  A batch of one has no
    padding, and ``unpack`` converts the layout to each block's own
    coordinates.  H_on v, with the drive terms c (a'+a) + kappa C of a
    driven step, is then four parts: the real diagonal
    omega0 J_z + omega_c n times v; one sparse product of the
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

    ``space`` builds the blocks' spin terms: ``full_spin_terms``, or
    ``even_spin_terms`` for the reflection-even sector, exact for the
    states in it, which no operator leaves.  The constructor reads them
    once per block and builds the batch in one pass: the two spin matrices
    block-diagonally, and every diagonal and weight as one (spin row, Fock
    level) grid, which takes each row's block parameters (N_ph, omega_c,
    omega0 J_z) as a column against the levels and is zero above the
    row's N_ph.  The infinity norms reduce the same grids' row sums per
    block.
    """

    def __init__(self, params, space):
        batch = _batch(params)
        # The blocks share the time dependence, so the first one's drive
        # coefficient is every block's.
        self.clock = batch[0]
        self.boson_dims = tuple(p.dims.boson_dim for p in batch)
        self.width = max(self.boson_dims)
        spins = [space(p.N) for p in batch]
        heights = [len(spin.jz) for spin in spins]
        self.height = sum(heights)
        row_edges = np.cumsum([0] + heights)
        edges = self.width * row_edges
        self.blocks = tuple(slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]))
        # Where each block starts in the amplitudes viewed as real numbers.
        self.block_starts = 2 * edges[:-1]
        self.jx = _block_diag([[(2.0 * p.g, spin.jx)] for p, spin in zip(batch, spins)], heights)
        flips = _block_diag([[(dipole_coupling(1, 1 + d, p), f_d)
                              for d, f_d in enumerate(spin.flip_flops, start=1)]
                             for p, spin in zip(batch, spins)], heights)
        self.spin_stack = sp.vstack([self.jx, flips], format="csr")
        cutoff, omegac = (np.repeat([getattr(p, name) for p in batch], heights)[:, None]
                          for name in ("photon_cutoff", "omegac"))
        h_b = np.concatenate([p.omega0 * spin.jz for p, spin in zip(batch, spins)])[:, None]
        fock = np.arange(self.width)
        inside = fock <= cutoff
        weights = np.where(fock < cutoff, np.sqrt(fock + 1.0), 0.0)
        # [a, a'] = diag(1, ..., 1, -N_ph), and comm_drive = [a'+a, C] = 2 omega_c [a, a']
        commutator = np.where(fock < cutoff, 1.0, np.where(inside, -cutoff.astype(float), 0.0))

        def grid(levels, rows=0.0):
            """rows + levels on each row's Fock levels, 0 above them."""
            return np.where(inside, rows + levels, 0.0)

        self.diag_off = grid(0.0, h_b).ravel()
        # The factors that multiply complex states are stored complex: NumPy
        # multiplies two complex arrays faster than a real one by a complex one.
        self.diag_on, weight_grid, self.omegac, self.comm_drive = (
            grid(*args).ravel().astype(np.complex128)
            for args in ((omegac * fock, h_b), (weights,), (omegac,), (2.0 * omegac * commutator,)))
        self.weights = weight_grid[:-1]
        self.omegac_sq = self.omegac * self.omegac
        # Per-block infinity norms: the stacked exponent's is their maximum.
        # On row (s, n), H_on holds the diagonal omega0 J_z + omega_c n +
        # sum_d eta_d F_d[s, s], the off-diagonal entries of the flip-flop
        # sum, and 2g J_x times the a'+a entries of level n, all distinct.
        ladder = weights + np.pad(weights[:, :-1], ((0, 0), (1, 0)))
        off = abs(flips).tocoo()
        mask = off.row != off.col
        flip_rows = np.bincount(off.row[mask], weights=off.data[mask], minlength=self.height)
        jx_rows = np.asarray(abs(self.jx).sum(axis=1))
        diagonal = (h_b + flips.diagonal()[:, None]) + omegac * fock
        on_rows = grid(flip_rows[:, None] + abs(diagonal) + jx_rows * ladder)
        self.norm_on, self.norm_drive, self.norm_comm = (
            np.maximum.reduceat(sums.max(axis=1), row_edges[:-1])
            for sums in (on_rows, ladder, omegac * ladder))
        # The Taylor stop tests the block with the largest H_on first, the
        # one that is slowest to converge.
        self.stop_order = tuple(self.blocks[k] for k in np.argsort(-self.norm_on, kind="stable"))
        self.kernel = CsrExpm()
        self.has_drive = self.clock.Omega != 0.0

    def unpack(self, amps) -> list:
        """Each block's amplitudes in its own coordinates spin * (N_ph + 1) + n."""
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

    def _magnus4_drive(self, t: float, h: float) -> tuple:
        """c_mean = (c_a + c_b)/2 and c_comm = (sqrt(3)/12) h^2 (c_b - c_a), c_a
        and c_b the drive at the Gauss-Legendre nodes of the step [t, t + h]:
        its Magnus-4 exponent is -i h (H_on + c_mean (a'+a)) + c_comm C."""
        c_a = drive_coefficient(t + GL_NODE_A * h, self.clock)
        c_b = drive_coefficient(t + GL_NODE_B * h, self.clock)
        return 0.5 * (c_a + c_b), MAGNUS_COMMUTATOR_WEIGHT * h * h * (c_b - c_a)

    def step(self, amps: np.ndarray, t: float, h: float, on: bool, probe=None) -> np.ndarray:
        """Advance the amplitudes from t to t + h (charger on or off).

        ``probe``, the ``_probe`` of ``amps``, saves the driven step its
        first matvec.
        """
        if not on:
            return np.exp((-1j * h) * self.diag_off) * amps
        if not self.has_drive:
            return self._exp(self.matvec, amps, h, h * self.norm_on)
        c_mean, c_comm = self._magnus4_drive(t, h)
        kappa = 1j * c_comm / h
        scales = self.drive_scales(c_mean, kappa)
        norm = h * (self.norm_on + abs(c_mean) * self.norm_drive) + abs(c_comm) * self.norm_comm
        first = None if probe is None else probe[0] + c_mean * probe[1] + kappa * probe[2]
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
        one per block, from one reduction over the batch.

        Omega6 is the three-node Gauss-Magnus-6 exponent (Blanes et al. 2009):
        alpha1 + alpha3/12 + [X, Y]/240 with X = -20 alpha1 - alpha3 + C1 and
        Y = alpha2 + C2.  For A(t) = -i (H_on + c(t) D) every commutator in it
        reduces to D, C = [H_on, D] and the nested commutators, so after the
        products in ``probe`` one estimate takes one spin product of the
        state Y acts on, and the J_x half of one of the state X acts on.
        """
        k_psi, d_psi, c_psi, es_psi, ed_psi = probe
        c_mean, c_comm = self._magnus4_drive(t, h)
        k1, k2, k3 = (drive_coefficient(t + x * h, self.clock)
                      for x in (0.5 - GL3_OFFSET, 0.5, 0.5 + GL3_OFFSET))
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
        diff = ((-1j * (h * (k2 - c_mean) + b3 / 12.0)) * d_psi - c_comm * c_psi
                + xy_yx / 240.0)
        return np.sqrt(np.add.reduceat(np.square(diff.view(np.float64)), self.block_starts))

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


def _charging_segments(t0: float, t1: float, clock: ModelParams):
    """Split [t0, t1] at the edges of ``clock``'s charging window so the
    charger state, ``charger_is_on`` at each piece's midpoint, is constant
    on each piece."""
    cuts = {t0, t1}
    for c in (0.0, clock.T):
        if c is not None and t0 < c < t1:
            cuts.add(c)
    edges = sorted(cuts)
    return [(a, b, charger_is_on(0.5 * (a + b), clock)) for a, b in zip(edges[:-1], edges[1:])]


def _sample_intervals(cfg: PropagationConfig, clock: ModelParams):
    """Yield (t1, pieces) per sample interval [t0, t1]: the pieces are its
    (start, length, charger on) spans between the window edges.

    The sample times are every sample_stride-th point of the dt grid, and
    t_max.  A piece as long as the nominal spacing sample_stride * dt gets
    exactly that length, so the step width does not jitter with the float
    sample times.
    """
    n_steps = int(math.ceil(cfg.t_max / cfg.dt - 1e-9))
    times = [min(j * cfg.dt, cfg.t_max) for j in range(0, n_steps, cfg.sample_stride)]
    times.append(cfg.t_max)
    nominal = cfg.sample_stride * cfg.dt
    for t0, t1 in zip(times[:-1], times[1:]):
        pieces = []
        for a, b, on in _charging_segments(t0, t1, clock):
            length = nominal if math.isclose(b - a, nominal, rel_tol=1e-9) else b - a
            pieces.append((a, length, on))
        yield t1, pieces


class _Recorder:
    """Accumulates the sampled observable series of a batch's runs from the
    J_z moments of each sample.

    ``jzs`` holds each block's J_z diagonal, the ``jz`` of the spin terms
    it is stepped with.  A sample has the stepper's layout: block k is an
    (S_k, ``width``) grid of spin rows x Fock levels, S_k = len(jzs[k]),
    the blocks stacked in batch order, and the levels above a block's own
    N_ph are zero; a joint state in the full space is a batch of one with
    width N_ph + 1.  One product of ``moment_rows`` with |x|^2, viewed as a
    real (spin, 2 width) grid, sums |x|^2, J_z |x|^2 and J_z^2 |x|^2 over
    each block's spin rows, per Fock level; ``fock_columns`` then sums those
    over every level, and picks the top level |N_ph> for the edge
    population.  That is exact in the reflection-even sector too: J_z is
    diagonal there, with the value it has on both states of a mirror pair.
    ``build`` takes each block's final amplitudes as they were stepped.  dE_b's
    variances come from the moments divided by the block's population, so a
    norm drift inside NORM_DRIFT_LIMIT does not drive the variance of a
    near-eigenstate of J_z below VARIANCE_FLOOR; E_b and Jz_mean take the
    moments as they are.  The moments of the initial state ``amps0``, which
    dE_b is measured from, are taken once.
    """

    def __init__(self, batch, jzs, width: int, amps0: np.ndarray):
        self.batch = batch
        self.height = sum(len(jz) for jz in jzs)
        # Row q * count + k sums block k's q-th moment: its population, <J_z>,
        # <J_z^2> and top-level population.
        count = len(batch)
        self.moment_rows = np.zeros((4 * count, self.height))
        self.fock_columns = np.zeros((4 * count, 2 * width))
        self.fock_columns[:3 * count] = 1.0
        start = 0
        for k, (p, jz) in enumerate(zip(batch, jzs)):
            rows = slice(start, start + len(jz))
            ones = np.ones_like(jz)
            self.moment_rows[k::count, rows] = (ones, jz, jz * jz, ones)
            self.fock_columns[3 * count + k, 2 * p.photon_cutoff:2 * p.photon_cutoff + 2] = 1.0
            start = rows.stop
        self.moments0 = [obs.JzMoments(mean, square)
                         for _, mean, square, _ in zip(*self._moments(amps0))]
        self.times = []
        self.samples = [[] for _ in batch]
        self.edge_population = [0.0] * count

    def _moments(self, amps: np.ndarray) -> list:
        """Each block's population, <J_z>, <J_z^2> and top-level population,
        as four lists over the blocks."""
        prob = np.square(amps.view(np.float64)).reshape(self.height, -1)
        moments = ((self.moment_rows @ prob) * self.fock_columns).sum(axis=1)
        return moments.reshape(4, -1).tolist()

    def record(self, t: float, amps: np.ndarray) -> None:
        """Record the sample ``amps`` (contiguous) at time t."""
        pops, means, squares, tops = self._moments(amps)
        norms = [math.sqrt(pop) for pop in pops]
        for p, nrm in zip(self.batch, norms):
            if not abs(nrm - 1.0) <= NORM_DRIFT_LIMIT:
                raise IntegrationError(
                    f"norm drift {abs(nrm - 1.0):.3e} at t={t:.6g} (N={p.N}) exceeds "
                    f"{NORM_DRIFT_LIMIT}; the Taylor kernel's drift grows with ||H|| and the "
                    "run length, not with dt: lower the photon cutoff N_ph or shorten t_max"
                )
        self.times.append(t)
        for k, p in enumerate(self.batch):
            energy = obs.stored_energy(obs.JzMoments(means[k], squares[k]), p)
            normalised = obs.JzMoments(means[k] / pops[k], squares[k] / pops[k])
            self.samples[k].append((energy, obs.charging_power(energy, t),
                                    obs.energy_fluctuation(normalised, self.moments0[k], p),
                                    means[k], norms[k]))
            self.edge_population[k] = max(self.edge_population[k], tops[k])

    def build(self, finals, steps: int = 0, step_errors=None) -> list:
        """One Trajectory per block, with ``finals`` each block's final
        amplitudes in its own coordinates spin * (N_ph + 1) + n."""
        step_errors = [0.0] * len(self.batch) if step_errors is None else step_errors
        trajectories = []
        for p, samples, final, edge, error in zip(
                self.batch, self.samples, finals, self.edge_population, step_errors):
            E_b, P_b, dE_b, jz_mean, norms = (np.array(column) for column in zip(*samples))
            trajectories.append(Trajectory(
                times=np.asarray(self.times),
                E_b=E_b,
                P_b=P_b,
                dE_b=dE_b,
                Jz_mean=jz_mean,
                norms=norms,
                params=p,
                final_amplitudes=final,
                edge_population=edge,
                steps=steps,
                step_error=float(error),
            ))
        return trajectories


def _check_dim(dim: int, cap: int, which: str) -> None:
    """ResourceError when ``dim``, the ``which`` dimension ("sector" or
    "total") of a run, exceeds ``cap``."""
    if dim > cap:
        raise ResourceError(f"{which} dimension {dim} exceeds the configured bound {cap}")


def propagate(params, cfg: PropagationConfig | None = None):
    """Evolve the initial product state over [0, t_max] and sample observables.

    ``params`` is one ModelParams, which gives one Trajectory, or a sequence
    of them that shares Omega, omegad and T (else ContractError), which gives
    one Trajectory per entry, in order.  Records at every
    ``sample_stride``-th point of the dt grid plus the initial and final
    times.  The run steps from sample to sample, each interval in
    the fewest equal steps that meet MAGNUS_TOL, in the reflection-even
    sector: the initial state and the Hamiltonian are unchanged by the site
    reflection, so the state stays there.  A batch steps as one
    block-diagonal system with the tolerances held per block (see the module
    docstring); each entry reports the batch's step count and its own error
    estimate.  Each final state is kept in the sector (see ``Trajectory``).
    Raises ResourceError when an entry's sector dimension
    ``model.even_sector_dim(N)`` x (N_ph + 1) exceeds ``max_dim``, before
    anything is built, and IntegrationError when an entry's norm drifts
    beyond 1e-6.
    """
    batch = _batch(params)
    cfg = cfg or PropagationConfig()
    for p in batch:
        _check_dim(even_sector_dim(p.N) * p.dims.boson_dim, cfg.max_dim, "sector")
    stepper = _Stepper(batch, even_spin_terms)
    # |g...g> is spin state 0 of the sector (column 0 of reflection_isometry),
    # so each block starts as the unit vector at (0, n_init).
    amps = np.zeros(stepper.blocks[-1].stop, dtype=np.complex128)
    for block, p in zip(stepper.blocks, batch):
        amps[block.start + p.initial_photons] = 1.0
    recorder = _Recorder(batch, [even_spin_terms(p.N).jz for p in batch], stepper.width, amps)
    recorder.record(0.0, amps)
    steps, step_errors = 0, np.zeros(len(batch))
    for t1, pieces in _sample_intervals(cfg, batch[0]):
        for a, length, on in pieces:
            amps, n, errors = stepper.advance(amps, a, length, on)
            steps += n
            step_errors += errors
        recorder.record(t1, amps)
    trajectories = recorder.build(stepper.unpack(amps), steps=steps, step_errors=step_errors)
    return trajectories[0] if isinstance(params, ModelParams) else trajectories


def oracle_propagate(params: ModelParams, cfg: PropagationConfig | None = None) -> Trajectory:
    """Independent reference propagation: DOP853 on i psi' = H(t) psi.

    Integrates in the full joint space with the model's real CSR matrices
    H_b, H_static and a'+a, at rtol = atol = ORACLE_TOL, with one solve per
    (start, length, charger on) piece of the sample intervals magnus4 walks,
    so both record at the same times.  DOP853 is not unitary; the recorder's norm guard
    still applies.  The final amplitudes are on the full joint basis.  Raises
    ResourceError when the full dimension 2^N (N_ph + 1) exceeds ``max_dim``
    and NumericalError when a solve fails.
    """
    # Imported here: scipy.integrate would add ~0.3 s to every CLI start.
    from scipy.integrate import solve_ivp

    cfg = cfg or PropagationConfig()
    _check_dim(params.dims.total_dim, cfg.max_dim, "total")
    h_off = build_H_battery(params)
    h_on = h_off + build_H_static(params)
    drive = drive_operator(params)

    def rhs_on(t, y):
        return -1j * (h_on @ y + drive_coefficient(t, params) * (drive @ y))

    def rhs_off(t, y):
        return -1j * (h_off @ y)

    amps = initial_state(params).amplitudes
    recorder = _Recorder((params,), [full_spin_terms(params.N).jz], params.dims.boson_dim, amps)
    recorder.record(0.0, amps)
    for t1, pieces in _sample_intervals(cfg, params):
        for a, length, on in pieces:
            sol = solve_ivp(rhs_on if on else rhs_off, (a, a + length), amps,
                            method="DOP853", rtol=ORACLE_TOL, atol=ORACLE_TOL)
            if not sol.success:
                raise NumericalError(f"DOP853 failed on [{a:.6g}, {a + length:.6g}]: {sol.message}")
            amps = np.ascontiguousarray(sol.y[:, -1])
        recorder.record(t1, amps)
    return recorder.build([amps])[0]
