import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse

from dickeqb import dynamics, model
from dickeqb.dynamics import (
    MAGNUS_TOL,
    CsrExpm,
    PropagationConfig,
    Trajectory,
    _Recorder,
    _Stepper,
    _charging_segments,
    _sample_intervals,
    oracle_propagate,
    propagate,
)
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
    drive_operator,
    initial_state,
    even_sector_dim,
    even_spin_terms,
    full_spin_terms,
    reflection_isometry,
    static_hamiltonian,
)
from dickeqb.observables import charging_power, energy_fluctuation, jz_moments, stored_energy
from dickeqb.operators import StateVector
from reference import boson_matrix, expectation, lift, pack, step_magnus4

# Every test that takes a spin space runs in both: the full space and the
# reflection-even sector.
BY_SPACE = pytest.mark.parametrize("space", [full_spin_terms, even_spin_terms],
                                   ids=["full", "even"])


def _space_dim(p, space):
    """The joint dimension of ``space`` at p: its spin dimension x (N_ph + 1)."""
    return len(space(p.N).jz) * p.dims.boson_dim


class TestPropagationConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0),
            dict(dt=-1e-3),
            dict(t_max=1e-4, dt=1e-3),
            dict(sample_stride=0),
            dict(max_dim=0),
            dict(dt=float("nan")),
            dict(t_max=float("nan")),
            dict(t_max=float("inf")),
            dict(sample_stride=2.5),
            dict(sample_stride=True),
            dict(max_dim=1e5),
            dict(max_dim=False),
            dict(t_max=True),
            dict(dt="0.1"),
            dict(dt=None),
            dict(t_max=[1.0]),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            PropagationConfig(**kwargs)

    def test_numpy_integer_counts(self):
        cfg = PropagationConfig(sample_stride=np.int64(5), max_dim=np.int32(1000))
        assert (cfg.sample_stride, cfg.max_dim) == (5, 1000)


class TestChargingSegments:
    def test_no_window(self):
        assert _charging_segments(0.0, 1.0, ModelParams(N=1)) == [(0.0, 1.0, True)]

    def test_switch_off_inside_step(self):
        segs = _charging_segments(0.9, 1.1, ModelParams(N=1, T=1.0))
        assert segs == [(0.9, 1.0, True), (1.0, 1.1, False)]

    def test_switch_on_at_zero(self):
        segs = _charging_segments(-0.05, 0.05, ModelParams(N=1))
        assert segs == [(-0.05, 0.0, False), (0.0, 0.05, True)]

    def test_fully_after_window(self):
        assert _charging_segments(3.0, 3.5, ModelParams(N=1, T=2.0)) == [(3.0, 3.5, False)]


class TestStepMagnus4:
    def test_time_independent_step_equals_expm(self):
        # without a drive one step is exactly exp(-i H dt) up to Taylor tolerance
        p = ModelParams(N=2, g=0.6, eta=0.4, Omega=0.0, N_ph=3, n_init=1)
        dt = 0.05
        h = static_hamiltonian(p).toarray()
        psi0 = initial_state(p)
        want = scipy.linalg.expm(-1j * dt * h) @ psi0.amplitudes
        got = step_magnus4(psi0, 0.0, dt, p)
        assert np.abs(got.amplitudes - want).max() < 1e-12

    def test_driven_step_equals_dense_magnus4(self):
        # one exponential of -i dt (H_on + c_mean D) + (sqrt3/12) dt^2 (c_b - c_a) [H_on, D]
        p = ModelParams(N=2, g=0.6, eta=0.4, Omega=0.9, omegac=1.3, omegad=0.7,
                        N_ph=3, n_init=1)
        t, dt = 2.0, 0.05
        h_on = static_hamiltonian(p).toarray()
        d = drive_operator(p).toarray()
        c_a, c_b = (drive_coefficient(t + x * dt, p)
                    for x in (0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6))
        exponent = (-1j * dt * (h_on + 0.5 * (c_a + c_b) * d)
                    + np.sqrt(3) / 12 * dt**2 * (c_b - c_a) * (h_on @ d - d @ h_on))
        psi0 = initial_state(p)
        amps0 = psi0.amplitudes.copy()
        want = scipy.linalg.expm(exponent) @ psi0.amplitudes
        got = step_magnus4(psi0, t, dt, p)
        assert np.abs(got.amplitudes - want).max() < 1e-12
        # The input state is left as it was.
        assert np.array_equal(psi0.amplitudes, amps0)

    def test_step_off_window_uses_battery_only(self):
        p = ModelParams(N=1, g=0.9, Omega=1.0, N_ph=2, n_init=1, T=1.0)
        psi0 = initial_state(p)
        got = step_magnus4(psi0, 5.0, 0.1, p)  # past T: diagonal phases only
        phases = np.exp(-1j * 0.1 * (-0.5) * np.ones(1))
        assert got.amplitudes[1] == pytest.approx(psi0.amplitudes[1] * phases[0], abs=1e-12)

    def test_fourth_order_convergence(self):
        # halving dt shrinks the global error ~16x against the DOP853 oracle
        p = ModelParams(N=2, N_ph=4, g=0.5, Omega=1.0, eta=0.8, n_init=2)
        ref_cfg = PropagationConfig(t_max=1.0, dt=5e-4, sample_stride=2000)
        ref = oracle_propagate(p, ref_cfg).final_amplitudes
        errs = []
        for n in (10, 20, 40):
            dt = 1.0 / n
            amps = initial_state(p)
            for k in range(n):
                amps = step_magnus4(amps, k * dt, dt, p)
            errs.append(np.linalg.norm(amps.amplitudes - ref))
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        for rate in rates:
            assert rate == pytest.approx(4.0, abs=0.2)


class TestPropagate:
    def test_decoupled_battery_stores_nothing(self):
        p = ModelParams(N=2, g=0.0, Omega=0.0, eta=0.0, N_ph=2, n_init=2)
        traj = propagate(p, PropagationConfig(t_max=2.0, dt=1e-3, sample_stride=50))
        assert np.abs(traj.E_b).max() < 1e-12

    def test_weak_coupling_rabi_peak(self):
        # single excitation exchange: E_b ~ sin^2(g t), peak ~1 at pi/(2g)
        p = ModelParams(N=1, g=0.05, Omega=0.0, eta=0.0, n_init=1)
        cfg = PropagationConfig(t_max=35.0, dt=2e-3, sample_stride=25)
        traj = propagate(p, cfg)
        t_peak = np.pi / (2 * 0.05)
        idx = int(np.argmin(np.abs(traj.times - t_peak)))
        assert traj.E_b[idx] > 0.98
        assert abs(traj.times[int(np.argmax(traj.E_b))] - t_peak) < 0.02 * t_peak

    def test_matches_oracle_on_driven_instance(self):
        p = ModelParams(N=2, N_ph=8, g=0.5, Omega=1.0, eta=0.8)
        cfg = PropagationConfig(t_max=2.0, dt=1e-3, sample_stride=20)
        t_m = propagate(p, cfg)
        t_o = oracle_propagate(p, cfg)
        assert np.array_equal(t_m.times, t_o.times)
        assert np.abs(t_m.E_b - t_o.E_b).max() < 1e-8
        overlap = np.vdot(lift(p, t_m.final_amplitudes), t_o.final_amplitudes)
        assert 1.0 - abs(overlap) ** 2 < 1e-10

    def test_matches_oracle_at_production_size(self):
        # the evolve-n8 point: joint dimension 8448
        p = ModelParams(N=8, g=0.5, Omega=1.0, eta=0.8)
        cfg = PropagationConfig(t_max=0.5, dt=1e-3, sample_stride=10)
        t_m = propagate(p, cfg)
        t_o = oracle_propagate(p, cfg)
        assert p.dims.total_dim == 8448
        assert np.array_equal(t_m.times, t_o.times)
        assert np.abs(t_m.E_b - t_o.E_b).max() < 1e-8
        overlap = np.vdot(lift(p, t_m.final_amplitudes), t_o.final_amplitudes)
        assert 1.0 - abs(overlap) ** 2 < 1e-10

    def test_oracle_decoupled_state_is_phase_rotation(self):
        # g = Omega = eta = 0: the initial basis state only picks up a phase
        p = ModelParams(N=2, g=0.0, Omega=0.0, eta=0.0, N_ph=3, n_init=2)
        cfg = PropagationConfig(t_max=1.0, dt=0.05, sample_stride=5)
        traj = oracle_propagate(p, cfg)
        final = traj.final_amplitudes
        start = initial_state(p).amplitudes
        overlap = abs(np.vdot(start, final))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert np.abs(traj.E_b).max() < 1e-12

    def test_unitarity_random_draws(self):
        rng = np.random.default_rng(77)
        for _ in range(3):
            p = ModelParams(
                N=int(rng.integers(1, 4)),
                g=float(rng.uniform(0, 2)),
                Omega=float(rng.uniform(0, 2)),
                eta=float(rng.uniform(-1, 1)),
            )
            traj = propagate(p, PropagationConfig(t_max=5.0, dt=2e-3, sample_stride=50))
            assert np.abs(traj.norms - 1.0).max() < 1e-8

    def test_energy_conserved_without_drive(self):
        p = ModelParams(N=2, g=0.8, Omega=0.0, eta=-0.6, N_ph=6)
        h_op = static_hamiltonian(p)
        state = initial_state(p)
        energies = [expectation(state, h_op)]
        dt, n = 2e-2, 150
        for k in range(n):
            state = step_magnus4(state, k * dt, dt, p)
            if (k + 1) % 25 == 0:
                energies.append(expectation(state, h_op))
        assert np.abs(np.diff(energies)).max() < 1e-8

    def test_charging_window_freezes_energy(self):
        # after the sudden switch-off only H_b acts, so E_b stays constant
        p = ModelParams(N=2, g=0.7, Omega=0.5, eta=0.3, T=1.0, N_ph=8)
        cfg = PropagationConfig(t_max=2.0, dt=1e-3, sample_stride=10)
        traj = propagate(p, cfg)
        after = traj.E_b[traj.times >= 1.0]
        assert np.abs(after - after[0]).max() < 1e-9

    def test_dimension_cap(self):
        p = ModelParams(N=4, N_ph=100)
        with pytest.raises(ResourceError):
            propagate(p, PropagationConfig(t_max=1.0, dt=0.1, max_dim=500))

    def test_oracle_dimension_cap(self):
        p = ModelParams(N=4, N_ph=100)  # 16 * 101 > max_dim
        with pytest.raises(ResourceError):
            oracle_propagate(p, PropagationConfig(t_max=1.0, dt=0.1, max_dim=500))

    def test_cap_bounds_the_stepped_dimension(self):
        # N = 4, N_ph = 10: a sector of 10 * 11 = 110 and a full space of
        # 16 * 11 = 176, on either side of the cap
        p = ModelParams(N=4, N_ph=10, g=0.5, Omega=1.0, eta=0.8)
        cfg = PropagationConfig(t_max=0.2, dt=0.01, sample_stride=10, max_dim=150)
        assert propagate(p, cfg).final_amplitudes.shape == (110,)
        with pytest.raises(ResourceError, match="total dimension 176 exceeds"):
            oracle_propagate(p, cfg)

    def test_default_cap_admits_the_n12_sector(self, monkeypatch):
        # N = 12, N_ph = 48: a sector of 2080 * 49 = 101,920 under the
        # default 200,000 and a full space of 200,704 over it.  Building the
        # stepper means the check passed; the run stops there.
        class Passed(Exception):
            pass

        def stop(*args):
            raise Passed

        monkeypatch.setattr(dynamics, "_Stepper", stop)
        p = ModelParams(N=12, N_ph=48)
        with pytest.raises(Passed):
            propagate(p)
        with pytest.raises(ResourceError, match="total dimension 200704 exceeds"):
            oracle_propagate(p)

    def test_oracle_solver_failure_raises(self, monkeypatch):
        class Failed:
            success = False
            message = "step size fell below the spacing of floats"

        monkeypatch.setattr(scipy.integrate, "solve_ivp", lambda *args, **kwargs: Failed())
        p = ModelParams(N=1, g=0.3, N_ph=2, n_init=1)
        with pytest.raises(NumericalError, match="DOP853 failed"):
            oracle_propagate(p, PropagationConfig(t_max=0.5, dt=1e-2, sample_stride=10))

    def test_norm_drift_guard(self):
        p = ModelParams(N=1, N_ph=1, n_init=0)
        amps = initial_state(p).amplitudes
        rec = _Recorder((p,), [full_spin_terms(p.N).jz], p.dims.boson_dim, amps)
        bad = amps * 1.001
        with pytest.raises(IntegrationError,
                           match=r"^norm drift .* lower the photon cutoff N_ph or shorten t_max$"):
            rec.record(0.5, bad)

    def test_norm_drift_guard_catches_nan(self):
        p = ModelParams(N=1, N_ph=1, n_init=0)
        amps = initial_state(p).amplitudes
        rec = _Recorder((p,), [full_spin_terms(p.N).jz], p.dims.boson_dim, amps)
        bad = amps.copy()
        bad[0] = np.nan
        with pytest.raises(IntegrationError, match=r"^norm drift nan at t=0\.5"):
            rec.record(0.5, bad)

    def test_norm_drift_guard_is_per_block(self):
        # Only the padded second block drifts.
        batch = [ModelParams(N=2, N_ph=3, n_init=1), ModelParams(N=3, N_ph=1, n_init=0)]
        stepper = _Stepper(batch, even_spin_terms)
        parts = [np.eye(1, _space_dim(p, even_spin_terms), p.initial_photons)[0] for p in batch]
        amps = pack(stepper, parts)
        rec = _Recorder(batch, [even_spin_terms(p.N).jz for p in batch], stepper.width, amps)
        rec.record(0.0, amps)
        with pytest.raises(IntegrationError, match=r"^norm drift 1\.000e-03 at t=0\.5 \(N=3\) .* "
                                                   r"lower the photon cutoff N_ph or shorten t_max$"):
            rec.record(0.5, pack(stepper, [parts[0], 1.001 * parts[1]]))

    def test_drift_inside_the_limit_records(self):
        # |ggg> x |0> scaled by 1 + 5e-7 drifts inside NORM_DRIFT_LIMIT; its
        # J_z variance, taken from moments not divided by the population,
        # read -2.25e-6 and raised
        batch = [ModelParams(N=2, N_ph=3, n_init=1), ModelParams(N=3, N_ph=1, n_init=0)]
        stepper = _Stepper(batch, even_spin_terms)
        parts = [np.eye(1, _space_dim(p, even_spin_terms), p.initial_photons)[0] for p in batch]
        amps = pack(stepper, parts)
        rec = _Recorder(batch, [even_spin_terms(p.N).jz for p in batch], stepper.width, amps)
        rec.record(0.0, amps)
        rec.record(0.5, pack(stepper, [parts[0], (1.0 + 5e-7) * parts[1]]))
        energy, _, spread, jz_mean, norm = rec.samples[1][-1]
        assert norm == pytest.approx(1.0 + 5e-7, abs=1e-15)
        assert jz_mean == pytest.approx(-1.5 * norm**2, abs=1e-15)
        assert energy == pytest.approx(1.5 * (1.0 - norm**2), abs=1e-15)
        assert abs(spread) <= 1e-7

    def test_sampling_grid(self):
        p = ModelParams(N=1, g=0.1, N_ph=2, n_init=1)
        cfg = PropagationConfig(t_max=1.0, dt=0.1, sample_stride=3)
        traj = propagate(p, cfg)
        # steps 0,3,6,9 plus the forced final step 10
        assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])

    def test_partial_final_step(self):
        p = ModelParams(N=1, g=0.1, N_ph=2, n_init=1)
        cfg = PropagationConfig(t_max=0.55, dt=0.1, sample_stride=100)
        traj = propagate(p, cfg)
        assert traj.times[-1] == pytest.approx(0.55)
        assert np.abs(traj.norms - 1.0).max() < 1e-10


    def test_edge_population_tracks_top_fock_level(self):
        # uncoupled and undriven, the cavity stays in its initial Fock state
        cfg = PropagationConfig(t_max=0.5, dt=0.05, sample_stride=2)
        full = propagate(ModelParams(N=2, N_ph=3, n_init=3), cfg)
        empty = propagate(ModelParams(N=2, N_ph=3, n_init=1), cfg)
        assert full.edge_population == pytest.approx(1.0, abs=1e-12)
        assert empty.edge_population == 0.0


def _full_space_run(batch, cfg):
    """propagate's step plan replayed on the batch by a full-space stepper,
    each sample's observables taken from its joint states with
    ``jz_moments``."""
    stepper = _Stepper(batch, full_spin_terms)
    amps = pack(stepper, [initial_state(p).amplitudes for p in batch])
    times, samples, steps = [0.0], [stepper.unpack(amps)], 0
    for t1, pieces in _sample_intervals(cfg, batch[0]):
        for a, length, on in pieces:
            amps, n, _ = stepper.advance(amps, a, length, on)
            steps += n
        times.append(t1)
        samples.append(stepper.unpack(amps))
    runs = []
    for k, p in enumerate(batch):
        states = [StateVector(p.dims, sample[k].copy(), norm_atol=1e-8) for sample in samples]
        moments = [jz_moments(state) for state in states]
        energies = [stored_energy(m, p) for m in moments]
        tops = [state.amplitudes[p.photon_cutoff::p.dims.boson_dim] for state in states]
        runs.append(Trajectory(
            times=np.array(times),
            E_b=np.array(energies),
            P_b=np.array([charging_power(e, t) for e, t in zip(energies, times)]),
            dE_b=np.array([energy_fluctuation(m, moments[0], p) for m in moments]),
            Jz_mean=np.array([m.mean for m in moments]),
            norms=np.array([np.linalg.norm(state.amplitudes) for state in states]),
            params=p,
            final_amplitudes=states[-1].amplitudes,
            edge_population=max(float(np.vdot(top, top).real) for top in tops),
            steps=steps,
        ))
    return runs


# T = 0.55 splits a sample interval.  The batch pads N = 1..5 to N = 6's
# Fock dimension, each block with its own omegac.
REPLAY_CASES = {
    "direct": [ModelParams(N=5, N_ph=6, g=0.5, Omega=1.0, omegac=1.2, T=0.55, eta=0.8)],
    "geometric": [ModelParams(N=5, N_ph=6, g=0.5, Omega=1.0, omegac=1.2, T=0.55,
                              coupling_mode="geometric", alpha_angle=0.4)],
    "padded-batch": [ModelParams(N=n, g=0.5, Omega=1.0, eta=0.8, omegac=0.8 + 0.1 * n, T=0.55)
                     for n in range(1, 7)],
}


class TestReflectionSector:
    @pytest.mark.parametrize("case", REPLAY_CASES)
    def test_matches_full_space_replay(self, case):
        batch = REPLAY_CASES[case]
        cfg = PropagationConfig(t_max=1.0, dt=0.01, sample_stride=10)
        for got, want in zip(propagate(batch, cfg), _full_space_run(batch, cfg), strict=True):
            assert got.steps == want.steps > len(got.times) - 1
            assert np.array_equal(got.times, want.times)
            for name in ("E_b", "P_b", "dE_b", "Jz_mean", "norms"):
                assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 1e-12, name
            assert abs(got.edge_population - want.edge_population) <= 1e-12
            lifted = lift(got.params, got.final_amplitudes)
            assert np.abs(lifted - want.final_amplitudes).max() <= 1e-12

    def test_matches_oracle_on_geometric_chain(self):
        # a 4-site chain has couplings at every distance 1..3
        p = ModelParams(N=4, N_ph=2, n_init=2, g=0.5, Omega=1.0,
                        coupling_mode="geometric", alpha_angle=0.4)
        cfg = PropagationConfig(t_max=0.2, dt=1e-3, sample_stride=20)
        t_m = propagate(p, cfg)
        t_o = oracle_propagate(p, cfg)
        assert np.array_equal(t_m.times, t_o.times)
        assert np.abs(t_m.E_b - t_o.E_b).max() < 1e-8
        overlap = np.vdot(lift(p, t_m.final_amplitudes), t_o.final_amplitudes)
        assert 1.0 - abs(overlap) ** 2 < 1e-10

    def test_kernel_acts_on_the_sector(self, monkeypatch):
        steppers = []

        class Recording(_Stepper):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                steppers.append(self)

        monkeypatch.setattr(dynamics, "_Stepper", Recording)
        p = ModelParams(N=3, g=0.5, Omega=1.0, eta=0.8, N_ph=4)
        traj = propagate(p, PropagationConfig(t_max=0.2, dt=0.01, sample_stride=10))
        # (2^3 + 2^2) / 2 = 6 even spin states, each with 5 photon levels
        assert steppers[0].spin_stack.shape == (2 * 6, 6)
        assert steppers[0].blocks == (slice(0, 6 * 5),)
        assert traj.final_amplitudes.shape == (6 * 5,)


class TestStepperBuffer:
    @pytest.mark.parametrize("T", [0.23, 0.2])
    def test_reuse_matches_fresh_steppers(self, T):
        # t_max is no multiple of dt and T splits an interval (0.23) or sits on
        # a sample time (0.2), so step width and charger state change along
        # the run; replaying the step plan with a fresh stepper per piece
        # must give the same state
        p = ModelParams(N=2, g=0.5, Omega=0.8, eta=0.3, N_ph=4, T=T)
        cfg = PropagationConfig(t_max=0.37, dt=0.05, sample_stride=1)
        traj = propagate(p, cfg)
        amps = initial_state(p).amplitudes
        energies = [stored_energy(jz_moments(StateVector(p.dims, amps)), p)]
        for _, pieces in _sample_intervals(cfg, p):
            for a, length, on in pieces:
                amps, _, _ = _Stepper(p, full_spin_terms).advance(amps, a, length, on)
            energies.append(stored_energy(jz_moments(StateVector(p.dims, amps, norm_atol=1e-8)), p))
        assert np.abs(lift(p, traj.final_amplitudes) - amps).max() < 1e-14
        assert np.abs(traj.E_b - energies).max() < 1e-14


def _dense_exponents(p, t, h):
    """Dense Gauss-Magnus-4 and -6 exponents (Blanes et al. 2009) of one step."""
    h_on = static_hamiltonian(p).toarray()
    d = drive_operator(p).toarray()

    def gen(x):
        return -1j * (h_on + drive_coefficient(t + x * h, p) * d)

    def comm(x, y):
        return x @ y - y @ x

    a1, a2 = gen(0.5 - math.sqrt(3) / 6), gen(0.5 + math.sqrt(3) / 6)
    omega4 = 0.5 * h * (a1 + a2) + math.sqrt(3) / 12 * h**2 * comm(a2, a1)
    b1, b2, b3 = gen(0.5 - math.sqrt(15) / 10), gen(0.5), gen(0.5 + math.sqrt(15) / 10)
    alpha1 = h * b2
    alpha2 = math.sqrt(15) * h / 3 * (b3 - b1)
    alpha3 = 10 * h / 3 * (b3 - 2 * b2 + b1)
    c1 = comm(alpha1, alpha2)
    c2 = -comm(alpha1, 2 * alpha3 + c1) / 60
    omega6 = alpha1 + alpha3 / 12 + comm(-20 * alpha1 - alpha3 + c1, alpha2 + c2) / 240
    return omega4, omega6


def _state_at(p, t):
    """A generic state: the initial state evolved under H_on for time t."""
    h_on = static_hamiltonian(p).toarray()
    return scipy.linalg.expm(-1j * t * h_on) @ initial_state(p).amplitudes


class TestLocalError:
    def test_equals_dense_magnus6_difference(self):
        p = ModelParams(N=2, g=0.6, eta=0.4, Omega=0.9, omegac=1.3, omegad=0.7, N_ph=4)
        stepper = _Stepper(p, full_spin_terms)
        psi = _state_at(p, 0.9)
        probe = stepper._probe(psi)
        for t, h in ((0.3, 0.05), (2.0, 0.2)):
            omega4, omega6 = _dense_exponents(p, t, h)
            want = np.linalg.norm((omega6 - omega4) @ psi)
            assert stepper.local_error(probe, t, h) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("g, Omega, eta", [(2.0, 0.1, -0.5), (0.5, 1.0, 0.8)])
    @pytest.mark.parametrize("h", [0.01, 0.02, 0.05, 0.1])
    def test_tracks_true_local_error(self, g, Omega, eta, h):
        # true error of one magnus4 step against 8 dense Magnus-6 substeps
        p = ModelParams(N=3, g=g, Omega=Omega, eta=eta)
        stepper = _Stepper(p, full_spin_terms)
        for t in (0.7, 3.1):
            psi = _state_at(p, t)
            ref = psi
            for i in range(8):
                ref = scipy.linalg.expm(_dense_exponents(p, t + i * h / 8, h / 8)[1]) @ ref
            true = np.linalg.norm(step_magnus4(StateVector(p.dims, psi), t, h, p).amplitudes - ref)
            ratio = stepper.local_error(stepper._probe(psi), t, h) / true
            assert 0.5 <= ratio <= 4.0, (t, ratio)

    def test_zero_without_drive_or_charger(self):
        p = ModelParams(N=2, g=0.7, Omega=0.0, eta=0.3, N_ph=6)
        traj = propagate(p, PropagationConfig(t_max=1.0, dt=1e-3, sample_stride=25))
        assert traj.step_error == 0.0
        assert traj.steps == len(traj.times) - 1
        driven = ModelParams(N=2, g=0.7, Omega=1.0, N_ph=6, T=1.0)
        stepper = _Stepper(driven, full_spin_terms)
        amps, n, error = stepper.advance(initial_state(driven).amplitudes, 2.0, 0.5, False)
        assert (n, error) == (1, 0.0)


class TestBatch:
    # Different N, N_ph, n_init, couplings and omegac; one drive and one T,
    # which splits the sample interval [0.5, 0.6].
    BATCH = (
        ModelParams(N=3, N_ph=5, n_init=2, g=0.5, eta=0.8, Omega=1.0, T=0.55),
        ModelParams(N=1, N_ph=3, n_init=0, g=0.9, omegac=1.3, Omega=1.0, T=0.55),
        ModelParams(N=4, N_ph=4, n_init=4, g=0.3, Omega=1.0, T=0.55,
                    coupling_mode="geometric", alpha_angle=0.4),
    )
    CFG = PropagationConfig(t_max=1.0, dt=0.01, sample_stride=10)

    def test_matches_solo_runs(self):
        got = propagate(list(self.BATCH), self.CFG)
        assert len(got) == len(self.BATCH)
        for p, traj in zip(self.BATCH, got):
            solo = propagate(p, self.CFG)
            assert traj.params == p
            assert traj.steps == got[0].steps
            assert np.array_equal(traj.times, solo.times)
            for name in ("E_b", "dE_b", "Jz_mean"):
                assert np.abs(getattr(traj, name) - getattr(solo, name)).max() <= 1e-8, name
            assert traj.final_amplitudes.shape == (even_sector_dim(p.N) * p.dims.boson_dim,)
            assert 0.0 < traj.step_error <= 10 * MAGNUS_TOL * self.CFG.t_max

    def test_batch_of_one_is_the_solo_run(self):
        p = self.BATCH[0]
        (got,), want = propagate([p], self.CFG), propagate(p, self.CFG)
        for name in ("E_b", "dE_b", "Jz_mean", "norms"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert (got.steps, got.step_error) == (want.steps, want.step_error)

    def test_copies_step_like_the_solo_run(self):
        # Identical blocks need the same step count, which the batch must
        # take; an estimate from the stacked vector would take more.
        p = ModelParams(N=3, g=0.5, Omega=1.0, eta=0.8, T=1.23)
        cfg = PropagationConfig(t_max=2.0, dt=0.01, sample_stride=10)
        solo = propagate(p, cfg)
        for traj in propagate([p, p, p], cfg):
            assert traj.steps == solo.steps
            assert traj.step_error == pytest.approx(solo.step_error, rel=1e-9)
            assert np.abs(traj.E_b - solo.E_b).max() <= 1e-12

    def test_error_estimate_is_per_block(self):
        batch = [ModelParams(N=2, g=0.6, eta=0.4, Omega=0.9, omegac=1.3, omegad=0.7, N_ph=4),
                 ModelParams(N=3, g=2.0, eta=-0.5, Omega=0.9, omegad=0.7, N_ph=3),
                 ModelParams(N=1, g=0.1, Omega=0.9, omegad=0.7, N_ph=2, n_init=0)]
        stacked = _Stepper(batch, full_spin_terms)
        solos = [_Stepper(p, full_spin_terms) for p in batch]
        psis = [_state_at(p, 0.9) for p in batch]
        amps = pack(stacked, psis)
        for t, h in ((0.3, 0.05), (2.0, 0.4)):
            got = stacked.local_error(stacked._probe(amps), t, h)
            want = [s.local_error(s._probe(psi), t, h)[0] for s, psi in zip(solos, psis)]
            assert got == pytest.approx(want, rel=1e-12)
        # the interval takes the largest count any block needs
        _, n, errors = stacked.advance(amps, 1.0, 0.2, True)
        counts = [s.advance(psi, 1.0, 0.2, True)[1] for s, psi in zip(solos, psis)]
        assert n == max(counts) > min(counts)
        assert np.all(errors <= MAGNUS_TOL * 0.2)

    def test_taylor_stop_is_per_block(self):
        # A small vector under the larger matrix: a stop test on the stacked
        # vector ends its series early.
        rng = np.random.default_rng(5)
        mats, vecs = [], []
        for size, norm, scale in ((6, 0.2, 1.0), (5, 1.9, 1e-6)):
            m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            mats.append(m * norm / np.abs(m).sum(axis=1).max())
            vecs.append(scale * (rng.normal(size=size) + 1j * rng.normal(size=size)))
        stacked = scipy.sparse.block_diag(mats, format="csr")
        stacked.sort_indices()
        blocks = (slice(0, 6), slice(6, 11))
        got = CsrExpm().apply(stacked.dot, np.concatenate(vecs), blocks=blocks)
        for m, v, b in zip(mats, vecs, blocks):
            want = scipy.linalg.expm(m) @ v
            assert np.linalg.norm(got[b] - want) <= 1e-12 * np.linalg.norm(want)

    def test_undriven_batch_takes_one_step_per_interval(self):
        batch = [ModelParams(N=n, g=0.7, eta=0.3, N_ph=4) for n in (1, 2, 4)]
        trajs = propagate(batch, PropagationConfig(t_max=1.0, dt=1e-2, sample_stride=10))
        for traj in trajs:
            assert traj.steps == len(traj.times) - 1 == 10
            assert traj.step_error == 0.0

    @pytest.mark.parametrize("change", [dict(Omega=0.5), dict(omegad=0.9), dict(T=2.0)],
                             ids=["Omega", "omegad", "T"])
    def test_batch_must_share_the_time_dependence(self, change):
        p = ModelParams(N=2, g=0.5, Omega=1.0, N_ph=2)
        with pytest.raises(ContractError):
            propagate([p, replace(p, N=1, **change)], self.CFG)

    def test_empty_batch_rejected(self):
        with pytest.raises(DomainError):
            propagate([], self.CFG)

    def test_steps_without_a_cached_term_table(self, monkeypatch):
        # the stepper applies its operators from the spin terms and builds
        # no Kronecker term, so none is held through the stepping
        model._kron_terms.cache_clear()
        cached = []
        advance = _Stepper.advance

        def recording(self, *args):
            cached.append(model._kron_terms.cache_info().currsize)
            return advance(self, *args)

        monkeypatch.setattr(_Stepper, "advance", recording)
        batch = [ModelParams(N=n, g=0.5, Omega=1.0, eta=0.8, N_ph=3) for n in (2, 3)]
        propagate(batch, PropagationConfig(t_max=0.2, dt=0.05, sample_stride=2))
        assert cached and set(cached) == {0}

    def test_dimension_cap_per_block(self, monkeypatch):
        # max_dim bounds each block's sector dimension (10 x 101 = 1,010 for
        # the large one), checked before any block's factors are built
        built = []
        for name in ("build_H_battery", "build_H_static", "drive_operator", "even_spin_terms",
                     "full_spin_terms"):
            monkeypatch.setattr(dynamics, name, lambda *args, name=name: built.append(name))
        small, large = ModelParams(N=1, N_ph=2), ModelParams(N=4, N_ph=100)
        with pytest.raises(ResourceError):
            propagate([small, large], PropagationConfig(t_max=1.0, dt=0.1, max_dim=500))
        assert built == []


def _fixed_step_sample_times(cfg):
    """Sample times of the fixed-dt stepping loop: every sample_stride-th
    grid point, the final one and 0."""
    n = int(math.ceil(cfg.t_max / cfg.dt - 1e-9))
    edges = [min(k * cfg.dt, cfg.t_max) for k in range(n)] + [cfg.t_max]
    return [0.0] + [edges[k + 1] for k in range(n)
                    if (k + 1) % cfg.sample_stride == 0 or k + 1 == n]


class TestSampleToSample:
    @pytest.mark.parametrize(
        "t_max, dt, stride",
        [(1.0, 0.1, 5), (1.0, 0.1, 3), (0.55, 0.1, 2), (2.0, 4e-3, 5), (0.5, 1e-3, 10)],
    )
    def test_times_are_the_fixed_grid_samples(self, t_max, dt, stride):
        p = ModelParams(N=1, g=0.3, Omega=0.5, N_ph=2, n_init=1)
        cfg = PropagationConfig(t_max=t_max, dt=dt, sample_stride=stride)
        times = propagate(p, cfg).times
        want = np.array(_fixed_step_sample_times(cfg))
        assert times.shape == want.shape and np.array_equal(times, want)

    def test_fine_grid_builds_only_the_samples(self):
        # 2e7 dt steps in 200 sample intervals: the sample times come
        # without a list of every dt edge, which took a 640 MB peak
        clock = ModelParams(N=1, Omega=0.5, T=1.505)
        cfg = PropagationConfig(t_max=2.0, dt=1e-7, sample_stride=100_000)
        tracemalloc.start()
        try:
            intervals = list(_sample_intervals(cfg, clock))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        times = [t1 for t1, _ in intervals]
        assert len(times) == 200 and times[-1] == 2.0
        assert np.abs(np.diff([0.0, *times]) - 0.01).max() <= 1e-12
        assert peak <= 1_000_000

    @pytest.mark.parametrize("T", [None, 1.23])
    def test_global_error_within_tolerance(self, T, monkeypatch):
        # against fixed Magnus-4 steps at least 8x finer than every adaptive step
        counts = []
        advance = _Stepper.advance

        def recording(self, amps, t, length, on):
            out = advance(self, amps, t, length, on)
            counts.append(out[1])
            return out

        monkeypatch.setattr(_Stepper, "advance", recording)
        p = ModelParams(N=3, g=0.5, Omega=1.0, eta=0.8, T=T)
        cfg = PropagationConfig(t_max=2.0, dt=0.01, sample_stride=10)
        traj = propagate(p, cfg)
        substeps = 8 * max(counts)
        state = initial_state(p)
        times = traj.times
        for t0, t1 in zip(times[:-1], times[1:]):
            h = (t1 - t0) / substeps
            for i in range(substeps):
                state = step_magnus4(state, t0 + i * h, h, p)
        deviation = np.linalg.norm(lift(p, traj.final_amplitudes) - state.amplitudes)
        assert max(counts) > 1
        assert deviation <= 20 * MAGNUS_TOL * cfg.t_max
        assert traj.step_error >= deviation


def _inf_norm(mat):
    return float(abs(mat).sum(axis=1).max()) if mat.nnz else 0.0


def _restrict(p, space, mat):
    """A full-space matrix M as it acts on ``space``: P' M P with P = V x I_b,
    V ``reflection_isometry`` in the even sector and the identity in the
    full space."""
    v = reflection_isometry(p.N) if space is even_spin_terms else scipy.sparse.identity(2**p.N)
    basis = scipy.sparse.kron(v, scipy.sparse.identity(p.dims.boson_dim), format="csr")
    return (basis.T @ mat @ basis).tocsr()


def _assembled(p, space):
    """H_on, a'+a, C = [H_on, a'+a] and the nested commutators [H_on, C] and
    [a'+a, C]: sparse matrix products of the full-space builders, restricted
    to ``space``."""
    h_on = build_H_battery(p) + build_H_static(p)
    drive = drive_operator(p)
    comm = h_on @ drive - drive @ h_on
    full = (h_on, drive, comm, h_on @ comm - comm @ h_on, drive @ comm - comm @ drive)
    return tuple(_restrict(p, space, mat) for mat in full)


def _random_state(dim, rng):
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def _assert_applies(got, want):
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# Direct and geometric coupling, g = 0, eta = 0, N_ph < N (N_ph = 0 at
# N = 1) and omega0, omegac != 1.
FACTOR_CASES = (
    lambda n: ModelParams(N=n, g=0.5, eta=0.8, omega0=1.3, omegac=0.7),
    lambda n: ModelParams(N=n, g=0.3, omegac=1.4, coupling_mode="geometric", alpha_angle=0.4),
    lambda n: ModelParams(N=n, g=0.0, eta=-0.6, N_ph=5, n_init=0),
    lambda n: ModelParams(N=n, g=0.9, eta=0.0, N_ph=5, n_init=0),
    lambda n: ModelParams(N=n, g=0.4, eta=0.5, omega0=0.8, N_ph=n // 2, n_init=0),
)


class TestFactoredApply:
    """The stepper applies every operator from its spin x cavity factors;
    the model builders' assembled matrices are the reference."""

    @BY_SPACE
    @pytest.mark.parametrize("n_atoms", range(1, 9))
    def test_operators_equal_the_builders(self, n_atoms, space):
        rng = np.random.default_rng(n_atoms)
        for case in FACTOR_CASES:
            p = case(n_atoms)
            stepper = _Stepper(p, space)
            ops = _assembled(p, space)
            v = _random_state(_space_dim(p, space), rng)
            for got, want in zip(stepper._probe(v), ops):
                _assert_applies(got, want @ v)
            c, kappa = 0.7, 0.3j
            _assert_applies(stepper.matvec(v, stepper.drive_scales(c, kappa)),
                            (ops[0] + c * ops[1] + kappa * ops[2]) @ v)
            # the per-block infinity norms give the Taylor plan
            for got, want in zip((stepper.norm_on, stepper.norm_drive, stepper.norm_comm), ops):
                assert got[0] == pytest.approx(_inf_norm(want), rel=1e-12, abs=0.0)

    @BY_SPACE
    def test_padded_batch_blocks_equal_their_solo_operators(self, space):
        # N = 1..6 at N_ph = 4N with a different omegac per block: every
        # block is padded to the N = 6 block's 25 Fock levels but that one
        batch = [ModelParams(N=n, g=0.6, eta=-0.4, Omega=0.5, omegac=0.8 + 0.1 * n)
                 for n in range(1, 7)]
        stepper = _Stepper(batch, space)
        rng = np.random.default_rng(11)
        vectors = [_random_state(_space_dim(p, space), rng) for p in batch]
        amps = pack(stepper, vectors)
        padding = pack(stepper, [np.ones(len(v)) for v in vectors]) == 0
        assert np.count_nonzero(padding) > 0 and np.all(amps[padding] == 0)
        c, kappa = -0.4, 0.2j
        applied = (*stepper._probe(amps), stepper.matvec(amps, stepper.drive_scales(c, kappa)))
        for out in applied:
            assert np.all(out[padding] == 0)
        for k, (p, v) in enumerate(zip(batch, vectors)):
            ops = _assembled(p, space)
            wants = (*(op @ v for op in ops), (ops[0] + c * ops[1] + kappa * ops[2]) @ v)
            for out, want in zip(applied, wants):
                _assert_applies(stepper.unpack(out)[k], want)
            for got, want in zip((stepper.norm_on, stepper.norm_drive, stepper.norm_comm), ops):
                assert got[k] == pytest.approx(_inf_norm(want), rel=1e-12, abs=0.0)
            # and it holds its solo stepper's arithmetic exactly: the same
            # products, the same grids on its own Fock levels, the same norms
            solo = _Stepper(p, space)
            solo_applied = (*solo._probe(v), solo.matvec(v, solo.drive_scales(c, kappa)))
            for out, want in zip(applied, solo_applied):
                assert np.array_equal(stepper.unpack(out)[k], want)
            for name in ("diag_off", "diag_on", "omegac", "omegac_sq", "comm_drive"):
                assert np.array_equal(stepper.unpack(getattr(stepper, name))[k],
                                      getattr(solo, name))
            # ``weights`` drops the last row's top level, where the weight is 0
            assert np.array_equal(stepper.unpack(np.append(stepper.weights, 0.0))[k],
                                  np.append(solo.weights, 0.0))
            for name in ("norm_on", "norm_drive", "norm_comm"):
                assert getattr(stepper, name)[k] == getattr(solo, name)[0]
        # a Taylor apply keeps the padding at zero too
        out = stepper.step(amps, 0.3, 0.05, True, stepper._probe(amps))
        assert np.all(out[padding] == 0)
        assert [np.array_equal(a, b) for a, b in zip(stepper.unpack(amps), vectors)] == [True] * 6

    def test_batch_of_one_has_no_padding(self):
        p = ModelParams(N=3, N_ph=4)
        stepper = _Stepper(p, even_spin_terms)
        v = np.arange(_space_dim(p, even_spin_terms), dtype=complex)
        assert np.array_equal(pack(stepper, [v]), v)
        assert np.shares_memory(stepper.unpack(v)[0], v)


class TestStepperInternals:
    def test_pattern_alignment_reconstructs_operators(self):
        # omega0 J_z + omegac a'a vanishes on |gg> x |1> and, in the full
        # space, on |eg>, |ge> x |0>
        p = ModelParams(N=2, g=0.4, Omega=0.3, eta=0.6, N_ph=3)
        for space in (full_spin_terms, even_spin_terms):
            self._check_factors(p, space)

    @staticmethod
    def _check_factors(p, space):
        # The stepper's factors, put back together with Kronecker products,
        # are the operators: exactly H_b = omega0 J_z x I, a'+a and
        # C = omega_c (a'-a), each the Kronecker product of the space's spin
        # term or exact spin identity with its cavity factor (P' (I x D) P
        # rounds V'V = I), and H_on as the restricted builders.
        stepper = _Stepper(p, space)
        boson_dim = p.dims.boson_dim
        spin_dim = len(space(p.N).jz)
        lower = scipy.sparse.diags(stepper.weights, 1)  # I x a on the joint grid
        eye, eye_s = scipy.sparse.identity(boson_dim), scipy.sparse.identity(spin_dim)
        a, a_dag = (boson_matrix(kind, boson_dim) for kind in ("annihilate", "create"))
        h_b = p.omega0 * scipy.sparse.kron(scipy.sparse.diags(space(p.N).jz), eye, format="csr")
        drive = scipy.sparse.kron(eye_s, a + a_dag)
        if space is full_spin_terms:
            assert np.array_equal(h_b.toarray(), build_H_battery(p).toarray())
            assert np.array_equal(drive.toarray(), drive_operator(p).toarray())
        # H_b is diagonal and enters the stepper as its diagonal alone, and
        # the Fock weights are the entries of a'+a
        assert h_b.count_nonzero() == np.count_nonzero(h_b.diagonal())
        assert np.array_equal(stepper.diag_off, h_b.diagonal().real)
        assert np.array_equal((lower + lower.T).toarray(), drive.toarray())
        assert np.array_equal((scipy.sparse.diags(stepper.omegac) @ (lower.T - lower)).toarray(),
                              (p.omegac * scipy.sparse.kron(eye_s, a_dag - a)).toarray())
        jx, flips = stepper.spin_stack[:spin_dim], stepper.spin_stack[spin_dim:]
        h_on = (scipy.sparse.diags(stepper.diag_on) + scipy.sparse.kron(flips, eye)
                + scipy.sparse.kron(jx, eye) @ (lower + lower.T))
        want = _restrict(p, space, build_H_battery(p) + build_H_static(p)).toarray()
        assert np.abs(h_on.toarray() - want).max() <= 1e-15 * np.abs(want).max()

    @BY_SPACE
    def test_charger_off_step_is_the_exact_phase(self, space):
        p = ModelParams(N=4, g=0.5, Omega=1.0, eta=0.8, omega0=1.3, N_ph=3, n_init=0, T=1.0)
        stepper = _Stepper(p, space)
        rng = np.random.default_rng(7)
        dim = _space_dim(p, space)
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amps /= np.linalg.norm(amps)
        h = 0.37
        h_b = _restrict(p, space, build_H_battery(p)).toarray()
        want = scipy.linalg.expm(-1j * h * h_b) @ amps
        assert np.abs(stepper.step(amps, 2.0, h, False) - want).max() <= 1e-14

    def test_probe_stands_in_for_the_first_matvec(self):
        p = ModelParams(N=3, g=0.5, Omega=1.0, eta=0.8, N_ph=4)
        stepper = _Stepper(p, full_spin_terms)
        amps = _state_at(p, 0.4)
        probe = stepper._probe(amps)
        products = []
        spin = stepper._spin

        def counting(mat, v):
            products.append(1)
            return spin(mat, v)

        stepper._spin = counting
        want = stepper.step(amps, 0.3, 0.05, True)
        plain = len(products)
        got = stepper.step(amps, 0.3, 0.05, True, probe)
        assert len(products) - plain == plain - 1
        assert np.abs(got - want).max() <= 1e-15
