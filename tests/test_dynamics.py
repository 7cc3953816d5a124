import math
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
    _Recorder,
    _Stepper,
    _charging_segments,
    _diagonal,
    _sample_intervals,
    _time_grid,
    oracle_propagate,
    propagate,
    step_magnus4,
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
    drive_commutator,
    drive_operator,
    hamiltonian_at,
    initial_state,
    nested_commutators,
    static_hamiltonian,
)
from dickeqb.observables import stored_energy
from dickeqb.operators import StateVector, expectation


class TestPropagationConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0),
            dict(dt=-1e-3),
            dict(t_max=1e-4, dt=1e-3),
            dict(sample_stride=0),
            dict(method="rk4"),
            dict(max_dim=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            PropagationConfig(**kwargs)


class TestChargingSegments:
    def test_no_window(self):
        assert _charging_segments(0.0, 1.0, None) == [(0.0, 1.0, True)]

    def test_switch_off_inside_step(self):
        segs = _charging_segments(0.9, 1.1, 1.0)
        assert segs == [(0.9, 1.0, True), (1.0, 1.1, False)]

    def test_switch_on_at_zero(self):
        segs = _charging_segments(-0.05, 0.05, None)
        assert segs == [(-0.05, 0.0, False), (0.0, 0.05, True)]

    def test_fully_after_window(self):
        assert _charging_segments(3.0, 3.5, 2.0) == [(3.0, 3.5, False)]


class TestStepMagnus4:
    def test_time_independent_step_equals_expm(self):
        # without a drive one step is exactly exp(-i H dt) up to Taylor tolerance
        p = ModelParams(N=2, g=0.6, eta=0.4, Omega=0.0, N_ph=3, n_init=1)
        dt = 0.05
        h = hamiltonian_at(0.0, p).to_dense()
        psi0 = initial_state(p)
        want = scipy.linalg.expm(-1j * dt * h) @ psi0.amplitudes
        got = step_magnus4(psi0, 0.0, dt, p)
        assert np.abs(got.amplitudes - want).max() < 1e-12

    def test_driven_step_equals_dense_magnus4(self):
        # one exponential of -i dt (H_on + c_mean D) + (sqrt3/12) dt^2 (c_b - c_a) [H_on, D]
        p = ModelParams(N=2, g=0.6, eta=0.4, Omega=0.9, omegac=1.3, omegad=0.7,
                        N_ph=3, n_init=1)
        t, dt = 2.0, 0.05
        h_on = static_hamiltonian(p).to_dense()
        d = drive_operator(p).to_dense()
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

    def test_invalid_dt(self):
        p = ModelParams(N=1)
        with pytest.raises(DomainError):
            step_magnus4(initial_state(p), 0.0, 0.0, p)

    def test_fourth_order_convergence(self):
        # halving dt shrinks the global error ~16x against the DOP853 oracle
        p = ModelParams(N=2, N_ph=4, g=0.5, Omega=1.0, eta=0.8, n_init=2)
        ref_cfg = PropagationConfig(t_max=1.0, dt=5e-4, sample_stride=2000)
        ref = oracle_propagate(p, ref_cfg).final_state.amplitudes
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
        overlap = np.vdot(t_m.final_state.amplitudes, t_o.final_state.amplitudes)
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
        overlap = np.vdot(t_m.final_state.amplitudes, t_o.final_state.amplitudes)
        assert 1.0 - abs(overlap) ** 2 < 1e-10

    def test_oracle_dispatch_through_config(self):
        p = ModelParams(N=1, g=0.3, N_ph=2, n_init=1)
        cfg = PropagationConfig(t_max=0.5, dt=1e-2, sample_stride=10, method="oracle_expm")
        t_a = propagate(p, cfg)
        t_b = oracle_propagate(p, cfg)
        assert np.array_equal(t_a.E_b, t_b.E_b)

    def test_oracle_decoupled_state_is_phase_rotation(self):
        # g = Omega = eta = 0: the initial basis state only picks up a phase
        p = ModelParams(N=2, g=0.0, Omega=0.0, eta=0.0, N_ph=3, n_init=2)
        cfg = PropagationConfig(t_max=1.0, dt=0.05, sample_stride=5)
        traj = oracle_propagate(p, cfg)
        final = traj.final_state.amplitudes
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
        h_op = hamiltonian_at(0.0, p)
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
        rec = _Recorder(p, initial_state(p))
        bad = initial_state(p).amplitudes * 1.001
        with pytest.raises(IntegrationError,
                           match=r"^norm drift .* lower the photon cutoff N_ph or shorten t_max$"):
            rec.record(0.5, bad)

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


def _full_space_run(p, cfg):
    """propagate's step plan replayed by a full-space stepper."""
    stepper = _Stepper(p)
    state0 = initial_state(p)
    amps = state0.amplitudes
    recorder = _Recorder(p, state0)
    recorder.record(0.0, amps)
    steps = 0
    for t1, pieces in _sample_intervals(cfg, p.T):
        for a, length, on in pieces:
            amps, n, _ = stepper.advance(amps, a, length, on)
            steps += n
        recorder.record(t1, amps)
    return recorder.build(steps=steps)


class TestReflectionSector:
    @pytest.mark.parametrize(
        "mode",
        [dict(eta=0.8), dict(coupling_mode="geometric", alpha_angle=0.4)],
        ids=["direct", "geometric"],
    )
    def test_matches_full_space_replay(self, mode):
        # T = 0.55 splits a sample interval
        p = ModelParams(N=5, N_ph=6, g=0.5, Omega=1.0, omegac=1.2, T=0.55, **mode)
        cfg = PropagationConfig(t_max=1.0, dt=0.01, sample_stride=10)
        got = propagate(p, cfg)
        want = _full_space_run(p, cfg)
        assert got.steps == want.steps > len(got.times) - 1
        for name in ("E_b", "dE_b", "Jz_mean"):
            assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 1e-12, name
        assert abs(got.edge_population - want.edge_population) <= 1e-12
        assert np.abs(got.final_state.amplitudes - want.final_state.amplitudes).max() <= 1e-12

    def test_matches_oracle_on_geometric_chain(self):
        # a 4-site chain has couplings at every distance 1..3
        p = ModelParams(N=4, N_ph=2, n_init=2, g=0.5, Omega=1.0,
                        coupling_mode="geometric", alpha_angle=0.4)
        cfg = PropagationConfig(t_max=0.2, dt=1e-3, sample_stride=20)
        t_m = propagate(p, cfg)
        t_o = oracle_propagate(p, cfg)
        assert np.array_equal(t_m.times, t_o.times)
        assert np.abs(t_m.E_b - t_o.E_b).max() < 1e-8
        overlap = np.vdot(t_m.final_state.amplitudes, t_o.final_state.amplitudes)
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
        assert traj.final_state.amplitudes.shape == (p.dims.total_dim,)


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
        energies = [stored_energy(StateVector(p.dims, amps), p)]
        for _, pieces in _sample_intervals(cfg, p.T):
            for a, length, on in pieces:
                amps, _, _ = _Stepper(p).advance(amps, a, length, on)
            energies.append(stored_energy(StateVector(p.dims, amps, norm_atol=1e-8), p))
        assert np.abs(traj.final_state.amplitudes - amps).max() < 1e-14
        assert np.abs(traj.E_b - energies).max() < 1e-14


def _dense_exponents(p, t, h):
    """Dense Gauss-Magnus-4 and -6 exponents (Blanes et al. 2009) of one step."""
    h_on = static_hamiltonian(p).to_dense()
    d = drive_operator(p).to_dense()

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
    h_on = static_hamiltonian(p).to_dense()
    return scipy.linalg.expm(-1j * t * h_on) @ initial_state(p).amplitudes


class TestLocalError:
    def test_equals_dense_magnus6_difference(self):
        p = ModelParams(N=2, g=0.6, eta=0.4, Omega=0.9, omegac=1.3, omegad=0.7, N_ph=4)
        stepper = _Stepper(p)
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
        stepper = _Stepper(p)
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
        driven = _Stepper(ModelParams(N=2, g=0.7, Omega=1.0, N_ph=6, T=1.0))
        amps, n, error = driven.advance(initial_state(driven.params).amplitudes, 2.0, 0.5, False)
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
            assert traj.final_state.amplitudes.shape == (p.dims.total_dim,)
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
        stacked, solos = _Stepper(batch), [_Stepper(p) for p in batch]
        psis = [_state_at(p, 0.9) for p in batch]
        amps = stacked.pack(psis)
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
        # no term table, so none is held through the stepping
        model.release_term_tables()
        cached = []
        advance = _Stepper.advance

        def recording(self, *args):
            cached.append(model._term_table.cache_info().currsize)
            return advance(self, *args)

        monkeypatch.setattr(_Stepper, "advance", recording)
        batch = [ModelParams(N=n, g=0.5, Omega=1.0, eta=0.8, N_ph=3) for n in (2, 3)]
        propagate(batch, PropagationConfig(t_max=0.2, dt=0.05, sample_stride=2))
        assert cached and set(cached) == {0}

    def test_dimension_cap_per_block(self, monkeypatch):
        # max_dim bounds each block's full joint dimension, checked before
        # any block's factors are built
        built = []
        for name in ("build_H_battery", "build_H_static", "drive_operator", "spin_terms"):
            monkeypatch.setattr(dynamics, name, lambda *args, name=name: built.append(name))
        small, large = ModelParams(N=1, N_ph=2), ModelParams(N=4, N_ph=100)
        with pytest.raises(ResourceError):
            propagate([small, large], PropagationConfig(t_max=1.0, dt=0.1, max_dim=500))
        assert built == []


def _fixed_step_sample_times(cfg):
    """Sample times of the fixed-dt stepping loop: every sample_stride-th
    grid point, the final one and 0."""
    edges = _time_grid(cfg)
    n = len(edges) - 1
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
        deviation = np.linalg.norm(traj.final_state.amplitudes - state.amplitudes)
        assert max(counts) > 1
        assert deviation <= 20 * MAGNUS_TOL * cfg.t_max
        assert traj.step_error >= deviation


class TestTrajectoryCsv:
    def test_csv_format(self, tmp_path):
        p = ModelParams(N=1, g=0.2, N_ph=2, n_init=1)
        traj = propagate(p, PropagationConfig(t_max=0.3, dt=0.1, sample_stride=1))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "t,E_b,P_b,dE_b,Jz_mean,norm"
        assert len(lines) == 1 + len(traj)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[5]) == pytest.approx(1.0)

    def test_csv_deterministic(self, tmp_path):
        p = ModelParams(N=1, g=0.2, Omega=0.4, N_ph=3, n_init=1)
        cfg = PropagationConfig(t_max=0.5, dt=0.05, sample_stride=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        propagate(p, cfg).to_csv(a)
        propagate(p, cfg).to_csv(b)
        assert a.read_bytes() == b.read_bytes()


def _inf_norm(mat):
    return float(abs(mat).sum(axis=1).max()) if mat.nnz else 0.0


def _assembled(p, space):
    """H_on, a'+a, C and the two nested commutators of the model builders."""
    h_on = build_H_battery(p, space).mat + build_H_static(p, space).mat
    with_static, with_drive = nested_commutators(p, space)
    return (h_on, drive_operator(p, space).mat, drive_commutator(p, space).mat,
            with_static.mat, with_drive.mat)


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

    @pytest.mark.parametrize("space", ["full", "even"])
    @pytest.mark.parametrize("n_atoms", range(1, 9))
    def test_operators_equal_the_builders(self, n_atoms, space):
        rng = np.random.default_rng(n_atoms)
        for case in FACTOR_CASES:
            p = case(n_atoms)
            stepper = _Stepper(p, space)
            ops = _assembled(p, space)
            v = _random_state(p.dims.space_dim(space), rng)
            for got, want in zip(stepper._probe(v), ops):
                _assert_applies(got, want @ v)
            c, kappa = 0.7, 0.3j
            _assert_applies(stepper.matvec(v, stepper.drive_scales(c, kappa)),
                            (ops[0] + c * ops[1] + kappa * ops[2]) @ v)
            # the per-block infinity norms give the Taylor plan
            for got, want in zip((stepper.norm_on, stepper.norm_drive, stepper.norm_comm), ops):
                assert got[0] == pytest.approx(_inf_norm(want), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("space", ["full", "even"])
    def test_padded_batch_blocks_equal_their_solo_operators(self, space):
        # N = 1..6 at N_ph = 4N with a different omegac per block: every
        # block is padded to the N = 6 block's 25 Fock levels but that one
        batch = [ModelParams(N=n, g=0.6, eta=-0.4, Omega=0.5, omegac=0.8 + 0.1 * n)
                 for n in range(1, 7)]
        stepper = _Stepper(batch, space)
        rng = np.random.default_rng(11)
        vectors = [_random_state(p.dims.space_dim(space), rng) for p in batch]
        amps = stepper.pack(vectors)
        padding = stepper.pack([np.ones(len(v)) for v in vectors]) == 0
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
        # a Taylor apply keeps the padding at zero too
        out = stepper.step(amps, 0.3, 0.05, True, stepper._probe(amps))
        assert np.all(out[padding] == 0)
        assert [np.array_equal(a, b) for a, b in zip(stepper.unpack(amps), vectors)] == [True] * 6

    def test_batch_of_one_has_no_padding(self):
        p = ModelParams(N=3, N_ph=4)
        stepper = _Stepper(p, "even")
        v = np.arange(p.dims.space_dim("even"), dtype=complex)
        assert np.array_equal(stepper.pack([v]), v)
        assert np.shares_memory(stepper.unpack(v)[0], v)


class TestStepperInternals:
    def test_pattern_alignment_reconstructs_operators(self):
        # omega0 J_z + omegac a'a vanishes on |gg> x |1> and, in the full
        # space, on |eg>, |ge> x |0>
        p = ModelParams(N=2, g=0.4, Omega=0.3, eta=0.6, N_ph=3)
        for space in ("full", "even"):
            self._check_factors(p, space)

    @staticmethod
    def _check_factors(p, space):
        # The stepper's factors, put back together with Kronecker products,
        # are the builders' operators.
        stepper = _Stepper(p, space)
        boson_dim = p.dims.boson_dim
        spin_dim = p.dims.space_dim(space) // boson_dim
        lower = scipy.sparse.diags(stepper.weights, 1)  # I x a on the joint grid
        h_b = build_H_battery(p, space).mat
        drive = drive_operator(p, space).mat
        # H_b is diagonal and enters the stepper as its diagonal alone, and
        # the Fock weights are the entries of a'+a
        assert h_b.count_nonzero() == np.count_nonzero(h_b.diagonal())
        assert np.array_equal(stepper.diag_off, h_b.diagonal().real)
        assert np.array_equal((lower + lower.T).toarray(), drive.toarray())
        assert np.array_equal((scipy.sparse.diags(stepper.omegac) @ (lower.T - lower)).toarray(),
                              drive_commutator(p, space).to_dense())
        jx, flips = stepper.spin_stack[:spin_dim], stepper.spin_stack[spin_dim:]
        eye = scipy.sparse.identity(boson_dim)
        h_on = (scipy.sparse.diags(stepper.diag_on) + scipy.sparse.kron(flips, eye)
                + scipy.sparse.kron(jx, eye) @ (lower + lower.T))
        want = (h_b + build_H_static(p, space).mat).toarray()
        assert np.abs(h_on.toarray() - want).max() <= 1e-15 * np.abs(want).max()

    def test_entries_off_the_positions_raise(self):
        # J_z enters the stepper as its diagonal, so an entry off the
        # diagonal would be lost: it raises instead
        mat = scipy.sparse.csr_matrix(np.diag([1.0, 0.0, 3.0]))
        assert np.array_equal(_diagonal(mat), [1.0, 0.0, 3.0])
        for row, col in ((0, 2), (2, 1)):
            off = mat.tolil()
            off[row, col] = 2.0
            with pytest.raises(AssertionError, match="outside the positions read"):
                _diagonal(off.tocsr())
        # a stored zero is no entry to lose
        stored = scipy.sparse.csr_matrix((np.array([1.0, 0.0]), np.array([0, 1]),
                                          np.array([0, 2, 2])), shape=(2, 2))
        assert stored.nnz == 2
        assert np.array_equal(_diagonal(stored), [1.0, 0.0])

    @pytest.mark.parametrize("space", ["full", "even"])
    def test_charger_off_step_is_the_exact_phase(self, space):
        p = ModelParams(N=4, g=0.5, Omega=1.0, eta=0.8, omega0=1.3, N_ph=3, n_init=0, T=1.0)
        stepper = _Stepper(p, space)
        rng = np.random.default_rng(7)
        dim = p.dims.space_dim(space)
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amps /= np.linalg.norm(amps)
        h = 0.37
        want = scipy.linalg.expm(-1j * h * build_H_battery(p, space).to_dense()) @ amps
        assert np.abs(stepper.step(amps, 2.0, h, False) - want).max() <= 1e-14

    def test_probe_stands_in_for_the_first_matvec(self):
        p = ModelParams(N=3, g=0.5, Omega=1.0, eta=0.8, N_ph=4)
        stepper = _Stepper(p)
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
