from dataclasses import replace

import numpy as np
import pytest

from dickeqb.analysis import (
    FitResult,
    convergence_check,
    find_max,
    fit_linear,
    fit_power_law,
)
from dickeqb.dynamics import PropagationConfig, Trajectory
from dickeqb.errors import DomainError
from dickeqb.model import ModelParams


def series_trajectory(times, values):
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    zeros = np.zeros_like(t)
    return Trajectory(times=t, E_b=v, P_b=v.copy(), dE_b=zeros, Jz_mean=zeros,
                      norms=np.ones_like(t), params=ModelParams(N=1), final_amplitudes=None)


class TestFindMax:
    def test_simple_peak(self):
        traj = series_trajectory([0, 1, 2], [0, 1, 0])
        rec = find_max(traj, "E_b")
        assert rec.t_star == pytest.approx(1.0)
        assert rec.value == pytest.approx(1.0)
        assert rec.series_name == "E_b"

    def test_monotone_series_returns_last_point(self):
        traj = series_trajectory([0, 1, 2, 3], [0, 1, 2, 3])
        rec = find_max(traj, "P_b")
        assert rec.t_star == 3.0
        assert rec.value == 3.0

    def test_parabolic_refinement_recovers_vertex(self):
        # samples of 1 - (t - 1.03)^2 on a coarse grid
        t = np.linspace(0, 2, 11)
        v = 1 - (t - 1.03) ** 2
        rec = find_max(series_trajectory(t, v), "E_b")
        assert rec.t_star == pytest.approx(1.03, abs=1e-12)
        assert rec.value == pytest.approx(1.0, abs=1e-12)

    def test_tie_breaks_toward_earliest(self):
        traj = series_trajectory([0, 1, 2, 3], [0, 5, 5, 0])
        assert find_max(traj, "E_b").t_star == 1.0

    def test_refined_value_dominates_samples(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0, 4, 41)
        v = np.sin(t) + 0.01 * rng.normal(size=t.size)
        rec = find_max(series_trajectory(t, v), "E_b")
        assert rec.value >= v.max() - 1e-12

    def test_grid_refinement_stability(self):
        coarse = np.linspace(0, 3, 31)
        fine = np.linspace(0, 3, 301)
        f = lambda t: np.sin(t)
        r_c = find_max(series_trajectory(coarse, f(coarse)), "E_b")
        r_f = find_max(series_trajectory(fine, f(fine)), "E_b")
        assert abs(r_c.t_star - r_f.t_star) < fine[1] - fine[0]

    def test_empty_trajectory_rejected(self):
        with pytest.raises(DomainError):
            find_max(series_trajectory([], []), "E_b")

    def test_unknown_series_rejected(self):
        with pytest.raises(DomainError):
            find_max(series_trajectory([0, 1], [0, 1]), "dE_b")


class TestPowerLawFit:
    def test_exact_power_law(self):
        n = np.arange(1, 9)
        fit = fit_power_law(n, 2.0 * n**1.5)
        assert fit.alpha == pytest.approx(1.5, abs=1e-12)
        assert fit.beta == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 8

    def test_constant_series(self):
        fit = fit_power_law([1, 2, 3, 4], [5.0, 5.0, 5.0, 5.0])
        assert fit.alpha == pytest.approx(0.0, abs=1e-12)
        assert fit.beta == pytest.approx(5.0, abs=1e-12)

    def test_scale_covariance(self):
        n = np.arange(1, 7)
        p = 0.7 * n**1.37
        base = fit_power_law(n, p)
        scaled = fit_power_law(n, 13.0 * p)
        assert scaled.alpha == pytest.approx(base.alpha, abs=1e-12)
        assert scaled.beta == pytest.approx(13.0 * base.beta, rel=1e-12)

    def test_recovers_planted_exponents(self):
        n = np.array([1, 2, 4, 8, 16])
        for alpha, beta in [(0.5, 1.0), (1.0, 3.0), (2.25, 0.04)]:
            fit = fit_power_law(n, beta * n.astype(float)**alpha)
            assert fit.alpha == pytest.approx(alpha, abs=1e-12)
            assert fit.beta == pytest.approx(beta, rel=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            fit_power_law([1, 2, 3], [1.0, 0.0, 2.0])
        with pytest.raises(DomainError):
            fit_power_law([1, -2, 3], [1.0, 1.0, 2.0])

    def test_rejects_short_input(self):
        with pytest.raises(DomainError):
            fit_power_law([1, 2], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="finite"):
            fit_power_law([1, 2, 3, 4], [0.2, bad, 1.1, 1.8])
        with pytest.raises(DomainError, match="finite"):
            fit_power_law([1, bad, 3, 4], [0.2, 0.6, 1.1, 1.8])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DomainError):
            fit_power_law([1, 2, 3], [1.0, 2.0])

    def test_result_is_frozen_record(self):
        fit = fit_power_law([1, 2, 3], [1.0, 2.0, 3.0])
        assert isinstance(fit, FitResult)
        with pytest.raises(AttributeError):
            fit.alpha = 0.0


class TestLinearFit:
    def test_exact_line(self):
        slope, intercept, r2 = fit_linear([1, 2, 3, 4], [0.9, 1.8, 2.7, 3.6])
        assert slope == pytest.approx(0.9, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        slope, _, _ = fit_linear([1, 2, 3], [2.0, 2.0, 2.0])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_rejects_short_input(self):
        with pytest.raises(DomainError):
            fit_linear([1, 2], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="finite"):
            fit_linear([1, 2, 3, 4], [0.2, bad, 1.1, 1.8])
        with pytest.raises(DomainError, match="finite"):
            fit_linear([1, bad, 3, 4], [0.2, 0.6, 1.1, 1.8])


class TestConvergenceCheck:
    def test_decoupled_photon_sector_is_inert(self):
        p = ModelParams(N=2, g=0.0, Omega=0.0, eta=0.7, N_ph=4, n_init=2)
        cfg = PropagationConfig(t_max=2.0, dt=1e-2, sample_stride=10)
        assert convergence_check(p, 2, cfg) == 0.0

    def test_rejects_bad_delta(self):
        with pytest.raises(DomainError):
            convergence_check(ModelParams(N=1), 0)

    def test_monotone_and_converged_at_4n(self):
        # deviations shrink as the base cutoff grows; at N_ph = 4N the
        # truncation error of this weak-coupling instance is below 1e-5
        p = ModelParams(N=2, g=0.1, Omega=0.1, eta=0.8)
        cfg = PropagationConfig(t_max=10.0, dt=2e-3, sample_stride=20)
        devs = [convergence_check(replace(p, N_ph=nph), 4, cfg) for nph in (4, 6, 8)]
        assert devs[0] >= devs[1] >= devs[2]
        assert devs[2] < 1e-5
