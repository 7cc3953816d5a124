"""Trajectory post-processing: maxima, scaling fits, truncation audits."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from dickeqb.dynamics import PropagationConfig, Trajectory, propagate
from dickeqb.errors import DomainError
from dickeqb.model import ModelParams

# Truncation-error target of the audit.  N_ph = 4N meets it only at weak
# coupling and drive (see ModelParams); elsewhere the audit is the check.
CONVERGENCE_THRESHOLD = 1e-5

SERIES_NAMES = ("E_b", "P_b")


@dataclass(frozen=True)
class MaxRecord:
    """Location and value of a series maximum (parabolically refined)."""

    t_star: float
    value: float
    series_name: str


@dataclass(frozen=True)
class FitResult:
    """Power-law fit P = beta * N^alpha obtained by log-log least squares."""

    alpha: float
    beta: float
    r_squared: float
    n_points: int


def find_max(trajectory: Trajectory, series: str) -> MaxRecord:
    """Maximum of E_b or P_b over the sampled grid.

    The grid argmax is refined by a parabola through the three bracketing
    samples; a maximum on the grid boundary is returned as-is.  Ties break
    toward the earliest time.
    """
    if series not in SERIES_NAMES:
        raise DomainError(f"series must be one of {SERIES_NAMES}, got {series!r}")
    values = getattr(trajectory, series)
    times = trajectory.times
    if len(values) == 0:
        raise DomainError("empty trajectory")
    i = int(np.argmax(values))
    t_star, value = float(times[i]), float(values[i])
    if 0 < i < len(values) - 1 and values[i] > values[i - 1] and values[i] > values[i + 1]:
        tl, tc, tr = times[i - 1], times[i], times[i + 1]
        vl, vc, vr = values[i - 1], values[i], values[i + 1]
        num = (tc - tl) ** 2 * (vc - vr) - (tc - tr) ** 2 * (vc - vl)
        den = (tc - tl) * (vc - vr) - (tc - tr) * (vc - vl)
        if den != 0.0:
            t_star = float(tc - 0.5 * num / den)
            # quadratic through the three samples, evaluated at the vertex
            value = float(
                vl * (t_star - tc) * (t_star - tr) / ((tl - tc) * (tl - tr))
                + vc * (t_star - tl) * (t_star - tr) / ((tc - tl) * (tc - tr))
                + vr * (t_star - tl) * (t_star - tc) / ((tr - tl) * (tr - tc))
            )
    return MaxRecord(t_star=t_star, value=value, series_name=series)


def _fit_input(kind: str, Ns, values, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Ns and values as float arrays, checked: 1-d, of equal length, at least
    3 points, all finite (a fit of NaN or infinite values has no meaning)."""
    n_arr = np.asarray(Ns, dtype=float)
    y_arr = np.asarray(values, dtype=float)
    if n_arr.shape != y_arr.shape or n_arr.ndim != 1:
        raise DomainError(f"Ns and {name} must be 1-d sequences of equal length")
    if len(n_arr) < 3:
        raise DomainError(f"{kind} fit needs at least 3 points, got {len(n_arr)}")
    if not (np.isfinite(n_arr).all() and np.isfinite(y_arr).all()):
        raise DomainError("fit requires finite N and values")
    return n_arr, y_arr


def _least_squares(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) @ (y - y.mean())))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), min(max(r2, 0.0), 1.0)


def fit_power_law(Ns, P_maxes) -> FitResult:
    """Least squares on (log N, log P): alpha = slope, beta = exp(intercept)."""
    n_arr, p_arr = _fit_input("power-law", Ns, P_maxes, "P_maxes")
    if np.any(n_arr <= 0) or np.any(p_arr <= 0):
        raise DomainError("power-law fit requires strictly positive values")
    slope, intercept, r2 = _least_squares(np.log(n_arr), np.log(p_arr))
    return FitResult(alpha=slope, beta=float(np.exp(intercept)), r_squared=r2,
                     n_points=len(n_arr))


def fit_linear(Ns, E_maxes) -> tuple[float, float, float]:
    """Ordinary least squares in linear coordinates: (slope, intercept, r^2)."""
    return _least_squares(*_fit_input("linear", Ns, E_maxes, "E_maxes"))


def convergence_check(params: ModelParams, delta_ph: int,
                      cfg: PropagationConfig | None = None) -> float:
    """Photon-truncation audit: rerun with N_ph + delta_ph on the same grid.

    Both cutoffs share the drive, so they are propagated as one two-block
    batch.  Returns the worst absolute deviation across the E_b, P_b and
    dE_b series.
    """
    if delta_ph < 1:
        raise DomainError(f"delta_ph must be >= 1, got {delta_ph}")
    cfg = cfg or PropagationConfig()
    base = replace(params, N_ph=params.photon_cutoff)
    wider = replace(params, N_ph=params.photon_cutoff + delta_ph)
    traj_a, traj_b = propagate([base, wider], cfg)
    worst = 0.0
    for name in ("E_b", "P_b", "dE_b"):
        dev = np.abs(getattr(traj_a, name) - getattr(traj_b, name)).max()
        worst = max(worst, float(dev))
    return worst
