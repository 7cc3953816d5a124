"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
measurements.  The expensive N-sweeps are computed once in session fixtures
and shared between the scaling, linearity and capacity-bound criteria.

Three checks, the Table-of-exponents bounds and ordering (criteria 7a-7c),
are asserted at their stated bounds even though the documented model does not
meet them (measurements in each docstring).  The repository cannot settle
them until the paper's Table 1 and model section are in PAPER.md, so they
fail rather than being loosened.  Criteria 3 and 8a check what the documented
model promises: the N_ph = 4N truncation claim within its weak-coupling
scope, and the weak-coupling magnetization row against perturbation theory.
"""

from dataclasses import replace

import numpy as np
import pytest

from dickeqb import (
    ModelParams,
    PropagationConfig,
    convergence_check,
    find_max,
    fit_linear,
    fit_power_law,
    initial_state,
    oracle_propagate,
    propagate,
)
from dickeqb.analysis import CONVERGENCE_THRESHOLD
from dickeqb.model import static_hamiltonian
from dickeqb.observables import ground_state
from reference import (
    build_collective_spin,
    expectation,
    lift,
    partial_trace_spin,
    site_operator,
    spin_to_joint,
    step_magnus4,
)

# capacity-bound pool: every trajectory produced anywhere in this suite
_POOL = []


def _run(params, cfg):
    traj = propagate(params, cfg)
    _POOL.append((params, traj))
    return traj


def _run_cell(batch, cfg):
    """A sweep cell's N values propagated as one batch, as ``sweep`` does."""
    trajs = propagate(batch, cfg)
    _POOL.extend(zip(batch, trajs))
    return trajs


def report(criterion, ok, msg):
    print(f"\n[CRITERION {criterion}] {'PASS' if ok else 'FAIL'} -- {msg}")


SWEEP_CFG = PropagationConfig(t_max=20.0, dt=4e-3, sample_stride=5)
N_RANGE = (1, 2, 3, 4, 5, 6)


@pytest.fixture(scope="module")
def table1_sweep():
    """P_max over N for the (g, eta) cells at Omega = 0.1."""
    cells = {}
    for g in (0.1, 2.0):
        for eta in (-1.0, -0.5, 0.5, 1.0):
            trajs = _run_cell([ModelParams(N=n, g=g, Omega=0.1, eta=eta) for n in N_RANGE],
                              SWEEP_CFG)
            pm = [find_max(traj, "P_b").value for traj in trajs]
            cells[(g, eta)] = fit_power_law(N_RANGE, pm).alpha
    return cells


@pytest.fixture(scope="module")
def linearity_sweep():
    """E_max over N at Omega = 1.0, eta = 0.8 for g in {0.5, 1.0}."""
    out = {}
    for g in (0.5, 1.0):
        trajs = _run_cell([ModelParams(N=n, g=g, Omega=1.0, eta=0.8) for n in N_RANGE],
                          SWEEP_CFG)
        out[g] = [find_max(traj, "E_b").value for traj in trajs]
    return out


def test_criterion_1_unitarity_and_conservation():
    """20 random draws: norm within 1e-8 over [0, 20]; energy constant at Omega=0."""
    rng = np.random.default_rng(20250808)
    draws = [
        ModelParams(
            N=int(rng.integers(1, 5)),
            g=float(rng.uniform(0.0, 2.0)),
            Omega=float(rng.uniform(0.0, 2.0)),
            eta=float(rng.uniform(-1.0, 1.0)),
        )
        for _ in range(20)
    ]
    cfg = PropagationConfig(t_max=20.0, dt=4e-3, sample_stride=25)
    worst_norm = 0.0
    for params in draws:
        traj = _run(params, cfg)
        worst_norm = max(worst_norm, float(np.abs(traj.norms - 1.0).max()))

    worst_energy = 0.0
    for params in draws[:6]:
        undriven = replace(params, Omega=0.0)
        h_op = static_hamiltonian(undriven)
        state = initial_state(undriven)
        e0 = expectation(state, h_op)
        dt, n_steps = 4e-3, 5000
        for k in range(n_steps):
            state = step_magnus4(state, k * dt, dt, undriven)
            if (k + 1) % 500 == 0:
                worst_energy = max(worst_energy, abs(expectation(state, h_op) - e0))

    ok = worst_norm < 1e-8 and worst_energy < 1e-8
    report(1, ok, f"max |norm-1| = {worst_norm:.3e}, max energy drift = {worst_energy:.3e}")
    assert worst_norm < 1e-8
    assert worst_energy < 1e-8


def test_criterion_2_oracle_equivalence():
    """magnus4 vs the DOP853 Runge-Kutta oracle on the driven pair."""
    params = ModelParams(N=2, N_ph=8, g=0.5, Omega=1.0, eta=0.8)
    cfg = PropagationConfig(t_max=10.0, dt=1e-3, sample_stride=10)
    t_m = _run(params, cfg)
    t_o = oracle_propagate(params, cfg)
    max_de = float(np.abs(t_m.E_b - t_o.E_b).max())
    overlap = np.vdot(lift(params, t_m.final_amplitudes), t_o.final_amplitudes)
    infidelity = float(1.0 - abs(overlap) ** 2)
    ok = max_de < 1e-6 and infidelity < 1e-8
    report(2, ok, f"max |dE_b| = {max_de:.3e}, terminal infidelity = {infidelity:.3e}")
    assert max_de < 1e-6
    assert infidelity < 1e-8


def test_criterion_3_truncation_claim():
    """The N_ph = 4N truncation claim holds at weak coupling and drive only.

    ``ModelParams`` promises a truncation error below 1e-5 at N_ph = 4N when
    coupling and drive are both weak.  At N=5, g=0.1, Omega=0.1 the
    N_ph=20-vs-24 audit measures ~4.5e-7.  At g=0.5, Omega=1.0 (the README
    ``evolve`` point) the resonant drive keeps pumping the cavity and no
    cutoff converges: the deviation is 2.6e-1 (20 vs 24) and still 2.3e-1
    (40 vs 48), <n> at t=20 grows with the cutoff (10.4 at 20, 25.7 at 48)
    and 1.7-6% of the population sits on the top Fock level.  That instance
    must stay flagged by the audit (deviation >= CONVERGENCE_THRESHOLD), so
    an audit that stops seeing the edge population fails this test.
    """
    cfg = PropagationConfig(t_max=20.0, dt=2e-3, sample_stride=10)
    weak = convergence_check(ModelParams(N=5, g=0.1, Omega=0.1, eta=0.8, N_ph=20), 4, cfg)
    strong = convergence_check(ModelParams(N=5, g=0.5, Omega=1.0, eta=0.8, N_ph=20), 4, cfg)
    ok = weak < CONVERGENCE_THRESHOLD <= strong
    report(3, ok, f"series deviation N_ph=20 vs 24: {weak:.3e} at g=0.1, Omega=0.1 "
                  f"(target < {CONVERGENCE_THRESHOLD:.0e}); {strong:.3e} at g=0.5, "
                  f"Omega=1.0 (must be flagged)")
    assert weak < CONVERGENCE_THRESHOLD, f"weak-drive deviation {weak:.3e} exceeds 1e-5"
    assert strong >= CONVERGENCE_THRESHOLD, (
        f"strong-drive deviation {strong:.3e} not flagged by the audit")


def test_criterion_4_weak_coupling_analytics():
    """Single-atom single-excitation exchange: E_max ~ omega0 at t* ~ pi/(2g)."""
    params = ModelParams(N=1, g=0.05, Omega=0.0, eta=0.0, n_init=1)
    cfg = PropagationConfig(t_max=40.0, dt=2e-3, sample_stride=10)
    traj = _run(params, cfg)
    rec = find_max(traj, "E_b")
    t_expect = np.pi / (2 * 0.05)
    e_err = abs(rec.value - 1.0)
    t_err = abs(rec.t_star - t_expect) / t_expect
    ok = e_err < 0.01 and t_err < 0.02
    report(4, ok, f"E_max = {rec.value:.5f} (err {e_err:.2%}), "
                  f"t* = {rec.t_star:.3f} vs {t_expect:.3f} (err {t_err:.2%})")
    assert e_err < 0.01
    assert t_err < 0.02


def test_criterion_6_linearity_of_maximum_energy(linearity_sweep):
    """E_max grows linearly with N at Omega=1.0, eta=0.8 for g in {0.5, 1.0}."""
    r2s = {}
    for g, em in linearity_sweep.items():
        slope, _, r2 = fit_linear(N_RANGE, em)
        r2s[g] = r2
        assert slope > 0
    ok = all(r2 >= 0.98 for r2 in r2s.values())
    report(6, ok, ", ".join(f"g={g}: r^2={r2:.5f}" for g, r2 in sorted(r2s.items())))
    for g, r2 in r2s.items():
        assert r2 >= 0.98, f"linearity r^2 {r2:.4f} < 0.98 at g={g}"


def test_criterion_7a_weak_coupling_exponent(table1_sweep):
    """alpha at (g=0.1, Omega=0.1, eta=1.0) >= 1.4.

    Asserted as stated; the literal (unnormalized) collective coupling gives
    alpha ~ 0.99 here: the repulsive flip-flop shifts the symmetric spin
    mode off cavity resonance more strongly as N grows, which caps the
    collective speed-up for eta = +1.  Measured on the ``table1_sweep`` grid:

        alpha      eta = -1.0   -0.5   +0.5   +1.0
        g = 0.1          1.419  1.449  1.142  0.989
        g = 2.0          1.425  1.426  1.425  1.423

    With the sign of eta flipped this check would pass (1.419), but 7b and 7c
    would still fail; the repository does not settle the sign convention.
    Criteria 7a-7c stay asserted at their stated bounds until the paper's
    Table 1 and model section are in PAPER.md.
    """
    alpha = table1_sweep[(0.1, 1.0)]
    ok = alpha >= 1.4
    report("7a", ok, f"alpha(g=0.1, eta=+1.0) = {alpha:.3f} (target >= 1.4)")
    assert alpha >= 1.4, f"alpha {alpha:.3f} below 1.4"


def test_criterion_7b_deep_strong_exponent(table1_sweep):
    """alpha at (g=2.0, Omega=0.1, eta=-0.5) <= 1.2.

    Asserted as stated; measured 1.426, insensitive to the photon cutoff
    (identical at N_ph = 6N) and to the time window (the power peak sits at
    t* ~ 0.2).  The deep-strong-coupling quench of this Hamiltonian retains
    a superlinear charging advantage, and an independent estimate agrees:
    the short-time onset E_b ~ g^2 N (2N+1) t^2 does not depend on eta and
    gives P_max ~ N sqrt(2N+1).  Its ratios over N = 1..6 are 2.58, 4.58,
    6.93, 9.57, 12.49 against 2.63, 4.69, 7.12, 9.85, 12.86 measured, and its
    fitted alpha is 1.41.  So alpha <= 1.2 contradicts the documented
    Hamiltonian and initial state; whether the paper's Table 1 uses another
    model is not in the repository (see criterion 7a).
    """
    alpha = table1_sweep[(2.0, -0.5)]
    ok = alpha <= 1.2
    report("7b", ok, f"alpha(g=2.0, eta=-0.5) = {alpha:.3f} (target <= 1.2)")
    assert alpha <= 1.2, f"alpha {alpha:.3f} above 1.2"


def test_criterion_7c_exponent_ordering(table1_sweep):
    """alpha(g=0.1) > alpha(g=2.0) at Omega=0.1 for every eta (as stated).

    Holds only at eta=-0.5 (1.449 vs 1.426): the deep-strong exponent is
    ~1.42 for every eta (criterion 7b), above the weak-coupling one at
    eta = -1, +0.5 and +1 (table in criterion 7a).
    """
    pairs = {}
    for eta in (-1.0, -0.5, 0.5, 1.0):
        pairs[eta] = (table1_sweep[(0.1, eta)], table1_sweep[(2.0, eta)])
    ok = all(a > b for a, b in pairs.values())
    report("7c", ok, ", ".join(
        f"eta={eta:+.1f}: {a:.3f} vs {b:.3f}" for eta, (a, b) in sorted(pairs.items())))
    for eta, (a, b) in pairs.items():
        assert a > b, f"ordering violated at eta={eta}: {a:.3f} <= {b:.3f}"


def test_criterion_5_capacity_bound(table1_sweep, linearity_sweep):
    """0 <= E_b(t) <= N*omega0 (within 1e-10) across every run of this suite."""
    assert _POOL, "no trajectories collected"
    worst_low, worst_high = 0.0, 0.0
    for params, traj in _POOL:
        worst_low = min(worst_low, float(traj.E_b.min()))
        worst_high = max(worst_high, float((traj.E_b - params.N * params.omega0).max()))
    ok = worst_low >= -1e-10 and worst_high <= 1e-10
    report(5, ok, f"{len(_POOL)} trajectories; min E_b = {worst_low:.3e}, "
                  f"max E_b - N*omega0 = {worst_high:.3e}")
    assert worst_low >= -1e-10
    assert worst_high <= 1e-10


PHASE_ETAS = np.round(np.linspace(-1.0, 1.0, 11), 10)
PHASE_GS = [0.05] + list(np.round(np.linspace(0.2, 2.0, 10), 10))


@pytest.fixture(scope="module")
def phase_grid():
    rows = {}
    for eta in PHASE_ETAS:
        for g in PHASE_GS:
            params = ModelParams(N=5, g=float(g), eta=float(eta), N_ph=20)
            result = ground_state(static_hamiltonian(params), params.dims)
            rows[(float(eta), float(g))] = result.magnetization
    return rows


def _weak_coupling_magnetization(eta, g, n_atoms=5):
    """Ground-state magnetization to second order in g, and its g^4 coefficient.

    Rayleigh-Schroedinger theory on the 2^N spin space alone, independent of
    ``ground_state`` and of the truncated cavity.  At g=0 the ground state is
    phi0 (x) |0>, with phi0 an eigenstate of omega0*J_z + flip-flop.  The
    coupling W = 2(a'+a)J_x moves one photon at a time, so the photon number n
    enters only as the energy shift n*omegac and the ladder factors sqrt(n);
    the corrections psi_1..psi_3 hold at most three photons.  The first one
    solves (H_spin - E0 + omegac) psi_1 = -2 J_x phi0, which is never singular
    since omegac > 0.

    The ground state at small g follows the spin level of lowest energy to
    second order, E_j + g^2 E2_j.  Levels within omegac/2 of the spin ground
    level compete (their one-photon denominators stay above omegac/2); at
    eta=+1 the level of the other excitation parity lies only 4.6e-3 above.

    Returns (m0 + g^2 c2, c4) for m(g) = m0 + g^2 c2 + g^4 c4 + O(g^6).
    """
    spin = ModelParams(N=n_atoms, eta=eta, N_ph=0, n_init=0)  # g=0, one photon slot
    vals, vecs = np.linalg.eigh(static_hamiltonian(spin).toarray())
    w_spin = 2.0 * build_collective_spin("x", spin.dims).toarray()
    excited = np.array([bin(s).count("1") for s in range(spin.dims.spin_dim)])
    m_diag = (excited - n_atoms / 2.0) / (n_atoms / 2.0)
    photons = np.arange(4)[:, None]  # rows of a perturbed state are n = 0..3
    ladder = np.sqrt(photons[1:])

    def couple(psi):
        u = psi @ w_spin.T
        out = np.zeros_like(u)
        out[1:] += ladder * u[:-1]
        out[:-1] += ladder * u[1:]
        return out

    def resolve(rhs, j):
        # (H_spin + n*omegac - E_j)^-1 with the unperturbed state projected out
        coef = rhs @ vecs.conj()
        den = vals + spin.omegac * photons - vals[j]
        coef[0, j], den[0, j] = 0.0, 1.0
        return (coef / den) @ vecs.T

    def first_order(j):
        phi = np.zeros((4, vals.size), dtype=complex)
        phi[0] = vecs[:, j]
        psi1 = -resolve(couple(phi), j)
        return psi1, np.vdot(phi, couple(psi1)).real

    candidates = np.flatnonzero(vals - vals[0] < 0.5 * spin.omegac)
    orders = {j: first_order(j) for j in candidates}
    j = min(candidates, key=lambda k: vals[k] + g**2 * orders[k][1])
    psi1, e2 = orders[j]
    psi2 = -resolve(couple(psi1), j)
    psi3 = resolve(e2 * psi1 - couple(psi2), j)
    m0 = float(m_diag @ np.abs(vecs[:, j]) ** 2)

    def shifted(x, y):
        return np.vdot(x, (m_diag - m0) * y).real

    c2 = shifted(psi1, psi1)
    c4 = shifted(psi2, psi2) + 2.0 * shifted(psi1, psi3) - np.vdot(psi1, psi1).real * c2
    return m0 + g**2 * c2, c4


def test_criterion_8a_deep_ferromagnetic_row(phase_grid):
    """The g=0.05 row equals its g -> 0 limit up to the second-order admixture.

    The stated criterion, m = -1 within 1e-6 along g=0.05, cannot hold for
    the documented Hamiltonian.  The g=0 spin ground state m0 is -1 only for
    -0.52 <~ eta <~ 0.62, where omega0 + lambda_min(eta_matrix) > 0; beyond,
    it holds excitations: m0 = -0.6 at eta = -0.8, -0.6, +0.8, +1 and -0.2 at
    eta = -1.  The coupling then adds g^2 c2(eta), with c2 = 1/2 at eta=0,
    so |m+1| = 1.25e-3 there.

    The reference is m0 + g^2 c2 from ``_weak_coupling_magnetization``.  The
    bound is the neglected fourth-order term 2|c4| g^4, the factor 2 leaving
    room for the sixth order and beyond.  Measured |m - m_PT2| is at most
    4.2e-4 (eta=-0.8) and 5e-5 for eta >= 0, within 0.53 of the bound; what
    remains beyond c4 g^4 is at most 6% of it.  Dropping the admixture or
    doubling it misses by 1.25e-3 at eta=0, where the bound is ~1e-4.
    """
    g = 0.05
    worst, worst_ratio = 0.0, 0.0
    for eta in PHASE_ETAS:
        m_ref, c4 = _weak_coupling_magnetization(float(eta), g)
        dev = abs(phase_grid[(float(eta), g)] - m_ref)
        worst = max(worst, dev)
        worst_ratio = max(worst_ratio, dev / (2.0 * abs(c4) * g**4))
    ok = worst_ratio <= 1.0
    report("8a", ok, f"max |m - m_PT2| along g=0.05: {worst:.3e}; "
                     f"worst ratio to the fourth-order bound {worst_ratio:.3f} (target <= 1)")
    assert worst_ratio <= 1.0, f"g=0.05 row leaves second-order theory: ratio {worst_ratio:.3f}"


def test_criterion_8b_magnetization_bounds(phase_grid):
    """Across the grid the magnetization lies in [-1, 0 + 1e-6]."""
    values = np.array(list(phase_grid.values()))
    ok = values.min() >= -1.0 - 1e-9 and values.max() <= 1e-6
    report("8b", ok, f"m range over {values.size} grid points: "
                     f"[{values.min():.6f}, {values.max():.6f}]")
    assert values.min() >= -1.0 - 1e-9
    assert values.max() <= 1e-6


def test_criterion_8c_monotone_departure_along_eta0(phase_grid):
    """Departure from m = -1 grows monotonically with g along eta = 0."""
    departures = [phase_grid[(0.0, float(g))] + 1.0 for g in PHASE_GS]
    diffs = np.diff(departures)
    ok = bool(np.all(diffs >= -1e-12)) and departures[-1] > departures[0]
    report("8c", ok, f"departure grows {departures[0]:.3e} -> {departures[-1]:.3e}, "
                     f"min step {diffs.min():.3e}")
    assert np.all(diffs >= -1e-12)
    assert departures[-1] > departures[0]


def test_criterion_9_property_suite(tmp_path):
    """Module-invariant spot checks plus byte-identical CLI reruns."""
    from dickeqb.operators import HilbertDims, StateVector

    # su(2) commutators for N <= 4
    for n_atoms in (1, 2, 3, 4):
        dims = HilbertDims(n_atoms, 0)
        j = {ax: build_collective_spin(ax, dims) for ax in "xyz"}
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            worst = np.abs((j[a] @ j[b] - j[b] @ j[a] - 1j * j[c]).toarray()).max()
            assert worst < 1e-12

    # flip-flop couplings conserve the total spin excitation number
    from dickeqb.model import build_H_static

    p = ModelParams(N=4, g=0.0, eta=0.9, N_ph=0, n_init=0)
    h = build_H_static(p)
    sz = spin_to_joint(sum(site_operator(i, "z", 4) for i in range(1, 5)), p.dims)
    comm = h @ sz - sz @ h
    assert (np.abs(comm.data).max() if comm.nnz else 0.0) < 1e-12

    # partial trace consistent with joint expectations on random states
    rng = np.random.default_rng(5)
    dims = HilbertDims(3, 4)
    for _ in range(3):
        amps = rng.normal(size=dims.total_dim) + 1j * rng.normal(size=dims.total_dim)
        state = StateVector(dims, amps / np.linalg.norm(amps))
        herm = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        herm = herm + herm.conj().T
        direct = expectation(state, spin_to_joint(herm, dims))
        via = float(np.trace(partial_trace_spin(state) @ herm).real)
        assert abs(direct - via) < 1e-10

    # exact recovery of planted power laws
    ns = np.arange(1, 8)
    fit = fit_power_law(ns, 0.37 * ns**1.83)
    assert abs(fit.alpha - 1.83) < 1e-12
    assert abs(fit.beta - 0.37) < 1e-12

    # byte-identical CLI reruns
    import json

    from dickeqb import cli

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        N=2, g=0.6, Omega=0.8, eta=0.4, N_ph=6, n_init=1,
        t_max=1.0, dt=0.005, sample_stride=10)))
    for sub in ("r1", "r2"):
        assert cli.main(["evolve", "--config", str(cfg_path),
                         "--out", str(tmp_path / sub)]) == 0
    identical = all(
        (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
        for name in ("trajectory.csv", "summary.json")
    )
    report(9, identical, "commutators, excitation conservation, partial-trace "
                         "consistency, fit exactness, byte-identical reruns")
    assert identical
