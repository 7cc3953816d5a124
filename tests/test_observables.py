import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dickeqb.errors import ContractError, DomainError, NumericalError
from dickeqb.model import (
    ModelParams,
    even_spin_terms,
    full_spin_terms,
    initial_state,
    reflection_isometry,
    static_hamiltonian,
)
from dickeqb.observables import (
    DENSE_FALLBACK_MAX_DIM,
    DENSE_SOLVER_DIM,
    VARIANCE_FLOOR,
    GroundStateResult,
    JzMoments,
    charging_power,
    energy_fluctuation,
    ground_state,
    jz_mean,
    jz_moments,
    magnetization,
    stored_energy,
)
from dickeqb.operators import HilbertDims, StateVector
from reference import (
    build_collective_spin,
    build_pauli,
    expectation,
    partial_trace_spin,
    site_operator,
)


def state_from_amps(dims, pairs):
    """Build a normalized state from {(spin_index, photons): amplitude}."""
    amps = np.zeros(dims.total_dim, dtype=complex)
    for (s, n), a in pairs.items():
        amps[s * dims.boson_dim + n] = a
    return StateVector(dims, amps / np.linalg.norm(amps))


class TestStoredEnergy:
    def test_zero_at_start(self):
        p = ModelParams(N=3, n_init=2)
        assert stored_energy(jz_moments(initial_state(p)), p) == pytest.approx(0.0, abs=1e-12)

    def test_capacity_at_full_excitation(self):
        p = ModelParams(N=3, omega0=1.2, N_ph=4, n_init=0)
        full = state_from_amps(p.dims, {(p.dims.spin_dim - 1, 0): 1.0})
        assert stored_energy(jz_moments(full), p) == pytest.approx(3 * 1.2, abs=1e-12)

    def test_single_excitation_fraction(self):
        p = ModelParams(N=2, N_ph=2, n_init=0)
        one = state_from_amps(p.dims, {(0b01, 0): 1.0})
        assert stored_energy(jz_moments(one), p) == pytest.approx(1.0, abs=1e-12)


class TestChargingPower:
    def test_arithmetic(self):
        assert charging_power(2.0, 4.0) == pytest.approx(0.5)

    def test_zero_time_convention(self):
        assert charging_power(1.3, 0.0) == 0.0

    def test_halves_when_time_doubles(self):
        assert charging_power(2.0, 8.0) == pytest.approx(0.5 * charging_power(2.0, 4.0))

    def test_negative_time_rejected(self):
        with pytest.raises(ContractError):
            charging_power(1.0, -0.1)


class TestEnergyFluctuation:
    def test_basis_states_have_zero_std(self):
        p = ModelParams(N=3, n_init=1)
        psi0 = initial_state(p)
        assert energy_fluctuation(jz_moments(psi0), jz_moments(psi0), p) == 0.0
        full = state_from_amps(p.dims, {(p.dims.spin_dim - 1, 0): 1.0})
        assert energy_fluctuation(jz_moments(full), jz_moments(psi0), p) == 0.0

    def test_balanced_superposition(self):
        p = ModelParams(N=1, N_ph=3, n_init=2)
        psi0 = initial_state(p)
        plus = jz_moments(state_from_amps(p.dims, {(0, 2): 1.0, (1, 2): 1.0}))
        assert energy_fluctuation(plus, jz_moments(psi0), p) == pytest.approx(0.5, abs=1e-12)

    def test_scales_with_omega0(self):
        p = ModelParams(N=1, omega0=2.0, N_ph=1, n_init=0)
        psi0 = initial_state(p)
        plus = jz_moments(state_from_amps(p.dims, {(0, 0): 1.0, (1, 0): 1.0}))
        assert energy_fluctuation(plus, jz_moments(psi0), p) == pytest.approx(1.0, abs=1e-12)


class TestJzDiagonal:
    @pytest.mark.parametrize("space", [full_spin_terms, even_spin_terms], ids=["full", "even"])
    @pytest.mark.parametrize("n_atoms", range(1, 11))
    def test_is_popcount_minus_half_n(self, n_atoms, space):
        # The diagonal of J_z over the space's spin states.  In the even
        # sector, the popcount of each column's representative, its first
        # stored row in reflection_isometry.  V' J_z V weighs a pair's two
        # entries by sqrt(1/2)^2 each, which rounds in the last bit.
        states = np.arange(2**n_atoms)
        if space is even_spin_terms:
            iso = reflection_isometry(n_atoms).tocsc()
            states = iso.indices[iso.indptr[:-1]]
        want = np.array([bin(s).count("1") for s in states]) - n_atoms / 2.0
        got = space(n_atoms).jz
        if space is full_spin_terms:
            assert np.array_equal(got, want)
        else:
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-15


class TestMagnetization:
    def test_reference_points(self):
        p = ModelParams(N=2, N_ph=1, n_init=0)
        down = initial_state(p)
        up = state_from_amps(p.dims, {(0b11, 0): 1.0})
        half = state_from_amps(p.dims, {(0b01, 0): 1.0, (0b10, 0): 1.0})
        assert magnetization(down) == pytest.approx(-1.0, abs=1e-12)
        assert magnetization(up) == pytest.approx(1.0, abs=1e-12)
        assert magnetization(half) == pytest.approx(0.0, abs=1e-12)

    def test_jz_mean_matches_expectation(self):
        p = ModelParams(N=2, N_ph=3)
        rng = np.random.default_rng(4)
        amps = rng.normal(size=p.dims.total_dim) + 1j * rng.normal(size=p.dims.total_dim)
        state = StateVector(p.dims, amps / np.linalg.norm(amps))
        jz = build_collective_spin("z", p.dims)
        assert jz_mean(state) == pytest.approx(expectation(state, jz), abs=1e-12)


def _break_arpack(monkeypatch) -> list:
    """Make every ARPACK call raise ArpackNoConvergence; returns the calls made."""
    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(spla, "eigsh", fail)
    return calls


class TestGroundState:
    def test_decoupled_limit(self):
        p = ModelParams(N=2, g=0.0, eta=0.0, N_ph=3, n_init=0)
        res = ground_state(static_hamiltonian(p), p.dims)
        assert res.energy == pytest.approx(-1.0, abs=1e-10)
        assert res.magnetization == pytest.approx(-1.0, abs=1e-10)
        assert not res.degenerate
        assert abs(abs(res.state.amplitudes[0]) - 1.0) < 1e-8

    # The N = 2 points have a reflection-odd state low in the spectrum: the
    # first excited state at eta = 1 (gap 0.0017), the ground state, the
    # singlet, at eta = 2.  At N = 4 the ground state is reflection-odd too.
    # A reflection-even ARPACK start vector misses them.
    @pytest.mark.parametrize("kwargs", [
        dict(N=3, g=0.1, eta=1.0),
        dict(N=2, N_ph=10, g=0.05, eta=1.0),
        dict(N=2, N_ph=10, g=0.05, eta=2.0),
        dict(N=4, N_ph=8, g=0.05, eta=1.0),
    ], ids=["n3", "n2-eta1", "n2-eta2", "n4-odd"])
    def test_lanczos_matches_dense_full_spectrum(self, kwargs):
        # independent oracle: full dense diagonalization
        p = ModelParams(**kwargs)
        h = static_hamiltonian(p)
        assert p.dims.total_dim > DENSE_SOLVER_DIM  # solved by ARPACK
        res = ground_state(h, p.dims)
        vals, vecs = np.linalg.eigh(h.toarray())
        vec = vecs[:, 0]
        ref_m = magnetization(StateVector(p.dims, vec / np.linalg.norm(vec)))
        assert res.energy == pytest.approx(vals[0], abs=1e-10)
        assert res.magnetization == pytest.approx(ref_m, abs=1e-8)
        assert res.gap == pytest.approx(vals[1] - vals[0], abs=1e-8)

    def test_dense_and_lanczos_agree(self, monkeypatch):
        # an ARPACK failure falls back to the dense solve
        p = ModelParams(N=2, g=0.8, eta=-0.5, N_ph=12)
        h = static_hamiltonian(p)
        assert p.dims.total_dim > DENSE_SOLVER_DIM
        lanczos = ground_state(h, p.dims)
        calls = _break_arpack(monkeypatch)
        dense = ground_state(h, p.dims)
        assert len(calls) == 1
        assert dense.energy == pytest.approx(lanczos.energy, abs=1e-9)
        assert dense.magnetization == pytest.approx(lanczos.magnetization, abs=1e-8)
        assert dense.gap == pytest.approx(lanczos.gap, abs=1e-8)

    def test_no_fallback_above_dense_cap(self, monkeypatch):
        _break_arpack(monkeypatch)
        p = ModelParams(N=8, N_ph=16)
        assert p.dims.total_dim > DENSE_FALLBACK_MAX_DIM
        with pytest.raises(NumericalError, match="eigensolver did not converge"):
            ground_state(static_hamiltonian(p), p.dims)

    # N_ph = 5 and 10 put the dimension (24, 44) on either side of
    # DENSE_SOLVER_DIM, so the dense and the ARPACK solve are both checked.
    @pytest.mark.parametrize("N_ph", [5, 10], ids=["dense", "lanczos"])
    @pytest.mark.parametrize("imag", [0.0, 0.4], ids=["real", "complex"])
    def test_matches_dense_eigh(self, N_ph, imag):
        # model Hamiltonians are real and take the real symmetric solve; a
        # sigma^y term makes one complex Hermitian, which keeps the complex one
        p = ModelParams(N=2, g=0.5, eta=0.3, N_ph=N_ph)
        h = static_hamiltonian(p)
        if imag:
            h = h + imag * build_pauli(1, "y", p.dims)
        assert h.dtype == (np.complex128 if imag else np.float64)
        assert (p.dims.total_dim > DENSE_SOLVER_DIM) == (N_ph == 10)
        res = ground_state(h, p.dims)
        vals, vecs = np.linalg.eigh(h.toarray())
        assert vals[1] - vals[0] > 1e-3  # non-degenerate point
        assert res.state.amplitudes.dtype == np.complex128
        assert res.energy == pytest.approx(vals[0], abs=1e-10)
        assert res.magnetization == pytest.approx(
            magnetization(StateVector(p.dims, vecs[:, 0])), abs=1e-8)
        assert res.gap == pytest.approx(vals[1] - vals[0], abs=1e-9)

    def test_degenerate_flag(self):
        dims = HilbertDims(1, 1)
        res = ground_state(np.diag([0.0, 0.0, 1.0, 2.0]), dims)
        assert res.degenerate
        assert res.gap < 1e-10

    def test_requires_hermitian(self):
        dims = HilbertDims(1, 0)
        with pytest.raises(ContractError):
            ground_state(np.array([[0, 1], [0, 0]], dtype=complex), dims)

    @pytest.mark.parametrize("H", [ModelParams(N=2, N_ph=3, g=0.5), [[0.0] * 12] * 12,
                                   np.zeros(144), np.zeros((1, 12, 12))],
                             ids=["params", "list", "1-D", "3-D"])
    def test_rejects_what_is_not_a_matrix(self, H):
        dims = ModelParams(N=2, N_ph=3).dims
        with pytest.raises(ContractError, match="2-D array or sparse matrix"):
            ground_state(H, dims)

    @pytest.mark.parametrize("H", [sp.identity(12, format="csr"), np.zeros((24, 23))],
                             ids=["other dimension", "not square"])
    def test_rejects_wrong_shape(self, H):
        with pytest.raises(DomainError, match="does not match total_dim 24"):
            ground_state(H, ModelParams(N=2, N_ph=5).dims)

    def test_near_decoupled_stays_ferromagnetic(self):
        # tiny g admixture scales as g^2/2 in the magnetization
        for eta in (-0.5, 0.0, 0.5):
            p = ModelParams(N=3, g=0.005, eta=eta)
            res = ground_state(static_hamiltonian(p), p.dims)
            assert res.magnetization == pytest.approx(-1.0, abs=1e-4)

    def test_result_type(self):
        p = ModelParams(N=1, g=0.2, N_ph=4)
        res = ground_state(static_hamiltonian(p), p.dims)
        assert isinstance(res, GroundStateResult)
        assert -1.0 - 1e-9 <= res.magnetization <= 1.0
        assert np.linalg.norm(res.state.amplitudes) == pytest.approx(1.0, abs=1e-10)


class TestPartialTraceForm:
    @pytest.mark.parametrize("seed", [21, 22])
    def test_stored_energy_equals_reduced_density_form(self, seed):
        # joint-state expectation vs trace over the battery's reduced matrix
        p = ModelParams(N=3, omega0=1.0, N_ph=4)
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=p.dims.total_dim) + 1j * rng.normal(size=p.dims.total_dim)
        state = StateVector(p.dims, amps / np.linalg.norm(amps))
        direct = stored_energy(jz_moments(state), p)
        rho = partial_trace_spin(state)
        jz_spin = 0.5 * sum(site_operator(i, "z", 3).toarray() for i in range(1, 4))
        via_trace = p.omega0 * (np.trace(rho @ jz_spin).real + p.N / 2.0)
        assert direct == pytest.approx(via_trace, abs=1e-10)


class TestVarianceGuard:
    def test_negative_variance_detected(self):
        p = ModelParams(N=1, N_ph=0, n_init=0)
        psi = initial_state(p)
        # scale a basis state: m2 = m1^2 exactly, so any norm > 1 drives the
        # computed variance negative beyond the floor
        psi.amplitudes[0] = 0.0
        psi.amplitudes[1] = 1.2
        with pytest.raises(NumericalError):
            energy_fluctuation(jz_moments(psi), jz_moments(psi), p)

    @pytest.mark.parametrize("at", ["t", "0"])
    def test_moments_below_the_floor_raise(self, at):
        p = ModelParams(N=2, omega0=1.0)
        good = JzMoments(0.25, 0.5)
        bad = JzMoments(0.5, 0.25 + 2.0 * VARIANCE_FLOOR)
        within = JzMoments(0.5, 0.25 + 0.5 * VARIANCE_FLOOR)
        pair = (bad, good) if at == "t" else (good, bad)
        with pytest.raises(NumericalError, match="negative battery-energy variance"):
            energy_fluctuation(*pair, p)
        # a variance inside the floor is rounding and counts as 0
        assert energy_fluctuation(within, within, p) == 0.0

    def test_nan_variance_raises(self):
        p = ModelParams(N=2)
        good = JzMoments(0.25, 0.5)
        with pytest.raises(NumericalError, match="negative battery-energy variance nan"):
            energy_fluctuation(JzMoments(0.5, float("nan")), good, p)
