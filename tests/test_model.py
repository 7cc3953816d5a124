import math

import numpy as np
import pytest
import scipy.sparse as sp

from dickeqb.errors import DomainError
from dickeqb.model import (
    ModelParams,
    build_H_battery,
    build_H_static,
    charger_is_on,
    dipole_coupling,
    drive_coefficient,
    drive_commutator,
    drive_operator,
    eta_matrix,
    hamiltonian_at,
    initial_state,
    nested_commutators,
    reflection_isometry,
    static_hamiltonian,
    _spin_terms,
)
from dickeqb.operators import build_boson, build_collective_spin, expectation, site_operator


class TestModelParams:
    def test_defaults_resolve(self):
        p = ModelParams(N=3)
        assert p.photon_cutoff == 12
        assert p.initial_photons == 3
        assert p.dims.total_dim == 8 * 13
        assert p.omega0 == p.omegac == p.omegad == 1.0

    def test_overrides(self):
        p = ModelParams(N=2, N_ph=5, n_init=0)
        assert p.photon_cutoff == 5
        assert p.initial_photons == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(N=0),
            dict(N=1, omega0=0.0),
            dict(N=1, omegac=-1.0),
            dict(N=1, N_ph=-1),
            dict(N=1, n_init=9, N_ph=4),
            dict(N=1, T=0.0),
            dict(N=1, coupling_mode="nearest"),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(DomainError):
            ModelParams(**kwargs)


class TestDipoleCoupling:
    def test_nearest_neighbour(self):
        p = ModelParams(N=6, eta=0.8)
        assert dipole_coupling(1, 2, p) == pytest.approx(0.8)

    def test_inverse_cube(self):
        p = ModelParams(N=6, eta=0.8)
        assert dipole_coupling(1, 3, p) == pytest.approx(0.1)

    def test_cutoff(self):
        p = ModelParams(N=8, eta=0.8)
        assert dipole_coupling(1, 6, p) == 0.0
        assert dipole_coupling(1, 5, p) == pytest.approx(0.8 / 64)

    def test_same_site_rejected(self):
        with pytest.raises(DomainError):
            dipole_coupling(2, 2, ModelParams(N=3))

    def test_site_range_checked(self):
        with pytest.raises(DomainError):
            dipole_coupling(1, 7, ModelParams(N=3))

    def test_geometric_magic_angle(self):
        p = ModelParams(N=2, coupling_mode="geometric",
                        alpha_angle=math.acos(1 / math.sqrt(3)))
        assert dipole_coupling(1, 2, p) == pytest.approx(0.0, abs=1e-15)

    def test_geometric_value(self):
        # Gamma0 = c = R = omega0 = 1, alpha = 0: eta_ij = -(3/4) * 2 / d^3
        p = ModelParams(N=3, coupling_mode="geometric")
        assert dipole_coupling(1, 2, p) == pytest.approx(-1.5)
        assert dipole_coupling(1, 3, p) == pytest.approx(-1.5 / 8)

    @pytest.mark.parametrize("n_atoms", [2, 5, 12])
    def test_eta_matrix_invariants(self, n_atoms):
        p = ModelParams(N=n_atoms, eta=-0.7)
        m = eta_matrix(p)
        assert np.allclose(m, m.T)
        assert np.all(np.diag(m) == 0)
        for i in range(n_atoms):
            for j in range(n_atoms):
                d = abs(i - j)
                if d > 4:
                    assert m[i, j] == 0.0
                elif d >= 1:
                    assert abs(m[i, j]) == pytest.approx(abs(p.eta) / d**3)


class TestBatteryHamiltonian:
    def test_ground_and_top_energies(self):
        p = ModelParams(N=3, omega0=1.3, N_ph=2, n_init=0)
        hb = build_H_battery(p)
        psi0 = initial_state(p)
        assert expectation(psi0, hb) == pytest.approx(-3 * 1.3 / 2, abs=1e-12)
        top = np.zeros(p.dims.total_dim, dtype=complex)
        top[(p.dims.spin_dim - 1) * p.dims.boson_dim] = 1.0
        from dickeqb.operators import StateVector

        assert expectation(StateVector(p.dims, top), hb) == pytest.approx(3 * 1.3 / 2, abs=1e-12)

    def test_spectrum_two_atoms(self):
        p = ModelParams(N=2, N_ph=0, n_init=0)
        vals = np.sort(np.linalg.eigvalsh(build_H_battery(p).to_dense()))
        assert np.allclose(vals, [-1, 0, 0, 1], atol=1e-12)


class TestChargerHamiltonian:
    def test_pure_cavity_when_decoupled(self):
        p = ModelParams(N=2, g=0.0, eta=0.0, omegac=0.9, N_ph=5)
        h = build_H_static(p)
        for n in (0, 2, 5):
            idx = n  # spin block 0
            assert h.entry(idx, idx) == pytest.approx(0.9 * n, abs=1e-12)

    def test_flip_flop_conserves_excitation(self):
        p = ModelParams(N=4, g=0.0, eta=0.9, N_ph=0, n_init=0)
        h = build_H_static(p).mat
        sz_total = sum(site_operator(i, "z", 4) for i in range(1, 5))
        from dickeqb.operators import spin_to_joint

        sz = spin_to_joint(sz_total, p.dims)
        comm = (h @ sz - sz @ h)
        worst = abs(comm).max() if comm.nnz else 0.0
        assert worst < 1e-12

    def test_flip_flop_matrix_element(self):
        # <eg|H|ge> = eta for the nearest-neighbour pair
        p = ModelParams(N=2, g=0.0, eta=0.5, N_ph=0, n_init=0)
        h = build_H_static(p)
        eg = 2  # spin index 0b10: site 1 excited
        ge = 1  # spin index 0b01: site 2 excited
        assert h.entry(eg, ge) == pytest.approx(0.5, abs=1e-14)

    def test_reduces_to_dicke_form(self):
        # eta = 0, Omega = 0: entrywise equal to w0 Jz + wc a'a + 2g(a'+a)Jx
        p = ModelParams(N=3, g=0.7, eta=0.0, Omega=0.0, omegac=1.1, N_ph=4)
        h = hamiltonian_at(0.5, p).to_dense()
        jz = build_collective_spin("z", p.dims).to_dense()
        jx = build_collective_spin("x", p.dims).to_dense()
        a = build_boson("annihilate", p.dims).to_dense()
        ref = 1.0 * jz + 1.1 * (a.conj().T @ a) + 2 * 0.7 * (a.conj().T + a) @ jx
        assert np.abs(h - ref).max() < 1e-12


def pair_loop_hamiltonians(params):
    """Reference H_b and H_static: a loop over atom pairs of site operators."""
    n, dims = params.N, params.dims
    sites = range(1, n + 1)
    eye_b = sp.identity(dims.boson_dim)
    a = sp.diags(np.sqrt(np.arange(1.0, dims.boson_dim)), 1)
    jz = 0.5 * sum(site_operator(i, "z", n) for i in sites)
    jx = 0.5 * sum(site_operator(i, "x", n) for i in sites)
    flip_flop = sp.csr_matrix((dims.spin_dim, dims.spin_dim))
    for i in sites:
        for j in range(i + 1, n + 1):
            pair = (site_operator(i, "-", n) @ site_operator(j, "+", n)
                    + site_operator(j, "-", n) @ site_operator(i, "+", n))
            flip_flop = flip_flop + dipole_coupling(i, j, params) * pair
    h_b = params.omega0 * sp.kron(jz, eye_b)
    h_static = (sp.kron(sp.identity(dims.spin_dim), params.omegac * (a.T @ a))
                + 2.0 * params.g * sp.kron(jx, a + a.T) + sp.kron(flip_flop, eye_b))
    return h_b, h_static


def max_deviation(op, ref):
    diff = (op.mat - ref).tocsr()
    return np.abs(diff.data).max() if diff.nnz else 0.0


REFERENCE_CASES = [
    dict(coupling_mode="direct", eta=0.7),
    dict(coupling_mode="geometric", alpha_angle=0.4, R=0.9, Gamma0=1.2),
]


class TestAgainstPairLoop:
    @pytest.mark.parametrize("n_atoms", range(1, 7))
    @pytest.mark.parametrize("mode", REFERENCE_CASES, ids=["direct", "geometric"])
    def test_matches_pair_loop(self, n_atoms, mode):
        # N=6 has a pair at distance 5, beyond COUPLING_CUTOFF
        p = ModelParams(N=n_atoms, g=0.4, omega0=1.3, omegac=0.9, N_ph=3, n_init=0, **mode)
        h_b, h_static = pair_loop_hamiltonians(p)
        assert max_deviation(build_H_battery(p), h_b) <= 1e-14
        assert max_deviation(build_H_static(p), h_static) <= 1e-14

    def test_cache_holds_no_parameters(self):
        first = ModelParams(N=4, g=1.1, eta=-0.3, omega0=0.7, N_ph=2, n_init=0)
        build_H_battery(first)
        build_H_static(first)
        p = ModelParams(N=4, g=0.2, omega0=1.4, N_ph=3, n_init=0, **REFERENCE_CASES[1])
        h_b, h_static = pair_loop_hamiltonians(p)
        assert max_deviation(build_H_battery(p), h_b) <= 1e-14
        assert max_deviation(build_H_static(p), h_static) <= 1e-14

    def test_cached_terms_are_read_only(self):
        with pytest.raises(ValueError):
            _spin_terms(3).flip_flops[0].data[0] = 2.0



def site_reflection(n_atoms):
    """Permutation matrix of the site reflection i -> N+1-i on the spin basis."""
    dim = 2**n_atoms
    mirrors = [int(format(s, f"0{n_atoms}b")[::-1], 2) for s in range(dim)]
    return sp.csr_matrix((np.ones(dim), (mirrors, range(dim))), shape=(dim, dim))


class TestSiteReflection:
    @pytest.mark.parametrize("n_atoms", range(1, 8))
    @pytest.mark.parametrize("mode", REFERENCE_CASES, ids=["direct", "geometric"])
    def test_stepper_operators_commute(self, n_atoms, mode):
        # every operator the magnus4 stepper projects onto the even sector
        p = ModelParams(N=n_atoms, g=0.4, omega0=1.3, omegac=0.9, N_ph=3, n_init=0, **mode)
        r = sp.kron(site_reflection(n_atoms), sp.identity(p.dims.boson_dim), format="csr")
        operators = (build_H_battery(p), build_H_static(p), drive_operator(p),
                     drive_commutator(p), *nested_commutators(p))
        for op in operators:
            defect = r @ op.mat - op.mat @ r
            assert (abs(defect).max() if defect.nnz else 0.0) <= 1e-14

    @pytest.mark.parametrize("n_atoms", range(1, 8))
    def test_isometry_onto_even_sector(self, n_atoms):
        v = reflection_isometry(n_atoms)
        dim = 2**n_atoms
        assert v.shape == (dim, (dim + 2 ** math.ceil(n_atoms / 2)) // 2)
        assert abs(v.T @ v - sp.identity(v.shape[1])).max() <= 1e-15
        even = 0.5 * (sp.identity(dim) + site_reflection(n_atoms))
        assert abs(v @ v.T - even).max() <= 1e-15
        # columns ordered by representative: |g...g> is column 0
        dense = v.toarray()
        assert dense[0, 0] == 1.0
        reps = [int(np.flatnonzero(col)[0]) for col in dense.T]
        assert reps == sorted(reps)

    def test_isometry_is_read_only(self):
        with pytest.raises(ValueError):
            reflection_isometry(3).data[0] = 2.0


class TestDrive:
    def test_coefficient_values(self):
        p = ModelParams(N=1, Omega=0.3, omegad=2.0)
        assert drive_coefficient(0.0, p) == pytest.approx(0.3)
        assert drive_coefficient(math.pi / 4, p) == pytest.approx(0.0, abs=1e-15)
        off = ModelParams(N=1, Omega=0.0)
        for t in (0.0, 0.3, 2.7):
            assert drive_coefficient(t, off) == 0.0

    def test_drive_operator_is_quadrature(self):
        p = ModelParams(N=1, N_ph=3)
        d = drive_operator(p).to_dense()
        a = build_boson("annihilate", p.dims).to_dense()
        assert np.abs(d - (a + a.conj().T)).max() < 1e-14

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(N=3, g=0.7, eta=-0.6, omegac=1.3, N_ph=3),
            dict(N=3, g=0.4, coupling_mode="geometric", alpha_angle=0.4, R=1.2,
                 omegac=0.8, N_ph=2, n_init=1),
            dict(N=1, g=1.1, omegac=2.5, N_ph=1, n_init=0),
        ],
    )
    def test_commutator_matches_numerical(self, kwargs):
        p = ModelParams(**kwargs)
        h_on = static_hamiltonian(p).to_dense()
        d = drive_operator(p).to_dense()
        assert np.abs(drive_commutator(p).to_dense() - (h_on @ d - d @ h_on)).max() < 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(N=3, g=0.7, eta=-0.6, omegac=1.3, N_ph=3),
            dict(N=3, g=0.4, coupling_mode="geometric", alpha_angle=0.4, R=1.2,
                 omegac=0.8, N_ph=2, n_init=1),
            dict(N=2, g=0.0, eta=0.5, omegac=1.7, N_ph=4),
        ],
    )
    def test_nested_commutators_match_numerical(self, kwargs):
        # the truncated [a, a'] = diag(1, ..., 1, -N_ph) enters both exactly
        p = ModelParams(**kwargs)
        h_on = static_hamiltonian(p).to_dense()
        d = drive_operator(p).to_dense()
        c = drive_commutator(p).to_dense()
        with_static, with_drive = nested_commutators(p)
        assert np.abs(with_static.to_dense() - (h_on @ c - c @ h_on)).max() < 1e-12
        assert np.abs(with_drive.to_dense() - (d @ c - c @ d)).max() < 1e-12


class TestSwitchedHamiltonian:
    def test_before_charging_only_battery(self):
        p = ModelParams(N=2, g=0.4, eta=0.3, Omega=0.2)
        h = hamiltonian_at(-0.5, p).to_dense()
        hb = build_H_battery(p).to_dense()
        assert np.abs(h - hb).max() == 0.0

    def test_window_indicator(self):
        p = ModelParams(N=1, T=2.0)
        assert not charger_is_on(-1e-9, p)
        assert charger_is_on(0.0, p)
        assert charger_is_on(2.0, p)
        assert not charger_is_on(2.0 + 1e-9, p)
        assert charger_is_on(1e9, ModelParams(N=1))  # T=None: always on

    @pytest.mark.parametrize("t", [0.17, 1.3, 9.42])
    def test_hermitian_at_random_times(self, t):
        p = ModelParams(N=2, g=0.6, eta=-0.4, Omega=0.8, N_ph=3)
        h = hamiltonian_at(t, p)
        assert h.hermitian  # construction verifies entrywise to 1e-12

    def test_time_independent_without_drive(self):
        p = ModelParams(N=2, g=0.6, eta=0.4, Omega=0.0, N_ph=3)
        h1 = hamiltonian_at(0.31, p).mat
        h2 = hamiltonian_at(7.77, p).mat
        assert (h1 != h2).nnz == 0

    def test_static_hamiltonian_includes_battery(self):
        p = ModelParams(N=2, g=0.5, eta=0.2, N_ph=2)
        full = static_hamiltonian(p).to_dense()
        parts = build_H_battery(p).to_dense() + build_H_static(p).to_dense()
        assert np.abs(full - parts).max() == 0.0


class TestInitialState:
    def test_basis_amplitude_position(self):
        p = ModelParams(N=2, n_init=3, N_ph=8)
        psi = initial_state(p)
        expected = np.zeros(p.dims.total_dim)
        expected[3] = 1.0
        assert np.array_equal(psi.amplitudes.real, expected)
        assert np.all(psi.amplitudes.imag == 0)

    def test_expectations(self):
        p = ModelParams(N=3, n_init=5)
        psi = initial_state(p)
        jz = build_collective_spin("z", p.dims)
        num = build_boson("number", p.dims)
        assert expectation(psi, jz) == pytest.approx(-1.5, abs=1e-12)
        assert expectation(psi, num) == pytest.approx(5.0, abs=1e-12)

    def test_overfull_cavity_rejected(self):
        with pytest.raises(DomainError):
            ModelParams(N=1, n_init=5, N_ph=4)
