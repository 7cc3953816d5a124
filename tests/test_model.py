import math

import numpy as np
import pytest
import scipy.sparse as sp

from dickeqb.dynamics import _Stepper
from dickeqb.errors import DomainError
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
    reflection_isometry,
    static_hamiltonian,
    _kron_terms,
)
from dickeqb.operators import StateVector
from reference import (
    build_boson,
    build_collective_spin,
    expectation,
    kron_spin_terms,
    kron_sum_operators,
    pair_loop_hamiltonians,
    pauli_drive_operators,
    site_operator,
    spin_to_joint,
)


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
            dict(N=2, N_ph=3, T=float("nan")),
            dict(N=1, g=float("nan")),
            dict(N=1, Omega=float("inf")),
            dict(N=1, omega0=float("nan")),
            dict(N=1, eta=-float("inf")),
            dict(N=1, R=float("nan")),
            dict(N=2, g=np.float32("nan")),
            dict(N=2, T=np.float32("inf")),
            dict(N=1, Omega=np.float16("-inf")),
            dict(N=1, eta=np.longdouble("nan")),
            dict(N=2.5),
            dict(N=2.0),
            dict(N=True),
            dict(N=None),
            dict(N=2, N_ph=3.5),
            dict(N=2, N_ph=False),
            dict(N=2, n_init=1.5),
            dict(N=2, n_init=np.float64(1.0)),
            dict(N=2, coupling_mode="geometric", R=0.0),
            dict(N=2, coupling_mode="geometric", R=-1.0),
            dict(N=2, R=0.0),
            dict(N=2, c_light=0.0),
            dict(N=2, coupling_mode="geometric", c_light=-1.0),
            dict(N=2, T=True),
            dict(N=2, g=True),
            dict(N=2, g="x"),
            dict(N=2, eta=[0.1]),
            dict(N=2, g=None),
            dict(N=2, Omega=np.bool_(True)),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(DomainError):
            ModelParams(**kwargs)

    def test_finite_numpy_and_huge_int_values(self):
        p = ModelParams(N=2, g=np.float32(0.5), T=np.float16(2.0), R=10**400)
        assert p.g == np.float32(0.5)
        assert p.R == 10**400

    def test_numpy_integer_counts(self):
        p = ModelParams(N=np.int64(2), N_ph=np.int32(3), n_init=np.int8(1))
        assert p.dims.total_dim == 16
        assert p.initial_photons == 1


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
        # the couplings eta_ij of every atom pair: symmetric, 1/d^3 and zero
        # beyond the cutoff
        p = ModelParams(N=n_atoms, eta=-0.7)
        for i in range(1, n_atoms + 1):
            for j in range(i + 1, n_atoms + 1):
                eta_ij = dipole_coupling(i, j, p)
                assert dipole_coupling(j, i, p) == eta_ij
                d = j - i
                if d > 4:
                    assert eta_ij == 0.0
                else:
                    assert abs(eta_ij) == pytest.approx(abs(p.eta) / d**3)


class TestBatteryHamiltonian:
    def test_ground_and_top_energies(self):
        p = ModelParams(N=3, omega0=1.3, N_ph=2, n_init=0)
        hb = build_H_battery(p)
        psi0 = initial_state(p)
        assert expectation(psi0, hb) == pytest.approx(-3 * 1.3 / 2, abs=1e-12)
        top = np.zeros(p.dims.total_dim, dtype=complex)
        top[(p.dims.spin_dim - 1) * p.dims.boson_dim] = 1.0
        assert expectation(StateVector(p.dims, top), hb) == pytest.approx(3 * 1.3 / 2, abs=1e-12)

    def test_spectrum_two_atoms(self):
        p = ModelParams(N=2, N_ph=0, n_init=0)
        vals = np.sort(np.linalg.eigvalsh(build_H_battery(p).toarray()))
        assert np.allclose(vals, [-1, 0, 0, 1], atol=1e-12)


class TestChargerHamiltonian:
    def test_pure_cavity_when_decoupled(self):
        p = ModelParams(N=2, g=0.0, eta=0.0, omegac=0.9, N_ph=5)
        h = build_H_static(p)
        for n in (0, 2, 5):
            idx = n  # spin block 0
            assert h[idx, idx] == pytest.approx(0.9 * n, abs=1e-12)

    def test_flip_flop_conserves_excitation(self):
        p = ModelParams(N=4, g=0.0, eta=0.9, N_ph=0, n_init=0)
        h = build_H_static(p)
        sz_total = sum(site_operator(i, "z", 4) for i in range(1, 5))
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
        assert h[eg, ge] == pytest.approx(0.5, abs=1e-14)

    def test_reduces_to_dicke_form(self):
        # eta = 0, Omega = 0: entrywise equal to w0 Jz + wc a'a + 2g(a'+a)Jx
        p = ModelParams(N=3, g=0.7, eta=0.0, Omega=0.0, omegac=1.1, N_ph=4)
        h = static_hamiltonian(p).toarray()
        jz = build_collective_spin("z", p.dims).toarray()
        jx = build_collective_spin("x", p.dims).toarray()
        a = build_boson("annihilate", p.dims).toarray()
        ref = 1.0 * jz + 1.1 * (a.conj().T @ a) + 2 * 0.7 * (a.conj().T + a) @ jx
        assert np.abs(h - ref).max() < 1e-12


def max_deviation(op, ref):
    diff = (op - ref).tocsr()
    return np.abs(diff.data).max() if diff.nnz else 0.0


REFERENCE_CASES = [
    dict(coupling_mode="direct", eta=0.7),
    dict(coupling_mode="geometric", alpha_angle=0.4, R=0.9, Gamma0=1.2),
]


def reference_params(n_atoms, mode, case):
    """The instance of a reference case: "coupled" (g = 0.4, N_ph = 3),
    "uncoupled" (g = 0) or "short cutoff" (N_ph = N - 1 < N)."""
    g, n_ph = {"coupled": (0.4, 3), "uncoupled": (0.0, 3),
               "short cutoff": (0.4, n_atoms - 1)}[case]
    return ModelParams(N=n_atoms, g=g, omega0=1.3, omegac=0.9, N_ph=n_ph, n_init=0, **mode)


REFERENCE_INSTANCES = ("coupled", "uncoupled", "short cutoff")


def assert_matches_references(p):
    h_b, h_static = pair_loop_hamiltonians(p)
    assert max_deviation(build_H_battery(p), h_b) <= 1e-14
    assert max_deviation(build_H_static(p), h_static) <= 1e-14
    assert max_deviation(static_hamiltonian(p), h_b + h_static) <= 1e-14
    drive, *commutators = pauli_drive_operators(p)
    assert max_deviation(drive_operator(p), drive) <= 1e-14
    # the stepper applies C and the nested commutators from their factors
    rng = np.random.default_rng(p.N)
    v = rng.normal(size=p.dims.total_dim) + 1j * rng.normal(size=p.dims.total_dim)
    for got, ref in zip(_Stepper(p, full_spin_terms)._probe(v)[1:], (drive, *commutators)):
        want = ref @ v
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestAgainstPairLoop:
    @pytest.mark.parametrize("n_atoms", range(1, 8))
    @pytest.mark.parametrize("mode", REFERENCE_CASES, ids=["direct", "geometric"])
    def test_matches_pair_loop(self, n_atoms, mode):
        # N=6 has a pair at distance 5, beyond COUPLING_CUTOFF
        assert_matches_references(reference_params(n_atoms, mode, "coupled"))

    @pytest.mark.parametrize("n_atoms", range(1, 8))
    @pytest.mark.parametrize("mode", REFERENCE_CASES, ids=["direct", "geometric"])
    @pytest.mark.parametrize("case", ["uncoupled", "short cutoff"])
    def test_edge_instances_match_pair_loop(self, n_atoms, mode, case):
        assert_matches_references(reference_params(n_atoms, mode, case))

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
            full_spin_terms(3).flip_flops[0].data[0] = 2.0
        # J_z is held as its diagonal in both spaces: a read-only 1-D array
        for space in (full_spin_terms, even_spin_terms):
            jz = space(3).jz
            assert type(jz) is np.ndarray and jz.ndim == 1 and jz.dtype == np.float64
            with pytest.raises(ValueError):
                jz[0] = 2.0

    @pytest.mark.parametrize("n_atoms", range(1, 11))
    def test_bit_built_spin_terms_equal_kron_sums(self, n_atoms):
        got = full_spin_terms(n_atoms)
        want = kron_spin_terms(n_atoms)
        assert len(got.flip_flops) == len(want) - 2
        # J_z's diagonal, as a CSR matrix with its exact zeros dropped
        jz = sp.csr_matrix(sp.diags(got.jz))
        assert not got.jz.flags.writeable
        for mat, ref in zip((jz, got.jx, *got.flip_flops), want):
            assert mat.shape == ref.shape
            for name in ("indptr", "indices", "data"):
                arr, ref_arr = getattr(mat, name), getattr(ref, name)
                assert arr.dtype == ref_arr.dtype, name
                assert np.array_equal(arr, ref_arr), name
                assert mat is jz or not arr.flags.writeable, name
            assert np.array_equal(np.signbit(mat.data), np.signbit(ref.data))


class TestTermTable:
    def test_table_is_read_only(self):
        for term in _kron_terms(3, 2).values():
            for arr in (term.data, term.row, term.col):
                with pytest.raises(ValueError):
                    arr[0] = 1

    def test_operators_share_no_array_with_the_table(self):
        p = ModelParams(N=3, g=0.6, eta=-0.4, N_ph=2, n_init=0)
        spin = full_spin_terms(p.N)
        mat = build_H_static(p)
        cached = [a for term in _kron_terms(p.N, p.photon_cutoff).values()
                  for a in (term.data, term.row, term.col)]
        cached += [spin.jz] + [a for f in (spin.jx, *spin.flip_flops)
                               for a in (f.data, f.indices, f.indptr)]
        for arr in (mat.data, mat.indices, mat.indptr):
            assert not any(np.shares_memory(arr, c) for c in cached)

    def test_in_place_edits_leave_the_next_assembly_unchanged(self):
        # an array shared with the cache and edited in place would corrupt
        # every later build
        p = ModelParams(N=4, g=0.5, eta=0.3, N_ph=3, n_init=0)
        want = build_H_static(p).copy()
        edited = build_H_static(p)
        edited.data *= 2
        edited.data[::3] = 0.0
        edited.eliminate_zeros()
        got = build_H_static(p)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


class TestAgainstKronSums:
    BUILDERS = {"H_battery": build_H_battery, "H_static": build_H_static,
                "drive": drive_operator, "static": static_hamiltonian}

    def check(self, p):
        # every builder's matrix is real, canonical CSR (sorted rows, no
        # duplicate or stored zero, as a dense round trip gives) and exactly
        # its own transpose, and equals the Kronecker-sum reference
        want = kron_sum_operators(p)
        for name, build in self.BUILDERS.items():
            got = build(p)
            assert isinstance(got, sp.csr_matrix) and got.dtype == np.float64, name
            for ref in (want[name], sp.csr_matrix(got.toarray()), got.T.tocsr()):
                for attr in ("indptr", "indices", "data"):
                    arr, ref_arr = getattr(got, attr), getattr(ref, attr)
                    assert arr.dtype == ref_arr.dtype, (name, attr)
                    assert np.array_equal(arr, ref_arr), (name, attr)
        return want

    @staticmethod
    def params(n_atoms, cutoff, **mode):
        n_ph = n_atoms * int(cutoff[:-1]) if cutoff.endswith("N") else int(cutoff)
        return ModelParams(N=n_atoms, g=0.37, omega0=1.3, omegac=0.9, N_ph=n_ph, n_init=0,
                           **mode)

    @pytest.mark.parametrize("n_atoms", range(1, 7))
    @pytest.mark.parametrize("cutoff", ["0", "1", "3", "2N", "4N"])
    def test_operators_equal_kron_sums(self, n_atoms, cutoff):
        self.check(self.params(n_atoms, cutoff, eta=-0.41))

    @pytest.mark.parametrize("n_atoms", range(1, 7))
    @pytest.mark.parametrize("cutoff", ["0", "4N"])
    def test_geometric_operators_equal_kron_sums(self, n_atoms, cutoff):
        self.check(self.params(n_atoms, cutoff, **REFERENCE_CASES[1]))

    def test_exact_cancellation_is_dropped(self):
        # omega0 J_z + omega_c n is -1 + 1 = 0 at |gg>|1>, joint index 1
        p = ModelParams(N=2, g=0.5, eta=0.2, N_ph=3, n_init=0)
        want = self.check(p)
        for mat in (want["static"], static_hamiltonian(p)):
            assert 1 not in mat.indices[mat.indptr[1]:mat.indptr[2]]


def site_reflection(n_atoms):
    """Permutation matrix of the site reflection i -> N+1-i on the spin basis."""
    dim = 2**n_atoms
    mirrors = [int(format(s, f"0{n_atoms}b")[::-1], 2) for s in range(dim)]
    return sp.csr_matrix((np.ones(dim), (mirrors, range(dim))), shape=(dim, dim))


class TestSiteReflection:
    @pytest.mark.parametrize("n_atoms", range(1, 8))
    @pytest.mark.parametrize("mode", REFERENCE_CASES, ids=["direct", "geometric"])
    def test_stepper_operators_commute(self, n_atoms, mode):
        # the even sector is invariant under every operator the magnus4
        # stepper applies: H_b, H_static, a'+a and so their commutators
        p = ModelParams(N=n_atoms, g=0.4, omega0=1.3, omegac=0.9, N_ph=3, n_init=0, **mode)
        r = sp.kron(site_reflection(n_atoms), sp.identity(p.dims.boson_dim), format="csr")
        for op in (build_H_battery(p), build_H_static(p), drive_operator(p)):
            defect = r @ op - op @ r
            assert (abs(defect).max() if defect.nnz else 0.0) <= 1e-14

    @pytest.mark.parametrize("n_atoms", range(1, 8))
    @pytest.mark.parametrize("mode", REFERENCE_CASES, ids=["direct", "geometric"])
    @pytest.mark.parametrize("case", REFERENCE_INSTANCES)
    def test_sector_operators_are_projections(self, n_atoms, mode, case):
        # the sector spin terms are exactly V' S V of the Kronecker-sum
        # references, so the operators formed from them equal P' M P with
        # P = V x I_b
        p = reference_params(n_atoms, mode, case)
        v = reflection_isometry(n_atoms)
        even = even_spin_terms(n_atoms)
        terms = (even.jx, *even.flip_flops)
        refs = kron_spin_terms(n_atoms)
        assert len(terms) == len(refs) - 1
        # V' J_z V has no entry off its diagonal, which is the sector's jz
        jz = sp.csr_matrix(v.T @ refs[0] @ v)
        assert np.array_equal(even.jz, jz.diagonal())
        assert np.count_nonzero(jz.toarray() - np.diag(even.jz)) == 0
        for term, ref in zip(terms, refs[1:]):
            want = sp.csr_matrix(v.T @ ref @ v)
            want.sum_duplicates()
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(term, name), getattr(want, name)), name
        eye_s, eye_b = sp.identity(v.shape[1]), sp.identity(p.dims.boson_dim)
        a = sp.diags(np.sqrt(np.arange(1.0, p.dims.boson_dim)), 1)
        flips = sum((dipole_coupling(1, 1 + d, p) * f_d
                     for d, f_d in enumerate(even.flip_flops, start=1)), sp.csr_matrix(eye_s.shape))
        sector = (p.omega0 * sp.kron(sp.diags(even.jz), eye_b),
                  p.omegac * sp.kron(eye_s, a.T @ a) + 2.0 * p.g * sp.kron(even.jx, a + a.T)
                  + sp.kron(flips, eye_b),
                  sp.kron(eye_s, a + a.T))
        basis = sp.kron(v, eye_b, format="csr")
        for mat, build in zip(sector, (build_H_battery, build_H_static, drive_operator)):
            assert abs(mat - basis.T @ build(p) @ basis).max() <= 1e-14

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

    def test_sector_dim_is_the_isometry_width(self):
        # the closed form max_dim is checked with, against the built sector
        for n_atoms in range(1, 13):
            assert even_sector_dim(n_atoms) == reflection_isometry(n_atoms).shape[1]


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
        d = drive_operator(p).toarray()
        a = build_boson("annihilate", p.dims).toarray()
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
        # the closed form C = omega_c (a'-a) the stepper applies
        p = ModelParams(**kwargs)
        h_on = static_hamiltonian(p).toarray()
        d = drive_operator(p).toarray()
        c = pauli_drive_operators(p)[1].toarray()
        assert np.abs(c - (h_on @ d - d @ h_on)).max() < 1e-12

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
        h_on = static_hamiltonian(p).toarray()
        d = drive_operator(p).toarray()
        c, with_static, with_drive = (mat.toarray() for mat in pauli_drive_operators(p)[1:])
        assert np.abs(with_static - (h_on @ c - c @ h_on)).max() < 1e-12
        assert np.abs(with_drive - (d @ c - c @ d)).max() < 1e-12


class TestSwitchedHamiltonian:
    def test_window_indicator(self):
        p = ModelParams(N=1, T=2.0)
        assert not charger_is_on(-1e-9, p)
        assert charger_is_on(0.0, p)
        assert charger_is_on(2.0, p)
        assert not charger_is_on(2.0 + 1e-9, p)
        assert charger_is_on(1e9, ModelParams(N=1))  # T=None: always on

    @pytest.mark.parametrize("t", [0.17, 1.3, 9.42])
    def test_hermitian_at_random_times(self, t):
        # H(t) = H_b + H_static + c(t) (a'+a), as the oracle integrates it
        p = ModelParams(N=2, g=0.6, eta=-0.4, Omega=0.8, N_ph=3)
        static = static_hamiltonian(p)
        drive = drive_coefficient(t, p) * drive_operator(p)
        h = static + drive
        assert abs(h - h.T).max() == 0.0
        # the drive sits where H_b + H_static has no entry
        assert abs(static).multiply(abs(drive)).count_nonzero() == 0

    def test_static_hamiltonian_includes_battery(self):
        p = ModelParams(N=2, g=0.5, eta=0.2, N_ph=2)
        full = static_hamiltonian(p).toarray()
        parts = build_H_battery(p).toarray() + build_H_static(p).toarray()
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
