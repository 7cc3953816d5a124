import numpy as np
import pytest

from dickeqb.errors import ContractError, DomainError
from dickeqb.model import even_spin_terms, full_spin_terms
from dickeqb.observables import ground_state
from dickeqb.operators import HilbertDims, StateVector
from reference import (
    build_boson,
    build_collective_spin,
    build_pauli,
    expectation,
    partial_trace_spin,
    site_operator,
    spin_to_joint,
)


def basis_state(dims, spin_index, photons):
    amps = np.zeros(dims.total_dim, dtype=complex)
    amps[spin_index * dims.boson_dim + photons] = 1.0
    return StateVector(dims, amps)


def random_state(dims, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dims.total_dim) + 1j * rng.normal(size=dims.total_dim)
    return StateVector(dims, amps / np.linalg.norm(amps))


class TestHilbertDims:
    def test_total_dim(self):
        d = HilbertDims(3, 7)
        assert d.spin_dim == 8
        assert d.boson_dim == 8
        assert d.total_dim == 64

    @pytest.mark.parametrize("n_atoms,n_ph", [(0, 4), (-1, 4), (2, -1), (2.0, 4), (2, 4.5),
                                              (True, 4), (2, None)])
    def test_invalid(self, n_atoms, n_ph):
        with pytest.raises(DomainError):
            HilbertDims(n_atoms, n_ph)

    @pytest.mark.parametrize("n_atoms", range(1, 8))
    def test_even_sector_dim(self, n_atoms):
        # palindromes plus one state per mirror pair of spin indices
        d = HilbertDims(n_atoms, 2)
        mirrors = [int(format(s, f"0{n_atoms}b")[::-1], 2) for s in range(d.spin_dim)]
        even = sum(1 for s, r in enumerate(mirrors) if s <= r)
        assert len(even_spin_terms(n_atoms).jz) == even
        assert len(full_spin_terms(n_atoms).jz) == d.spin_dim


class TestPauli:
    def test_sigma_z_single_site(self):
        dims = HilbertDims(1, 0)
        sz = build_pauli(1, "z", dims)
        assert sz[0, 0] == -1  # |g>
        assert sz[1, 1] == +1  # |e>

    def test_sigma_zz_on_gg(self):
        dims = HilbertDims(2, 0)
        z1 = build_pauli(1, "z", dims)
        z2 = build_pauli(2, "z", dims)
        prod = (z1 @ z2).toarray()
        assert prod[0, 0] == pytest.approx(1.0)  # (-1)*(-1) on |gg>

    def test_ladder_action(self):
        dims = HilbertDims(1, 0)
        sp = build_pauli(1, "+", dims).toarray()
        g = np.array([1, 0])
        e = np.array([0, 1])
        assert np.allclose(sp @ g, e)
        assert np.allclose(sp @ e, 0)

    def test_site_out_of_range(self):
        dims = HilbertDims(2, 1)
        with pytest.raises(DomainError):
            build_pauli(3, "x", dims)
        with pytest.raises(DomainError):
            build_pauli(0, "x", dims)

    def test_unknown_axis(self):
        with pytest.raises(DomainError):
            build_pauli(1, "q", HilbertDims(1, 0))

    def test_paulis_square_to_identity(self):
        dims = HilbertDims(2, 1)
        eye = np.eye(dims.total_dim)
        for site in (1, 2):
            for axis in "xyz":
                m = build_pauli(site, axis, dims)
                assert np.allclose((m @ m).toarray(), eye, atol=1e-14)

    def test_ladder_from_xy(self):
        # sigma^+ = (sigma^x + i sigma^y)/2 entrywise
        dims = HilbertDims(3, 0)
        for site in (1, 2, 3):
            sx = build_pauli(site, "x", dims)
            sy = build_pauli(site, "y", dims)
            sp = build_pauli(site, "+", dims)
            assert abs((0.5 * (sx + 1j * sy) - sp)).max() < 1e-14

    def test_acts_only_on_its_site(self):
        dims = HilbertDims(2, 0)
        x1 = build_pauli(1, "x", dims).toarray()
        expected = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
        assert np.allclose(x1, expected)


class TestCollectiveSpin:
    def test_jz_spectrum_two_atoms(self):
        dims = HilbertDims(2, 0)
        jz = build_collective_spin("z", dims).toarray()
        vals = np.sort(np.linalg.eigvalsh(jz))
        assert np.allclose(vals, [-1, 0, 0, 1], atol=1e-12)

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
    def test_su2_commutators(self, n_atoms):
        dims = HilbertDims(n_atoms, 0)
        j = {ax: build_collective_spin(ax, dims) for ax in "xyz"}
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            comm = (j[a] @ j[b] - j[b] @ j[a] - 1j * j[c]).toarray()
            assert np.abs(comm).max() < 1e-12

    def test_single_atom_is_half_pauli(self):
        dims = HilbertDims(1, 2)
        jx = build_collective_spin("x", dims)
        sx = build_pauli(1, "x", dims)
        assert abs(jx - 0.5 * sx).max() < 1e-15

    def test_invalid_axis(self):
        with pytest.raises(DomainError):
            build_collective_spin("+", HilbertDims(1, 0))


class TestBoson:
    def test_annihilate_vacuum(self):
        dims = HilbertDims(1, 3)
        a = build_boson("annihilate", dims)
        vac = basis_state(dims, 0, 0)
        assert np.linalg.norm(a @ vac.amplitudes) == 0.0

    def test_number_eigenvalue(self):
        dims = HilbertDims(1, 4)
        num = build_boson("number", dims)
        state = basis_state(dims, 0, 3)
        assert expectation(state, num) == pytest.approx(3.0, abs=1e-12)

    def test_truncation_convention(self):
        dims = HilbertDims(1, 5)
        adag = build_boson("create", dims)
        top = basis_state(dims, 0, 5)
        below = basis_state(dims, 0, 4)
        # <N_ph| a' |N_ph - 1> = sqrt(N_ph), and a' kills the top state
        amp = np.vdot(top.amplitudes, adag @ below.amplitudes)
        assert amp == pytest.approx(np.sqrt(5), abs=1e-12)
        assert np.linalg.norm(adag @ top.amplitudes) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            build_boson("displace", HilbertDims(1, 2))


class TestExpectation:
    def test_all_ground_jz(self):
        dims = HilbertDims(3, 4)
        jz = build_collective_spin("z", dims)
        assert expectation(basis_state(dims, 0, 2), jz) == pytest.approx(-1.5, abs=1e-12)

    def test_fully_excited_jz(self):
        dims = HilbertDims(3, 4)
        jz = build_collective_spin("z", dims)
        top = basis_state(dims, dims.spin_dim - 1, 0)
        assert expectation(top, jz) == pytest.approx(1.5, abs=1e-12)

    def test_photon_number(self):
        dims = HilbertDims(2, 6)
        num = build_boson("number", dims)
        assert expectation(basis_state(dims, 0, 5), num) == pytest.approx(5.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        dims = HilbertDims(1, 1)
        sp = build_pauli(1, "+", dims)
        with pytest.raises(ContractError):
            expectation(basis_state(dims, 0, 0), sp)

    def test_rejects_dim_mismatch(self):
        jz = build_collective_spin("z", HilbertDims(2, 2))
        state = basis_state(HilbertDims(2, 3), 0, 0)
        with pytest.raises(DomainError):
            expectation(state, jz)


class TestPartialTrace:
    def test_product_state_projector(self):
        dims = HilbertDims(2, 4)
        rho = partial_trace_spin(basis_state(dims, 0, 3))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected, atol=1e-14)

    def test_entangled_pair(self):
        dims = HilbertDims(1, 1)
        amps = np.zeros(dims.total_dim, dtype=complex)
        amps[0] = 1 / np.sqrt(2)  # |g, 0>
        amps[dims.boson_dim + 1] = 1 / np.sqrt(2)  # |e, 1>
        rho = partial_trace_spin(StateVector(dims, amps))
        assert np.allclose(rho, np.diag([0.5, 0.5]), atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_state_properties(self, seed):
        dims = HilbertDims(3, 5)
        rho = partial_trace_spin(random_state(dims, seed))
        assert abs(np.trace(rho) - 1) < 1e-10
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_rejects_unnormalized(self):
        dims = HilbertDims(1, 1)
        state = basis_state(dims, 0, 0)
        state.amplitudes[0] = 2.0  # corrupt in place to bypass the constructor
        with pytest.raises(ContractError):
            partial_trace_spin(state)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_consistent_with_joint_expectation(self, seed):
        # <psi|O x 1|psi> must equal tr(rho_spin O) for spin-sector O
        dims = HilbertDims(2, 3)
        state = random_state(dims, seed)
        rho = partial_trace_spin(state)
        rng = np.random.default_rng(seed + 100)
        herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = herm + herm.conj().T
        direct = expectation(state, spin_to_joint(herm, dims))
        via_trace = np.trace(rho @ herm).real
        assert direct == pytest.approx(via_trace, abs=1e-10)


class TestContainers:
    # A matrix enters the public API through ground_state, which checks it
    # is Hermitian within HERMITIAN_ATOL and of the joint space's shape.
    def test_hermitian_flag_verified(self):
        dims = HilbertDims(1, 0)
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ContractError):
            ground_state(bad, dims)

    @staticmethod
    def _defective(defect):
        """A Hermitian 6 x 6 matrix with one entry off by ``defect``; the
        entries (0, 5) and (5, 0) are not stored."""
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        mat = a + a.conj().T
        mat[0, 5] = mat[5, 0] = 0.0
        mat[1, 0] += defect
        return mat

    @pytest.mark.parametrize("defect, rejected", [(2e-12, True), (5e-13, False)])
    def test_hermitian_tolerance(self, defect, rejected):
        dims = HilbertDims(1, 2)  # 6 x 6
        if rejected:
            with pytest.raises(ContractError, match="Hermitian matrix; it deviates by 2.000e-12"):
                ground_state(self._defective(defect), dims)
        else:
            assert ground_state(self._defective(defect), dims).state.dims == dims

    def test_hermitian_check_with_asymmetric_pattern(self):
        # an entry whose mirror is not stored is a defect of its own size
        dims = HilbertDims(1, 2)
        mat = self._defective(0.0)
        mat[0, 5] = 1e-11
        with pytest.raises(ContractError, match="deviates by 1.000e-11"):
            ground_state(mat, dims)
        mat[0, 5] = 1e-13
        assert ground_state(mat, dims).state.dims == dims

    def test_state_norm_checked(self):
        dims = HilbertDims(1, 0)
        with pytest.raises(ContractError):
            StateVector(dims, np.array([1.0, 1.0]))

    def test_nan_state_rejected(self):
        with pytest.raises(ContractError, match="state norm nan"):
            StateVector(HilbertDims(1, 1), [np.nan] * 4)

    def test_operator_shape_checked(self):
        with pytest.raises(DomainError, match="does not match total_dim 6"):
            ground_state(np.eye(8), HilbertDims(1, 2))

    def test_state_length_checked(self):
        with pytest.raises(DomainError):
            StateVector(HilbertDims(1, 1), np.array([1.0, 0.0]))

    def test_builders_deterministic(self):
        dims = HilbertDims(3, 4)
        a = build_collective_spin("x", dims)
        b = build_collective_spin("x", dims)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)

    def test_site_operator_matches_kron_chain(self):
        got = site_operator(2, "z", 3).toarray()
        z = np.diag([-1.0, 1.0])
        expected = np.kron(np.kron(np.eye(2), z), np.eye(2))
        assert np.allclose(got, expected)
