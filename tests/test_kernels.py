import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from dickeqb.dynamics import CsrExpm
from dickeqb.errors import NumericalError


def random_csr(dim, density, seed):
    rng = np.random.default_rng(seed)
    mat = sp.random(dim, dim, density=density, random_state=np.random.RandomState(seed),
                    format="csr", dtype=float)
    mat = mat.astype(complex)
    mat.data = mat.data + 1j * rng.normal(size=len(mat.data))
    mat.sort_indices()
    return mat


@pytest.mark.parametrize("seed", [0, 3])
def test_matches_dense_expm(seed):
    mat = random_csr(40, 0.15, seed)
    rng = np.random.default_rng(seed + 50)
    v = rng.normal(size=40) + 1j * rng.normal(size=40)
    data, v_in = mat.data.copy(), v.copy()
    kern = CsrExpm(mat.indptr, mat.indices, 40)
    norm = float(abs(mat).sum(axis=1).max())
    segments = max(1, int(np.ceil(norm / 2.0)))
    got = kern.apply(mat.data, v, segments=segments)
    want = scipy.linalg.expm(mat.toarray()) @ v
    assert np.abs(got - want).max() < 1e-11 * max(1.0, np.abs(want).max())
    # The inputs are read, never written.
    assert np.array_equal(v, v_in)
    assert np.array_equal(mat.data, data)


def test_zero_matrix_is_identity():
    mat = sp.csr_matrix((5, 5), dtype=complex)
    mat.indptr = np.zeros(6, dtype=np.int32)
    kern = CsrExpm(mat.indptr, mat.indices, 5)
    v = np.arange(5, dtype=complex)
    got = kern.apply(mat.data, v)
    assert np.array_equal(got, v)
    # The result is a new array even when it equals v.
    assert not np.shares_memory(got, v)


def test_nonconvergence_raises():
    mat = sp.identity(4, format="csr", dtype=complex) * 50.0
    kern = CsrExpm(mat.indptr, mat.indices, 4)
    v = np.ones(4, dtype=complex)
    with pytest.raises(NumericalError, match=r"\(segments=1\); split the exponent into more "
                       r"segments or raise max_terms"):
        kern.apply(mat.data, v, segments=1, max_terms=5)


def test_unitary_for_skew_hermitian():
    mat = random_csr(30, 0.2, 5)
    herm = (mat + mat.getH()).tocsr()
    skew = (-1j * 0.05) * herm
    skew.sort_indices()
    kern = CsrExpm(skew.indptr, skew.indices, 30)
    rng = np.random.default_rng(1)
    v = rng.normal(size=30) + 1j * rng.normal(size=30)
    v /= np.linalg.norm(v)
    got = kern.apply(skew.data, v)
    assert abs(np.linalg.norm(got) - 1.0) < 1e-12
