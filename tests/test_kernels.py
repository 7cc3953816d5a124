import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from dickeqb.dynamics import TAYLOR_MAX_TERMS, CsrExpm
from dickeqb.errors import NumericalError


def random_csr(dim, density, seed):
    rng = np.random.default_rng(seed)
    mat = sp.random(dim, dim, density=density, random_state=np.random.RandomState(seed),
                    format="csr", dtype=float)
    mat = mat.astype(complex)
    mat.data = mat.data + 1j * rng.normal(size=len(mat.data))
    mat.sort_indices()
    return mat


# A step scale such as -i h multiplies every Taylor term, not the data.
@pytest.mark.parametrize("seed, scale", [(0, 1.0), (3, 1.0), (0, -0.45j), (3, 0.3 - 0.8j)],
                         ids=["0", "3", "0-scaled", "3-scaled"])
def test_matches_dense_expm(seed, scale):
    mat = random_csr(40, 0.15, seed)
    rng = np.random.default_rng(seed + 50)
    v = rng.normal(size=40) + 1j * rng.normal(size=40)
    data, v_in = mat.data.copy(), v.copy()
    norm = abs(scale) * float(abs(mat).sum(axis=1).max())
    segments = max(1, int(np.ceil(norm / 2.0)))
    got = CsrExpm().apply(mat.dot, v, scale, segments=segments)
    want = scipy.linalg.expm(scale * mat.toarray()) @ v
    assert np.abs(got - want).max() < 1e-11 * max(1.0, np.abs(want).max())
    # The inputs are read, never written.
    assert np.array_equal(v, v_in)
    assert np.array_equal(mat.data, data)


def test_zero_matrix_is_identity():
    mat = sp.csr_matrix((5, 5), dtype=complex)
    mat.indptr = np.zeros(6, dtype=np.int32)
    v = np.arange(5, dtype=complex)
    got = CsrExpm().apply(mat.dot, v)
    assert np.array_equal(got, v)
    # The result is a new array even when it equals v.
    assert not np.shares_memory(got, v)


def test_nonconvergence_raises():
    # The Taylor terms of exp(50) still exceed TAYLOR_TOL times the sum at
    # TAYLOR_MAX_TERMS terms.
    mat = sp.identity(4, format="csr", dtype=complex) * 50.0
    v = np.ones(4, dtype=complex)
    with pytest.raises(NumericalError, match=rf"within {TAYLOR_MAX_TERMS} terms "
                       r"\(segments=1\); split the exponent into more segments"):
        CsrExpm().apply(mat.dot, v, segments=1)


def test_unitary_for_skew_hermitian():
    mat = random_csr(30, 0.2, 5)
    herm = (mat + mat.getH()).tocsr()
    skew = (-1j * 0.05) * herm
    skew.sort_indices()
    rng = np.random.default_rng(1)
    v = rng.normal(size=30) + 1j * rng.normal(size=30)
    v /= np.linalg.norm(v)
    got = CsrExpm().apply(skew.dot, v)
    assert abs(np.linalg.norm(got) - 1.0) < 1e-12
