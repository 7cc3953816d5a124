import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from dickeqb._kernels import BACKENDS, HAVE_COMPILED, CsrExpm, default_backend
from dickeqb.errors import ConfigError, NumericalError

needs_compiled = pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")


def random_csr(dim, density, seed):
    rng = np.random.default_rng(seed)
    mat = sp.random(dim, dim, density=density, random_state=np.random.RandomState(seed),
                    format="csr", dtype=float)
    mat = mat.astype(complex)
    mat.data = mat.data + 1j * rng.normal(size=len(mat.data))
    mat.sort_indices()
    return mat


def available_backends():
    return [b for b in BACKENDS if b == "fallback" or HAVE_COMPILED]


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("seed", [0, 3])
def test_matches_dense_expm(backend, seed):
    mat = random_csr(40, 0.15, seed)
    rng = np.random.default_rng(seed + 50)
    v = rng.normal(size=40) + 1j * rng.normal(size=40)
    kern = CsrExpm(mat.indptr, mat.indices, 40, backend=backend)
    norm = float(abs(mat).sum(axis=1).max())
    segments = max(1, int(np.ceil(norm / 2.0)))
    got = kern.apply(mat.data, v, segments=segments)
    want = scipy.linalg.expm(mat.toarray()) @ v
    assert np.abs(got - want).max() < 1e-11 * max(1.0, np.abs(want).max())


@needs_compiled
def test_compiled_and_fallback_agree():
    mat = random_csr(60, 0.1, 11)
    rng = np.random.default_rng(99)
    v = rng.normal(size=60) + 1j * rng.normal(size=60)
    results = []
    for backend in ("compiled", "fallback"):
        kern = CsrExpm(mat.indptr, mat.indices, 60, backend=backend)
        results.append(kern.apply(mat.data, v, segments=2))
    assert np.abs(results[0] - results[1]).max() < 1e-13


@pytest.mark.parametrize("backend", available_backends())
def test_zero_matrix_is_identity(backend):
    mat = sp.csr_matrix((5, 5), dtype=complex)
    mat.indptr = np.zeros(6, dtype=np.int32)
    kern = CsrExpm(mat.indptr, mat.indices, 5, backend=backend)
    v = np.arange(5, dtype=complex)
    got = kern.apply(mat.data, v)
    assert np.array_equal(got, v)


@pytest.mark.parametrize("backend", available_backends())
def test_nonconvergence_raises(backend):
    mat = sp.identity(4, format="csr", dtype=complex) * 50.0
    kern = CsrExpm(mat.indptr, mat.indices, 4, backend=backend)
    v = np.ones(4, dtype=complex)
    with pytest.raises(NumericalError, match=r"\(segments=1\); split the exponent into more "
                       r"segments or raise max_terms"):
        kern.apply(mat.data, v, segments=1, max_terms=5)


@pytest.mark.parametrize("backend", available_backends())
def test_unitary_for_skew_hermitian(backend):
    mat = random_csr(30, 0.2, 5)
    herm = (mat + mat.getH()).tocsr()
    skew = (-1j * 0.05) * herm
    skew.sort_indices()
    kern = CsrExpm(skew.indptr, skew.indices, 30, backend=backend)
    rng = np.random.default_rng(1)
    v = rng.normal(size=30) + 1j * rng.normal(size=30)
    v /= np.linalg.norm(v)
    got = kern.apply(skew.data, v)
    assert abs(np.linalg.norm(got) - 1.0) < 1e-12


def test_default_backend_resolution(monkeypatch):
    monkeypatch.delenv("DICKEQB_KERNEL", raising=False)
    assert default_backend() in BACKENDS
    monkeypatch.setenv("DICKEQB_KERNEL", "fallback")
    assert default_backend() == "fallback"
    monkeypatch.setenv("DICKEQB_KERNEL", "nonsense")
    with pytest.raises(ConfigError):
        default_backend()


def test_unknown_backend_rejected():
    mat = sp.identity(3, format="csr", dtype=complex)
    with pytest.raises(ConfigError):
        CsrExpm(mat.indptr, mat.indices, 3, backend="gpu")
