"""Fixtures that more than one test module takes."""

import pytest

from dqgrad import _blas


@pytest.fixture(params=["lapacke", "numpy"])
def svd_path(request, monkeypatch):
    """The in-place SVD through LAPACKE, and with the library loader patched
    to find nothing, so that np.linalg.svd runs instead."""
    if request.param == "lapacke":
        if _blas._lapacke_gesdd() is None:
            pytest.skip("numpy's BLAS exports no LAPACKE_dgesdd_work")
    else:
        monkeypatch.setattr(_blas, "_openblas", lambda: None)
        assert _blas._lapacke_gesdd() is None
    return request.param
