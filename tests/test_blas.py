"""The one-thread BLAS limit that iterative refinement runs under."""

import contextlib

import numpy as np
import pytest

from pwvae import blas, evaluation, nvdm
from pwvae import corpus as cio

needs_openblas = pytest.mark.skipif(blas._openblas() is None, reason="numpy does not bundle OpenBLAS")


@pytest.fixture
def two_threads():
    """BLAS at two threads for the test, then back at the count it had."""
    get, set_ = blas._openblas()
    before = get()
    set_(2)
    yield get
    set_(before)


@needs_openblas
def test_one_thread_holds_one_thread_then_restores(two_threads):
    get = two_threads
    with blas.one_thread():
        assert get() == 1
        with blas.one_thread():
            assert get() == 1
        assert get() == 1
    assert get() == 2


@needs_openblas
def test_overlapping_uses_restore_when_the_last_one_leaves(two_threads):
    get = two_threads
    first, second = contextlib.ExitStack(), contextlib.ExitStack()
    first.enter_context(blas.one_thread())
    second.enter_context(blas.one_thread())
    first.close()
    assert get() == 1
    second.close()
    assert get() == 2


@needs_openblas
def test_restores_after_an_exception(two_threads):
    get = two_threads
    with pytest.raises(RuntimeError):
        with blas.one_thread():
            raise RuntimeError("inside")
    assert get() == 2


@needs_openblas
def test_refinement_runs_on_one_thread(two_threads, monkeypatch):
    get = two_threads
    seen = []
    original = evaluation.posterior_bound

    def recording(*args, **kwargs):
        seen.append(get())
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluation, "posterior_bound", recording)
    data = cio.make_synthetic_bimodal(4, 20, seed=0)
    model = nvdm.init_model("h", 20, hidden=4, gauss_dims=2, piece_dims=2, n_pieces=3, seed=0)
    rngs = [np.random.default_rng(i) for i in range(len(data))]
    evaluation.iterative_inference(model, data, data.docs, steps_max=3, rngs=rngs)
    assert seen and set(seen) == {1}
    assert get() == 2


def test_without_openblas_changes_nothing(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    with blas.one_thread():
        pass
