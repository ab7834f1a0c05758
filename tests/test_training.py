"""Trainer mechanics: schedule, clipping, Adam, determinism, early stopping."""

import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from pwvae import corpus as cio
from pwvae import blas, evaluation, nvdm, training
from pwvae.tensor import Tensor, _wrap
from pwvae.training import TrainConfig


@pytest.fixture(scope="module")
def small_corpus():
    corpus = cio.make_synthetic_bimodal(120, 20, seed=0)
    from dataclasses import replace

    train = replace(corpus, docs=corpus.docs[:100])
    valid = replace(corpus, docs=corpus.docs[100:])
    return train, valid


class TestKlWeightSchedule:
    def test_zero_at_start(self):
        config = TrainConfig(kl_anneal_batches=1000)
        assert training.kl_weight(0, config) == 0.0

    def test_linear_midpoint(self):
        config = TrainConfig(kl_anneal_batches=1000)
        assert training.kl_weight(500, config) == 0.5

    def test_capped_at_one(self):
        config = TrainConfig(kl_anneal_batches=1000)
        assert training.kl_weight(1000, config) == 1.0
        assert training.kl_weight(5000, config) == 1.0

    def test_disabled_schedule_is_one(self):
        config = TrainConfig(kl_anneal_batches=0)
        assert training.kl_weight(0, config) == 1.0

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            training.kl_weight(-1, TrainConfig())


def flat(arrays):
    """The arrays laid out in one flat gradient of their dtype, and its layout."""
    layout = training.ParamLayout({name: a.shape for name, a in arrays.items()}, np.result_type(*arrays.values()))
    g = np.empty(layout.size, layout.dtype)
    for name, view in layout.views(g).items():
        view[...] = arrays[name]
    return g, layout


def norm_of(arrays):
    g, layout = flat(arrays)
    return training.global_norm(g, layout)


def clip(arrays, clip_norm, n=1):
    """``clip_gradients`` over the arrays laid out flat as the sum of ``n`` documents' gradients; returns each one's view of ``f * grad``."""
    g, layout = flat(arrays)
    f = training.clip_gradients(g, layout, clip_norm, n)
    assert isinstance(f, float)
    return layout.views(f * g)


class TestClipGradients:
    def test_below_threshold_unchanged(self):
        out = clip({"a": np.array([0.6, 0.8])}, 10.0)
        np.testing.assert_array_equal(out["a"], [0.6, 0.8])

    def test_scaled_to_exact_norm(self):
        out = clip({"a": np.array([6.0, 8.0])}, 1.0)
        assert norm_of(out) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("clip_norm, mean", [(10.0, [1.2, 1.6]), (1.0, [0.6, 0.8])])
    def test_the_factor_takes_the_mean_of_a_sum(self, clip_norm, mean):
        """The sum of 25 documents' gradients, whose mean has norm 2, gives that mean, clipped to norm 1 when clip_norm is 1."""
        out = clip({"a": np.array([30.0, 40.0]), "b": np.zeros(2)}, clip_norm, n=25)
        np.testing.assert_allclose(out["a"], mean, rtol=1e-15)
        np.testing.assert_array_equal(out["b"], np.zeros(2))

    def test_zero_gradients_unchanged(self):
        out = clip({"a": np.zeros(3)}, 1.0)
        np.testing.assert_array_equal(out["a"], np.zeros(3))

    def test_scales_every_gradient_by_one_factor(self):
        arrays = {"a": np.array([6.0, 8.0, 1.0 / 3.0]), "b": np.array([[2.0], [-1.5]])}
        scale = 1.0 / norm_of(arrays)
        out = clip(arrays, 1.0)
        for name, a in arrays.items():
            np.testing.assert_array_equal(out[name], a * scale)

    @pytest.mark.parametrize("clip_norm", [1e-3, 1e3])
    def test_the_gradient_is_only_read(self, clip_norm):
        g, layout = flat({"w": np.random.default_rng(2).normal(size=(40, 30)), "b": np.arange(5.0)})
        copy = g.copy()
        training.clip_gradients(g, layout, clip_norm, 3)
        assert g.tobytes() == copy.tobytes()

    def test_norm_has_the_same_bits_whatever_the_blas_threads(self):
        """Each parameter's squares are reduced without BLAS, so one BLAS thread gives the default's bits."""
        rng = np.random.default_rng(13)
        arrays = {"w": rng.normal(size=(600, 400)), "b": rng.normal(size=5), "e": np.zeros((0, 3)), "v": rng.normal(size=(9, 1000))}
        g, layout = flat(arrays)
        norm = training.global_norm(g, layout)
        with blas.one_thread():
            assert training.global_norm(g, layout) == norm
        assert norm == pytest.approx(float(np.linalg.norm(g)), rel=1e-12)

    def test_finite_gradients_with_an_overflowing_norm_are_clipped_without_a_warning(self):
        """The squared norm overflows, but every gradient is finite: the step keeps its direction at norm clip_norm."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = clip({"a": np.array([1e200, -1e200, 3.0])}, 1.0)
        assert norm_of(out) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out["a"], np.array([1.0, -1.0, 3e-200]) * np.sqrt(0.5), rtol=1e-15)

    def test_overflowing_norm_spread_over_several_gradients(self):
        out = clip({"a": np.array([1e300, 2e300]), "b": np.array([[-2e300], [4e300]]), "c": np.zeros(0)}, 5.0)
        assert norm_of(out) == pytest.approx(5.0, rel=1e-15)
        np.testing.assert_allclose(out["a"], [1.0, 2.0], rtol=1e-15)
        np.testing.assert_allclose(out["b"], [[-2.0], [4.0]], rtol=1e-15)

    def test_an_overflowing_norm_below_the_threshold_is_not_clipped(self):
        """The squared norm overflows, but the norm, about 2.2e300, is below clip_norm: the gradient is not scaled up to it."""
        out = clip({"a": np.array([1e300, -2e300])}, 1e301)
        np.testing.assert_array_equal(out["a"], [1e300, -2e300])

    def test_a_float32_gradient_whose_squared_norm_overflows_is_clipped_like_its_float64_twin(self):
        """Entries up to 4e19 are finite in float32, but their sum of squares, about 2.1e39, is not.

        The overflow path divides the float32 gradient by its largest
        magnitude in place, raises nothing, and gives the clipped mean that
        the same values give at float64, within float32 rounding.
        """
        arrays = {"a": np.array([1e19, -2e19, 3.0]), "b": np.array([[4e19], [0.5]])}
        g32, layout32 = flat({name: a.astype(np.float32) for name, a in arrays.items()})
        assert g32.dtype == np.float32 and np.all(np.isfinite(g32))
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.einsum("i,i->", g32, g32))
        g64, layout64 = flat({name: a.astype(np.float32).astype(np.float64) for name, a in arrays.items()})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f32 = training.clip_gradients(g32, layout32, 5.0, 2)
        f64 = training.clip_gradients(g64, layout64, 5.0, 2)
        assert np.max(np.abs(g32)) == 1.0  # the overflow path divided it
        clipped = f32 * g32
        assert clipped.dtype == np.float32
        np.testing.assert_allclose(clipped, f64 * g64, rtol=4 * np.finfo(np.float32).eps, atol=0)
        assert float(np.linalg.norm(clipped.astype(np.float64))) == pytest.approx(5.0, rel=4 * np.finfo(np.float32).eps)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_raises_naming_it(self, bad):
        with pytest.raises(FloatingPointError, match="gradient of b is not finite"):
            clip({"a": np.array([1.0, 2.0]), "b": np.array([[0.5, bad], [1.0, 2.0]])}, 1.0)

    def test_post_clip_norm_bounded_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            out = clip({str(i): rng.normal(size=rng.integers(1, 5)) * 10 for i in range(3)}, 2.5, n=int(rng.integers(1, 4)))
            assert norm_of(out) <= 2.5 + 1e-12

    def test_flat_arrays_of_another_size_are_rejected(self):
        _, layout = flat({"a": np.ones(3)})
        with pytest.raises(ValueError, match=r"gradient must be a C-contiguous float64 array of shape \(3,\)"):
            training.clip_gradients(np.ones(4), layout, 1.0, 1)


def _unblocked_adam_step(params, grads, state, config):
    """The Adam step before Kingma & Ba's reordering, one pass over each parameter per operation, on unscaled moments.

    The reference for ``adam_step``'s reordered form.  ``state`` holds a
    step count and a dict of moments per parameter.
    """
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    out = {}
    for name, t in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        scratch = np.multiply(g, 1.0 - b1)
        m *= b1
        m += scratch
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - b2
        v *= b2
        v += scratch
        # p + lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(v, c2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += config.adam_eps
        new = np.divide(m, c1)
        new *= config.learning_rate
        new /= scratch
        new += t.data
        out[name] = Tensor(new)
    return out


def _unblocked_scaled_adam_step(params, grads, state, config, scale):
    """``adam_step``'s operations in its order, one pass over each parameter per operation: the oracle for its flat, blocked form.

    ``state`` holds a step count and a dict of scaled moments per parameter.
    """
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    root = math.sqrt(c2 / (1.0 - b2))
    alpha = config.learning_rate * (1.0 - b1) / c1 * root
    eps_hat = config.adam_eps * root
    out = {}
    for name, t in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        scratch = np.multiply(g, scale)
        m *= b1
        m += scratch
        scratch *= scratch
        v *= b2
        v += scratch
        np.sqrt(v, out=scratch)
        scratch += eps_hat
        new = np.divide(m, scratch)
        new *= alpha
        new += t.data
        out[name] = Tensor(new)
    return out


CHUNK = training._ADAM_CHUNK
# Parameter shapes, in layout order.  "ragged" ends 17 floats into a block;
# "straddling" puts parameter boundaries inside blocks, an empty parameter
# among them, and one parameter spanning three blocks.
ADAM_SHAPES = {
    "ragged": [(3 * CHUNK + 17,), (5,)],
    "small": [(7, 11), (5,)],
    "straddling": [(CHUNK - 3,), (10,), (0, 4), (2 * CHUNK + 5,), (7,), (3, 3)],
}


def adam_setup(params):
    """The layout of the parameters, in their dtype, and fresh Adam state over it."""
    layout = training.ParamLayout({name: t.data.shape for name, t in params.items()}, np.result_type(*(t.data for t in params.values())))
    return layout, training.adam_init(layout)


def flat_params(params):
    """The parameters' values laid out in one flat buffer, as ``train`` holds them."""
    p, _ = flat({name: t.data for name, t in params.items()})
    return p


def flat_step(params, grads, state, config):
    """One in-place ``adam_step`` from dicts of parameters and gradients, in the parameters' dtype; returns the new parameters as tensors."""
    p = flat_params(params)
    g, _ = flat({name: np.asarray(a, p.dtype) for name, a in grads.items()})
    training.adam_step(p, g, state, config, 1.0)
    return {name: Tensor(view) for name, view in state.layout.views(p).items()}


class TestAdam:
    @staticmethod
    def _params(layout, rng, dtype):
        """Parameters of ADAM_SHAPES' ``layout`` as ``dtype``, and their shapes."""
        shapes = ADAM_SHAPES[layout]
        return {f"p{i}": Tensor(rng.normal(size=shape).astype(dtype)) for i, shape in enumerate(shapes)}, shapes

    @staticmethod
    def _zero_moments(params):
        """A step count and zero moments per parameter, as the unblocked references take them."""
        return SimpleNamespace(step=0, m={n: np.zeros_like(t.data) for n, t in params.items()}, v={n: np.zeros_like(t.data) for n, t in params.items()})

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", list(ADAM_SHAPES))
    def test_flat_blocked_step_is_bit_identical_to_unblocked(self, layout, dtype):
        """Five steps, each in place on one flat parameter buffer, with a different scale each."""
        rng = np.random.default_rng(12)
        params, shapes = self._params(layout, rng, dtype)
        config = TrainConfig(learning_rate=0.01)
        _, state = adam_setup(params)
        ref_state = self._zero_moments(params)
        ref = params
        p = flat_params(params)
        for scale in (0.3, 1.0, 0.01, 2.5, 0.7):
            grads = {name: rng.normal(size=shape).astype(dtype) for name, shape in zip(params, shapes)}
            g, _ = flat(grads)
            copy = g.copy()
            assert training.adam_step(p, g, state, config, scale) is None
            np.testing.assert_array_equal(g, copy)
            ref = _unblocked_scaled_adam_step(ref, grads, ref_state, config, scale)
        assert state.step == ref_state.step == 5
        new, m, v = (state.layout.views(a) for a in (p, state.m, state.v))
        for name in params:
            assert new[name].dtype == ref[name].data.dtype == dtype, name
            assert new[name].tobytes() == ref[name].data.tobytes(), name
            assert m[name].tobytes() == ref_state.m[name].tobytes(), name
            assert v[name].tobytes() == ref_state.v[name].tobytes(), name

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 16 * np.finfo(np.float32).eps), (np.float64, 1e-12)])
    @pytest.mark.parametrize("layout", list(ADAM_SHAPES))
    def test_clipped_steps_agree_with_the_unreordered_path(self, layout, dtype, tol):
        """Five clipped steps of the summed gradient and its factor against ``grad / n``, an in-place rescale and the unreordered Adam.

        Parameters and unscaled moments agree within ``tol`` of each
        parameter's largest magnitude: 16 float32 epsilons, or 1e-12 at
        float64.  Over seeds 14-23 the largest gap was 3.5 epsilons at
        float32 and 3.9 at float64.
        """
        rng = np.random.default_rng(14)
        params, shapes = self._params(layout, rng, dtype)
        config = TrainConfig(learning_rate=0.01, clip_norm=2.0)
        b1, b2, n = config.adam_beta1, config.adam_beta2, 7
        _, state = adam_setup(params)
        ref_state = self._zero_moments(params)
        ref = params
        p = flat_params(params)
        for _ in range(5):
            grads = {name: n * rng.normal(size=shape).astype(dtype) for name, shape in zip(params, shapes)}
            g, _ = flat(grads)
            f = training.clip_gradients(g, state.layout, config.clip_norm, n)
            assert f < 1.0 / n
            training.adam_step(p, g, state, config, f)
            mean = {name: a / n for name, a in grads.items()}
            norm = math.sqrt(sum(float(np.sum(a * a)) for a in mean.values()))
            for a in mean.values():
                a *= config.clip_norm / norm
            ref = _unblocked_adam_step(ref, mean, ref_state, config)
        new, m, v = (state.layout.views(a) for a in (p, state.m, state.v))
        for name in params:
            for got, want in ((new[name], ref[name].data), (m[name] * (1.0 - b1), ref_state.m[name]), (v[name] * (1.0 - b2), ref_state.v[name])):
                assert got.dtype == want.dtype == dtype, name
                if want.size:
                    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), name

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("short_gradient", "gradient must be"),
            ("strided_moment", "first_moment must be"),
            ("strided_params", "params must be a C-contiguous"),
            ("params_overlap_the_gradient", "overlap no gradient or moment"),
            ("params_overlap_a_moment", "overlap no gradient or moment"),
            ("read_only_params", "params must be writable"),
            ("short_scratch", "scratch buffer must hold"),
        ],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bad_arguments_are_rejected_before_state_moves(self, fault, message, dtype):
        model = nvdm.init_model("h", 6, hidden=3, gauss_dims=2, piece_dims=2, n_pieces=3, seed=3, dtype=dtype)
        params = dict(model.params)
        rng = np.random.default_rng(4)
        layout, state = adam_setup(params)
        config = TrainConfig()
        params = flat_step(params, {n: rng.normal(size=t.data.shape) for n, t in params.items()}, state, config)
        p = flat_params(params)
        grad, _ = flat({n: rng.normal(size=t.data.shape).astype(dtype) for n, t in params.items()})
        if fault == "short_gradient":
            grad = grad[1:]
        elif fault == "strided_moment":
            state.m = np.zeros(2 * layout.size, dtype)[::2]
        elif fault == "strided_params":
            p = np.repeat(p, 2)[::2]
        elif fault == "params_overlap_the_gradient":
            # Views one float apart into one buffer.
            shared = np.concatenate([grad, np.zeros(1, dtype)])
            grad, p = shared[:-1], shared[1:]
        elif fault == "params_overlap_a_moment":
            shared = np.concatenate([state.v, np.zeros(1, dtype)])
            state.v, p = shared[:-1], shared[1:]
        elif fault == "short_scratch":
            state.scratch = state.scratch[1:]
        else:
            p.flags.writeable = False
        m, v, before = state.m.copy(), state.v.copy(), p.copy()
        with pytest.raises(ValueError, match=message):
            training.adam_step(p, grad, state, config, 1.0)
        assert state.step == 1
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)
        np.testing.assert_array_equal(p, before)

    def test_zero_gradients_leave_parameters_unchanged(self):
        model = nvdm.init_model("g", 6, hidden=3, gauss_dims=2, seed=2)
        params = dict(model.params)
        _, state = adam_setup(params)
        out = flat_step(params, {name: np.zeros_like(t.data) for name, t in params.items()}, state, TrainConfig())
        for name in params:
            np.testing.assert_array_equal(out[name].data, params[name].data)

    def test_moments_are_flat_zeros_over_the_layout(self):
        model = nvdm.init_model("h", 6, hidden=3, gauss_dims=2, piece_dims=2, n_pieces=3, seed=3)
        layout, state = adam_setup(dict(model.params))
        assert layout.size == sum(t.data.size for _, t in model.named_parameters())
        for moment in (state.m, state.v):
            assert moment.shape == (layout.size,) and not moment.any()
            for name, view in layout.views(moment).items():
                assert view.shape == model.params[name].data.shape and np.shares_memory(view, moment)

    def test_descends_a_quadratic(self):
        params = {"x": Tensor([5.0])}
        _, state = adam_setup(params)
        config = TrainConfig(learning_rate=0.1)
        for _ in range(300):
            # Ascending -x^2 descends x^2.
            params = flat_step(params, {"x": -2.0 * params["x"].data}, state, config)
        assert abs(params["x"].data[0]) < 1e-2


def gradient_rows(model):
    """The layout of a trainer-style flat buffer for the model's summed gradient, and the buffer, of the model's dtype and filled with NaN."""
    layout = training.ParamLayout({name: t.data.shape for name, t in model.named_parameters()}, model.dtype)
    return layout, np.full(layout.size, np.nan, layout.dtype)


class TestTrainLoop:
    def test_zero_learning_rate_keeps_parameters(self, small_corpus):
        train_c, valid_c = small_corpus
        model = nvdm.init_model("g", 20, hidden=4, gauss_dims=2, seed=4)
        config = TrainConfig(learning_rate=0.0, batch_size=50, max_epochs=1, patience=5, seed=4, clip_norm=1e18)
        result = training.train(model, train_c, valid_c, config)
        for name, t in model.named_parameters():
            np.testing.assert_array_equal(result.model.params[name].data, t.data)

    def test_single_batch_bound_improves(self, small_corpus):
        train_c, _ = small_corpus
        from dataclasses import replace

        tiny = replace(train_c, docs=train_c.docs[:10])
        model = nvdm.init_model("g", 20, hidden=4, gauss_dims=2, seed=5, dtype=np.float64)
        config = TrainConfig(learning_rate=0.01, batch_size=10, max_epochs=1, patience=5, seed=5)

        def fixed_bound(m):
            rng = np.random.default_rng(99)
            return evaluation.evaluate(m, tiny, num_samples=3, rng=rng).mean_bound

        before = fixed_bound(model)
        layout, grad = gradient_rows(model)
        state = training.adam_init(layout)
        # The model reads the parameters that each step updates in place, as in ``train``.
        p = flat_params(model.params)
        current = model.replaced({name: _wrap(view) for name, view in layout.views(p).items()})
        for step in range(10):
            training._batch_gradients(current, tiny, list(range(10)), 1.0, config.seed, step, layout, grad)
            scale = training.clip_gradients(grad, layout, config.clip_norm, 10)
            training.adam_step(p, grad, state, config, scale)
        assert fixed_bound(current) > before

    def test_fixed_seed_identical_logs(self, small_corpus):
        train_c, valid_c = small_corpus
        logs = []
        for _ in range(2):
            model = nvdm.init_model("p", 20, hidden=4, piece_dims=2, n_pieces=3, seed=6)
            config = TrainConfig(batch_size=50, max_epochs=2, patience=5, seed=6)
            result = training.train(model, train_c, valid_c, config)
            # Wallclock column is inherently run-dependent; compare the rest.
            logs.append([line.rsplit("\t", 1)[0] for line in result.log_lines])
        assert logs[0] == logs[1]

    def test_early_stopping_returns_best_epoch(self, small_corpus):
        train_c, valid_c = small_corpus
        model = nvdm.init_model("g", 20, hidden=4, gauss_dims=2, seed=7)
        config = TrainConfig(learning_rate=0.01, batch_size=50, max_epochs=8, patience=2, seed=7)
        result = training.train(model, train_c, valid_c, config)
        assert result.best_epoch == int(np.argmax(result.valid_bounds)) + 1
        assert result.best_valid_bound == max(result.valid_bounds)
        # Returned parameters reproduce the best epoch's validation bound.
        rng = np.random.default_rng((config.seed, 3))
        replay = evaluation.evaluate(result.model, valid_c, num_samples=config.valid_samples, rng=rng)
        assert replay.mean_bound == pytest.approx(result.best_valid_bound, abs=1e-12)

    def test_divergence_reports_batch_and_norms(self, small_corpus):
        train_c, valid_c = small_corpus
        model = nvdm.init_model("g", 20, hidden=4, gauss_dims=2, seed=8)
        model = model.replaced({"g_prior_b_mu": np.array([np.nan, np.nan])})
        config = TrainConfig(batch_size=50, max_epochs=1, patience=1, seed=8)
        with pytest.raises(training.TrainingDiverged, match="batch 0"):
            training.train(model, train_c, valid_c, config)

    def test_an_overflowing_forward_diverges_without_a_numpy_warning(self, small_corpus):
        """Posterior variances that overflow give a non-finite bound, which ends training at its batch."""
        train_c, valid_c = small_corpus
        model = nvdm.init_model("g", 20, hidden=4, gauss_dims=2, seed=8, dtype=np.float64)
        model = model.replaced({"g_alpha_sigma": np.full(2, 10.0), "g_post_b_sigma": np.full(2, 1e308)})
        config = TrainConfig(batch_size=50, max_epochs=1, patience=1, seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(training.TrainingDiverged, match="^non-finite loss in epoch 1, batch 0; largest parameter norms: g_post_b_sigma=inf"):
                training.train(model, train_c, valid_c, config)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_trainer_owns_every_gradient_array(self, small_corpus, dtype):
        """The batch's summed gradients are written into the trainer's flat buffer, and stay its sum.

        The tape and Adam write only arrays no one else holds: the
        caller's model is unchanged by ``train``.
        """
        from pwvae.tensor import Tape

        train_c, valid_c = small_corpus
        model = randomized(nvdm.init_model("h", 20, hidden=4, seed=11, **VARIANT_DIMS["h"], dtype=dtype), seed=12)
        config = TrainConfig(batch_size=40, max_epochs=2, patience=5, seed=11)
        layout, grad = gradient_rows(model)
        training._batch_gradients(model, train_c, list(range(40)), 1.0, config.seed, 0, layout, grad)
        noise = training._slot_noise(model, config.seed, 0, range(40))
        with Tape() as tape:
            tape.backward(nvdm.batch_bound(model, train_c, train_c.docs[:40], noise).total)
        views = layout.views(grad)
        for name, t in model.named_parameters():
            assert views[name].dtype == dtype and views[name].tobytes() == tape.grad(t).tobytes(), name
            assert not np.shares_memory(grad, t.data), name

        before = {name: t.data.copy() for name, t in model.named_parameters()}
        result = training.train(model, train_c, valid_c, config)
        assert result.model.dtype == dtype
        for name, t in model.named_parameters():
            np.testing.assert_array_equal(t.data, before[name], err_msg=name)
            assert np.any(result.model.params[name].data != before[name]), name

    def test_a_clipped_step_leaves_the_summed_gradient_as_it_was(self, small_corpus, monkeypatch):
        """Clipping applies at every step, and Adam reads and leaves the bytes ``_batch_gradients`` left."""
        train_c, valid_c = small_corpus
        model = nvdm.init_model("h", 20, hidden=4, seed=13, **VARIANT_DIMS["h"])
        batch_gradients, clip_gradients, adam_step = training._batch_gradients, training.clip_gradients, training.adam_step
        left, scales = [], []

        def gradients(*args):
            means = batch_gradients(*args)
            left.append(args[-1].tobytes())
            return means

        def clip(*args):
            scales.append(clip_gradients(*args))
            return scales[-1]

        def step(params, grad, *args):
            assert grad.tobytes() == left[-1]
            out = adam_step(params, grad, *args)
            assert grad.tobytes() == left[-1]
            return out

        monkeypatch.setattr(training, "_batch_gradients", gradients)
        monkeypatch.setattr(training, "clip_gradients", clip)
        monkeypatch.setattr(training, "adam_step", step)
        training.train(model, train_c, valid_c, TrainConfig(batch_size=25, max_epochs=1, patience=1, seed=13, clip_norm=1e-3))
        assert len(scales) == 4 and all(0.0 < f < 1.0 / 25 for f in scales), scales

    def test_non_finite_gradient_with_a_finite_bound_diverges(self, small_corpus, monkeypatch):
        train_c, valid_c = small_corpus
        model = nvdm.init_model("g", 20, hidden=4, gauss_dims=2, seed=8)
        real = training._batch_gradients

        def poisoned(*args):
            means = real(*args)
            layout, grad = args[-2:]
            layout.views(grad)["dec_b"][3] = np.inf
            return means

        monkeypatch.setattr(training, "_batch_gradients", poisoned)
        config = TrainConfig(batch_size=50, max_epochs=1, patience=1, seed=8)
        with pytest.raises(training.TrainingDiverged, match="batch 0.*gradient of dec_b is not finite"):
            training.train(model, train_c, valid_c, config)

    def test_empty_corpus_rejected(self, small_corpus):
        train_c, valid_c = small_corpus
        from dataclasses import replace

        model = nvdm.init_model("g", 20, hidden=4, gauss_dims=2, seed=10)
        with pytest.raises(ValueError, match="non-empty"):
            training.train(model, replace(train_c, docs=()), valid_c, TrainConfig())

    @staticmethod
    def _no_step(monkeypatch):
        """Every part of a training step ``train`` calls fails the test."""

        def step(*args, **kwargs):
            raise AssertionError("a training step ran")

        for name in ("_batch_gradients", "clip_gradients", "adam_step"):
            monkeypatch.setattr(training, name, step)

    def test_empty_document_rejected_before_the_first_step(self, small_corpus, monkeypatch):
        """An empty training document at position 10 used to surface as TrainingDiverged in batch 2."""
        from dataclasses import replace

        train_c, valid_c = small_corpus
        docs = list(train_c.docs)
        docs[10] = cio.Document("empty", np.array([], dtype=int), np.array([], dtype=int))
        self._no_step(monkeypatch)
        model = nvdm.init_model("g", 20, hidden=4, gauss_dims=2, seed=10)
        config = TrainConfig(batch_size=4, max_epochs=1, patience=1, seed=1)
        with pytest.raises(ValueError, match="training corpus: document 'empty' has no tokens") as info:
            training.train(model, replace(train_c, docs=tuple(docs)), valid_c, config)
        assert not isinstance(info.value, training.TrainingDiverged)

    @pytest.mark.parametrize("which", ["training", "validation"])
    def test_vocabulary_mismatch_rejected_before_the_first_step(self, small_corpus, monkeypatch, which):
        """A V=30 training corpus against a V=20 model used to surface as TrainingDiverged in batch 0."""
        from dataclasses import replace

        from pwvae.tensor import ShapeError

        corpora = dict(zip(["training", "validation"], small_corpus))
        corpora[which] = replace(corpora[which], vocab=tuple(f"w{i}" for i in range(30)))
        self._no_step(monkeypatch)
        model = nvdm.init_model("g", 20, hidden=4, gauss_dims=2, seed=10)
        with pytest.raises(ShapeError, match=f"{which} corpus: corpus vocabulary size 30 != model vocabulary size 20"):
            training.train(model, *corpora.values(), TrainConfig(batch_size=50, max_epochs=1, patience=1))


def test_parameters_with_zero_gradient_never_move():
    """Words no training document uses give their ``enc_w0`` columns zero gradients, which leave them bit-identical.

    At tiny-p's shape (V=200, H=50, 10 piecewise dims of 10 pieces, lr
    0.01), 40 Adam steps; the columns' moments stay zero, so only
    ``eps_hat`` keeps their update from being 0 / 0.
    """
    corpus = cio.make_synthetic_bimodal(550, 150, seed=4)
    corpus = replace(corpus, vocab=corpus.vocab + tuple(f"unused{i}" for i in range(50)))
    train_c, valid_c = replace(corpus, docs=corpus.docs[:500]), replace(corpus, docs=corpus.docs[500:])
    unused = np.setdiff1d(np.arange(200), np.concatenate([d.term_ids for d in corpus.docs]))
    assert unused.size >= 50
    model = nvdm.init_model("p", 200, hidden=50, piece_dims=10, n_pieces=10, seed=5)
    config = TrainConfig(learning_rate=0.01, batch_size=50, max_epochs=4, patience=4, seed=6)
    trained = training.train(model, train_c, valid_c, config).model
    before, after = model.params["enc_w0"].data, trained.params["enc_w0"].data
    assert after[:, unused].tobytes() == before[:, unused].tobytes()
    used = np.setdiff1d(np.arange(200), unused)
    assert np.all(np.any(after[:, used] != before[:, used], axis=0))


class TestTrainerBuffers:
    """``train`` keeps its parameters, gradients and moments in flat buffers that it updates in place from step to step."""

    def test_the_returned_model_survives_later_steps(self, small_corpus):
        """The best epoch (4 of 6) is followed by 8 more steps, which must not write into the best parameters' buffer."""
        train_c, valid_c = small_corpus
        model = nvdm.init_model("h", 20, hidden=4, seed=0, **VARIANT_DIMS["h"], dtype=np.float64)
        before = {name: t.data.copy() for name, t in model.named_parameters()}
        config = TrainConfig(learning_rate=0.2, batch_size=30, max_epochs=6, patience=6, seed=0)
        result = training.train(model, train_c, valid_c, config)
        assert (result.best_epoch, len(result.valid_bounds)) == (4, 6)
        stopped = training.train(model, train_c, valid_c, replace(config, max_epochs=result.best_epoch))
        assert stopped.best_epoch == result.best_epoch and stopped.best_valid_bound == result.best_valid_bound
        for name, t in model.named_parameters():
            assert result.model.params[name].data.tobytes() == stopped.model.params[name].data.tobytes(), name
            assert t.data.tobytes() == before[name].tobytes(), name

    def test_a_steady_state_step_allocates_no_parameter_sized_array(self, monkeypatch):
        """Traced memory during a step, from its gradients to its Adam step, rises by less than one weight matrix.

        At the paper shape, V=2000, H=500 and 50 + 50 latent dims, the
        weights (8 MB, 2 MB and the decoder's 1.6 MB) are far larger than a
        10-document batch's (10, 2000) activations (160 kB each), which
        with the other temporaries raise the peak by about 1.5 MB.  A step
        that also built a fresh gradient, square or parameter array, or a
        copy of the decoder, would add at least 1.6 MB and pass the 2 MB
        of one matrix.  The first two steps may allocate the trainer's
        buffers; every later one must reuse them.
        """
        corpus = cio.make_synthetic_bimodal(70, 2000, seed=1)
        train_c, valid_c = replace(corpus, docs=corpus.docs[:60]), replace(corpus, docs=corpus.docs[60:])
        model = nvdm.init_model("h", 2000, hidden=500, gauss_dims=50, piece_dims=50, n_pieces=3, seed=2, dtype=np.float64)
        matrix = model.params["enc_w1"].data.nbytes
        assert matrix == 2_000_000 and model.params["dec_r"].data.nbytes == 1_600_000
        rises = []
        batch_gradients, adam_step = training._batch_gradients, training.adam_step

        def step_start(*args):
            tracemalloc.reset_peak()
            step_start.base = tracemalloc.get_traced_memory()[0]
            return batch_gradients(*args)

        def step_end(*args):
            out = adam_step(*args)
            rises.append(tracemalloc.get_traced_memory()[1] - step_start.base)
            return out

        monkeypatch.setattr(training, "_batch_gradients", step_start)
        monkeypatch.setattr(training, "adam_step", step_end)
        tracemalloc.start()
        try:
            training.train(model, train_c, valid_c, TrainConfig(batch_size=10, max_epochs=1, patience=1, seed=3))
        finally:
            tracemalloc.stop()
        assert len(rises) == 6
        assert max(rises[2:]) < matrix, rises

    @pytest.mark.parametrize("epochs, buffers", [(1, 4.5), (2, 5.5)])
    def test_a_call_holds_one_snapshot_only_when_steps_follow_the_best_epoch(self, epochs, buffers):
        """Traced memory over a whole call peaks below ``buffers`` times the parameters' bytes.

        At the paper shape the call holds four parameter-sized buffers, the
        gradient, the two moments and the parameters, plus a step's
        temporaries of about 0.14 times the parameters.  Epoch 1 is the
        best, so a second epoch's steps first copy the parameters into one
        snapshot, a fifth buffer; a call that ends on its best epoch copies
        nothing.  The bounds leave half a buffer of room, so one more
        parameter-sized buffer fails them.
        """
        corpus = cio.make_synthetic_bimodal(70, 2000, seed=1)
        train_c, valid_c = replace(corpus, docs=corpus.docs[:60]), replace(corpus, docs=corpus.docs[60:])
        model = nvdm.init_model("h", 2000, hidden=500, gauss_dims=50, piece_dims=50, n_pieces=3, seed=2)
        nbytes = sum(t.data.nbytes for _, t in model.named_parameters())
        tracemalloc.start()
        try:
            result = training.train(model, train_c, valid_c, TrainConfig(batch_size=10, max_epochs=epochs, patience=epochs, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.best_epoch == 1 and len(result.valid_bounds) == epochs
        assert peak < buffers * nbytes, peak / nbytes

    @pytest.mark.parametrize("order", ["fortran", "strided"])
    def test_parameters_in_any_memory_layout_train_like_their_c_ordered_twin(self, small_corpus, order):
        """An ``enc_w0`` that is Fortran-ordered or a strided view trains to the bytes of its C-ordered twin, and is left as it was."""
        train_c, valid_c = small_corpus
        model = nvdm.init_model("h", 20, hidden=4, seed=14, **VARIANT_DIMS["h"], dtype=np.float64)
        w = model.params["enc_w0"].data
        if order == "fortran":
            owner = odd = np.asfortranarray(w)
        else:
            owner = np.zeros((w.shape[0], 2 * w.shape[1]))
            owner[:, ::2] = w
            odd = owner[:, ::2]
        assert not odd.flags.c_contiguous and odd.tobytes() == w.tobytes()
        kept = owner.copy()
        twin = model.replaced({"enc_w0": _wrap(odd)})
        assert twin.params["enc_w0"].data is odd
        config = TrainConfig(learning_rate=0.05, batch_size=30, max_epochs=3, patience=3, seed=14)
        got, want = training.train(twin, train_c, valid_c, config), training.train(model, train_c, valid_c, config)
        assert got.valid_bounds == want.valid_bounds
        for name, t in want.model.named_parameters():
            assert got.model.params[name].data.tobytes() == t.data.tobytes(), name
        assert owner.tobytes() == kept.tobytes()
        assert np.any(got.model.params["enc_w0"].data != w)

    def test_without_an_improving_epoch_the_callers_parameters_are_returned(self, small_corpus, monkeypatch):
        """Every validation bound is -inf, so no epoch improves on the start, and the steps' parameters are not returned."""
        train_c, valid_c = small_corpus
        evaluate = evaluation.evaluate
        monkeypatch.setattr(evaluation, "evaluate", lambda *args, **kwargs: replace(evaluate(*args, **kwargs), mean_bound=-np.inf))
        model = nvdm.init_model("g", 20, hidden=4, gauss_dims=2, seed=15)
        result = training.train(model, train_c, valid_c, TrainConfig(batch_size=50, max_epochs=3, patience=2, seed=15))
        assert (result.best_epoch, result.valid_bounds) == (0, [-np.inf, -np.inf])
        for name, t in model.named_parameters():
            assert result.model.params[name].data.tobytes() == t.data.tobytes(), name


@pytest.mark.parametrize("seed", [1, 2])
def test_negative_sigma_gates_train_without_divergence(seed):
    """Variant H at lr 0.05 pushes alpha_sigma below 0 in its first epoch.

    Interpolating the variances themselves made one negative and raised
    TrainingDiverged at batch 5; the gate now acts before the softplus.
    """
    from dataclasses import replace

    corpus = cio.make_synthetic_bimodal(600, 200, seed)
    train_c, valid_c = replace(corpus, docs=corpus.docs[:500]), replace(corpus, docs=corpus.docs[500:])
    model = nvdm.init_model("h", 200, hidden=50, gauss_dims=10, piece_dims=10, n_pieces=3, seed=seed)
    config = TrainConfig(learning_rate=0.05, batch_size=50, max_epochs=1, patience=1, seed=seed)
    result = training.train(model, train_c, valid_c, config)
    assert np.isfinite(result.best_valid_bound)
    assert result.model.params["g_alpha_sigma"].data.min() < 0.0


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(clip_norm=0.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("valid_samples", 0, "valid_samples must be >= 1"),
            ("adam_beta1", 1.0, r"adam_beta1 and adam_beta2 must lie in \[0, 1\)"),
            ("adam_beta1", -0.1, r"adam_beta1 and adam_beta2 must lie in \[0, 1\)"),
            ("adam_beta2", 1.0, r"adam_beta1 and adam_beta2 must lie in \[0, 1\)"),
            ("adam_beta2", float("nan"), r"adam_beta1 and adam_beta2 must lie in \[0, 1\)"),
            ("adam_eps", 0.0, "adam_eps must be > 0"),
            ("adam_eps", -1e-8, "adam_eps must be > 0"),
            ("adam_eps", float("inf"), "adam_eps must be > 0 and finite, got inf"),
            ("learning_rate", float("nan"), "learning_rate must be >= 0"),
            ("learning_rate", float("inf"), "learning_rate must be >= 0 and finite, got inf"),
            ("clip_norm", float("nan"), "clip_norm > 0"),
        ],
    )
    def test_rejects_bad_optimiser_and_validation_settings(self, field, value, message):
        """Each fails at construction, not after an epoch or as a misleading divergence."""
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("threads", [0, 2, -1])
    def test_threads_other_than_one_rejected(self, threads):
        """Training runs one tape per batch; the field takes no other value."""
        with pytest.raises(ValueError, match=f"threads must be 1, got {threads}"):
            TrainConfig(threads=threads)

    def test_edge_values_accepted(self):
        TrainConfig(valid_samples=1, adam_beta1=0.0, adam_beta2=0.0, adam_eps=1e-300)

    def test_an_infinite_clip_norm_is_accepted_as_no_clipping(self):
        config = TrainConfig(clip_norm=float("inf"))
        g, layout = flat({"a": np.array([3e150, -4e150])})
        assert training.clip_gradients(g, layout, config.clip_norm, 4) == 0.25


def randomized(model, seed, scale=0.3):
    """Copy of the model with every parameter perturbed, gates included."""
    rng = np.random.default_rng(seed)
    return model.replaced({name: t.data + scale * rng.normal(size=t.data.shape) for name, t in model.named_parameters()})


VARIANT_DIMS = {
    "g": dict(gauss_dims=3),
    "p": dict(piece_dims=2, n_pieces=3),
    "h": dict(gauss_dims=2, piece_dims=2, n_pieces=4),
}


class TestBatchGradients:
    """One batched tape per batch against one single-document tape per document."""

    @pytest.mark.parametrize("variant", ["g", "p", "h"])
    def test_batch_matches_single_document_tapes(self, small_corpus, variant):
        """The gradient is the sum of the documents' gradients; the bound and its KL terms are their means."""
        from pwvae.tensor import Tape

        train_c, _ = small_corpus
        model = randomized(nvdm.init_model(variant, 20, hidden=5, seed=40, **VARIANT_DIMS[variant], dtype=np.float64), seed=41)
        seed, step, w = 42, 3, 0.7
        doc_indices = [7, 2, 19, 11, 4, 30]
        slots = list(range(len(doc_indices)))
        layout, grad = gradient_rows(model)
        grads = layout.views(grad)
        bound, kl_g, kl_p = training._batch_gradients(model, train_c, doc_indices, w, seed, step, layout, grad)

        ref_grads = {name: np.zeros_like(t.data) for name, t in model.named_parameters()}
        ref_bound = ref_kl_g = ref_kl_p = 0.0
        for slot, di in zip(slots, doc_indices):
            # The trainer's noise for this slot alone, in a one-document tape.
            noise = training._slot_noise(model, seed, step, [slot])
            with Tape() as tape:
                rep = nvdm.batch_bound(model, train_c, [train_c.docs[di]], noise, kl_weight=w)
                tape.backward(rep.total)
            for name, t in model.named_parameters():
                ref_grads[name] += tape.grad(t)
            ref_bound += rep.bounds[0]
            ref_kl_g += rep.kl_gaussian[0]
            ref_kl_p += rep.kl_piecewise[0]

        n = len(doc_indices)
        assert bound == pytest.approx(ref_bound / n, rel=1e-10)
        assert kl_g == pytest.approx(ref_kl_g / n, rel=1e-10, abs=1e-12)
        assert kl_p == pytest.approx(ref_kl_p / n, rel=1e-10, abs=1e-12)
        for name in ref_grads:
            assert np.any(ref_grads[name] != 0.0), name
            np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-10, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 8 * np.finfo(np.float32).eps), (np.float64, 1e-12)])
    def test_noise_and_bound_depend_on_slot_only(self, small_corpus, dtype, rtol):
        """A document keeps its noise and bound whatever the batch's size and order.

        The bounds agree within 8 float32 epsilons, or 1e-12 at float64:
        the batch's size changes the order of the sums in its products.
        Over model seeds 43-52 the largest gap was 1.3 float32 epsilons.
        """
        train_c, _ = small_corpus
        model = randomized(nvdm.init_model("h", 20, hidden=5, seed=43, **VARIANT_DIMS["h"], dtype=dtype), seed=44)
        seed, step = 45, 2
        docs = [train_c.docs[i] for i in range(10)]
        slots = list(range(10))
        full_noise = training._slot_noise(model, seed, step, slots)
        full = nvdm.batch_bound(model, train_c, docs, full_noise).bounds

        for subset in ([3], [9, 0, 4], [5, 6, 7, 8, 1]):
            noise = training._slot_noise(model, seed, step, subset)
            for eps, full_eps in zip(noise, full_noise, strict=True):
                assert eps.dtype == dtype
                np.testing.assert_array_equal(eps, full_eps[:, subset])
            part = nvdm.batch_bound(model, train_c, [docs[s] for s in subset], noise).bounds
            np.testing.assert_allclose(part, full[subset], rtol=rtol)


class TestTrainedDigests:
    """A seeded short ``train`` and a 10-sample ``evaluate`` of its model, pinned by digest."""

    # Keyed by (variant, transform, pieces).  Ten pieces is tiny-p's count,
    # past the 8 at which numpy's row sums change their order.
    DIGESTS = {
        ("g", "none", 3): "30215d7977999f6916432bebc458536002d4ff607a33ecaf5f88668001ec2675",
        ("p", "none", 3): "21ac0788695e97d313857982c205914161f52070e5b9be45ec312691545a5269",
        ("p", "none", 10): "92e698d5f2eebf96dc469ffce82c097acc353ef3a2343ed639f44ec46be54316",
        ("h", "none", 3): "9ac89f1b15266f24157cf1fd0124011102fe243ead5d3588caabdcdbbba9f703",
        ("h", "log1p_tf", 3): "a558312157f9ff6d0c41480d0122a42abff395aa4c093ed4072621cee38059d1",
    }

    # The 3-piece cases keep their ids from before pieces were a parameter.
    CASES = [pytest.param(v, t, n, id=f"{v}-{t}" if n == 3 else f"{v}-{t}-{n}pieces") for v, t, n in DIGESTS]

    @pytest.mark.parametrize("variant, transform, pieces", CASES)
    def test_trained_parameters_and_bounds_are_pinned(self, variant, transform, pieces):
        """Each float is rounded to 12 significant digits before hashing, as in ``TestRefinementNoise``."""
        from dataclasses import replace

        corpus = replace(cio.make_synthetic_bimodal(60, 20, seed=3), transform=transform)
        train, valid = replace(corpus, docs=corpus.docs[:40]), replace(corpus, docs=corpus.docs[40:])
        model = nvdm.init_model(variant, 20, hidden=8, gauss_dims=3, piece_dims=2, n_pieces=pieces, seed=4, dtype=np.float64)
        config = TrainConfig(batch_size=16, max_epochs=2, patience=2, seed=5, valid_samples=2, learning_rate=0.01)
        trained = training.train(model, train, valid, config).model
        report = evaluation.evaluate(trained, valid, num_samples=10, rng=np.random.default_rng(6))
        # dec_r in its (V, L) order, the order in which these digests were first pinned.
        text = [" ".join(f"{x:.12g}" for x in (t.data.T if name == "dec_r" else t.data).ravel()) for name, t in trained.named_parameters()]
        text.append(" ".join(f"{x:.12g}" for x in report.per_doc_bounds))
        digest = hashlib.sha256("\n".join(text).encode()).hexdigest()
        assert digest == self.DIGESTS[variant, transform, pieces]
