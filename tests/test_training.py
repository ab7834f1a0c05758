"""Trainer mechanics: schedule, clipping, Adam, determinism, early stopping."""

import hashlib
import warnings

import numpy as np
import pytest

from pwvae import corpus as cio
from pwvae import evaluation, nvdm, training
from pwvae.tensor import Tensor
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


class TestClipGradients:
    def test_below_threshold_unchanged(self):
        grads = {"a": np.array([0.6, 0.8])}
        out = training.clip_gradients(grads, 10.0)
        np.testing.assert_array_equal(out["a"], grads["a"])

    def test_scaled_to_exact_norm(self):
        grads = {"a": np.array([6.0, 8.0])}
        out = training.clip_gradients(grads, 1.0)
        assert training.global_norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_zero_gradients_unchanged(self):
        grads = {"a": np.zeros(3)}
        out = training.clip_gradients(grads, 1.0)
        np.testing.assert_array_equal(out["a"], np.zeros(3))

    def test_rescales_the_callers_arrays_in_place(self):
        g = np.array([6.0, 8.0, 1.0 / 3.0])
        expected = g * (1.0 / training.global_norm({"a": g}))
        grads = {"a": g}
        out = training.clip_gradients(grads, 1.0)
        assert out is grads and out["a"] is g
        np.testing.assert_array_equal(g, expected)

    def test_finite_gradients_with_an_overflowing_norm_are_clipped_without_a_warning(self):
        """The squared norm overflows, but every gradient is finite: the step keeps its direction at norm clip_norm."""
        g = np.array([1e200, -1e200, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            training.clip_gradients({"a": g}, 1.0)
        assert training.global_norm({"a": g}) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(g, np.array([1.0, -1.0, 3e-200]) * np.sqrt(0.5), rtol=1e-15)

    def test_overflowing_norm_spread_over_several_gradients(self):
        grads = {"a": np.array([1e300, 2e300]), "b": np.array([[-2e300], [4e300]]), "c": np.zeros(0)}
        out = training.clip_gradients(grads, 5.0)
        assert training.global_norm(out) == pytest.approx(5.0, rel=1e-15)
        np.testing.assert_allclose(out["a"], [1.0, 2.0], rtol=1e-15)
        np.testing.assert_allclose(out["b"], [[-2.0], [4.0]], rtol=1e-15)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_raises_naming_it(self, bad):
        grads = {"a": np.array([1.0, 2.0]), "b": np.array([[0.5, bad], [1.0, 2.0]])}
        with pytest.raises(FloatingPointError, match="gradient of b is not finite"):
            training.clip_gradients(grads, 1.0)

    def test_post_clip_norm_bounded_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            grads = {str(i): rng.normal(size=rng.integers(1, 5)) * 10 for i in range(3)}
            out = training.clip_gradients(grads, 2.5)
            assert training.global_norm(out) <= 2.5 + 1e-12


def _unblocked_adam_step(params, grads, state, config):
    """Whole-parameter Adam step, one pass over each parameter per operation: the oracle for the blocked ``adam_step``."""
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


ADAM_SHAPES = {"ragged": (3 * training._ADAM_CHUNK + 17,), "small": (7, 11), "fortran": (300, 150), "strided": (150, 300)}


def in_layout(a, layout):
    """``a`` with its values unchanged, Fortran-ordered or as a strided view for those layouts."""
    if layout == "fortran":
        return np.asfortranarray(a)
    if layout == "strided":
        wide = np.zeros((a.shape[0], 2 * a.shape[1]))
        wide[:, ::2] = a
        return wide[:, ::2]
    return a


class TestAdam:
    @pytest.mark.parametrize("layout", ["ragged", "small", "fortran", "strided"])
    def test_blocked_step_is_bit_identical_to_unblocked(self, layout):
        """A small parameter follows the main one, which has the layout under test."""
        rng = np.random.default_rng(12)
        shape = ADAM_SHAPES[layout]
        params = {"w": Tensor(in_layout(rng.normal(size=shape), layout)), "b": Tensor(rng.normal(size=5))}
        assert params["w"].data.flags.c_contiguous == (layout != "fortran")
        config = TrainConfig(learning_rate=0.01)
        state = training.adam_init(params)
        ref_state = training.AdamState(m={n: np.zeros_like(t.data) for n, t in params.items()}, v={n: np.zeros_like(t.data) for n, t in params.items()})
        ref = params
        for _ in range(5):
            grads = {"w": in_layout(rng.normal(size=shape), layout), "b": rng.normal(size=5)}
            assert grads["w"].flags.c_contiguous == (layout in ("ragged", "small"))
            copies = {n: g.copy() for n, g in grads.items()}
            params = training.adam_step(params, grads, state, config)
            ref = _unblocked_adam_step(ref, grads, ref_state, config)
            for name in grads:
                np.testing.assert_array_equal(grads[name], copies[name], err_msg=name)
        assert state.step == ref_state.step == 5
        for name in params:
            np.testing.assert_array_equal(params[name].data, ref[name].data, err_msg=name)
            np.testing.assert_array_equal(state.m[name], ref_state.m[name], err_msg=name)
            np.testing.assert_array_equal(state.v[name], ref_state.v[name], err_msg=name)
            assert params[name].data.shape == ref[name].data.shape

    @pytest.mark.parametrize("fault", ["missing", "extra", "transposed", "fortran_moment"])
    def test_bad_gradients_are_rejected_before_state_moves(self, fault):
        model = nvdm.init_model("h", 6, hidden=3, gauss_dims=2, piece_dims=2, n_pieces=3, seed=3)
        params = dict(model.params)
        assert params["enc_w0"].data.shape == (3, 6)
        rng = np.random.default_rng(4)
        state = training.adam_init(params)
        config = TrainConfig()
        params = training.adam_step(params, {n: rng.normal(size=t.data.shape) for n, t in params.items()}, state, config)
        grads = {n: rng.normal(size=t.data.shape) for n, t in params.items()}
        if fault == "missing":
            del grads["enc_w0"]
        elif fault == "extra":
            grads["enc_w2"] = np.zeros(3)
        elif fault == "transposed":
            grads["enc_w0"] = np.ascontiguousarray(grads["enc_w0"].T)
        else:
            state.m["enc_w0"] = np.asfortranarray(state.m["enc_w0"])
        m = {n: a.copy() for n, a in state.m.items()}
        v = {n: a.copy() for n, a in state.v.items()}
        with pytest.raises(ValueError, match="enc_w"):
            training.adam_step(params, grads, state, config)
        assert state.step == 1
        for name in params:
            np.testing.assert_array_equal(state.m[name], m[name], err_msg=name)
            np.testing.assert_array_equal(state.v[name], v[name], err_msg=name)

    def test_zero_gradients_leave_parameters_unchanged(self):
        model = nvdm.init_model("g", 6, hidden=3, gauss_dims=2, seed=2)
        params = dict(model.params)
        state = training.adam_init(params)
        grads = {name: np.zeros_like(t.data) for name, t in params.items()}
        out = training.adam_step(params, grads, state, TrainConfig())
        for name in params:
            np.testing.assert_array_equal(out[name].data, params[name].data)

    def test_moment_shapes_mirror_parameters(self):
        model = nvdm.init_model("h", 6, hidden=3, gauss_dims=2, piece_dims=2, n_pieces=3, seed=3)
        state = training.adam_init(dict(model.params))
        for name, t in model.named_parameters():
            assert state.m[name].shape == t.data.shape
            assert state.v[name].shape == t.data.shape

    def test_descends_a_quadratic(self):
        params = {"x": Tensor([5.0])}
        state = training.adam_init(params)
        config = TrainConfig(learning_rate=0.1)
        for _ in range(300):
            # Ascending -x^2 descends x^2.
            grads = {"x": -2.0 * params["x"].data}
            params = training.adam_step(params, grads, state, config)
        assert abs(params["x"].data[0]) < 1e-2


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
        model = nvdm.init_model("g", 20, hidden=4, gauss_dims=2, seed=5)
        config = TrainConfig(learning_rate=0.01, batch_size=10, max_epochs=1, patience=5, seed=5)

        def fixed_bound(m):
            rng = np.random.default_rng(99)
            return evaluation.evaluate(m, tiny, num_samples=3, rng=rng).mean_bound

        before = fixed_bound(model)
        state = training.adam_init(dict(model.params))
        current = model
        for step in range(10):
            grads, *_ = training._batch_gradients(current, tiny, list(range(10)), 1.0, config, step)
            grads = training.clip_gradients(grads, config.clip_norm)
            current = current.replaced(training.adam_step(dict(current.params), grads, state, config))
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

    def test_threaded_shards_match_serial_noise(self, small_corpus):
        """Sharding must not change which noise a document receives."""
        train_c, valid_c = small_corpus
        model = nvdm.init_model("g", 20, hidden=4, gauss_dims=2, seed=9)
        config1 = TrainConfig(batch_size=40, max_epochs=1, patience=5, seed=9, threads=1)
        config3 = TrainConfig(batch_size=40, max_epochs=1, patience=5, seed=9, threads=3)
        g1, b1, *_ = training._batch_gradients(model, train_c, list(range(40)), 1.0, config1, step=0)
        g3, b3, *_ = training._batch_gradients(model, train_c, list(range(40)), 1.0, config3, step=0)
        assert b1 == pytest.approx(b3, rel=1e-12)
        for name in g1:
            np.testing.assert_allclose(g1[name], g3[name], rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_trainer_owns_every_gradient_array(self, small_corpus, threads):
        """The in-place ``/= n``, clip and Adam write only arrays no one else holds."""
        train_c, valid_c = small_corpus
        model = randomized(nvdm.init_model("h", 20, hidden=4, seed=11, **VARIANT_DIMS["h"]), seed=12)
        config = TrainConfig(batch_size=40, max_epochs=2, patience=5, seed=11, threads=threads)
        grads, *_ = training._batch_gradients(model, train_c, list(range(40)), 1.0, config, step=0)
        assert grads.keys() == model.params.keys()
        arrays = list(grads.values())
        for i, g in enumerate(arrays):
            assert g.flags.writeable
            for other in arrays[i + 1 :]:
                assert not np.shares_memory(g, other)
            for name, t in model.named_parameters():
                assert not np.shares_memory(g, t.data), name

        before = {name: t.data.copy() for name, t in model.named_parameters()}
        result = training.train(model, train_c, valid_c, config)
        for name, t in model.named_parameters():
            np.testing.assert_array_equal(t.data, before[name], err_msg=name)
            assert np.any(result.model.params[name].data != before[name]), name

    def test_non_finite_gradient_with_a_finite_bound_diverges(self, small_corpus, monkeypatch):
        train_c, valid_c = small_corpus
        model = nvdm.init_model("g", 20, hidden=4, gauss_dims=2, seed=8)
        real = training._batch_gradients

        def poisoned(*args):
            grads, *rest = real(*args)
            grads["dec_b"][3] = np.inf
            return (grads, *rest)

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
        def step(*args, **kwargs):
            raise AssertionError("an Adam step ran")

        monkeypatch.setattr(training, "adam_step", step)

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
            ("learning_rate", float("nan"), "learning_rate must be >= 0"),
            ("clip_norm", float("nan"), "clip_norm > 0"),
        ],
    )
    def test_rejects_bad_optimiser_and_validation_settings(self, field, value, message):
        """Each fails at construction, not after an epoch or as a misleading divergence."""
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    def test_edge_values_accepted(self):
        TrainConfig(valid_samples=1, adam_beta1=0.0, adam_beta2=0.0, adam_eps=1e-300)


def randomized(model, seed, scale=0.3):
    """Copy of the model with every parameter perturbed, gates included."""
    rng = np.random.default_rng(seed)
    return model.replaced({name: t.data + scale * rng.normal(size=t.data.shape) for name, t in model.named_parameters()})


VARIANT_DIMS = {
    "g": dict(gauss_dims=3),
    "p": dict(piece_dims=2, n_pieces=3),
    "h": dict(gauss_dims=2, piece_dims=2, n_pieces=4),
}


class TestBatchedShard:
    """One batched tape per shard against one single-document tape per document."""

    @pytest.mark.parametrize("variant", ["g", "p", "h"])
    def test_shard_matches_sum_of_single_document_tapes(self, small_corpus, variant):
        from pwvae.tensor import Tape

        train_c, _ = small_corpus
        model = randomized(nvdm.init_model(variant, 20, hidden=5, seed=40, **VARIANT_DIMS[variant]), seed=41)
        seed, step, w = 42, 3, 0.7
        doc_indices = [7, 2, 19, 11, 4, 30]
        slots = list(range(len(doc_indices)))
        grads, bound, recon, kl_g, kl_p = training._shard_gradients(model, train_c, doc_indices, w, seed, step, slots)

        ref_grads = {name: np.zeros_like(t.data) for name, t in model.named_parameters()}
        ref_bound = ref_recon = ref_kl_g = ref_kl_p = 0.0
        for slot, di in zip(slots, doc_indices):
            # The trainer's noise for this slot alone, in a one-document tape.
            noises = training._slot_noises(model, seed, step, [slot])
            with Tape() as tape:
                rep = nvdm.batch_bound(model, train_c, [train_c.docs[di]], noises, kl_weight=w).single(1)
                tape.backward(rep.bound_node)
            for name, t in model.named_parameters():
                ref_grads[name] += tape.grad(t)
            ref_bound += rep.bound
            ref_recon += rep.reconstruction
            ref_kl_g += rep.kl_gaussian
            ref_kl_p += rep.kl_piecewise

        assert bound == pytest.approx(ref_bound, rel=1e-10)
        assert recon == pytest.approx(ref_recon, rel=1e-10)
        assert kl_g == pytest.approx(ref_kl_g, rel=1e-10, abs=1e-12)
        assert kl_p == pytest.approx(ref_kl_p, rel=1e-10, abs=1e-12)
        for name in ref_grads:
            assert np.any(ref_grads[name] != 0.0), name
            np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-10, atol=1e-12, err_msg=name)

    def test_noise_and_bound_depend_on_slot_only(self, small_corpus):
        """A document keeps its noise and bound whatever the batch's size and order."""
        train_c, _ = small_corpus
        model = randomized(nvdm.init_model("h", 20, hidden=5, seed=43, **VARIANT_DIMS["h"]), seed=44)
        seed, step = 45, 2
        docs = [train_c.docs[i] for i in range(10)]
        slots = list(range(10))
        full_noise = training._slot_noises(model, seed, step, slots)
        full = nvdm.batch_bound(model, train_c, docs, full_noise).bounds

        for subset in ([3], [9, 0, 4], [5, 6, 7, 8, 1]):
            noise = training._slot_noises(model, seed, step, subset)
            for (eps_g, eps_p), (full_g, full_p) in zip(noise, full_noise):
                np.testing.assert_array_equal(eps_g, full_g[subset])
                np.testing.assert_array_equal(eps_p, full_p[subset])
            part = nvdm.batch_bound(model, train_c, [docs[s] for s in subset], noise).bounds
            np.testing.assert_allclose(part, full[subset], rtol=1e-12)

        # Reversing the batch together with its slots leaves the gradients unchanged.
        forward = training._shard_gradients(model, train_c, slots, 1.0, seed, step, slots)
        backward = training._shard_gradients(model, train_c, slots[::-1], 1.0, seed, step, slots[::-1])
        assert backward[1] == pytest.approx(forward[1], rel=1e-12)
        for name in forward[0]:
            np.testing.assert_allclose(backward[0][name], forward[0][name], rtol=1e-10, atol=1e-13, err_msg=name)


    def test_a_step_keeps_no_decoder_transpose(self, small_corpus, monkeypatch):
        """A training step's decoder weight decodes one batch, so its forward multiplies by the transposed view and builds no copy."""
        train_c, _ = small_corpus
        model = randomized(nvdm.init_model("h", 20, hidden=5, seed=46, **VARIANT_DIMS["h"]), seed=47)

        def refuse(self):
            raise AssertionError("a training step built a kept transpose")

        monkeypatch.setattr(Tensor, "transposed", refuse)
        training._shard_gradients(model, train_c, list(range(10)), 1.0, 48, 0, list(range(10)))


class TestTrainedDigests:
    """A seeded short ``train`` and a 10-sample ``evaluate`` of its model, pinned by digest."""

    DIGESTS = {
        ("g", "none"): "30215d7977999f6916432bebc458536002d4ff607a33ecaf5f88668001ec2675",
        ("p", "none"): "21ac0788695e97d313857982c205914161f52070e5b9be45ec312691545a5269",
        ("h", "none"): "9ac89f1b15266f24157cf1fd0124011102fe243ead5d3588caabdcdbbba9f703",
        ("h", "log1p_tf"): "a558312157f9ff6d0c41480d0122a42abff395aa4c093ed4072621cee38059d1",
    }

    @pytest.mark.parametrize("variant, transform", list(DIGESTS))
    def test_trained_parameters_and_bounds_are_pinned(self, variant, transform):
        """Each float is rounded to 12 significant digits before hashing, as in ``TestRefinementNoise``."""
        from dataclasses import replace

        corpus = replace(cio.make_synthetic_bimodal(60, 20, seed=3), transform=transform)
        train, valid = replace(corpus, docs=corpus.docs[:40]), replace(corpus, docs=corpus.docs[40:])
        model = nvdm.init_model(variant, 20, hidden=8, gauss_dims=3, piece_dims=2, n_pieces=3, seed=4)
        config = TrainConfig(batch_size=16, max_epochs=2, patience=2, seed=5, valid_samples=2, learning_rate=0.01)
        trained = training.train(model, train, valid, config).model
        report = evaluation.evaluate(trained, valid, num_samples=10, rng=np.random.default_rng(6))
        text = [" ".join(f"{x:.12g}" for x in t.data.ravel()) for _, t in trained.named_parameters()]
        text.append(" ".join(f"{x:.12g}" for x in report.per_doc_bounds))
        digest = hashlib.sha256("\n".join(text).encode()).hexdigest()
        assert digest == self.DIGESTS[variant, transform]
