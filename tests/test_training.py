"""Trainer mechanics: schedule, clipping, Adam, determinism, early stopping."""

import numpy as np
import pytest

from pwvae import corpus as cio
from pwvae import evaluation, nvdm, training
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

    def test_post_clip_norm_bounded_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            grads = {str(i): rng.normal(size=rng.integers(1, 5)) * 10 for i in range(3)}
            out = training.clip_gradients(grads, 2.5)
            assert training.global_norm(out) <= 2.5 + 1e-12


class TestAdam:
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
        from pwvae.tensor import Tensor

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

    def test_empty_corpus_rejected(self, small_corpus):
        train_c, valid_c = small_corpus
        from dataclasses import replace

        model = nvdm.init_model("g", 20, hidden=4, gauss_dims=2, seed=10)
        with pytest.raises(ValueError, match="non-empty"):
            training.train(model, replace(train_c, docs=()), valid_c, TrainConfig())


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
            # The trainer's noise key: (seed, batch-noise stream 2, step, slot).
            rng = np.random.default_rng((seed, 2, step, slot))
            with Tape() as tape:
                rep = nvdm.elbo(model, train_c, train_c.docs[di], kl_weight=w, num_samples=1, rng=rng)
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
