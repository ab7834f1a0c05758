"""Perplexity evaluation and per-document iterative posterior refinement."""

import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pwvae import corpus as cio
from pwvae import blas, evaluation, gaussian, nvdm, piecewise, training
from pwvae import tensor as T


@pytest.fixture(scope="module")
def corpus():
    return cio.make_synthetic_bimodal(40, 20, seed=0)


def fresh_model(variant="h", vocab=20, seed=0, **kw):
    defaults = dict(hidden=4, gauss_dims=2, piece_dims=2, n_pieces=3)
    defaults.update(kw)
    if variant == "g":
        defaults.pop("piece_dims"), defaults.pop("n_pieces")
        defaults["piece_dims"], defaults["n_pieces"] = 0, 2
    if variant == "p":
        defaults["gauss_dims"] = 0
    return nvdm.init_model(variant, vocab, seed=seed, **defaults, dtype=np.float64)


def refinable_model(variant, seed):
    """A fresh model with a random decoder and, for Gaussian latents, open gates, so refinement moves."""
    model = fresh_model(variant, seed=seed)
    rng = np.random.default_rng(seed)
    updates = {"dec_r": rng.normal(size=(20, model.latent_dim)).T.copy() * 0.5}
    if model.gauss_dims:
        updates.update(g_alpha_mu=np.full(2, 0.5), g_alpha_sigma=np.full(2, 0.3))
    return model.replaced(updates)


class TestEvaluate:
    def test_uniform_model_perplexity_is_vocab_size(self, corpus):
        model = fresh_model("h")
        report = evaluation.evaluate(model, corpus, num_samples=3, rng=np.random.default_rng(1), kl_weight=0.0)
        assert report.perplexity == pytest.approx(20.0, rel=1e-9)

    def test_fresh_gaussian_model_uniform_even_with_kl(self, corpus):
        # Zero gates make the Gaussian KL exactly zero at initialisation.
        model = fresh_model("g")
        report = evaluation.evaluate(model, corpus, num_samples=3, rng=np.random.default_rng(2))
        assert report.perplexity == pytest.approx(20.0, rel=1e-9)

    def test_doubling_corpus_leaves_perplexity_unchanged(self, corpus):
        model = fresh_model("h", seed=3)
        doubled = replace(corpus, docs=corpus.docs + corpus.docs)
        r1 = evaluation.evaluate(model, corpus, num_samples=4, rng=np.random.default_rng(4))
        r2 = evaluation.evaluate(model, doubled, num_samples=4, rng=np.random.default_rng(4))
        assert r2.perplexity == pytest.approx(r1.perplexity, rel=1e-12)
        assert r2.mean_bound == pytest.approx(r1.mean_bound, rel=1e-12)

    def test_deterministic_under_seed(self, corpus):
        model = fresh_model("h", seed=5)
        a = evaluation.evaluate(model, corpus, num_samples=2, rng=np.random.default_rng(6))
        b = evaluation.evaluate(model, corpus, num_samples=2, rng=np.random.default_rng(6))
        np.testing.assert_array_equal(a.per_doc_bounds, b.per_doc_bounds)
        assert a.to_tsv() == b.to_tsv()

    def test_more_samples_reduce_variance(self, corpus):
        model = fresh_model("h", seed=7)
        model = model.replaced({"dec_r": np.random.default_rng(8).normal(size=(20, 4)).T.copy()})

        def spread(num_samples):
            bounds = [
                evaluation.evaluate(model, corpus, num_samples=num_samples, rng=np.random.default_rng((9, r))).mean_bound
                for r in range(6)
            ]
            return np.std(bounds)

        assert spread(10) < spread(1)

    def test_empty_corpus_rejected(self, corpus):
        with pytest.raises(ValueError, match="empty"):
            evaluation.evaluate(fresh_model(), replace(corpus, docs=()), num_samples=1, rng=np.random.default_rng(0))

    def test_blocks_match_single_document_evaluation(self):
        """Across block boundaries each bound equals the document's own evaluation."""
        big = cio.make_synthetic_bimodal(2 * evaluation.EVAL_BLOCK + 7, 20, seed=33)
        model = fresh_model("h", seed=34)
        model = model.replaced({"dec_r": np.random.default_rng(35).normal(size=(20, 4)).T.copy(), "g_alpha_mu": np.full(2, 0.5), "g_alpha_sigma": np.full(2, 0.3)})
        report = evaluation.evaluate(model, big, num_samples=3, rng=np.random.default_rng(36))
        for i, doc in enumerate(big.docs):
            alone = evaluation.evaluate(model, replace(big, docs=(doc,)), num_samples=3, rng=np.random.default_rng(36))
            assert report.per_doc_bounds[i] == pytest.approx(alone.per_doc_bounds[0], rel=1e-12), i
        again = evaluation.evaluate(model, big, num_samples=3, rng=np.random.default_rng(36))
        np.testing.assert_array_equal(again.per_doc_bounds, report.per_doc_bounds)
        assert again.to_tsv() == report.to_tsv()

    def test_tsv_round_trip_fields(self, corpus):
        model = fresh_model("h", seed=10)
        report = evaluation.evaluate(model, corpus, num_samples=2, rng=np.random.default_rng(11))
        lines = report.to_tsv().splitlines()
        assert lines[0] == "perplexity\tmean_bound\tsamples\tmode\tdocs"
        assert lines[2] == "doc\tbound\ttokens"
        assert len(lines) == 3 + len(corpus)


class TestIterativeInference:
    @pytest.mark.parametrize("steps_max", [0, 1, 7])
    def test_priors_are_built_once_per_call_and_no_step_builds_their_gradient(self, corpus, monkeypatch, steps_max):
        """Whatever ``steps_max`` is, ``nvdm.priors`` runs once per call, and every step's tape leaves the prior gradients deferred."""
        built, tapes = [], []
        real_priors, real_backward = nvdm.priors, T.Tape.backward

        def counting(model):
            built.append(real_priors(model))
            return built[-1]

        def recording(tape, root):
            real_backward(tape, root)
            tapes.append(tape)

        for module in (nvdm, evaluation):
            monkeypatch.setattr(module, "priors", counting)
        monkeypatch.setattr(T.Tape, "backward", recording)
        results = evaluation.iterative_inference(refinable_model("h", seed=3), corpus, corpus.docs[:4], steps_max=steps_max, rng=np.random.default_rng(4))
        assert [res.steps for res in results] == [steps_max] * 4
        ((gauss_prior, a_prior),) = built
        assert len(tapes) == steps_max
        for tape in tapes:
            assert all(callable(tape._grads[t]) for t in (gauss_prior.mu, gauss_prior.var, a_prior))

    def test_lr_zero_returns_exactly_the_amortized_bound(self, corpus):
        model = fresh_model("h", seed=12)
        doc = corpus.docs[0]
        (res,) = evaluation.iterative_inference(
            model, corpus, [doc], steps_max=30, lr=0.0, stop_patience=5, rng=np.random.default_rng(13)
        )
        assert res.bound == res.initial_bound
        # Stops after stop_patience steps without improvement.
        assert res.steps == 5

    def test_lr_zero_keeps_every_row_of_a_block_at_its_amortized_bound(self, corpus):
        model = refinable_model("h", seed=45)
        docs = corpus.docs[:10]
        block = evaluation.iterative_inference(
            model, corpus, docs, steps_max=30, lr=0.0, stop_patience=5, rng=np.random.default_rng(46)
        )
        for res in block:
            assert res.bound == res.initial_bound
            assert res.steps == 5

    @pytest.mark.parametrize("transform", cio.TRANSFORMS)
    def test_starting_bound_is_the_amortised_batch_bound(self, corpus, transform):
        """The tracked starting bound is ``batch_bound`` under the tracking noise: the encoder sees transformed rows, the decoder raw counts."""
        model = refinable_model("h", seed=60)
        data = replace(corpus, transform=transform)
        docs = data.docs[:6]
        results = evaluation.iterative_inference(model, data, docs, steps_max=0, rng=np.random.default_rng(61))
        track_root = int(np.random.default_rng(61).integers(0, 2**63))
        noise = nvdm.draw_noises(model, 1, nvdm.noise_keys(track_root, [doc.key for doc in docs]))
        assert [res.initial_bound for res in results] == nvdm.batch_bound(model, data, docs, noise).bounds.tolist()

    @pytest.mark.parametrize("transform", cio.TRANSFORMS)
    def test_re_estimate_without_steps_is_the_amortised_bound(self, corpus, transform):
        """With no step, ``evaluate_iterative`` re-estimates each document with ``evaluate``'s content-keyed noise at the amortised posterior."""
        model = refinable_model("h", seed=62)
        data = replace(corpus, transform=transform)
        amortised = evaluation.evaluate(model, data, 3, np.random.default_rng(63))
        refined, _ = evaluation.evaluate_iterative(model, data, 3, np.random.default_rng(63), steps_max=0)
        np.testing.assert_allclose(refined.per_doc_bounds, amortised.per_doc_bounds, rtol=1e-12)

    def test_best_bound_never_below_initial(self, corpus):
        model = fresh_model("h", seed=14)
        for i, doc in enumerate(corpus.docs[:10]):
            (res,) = evaluation.iterative_inference(
                model, corpus, [doc], steps_max=20, lr=0.1, stop_patience=5, rng=np.random.default_rng((15, i))
            )
            assert res.bound >= res.initial_bound

    def test_fixed_point_stays_within_noise(self):
        """A model already posterior-optimal for a one-word corpus barely moves."""
        vocab = ("only",)
        doc = cio.Document("0", np.array([0]), np.array([3]))
        one = cio.Corpus(vocab=vocab, docs=(doc,))
        model = nvdm.init_model("g", 1, hidden=2, gauss_dims=1, seed=16)
        (res,) = evaluation.iterative_inference(
            model, one, [doc], steps_max=50, lr=0.1, stop_patience=10, rng=np.random.default_rng(17)
        )
        # log P(doc) = 0 for a single-word vocabulary; KL is zero at init.
        assert abs(res.initial_bound) < 1e-9
        assert res.bound - res.initial_bound < 0.05

    def test_refinement_improves_on_trained_model(self, corpus):
        model = fresh_model("h", seed=18)
        model = model.replaced({"dec_r": np.random.default_rng(19).normal(size=(20, 4)).T.copy() * 0.5})
        gains = []
        for i, doc in enumerate(corpus.docs[:8]):
            (res,) = evaluation.iterative_inference(
                model, corpus, [doc], steps_max=60, lr=0.1, stop_patience=10, rng=np.random.default_rng((20, i))
            )
            gains.append(res.bound - res.initial_bound)
        assert np.mean(gains) > 0.0

    def test_evaluate_iterative_tracks_hard_guarantee(self, corpus):
        small = replace(corpus, docs=corpus.docs[:6])
        model = fresh_model("p", seed=21)
        model = model.replaced({"dec_r": np.random.default_rng(22).normal(size=(20, 2)).T.copy() * 0.5})
        report, refinements = evaluation.evaluate_iterative(
            model, small, num_samples=3, rng=np.random.default_rng(23), steps_max=25, stop_patience=5
        )
        assert report.mode == "iterative"
        assert len(refinements) == len(small)
        for res in refinements:
            assert res.bound >= res.initial_bound

    def test_duplicating_corpus_leaves_iterative_bounds_unchanged(self, corpus):
        """Refinement noise is keyed by document content, not by position."""
        small = replace(corpus, docs=corpus.docs[:3])
        doubled = replace(corpus, docs=corpus.docs[2::-1] + corpus.docs[:3])
        model = fresh_model("h", seed=37)
        model = model.replaced({"dec_r": np.random.default_rng(38).normal(size=(20, 4)).T.copy() * 0.5})
        settings = dict(num_samples=2, steps_max=15, stop_patience=4)
        report, refinements = evaluation.evaluate_iterative(model, small, rng=np.random.default_rng(39), **settings)
        report2, refinements2 = evaluation.evaluate_iterative(model, doubled, rng=np.random.default_rng(39), **settings)
        for j, i in enumerate([2, 1, 0, 0, 1, 2]):
            assert report2.per_doc_bounds[j] == report.per_doc_bounds[i]
            assert refinements2[j].bound == refinements[i].bound
            assert refinements2[j].steps == refinements[i].steps

    @pytest.mark.parametrize("variant", ["g", "p", "h"])
    def test_blocks_match_one_document_refinement(self, variant):
        """Across a block boundary and with duplicates, every document refines as it does alone."""
        distinct = cio.make_synthetic_bimodal(evaluation.EVAL_BLOCK + 5, 20, seed=40)
        big = replace(distinct, docs=distinct.docs + distinct.docs[3:6])
        assert len({(d.term_ids.tobytes(), d.counts.tobytes()) for d in big.docs}) == evaluation.EVAL_BLOCK + 5
        model = refinable_model(variant, seed=41)
        settings = dict(num_samples=3, steps_max=15, stop_patience=4)
        report, refinements = evaluation.evaluate_iterative(model, big, rng=np.random.default_rng(42), **settings)
        assert len({r.steps for r in refinements}) > 1
        for i, doc in enumerate(big.docs):
            alone, (res,) = evaluation.evaluate_iterative(model, replace(big, docs=(doc,)), rng=np.random.default_rng(42), **settings)
            got = refinements[i]
            assert (got.steps, got.aborted) == (res.steps, res.aborted), i
            assert got.initial_bound == pytest.approx(res.initial_bound, rel=1e-12), i
            assert got.bound == pytest.approx(res.bound, rel=1e-12), i
            assert report.per_doc_bounds[i] == pytest.approx(alone.per_doc_bounds[0], rel=1e-12), i

    def test_reordering_a_corpus_across_blocks_leaves_bounds_bit_identical(self):
        """Blocks come from the content-sorted documents, so any order forms the same blocks.

        At this size a row's matrix products differ in the last bits with
        the block they sit in.
        """
        big = cio.make_synthetic_bimodal(evaluation.EVAL_BLOCK + 5, 200, seed=40)
        model = nvdm.init_model("h", 200, hidden=50, gauss_dims=8, piece_dims=8, n_pieces=3, seed=41)
        rng = np.random.default_rng(41)
        model = model.replaced({"dec_r": rng.normal(size=(200, 16)).T.copy() * 0.5, "g_alpha_mu": np.full(8, 0.5), "g_alpha_sigma": np.full(8, 0.3)})
        settings = dict(num_samples=3, steps_max=15, stop_patience=4)
        report, refinements = evaluation.evaluate_iterative(model, big, rng=np.random.default_rng(42), **settings)
        report2, refinements2 = evaluation.evaluate_iterative(model, replace(big, docs=big.docs[::-1]), rng=np.random.default_rng(42), **settings)
        np.testing.assert_array_equal(report2.per_doc_bounds[::-1], report.per_doc_bounds)
        assert [r.bound for r in refinements2[::-1]] == [r.bound for r in refinements]

    @pytest.mark.parametrize("variant", ["g", "p", "h"])
    def test_repeated_documents_in_one_block_refine_identically(self, corpus, variant):
        """Noise is keyed by content and step count, so a document repeated within one call refines as its first copy."""
        docs = list(corpus.docs[:5]) * 2
        model = refinable_model(variant, seed=52)
        results = evaluation.iterative_inference(model, corpus, docs, steps_max=30, lr=0.1, stop_patience=4, rng=np.random.default_rng(53))
        assert len({r.steps for r in results}) > 1
        for i, (first, again) in enumerate(zip(results[:5], results[5:])):
            assert (again.steps, again.aborted) == (first.steps, first.aborted), i
            assert again.initial_bound == pytest.approx(first.initial_bound, rel=1e-12), i
            assert again.bound == pytest.approx(first.bound, rel=1e-12), i

    @pytest.mark.parametrize(
        "variant, lr",
        [pytest.param(variant, lr, id=f"{lr:g}-{variant}") for lr in (1e300, 1.7e308) for variant in ("g", "h")]
        + [pytest.param("noise", 0.1, id="step-noise-g")],
    )
    def test_aborted_rows_leave_the_rest_of_the_block_refining(self, variant, lr):
        """At a huge lr the documents the encoder sees abort on step 1; the others keep refining.

        At lr=1e300 their step bound goes non-finite; at 1.7e308 the step
        itself overflows their variances or logits.  The encoder ignores
        words 0-9, and every posterior built from a zero encoding equals
        the prior exactly, so with a zero decoder the documents of words
        0-9 have zero gradients and never move.  In the "noise" case a
        row's step noise alone overflows its logits (``_noise_overflow_model``),
        and the aborted row's later non-finite bounds must not stop the
        rest of the block.
        """
        settings = dict(steps_max=20, lr=lr, stop_patience=3)
        if variant == "noise":
            block = cio.make_synthetic_bimodal(12, 20, 1)
            docs, model, seed = list(block.docs[:3]), _noise_overflow_model(), 2
            settings.update(steps_max=30, stop_patience=10)
        else:
            words = np.arange(5)
            docs = [cio.Document(str(i), words + (10 if i % 2 else 0), np.full(5, i + 1)) for i in range(8)]
            block = cio.Corpus(vocab=tuple(f"w{i}" for i in range(20)), docs=tuple(docs))
            model = fresh_model(variant, seed=47)
            w0 = model.params["enc_w0"].data.copy()
            w0[:, :10] = 0.0
            updates = {"enc_w0": w0, "g_alpha_mu": np.full(2, 0.5), "g_alpha_sigma": np.full(2, 0.5)}
            if variant == "h":
                updates["p_post_b_a"] = np.random.default_rng(48).normal(size=6)
                updates["p_prior_b_a"] = updates["p_post_b_a"]
            model, seed = model.replaced(updates), 49
        together = evaluation.iterative_inference(model, block, docs, rng=np.random.default_rng(seed), **settings)
        for i, (doc, got) in enumerate(zip(docs, together)):
            (alone,) = evaluation.iterative_inference(model, block, [doc], rng=np.random.default_rng(seed), **settings)
            assert (got.steps, got.aborted) == (alone.steps, alone.aborted), i
            assert got.initial_bound == pytest.approx(alone.initial_bound, rel=1e-12), i
            assert got.bound == pytest.approx(alone.bound, rel=1e-12), i
            assert got.bound == got.initial_bound
        if variant == "noise":
            # The first row aborts on the non-finite step bound of its ninth step, before taking it.
            assert [(r.aborted, r.steps) for r in together] == [(True, 8), (False, 10), (False, 10)]
        else:
            assert [(r.aborted, r.steps) for r in together] == [(True, 1) if i % 2 else (False, 3) for i in range(8)]

    @pytest.mark.parametrize("variant", ["g", "h"])
    def test_a_non_finite_tracked_bound_aborts_its_row_on_the_last_step(self, variant):
        """A huge first step makes each row's tracked bound non-finite; with no step left to fail, that alone aborts the row."""
        corpus = cio.make_synthetic_bimodal(40, 20, 1)
        results = evaluation.iterative_inference(_overflow_model(variant, seed=1), corpus, corpus.docs[:5], steps_max=1, lr=1e300, rng=np.random.default_rng(1))
        assert [(r.aborted, r.steps, r.bound == r.initial_bound) for r in results] == [(True, 1, True)] * 5

    def test_an_overflowing_amortised_bound_is_rejected_without_a_numpy_warning(self):
        """When the tracking noise makes the starting bound overflow, refinement fails with a clear error, and numpy warns of nothing."""
        block = cio.make_synthetic_bimodal(12, 20, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^iterative_inference: the bound of the block starting at document '0' cannot be computed"):
                evaluation.iterative_inference(_noise_overflow_model(), block, block.docs[:3], steps_max=30, rng=np.random.default_rng(3))

    @pytest.mark.parametrize("variant", ["g", "h"])
    def test_overflowing_steps_abort_without_a_numpy_warning(self, corpus, variant):
        """At lr=1e300 a step overflows; its row is marked aborted, and numpy warns of nothing."""
        model = refinable_model(variant, seed=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, refinements = evaluation.evaluate_iterative(model, corpus, 2, np.random.default_rng(51), steps_max=5, lr=1e300)
        assert sum(r.aborted for r in refinements) > len(refinements) // 2
        assert all(r.bound == r.initial_bound and r.steps == 1 for r in refinements if r.aborted)
        assert np.all(np.isfinite(report.per_doc_bounds))


def _overflow_model(variant, seed):
    """A fresh model with every parameter replaced by N(0, 0.3) draws, the decoder drawn as a (V, L) matrix and stored as its transpose."""
    model = fresh_model(variant, seed=seed)
    rng = np.random.default_rng(seed)
    return model.replaced({name: rng.normal(0.0, 0.3, t.data.shape[::-1]).T.copy() if name == "dec_r" else rng.normal(0.0, 0.3, t.data.shape) for name, t in model.named_parameters()})


def _noise_overflow_model():
    """A G model whose logits overflow for some noise: posterior sigma about 1e150 and decoder weights 1e158."""
    model = nvdm.init_model("g", 20, hidden=4, gauss_dims=1, seed=0, dtype=np.float64)
    return model.replaced({"g_alpha_sigma": np.ones(1), "g_post_b_sigma": np.full(1, 1e300), "dec_r": np.full((1, 20), 1e158)})


def test_an_infinite_perplexity_is_reported_without_a_warning():
    """Refinement at lr 3 of a G model with N(0, 3) parameters leaves finite bounds whose mean per token is below -709.

    The perplexity exp(709.8...) overflows to inf, which is the result, and numpy warns of nothing.
    """
    corpus = cio.make_synthetic_bimodal(40, 20, 1)
    model = fresh_model("g", seed=1)
    rng = np.random.default_rng(1)
    model = model.replaced({name: rng.normal(0.0, 3.0, t.data.shape) for name, t in model.named_parameters()})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, _ = evaluation.evaluate_iterative(model, corpus, 2, np.random.default_rng(1), steps_max=20, lr=3.0)
    assert np.all(np.isfinite(report.per_doc_bounds))
    assert np.mean(report.per_doc_bounds / report.per_doc_tokens) < -np.log(np.finfo(np.float64).max)
    assert report.perplexity == np.inf


class TestOverflowingEvaluation:
    """A block whose bound overflows raises an error naming the stage and the block's first document, and numpy warns of nothing."""

    def test_evaluate(self):
        corpus = cio.make_synthetic_bimodal(12, 20, 1)
        block = replace(corpus, docs=corpus.docs[3:6])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^evaluate: the bound of the block starting at document '3' cannot be computed: .*not finite"):
                evaluation.evaluate(_noise_overflow_model(), block, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [0, 2])
    def test_evaluate_iterative_re_estimate(self, seed):
        """Refinement finishes, then the 10-sample re-estimate at the refined rows overflows."""
        corpus = cio.make_synthetic_bimodal(12, 20, 1)
        block = replace(corpus, docs=corpus.docs[:3])
        first = min(block.docs, key=lambda doc: doc.key).doc_id
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^evaluate_iterative: re-estimate: the bound of the block starting at document '{first}' cannot be computed"):
                evaluation.evaluate_iterative(_noise_overflow_model(), block, 10, np.random.default_rng(seed))


def _raise_a_shape_error(*args, **kwargs):
    raise T.ShapeError("an injected shape error")


@pytest.mark.parametrize("run", [
    pytest.param(lambda model, block: evaluation.evaluate(model, block, 2, np.random.default_rng(0)), id="evaluate"),
    pytest.param(lambda model, block: evaluation.iterative_inference(model, block, block.docs, rng=np.random.default_rng(0)), id="iterative_inference"),
    pytest.param(lambda model, block: evaluation.evaluate_iterative(model, block, 2, np.random.default_rng(0)), id="evaluate_iterative"),
    pytest.param(lambda model, block: training.train(model, block, block, training.TrainConfig(batch_size=3, max_epochs=1)), id="train"),
])
def test_a_shape_error_is_not_taken_for_an_overflow(run, monkeypatch):
    """A ShapeError raised inside the bound, here by the Gaussian posterior, reaches the caller as it is, never as an overflow or as divergence."""
    block = cio.make_synthetic_bimodal(3, 20, 1)
    model = nvdm.init_model("g", 20, hidden=4, gauss_dims=2, seed=0)
    monkeypatch.setattr(gaussian, "from_raw", _raise_a_shape_error)
    with pytest.raises(T.ShapeError, match="^an injected shape error$"):
        run(model, block)


class TestOverflowingRefinement:
    """A step whose row's bound overflows aborts that row alone."""

    @pytest.mark.parametrize("variant", ["g", "p", "h"])
    def test_lr_sweep_finishes_every_call(self, variant):
        """Up to the largest finite steps, every call returns; overflowing rows report their amortised bound.

        Piecewise rows come back within the clamp of ``head_forward``,
        however far a step pushed them.
        """
        corpus = cio.make_synthetic_bimodal(40, 20, 1)
        model = _overflow_model(variant, seed=1)
        for lr in np.geomspace(1e306, 1.7e308, 6):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report, refinements = evaluation.evaluate_iterative(model, corpus, 2, np.random.default_rng(1), steps_max=20, lr=lr)
            assert np.all(np.isfinite(report.per_doc_bounds)), lr
            for res in refinements:
                assert np.isfinite(res.bound) and res.bound >= res.initial_bound, lr
                if res.aborted:
                    assert res.bound == res.initial_bound and res.steps == 1, lr
                if res.piece_raw_a is not None:
                    assert np.all(np.abs(res.piece_raw_a) <= piecewise.CLAMP), lr
            # Only the piecewise family is clamped, so its rows never overflow.
            assert sum(r.aborted for r in refinements) == (0 if variant == "p" else len(refinements)), lr

    SWEEP_DIGESTS = {
        "g": "6a0a187f7d48adba263f3b18fa91a4453bc24885fd6623b45db0fb3fc73c3b86",
        "p": "f6396d2b7f58a6a05ef0f18222916d243c4a8d04cfe1a8eb070a047d3332366e",
        "h": "75cee6d98b93a3a4712012112873cfe4d47c198e6519d8f148e456e27ef7a6c3",
    }

    @pytest.mark.parametrize("variant", ["g", "p", "h"])
    def test_lr_sweep_is_pinned(self, variant):
        """From a small step to the largest finite one, these digests pin the re-estimated bounds and every refinement.

        They cover the refined rows, the tracked and initial bounds, the
        steps and the abort flags.  Floats are rounded as in
        ``TestRefinementNoise``.
        """
        corpus = cio.make_synthetic_bimodal(40, 20, 1)
        model = _overflow_model(variant, seed=1)
        text = []
        for lr in (0.1, 3, 1e30, 1e300, 1.7e308):
            report, refinements = evaluation.evaluate_iterative(model, corpus, 2, np.random.default_rng(1), steps_max=20, lr=lr)
            text.append(" ".join(f"{b:.12g}" for b in report.per_doc_bounds))
            for res in refinements:
                for name in evaluation._PARAMS:
                    values = getattr(res, name)
                    text.append("-" if values is None else " ".join(f"{x:.12g}" for x in values))
                text.append(f"{res.bound:.12g} {res.initial_bound:.12g} {res.steps} {res.aborted}")
        assert hashlib.sha256("\n".join(text).encode()).hexdigest() == self.SWEEP_DIGESTS[variant]


class TestRefinementNoise:
    DIGESTS = {
        "g": "6b1cae860cf9b19d03e189a234181603a90808ad60b9ffbfd422d61fc8ab7ea2",
        "p": "042b03b4ce84f15fd2eb6d7ed9ec730e5d56018f564a8a1ac3204349c9289218",
        "h": "8b04e013e3990889e47d2a974dce6722a482ffbed350c6efcf2b3d862a0a3850",
    }

    @pytest.mark.parametrize("variant", ["g", "p", "h"])
    def test_refinement_results_are_pinned(self, variant):
        """Refinement draws its noise through ``nvdm.draw_noises``, keyed by document content and step count; these digests pin its results.

        Each float is rounded to 12 significant digits before hashing, so
        last-bit differences between numpy builds of exp, log, cos and sin
        cannot fail the test, while any change to the noise moves the values
        far more.
        """
        corpus = cio.make_synthetic_bimodal(40, 20, 1)
        model = _overflow_model(variant, seed=5)
        results = evaluation.iterative_inference(model, corpus, corpus.docs[:12], steps_max=30, lr=0.1, stop_patience=5, rng=np.random.default_rng(7))
        text = []
        for res in results:
            for name in evaluation._PARAMS:
                values = getattr(res, name)
                text.append("-" if values is None else " ".join(f"{x:.12g}" for x in values))
            text.append(f"{res.bound:.12g} {res.initial_bound:.12g} {res.steps} {res.aborted}")
        assert hashlib.sha256("\n".join(text).encode()).hexdigest() == self.DIGESTS[variant]


def two_pass_refinement(model, corpus, docs, *, steps_max, lr, stop_patience, clip_norm=5.0, kl_weight=1.0, rng):
    """Refinement as one ``posterior_bound`` pass to step and another to track: the reference for ``iterative_inference``'s single pass.

    It takes a starting pass under the tracking noise, then per step a
    taped pass under the step noise, drawn one step at a time, and an
    untaped pass under the tracking noise at the stepped parameters.
    """
    docs = list(docs)
    raw = corpus.dense_counts(docs, dtype=np.float64)
    x, counts = T._wrap(corpus.dense(docs, dtype=np.float64, counts=raw)), T._wrap(raw)
    doc_keys = [doc.key for doc in docs]
    track_root, step_root = int(rng.integers(0, 2**63)), int(rng.integers(0, 2**63))
    track_noise = nvdm.draw_noises(model, 1, nvdm.noise_keys(track_root, doc_keys))

    def leaves(params):
        return {name: None if rows is None else T.Tensor(rows) for name, rows in params.items()}

    def clip(rows):
        if rows["piece_raw_a"] is not None:
            np.clip(rows["piece_raw_a"], -piecewise.CLAMP, piecewise.CLAMP, out=rows["piece_raw_a"])
        return rows

    def abort(bounds, live, aborted):
        failed = live & ~np.isfinite(bounds)
        aborted |= failed
        live &= ~failed

    params = clip({name: None if t is None else np.array(t.data) for name, t in nvdm.amortized_posterior(model, nvdm.encode(model, x)).items()})
    best = {name: None if rows is None else rows.copy() for name, rows in params.items()}
    since_improve = np.zeros(len(docs), dtype=np.int64)
    steps = np.zeros(len(docs), dtype=np.int64)
    aborted = np.zeros(len(docs), dtype=bool)
    live = np.ones(len(docs), dtype=bool)
    with blas.one_thread(), np.errstate(over="ignore", invalid="ignore"):
        prior = nvdm.priors(model)
        initial = nvdm.posterior_bound(model, counts, priors=prior, kl_weight=kl_weight, noise=track_noise, **leaves(params)).bounds
        best_bound = initial.copy()
        for t in range(steps_max):
            noise = nvdm.draw_noises(model, 1, nvdm.noise_keys(step_root ^ t, doc_keys))
            with T.Tape() as tape:
                tensors = leaves(params)
                stepped = nvdm.posterior_bound(model, counts, priors=prior, kl_weight=kl_weight, noise=noise, **tensors)
                abort(stepped.bounds, live, aborted)
                if not live.any():
                    break
                tape.backward(stepped.total)
                grads = {name: tape.grad(tensor) for name, tensor in tensors.items() if tensor is not None}
            norm = np.sqrt(sum(np.sum(g * g, axis=1) for g in grads.values()))
            step = lr * (clip_norm / np.maximum(norm, clip_norm))
            for name, g in grads.items():
                params[name][live] += step[live, None] * g[live]
            steps[live] += 1
            tracked = nvdm.posterior_bound(model, counts, priors=prior, kl_weight=kl_weight, noise=track_noise, **leaves(params)).bounds
            abort(tracked, live, aborted)
            improved = live & (tracked > best_bound)
            best_bound[improved] = tracked[improved]
            for name, rows in params.items():
                if rows is not None:
                    best[name][improved] = rows[improved]
            since_improve[improved] = 0
            since_improve[live & ~improved] += 1
            live &= since_improve < stop_patience
            if not live.any():
                break
    clip(best)
    return best, np.where(aborted, initial, best_bound), initial, steps, aborted


def refinement_bytes(best, bounds, initial, steps, aborted):
    """Every refined row, tracked and initial bound, step count and abort flag, as bytes."""
    return [None if best[name] is None else best[name].tobytes() for name in evaluation._PARAMS] + [a.tobytes() for a in (bounds, initial, steps, aborted)]


class TestOnePassRefinement:
    """``iterative_inference`` tracks and steps in one pass per step and returns what ``two_pass_refinement`` returns, bit for bit."""

    @pytest.mark.parametrize("variant", ["g", "p", "h"])
    @pytest.mark.parametrize(
        "lr, steps_max, stop_patience, seed",
        [
            (0.0, 30, 5, 5),
            (0.1, 0, 5, 5),
            (0.1, 1, 5, 5),
            (0.1, 30, 1, 5),
            (0.1, 30, 5, 5),
            (0.1, 23, 30, 5),
            (1e300, 30, 5, 5),
            # test_a_non_finite_tracked_bound_aborts_its_row_on_the_last_step's case.
            (1e300, 1, 10, 1),
        ],
    )
    def test_refinement_equals_the_two_pass_loop(self, variant, lr, steps_max, stop_patience, seed):
        corpus = cio.make_synthetic_bimodal(40, 20, 1)
        model = _overflow_model(variant, seed=seed)
        docs = corpus.docs[: 5 if seed == 1 else 12]
        settings = dict(steps_max=steps_max, lr=lr, stop_patience=stop_patience)
        results = evaluation.iterative_inference(model, corpus, docs, rng=np.random.default_rng(seed), **settings)
        got = (
            {name: None if getattr(results[0], name) is None else np.array([getattr(r, name) for r in results]) for name in evaluation._PARAMS},
            np.array([r.bound for r in results]),
            np.array([r.initial_bound for r in results]),
            np.array([r.steps for r in results], dtype=np.int64),
            np.array([r.aborted for r in results]),
        )
        want = two_pass_refinement(model, corpus, docs, rng=np.random.default_rng(seed), **settings)
        assert refinement_bytes(*got) == refinement_bytes(*want)
        if lr == 1e300 and variant != "p":
            assert want[4].all() if seed == 1 else want[4].any()

    @pytest.mark.parametrize("variant", ["g", "p", "h"])
    @pytest.mark.parametrize("lr, steps_max, stop_patience", [(0.0, 30, 5), (0.1, 0, 5), (0.1, 7, 30), (0.1, 30, 3)])
    def test_k_steps_build_each_kl_k_plus_1_times(self, corpus, monkeypatch, variant, lr, steps_max, stop_patience):
        """Each pass builds the posterior's KL terms once: one pass per step, and one more for the last parameters."""
        calls = {"gaussian": 0, "piecewise": 0}

        def counting(family, real):
            def kl(*args, **kwargs):
                calls[family] += 1
                return real(*args, **kwargs)

            return kl

        monkeypatch.setattr(gaussian, "kl", counting("gaussian", gaussian.kl))
        monkeypatch.setattr(piecewise, "kl_between", counting("piecewise", piecewise.kl_between))
        model = refinable_model(variant, seed=3)
        results = evaluation.iterative_inference(model, corpus, corpus.docs[:4], steps_max=steps_max, lr=lr, stop_patience=stop_patience, rng=np.random.default_rng(4))
        k = max(r.steps for r in results)
        assert (k > 0) == (steps_max > 0)
        assert calls == {"gaussian": (k + 1) * (variant != "p"), "piecewise": (k + 1) * (variant != "g")}


class TestSampleCounts:
    """Bad sample counts and refinement settings fail before any document is refined."""

    def test_evaluate_iterative_rejects_zero_samples(self, corpus, monkeypatch):
        def refine(*args, **kwargs):
            raise AssertionError("a document was refined")

        monkeypatch.setattr(evaluation, "iterative_inference", refine)
        with pytest.raises(ValueError, match="num_samples must be >= 1"):
            evaluation.evaluate_iterative(fresh_model("h"), corpus, num_samples=0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("num_samples", [0, -2])
    def test_evaluate_rejects_a_sample_count_below_one(self, corpus, monkeypatch, num_samples):
        """The first block's noise draw rejects the count, before any bound is computed."""

        def bound(*args, **kwargs):
            raise AssertionError("a bound was computed")

        monkeypatch.setattr(evaluation, "batch_bound", bound)
        with pytest.raises(ValueError, match="num_samples must be >= 1"):
            evaluation.evaluate(fresh_model("h"), corpus, num_samples=num_samples, rng=np.random.default_rng(0))

    def test_iterative_inference_rejects_no_documents(self, corpus):
        with pytest.raises(ValueError, match="iterative_inference: no documents"):
            evaluation.iterative_inference(fresh_model("h"), corpus, [], rng=np.random.default_rng(0))

    def test_evaluate_iterative_rejects_an_empty_corpus(self, corpus):
        with pytest.raises(ValueError, match="evaluate_iterative: empty corpus"):
            evaluation.evaluate_iterative(fresh_model("h"), replace(corpus, docs=()), 1, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "setting, value, message",
        [
            ("lr", -0.1, "lr must be finite and >= 0"),
            ("lr", float("nan"), "lr must be finite and >= 0"),
            ("lr", float("inf"), "lr must be finite and >= 0"),
            ("steps_max", -3, "steps_max must be >= 0"),
            ("stop_patience", 0, "stop_patience must be >= 1"),
            ("kl_weight", -0.5, "kl_weight must be finite and >= 0"),
            ("kl_weight", float("nan"), "kl_weight must be finite and >= 0"),
            ("kl_weight", float("inf"), "kl_weight must be finite and >= 0"),
        ],
    )
    def test_evaluate_iterative_rejects_bad_refinement_settings(self, corpus, monkeypatch, setting, value, message):
        """Each would step downhill, never step, stop at once or fail with a misleading message."""

        def bound(*args, **kwargs):
            raise AssertionError("a bound was computed")

        monkeypatch.setattr(evaluation, "posterior_bound", bound)
        with pytest.raises(ValueError, match=message):
            evaluation.evaluate_iterative(fresh_model("h"), corpus, 1, np.random.default_rng(0), **{setting: value})

    def test_edge_refinement_settings_accepted(self, corpus):
        _, (res,) = evaluation.evaluate_iterative(
            fresh_model("h"), replace(corpus, docs=corpus.docs[:1]), 1, np.random.default_rng(0), steps_max=0, stop_patience=1, kl_weight=0.0
        )
        assert res.steps == 0 and res.bound == res.initial_bound

    @pytest.mark.parametrize("kl_weight", [-1.0, float("nan")])
    def test_evaluate_rejects_bad_kl_weight(self, corpus, monkeypatch, kl_weight):
        def bound(*args, **kwargs):
            raise AssertionError("a bound was computed")

        monkeypatch.setattr(evaluation, "batch_bound", bound)
        with pytest.raises(ValueError, match="kl_weight must be finite and >= 0"):
            evaluation.evaluate(fresh_model("h"), corpus, 1, np.random.default_rng(0), kl_weight=kl_weight)
