"""Perplexity evaluation and per-document iterative posterior refinement."""

from dataclasses import replace

import numpy as np
import pytest

from pwvae import corpus as cio
from pwvae import evaluation, nvdm


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
    return nvdm.init_model(variant, vocab, seed=seed, **defaults)


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
        model = model.replaced({"dec_r": np.random.default_rng(8).normal(size=(20, 4))})

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
        model = model.replaced({"dec_r": np.random.default_rng(35).normal(size=(20, 4)), "g_alpha_mu": np.full(2, 0.5), "g_alpha_sigma": np.full(2, 0.3)})
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
    def test_lr_zero_returns_exactly_the_amortized_bound(self, corpus):
        model = fresh_model("h", seed=12)
        doc = corpus.docs[0]
        res = evaluation.iterative_inference(
            model, corpus, doc, steps_max=30, lr=0.0, stop_patience=5, rng=np.random.default_rng(13)
        )
        assert res.bound == res.initial_bound
        # Stops after stop_patience steps without improvement.
        assert res.steps == 5

    def test_best_bound_never_below_initial(self, corpus):
        model = fresh_model("h", seed=14)
        for i, doc in enumerate(corpus.docs[:10]):
            res = evaluation.iterative_inference(
                model, corpus, doc, steps_max=20, lr=0.1, stop_patience=5, rng=np.random.default_rng((15, i))
            )
            assert res.bound >= res.initial_bound

    def test_fixed_point_stays_within_noise(self):
        """A model already posterior-optimal for a one-word corpus barely moves."""
        vocab = ("only",)
        doc = cio.Document("0", np.array([0]), np.array([3]))
        one = cio.Corpus(vocab=vocab, docs=(doc,))
        model = nvdm.init_model("g", 1, hidden=2, gauss_dims=1, seed=16)
        res = evaluation.iterative_inference(
            model, one, doc, steps_max=50, lr=0.1, stop_patience=10, rng=np.random.default_rng(17)
        )
        # log P(doc) = 0 for a single-word vocabulary; KL is zero at init.
        assert abs(res.initial_bound) < 1e-9
        assert res.bound - res.initial_bound < 0.05

    def test_refinement_improves_on_trained_model(self, corpus):
        model = fresh_model("h", seed=18)
        model = model.replaced({"dec_r": np.random.default_rng(19).normal(size=(20, 4)) * 0.5})
        gains = []
        for i, doc in enumerate(corpus.docs[:8]):
            res = evaluation.iterative_inference(
                model, corpus, doc, steps_max=60, lr=0.1, stop_patience=10, rng=np.random.default_rng((20, i))
            )
            gains.append(res.bound - res.initial_bound)
        assert np.mean(gains) > 0.0

    def test_evaluate_iterative_tracks_hard_guarantee(self, corpus):
        small = replace(corpus, docs=corpus.docs[:6])
        model = fresh_model("p", seed=21)
        model = model.replaced({"dec_r": np.random.default_rng(22).normal(size=(20, 2)) * 0.5})
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
        model = model.replaced({"dec_r": np.random.default_rng(38).normal(size=(20, 4)) * 0.5})
        settings = dict(num_samples=2, steps_max=15, stop_patience=4)
        report, refinements = evaluation.evaluate_iterative(model, small, rng=np.random.default_rng(39), **settings)
        report2, refinements2 = evaluation.evaluate_iterative(model, doubled, rng=np.random.default_rng(39), **settings)
        for j, i in enumerate([2, 1, 0, 0, 1, 2]):
            assert report2.per_doc_bounds[j] == report.per_doc_bounds[i]
            assert refinements2[j].bound == refinements[i].bound
            assert refinements2[j].steps == refinements[i].steps


class TestSamplePriorDocs:
    def test_zero_decoder_breaks_ties_by_word_id(self):
        model = fresh_model("h", seed=24)
        out = evaluation.sample_prior_docs(model, num_docs=2, top_k=5, rng=np.random.default_rng(25))
        assert out[0] == [0, 1, 2, 3, 4]

    def test_fixed_seed_identical(self):
        model = fresh_model("h", seed=26)
        model = model.replaced({"dec_r": np.random.default_rng(27).normal(size=(20, 4))})
        a = evaluation.sample_prior_docs(model, 3, 4, np.random.default_rng(28))
        b = evaluation.sample_prior_docs(model, 3, 4, np.random.default_rng(28))
        assert a == b

    def test_top_k_clipped_to_vocab(self):
        model = fresh_model("g", seed=29)
        out = evaluation.sample_prior_docs(model, 1, 100, np.random.default_rng(30))
        assert len(out[0]) == 20

    def test_vocab_mapping(self):
        model = fresh_model("g", seed=31)
        vocab = [f"tok{i}" for i in range(20)]
        out = evaluation.sample_prior_docs(model, 1, 3, np.random.default_rng(32), vocab=vocab)
        assert out[0] == ["tok0", "tok1", "tok2"]
