"""Word neighbours, KL word-sensitivity counts, and posterior-mean export."""

import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pwvae import analysis, corpus as cio, gaussian, nvdm, piecewise as pw
from pwvae.tensor import Tape, Tensor

from piecewise_oracle import draw_rows


@pytest.fixture(scope="module")
def corpus():
    return cio.make_synthetic_bimodal(30, 12, seed=0)


def model_for(corpus, variant="h", seed=0, **kw):
    defaults = dict(hidden=4, gauss_dims=2, piece_dims=2, n_pieces=3)
    defaults.update(kw)
    if variant == "g":
        defaults["piece_dims"] = 0
    if variant == "p":
        defaults["gauss_dims"] = 0
    return nvdm.init_model(variant, corpus.vocab_size, seed=seed, **defaults, dtype=np.float64)


class TestWordNeighbors:
    def test_identical_rows_are_mutual_nearest_at_zero(self, corpus):
        model = model_for(corpus)
        r = np.random.default_rng(1).normal(size=(12, 4))
        r[7] = r[2]
        model = model.replaced({"dec_r": r.T.copy()})
        vocab = list(corpus.vocab)
        assert analysis.word_neighbors(model, vocab, vocab[2], 1)[0] == (vocab[7], 0.0)
        assert analysis.word_neighbors(model, vocab, vocab[7], 1)[0] == (vocab[2], 0.0)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_is_rejected(self, corpus, k):
        with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
            analysis.word_neighbors(model_for(corpus), list(corpus.vocab), corpus.vocab[0], k)

    def test_k_beyond_the_vocabulary_gives_every_other_word(self, corpus):
        out = analysis.word_neighbors(model_for(corpus), list(corpus.vocab), corpus.vocab[0], 50)
        assert sorted(t for t, _ in out) == sorted(corpus.vocab[1:])

    def test_distance_symmetry(self, corpus):
        model = model_for(corpus)
        model = model.replaced({"dec_r": np.random.default_rng(2).normal(size=(12, 4)).T.copy()})
        vocab = list(corpus.vocab)
        for a in vocab[:4]:
            for b_token, d_ab in analysis.word_neighbors(model, vocab, a, 3):
                back = dict(analysis.word_neighbors(model, vocab, b_token, 11))
                assert back[a] == pytest.approx(d_ab, abs=1e-12)

    def test_unknown_token_suggests_spellings(self, corpus):
        model = model_for(corpus)
        with pytest.raises(analysis.UnknownTokenError, match="w1"):
            analysis.word_neighbors(model, list(corpus.vocab), "w1x", 3)

    def test_ties_break_by_word_id(self, corpus):
        model = model_for(corpus)
        model = model.replaced({"dec_r": np.zeros((4, 12))})
        out = analysis.word_neighbors(model, list(corpus.vocab), corpus.vocab[3], 4)
        assert [t for t, _ in out] == ["w0", "w1", "w2", "w4"]


    @pytest.mark.parametrize("size", [11, 13])
    def test_vocabulary_of_another_size_rejected(self, corpus, size):
        with pytest.raises(ValueError, match=f"vocabulary size {size} != model vocabulary size 12"):
            analysis.word_neighbors(model_for(corpus), [f"w{i}" for i in range(size)], "w0", 3)


class TestKlSensitivity:
    def test_zero_piecewise_head_falls_to_tie_break(self, corpus):
        model = model_for(corpus, variant="h")
        model = model.replaced({"p_post_w_a": np.zeros((6, 4)), "p_post_b_a": np.zeros(6)})
        _, counts_p = analysis.kl_sensitivity(model, corpus, top_m=3)
        expected = np.zeros(12, dtype=np.int64)
        for doc in corpus.docs:
            expected[doc.term_ids[:3]] += 1
        np.testing.assert_array_equal(counts_p, expected)

    def test_counts_sum_to_top_m_times_docs(self, corpus):
        model = model_for(corpus, variant="h", seed=3)
        counts_g, counts_p = analysis.kl_sensitivity(model, corpus, top_m=3)
        assert counts_g.sum() == 3 * len(corpus)
        assert counts_p.sum() == 3 * len(corpus)

    def test_gaussian_only_variant_has_empty_piecewise_table(self, corpus):
        model = model_for(corpus, variant="g", seed=4)
        counts_g, counts_p = analysis.kl_sensitivity(model, corpus, top_m=2)
        assert counts_p.sum() == 0
        assert counts_g.sum() == 2 * len(corpus)

    @pytest.mark.parametrize("top_m", [0, -1])
    def test_rejects_top_m_below_one(self, corpus, monkeypatch, top_m):
        """top_m = -1 used to count every present word but the last."""

        def encode(*args, **kwargs):
            raise AssertionError("a document was encoded")

        monkeypatch.setattr(analysis, "encode", encode)
        with pytest.raises(ValueError, match="top_m must be >= 1"):
            analysis.kl_sensitivity(model_for(corpus, variant="h"), corpus, top_m=top_m)


    def test_an_overflowing_kl_names_the_block_without_a_numpy_warning(self, corpus):
        """Posterior variances that overflow make the Gaussian KL rows non-finite; the error names the family and the block's first document."""
        model = model_for(corpus, variant="h", seed=6).replaced({"g_alpha_sigma": np.full(2, 10.0), "g_post_b_sigma": np.full(2, 1e308)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^kl_sensitivity: gaussian KL: the bound of the block starting at document '0' cannot be computed: 30 of 30 rows are not finite"):
                analysis.kl_sensitivity(model, corpus, top_m=2)

    def test_priors_once_per_call_and_one_family_per_pass(self, monkeypatch):
        """An H model over two blocks: one Gaussian prior per call, and one Gaussian posterior per block, from the Gaussian pass alone."""
        corpus = cio.make_synthetic_bimodal(analysis.EVAL_BLOCK + 9, 12, seed=4)
        model = model_for(corpus, variant="h", seed=5)
        calls = {"prior_forward": 0, "posterior_forward": 0}
        for name in calls:
            original = getattr(gaussian, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(gaussian, name, counting)
        analysis.kl_sensitivity(model, corpus, top_m=2)
        assert calls == {"prior_forward": 1, "posterior_forward": 2}


class TestExportMeans:
    def test_uniform_posterior_exports_half(self, corpus, tmp_path):
        model = model_for(corpus, variant="p", seed=5)
        model = model.replaced({"p_post_w_a": np.zeros((6, 4)), "p_post_b_a": np.zeros(6)})
        out = str(tmp_path / "means.tsv")
        analysis.export_posterior_means(model, corpus, out)
        rows = [line.split("\t") for line in Path(out).read_text().splitlines() if not line.startswith("#")]
        for row in rows:
            assert [float(v) for v in row[2:]] == [0.5, 0.5]

    def test_closed_form_matches_monte_carlo(self):
        a = np.array([1.0, 3.0])
        closed = float(pw.mean_rows(a[None, :])[0])
        assert closed == pytest.approx(0.625, abs=1e-12)
        rng = np.random.default_rng(6)
        draws = draw_rows(np.tile(a, (100_000, 1)), rng.random(100_000))
        se = draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean() - closed) < 3 * se

    def test_line_count_and_labels(self, corpus, tmp_path):
        model = model_for(corpus, variant="h", seed=7)
        out = str(tmp_path / "means.tsv")
        written = analysis.export_posterior_means(model, corpus, out)
        lines = Path(out).read_text().splitlines()
        header = [line for line in lines if line.startswith("#")]
        data = [line for line in lines if not line.startswith("#")]
        assert written == len(corpus)
        assert len(data) == len(corpus)
        assert len(header) >= 1
        first = data[0].split("\t")
        assert first[0] == corpus.docs[0].doc_id
        assert first[1] == corpus.docs[0].label
        assert len(first) == 2 + 2 + 2  # id, label, gauss means, piecewise means

    def test_exported_piecewise_means_in_unit_interval(self, corpus, tmp_path):
        model = model_for(corpus, variant="p", seed=8)
        out = str(tmp_path / "means.tsv")
        analysis.export_posterior_means(model, corpus, out)
        for line in Path(out).read_text().splitlines():
            if line.startswith("#"):
                continue
            values = [float(v) for v in line.split("\t")[2:]]
            assert all(0.0 <= v <= 1.0 for v in values)


def _one_document_kl_gradient(model, corpus, doc, family):
    """The input gradient of one document's KL term, from a tape of its own."""
    x = Tensor(corpus.dense([doc], dtype=np.float64))
    gauss_prior, a_prior = nvdm.priors(model)
    with Tape() as tape:
        post = nvdm.amortized_posterior(model, nvdm.encode(model, x))
        if family == "gaussian":
            kl = gaussian.kl(gaussian.from_raw(post["gauss_mu"], post["gauss_raw_sigma"]), gauss_prior)
        else:
            kl = pw.kl_between(pw.head_forward(post["piece_raw_a"]), a_prior, model.piece_dims, model.n_pieces)
        tape.backward(kl)
        return tape.grad(x)[0]


class TestBlocksMatchOneDocument:
    """Blocks of ``EVAL_BLOCK`` rows give every document what a pass of its own gives it."""

    @pytest.fixture(scope="class")
    def setting(self):
        corpus = cio.make_synthetic_bimodal(analysis.EVAL_BLOCK + 9, 12, seed=3)
        model = model_for(corpus, variant="h", seed=9)
        rng = np.random.default_rng(10)
        model = model.replaced({name: rng.normal(0.0, 0.5, t.data.shape) for name, t in model.named_parameters()})
        return model, replace(corpus, transform="log1p_tf")

    def test_sensitivity_counts(self, setting):
        model, corpus = setting
        expected = {"gaussian": np.zeros(12, dtype=np.int64), "piecewise": np.zeros(12, dtype=np.int64)}
        for doc in corpus.docs:
            for family, counts in expected.items():
                g = _one_document_kl_gradient(model, corpus, doc, family)
                counts[doc.term_ids[np.argsort(-g[doc.term_ids] ** 2, kind="stable")[:3]]] += 1
        counts_g, counts_p = analysis.kl_sensitivity(model, corpus, top_m=3)
        np.testing.assert_array_equal(counts_g, expected["gaussian"])
        np.testing.assert_array_equal(counts_p, expected["piecewise"])

    def test_exported_means(self, setting, tmp_path):
        model, corpus = setting
        out = str(tmp_path / "means.tsv")
        analysis.export_posterior_means(model, corpus, out)
        rows = [line.split("\t") for line in Path(out).read_text().splitlines() if not line.startswith("#")]
        assert [row[0] for row in rows] == [doc.doc_id for doc in corpus.docs]
        for doc, row in zip(corpus.docs, rows):
            post = nvdm.amortized_posterior(model, nvdm.encode(model, Tensor(corpus.dense([doc], dtype=np.float64))))
            a = pw.head_forward(post["piece_raw_a"]).data.reshape(model.piece_dims, model.n_pieces)
            expected = np.concatenate([post["gauss_mu"].data[0], pw.mean_rows(a)])
            np.testing.assert_allclose([float(v) for v in row[2:]], expected, rtol=1e-9)
