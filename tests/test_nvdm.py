"""Document model: encoder, decoder, variational bound, and its gradients."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from pwvae import checkpoint as ck
from pwvae import corpus as cio
from pwvae import gaussian, nvdm
from pwvae import piecewise as pw
from pwvae import tensor as T
from pwvae.corpus import Corpus, Document

import nvdm_oracle as oracle
from gradcheck import max_rel_err, numerical_grad


def tiny_corpus(vocab_size=5, seed=0):
    vocab = tuple(f"w{i}" for i in range(vocab_size))
    docs = (
        Document(doc_id="0", term_ids=np.array([0, 2, 3]), counts=np.array([1, 2, 1])),
        Document(doc_id="1", term_ids=np.array([1]), counts=np.array([4])),
        Document(doc_id="2", term_ids=np.array([0, 4]), counts=np.array([1, 1])),
    )
    return Corpus(vocab=vocab, docs=docs)


def randomized(model, seed, scale=0.3):
    """Copy of the model with every parameter perturbed; makes gradients generic."""
    rng = np.random.default_rng(seed)
    return model.replaced({name: t.data + scale * rng.normal(size=t.data.shape) for name, t in model.named_parameters()})


class TestEncode:
    def test_zero_document_zero_biases_gives_zero_encoding(self):
        for activation in ("prelu", "softsign"):
            model = nvdm.init_model("g", 5, hidden=4, gauss_dims=2, activation=activation, seed=0, dtype=np.float64)
            out = nvdm.encode(model, T.Tensor(np.zeros((1, 5))))
            np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_default_hidden_width(self):
        model = nvdm.init_model("g", 12, gauss_dims=2, seed=0)
        assert model.hidden == 100
        assert nvdm.init_model("h", 12, seed=0).gauss_dims == 50

    def test_vocabulary_mismatch(self):
        model = nvdm.init_model("g", 5, hidden=4, gauss_dims=2, seed=0)
        with pytest.raises(T.ShapeError, match=r"\(B, 5\) document rows, got \(1, 6\)"):
            nvdm.encode(model, T.Tensor(np.zeros((1, 6))))

    def test_finite_outputs_and_gradients(self):
        corpus = tiny_corpus()
        model = randomized(nvdm.init_model("g", 5, hidden=3, gauss_dims=2, seed=1, dtype=np.float64), seed=2)
        x_arr = corpus.dense(corpus.docs[:1], dtype=np.float64)
        with T.Tape() as tape:
            x = T.Tensor(x_arr)
            out = nvdm.encode(model, x)
            tape.backward(T.sum_all(out))
        assert np.all(np.isfinite(out.data))
        num = numerical_grad(lambda a: float(T.sum_all(nvdm.encode(model, T.Tensor(a)))), x_arr)
        assert max_rel_err(tape.grad(x), num) < 1e-6


def word_logprobs(model, z):
    """The decoder's word log-probabilities at latent vector ``z``: its log-likelihood of each one-hot count row."""
    v = model.vocab_size
    return nvdm.decode_logprob(model, T.add(T.Tensor(np.zeros((v, model.latent_dim))), z), T.Tensor(np.eye(v)))


class TestDecode:
    def test_zero_decoder_is_uniform(self):
        model = nvdm.init_model("g", 5, hidden=3, gauss_dims=2, seed=0, dtype=np.float64)
        out = word_logprobs(model, T.Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, np.log(0.2), rtol=0, atol=1e-15)

    def test_large_bias_dominates(self):
        model = nvdm.init_model("g", 5, hidden=3, gauss_dims=2, seed=0, dtype=np.float64)
        bias = np.zeros(5)
        bias[3] = 50.0
        model = model.replaced({"dec_b": bias})
        out = word_logprobs(model, T.Tensor(np.zeros(2)))
        assert np.argmax(out.data) == 3
        assert np.exp(out.data[3]) > 0.999999

    def test_normalises_and_gradients(self):
        rng = np.random.default_rng(3)
        model = randomized(nvdm.init_model("g", 6, hidden=3, gauss_dims=2, seed=4, dtype=np.float64), seed=5)
        z_arr = rng.normal(size=2)
        weights = rng.normal(size=6)
        with T.Tape() as tape:
            z = T.Tensor(z_arr)
            logp = word_logprobs(model, z)
            tape.backward(T.sum_all(T.mul(T.Tensor(weights), logp)))
        assert abs(np.exp(logp.data).sum() - 1.0) < 1e-12
        num = numerical_grad(
            lambda a: float(T.sum_all(T.mul(T.Tensor(weights), word_logprobs(model, T.Tensor(a))))), z_arr
        )
        assert max_rel_err(tape.grad(z), num) < 1e-6
        # Weights as counts: the likelihood of one latent vector is the weighted sum of its log-probabilities.
        assert nvdm.decode_logprob(model, T.Tensor(z_arr[None]), T.Tensor(weights[None])).item() == pytest.approx(float(weights @ logp.data), rel=1e-12)


def vector(n, value=0.0):
    return T.Tensor(np.full(n, value))


def vector_gaussian():
    return gaussian.GaussianParams(mu=vector(2), var=vector(2, 1.0))


VECTOR_MODEL = nvdm.init_model("g", 5, hidden=4, gauss_dims=2, seed=0)


# Each rows-only function with a (width,) vector where it takes (B, width)
# rows.  The decoder's counts and each KL's prior are vectors too, so
# every argument but that vector is one the function accepts.
@pytest.mark.parametrize("call, width", [
    pytest.param(lambda: T.affine(vector(3), T.Tensor(np.ones((4, 3))), vector(4)), 3, id="affine"),
    pytest.param(lambda: nvdm.decode_logprob(VECTOR_MODEL, T.Tensor(np.zeros((1, 2), dtype=np.float32)), vector(5, 1.0)), 5, id="decode_logprob_counts"),
    pytest.param(lambda: nvdm.encode(VECTOR_MODEL, vector(5)), 5, id="encode"),
    pytest.param(lambda: nvdm.decode_logprob(VECTOR_MODEL, vector(2), vector(5, 1.0)), 2, id="decode_logprob"),
    pytest.param(lambda: gaussian.kl(vector_gaussian(), vector_gaussian()), 2, id="gaussian.kl"),
    pytest.param(lambda: pw.sample_through(vector(6, 1.0), np.full(2, 0.5), 2, 3), 6, id="sample_through"),
    pytest.param(lambda: pw.kl_between(vector(6, 1.0), vector(6, 2.0), 2, 3), 6, id="kl_between"),
])
def test_rows_only_functions_reject_a_vector(call, width):
    """Documents are rows: a vector raises ShapeError naming the (B, ...) shape expected and the shape given."""
    with pytest.raises(T.ShapeError, match=r"\(B, ") as info:
        call()
    assert f"({width},)" in str(info.value)


# (vocabulary, Gaussian dims, piecewise dims) of the two benchmark workloads' decoders: paper-h and tiny-p.
DECODER_SHAPES = {"paper-h": (2000, 50, 50), "tiny-p": (200, 0, 10)}


def decoder_model(shape, seed, dtype=np.float64):
    """A model at a workload's decoder shape, its decoder drawn as a (V, L) matrix and stored as its transpose."""
    vocab, gauss_dims, piece_dims = DECODER_SHAPES[shape]
    model = nvdm.init_model("h" if gauss_dims else "p", vocab, hidden=4, gauss_dims=gauss_dims, piece_dims=piece_dims, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    return model.replaced({"dec_r": rng.normal(0.0, 0.3, (vocab, model.latent_dim)).T.copy(), "dec_b": rng.normal(0.0, 0.3, vocab)})


def decoder_inputs(model, rows, seed):
    """Latent rows and matching word counts."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(0.05, (rows, model.vocab_size)).astype(np.float64)
    return rng.normal(size=(rows, model.latent_dim)), counts


def reference_decode(model, z, counts):
    """``decode_logprob`` with the bias subtracted by ``sub``, so its gradient is summed eagerly.

    The product is ``affine``'s over a (V, L) view of ``dec_r``, whose
    transpose is ``dec_r`` itself, and adding a zero bias changes no bit,
    so the logits equal ``decode_logprob``'s on any build.
    """
    product = T.affine(z, T._wrap(model.params["dec_r"].data.T), T.Tensor(np.zeros(model.vocab_size)))
    return oracle.multinomial_loglik(counts, T.sub(model.params["dec_b"], product))


DECODER_ROWS = [1, 2, 3, 20, 25, 64]


class TestDecoderLayout:
    """``dec_r`` is stored as the (L, V) matrix R that the decoder's forward multiplies latent rows by.

    The logits are the plain b - z @ R.  Under an upstream gradient g,
    R's gradient z.T @ -g and b's are the bits of the (V, L) layout's, on
    the builds these tests were written with.  z's gradient -g @ R.T
    reads R through a view, and the (V, L) layout's -g @ R_old can differ
    from it in the last bits.
    """

    @pytest.mark.parametrize("shape", sorted(DECODER_SHAPES))
    @pytest.mark.parametrize("rows", DECODER_ROWS)
    def test_logits_and_bounds_match_the_plain_product(self, shape, rows):
        model = decoder_model(shape, seed=rows)
        z, counts = decoder_inputs(model, rows, seed=rows + 1)
        r, b = model.params["dec_r"], model.params["dec_b"]
        expected = b.data - z @ r.data
        assert oracle.decoder_logits(T.Tensor(z), r, b).data.tobytes() == expected.tobytes()
        bound = nvdm.decode_logprob(model, T.Tensor(z), T.Tensor(counts)).data
        assert bound.tobytes() == oracle.multinomial_loglik(T.Tensor(counts), T.Tensor(expected)).data.tobytes()

    @pytest.mark.parametrize("shape", sorted(DECODER_SHAPES))
    @pytest.mark.parametrize("rows", DECODER_ROWS)
    def test_gradients_match_the_old_layout(self, shape, rows):
        """R's gradient is (-g.T @ z).T and b's g's column sum, bit for bit, also when written into ``out``; z's is within 1e-13 of -g @ R_old.

        The logits' own op is the oracle's, whose gradients
        ``decode_logprob`` keeps byte for byte (``TestDecodeLogprobOracle``);
        it takes any upstream gradient g.
        """
        model = decoder_model(shape, seed=rows + 2)
        z_arr, _ = decoder_inputs(model, rows, seed=rows + 3)
        g = np.random.default_rng(rows + 4).normal(size=(rows, model.vocab_size))
        r, b = model.params["dec_r"], model.params["dec_b"]
        z = T.Tensor(z_arr)
        with T.Tape() as tape:
            tape.backward(T.sum_all(T.mul(T.Tensor(g), oracle.decoder_logits(z, r, b))))
        expected = {r: ((-g).T @ z_arr).T, b: g.sum(axis=0)}
        for t, want in expected.items():
            out = np.full(t.data.shape, np.nan)
            assert tape.grad(t, out=out) is out and callable(tape._grads[t])
            assert out.tobytes() == want.tobytes()
            assert tape.grad(t).tobytes() == want.tobytes()
        r_old = np.ascontiguousarray(r.data.T)
        np.testing.assert_allclose(tape.grad(z), -g @ r_old, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("shape", sorted(DECODER_SHAPES))
    def test_gradients_equal_the_plain_layout_bit_for_bit(self, shape):
        """Through the likelihood, z's and b's gradients are those of ``affine`` over the (V, L) view, and R's is the transpose of the view's."""
        model = decoder_model(shape, seed=3)
        z_arr, counts_arr = decoder_inputs(model, 3, seed=4)
        r, b = model.params["dec_r"], model.params["dec_b"]
        z = T.Tensor(z_arr)
        with T.Tape() as tape:
            tape.backward(T.sum_all(nvdm.decode_logprob(model, z, T.Tensor(counts_arr))))
        got = [tape.grad(t) for t in (z, r, b)]
        z, view = T.Tensor(z_arr), T._wrap(r.data.T)
        with T.Tape() as tape:
            product = T.affine(z, view, T.Tensor(np.zeros(model.vocab_size)))
            tape.backward(T.sum_all(oracle.multinomial_loglik(T.Tensor(counts_arr), T.sub(b, product))))
        want = [tape.grad(z), tape.grad(view).T, tape.grad(b)]
        for got_grad, want_grad in zip(got, want):
            assert got_grad.tobytes() == want_grad.tobytes()

    def test_gradients_match_finite_differences(self):
        """Central differences of the summed log-likelihood in z, ``dec_r`` and ``dec_b``."""
        model = randomized(nvdm.init_model("h", 7, hidden=3, gauss_dims=2, piece_dims=1, n_pieces=2, seed=30, dtype=np.float64), seed=31)
        rng = np.random.default_rng(32)
        z_arr, counts = rng.normal(size=(2, 3)), T.Tensor(rng.poisson(1.0, (2, 7)).astype(np.float64))
        z = T.Tensor(z_arr)
        with T.Tape() as tape:
            tape.backward(T.sum_all(nvdm.decode_logprob(model, z, counts)))
        num = numerical_grad(lambda a: float(T.sum_all(nvdm.decode_logprob(model, T.Tensor(a), counts))), z_arr)
        assert max_rel_err(tape.grad(z), num) < 1e-6
        for name in ("dec_r", "dec_b"):
            t = model.params[name]
            num = numerical_grad(lambda a: float(T.sum_all(nvdm.decode_logprob(model.replaced({name: a}), z, counts))), t.data)
            assert max_rel_err(tape.grad(t), num) < 1e-6, name

    def test_bias_gradient_is_deferred_until_read(self, monkeypatch):
        """After a refinement-shaped backward (posterior rows moved, model and priors frozen) nothing has summed the bias gradient's rows.

        The tape holds a deferred gradient as the function that computes
        it, so the bias gradient is unsummed while its slot is callable.
        """
        model = randomized(nvdm.init_model("h", 23, hidden=4, gauss_dims=3, piece_dims=2, seed=9, dtype=np.float64), seed=10)
        rng = np.random.default_rng(11)
        counts = T.Tensor(rng.poisson(1.0, (3, 23)).astype(np.float64))
        rows = dict(gauss_mu=rng.normal(size=(3, 3)), gauss_raw_sigma=rng.normal(size=(3, 3)), piece_raw_a=rng.normal(size=(3, 6)))
        noise = nvdm.draw_noises(model, 1, nvdm.noise_keys(12, [1, 2, 3]))  # a refinement step draws one sample
        prior = nvdm.priors(model)
        bias = model.params["dec_b"]

        def bias_gradient(decode):
            with monkeypatch.context() as patch:
                patch.setattr(nvdm, "decode_logprob", decode)
                with T.Tape() as tape:
                    tensors = {name: T.Tensor(values) for name, values in rows.items()}
                    bound = nvdm.posterior_bound(model, counts, priors=prior, kl_weight=1.0, noise=noise, **tensors)
                    tape.backward(bound.total)
                unsummed = callable(tape._grads[bias])
                return unsummed, tape.grad(bias), callable(tape._grads[bias])

        before, deferred, after = bias_gradient(nvdm.decode_logprob)
        assert (before, after) == (True, False)
        eager_before, eager, _ = bias_gradient(reference_decode)
        assert not eager_before  # summed at backward time
        assert deferred.tobytes() == eager.tobytes()


def decode_results(decode, model, z, counts, upstream):
    """``decode``'s values and, after a backward from their ``upstream``-weighted sum, z's, ``dec_r``'s and ``dec_b``'s gradients, each read with ``tape.grad(t)`` and with ``tape.grad(t, out=...)``."""
    r, b = model.params["dec_r"], model.params["dec_b"]
    with T.Tape() as tape:
        zt = T.Tensor(z)
        out = decode(model, zt, T.Tensor(counts))
        tape.backward(T.sum_all(T.mul(out, T.Tensor(upstream))))
    written = [tape.grad(t, out=np.full(t.data.shape, np.nan, dtype=t.data.dtype)) for t in (zt, r, b)]
    return [out.data, *written, *(tape.grad(t) for t in (zt, r, b))]


def assert_same_bytes(got, want):
    for i, (g, w) in enumerate(zip(got, want, strict=True)):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), i


DTYPES = [np.float32, np.float64]


class TestDecodeLogprobOracle:
    """``decode_logprob`` is one taped op with the values and gradients of the two it replaced (``nvdm_oracle``), byte for byte."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", sorted(DECODER_SHAPES))
    @pytest.mark.parametrize("rows", [1, 3, 25, 64, 100])
    def test_equals_the_two_op_decoder(self, dtype, shape, rows):
        model = decoder_model(shape, seed=rows + 40, dtype=dtype)
        z, counts = (a.astype(dtype) for a in decoder_inputs(model, rows, seed=rows + 41))
        upstream = np.random.default_rng(rows + 42).normal(size=rows).astype(dtype)
        assert_same_bytes(decode_results(nvdm.decode_logprob, model, z, counts, upstream), decode_results(oracle.decode_logprob, model, z, counts, upstream))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_equals_the_two_op_decoder_at_edge_inputs(self, dtype):
        """Signed zeros and subnormals in z and the decoder, a word whose probability underflows to 0 and that no document uses (its bias gradient is +0.0), a row of no counts and a zero upstream gradient."""
        tiny = np.finfo(dtype).smallest_subnormal
        r = np.array([[0.0, 1e3, -1e3, 0.0, tiny, -0.0, 1.0], [-0.0, 0.0, 0.0, 1e3, 0.0, -tiny, -1.0]])
        b = np.array([0.0, -0.0, tiny, 3.0, -2000.0, 0.0, -0.0])
        model = nvdm.init_model("g", 7, hidden=2, gauss_dims=2, seed=0, dtype=dtype).replaced({"dec_r": r, "dec_b": b})
        z = np.array([[1.0, 2.0], [0.0, -0.0], [-0.0, tiny], [3.0, -1.0], [-tiny, 0.5]], dtype=dtype)
        counts = np.array([[1, 0, 0, 2, 0, 0, 0], [0] * 7, [1, 1, 1, 1, 0, 1, 1], [0, 0, 0, 0, 0, 0, 3], [2, 0, 0, 0, 0, 1, 0]], dtype=dtype)
        upstream = np.array([1.0, 2.0, -1.0, 0.5, 0.0], dtype=dtype)
        got = decode_results(nvdm.decode_logprob, model, z, counts, upstream)
        assert_same_bytes(got, decode_results(oracle.decode_logprob, model, z, counts, upstream))
        assert np.signbit(got[3][4]) == np.signbit(got[6][4]) == False  # noqa: E712

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_row_with_a_non_finite_logit_equals_the_two_op_decoder(self, dtype, bad):
        """The row's value is not finite, its neighbours keep the values they have without it, and every value and gradient has the oracle's bytes.

        Without it means in the same batch with that latent value finite:
        a batch of another size can take another BLAS kernel, whose last
        bits differ.
        """
        model = decoder_model("tiny-p", seed=50, dtype=dtype)
        z, counts = (a.astype(dtype) for a in decoder_inputs(model, 3, seed=51))
        finite = nvdm.decode_logprob(model, T.Tensor(z), T.Tensor(counts)).data
        z[1, 2] = bad
        upstream = np.ones(3, dtype=dtype)
        with np.errstate(invalid="ignore"):
            got = decode_results(nvdm.decode_logprob, model, z, counts, upstream)
            want = decode_results(oracle.decode_logprob, model, z, counts, upstream)
        assert_same_bytes(got, want)
        assert not np.isfinite(got[0][1])
        assert got[0][[0, 2]].tobytes() == finite[[0, 2]].tobytes()


# tracemalloc's peaks in units of one (B, V) array, at B = 100, L = 100 and V = 2000 in float32.
PEAK_ROWS, PEAK_DIMS, PEAK_VOCAB = 100, 100, 2000


def traced_peak(call):
    """The bytes ``call`` holds at its peak above what was held before it, and the bytes it still holds when it returns."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kept = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return peak - base, held - base


class TestDecodeLogprobMemory:
    """The decoder works in one (B, V) buffer: a forward call makes at most one more, and a taped call keeps only that buffer for its backward."""

    @pytest.fixture(scope="class")
    def case(self):
        model = nvdm.init_model("g", PEAK_VOCAB, hidden=2, gauss_dims=PEAK_DIMS, seed=1)
        rng = np.random.default_rng(2)
        model = model.replaced({"dec_r": rng.normal(0.0, 0.3, (PEAK_DIMS, PEAK_VOCAB)), "dec_b": rng.normal(0.0, 0.3, PEAK_VOCAB)})
        z = T.Tensor(rng.normal(size=(PEAK_ROWS, PEAK_DIMS)).astype(np.float32))
        counts = T.Tensor(rng.poisson(0.05, (PEAK_ROWS, PEAK_VOCAB)).astype(np.float32))
        return model, z, counts, PEAK_ROWS * PEAK_VOCAB * 4

    def test_a_forward_call_peaks_at_two_arrays(self, case):
        model, z, counts, unit = case
        peak, _ = traced_peak(lambda: nvdm.decode_logprob(model, z, counts))
        assert peak / unit <= 2.05

    def test_a_taped_call_holds_one_array_until_its_backward(self, case):
        model, z, counts, unit = case

        def forward():
            tape = T.Tape()
            with tape:
                out = nvdm.decode_logprob(model, z, counts)
            return tape, out

        _, held = traced_peak(forward)
        assert held / unit <= 1.05

    def test_forward_and_backward_peak_at_three_arrays(self, case):
        """The three gradients are read fresh; R's, (L, V), is the size of one (B, V) array here."""
        model, z, counts, unit = case

        def both():
            with T.Tape() as tape:
                tape.backward(T.sum_all(nvdm.decode_logprob(model, z, counts)))
            return [tape.grad(t) for t in (z, model.params["dec_r"], model.params["dec_b"])]

        peak, _ = traced_peak(both)
        assert peak / unit <= 3.1


def per_sample_bound(model, counts, prior, rows, noise):
    """``posterior_bound``'s taped bounds with one sampling pass per posterior sample, at kl_weight 1: the reference for its single pass."""
    gauss_prior, a_prior = prior
    gauss_post = gaussian.from_raw(rows["gauss_mu"], rows["gauss_raw_sigma"]) if "gauss_mu" in rows else None
    a_post = pw.head_forward(rows["piece_raw_a"]) if "piece_raw_a" in rows else None
    eps_g, eps_p = noise
    samples = len(eps_g if eps_g is not None else eps_p)
    recon = None
    for s in range(samples):
        z_g = gaussian.sample_with_noise(gauss_post, eps_g[s]) if gauss_post is not None else None
        z_p = T.scale_shift(pw.sample_through(a_post, eps_p[s], model.piece_dims, model.n_pieces), 2.0, -1.0) if a_post is not None else None
        term = nvdm.decode_logprob(model, nvdm.combine_latents(z_g, z_p), counts)
        recon = term if recon is None else recon + term
    if samples > 1:
        recon = recon * (1.0 / samples)
    kl = [gaussian.kl(gauss_post, gauss_prior)] if gauss_post is not None else []
    kl += [pw.kl_between(a_post, a_prior, model.piece_dims, model.n_pieces)] if a_post is not None else []
    return recon - (kl[0] if len(kl) == 1 else kl[0] + kl[1])


# posterior_bound's row keywords of each variant.
ROW_NAMES = {"g": ("gauss_mu", "gauss_raw_sigma"), "p": ("piece_raw_a",), "h": ("gauss_mu", "gauss_raw_sigma", "piece_raw_a")}


def bound_case(variant, pieces, samples, docs, seed):
    """A perturbed model, (docs, V) counts, its variant's posterior rows and ``samples`` noise samples."""
    model = randomized(nvdm.init_model(variant, 23, hidden=4, gauss_dims=3, piece_dims=2, n_pieces=pieces, seed=seed, dtype=np.float64), seed=seed + 1)
    rng = np.random.default_rng(seed)
    counts = T.Tensor(rng.poisson(1.0, (docs, 23)).astype(np.float64))
    widths = {"gauss_mu": 3, "gauss_raw_sigma": 3, "piece_raw_a": 2 * pieces}
    rows = {name: rng.normal(size=(docs, widths[name])) for name in ROW_NAMES[variant]}
    return model, counts, rows, nvdm.draw_noises(model, samples, nvdm.noise_keys(seed, np.arange(docs)))


class TestStackedSamples:
    """All posterior samples are drawn in one pass and each is decoded alone; bounds and gradients keep the bits of one pass per sample."""

    @pytest.mark.parametrize("variant, pieces", [("g", 3), ("p", 3), ("p", 10), ("h", 3), ("h", 10)])
    @pytest.mark.parametrize("samples", [2, 5])
    def test_taped_bound_equals_the_per_sample_loop(self, variant, pieces, samples):
        model, counts, rows, noise = bound_case(variant, pieces, samples, docs=4, seed=samples * pieces)

        def taped(bound):
            with T.Tape() as tape:
                leaves = {name: T.Tensor(values) for name, values in rows.items()}
                bounds, total = bound(nvdm.priors(model), leaves)
                tape.backward(total)
            return bounds, [tape.grad(t) for t in leaves.values()] + [tape.grad(t) for _, t in model.named_parameters()]

        def stacked(prior, leaves):
            full = {name: leaves.get(name) for name in ROW_NAMES["h"]}
            bound = nvdm.posterior_bound(model, counts, priors=prior, kl_weight=1.0, noise=noise, **full)
            return bound.bounds, bound.total

        def looped(prior, leaves):
            bounds = per_sample_bound(model, counts, prior, leaves, noise)
            return bounds.data, T.sum_all(bounds)

        got, got_grads = taped(stacked)
        want, want_grads = taped(looped)
        assert got.tobytes() == want.tobytes()
        for g, w in zip(got_grads, want_grads, strict=True):
            assert g.tobytes() == w.tobytes()

    def test_one_sample_records_no_extra_op(self):
        """With one sample nothing is tiled or split: besides its final sum, ``posterior_bound`` records what one pass per sample records."""
        model, counts, rows, noise = bound_case("h", 3, 1, docs=3, seed=5)
        prior = nvdm.priors(model)
        leaves = {name: T.Tensor(values) for name, values in rows.items()}
        with T.Tape() as stacked:
            nvdm.posterior_bound(model, counts, priors=prior, kl_weight=1.0, noise=noise, **leaves)
        with T.Tape() as looped:
            per_sample_bound(model, counts, prior, leaves, noise)
        assert len(stacked._records) == len(looped._records) + 1

    @pytest.mark.parametrize(
        "variant, make",
        [
            pytest.param("h", lambda g, p: (g[0], p[0]), id="per_sample_rows"),
            pytest.param("h", lambda g, p: (g, p[:1]), id="samples_differ"),
            pytest.param("p", lambda g, p: (None, p[:, :3]), id="wrong_rows"),
            pytest.param("p", lambda g, p: (np.zeros((2, 4, 3)), p), id="absent_family"),
            pytest.param("h", lambda g, p: [(g[0], p[0]), (g[1], p[1])], id="list_of_pairs"),
        ],
    )
    def test_noise_of_the_wrong_shape_is_rejected(self, variant, make):
        """Each family the model has takes (S, B, dims) noise with one S for both, and a family it lacks None."""
        model, counts, rows, noise = bound_case(variant, 3, 2, docs=4, seed=8)
        noise = make(*noise)
        leaves = {name: T.Tensor(rows[name]) if name in rows else None for name in ROW_NAMES["h"]}
        with pytest.raises(T.ShapeError, match=r"^posterior_bound: noise must be \(S, 4, dims\) arrays") as caught:
            nvdm.posterior_bound(model, counts, priors=nvdm.priors(model), kl_weight=1.0, noise=noise, **leaves)
        for eps in noise if isinstance(noise, tuple) else ():
            if eps is not None:
                assert str(eps.shape) in str(caught.value)


class TestTrackNoise:
    """``posterior_bound``'s ``track_noise`` adds the rows' bounds under a second noise and changes nothing else."""

    @pytest.mark.parametrize("variant", ["g", "p", "h"])
    @pytest.mark.parametrize("samples, track_samples, kl_weight", [(1, 1, 1.0), (2, 1, 0.5), (1, 3, 1.0)])
    def test_tracked_bounds_and_gradients_keep_their_bits(self, variant, samples, track_samples, kl_weight):
        """``tracked`` is the bounds of a call under ``track_noise``, and ``total``'s bounds and gradients are those of a call without it."""
        model, counts, rows, noise = bound_case(variant, 3, samples, docs=4, seed=17)
        track_noise = nvdm.draw_noises(model, track_samples, nvdm.noise_keys(18, np.arange(4)))
        prior = nvdm.priors(model)

        def taped(noise, **extra):
            with T.Tape() as tape:
                leaves = {name: T.Tensor(rows[name]) if name in rows else None for name in ROW_NAMES["h"]}
                bound = nvdm.posterior_bound(model, counts, priors=prior, kl_weight=kl_weight, noise=noise, **leaves, **extra)
                tape.backward(bound.total)
            grads = [tape.grad(t) for t in leaves.values() if t is not None] + [tape.grad(t) for _, t in model.named_parameters()]
            return bound, grads

        both, both_grads = taped(noise, track_noise=track_noise)
        alone, alone_grads = taped(noise)
        tracking, _ = taped(track_noise)
        assert alone.tracked is None
        assert both.tracked.tobytes() == tracking.bounds.tobytes()
        for field in ("bounds", "reconstruction", "kl_gaussian", "kl_piecewise"):
            assert getattr(both, field).tobytes() == getattr(alone, field).tobytes(), field
        for g, w in zip(both_grads, alone_grads, strict=True):
            assert g.tobytes() == w.tobytes()

    def test_a_wrong_track_noise_is_rejected_by_name(self):
        model, counts, rows, noise = bound_case("h", 3, 1, docs=4, seed=8)
        eps_g, eps_p = noise
        leaves = {name: T.Tensor(values) for name, values in rows.items()}
        with pytest.raises(T.ShapeError, match=r"^posterior_bound: track_noise must be \(S, 4, dims\) arrays"):
            nvdm.posterior_bound(model, counts, priors=nvdm.priors(model), kl_weight=1.0, noise=noise, track_noise=(eps_g[:, :3], eps_p[:, :3]), **leaves)


class TestCombineLatents:
    def test_concatenation_order(self):
        out = nvdm.combine_latents(T.Tensor([1.0, 2.0]), T.Tensor([-0.5]))
        np.testing.assert_array_equal(out.data, [1.0, 2.0, -0.5])

    def test_passthrough(self):
        out = nvdm.combine_latents(None, T.Tensor([0.25]))
        np.testing.assert_array_equal(out.data, [0.25])

    def test_shape_law(self):
        rng = np.random.default_rng(6)
        g, p = rng.normal(size=3), rng.normal(size=4)
        assert nvdm.combine_latents(T.Tensor(g), T.Tensor(p)).data.shape == (7,)

    def test_nothing_to_combine(self):
        with pytest.raises(ValueError):
            nvdm.combine_latents(None, None)


class TestElbo:
    def test_uniform_decoder_zero_kl_weight(self):
        corpus = tiny_corpus()
        model = nvdm.init_model("h", 5, hidden=3, gauss_dims=1, piece_dims=1, n_pieces=2, seed=7, dtype=np.float64)
        for doc in corpus.docs:
            rep = nvdm.elbo(model, corpus, doc, kl_weight=0.0, num_samples=3, rng=np.random.default_rng(0))
            assert rep.bounds[0] == pytest.approx(doc.token_count * np.log(1.0 / 5.0), rel=1e-12)

    def test_fresh_gaussian_model_has_zero_kl(self):
        corpus = tiny_corpus()
        model = nvdm.init_model("g", 5, hidden=3, gauss_dims=2, seed=8)
        rep = nvdm.elbo(model, corpus, corpus.docs[0], num_samples=1, rng=np.random.default_rng(1))
        assert rep.kl_gaussian[0] == 0.0

    def test_posterior_forced_to_prior_has_zero_piecewise_kl(self):
        corpus = tiny_corpus()
        model = nvdm.init_model("p", 5, hidden=3, piece_dims=2, n_pieces=3, seed=9)
        model = model.replaced({"p_post_w_a": np.zeros((6, 3))})
        rep = nvdm.elbo(model, corpus, corpus.docs[0], num_samples=1, rng=np.random.default_rng(2))
        assert rep.kl_piecewise[0] == 0.0

    def test_count_weighting(self):
        # Zero first-layer weights pin the posterior, so duplicating the
        # token changes only the count weight on its log-probability.
        vocab = tuple(f"w{i}" for i in range(4))
        single = Corpus(vocab=vocab, docs=(Document("0", np.array([2]), np.array([1])),))
        double = Corpus(vocab=vocab, docs=(Document("0", np.array([2]), np.array([2])),))
        model = randomized(nvdm.init_model("g", 4, hidden=3, gauss_dims=2, seed=10), seed=11)
        model = model.replaced({"enc_w0": np.zeros((3, 4))})
        rep1 = nvdm.elbo(model, single, single.docs[0], num_samples=1, rng=np.random.default_rng(3))
        rep2 = nvdm.elbo(model, double, double.docs[0], num_samples=1, rng=np.random.default_rng(3))
        assert rep2.reconstruction[0] == pytest.approx(2 * rep1.reconstruction[0], rel=1e-12)

    def test_report_invariants(self):
        corpus = tiny_corpus()
        model = randomized(nvdm.init_model("h", 5, hidden=3, gauss_dims=2, piece_dims=2, n_pieces=3, seed=12, dtype=np.float64), seed=13)
        rep = nvdm.elbo(model, corpus, corpus.docs[0], kl_weight=0.7, num_samples=4, rng=np.random.default_rng(4))
        assert rep.bounds.shape == (1,)
        assert rep.kl_gaussian[0] >= 0.0 and rep.kl_piecewise[0] >= 0.0
        assert rep.bounds[0] <= rep.reconstruction[0]
        assert rep.bounds[0] == pytest.approx(rep.reconstruction[0] - 0.7 * (rep.kl_gaussian[0] + rep.kl_piecewise[0]), abs=1e-10)

    def test_empty_document_rejected(self):
        corpus = tiny_corpus()
        empty = Document("x", np.array([], dtype=int), np.array([], dtype=int))
        model = nvdm.init_model("g", 5, hidden=3, gauss_dims=2, seed=14)
        with pytest.raises(ValueError, match="no tokens"):
            nvdm.elbo(model, corpus, empty, num_samples=1, rng=np.random.default_rng(5))

    def test_deterministic_under_fixed_seed(self):
        corpus = tiny_corpus()
        model = randomized(nvdm.init_model("h", 5, hidden=3, gauss_dims=1, piece_dims=1, n_pieces=2, seed=15), seed=16)
        a = nvdm.elbo(model, corpus, corpus.docs[0], num_samples=5, rng=np.random.default_rng(6))
        b = nvdm.elbo(model, corpus, corpus.docs[0], num_samples=5, rng=np.random.default_rng(6))
        assert a.bounds[0] == b.bounds[0] and a.reconstruction[0] == b.reconstruction[0]

    def test_piecewise_samples_enter_decoder_signed(self):
        """The decoder sees a piecewise sample z in [0, 1] as 2z - 1."""
        vocab = ("w0", "w1", "w2")
        doc = Document("0", np.array([0, 2]), np.array([1, 3]))
        corpus = Corpus(vocab=vocab, docs=(doc,))
        model = nvdm.init_model("p", 3, hidden=2, piece_dims=1, n_pieces=2, seed=0, dtype=np.float64)
        r = np.array([[0.7], [-1.3], [0.4]])
        model = model.replaced({"dec_r": r.T, "p_post_w_a": np.zeros((2, 2))})
        counts = corpus.dense_counts([doc], dtype=np.float64)[0]
        for eps, signed in ((0.0, -1.0), (0.5, 0.0), (1.0, 1.0)):
            rows = nvdm.batch_bound(model, corpus, [doc], (None, np.array([[[eps]]])), kl_weight=0.0)
            logits = -r[:, 0] * signed
            logp = logits - np.log(np.exp(logits).sum())
            assert rows.reconstruction[0] == pytest.approx(counts @ logp, rel=1e-14)

    def test_log1p_transform_changes_encoder_input_only(self):
        vocab = tuple(f"w{i}" for i in range(4))
        doc = Document("0", np.array([1]), np.array([2]))
        plain = Corpus(vocab=vocab, docs=(doc,))
        logged = Corpus(vocab=vocab, docs=(doc,), transform="log1p_tf")
        assert plain.dense([doc], dtype=np.float64)[0, 1] == 2.0
        assert logged.dense([doc], dtype=np.float64)[0, 1] == pytest.approx(np.log(3.0))
        np.testing.assert_array_equal(logged.dense_counts([doc], dtype=np.float64), plain.dense_counts([doc], dtype=np.float64))


class TestFullGradient:
    def test_every_parameter_matches_finite_differences(self):
        """Whole-bound gradient check on a small hybrid model."""
        corpus = tiny_corpus()
        doc = corpus.docs[0]
        model = randomized(
            nvdm.init_model("h", 5, hidden=4, gauss_dims=1, piece_dims=1, n_pieces=2, seed=17, dtype=np.float64), seed=18
        )
        seed = 123

        with T.Tape() as tape:
            rep = nvdm.elbo(model, corpus, doc, kl_weight=1.0, num_samples=1, rng=np.random.default_rng(seed))
            tape.backward(rep.total)

        for name, tensor in model.named_parameters():
            def f(arr, name=name):
                rep2 = nvdm.elbo(
                    model.replaced({name: arr}), corpus, doc, kl_weight=1.0, num_samples=1,
                    rng=np.random.default_rng(seed),
                )
                return rep2.bounds[0]

            num = numerical_grad(f, tensor.data, h=1e-5)
            assert max_rel_err(tape.grad(tensor), num, floor=1e-4) < 1e-4, name

    def test_gate_receives_gradient_at_zero(self):
        """With zero gates the posterior equals the prior, yet the gates
        themselves still get gradient through the reconstruction path."""
        corpus = tiny_corpus()
        model = nvdm.init_model("g", 5, hidden=3, gauss_dims=2, seed=19)
        model = model.replaced({"dec_r": np.random.default_rng(20).normal(size=(5, 2)).T.copy() * 0.5})
        with T.Tape() as tape:
            rep = nvdm.elbo(model, corpus, corpus.docs[0], num_samples=1, rng=np.random.default_rng(21))
            tape.backward(rep.total)
        assert np.any(tape.grad(model.params["g_alpha_mu"]) != 0.0)


class TestLowerBound:
    def test_sampled_bound_below_exact_log_likelihood(self):
        """Quadrature log-likelihood of a tiny model upper-bounds the sampled bound."""
        vocab = tuple(f"w{i}" for i in range(4))
        docs = tuple(
            Document(str(i), np.array([i % 4]), np.array([1 + i % 2])) for i in range(4)
        )
        corpus = Corpus(vocab=vocab, docs=docs)
        model = randomized(nvdm.init_model("p", 4, hidden=3, piece_dims=1, n_pieces=2, seed=22), seed=23, scale=0.5)

        a_prior = nvdm.priors(model)[1].data.reshape(1, 2)
        m = 100_000
        grid = (np.arange(m) + 0.5) / m
        prior_pdf = pw.pdf_rows(np.tile(a_prior, (m, 1)), grid)
        r = model.params["dec_r"].data
        b = model.params["dec_b"].data
        logits = -np.outer(2.0 * grid - 1.0, r[0]) + b
        logp = logits - np.log(np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True)) - logits.max(axis=1, keepdims=True)

        for doc in corpus.docs:
            counts = corpus.dense_counts([doc], dtype=np.float64)[0]
            doc_loglik = logp @ counts
            exact = np.log(np.sum(np.exp(doc_loglik) * prior_pdf) / m)

            samples = []
            for s in range(100):
                rep = nvdm.elbo(model, corpus, doc, num_samples=1, rng=np.random.default_rng((24, s)))
                samples.append(rep.bounds[0])
            samples = np.array(samples)
            se = samples.std() / 10.0
            assert samples.mean() <= exact + 3 * se


_WORD = 2**64 - 1


def _splitmix64(z):
    """SplitMix64's output mix in Python integers: the reference for the uint64 kernel."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _WORD
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _WORD
    return z ^ (z >> 31)


def _reference_uniforms(key, count):
    """The first ``count`` uniforms of a key's stream: SplitMix64 seeded with the mixed key."""
    start = _splitmix64(key)
    return [(_splitmix64((start + c * 0x9E3779B97F4A7C15) & _WORD) >> 11) * 2.0**-53 for c in range(1, count + 1)]


def _unmix64(z):
    """The inverse of ``_splitmix64``: each xor-shift undone by repeating it, each product by the multiplier's inverse mod 2**64."""

    def unshift(y, k):
        x = y
        for _ in range(64 // k):
            x = y ^ (x >> k)
        return x

    z = (unshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64)) & _WORD
    z = (unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & _WORD
    return unshift(z, 30)


def noise_model(gauss_dims, piece_dims):
    """The smallest model with the given latent dimensions; ``draw_noises`` reads nothing else."""
    variant = "h" if gauss_dims and piece_dims else "g" if gauss_dims else "p"
    return nvdm.init_model(variant, 2, hidden=1, gauss_dims=gauss_dims, piece_dims=piece_dims, n_pieces=2, seed=0, dtype=np.float64)


class TestDrawNoises:
    """The keyed, counter-based noise kernel."""

    KEYS = np.array([0, 1, 2, 7, 2**32, 2**63, 2**64 - 1, 0x0123456789ABCDEF, 0xFEDCBA9876543210], dtype=np.uint64)

    def test_uniforms_match_a_python_integer_splitmix64(self):
        """Sample s, dimension d of a piecewise-only model is word s * dims + d of the key's stream."""
        eps_g, eps_p = nvdm.draw_noises(noise_model(0, 5), 3, self.KEYS)
        assert eps_g is None and eps_p.shape == (3, len(self.KEYS), 5)
        for b, key in enumerate(self.KEYS):
            expected = _reference_uniforms(int(key), 15)
            for s in range(3):
                assert eps_p[s, b].tolist() == expected[5 * s : 5 * s + 5], (b, s)

    def test_golden_values(self):
        """Key 0 starts the stream at 0, so its words are SplitMix64's published first outputs for seed 0."""
        _, eps_p = nvdm.draw_noises(noise_model(0, 3), 1, np.zeros(1, dtype=np.uint64))
        words = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
        assert eps_p[0, 0].tolist() == [(w >> 11) * 2.0**-53 for w in words]
        # Normals go through log, cos and sin, whose last bits vary between numpy builds.
        eps_g, eps_p = nvdm.draw_noises(noise_model(3, 2), 1, np.array([0, 2**64 - 1], dtype=np.uint64))
        np.testing.assert_allclose(eps_g[0, 1], [-0.5992449216466367, 1.5377699806734775, 1.3114207700889504], rtol=1e-13)
        assert eps_p[0, 1].tolist() == [0.8304596416451043, 0.05588332997080059]

    def test_normals_are_box_muller_pairs_of_the_first_uniforms(self):
        """Three Gaussian dimensions take two pairs of words (the fourth normal is dropped), then the piecewise words follow."""
        eps_g, eps_p = nvdm.draw_noises(noise_model(3, 2), 1, self.KEYS)
        for b, key in enumerate(self.KEYS):
            u = _reference_uniforms(int(key), 6)
            radius = [np.sqrt(-2.0 * np.log1p(-x)) for x in u[:2]]
            angle = [2.0 * np.pi * x for x in u[2:4]]
            expected = [radius[0] * np.cos(angle[0]), radius[1] * np.cos(angle[1]), radius[0] * np.sin(angle[0])]
            np.testing.assert_allclose(eps_g[0, b], expected, rtol=1e-13, atol=1e-15)
            assert eps_p[0, b].tolist() == u[4:6]

    @pytest.mark.parametrize("dims", [(3, 0), (0, 4), (2, 3)])
    def test_rows_depend_only_on_their_own_keys(self, dims):
        model = noise_model(*dims)
        full = nvdm.draw_noises(model, 4, self.KEYS)
        rng = np.random.default_rng(60)
        picks = [[4], [8, 0], list(range(9))[::-1], rng.permutation(9)[:5].tolist(), [3, 3, 1]]
        for pick in picks:
            part = nvdm.draw_noises(model, 4, self.KEYS[pick])
            for got, whole in zip(part, full):
                if whole is None:
                    assert got is None
                else:
                    np.testing.assert_array_equal(got, whole[:, pick])
        # Sample s is the same whatever the number of samples drawn.
        for count in (1, 2, 7):
            shared = min(count, 4)
            for got, whole in zip(nvdm.draw_noises(model, count, self.KEYS), full):
                if whole is not None:
                    assert got.shape == (count,) + whole.shape[1:]
                    np.testing.assert_array_equal(got[:shared], whole[:shared])

    def test_moments_tails_and_correlations_over_a_million_values(self):
        """Consecutive keys, within 5 standard errors of every target."""
        normal, uniform = (eps[0] for eps in nvdm.draw_noises(noise_model(1000, 1000), 1, np.arange(1000, dtype=np.uint64)))
        n = normal.size
        assert np.all(np.isfinite(normal)) and np.all(np.isfinite(uniform))
        assert uniform.min() >= 0.0 and uniform.max() < 1.0

        def within(value, target, se):
            assert abs(value - target) < 5 * se, (value, target, se)

        within(normal.mean(), 0.0, np.sqrt(1 / n))
        within(normal.var(), 1.0, np.sqrt(2 / n))
        within(uniform.mean(), 0.5, np.sqrt(1 / 12 / n))
        within(uniform.var(), 1 / 12, np.sqrt(1 / 180 / n))
        for threshold, tail in ((2.0, 0.04550026389635842), (3.0, 0.0026997960632601866)):
            within(np.mean(np.abs(normal) > threshold), tail, np.sqrt(tail * (1 - tail) / n))
        for x in (normal, uniform):
            within(np.corrcoef(x[:, :-1].ravel(), x[:, 1:].ravel())[0, 1], 0.0, np.sqrt(1 / n))
            within(np.corrcoef(x[:-1].ravel(), x[1:].ravel())[0, 1], 0.0, np.sqrt(1 / n))

    @pytest.mark.parametrize(
        "keys",
        [np.arange(3, dtype=np.int64), np.zeros((2, 2), dtype=np.uint64), np.zeros(0, dtype=np.uint64), np.arange(3.0)],
    )
    def test_rejects_keys_that_are_not_a_uint64_vector(self, keys):
        with pytest.raises(ValueError, match="draw_noises: keys must be a non-empty"):
            nvdm.draw_noises(noise_model(2, 2), 1, keys)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="num_samples must be >= 1"):
            nvdm.draw_noises(noise_model(2, 2), 0, self.KEYS)

    @pytest.mark.parametrize("dims", [(3, 2), (0, 5), (4, 0)])
    def test_float32_uniforms_are_the_float64_ones_cut_to_24_bits(self, dims):
        """At float32 a uniform is its word's top 24 bits: floor(u64 * 2**24) / 2**24 of the float64 draw, exactly."""
        variant = "h" if all(dims) else "g" if dims[0] else "p"
        model32 = nvdm.init_model(variant, 2, hidden=1, gauss_dims=dims[0], piece_dims=dims[1], n_pieces=2, seed=0)
        assert model32.dtype == np.float32
        for got, want in zip(nvdm.draw_noises(model32, 3, self.KEYS), nvdm.draw_noises(noise_model(*dims), 3, self.KEYS)):
            if want is None:
                assert got is None
            elif got is not None and got.shape[-1] == dims[1]:
                assert got.dtype == np.float32 and got.shape == want.shape
                assert got.astype(np.float64).tobytes() == (np.floor(want * 2.0**24) / 2.0**24).tobytes()
            else:
                # Normals of the cut uniforms, near the float64 ones.
                assert got.dtype == np.float32 and np.all(np.isfinite(got))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-4)

    def test_the_largest_word_gives_a_uniform_below_one_and_a_finite_normal(self):
        """The key whose first word is 2**64 - 1 draws u = 1 - 2**-24 at float32, which rounding the 53-bit u would make 1.0."""
        key = np.array([_unmix64((_unmix64(_WORD) - 0x9E3779B97F4A7C15) & _WORD)], dtype=np.uint64)
        assert _reference_uniforms(int(key[0]), 1) == [1.0 - 2.0**-53]
        assert np.float32(1.0 - 2.0**-53) == 1.0
        _, eps_p = nvdm.draw_noises(nvdm.init_model("p", 2, hidden=1, piece_dims=1, n_pieces=2, seed=0), 1, key)
        assert eps_p.dtype == np.float32 and eps_p[0, 0, 0] == np.float32(1.0 - 2.0**-24)
        # With one Gaussian dimension the first word is the Box-Muller radius's uniform: log1p(-u) stays finite.
        for dtype in (np.float32, np.float64):
            eps_g, _ = nvdm.draw_noises(nvdm.init_model("g", 2, hidden=1, gauss_dims=1, seed=0, dtype=dtype), 1, key)
            assert eps_g.dtype == dtype and np.all(np.isfinite(eps_g)), dtype

    def test_noise_keys_are_distinct_for_distinct_ids(self):
        ids = np.arange(10_000, dtype=np.uint64)
        for root in (0, 12345, 2**64 - 1):
            keys = nvdm.noise_keys(root, ids)
            assert keys.dtype == np.uint64 and len(np.unique(keys)) == len(ids)
            np.testing.assert_array_equal(nvdm.noise_keys(root, ids[::-7]), keys[::-7])


# What each fault does to a valid float32 H model's configuration and
# parameters, and the message that must name the field or the parameter.
MODEL_FAULTS = {
    "missing": (lambda config, params: (config, {k: t for k, t in params.items() if k != "enc_b1"}), r"parameters missing \['enc_b1'\], unexpected \[\]"),
    "extra": (lambda config, params: (config, {**params, "enc_b9": params["enc_b1"]}), r"parameters missing \[\], unexpected \['enc_b9'\]"),
    "shape": (lambda config, params: (config, {**params, "enc_w0": T.Tensor(params["enc_w0"].data.T)}), r"parameter 'enc_w0' is float32 \(20, 4\), expected float32 \(4, 20\)"),
    "dtype": (lambda config, params: (config, {**params, "g_alpha_mu": T.Tensor(params["g_alpha_mu"].data.astype(np.float64))}), r"parameter 'g_alpha_mu' is float64 \(2,\), expected float32 \(2,\)"),
    "configuration": (lambda config, params: ({**config, "activation": "relu"}, params), r"activation must be one of \('prelu', 'softsign'\), got 'relu'"),
}


def _faulted(model, given):
    """``model`` with its fields overwritten by ``given``, unchecked, as no builder allows."""
    vars(model).update(given)
    return model


def _build_by_init_model(model, given, tmp_path, monkeypatch):
    """``init_model``, with ``given`` injected into what it hands the constructor."""
    checked = nvdm.NvdmModel
    monkeypatch.setattr(nvdm, "NvdmModel", lambda **fields: checked(**{**fields, **given}))
    return nvdm.init_model("h", 20, hidden=4, gauss_dims=2, piece_dims=1, n_pieces=3, seed=0)


def _build_by_load_checkpoint(model, given, tmp_path, monkeypatch):
    path = str(tmp_path / "faulted.ckpt")
    ck.save_checkpoint(_faulted(model, given), path)
    return ck.load_checkpoint(path)


MODEL_BUILDERS = {
    "init_model": _build_by_init_model,
    "load_checkpoint": _build_by_load_checkpoint,
    "replaced": lambda model, given, tmp_path, monkeypatch: _faulted(model, given).replaced({}),
    "dataclasses.replace": lambda model, given, tmp_path, monkeypatch: replace(model, **given),
}


@pytest.mark.parametrize("fault", list(MODEL_FAULTS))
@pytest.mark.parametrize("builder", list(MODEL_BUILDERS))
def test_every_way_of_building_a_model_checks_it(builder, fault, tmp_path, monkeypatch):
    """A parameter missing, extra, mis-shaped or of another dtype, or an invalid configuration, is rejected wherever a model is built."""
    model = nvdm.init_model("h", 20, hidden=4, gauss_dims=2, piece_dims=1, n_pieces=3, seed=0)
    change, message = MODEL_FAULTS[fault]
    config, params = change({f.name: getattr(model, f.name) for f in fields(model) if f.name != "params"}, dict(model.params))
    with pytest.raises(ck.CheckpointError if builder == "load_checkpoint" else ValueError, match=message) as info:
        MODEL_BUILDERS[builder](model, {**config, "params": params}, tmp_path, monkeypatch)
    if builder == "load_checkpoint":
        assert str(tmp_path / "faulted.ckpt") in str(info.value)
