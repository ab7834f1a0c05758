"""The dtype contract: a float32 model computes in float32 throughout, and nothing of another dtype mixes in silently.

Every op of a float32 model, on the tape or off it, reads and writes
float32 arrays, and so does every gradient, the trainer's flat buffers
and the Adam moments.  Only the per-document bounds of ``evaluate`` and
``evaluate_iterative`` are gathered as float64, where the perplexity is
computed.  Noise, rows or Tensors of float64 raise instead of promoting
the model's arrays.  Nothing here depends on numpy's casting rules (the
value-based rules of numpy 1 or NEP 50's of numpy 2): the source never
mixes a numpy float64 scalar or 0-d array into a float32 array.
"""

from dataclasses import replace

import numpy as np
import pytest

from pwvae import analysis, evaluation, nvdm, training
from pwvae import corpus as cio
from pwvae import tensor as T

F32 = np.dtype(np.float32)
MIXED = "operands of dtypes (float32 and float64|float64 and float32) do not mix"
DIMS = {"g": dict(gauss_dims=3), "p": dict(piece_dims=2, n_pieces=3), "h": dict(gauss_dims=3, piece_dims=2, n_pieces=3)}


@pytest.fixture(scope="module")
def corpora():
    corpus = cio.make_synthetic_bimodal(50, 20, seed=1)
    return replace(corpus, docs=corpus.docs[:40]), replace(corpus, docs=corpus.docs[40:])


class DtypeLog:
    """Records the dtype of every array that an op reads, writes or hands back as a gradient, and of Adam's arrays."""

    def __init__(self, monkeypatch):
        self.seen = []
        record, adam_step = T._record, training.adam_step

        def checked(gi, what):
            if gi is None:
                return None
            if callable(gi):

                def deferred(out=None):
                    result = gi(out)
                    self.seen.append((what + ", deferred", result.dtype))
                    return result

                return deferred
            self.seen.append((what, gi.dtype))
            return gi

        def logged_record(out, inputs, backward):
            self.seen.append(("op output", out.data.dtype))
            self.seen.extend(("op input", t.data.dtype) for t in inputs)

            def rule(g):
                self.seen.append(("output gradient", g.dtype))
                return tuple(checked(gi, "input gradient") for gi in backward(g))

            record(out, inputs, rule)

        def logged_adam_step(params, grad, state, config, scale):
            names = ("params", "gradient", "first moment", "second moment", "scratch")
            self.seen.extend((name, a.dtype) for name, a in zip(names, (params, grad, state.m, state.v, state.scratch)))
            self.seen.append(("layout", state.layout.dtype))
            adam_step(params, grad, state, config, scale)

        monkeypatch.setattr(T, "_record", logged_record)
        monkeypatch.setattr(training, "adam_step", logged_adam_step)

    def others(self):
        return sorted({(what, str(dtype)) for what, dtype in self.seen if dtype != F32})


@pytest.mark.parametrize("activation", nvdm.ACTIVATIONS)
@pytest.mark.parametrize("variant", nvdm.VARIANTS)
def test_a_float32_model_computes_in_float32_only(corpora, variant, activation, monkeypatch, tmp_path):
    train_c, valid_c = corpora
    model = nvdm.init_model(variant, 20, hidden=6, activation=activation, seed=2, **DIMS[variant])
    assert model.dtype == F32 and all(t.data.dtype == F32 for _, t in model.named_parameters())
    log = DtypeLog(monkeypatch)

    config = training.TrainConfig(batch_size=10, max_epochs=2, patience=2, seed=3, valid_samples=2, kl_anneal_batches=3)
    result = training.train(model, train_c, valid_c, config)
    trained = result.model
    assert trained.dtype == F32 and all(t.data.dtype == F32 for _, t in trained.named_parameters())
    assert any(what == "first moment" for what, _ in log.seen)

    report = evaluation.evaluate(trained, valid_c, 3, np.random.default_rng(4))
    refined, refinements = evaluation.evaluate_iterative(trained, valid_c, 2, np.random.default_rng(5), steps_max=3)
    for rep in (report, refined):
        assert rep.per_doc_bounds.dtype == np.float64 and np.all(np.isfinite(rep.per_doc_bounds))
        assert np.isfinite(rep.perplexity)
    for r in refinements:
        for rows in (r.gauss_mu, r.gauss_raw_sigma, r.piece_raw_a):
            assert rows is None or rows.dtype == F32
    analysis.kl_sensitivity(trained, valid_c, top_m=2)
    assert analysis.export_posterior_means(trained, valid_c, str(tmp_path / "means.tsv")) == len(valid_c)

    # Two samples per document on a tape: only here do the decoder's row blocks get gradients.
    with T.Tape() as tape:
        rows = nvdm.batch_bound(trained, valid_c, valid_c.docs[:4], nvdm.draw_noises(trained, 2, np.arange(4, dtype=np.uint64)))
        tape.backward(rows.total)
    for values in (rows.bounds, rows.reconstruction, rows.kl_gaussian, rows.kl_piecewise):
        assert values.dtype == F32
    for name, t in trained.named_parameters():
        assert tape.grad(t).dtype == F32, name

    assert log.seen and log.others() == []


def float32_case(variant="h"):
    corpus = cio.make_synthetic_bimodal(6, 20, seed=6)
    model = nvdm.init_model(variant, 20, hidden=5, seed=7, **DIMS[variant])
    docs = corpus.docs[:3]
    noise = nvdm.draw_noises(model, 2, np.arange(3, dtype=np.uint64))
    return model, corpus, docs, noise


@pytest.mark.parametrize("family", [0, 1])
def test_float64_noise_into_a_float32_model_raises_naming_both_dtypes(family):
    model, corpus, docs, noise = float32_case()
    mixed = tuple(eps.astype(np.float64) if i == family else eps for i, eps in enumerate(noise))
    with pytest.raises(T.ShapeError, match="noise is float64, the model float32"):
        nvdm.batch_bound(model, corpus, docs, mixed)


@pytest.mark.parametrize("name", ["counts", "gauss_mu", "gauss_raw_sigma", "piece_raw_a"])
def test_float64_rows_into_a_float32_model_raise_naming_both_dtypes(name):
    model, corpus, docs, noise = float32_case()
    rows = nvdm.amortized_posterior(model, nvdm.encode(model, T.Tensor(corpus.dense(docs, dtype=np.float32))))
    given = {"counts": T.Tensor(corpus.dense_counts(docs, dtype=np.float32)), **rows}
    given[name] = T.Tensor(given[name].data.astype(np.float64))
    counts = given.pop("counts")
    with pytest.raises(T.ShapeError, match=MIXED):
        nvdm.posterior_bound(model, counts, priors=nvdm.priors(model), kl_weight=1.0, noise=noise, **given)


def test_float64_tensors_into_a_float32_model_raise_naming_both_dtypes():
    model, corpus, docs, _ = float32_case()
    with pytest.raises(T.ShapeError, match="affine: " + MIXED):
        nvdm.encode(model, T.Tensor(corpus.dense(docs, dtype=np.float64)))
    with pytest.raises(T.ShapeError, match=r"parameter 'enc_b0' is float64 \(5,\), expected float32 \(5,\)"):
        model.replaced({"enc_b0": T.Tensor(np.zeros(5))})
    z = T.Tensor(np.zeros((3, model.latent_dim)))
    with pytest.raises(T.ShapeError, match="decode: operands of dtypes float64 and float32 do not mix"):
        nvdm.decode_logprob(model, z, T.Tensor(corpus.dense_counts(docs, dtype=np.float32)))


# A float32 decoder over 3 words with 3 latent dimensions, so (2, 3) operands are its latent rows and counts.
DECODER_3X3 = nvdm.init_model("g", 3, hidden=1, gauss_dims=3, seed=0)


@pytest.mark.parametrize(
    "op",
    [
        lambda a, b: T.add(a, b),
        lambda a, b: T.sub(a, b),
        lambda a, b: T.mul(a, b),
        lambda a, b: T.concat(a, b),
        lambda a, b: T.prelu(a, T.Tensor(b.data[0])),
        lambda a, b: nvdm.decode_logprob(DECODER_3X3, a, b),
        lambda a, b: T.affine(a, b, T.Tensor(b.data[:, 0])),
    ],
    ids=["add", "sub", "mul", "concat", "prelu", "decode_logprob", "affine"],
)
def test_ops_reject_operands_of_two_dtypes(op):
    a32 = T.Tensor(np.ones((2, 3), dtype=np.float32))
    b64 = T.Tensor(np.ones((2, 3)))
    with pytest.raises(T.ShapeError, match=MIXED):
        op(a32, b64)
    # The same op on one dtype computes in it.
    assert op(a32, T.Tensor(b64.data.astype(np.float32))).data.dtype == F32


@pytest.mark.parametrize("name", ["enc_w1", "enc_leak0", "g_alpha_mu", "dec_r"])
def test_a_model_with_one_float64_parameter_cannot_be_built(name):
    model = float32_case()[0]
    params = {**model.params, name: T.Tensor(model.params[name].data.astype(np.float64))}
    with pytest.raises(T.ShapeError, match=rf"parameter '{name}' is float64 .*, expected float32 "):
        replace(model, params=params)


@pytest.mark.parametrize("dtype", [np.float16, np.int64, "float31", "f4"])
def test_init_model_takes_float32_or_float64_only(dtype):
    with pytest.raises(ValueError, match="dtype must be one of"):
        nvdm.init_model("g", 5, hidden=2, gauss_dims=1, dtype=dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, "float32", "float64", np.dtype(np.float32)])
def test_init_model_accepts_each_spelling_of_both_dtypes(dtype):
    model = nvdm.init_model("g", 5, hidden=2, gauss_dims=1, seed=3, dtype=dtype)
    assert model.dtype == np.dtype(dtype)
    # The float32 parameters are the float64 draws rounded once.
    reference = nvdm.init_model("g", 5, hidden=2, gauss_dims=1, seed=3, dtype=np.float64)
    for name, t in model.named_parameters():
        assert t.data.tobytes() == reference.params[name].data.astype(dtype).tobytes(), name


def test_tensors_keep_float32_and_float64_and_make_the_rest_float64():
    for values, dtype in [
        (np.ones(2, dtype=np.float32), np.float32),
        (np.float32(1.5), np.float32),
        (np.ones(2), np.float64),
        ([1, 2], np.float64),
        (np.arange(2), np.float64),
        (np.ones(2, dtype=np.float16), np.float64),
        (1.5, np.float64),
    ]:
        assert T.Tensor(values).data.dtype == dtype, values
        assert T._wrap(values).data.dtype == dtype, values
