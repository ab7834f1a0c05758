"""Neural variational document model with Gaussian and piecewise latents.

Three variants share one architecture: a two-layer bag-of-words encoder,
latent heads producing prior/posterior parameters, and a softmax word
decoder with logits b - R z, whose count-weighted log-likelihood
(``decode_logprob``) is one taped op.  It forms the logits and their
log-probabilities in one (B, V) buffer, which is all it keeps for its
backward, and the backward builds the logits' gradient in that buffer
and one more.  ``dec_r`` holds R^T, the (L, V) matrix that latent rows
are multiplied by.  Variant "g" uses
Gaussian latent variables only, "p" piecewise constant only, and "h"
both, sampled independently and concatenated (Gaussian dimensions first).

Piecewise samples are shifted onto [-1, 1] before entering the decoder;
KL terms are computed on the unshifted parametrisation.  The variational
bound for one document is the count-weighted reconstruction
log-likelihood, averaged over posterior samples, minus the weighted sum
of the per-family KL terms.

``priors`` builds both priors from bias vectors alone, and the callers
of ``posterior_bound`` pass them in.  Every posterior, amortised or
refined, is carried as (B, dims) rows of pre-activations:
the Gaussian ``gauss_mu`` and ``gauss_raw_sigma`` (``gaussian.from_raw``
maps them to mean and variance) and the piecewise ``piece_raw_a``
(``piecewise.head_forward`` maps it to weights).  ``amortized_posterior``
computes them from an encoding; iterative inference starts from them and
moves them directly.

Documents are rows: a batch of B documents is encoded, sampled and
decoded as (B, ·) matrices, and one bound assembly (``posterior_bound``)
takes a batch's posterior rows and returns every document's bound,
reconstruction and KL terms together with their taped sum.
``batch_bound`` runs it under the amortised posterior for training and
evaluation, and iterative inference calls ``posterior_bound`` with the
rows it refines.  ``RowBounds`` is the one result of every bound call:
``elbo`` bounds one document through ``batch_bound`` and returns its one
row.  Noise for S posterior samples is one (eps_gauss, eps_piece) pair
of (S, B, dims) arrays, None for an absent family, whose rows belong to
the documents in order.

``posterior_bound`` draws the latents of all S posterior samples in one
pass over each family's noise as (S*B, dims) rows.  ``tile_rows``
stacks the Gaussian posterior rows S times, and
``piecewise.sample_through`` takes the piecewise weight rows as they are
and reads each row's weights once for its S samples.  The decoder still
reads each sample's (B, L) block on its own (``row_block``), so every
decoder product and log-softmax keeps its shape and its bits; one
log-softmax over S*B rows at V=2000 was slower than S over B rows.
Bounds and gradients equal those of one sampling pass per sample bit
for bit, and with one sample nothing is tiled or split.

``draw_noises`` draws a whole batch's noise in one vectorised call from a
(B,) array of uint64 keys, one per document.  It is counter-based (Salmon
et al., SC'11): entry (b, s, d) is a pure function of ``keys[b]``, the
sample s and the dimension d, namely SplitMix64's output mix over a Weyl
sequence that starts at the mixed key, turned into a uniform in [0, 1)
of as many bits as the model's float has (24 at float32, 53 at float64)
and, for Gaussian dimensions, a Box-Muller normal.  A document's
noise therefore depends on its key alone, never on the batch it sits in
or on how many samples are drawn.  ``noise_keys`` combines a caller's
root with per-document ids (batch slots in training, content digests in
evaluation and refinement) into such keys.  Refinement XORs the step
count t into its step root, so a refined row's step noise is keyed by
(content, t).

The parameters' dtype, float32 or float64, is the model's (``dtype``):
``init_model`` chooses it, float32 by default, and the dense rows, the
noise and every op follow it.  There is one code path for both: at
float64 each op does what it would with float64 fixed.  A model whose
parameters differ in dtype, or in names or shapes from its
configuration's, cannot be built (``NvdmModel``).  Noise of the other
dtype raises ShapeError naming both dtypes when ``posterior_bound``
checks it, and rows or a Tensor of the other dtype at the first op that
would mix them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import gaussian, piecewise
from .corpus import Corpus, Document
from .gaussian import GaussianHead, GaussianParams
from .tensor import (
    ShapeError,
    Tensor,
    _same_dtype,
    _wrap,
    affine,
    concat,
    custom_op,
    prelu,
    row_block,
    scale_shift,
    softsign,
    sum_all,
    tile_rows,
)

__all__ = [
    "VARIANTS",
    "ACTIVATIONS",
    "DTYPES",
    "NvdmModel",
    "RowBounds",
    "init_model",
    "param_shapes",
    "encode",
    "decode_logprob",
    "combine_latents",
    "priors",
    "amortized_posterior",
    "noise_keys",
    "draw_noises",
    "batch_bound",
    "elbo",
    "posterior_bound",
]

VARIANTS = ("g", "p", "h")
ACTIVATIONS = ("prelu", "softsign")
DTYPES = ("float32", "float64")

PRELU_LEAK_INIT = 0.25


def param_shapes(variant: str, vocab_size: int, hidden: int, gauss_dims: int, piece_dims: int, n_pieces: int, activation: str) -> dict[str, tuple]:
    """Canonical parameter names and shapes, in checkpoint order, of a valid configuration; any other raises ValueError naming the field."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    if vocab_size < 1 or hidden < 1:
        raise ValueError("vocab_size and hidden must be positive")
    if variant in ("g", "h") and gauss_dims < 1:
        raise ValueError(f"variant {variant!r} needs gauss_dims >= 1")
    if variant in ("p", "h") and piece_dims < 1:
        raise ValueError(f"variant {variant!r} needs piece_dims >= 1")
    if variant == "g" and piece_dims != 0:
        raise ValueError("variant 'g' must have piece_dims == 0")
    if variant == "p" and gauss_dims != 0:
        raise ValueError("variant 'p' must have gauss_dims == 0")
    if piece_dims > 0 and n_pieces < 2:
        raise ValueError("piecewise latents need at least 2 pieces")
    shapes: dict[str, tuple] = {
        "enc_w0": (hidden, vocab_size),
        "enc_b0": (hidden,),
        "enc_w1": (hidden, hidden),
        "enc_b1": (hidden,),
    }
    if activation == "prelu":
        shapes["enc_leak0"] = (hidden,)
        shapes["enc_leak1"] = (hidden,)
    if gauss_dims > 0:
        shapes.update(
            {
                "g_prior_b_mu": (gauss_dims,),
                "g_prior_b_sigma": (gauss_dims,),
                "g_post_w_mu": (gauss_dims, hidden),
                "g_post_b_mu": (gauss_dims,),
                "g_post_w_sigma": (gauss_dims, hidden),
                "g_post_b_sigma": (gauss_dims,),
                "g_alpha_mu": (gauss_dims,),
                "g_alpha_sigma": (gauss_dims,),
            }
        )
    if piece_dims > 0:
        shapes.update(
            {
                "p_prior_b_a": (piece_dims * n_pieces,),
                "p_post_w_a": (piece_dims * n_pieces, hidden),
                "p_post_b_a": (piece_dims * n_pieces,),
            }
        )
    shapes["dec_r"] = (gauss_dims + piece_dims, vocab_size)
    shapes["dec_b"] = (vocab_size,)
    return shapes


@dataclass
class NvdmModel:
    """A model's configuration and its parameters, checked wherever a model is built.

    However it is built (``init_model``, ``checkpoint.load_checkpoint``,
    ``replaced`` or ``dataclasses.replace``), the configuration must be one
    that ``param_shapes`` accepts, else ValueError names the field, and
    ``params`` must hold exactly its names and shapes, every one in
    ``dec_b``'s dtype (a Tensor is float32 or float64), else ValueError
    names the parameters missing and unexpected, or ShapeError the first
    parameter of another shape or dtype.  ``params`` is then kept in
    ``param_shapes``' order, which is the checkpoint's and the trainer's
    flat layout's.
    """

    variant: str
    vocab_size: int
    hidden: int
    gauss_dims: int
    piece_dims: int
    n_pieces: int
    activation: str
    params: dict[str, Tensor] = field(repr=False)

    def __post_init__(self):
        expected = param_shapes(self.variant, self.vocab_size, self.hidden, self.gauss_dims, self.piece_dims, self.n_pieces, self.activation)
        missing, extra = sorted(expected.keys() - self.params.keys()), sorted(self.params.keys() - expected.keys())
        if missing or extra:
            raise ValueError(f"parameters missing {missing}, unexpected {extra}")
        dtype = self.params["dec_b"].data.dtype
        for name, shape in expected.items():
            got = self.params[name].data
            if got.shape != shape or got.dtype != dtype:
                raise ShapeError(f"parameter {name!r} is {got.dtype} {got.shape}, expected {dtype} {shape}")
        self.params = {name: self.params[name] for name in expected}

    @property
    def latent_dim(self) -> int:
        return self.gauss_dims + self.piece_dims

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, float32 or float64, in which the model computes."""
        return self.params["dec_b"].data.dtype

    def named_parameters(self):
        return self.params.items()

    def replaced(self, updates: dict[str, np.ndarray]) -> "NvdmModel":
        """Copy of the model with some parameters replaced.

        A Tensor is kept as it is; any other value is copied into a
        C-ordered array of the model's dtype, which the decoder and the
        trainer's flat layout read fastest (a Fortran-ordered ``dec_r``
        slows ``decode_logprob``).  The copy is checked as every model is.
        """
        params = {**self.params, **{name: v if isinstance(v, Tensor) else _wrap(np.array(v, dtype=self.dtype, order="C")) for name, v in updates.items()}}
        return replace(self, params=params)

    def gaussian_head(self) -> GaussianHead:
        """The Gaussian head over this model's ``g_<field>`` parameters."""
        return GaussianHead(**{f.name: self.params[f"g_{f.name}"] for f in fields(GaussianHead)})


@dataclass
class RowBounds:
    """Variational bounds of a batch of documents, one entry per row.

    KL terms are clamped at zero; ``total`` is the taped sum of ``bounds``.
    ``tracked`` holds the bounds of the same posterior rows under
    ``posterior_bound``'s ``track_noise``, or None when none was given;
    ``total`` does not depend on it.
    """

    bounds: np.ndarray
    reconstruction: np.ndarray
    kl_gaussian: np.ndarray
    kl_piecewise: np.ndarray
    total: Tensor = field(compare=False, repr=False)
    tracked: np.ndarray | None = None


def init_model(
    variant: str,
    vocab_size: int,
    *,
    hidden: int = 100,
    gauss_dims: int = 50,
    piece_dims: int = 50,
    n_pieces: int = 3,
    activation: str = "prelu",
    seed: int = 0,
    dtype=np.float32,
) -> NvdmModel:
    """Freshly initialised model whose parameters, and so all its computation, have ``dtype``: float32 or float64.

    Weight matrices get Glorot-uniform values from the seeded generator;
    every bias, gate, and the decoder start at zero, so the initial prior
    is centred and the initial decoder is uniform over words.  Values are
    drawn in float64 and rounded once to ``dtype``.
    """
    if variant == "g":
        piece_dims = 0
    if variant == "p":
        gauss_dims = 0
    config = dict(variant=variant, vocab_size=vocab_size, hidden=hidden, gauss_dims=gauss_dims, piece_dims=piece_dims, n_pieces=n_pieces, activation=activation)
    shapes = param_shapes(**config)
    if dtype not in (np.float32, np.float64, *DTYPES):
        raise ValueError(f"dtype must be one of {DTYPES}, got {dtype!r}")
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        if name.startswith("enc_leak"):
            values = np.full(shape, PRELU_LEAK_INIT)
        elif name in ("dec_r", "dec_b") or "_b_" in name or name.startswith("g_alpha") or name.startswith("enc_b"):
            values = np.zeros(shape)
        else:
            fan_out, fan_in = shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            values = rng.uniform(-bound, bound, shape)
        params[name] = _wrap(values.astype(dtype))
    return NvdmModel(**config, params=params)


def _activate(model: NvdmModel, t: Tensor, layer: int) -> Tensor:
    if model.activation == "prelu":
        return prelu(t, model.params[f"enc_leak{layer}"])
    return softsign(t)


def encode(model: NvdmModel, x: Tensor) -> Tensor:
    """Bag-of-words MLP encoding of (B, V) dense document rows: (B, H) rows."""
    if x.data.ndim != 2 or x.data.shape[1] != model.vocab_size:
        raise ShapeError(f"encode: expected (B, {model.vocab_size}) document rows, got {x.data.shape}")
    h = _activate(model, affine(x, model.params["enc_w0"], model.params["enc_b0"]), 0)
    return _activate(model, affine(h, model.params["enc_w1"], model.params["enc_b1"]), 1)


def decode_logprob(model: NvdmModel, z: Tensor, counts: Tensor) -> Tensor:
    """Log-likelihood sum_w c_w log softmax(b - z R)_w of (B, V) ``counts`` at (B, L) latent rows: a (B,) array, as one taped op.

    The logits b - z @ R are formed in one (B, V) buffer, which the max
    shift and the log-sum-exp turn into log-probabilities in place; that
    buffer is all a taped call keeps for its backward.  Rows are
    independent: a row with a non-finite logit gets a non-finite value,
    the others keep theirs, and the caller checks the result.  Only z,
    ``dec_r`` and ``dec_b`` get gradients, all three deferred and each
    written into ``out`` when ``Tape.grad`` passes one.
    """
    r, b = model.params["dec_r"], model.params["dec_b"]
    zd, cd, rd = z.data, counts.data, r.data
    if zd.ndim != 2 or zd.shape[1] != model.latent_dim:
        raise ShapeError(f"decode: expected (B, {model.latent_dim}) latent rows, got {zd.shape}")
    if cd.shape != (zd.shape[0], model.vocab_size):
        raise ShapeError(f"decode: expected counts and logits of one shape, (B, n) rows, got {cd.shape} and {(zd.shape[0], model.vocab_size)}")
    _same_dtype("decode", zd, rd, cd)
    logp = zd @ rd
    np.subtract(b.data, logp, out=logp)
    logp -= logp.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))

    def backward(g):
        # gl = g c becomes the logits' gradient g c - exp(logp) sum(g c) in
        # place, and logp's buffer its negation.  b's gradient is gl's
        # column sum, z's -gl @ R.T (read through a view of R) and R's
        # z.T @ -gl.  Negating gl, rather than subtracting the other way
        # round, keeps the sign of a zero: x - x is +0.0 either way.
        gl = g[:, None] * cd
        np.multiply(np.exp(logp, out=logp), gl.sum(axis=1, keepdims=True), out=logp)
        np.subtract(gl, logp, out=gl)
        neg = np.negative(gl, out=logp)
        return (
            lambda out=None: np.matmul(neg, rd.T, out=out),
            lambda out=None: np.matmul(zd.T, neg, out=out),
            lambda out=None: np.sum(gl, axis=0, out=out),
        )

    return custom_op((cd[:, None, :] @ logp[:, :, None])[:, 0, 0], (z, r, b), backward)


def combine_latents(z_gauss: Tensor | None, z_piece: Tensor | None) -> Tensor:
    """Concatenate family samples, Gaussian dimensions first."""
    if z_gauss is None and z_piece is None:
        raise ValueError("combine_latents: nothing to combine")
    if z_gauss is None:
        return z_piece
    if z_piece is None:
        return z_gauss
    return concat(z_gauss, z_piece)


def priors(model: NvdmModel) -> tuple[GaussianParams | None, Tensor | None]:
    """(Gaussian (G,) parameters, flat (P·n,) piecewise weights); None for an absent family."""
    gauss_prior = a_prior = None
    if model.gauss_dims > 0:
        gauss_prior = gaussian.prior_forward(model.gaussian_head())
    if model.piece_dims > 0:
        a_prior = piecewise.head_forward(model.params["p_prior_b_a"])
    return gauss_prior, a_prior


def amortized_posterior(model: NvdmModel, enc: Tensor) -> dict[str, Tensor | None]:
    """The amortised posterior's pre-activations, under ``posterior_bound``'s keywords.

    ``enc`` is (B, H) encoder rows, and each entry (B, dims) rows:
    ``gauss_mu`` and ``gauss_raw_sigma`` from ``gaussian.posterior_forward``
    and ``piece_raw_a`` = W enc + b; None for an absent family.
    """
    rows = {"gauss_mu": None, "gauss_raw_sigma": None, "piece_raw_a": None}
    if model.gauss_dims > 0:
        rows["gauss_mu"], rows["gauss_raw_sigma"] = gaussian.posterior_forward(model.gaussian_head(), enc)
    if model.piece_dims > 0:
        rows["piece_raw_a"] = affine(enc, model.params["p_post_w_a"], model.params["p_post_b_a"])
    return rows


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the Weyl increment and
# the two multipliers of its output mix.  Every operation below is on
# uint64 arrays, whose arithmetic wraps modulo 2**64 silently; numpy
# scalars would warn on overflow instead.
_WEYL = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of a uint64 array, a bijection on 64-bit words."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def noise_keys(root, ids) -> np.ndarray:
    """(B,) ``draw_noises`` keys: ``root`` XOR each id, both below 2**64.

    Distinct ids give distinct keys, and ``draw_noises`` mixes every key
    before use, so nearby ids (batch slots 0, 1, 2, ...) still get
    unrelated streams.
    """
    return np.uint64(root) ^ np.asarray(ids, dtype=np.uint64)


def draw_noises(model: NvdmModel, num_samples: int, keys: np.ndarray):
    """A batch's noise: an (eps_gauss, eps_piece) pair of (``num_samples``, B, dims) arrays of the model's dtype, row b keyed by ``keys[b]``.

    ``keys`` is a (B,) uint64 array.  Each sample takes ``width`` words of
    row b's stream, word c being ``_mix64(_mix64(keys[b]) + (c + 1) *
    _WEYL)`` for c = s * width, ..., (s + 1) * width - 1: an even number of
    uniforms that Box-Muller pairs into the Gaussian normals, then one
    uniform per piecewise dimension.  A uniform is a word's top 24 bits
    at float32, or its top 53 at float64, scaled into [0, 1): exact in
    that dtype and at most 1 - 2**-24 or 1 - 2**-53, so every normal is
    finite.  (A 53-bit uniform rounded to float32 would be 1.0 about once
    in 3e7 draws, and its normal infinite.)  An absent family's entry is
    None.
    """
    keys = np.asarray(keys)
    if keys.dtype != np.uint64 or keys.ndim != 1 or keys.size == 0:
        raise ValueError(f"draw_noises: keys must be a non-empty (B,) uint64 array, got {keys.dtype} of shape {keys.shape}")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    pairs = (model.gauss_dims + 1) // 2
    width = 2 * pairs + model.piece_dims
    counters = np.arange(1, num_samples * width + 1, dtype=np.uint64).reshape(num_samples, 1, width) * _WEYL
    words = _mix64(_mix64(keys)[:, None] + counters)
    bits = np.finfo(model.dtype).nmant + 1
    uniform = (words >> np.uint64(64 - bits)).astype(model.dtype) * model.dtype.type(2.0**-bits)
    eps_g = eps_p = None
    if model.gauss_dims > 0:
        radius = np.sqrt(-2.0 * np.log1p(-uniform[..., :pairs]))
        angle = (2.0 * np.pi) * uniform[..., pairs : 2 * pairs]
        eps_g = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)[..., : model.gauss_dims]
    if model.piece_dims > 0:
        eps_p = uniform[..., 2 * pairs :]
    return eps_g, eps_p


def _check_documents(model: NvdmModel, corpus: Corpus, docs) -> None:
    if corpus.vocab_size != model.vocab_size:
        raise ShapeError(f"corpus vocabulary size {corpus.vocab_size} != model vocabulary size {model.vocab_size}")
    for doc in docs:
        if doc.token_count < 1:
            raise ValueError(f"document {doc.doc_id!r} has no tokens")


def batch_bound(model: NvdmModel, corpus: Corpus, docs, noise, *, kl_weight: float = 1.0) -> RowBounds:
    """Variational bounds of a batch of documents under the amortised posterior.

    ``noise`` is ``draw_noises``' pair, with one row per document.  The
    documents are not checked here: each caller checks its own once
    (``_check_documents``).
    """
    counts = corpus.dense_counts(docs, dtype=model.dtype)
    rows = amortized_posterior(model, encode(model, _wrap(corpus.dense(docs, dtype=model.dtype, counts=counts))))
    return posterior_bound(model, _wrap(counts), priors=priors(model), kl_weight=kl_weight, noise=noise, **rows)


def elbo(
    model: NvdmModel,
    corpus: Corpus,
    doc: Document,
    *,
    kl_weight: float = 1.0,
    num_samples: int = 1,
    rng: np.random.Generator,
) -> RowBounds:
    """Variational bound of one document under the amortised posterior, as one row, its noise keyed by a draw from ``rng``."""
    _check_documents(model, corpus, [doc])
    noise = draw_noises(model, num_samples, rng.integers(0, 2**64, size=1, dtype=np.uint64))
    return batch_bound(model, corpus, [doc], noise, kl_weight=kl_weight)


def _noise_samples(model: NvdmModel, noise, rows: int, name: str) -> int:
    """The number of samples S in a ``draw_noises`` pair for ``rows`` documents.

    Each family the model has needs an (S, rows, dims) array of the
    model's dtype, with one S for both, and a family it lacks None;
    otherwise ShapeError names the argument ``name`` and the shapes or
    dtypes.
    """
    dims = (model.gauss_dims, model.piece_dims)
    shapes = [None if eps is None else eps.shape if isinstance(eps, np.ndarray) else type(eps).__name__ for eps in noise]
    samples = next((shape[0] for shape in shapes if isinstance(shape, tuple) and shape), 0)
    if samples < 1 or shapes != [None if d == 0 else (samples, rows, d) for d in dims]:
        raise ShapeError(f"posterior_bound: {name} must be (S, {rows}, dims) arrays with one S >= 1 for dims {dims}, None where dims is 0, got {shapes}")
    for eps in noise:
        if eps is not None and eps.dtype != model.dtype:
            raise ShapeError(f"posterior_bound: {name} is {eps.dtype}, the model {model.dtype}")
    return samples


def _reconstruction(model: NvdmModel, counts: Tensor, gauss_post: GaussianParams | None, a_post: Tensor | None, noise, rows: int, samples: int) -> Tensor:
    """The (B,) reconstruction term averaged over ``noise``'s S samples, all drawn in one pass and decoded one by one."""
    eps_g, eps_p = noise
    z_g = z_p = None
    if gauss_post is not None:
        tiled = GaussianParams(mu=tile_rows(gauss_post.mu, samples), var=tile_rows(gauss_post.var, samples))
        z_g = gaussian.sample_with_noise(tiled, eps_g.reshape(samples * rows, model.gauss_dims))
    if a_post is not None:
        z01 = piecewise.sample_through(a_post, eps_p.reshape(samples * rows, model.piece_dims), model.piece_dims, model.n_pieces)
        z_p = scale_shift(z01, 2.0, -1.0)
    z = combine_latents(z_g, z_p)
    recon = None
    for s in range(samples):
        term = decode_logprob(model, row_block(z, s * rows, (s + 1) * rows), counts)
        recon = term if recon is None else recon + term
    return recon * (1.0 / samples) if samples > 1 else recon


def posterior_bound(
    model: NvdmModel,
    counts: Tensor,
    *,
    priors: tuple[GaussianParams | None, Tensor | None],
    gauss_mu: Tensor | None,
    gauss_raw_sigma: Tensor | None,
    piece_raw_a: Tensor | None,
    kl_weight: float,
    noise,
    track_noise=None,
) -> RowBounds:
    """The one bound assembly: bounds of a batch of documents at the given posterior rows.

    ``counts`` holds the batch's (B, V) word counts.  The posterior is
    given as (B, dims) pre-activation rows, one per document, or None for
    an absent family: the Gaussian posterior is ``gaussian.from_raw(gauss_mu,
    gauss_raw_sigma)`` and the piecewise weights are
    ``piecewise.head_forward(piece_raw_a)``.  ``batch_bound`` passes the
    amortised rows, iterative inference the rows it refines while the
    block's counts stay fixed.  ``priors`` is the model's ``priors(model)``,
    built by the caller: inside the tape when the model's gradients are
    wanted, once outside it when only the rows move.  ``noise`` is
    ``draw_noises``' (eps_gauss, eps_piece) pair of (S, B, dims) arrays,
    None for a family the model lacks; anything else raises ShapeError, as
    does noise whose dtype is not the model's, and counts or rows of
    another dtype raise it at the first op that mixes them.
    All S samples are drawn in one pass and decoded one by one.  A mean
    over one sample and a KL weight of 1 are not multiplied out: the
    product would change no bit.  Values are never checked: a row whose
    variances or logits overflow gets a non-finite bound, the other rows
    keep theirs, and each caller checks finiteness once.

    ``track_noise``, a second such pair (any S), also gives the rows'
    bounds under it, as ``RowBounds.tracked``: iterative inference tracks
    its progress under one fixed noise while it steps under fresh noise.
    The posterior and both KL terms are built once for both noises, and
    each noise gets its own sampling and decoder pass, so ``tracked``
    equals the ``bounds`` of a call with ``noise=track_noise`` bit for
    bit.  Its ops are taped, but ``total`` does not reach them, so a
    backward from ``total`` visits none of them.
    """
    gauss_prior, a_prior = priors
    gauss_post = gaussian.from_raw(gauss_mu, gauss_raw_sigma) if gauss_mu is not None else None
    a_post = piecewise.head_forward(piece_raw_a) if piece_raw_a is not None else None
    rows = (gauss_mu if gauss_mu is not None else piece_raw_a).data.shape[0]
    samples = _noise_samples(model, noise, rows, "noise")
    track_samples = None if track_noise is None else _noise_samples(model, track_noise, rows, "track_noise")
    recon = _reconstruction(model, counts, gauss_post, a_post, noise, rows, samples)

    kl_g_t = gaussian.kl(gauss_post, gauss_prior) if gauss_post is not None else None
    kl_p_t = piecewise.kl_between(a_post, a_prior, model.piece_dims, model.n_pieces) if a_post is not None else None
    kl_total = None
    for term in (kl_g_t, kl_p_t):
        if term is not None:
            kl_total = term if kl_total is None else kl_total + term
    kl_term = kl_total if kl_weight == 1.0 else kl_total * kl_weight
    bound = recon - kl_term
    total = sum_all(bound)
    tracked = None
    if track_noise is not None:
        tracked = (_reconstruction(model, counts, gauss_post, a_post, track_noise, rows, track_samples) - kl_term).data
    return RowBounds(
        bounds=bound.data,
        reconstruction=recon.data,
        kl_gaussian=np.maximum(kl_g_t.data, 0.0) if kl_g_t is not None else np.zeros_like(recon.data),
        kl_piecewise=np.maximum(kl_p_t.data, 0.0) if kl_p_t is not None else np.zeros_like(recon.data),
        total=total,
        tracked=tracked,
    )
