"""Test-side oracles for the ops that ``nvdm``'s fused ops and ``tensor.prelu`` replaced, rebuilt with ``custom_op``.

``decoder_logits`` and ``multinomial_loglik`` are the decoder's former two
taped ops: the logits b - z @ r with all three gradients deferred, and the
count-weighted log-softmax likelihood, which made fresh (B, V) arrays for
each step.  ``decode_logprob`` chains them as the model did for one
sample, and ``decode_samples`` takes the mean of S samples as a chain of
``row_block``, that decoder and ``add``.  ``combine_latents`` shifts and
concatenates the two families' draws in two ops, and ``posterior_bound``
is the whole bound assembly as the chain of taped ops it was.  ``prelu``
chooses its values and gradients with ``np.where``.  The ops in ``src/``
must reproduce every value and gradient here bit for bit;
``prelu_results`` reads them for either PReLU.
"""

import numpy as np

from pwvae import nvdm, piecewise
from pwvae.tensor import Tape, Tensor, _same_dtype, _unbroadcast, add, custom_op, mul, scale_shift, sum_all

import gaussian_oracle
from tensor_oracle import concat, row_block, sub


def decoder_logits(z, r, b):
    """Logits b - z @ r of (B, L) latent rows under the (L, V) matrix r and the (V,) bias b, as one taped op.

    All three gradients are deferred, and each is written into ``out``
    when ``Tape.grad`` passes one: z's is -g @ r.T, read through a view
    of r rather than a copy, r's z.T @ -g and b's the column sum of g.
    """
    zd, rd, bd = z.data, r.data, b.data
    _same_dtype("decode", zd, rd)

    def backward(g):
        neg = -g
        return (
            lambda out=None: np.matmul(neg, rd.T, out=out),
            lambda out=None: np.matmul(zd.T, neg, out=out),
            lambda out=None: np.sum(g, axis=0, out=out),
        )

    return custom_op(bd - zd @ rd, (z, r, b), backward)


def multinomial_loglik(counts, logits):
    """Count-weighted log-likelihood sum_w c_w log softmax(logits)_w of each of (B, n) rows: a (B,) array.

    Only the logits get a gradient, g (c - N softmax) with N = sum_w c_w.
    """
    cd, xd = counts.data, logits.data
    shifted = xd - xd.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def backward(g):
        gc = g[:, None] * cd
        return (None, gc - np.exp(logp) * gc.sum(axis=1, keepdims=True))

    return custom_op((cd[:, None, :] @ logp[:, :, None])[:, 0, 0], (counts, logits), backward)


def decode_logprob(model, z, counts):
    """The model's likelihood of (B, V) ``counts`` at (B, L) latent rows through the two ops above."""
    return multinomial_loglik(counts, decoder_logits(z, model.params["dec_r"], model.params["dec_b"]))


def decode_samples(model, z, counts):
    """The likelihood of (B, V) ``counts`` averaged over the S blocks of (S*B, L) latent rows ``z``: each block decoded alone, the terms added in order and the sum scaled by 1/S."""
    rows = counts.data.shape[0]
    samples = z.data.shape[0] // rows
    recon = None
    for s in range(samples):
        term = decode_logprob(model, row_block(z, s * rows, (s + 1) * rows), counts)
        recon = term if recon is None else add(recon, term)
    return scale_shift(recon, 1.0 / samples, 0.0) if samples > 1 else recon


def combine_latents(z_gauss, z_piece):
    """Gaussian draws, then piecewise draws shifted onto [-1, 1] by ``scale_shift``, joined by ``concat``; either may be None."""
    z_p = None if z_piece is None else scale_shift(z_piece, 2.0, -1.0)
    if z_gauss is None or z_p is None:
        return z_p if z_gauss is None else z_gauss
    return concat(z_gauss, z_p)


def _reconstruction(model, counts, gauss_post, a_post, noise, rows, samples):
    eps_g, eps_p = noise
    z_g = z_p = None
    if gauss_post is not None:
        z_g = gaussian_oracle.sample_with_noise(gauss_post, eps_g.reshape(samples * rows, model.gauss_dims))
    if a_post is not None:
        z_p = piecewise.sample_through(a_post, eps_p.reshape(samples * rows, model.piece_dims), model.piece_dims, model.n_pieces)
    return decode_samples(model, combine_latents(z_g, z_p), counts)


def posterior_bound(model, counts, *, priors, gauss_mu, gauss_raw_sigma, piece_raw_a, kl_weight, noise, track_noise=None):
    """``nvdm.posterior_bound`` as the chain it was: the KL terms added, weighted by ``scale_shift`` unless the weight is 1, subtracted and summed, each a taped op.

    Returns a ``RowBounds``; ``tracked`` is taped too, off the path to ``total``.
    """
    gauss_prior, a_prior = priors
    gauss_post = gaussian_oracle.from_raw(gauss_mu, gauss_raw_sigma) if gauss_mu is not None else None
    a_post = piecewise.head_forward(piece_raw_a) if piece_raw_a is not None else None
    rows = (gauss_mu if gauss_mu is not None else piece_raw_a).data.shape[0]
    samples = len(next(eps for eps in noise if eps is not None))
    recon = _reconstruction(model, counts, gauss_post, a_post, noise, rows, samples)
    kl_g = gaussian_oracle.kl(gauss_post, gauss_prior) if gauss_post is not None else None
    kl_p = piecewise.kl_between(a_post, a_prior, model.piece_dims, model.n_pieces) if a_post is not None else None
    terms = [term for term in (kl_g, kl_p) if term is not None]
    kl_total = terms[0] if len(terms) == 1 else add(terms[0], terms[1])
    kl_term = kl_total if kl_weight == 1.0 else scale_shift(kl_total, kl_weight, 0.0)
    bound = sub(recon, kl_term)
    tracked = None
    if track_noise is not None:
        track_samples = len(next(eps for eps in track_noise if eps is not None))
        tracked = sub(_reconstruction(model, counts, gauss_post, a_post, track_noise, rows, track_samples), kl_term).data
    return nvdm.RowBounds(
        bounds=bound.data,
        reconstruction=recon.data,
        kl_gaussian=np.maximum(kl_g.data, 0.0) if kl_g is not None else np.zeros_like(recon.data),
        kl_piecewise=np.maximum(kl_p.data, 0.0) if kl_p is not None else np.zeros_like(recon.data),
        total=sum_all(bound),
        tracked=tracked,
    )


def prelu(x, leak):
    """Elementwise x if x > 0 else leak*x, its values and gradients chosen with ``np.where``."""
    xd, ld = x.data, leak.data

    def backward(g):
        gx = g * np.where(xd >= 0, 1.0, ld)
        gl = g * np.where(xd < 0, xd, 0.0)
        return (gx, _unbroadcast(gl, ld.shape))

    return custom_op(np.where(xd > 0, xd, ld * xd), (x, leak), backward)


def prelu_results(op, x, leak, upstream):
    """``op``'s values at arrays x and ``leak`` and, after a backward from their ``upstream``-weighted sum, x's and the leak's gradients, each read with ``tape.grad(t, out=...)`` and with ``tape.grad(t)``."""
    xt, lt = Tensor(x), Tensor(leak)
    with Tape() as tape:
        out = op(xt, lt)
        tape.backward(sum_all(mul(out, Tensor(upstream))))
    written = [tape.grad(t, out=np.full(t.data.shape, np.nan, dtype=t.data.dtype)) for t in (xt, lt)]
    return [out.data, *written, tape.grad(xt), tape.grad(lt)]
