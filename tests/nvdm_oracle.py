"""Test-side oracles for the ops that ``nvdm.decode_logprob`` and ``tensor.prelu`` replaced, rebuilt with ``custom_op``.

``decoder_logits`` and ``multinomial_loglik`` are the decoder's former two
taped ops: the logits b - z @ r with all three gradients deferred, and the
count-weighted log-softmax likelihood, which made fresh (B, V) arrays for
each step.  ``decode_logprob`` chains them as the model did.  ``prelu``
chooses its values and gradients with ``np.where``.  The ops in ``src/``
must reproduce every value and gradient here bit for bit;
``prelu_results`` reads them for either PReLU.
"""

import numpy as np

from pwvae.tensor import Tape, Tensor, _same_dtype, _unbroadcast, custom_op, mul, sum_all


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
