"""Test-side Gaussian oracle: the closed-form KL as the chain of 12 elementwise taped ops that ``gaussian.kl`` replaced.

``log``, ``div`` and ``sum_last`` are the taped ops the chain used, rebuilt
here with ``custom_op`` and their former backward rules.
"""

import numpy as np

from pwvae.tensor import _unbroadcast, custom_op


def log(x):
    xd = x.data
    return custom_op(np.log(xd), (x,), lambda g: (g / xd,))


def div(a, b):
    """Elementwise a / b, a (n,) operand broadcast against (B, n) rows."""
    ad, bd = a.data, b.data
    return custom_op(ad / bd, (a, b), lambda g: (_unbroadcast(g / bd, ad.shape), _unbroadcast(-g * ad / (bd * bd), bd.shape)))


def sum_last(x):
    """Sum along the last axis: a scalar for a vector, (B,) for (B, n) rows."""
    xd = x.data
    return custom_op(xd.sum(axis=-1), (x,), lambda g: (g[..., None] * np.ones_like(xd),))


def kl(post, prior):
    """KL(post || prior) for diagonal ``GaussianParams``: one value per row, each op taped on its own."""
    dmu = post.mu - prior.mu
    terms = (log(prior.var) - log(post.var)) * 0.5 + div(post.var + dmu * dmu, prior.var * 2.0) - 0.5
    return sum_last(terms)
