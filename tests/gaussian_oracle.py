"""Test-side Gaussian oracle: the closed-form KL as the chain of 12 elementwise taped ops that ``gaussian.kl`` replaced.

``log`` and ``sum_last`` are the taped ops the chain used, rebuilt here with
``custom_op`` and their former backward rules.
"""

import numpy as np

from pwvae.tensor import custom_op


def log(x):
    xd = x.data
    return custom_op(np.log(xd), (x,), lambda g: (g / xd,))


def sum_last(x):
    """Sum along the last axis: a scalar for a vector, (B,) for (B, n) rows."""
    xd = x.data
    return custom_op(xd.sum(axis=-1), (x,), lambda g: (g[..., None] * np.ones_like(xd),))


def kl(post, prior):
    """KL(post || prior) for diagonal ``GaussianParams``: one value per row, each op taped on its own."""
    dmu = post.mu - prior.mu
    terms = 0.5 * (log(prior.var) - log(post.var)) + (post.var + dmu * dmu) / (2.0 * prior.var) - 0.5
    return sum_last(terms)
