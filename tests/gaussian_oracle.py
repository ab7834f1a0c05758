"""Test-side Gaussian oracles: the chains of taped ops that ``gaussian``'s one-op KL, variance and draw replaced.

``kl`` is the closed-form KL as a chain of 12 elementwise ops; ``log``,
``div`` and ``sum_last`` are the taped ops it used, rebuilt here with
``custom_op`` and their former backward rules.  ``from_raw`` and
``sample_with_noise`` are the variance and the S-sample draw as chains
of ``tensor`` and ``tensor_oracle`` ops.
"""

import numpy as np

from pwvae.gaussian import VAR_FLOOR, GaussianParams
from pwvae.tensor import Tensor, _unbroadcast, add, custom_op, mul, scale_shift

from tensor_oracle import softplus, sqrt, sub, tile_rows


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
    dmu = sub(post.mu, prior.mu)
    half_log_ratio = scale_shift(sub(log(prior.var), log(post.var)), 0.5, 0.0)
    terms = scale_shift(add(half_log_ratio, div(add(post.var, mul(dmu, dmu)), scale_shift(prior.var, 2.0, 0.0))), 1.0, -0.5)
    return sum_last(terms)


def from_raw(mu, raw_sigma):
    """Gaussian parameters as the two ops ``gaussian.from_raw`` replaced: ``softplus``, then the floor added by ``scale_shift``."""
    return GaussianParams(mu=mu, var=scale_shift(softplus(raw_sigma), 1.0, VAR_FLOOR))


def sample_with_noise(g, eps):
    """Samples of (B, G) rows ``g`` for (S*B, G) noise as the chain ``gaussian.sample_with_noise`` replaced: the rows tiled S times, then ``sqrt``, ``mul`` and ``add``."""
    samples = len(eps) // g.mu.data.shape[0]
    return add(tile_rows(g.mu, samples), mul(sqrt(tile_rows(g.var, samples)), Tensor(eps)))
