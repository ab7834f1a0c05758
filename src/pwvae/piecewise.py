"""Piecewise constant distributions on [0, 1].

A distribution with n equal-width segments and positive weights a_1..a_n
has density a_i / K on segment i, where K_i = a_i / n and K = sum_i K_i,
so the density integrates to exactly 1.  Segments are half open,
[(i-1)/n, i/n), with the last segment closed at 1.  The ``*_rows`` core
takes one distribution per row of a (d, n) array and gives the density
and the closed-form KL divergence, its gradients and the mean.
``head_forward`` maps pre-activations to weights.  ``sample_through``
draws by the closed-form inverse CDF (inverse transform sampling) with
exact pathwise derivatives in the weights, and ``kl_between`` is the KL
core; both are taped operations.

Derivatives of the segment-selection indicators are fixed to zero: the
probability of drawing a value exactly at a changing point is zero, so
only the active segment's expression is differentiated.  A noise value
landing exactly on a cumulative-mass boundary selects the right-adjacent
segment, consistent with the half-open convention.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _unbroadcast, custom_op, exp_clamped

__all__ = [
    "CLAMP",
    "pdf_rows",
    "kl_rows",
    "kl_grad_rows",
    "mean_rows",
    "head_forward",
    "sample_through",
    "kl_between",
]

# Pre-exponential clamp for weight heads; prevents overflow while leaving
# training-scale values untouched.
CLAMP = 30.0


# Row-vectorised core: `a` has shape (d, n), one distribution per row.


def _segment_of_z(z: np.ndarray, n: int) -> np.ndarray:
    return np.minimum((z * n).astype(np.int64), n - 1)


def pdf_rows(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    d, n = a.shape
    idx = _segment_of_z(z, n)
    total = a.sum(axis=1)
    return n * a[np.arange(d), idx] / total


def _active_segment(a: np.ndarray, eps: np.ndarray):
    """Per row: the segment that noise eps selects, its weight, the weight before it, the total."""
    cum = np.cumsum(a, axis=1)
    total = cum[:, -1]
    bounds = cum / total[:, None]
    idx = np.minimum(np.sum(bounds <= eps[:, None], axis=1), a.shape[1] - 1)
    rows = np.arange(a.shape[0])
    prev = np.where(idx > 0, cum[rows, np.maximum(idx - 1, 0)], 0.0)
    return idx, a[rows, idx], prev, total


def _inverse_cdf(a: np.ndarray, eps: np.ndarray, segment) -> np.ndarray:
    idx, a_sel, prev, total = segment
    n = a.shape[1]
    z = idx / n + (total * eps - prev) / (n * a_sel)
    z = np.minimum(np.maximum(z, 0.0), 1.0)
    return np.where(eps <= 0.0, 0.0, np.where(eps >= 1.0, 1.0, z))


def _sample_grad(a: np.ndarray, eps: np.ndarray, segment) -> np.ndarray:
    idx, a_sel, prev, total = segment
    n = a.shape[1]
    cols = np.arange(n)[None, :]
    before = cols < idx[:, None]
    after = cols > idx[:, None]
    grad = np.where(before, (eps - 1.0)[:, None], np.where(after, eps[:, None], 0.0))
    grad = grad / (n * a_sel)[:, None]
    grad[np.arange(a.shape[0]), idx] = (eps * (a_sel - total) + prev) / (n * a_sel * a_sel)
    return grad


def _kl_terms(post: np.ndarray, prior: np.ndarray):
    """Raw weight sums, log weight ratios, their weighted sum and the unclamped KL, keeping the last axis."""
    a_post_sum = post.sum(axis=-1, keepdims=True)
    a_prior_sum = prior.sum(axis=-1, keepdims=True)
    log_ratio = np.log(post) - np.log(prior)
    s = np.sum(post * log_ratio, axis=-1, keepdims=True)
    return a_post_sum, a_prior_sum, log_ratio, s, s / a_post_sum + np.log(a_prior_sum) - np.log(a_post_sum)


def kl_rows(post: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """KL(post || prior) per row, clamped at 0; weights lie along the last axis.

    The prior broadcasts against the posterior, as (d, n) against
    (B, d, n).  Closed form: (1/n)(1/K_post) sum_i a_i_post (log a_i_post -
    log a_i_prior) + log K_prior - log K_post.  The 1/n factors cancel
    against the raw weight sums A = n*K used below.  Rounding can take the
    value of nearly proportional weights below 0, hence the clamp.
    """
    return np.maximum(_kl_terms(post, prior)[-1][..., 0], 0.0)


def kl_grad_rows(post: np.ndarray, prior: np.ndarray):
    """Gradients of ``kl_rows`` in the posterior and prior weights; 0 where the value was clamped."""
    a_post_sum, a_prior_sum, log_ratio, s, value = _kl_terms(post, prior)
    d_post = (log_ratio + 1.0) / a_post_sum - s / (a_post_sum**2) - 1.0 / a_post_sum
    d_prior = -post / (a_post_sum * prior) + 1.0 / a_prior_sum
    clamped = value < 0.0
    return np.where(clamped, 0.0, d_post), np.where(clamped, 0.0, d_prior)


def mean_rows(a: np.ndarray) -> np.ndarray:
    """Closed-form mean per row: sum_i mass_i * segment midpoint."""
    n = a.shape[1]
    masses = a / a.sum(axis=1, keepdims=True)
    midpoints = (np.arange(n) + 0.5) / n
    return masses @ midpoints


# Taped operations used inside models.  Weight tensors are flat
# (dims * pieces,) vectors or (B, dims * pieces) rows laid out row major,
# one group of ``pieces`` weights per latent dimension.


def head_forward(raw: Tensor) -> Tensor:
    """Weights a = exp(clamp(raw, -CLAMP, CLAMP)) from pre-activations of any shape.

    The one map from pre-activations to piecewise weights: the prior's
    bias, the amortised posterior's ``W enc + b`` and a refined posterior
    all go through it.
    """
    return exp_clamped(raw, -CLAMP, CLAMP)


def sample_through(a_flat: Tensor, eps: np.ndarray, dims: int, pieces: int) -> Tensor:
    """Inverse-CDF samples for each latent dimension, differentiable in the weights.

    ``a_flat`` is one (dims*pieces,) weight vector or (B, dims*pieces)
    rows, and ``eps`` the fixed uniform noise of matching shape (dims,) or
    (B, dims).  Every (row, dimension) pair becomes one row of the
    vectorised core.  The noise values are captured for the backward rule,
    which applies the exact derivative of the active segment's expression
    and zero for segment selection.
    """
    a = a_flat.data.reshape(-1, pieces)
    eps = np.array(eps, dtype=np.float64)
    if eps.shape != a_flat.data.shape[:-1] + (dims,):
        raise ValueError(f"sample_through: noise shape {eps.shape} does not match weights {a_flat.data.shape}")
    flat_eps = eps.reshape(-1)
    segment = _active_segment(a, flat_eps)
    z = _inverse_cdf(a, flat_eps, segment).reshape(eps.shape)

    def backward(g):
        return ((g.reshape(-1, 1) * _sample_grad(a, flat_eps, segment)).reshape(a_flat.data.shape),)

    return custom_op(z, (a_flat,), backward)


def kl_between(post_flat: Tensor, prior_flat: Tensor, dims: int, pieces: int) -> Tensor:
    """KL(post || prior) summed over latent dimensions, as a taped value.

    A (dims*pieces,) posterior gives a scalar, and (B, dims*pieces) rows
    give one value per row; a (dims*pieces,) prior is broadcast against
    the posterior rows, and its gradient summed over them.
    """
    post = post_flat.data.reshape(post_flat.data.shape[:-1] + (dims, pieces))
    prior = prior_flat.data.reshape(prior_flat.data.shape[:-1] + (dims, pieces))
    value = kl_rows(post, prior).sum(axis=-1)

    def backward(g):
        d_post, d_prior = kl_grad_rows(post, prior)
        s = np.asarray(g)[..., None, None]
        return (
            (s * d_post).reshape(post_flat.data.shape),
            _unbroadcast((s * d_prior).reshape(post_flat.data.shape), prior_flat.data.shape),
        )

    return custom_op(value, (post_flat, prior_flat), backward)
