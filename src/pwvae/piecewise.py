"""Piecewise constant distributions on [0, 1].

A distribution with n equal-width segments and positive weights a_1..a_n
has density a_i / K on segment i, where K_i = a_i / n and K = sum_i K_i,
so the density integrates to exactly 1.  Segments are half open,
[(i-1)/n, i/n), with the last segment closed at 1.  The ``*_rows`` core
takes one distribution per row of a (d, n) array and gives the density
and the mean.  ``head_forward`` maps pre-activations to weights.
``sample_through`` draws by the closed-form inverse CDF (inverse transform
sampling) with exact pathwise derivatives in the weights, and
``kl_between`` is the closed-form KL divergence; both are one taped
operation each.

Derivatives of the segment-selection indicators are fixed to zero: the
probability of drawing a value exactly at a changing point is zero, so
only the active segment's expression is differentiated.  A noise value
landing exactly on a cumulative-mass boundary selects the right-adjacent
segment, consistent with the half-open convention.

The sampler's kernels work one piece at a time across all rows, since
the pieces axis is short (3 or 10) and numpy's per-row cost of
``np.cumsum``, boolean row sums and 2-D fancy indexing dominated them.
They take S noise values per distribution, so the S posterior samples
of a batch are drawn in one call that builds each row's running sums
once.  ``_active_segment`` builds them with one column add per piece:
the same sequential adds ``np.cumsum`` makes, so every sum, and every
draw and gradient built from them, keeps its bits.  It picks each
draw's active weight and preceding sum through flat indices, and
``_sample_grad`` lays out its gradient as (pieces, samples, rows) from
two per-draw values and one scatter.  Their float temporaries are
(pieces, rows) or (samples, rows); only a boolean comparison and the
taped gradient have all three axes.  ``kl_between`` keeps its
row sums: from 8 pieces up numpy sums a row pairwise, an order a
column-by-column fold would not reproduce.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, _same_dtype, _unbroadcast, custom_op, exp_clamped

__all__ = [
    "CLAMP",
    "pdf_rows",
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
    """The segment that noise selects, its weight, the sum of the weights before it, and the total.

    ``a`` is (m, n), one distribution per row, and ``eps`` (S, m): S
    noise values for every row.  Each row's running sums are built once,
    whatever S; cum[k] holds every row's sum of its first k weights.  A
    bound is compared as cum[k] / total, and only the first n-1 are: the
    last is 1, and noise at 1 still selects the last segment.  Returns
    (S, m) segments, weights and preceding sums, and the (m,) totals.
    """
    m, n = a.shape
    cum = np.empty((n + 1, m), dtype=a.dtype)
    cum[0] = 0.0
    for k in range(n):
        np.add(cum[k], a[:, k], out=cum[k + 1])
    total = cum[n]
    idx = (cum[1:n, None] / total <= eps).sum(axis=0)
    rows = np.arange(m)
    return idx, a.reshape(-1)[rows * n + idx], cum.reshape(-1)[idx * m + rows], total


def _inverse_cdf(a: np.ndarray, eps: np.ndarray, segment) -> np.ndarray:
    """Draws idx/n + (total*eps - prev) / (n*a_sel), each clamped to its segment's closure [idx/n, (idx+1)/n].

    The clamp holds a draw in the segment that its noise selected when
    the selected weight is below about one rounding unit of the sum
    before it: total*eps - prev then cancels and can throw z anywhere.
    """
    idx, a_sel, prev, total = segment
    n = a.shape[1]
    lo = idx.astype(a.dtype) / n
    z = np.minimum(np.maximum(lo + (total * eps - prev) / (n * a_sel), lo), (idx + 1).astype(a.dtype) / n)
    return np.where(eps <= 0.0, 0.0, np.where(eps >= 1.0, 1.0, z))


def _sample_grad(a: np.ndarray, eps: np.ndarray, segment) -> np.ndarray:
    """d z / d a as an (n, S, m) array: [:, s, r] is the gradient of row r's draw at eps[s, r], with its active segment's entry scattered in."""
    idx, a_sel, prev, total = segment
    n = a.shape[1]
    denom = n * a_sel
    grad = np.where(np.arange(n)[:, None, None] < idx, (eps - 1.0) / denom, eps / denom)
    grad.reshape(-1)[idx * idx.size + np.arange(idx.size).reshape(idx.shape)] = (eps * (a_sel - total) + prev) / (n * a_sel * a_sel)
    return grad


def mean_rows(a: np.ndarray) -> np.ndarray:
    """Closed-form mean per row: sum_i mass_i * segment midpoint."""
    n = a.shape[1]
    masses = a / a.sum(axis=1, keepdims=True)
    midpoints = ((np.arange(n) + 0.5) / n).astype(a.dtype)
    return masses @ midpoints


# Taped operations used inside models.  Posterior weights are
# (B, dims * pieces) rows, one per document, and the prior's a flat
# (dims * pieces,) vector; both are laid out row major, one group of
# ``pieces`` weights per latent dimension.


def head_forward(raw: Tensor) -> Tensor:
    """Weights a = exp(clamp(raw, -CLAMP, CLAMP)) from pre-activations of any shape.

    The one map from pre-activations to piecewise weights: the prior's
    bias, the amortised posterior's ``W enc + b`` and a refined posterior
    all go through it.
    """
    return exp_clamped(raw, -CLAMP, CLAMP)


def sample_through(a_flat: Tensor, eps: np.ndarray, dims: int, pieces: int) -> Tensor:
    """Inverse-CDF samples for each latent dimension, differentiable in the weights.

    ``a_flat`` is (B, dims*pieces) weight rows and ``eps`` (S*B, dims)
    noise of their dtype: S blocks of B rows, block s holding every row's
    s-th sample; other shapes or dtypes raise ShapeError.  Every (row,
    dimension) pair becomes one row of the core, which reads its weights
    once for all S samples.
    The noise values are captured for the backward rule, which applies
    the exact derivative of the active segment's expression and zero for
    segment selection.  The rule hands the weights one gradient per
    block, the last block's first, so they add up as under S separate
    calls.
    """
    shape = a_flat.data.shape
    eps = np.array(eps)
    _same_dtype("sample_through", a_flat.data, eps)
    rows = shape[0] if len(shape) == 2 else 0
    samples = len(eps) // rows if rows and eps.ndim == 2 else 0
    if shape != (rows, dims * pieces) or samples < 1 or eps.shape != (samples * rows, dims):
        raise ShapeError(f"sample_through: expected (B, {dims * pieces}) weight rows and (S*B, {dims}) noise, got {shape} and {eps.shape}")
    a = a_flat.data.reshape(-1, pieces)
    noise = eps.reshape(samples, -1)
    segment = _active_segment(a, noise)
    z = _inverse_cdf(a, noise, segment).reshape(eps.shape)

    def backward(g):
        grad = g.reshape(samples, -1) * _sample_grad(a, noise, segment)
        return tuple(grad[:, s].T.reshape(shape) for s in reversed(range(samples)))

    return custom_op(z, (a_flat,) * samples, backward)


def kl_between(post_flat: Tensor, prior_flat: Tensor, dims: int, pieces: int) -> Tensor:
    """KL(post || prior) summed over latent dimensions, as a taped value.

    One value per (B, dims*pieces) row of ``post_flat``, against a
    (dims*pieces,) ``prior_flat``, whose gradient is summed over the rows,
    or (B, dims*pieces) rows; other shapes raise ShapeError.  Per latent
    dimension the closed form is (1/n)(1/K_post) sum_i a_i_post (log
    a_i_post - log a_i_prior) + log K_prior - log K_post; the 1/n factors
    cancel against the raw weight sums A = n*K used here.  Rounding can
    take the value of nearly proportional weights below 0, so each
    dimension's value is clamped at 0, and its gradients are 0 where it
    was clamped.  The backward rule reuses the forward's sums and log
    ratios, and defers the prior's gradient until the tape needs it.
    """
    shape, prior_shape = post_flat.data.shape, prior_flat.data.shape
    if len(shape) != 2 or shape[1] != dims * pieces or prior_shape not in (shape, shape[1:]):
        raise ShapeError(f"kl_between: expected (B, {dims * pieces}) posterior rows and a ({dims * pieces},) or (B, {dims * pieces}) prior, got {shape} and {prior_shape}")
    _same_dtype("kl_between", post_flat.data, prior_flat.data)
    post = post_flat.data.reshape(-1, dims, pieces)
    prior = prior_flat.data.reshape(prior_shape[:-1] + (dims, pieces))
    a_post_sum = post.sum(axis=-1, keepdims=True)
    a_prior_sum = prior.sum(axis=-1, keepdims=True)
    log_ratio = np.log(post) - np.log(prior)
    s = np.sum(post * log_ratio, axis=-1, keepdims=True)
    unclamped = s / a_post_sum + np.log(a_prior_sum) - np.log(a_post_sum)
    value = np.maximum(unclamped[:, :, 0], 0.0).sum(axis=1)

    def backward(g):
        scale = g[:, None, None]
        clamped = unclamped < 0.0
        d_post = (log_ratio + 1.0) / a_post_sum - s / (a_post_sum**2) - 1.0 / a_post_sum

        def d_prior(out=None):
            grad = -post / (a_post_sum * prior) + 1.0 / a_prior_sum
            return _unbroadcast((scale * np.where(clamped, 0.0, grad)).reshape(shape), prior_shape)

        return (scale * np.where(clamped, 0.0, d_post)).reshape(shape), d_prior

    return custom_op(value, (post_flat, prior_flat), backward)
