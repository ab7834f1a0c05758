"""Piecewise constant distributions on [0, 1].

A distribution with n equal-width segments and positive weights a_1..a_n
has density a_i / K on segment i, where K_i = a_i / n and K = sum_i K_i,
so the density integrates to exactly 1.  Segments are half open,
[(i-1)/n, i/n), with the last segment closed at 1.  The module provides
the density, CDF, closed-form inverse CDF (for inverse transform
sampling), the closed-form KL divergence between two such distributions,
and exact pathwise derivatives of samples with respect to the weights.

Derivatives of the segment-selection indicators are fixed to zero: the
probability of drawing a value exactly at a changing point is zero, so
only the active segment's expression is differentiated.  A noise value
landing exactly on a cumulative-mass boundary selects the right-adjacent
segment, consistent with the half-open convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _unbroadcast, affine, custom_op, exp_clamped

__all__ = [
    "DomainError",
    "PiecewiseParams",
    "PiecewiseHead",
    "pdf",
    "cdf",
    "inverse_cdf",
    "sample",
    "sample_grad",
    "kl",
    "kl_grad",
    "mean",
    "shift_to_signed",
    "head_forward",
    "sample_through",
    "kl_between",
    "CLAMP",
]

# Pre-exponential clamp for weight heads; prevents overflow while leaving
# training-scale values untouched.
CLAMP = 30.0


class DomainError(ValueError):
    """Argument outside the distribution's [0, 1] support."""


@dataclass(frozen=True)
class PiecewiseParams:
    """Weights of one piecewise constant variable (n = len(a) segments)."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.array(self.a, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"PiecewiseParams: need a vector of at least 2 weights, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("PiecewiseParams: weights must be finite and strictly positive")
        arr.flags.writeable = False
        object.__setattr__(self, "a", arr)

    @property
    def n(self) -> int:
        return self.a.size

    @property
    def normalizer(self) -> float:
        """K = sum_i a_i / n."""
        return float(self.a.sum() / self.n)


def _check_unit(value: float, name: str) -> float:
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {v}")
    return v


# Row-vectorised core: `a` has shape (d, n), one distribution per row.


def _segment_of_z(z: np.ndarray, n: int) -> np.ndarray:
    return np.minimum((z * n).astype(np.int64), n - 1)


def pdf_rows(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    d, n = a.shape
    idx = _segment_of_z(z, n)
    total = a.sum(axis=1)
    return n * a[np.arange(d), idx] / total


def cdf_rows(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    d, n = a.shape
    idx = _segment_of_z(z, n)
    cum = np.cumsum(a, axis=1)
    total = cum[:, -1]
    rows = np.arange(d)
    prev = np.where(idx > 0, cum[rows, np.maximum(idx - 1, 0)], 0.0)
    val = (prev + n * (z - idx / n) * a[rows, idx]) / total
    return np.where(z >= 1.0, 1.0, np.where(z <= 0.0, 0.0, val))


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


def inverse_cdf_rows(a: np.ndarray, eps: np.ndarray) -> np.ndarray:
    return _inverse_cdf(a, eps, _active_segment(a, eps))


def sample_grad_rows(a: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """d z / d a_k for z = inverse_cdf(a, eps) with eps held fixed, per row."""
    return _sample_grad(a, eps, _active_segment(a, eps))


def kl_rows(post: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """KL(post || prior) per row; weights lie along the last axis.

    The prior broadcasts against the posterior, as (d, n) against
    (B, d, n).  Closed form: (1/n)(1/K_post) sum_i a_i_post (log a_i_post -
    log a_i_prior) + log K_prior - log K_post.  The 1/n factors cancel
    against the raw weight sums A = n*K used below.
    """
    a_post_sum = post.sum(axis=-1)
    a_prior_sum = prior.sum(axis=-1)
    s = np.sum(post * (np.log(post) - np.log(prior)), axis=-1)
    v = s / a_post_sum + np.log(a_prior_sum) - np.log(a_post_sum)
    return np.maximum(v, 0.0)


def kl_grad_rows(post: np.ndarray, prior: np.ndarray):
    a_post_sum = post.sum(axis=-1, keepdims=True)
    a_prior_sum = prior.sum(axis=-1, keepdims=True)
    s = np.sum(post * (np.log(post) - np.log(prior)), axis=-1, keepdims=True)
    d_post = (np.log(post) - np.log(prior) + 1.0) / a_post_sum - s / (a_post_sum**2) - 1.0 / a_post_sum
    d_prior = -post / (a_post_sum * prior) + 1.0 / a_prior_sum
    return d_post, d_prior


def mean_rows(a: np.ndarray) -> np.ndarray:
    """Closed-form mean per row: sum_i mass_i * segment midpoint."""
    n = a.shape[1]
    masses = a / a.sum(axis=1, keepdims=True)
    midpoints = (np.arange(n) + 0.5) / n
    return masses @ midpoints


# Scalar API over PiecewiseParams.


def pdf(p: PiecewiseParams, z: float) -> float:
    z = _check_unit(z, "z")
    return float(pdf_rows(p.a[None, :], np.array([z]))[0])


def cdf(p: PiecewiseParams, z: float) -> float:
    z = _check_unit(z, "z")
    return float(cdf_rows(p.a[None, :], np.array([z]))[0])


def inverse_cdf(p: PiecewiseParams, eps: float) -> float:
    eps = _check_unit(eps, "eps")
    return float(inverse_cdf_rows(p.a[None, :], np.array([eps]))[0])


def sample(p: PiecewiseParams, rng: np.random.Generator) -> float:
    """Inverse transform sample: draw eps ~ Uniform(0,1), map through the inverse CDF."""
    return inverse_cdf(p, float(rng.random()))


def sample_grad(p: PiecewiseParams, eps: float) -> np.ndarray:
    eps = _check_unit(eps, "eps")
    return sample_grad_rows(p.a[None, :], np.array([eps]))[0]


def _check_same_n(post: PiecewiseParams, prior: PiecewiseParams) -> None:
    if post.n != prior.n:
        raise ValueError(f"kl: piece counts differ ({post.n} vs {prior.n})")


def kl(post: PiecewiseParams, prior: PiecewiseParams) -> float:
    _check_same_n(post, prior)
    return float(kl_rows(post.a[None, :], prior.a[None, :])[0])


def kl_grad(post: PiecewiseParams, prior: PiecewiseParams):
    _check_same_n(post, prior)
    d_post, d_prior = kl_grad_rows(post.a[None, :], prior.a[None, :])
    return d_post[0], d_prior[0]


def mean(p: PiecewiseParams) -> float:
    return float(mean_rows(p.a[None, :])[0])


def shift_to_signed(z):
    """Map [0, 1] samples onto [-1, 1]: z' = 2z - 1.

    Applied to samples before they enter the decoder; KL terms stay on the
    unshifted parametrisation.
    """
    return 2.0 * np.asarray(z, dtype=np.float64) - 1.0 if np.ndim(z) else 2.0 * float(z) - 1.0


# Taped operations used inside models.  Weight tensors are flat
# (dims * pieces,) vectors laid out row major, one row per latent
# dimension.


@dataclass
class PiecewiseHead:
    """Linear-exponential map from an encoding to per-dimension weights.

    ``weight`` may be None for heads conditioned on nothing, in which case
    the weights come from the bias alone.
    """

    weight: Tensor | None
    bias: Tensor
    dims: int
    pieces: int


def head_forward(head: PiecewiseHead, enc: Tensor | None = None) -> Tensor:
    """Weights a = exp(clamp(W enc + b)) as a flat (dims*pieces,) tensor."""
    if head.weight is None or enc is None:
        if head.weight is not None:
            raise ValueError("head_forward: head has a weight matrix but no encoding was given")
        raw = head.bias
    else:
        raw = affine(enc, head.weight, head.bias)
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
