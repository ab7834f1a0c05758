"""Diagonal Gaussian latent variables with a learned prior and gated posterior.

Every Gaussian is held as pre-activations (mu, raw_sigma); ``from_raw``
maps them to mean mu and variance softplus(raw_sigma) + floor, positive by
construction.  The prior's pre-activations are two bias vectors.  The
posterior's interpolate them with estimates from the encoding through
gate vectors that start at zero, so an untrained posterior equals the
prior exactly.  Gates are used raw, since squashing them would break that
identity, and act before the softplus, so no gate value can make a
variance <= 0.  Samples are reparametrised, z = mu + sqrt(var) * eps, for
noise eps drawn by the caller.

Priors are (G,) vectors and posteriors (B, G) rows, one per document,
a single document being a (1, G) row; the prior biases and the gates
are broadcast against the rows.

``kl`` is one taped op in closed form (Kingma & Welling,
arXiv:1312.6114).  Its backward rule writes out the chain rule of the
elementwise expression in the order its terms would accumulate as
separate taped ops, so it is bit-identical to them, and it defers the
prior's gradients: a prior built outside the tape costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, _unbroadcast, add, affine, custom_op, mul, scale_shift, softplus, sqrt

__all__ = ["GaussianParams", "GaussianHead", "VAR_FLOOR", "from_raw", "prior_forward", "posterior_forward", "sample_with_noise", "kl"]

# Added after the softplus; keeps KL terms away from log(0).
VAR_FLOOR = 1e-8


@dataclass(frozen=True)
class GaussianParams:
    """Mean and (diagonal) variance of one Gaussian, or of one per row.

    Shapes that differ raise ShapeError; variances that are not finite and
    positive raise a plain ValueError, which callers read as overflow.
    """

    mu: Tensor
    var: Tensor

    def __post_init__(self):
        if self.mu.data.shape != self.var.data.shape:
            raise ShapeError(f"GaussianParams: mu shape {self.mu.data.shape} != var shape {self.var.data.shape}")
        if not np.all(self.var.data > 0.0) or not np.all(np.isfinite(self.var.data)):
            raise ValueError("GaussianParams: variances must be finite and strictly positive")


@dataclass
class GaussianHead:
    """Prior biases, posterior parameter maps and the posterior gate vectors.

    Gates ``alpha_mu`` and ``alpha_sigma`` are initialised to zero.
    """

    prior_b_mu: Tensor
    prior_b_sigma: Tensor
    post_w_mu: Tensor
    post_b_mu: Tensor
    post_w_sigma: Tensor
    post_b_sigma: Tensor
    alpha_mu: Tensor
    alpha_sigma: Tensor


def from_raw(mu: Tensor, raw_sigma: Tensor) -> GaussianParams:
    """Gaussian parameters from pre-activations: mean mu, var = softplus(raw_sigma) + floor."""
    return GaussianParams(mu=mu, var=softplus(raw_sigma) + VAR_FLOOR)


def prior_forward(head: GaussianHead) -> GaussianParams:
    """Prior mean and variance, from the pre-activations (b_mu, b_sigma)."""
    return from_raw(head.prior_b_mu, head.prior_b_sigma)


def posterior_forward(head: GaussianHead, enc: Tensor) -> tuple[Tensor, Tensor]:
    """Posterior pre-activations (mu, raw_sigma): gated interpolation of the prior's and the encoder's.

    mu = (1 - alpha_mu) * b_mu_prior + alpha_mu * (W_mu enc + b_mu), and
    raw_sigma = (1 - alpha_sigma) * b_sigma_prior + alpha_sigma * (W_sigma enc + b_sigma);
    ``from_raw`` maps them to the posterior.  With zero gates the
    posterior is the prior bit for bit; with unit gates it ignores the
    prior biases.
    """
    mu_hat = affine(enc, head.post_w_mu, head.post_b_mu)
    sigma_hat = affine(enc, head.post_w_sigma, head.post_b_sigma)
    keep_mu = scale_shift(head.alpha_mu, -1.0, 1.0)
    keep_sigma = scale_shift(head.alpha_sigma, -1.0, 1.0)
    mu = add(mul(keep_mu, head.prior_b_mu), mul(head.alpha_mu, mu_hat))
    raw_sigma = add(mul(keep_sigma, head.prior_b_sigma), mul(head.alpha_sigma, sigma_hat))
    return mu, raw_sigma


def sample_with_noise(g: GaussianParams, eps: np.ndarray) -> Tensor:
    """Reparametrised sample z = mu + sqrt(var) * eps for fixed noise eps of the same shape."""
    return add(g.mu, mul(sqrt(g.var), Tensor(eps)))


def kl(post: GaussianParams, prior: GaussianParams) -> Tensor:
    """Closed-form KL(post || prior) for diagonal Gaussians, as one taped op.

    One value per (B, G) row of ``post``, against a (G,) or (B, G) prior;
    other shapes raise ShapeError:

    sum_d [ 0.5 log(var_prior/var_post)
            + (var_post + (mu_post - mu_prior)^2) / (2 var_prior) - 0.5 ]
    """
    mu_q, var_q, mu_p, var_p = post.mu.data, post.var.data, prior.mu.data, prior.var.data
    # Means and variances share a shape, so every term has the shape of the posterior rows.
    if mu_q.ndim != 2 or mu_p.shape not in (mu_q.shape, mu_q.shape[1:]):
        raise ShapeError(f"kl: expected (B, G) posterior rows and a (G,) or (B, G) prior, got {mu_q.shape} and {mu_p.shape}")
    dmu = mu_q - mu_p
    num = var_q + dmu * dmu
    den = 2.0 * var_p
    terms = 0.5 * (np.log(var_p) - np.log(var_q)) + num / den - 0.5

    def backward(g):
        g_terms = g[:, None] * np.ones_like(terms)
        g_num = g_terms / den
        g_sq = g_num * dmu
        g_half = g_terms * 0.5

        def g_mu_p():
            return _unbroadcast(-(g_sq + g_sq), mu_p.shape)

        def g_var_p():
            return _unbroadcast(-g_terms * num / (den * den), var_p.shape) * 2.0 + _unbroadcast(g_half, var_p.shape) / var_p

        g_var_q = _unbroadcast(g_num, var_q.shape) + _unbroadcast(-g_half, var_q.shape) / var_q
        return _unbroadcast(g_sq + g_sq, mu_q.shape), g_var_q, g_mu_p, g_var_p

    return custom_op(terms.sum(axis=1), (post.mu, post.var, prior.mu, prior.var), backward)
