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

Priors are (G,) vectors; posteriors are (G,) for one document or (B, G)
rows for a batch, against which the prior biases and the gates are
broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, add, affine, log, mul, scale_shift, softplus, sqrt, sum_last

__all__ = ["GaussianParams", "GaussianHead", "VAR_FLOOR", "from_raw", "prior_forward", "posterior_forward", "sample_with_noise", "kl"]

# Added after the softplus; keeps KL terms away from log(0).
VAR_FLOOR = 1e-8


@dataclass(frozen=True)
class GaussianParams:
    """Mean and (diagonal) variance of one Gaussian, or of one per row."""

    mu: Tensor
    var: Tensor

    def __post_init__(self):
        if self.mu.data.shape != self.var.data.shape:
            raise ValueError(f"GaussianParams: mu shape {self.mu.data.shape} != var shape {self.var.data.shape}")
        if not np.all(self.var.data > 0.0) or not np.all(np.isfinite(self.var.data)):
            raise ValueError("GaussianParams: variances must be finite and strictly positive")

    @property
    def dim(self) -> int:
        return self.mu.data.shape[-1]


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
    """Closed-form KL(post || prior) for diagonal Gaussians, as a taped value.

    A scalar for vector parameters, one value per row for (B, G) rows:

    sum_d [ 0.5 log(var_prior/var_post)
            + (var_post + (mu_post - mu_prior)^2) / (2 var_prior) - 0.5 ]
    """
    if post.dim != prior.dim:
        raise ValueError(f"kl: dimensions differ ({post.dim} vs {prior.dim})")
    dmu = post.mu - prior.mu
    terms = 0.5 * (log(prior.var) - log(post.var)) + (post.var + dmu * dmu) / (2.0 * prior.var) - 0.5
    return sum_last(terms)
