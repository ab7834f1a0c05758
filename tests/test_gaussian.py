"""Gaussian latent parametrisation: gating, sampling, and closed-form KL."""

import numpy as np
import pytest

from pwvae import gaussian as ga
from pwvae import tensor as T

from gradcheck import max_rel_err, numerical_grad


def make_head(rng, dim, enc_dim):
    return ga.GaussianHead(
        prior_b_mu=T.Tensor(rng.normal(size=dim) * 0.5),
        prior_b_sigma=T.Tensor(rng.normal(size=dim) * 0.5),
        post_w_mu=T.Tensor(rng.normal(size=(dim, enc_dim))),
        post_b_mu=T.Tensor(rng.normal(size=dim) * 0.1),
        post_w_sigma=T.Tensor(rng.normal(size=(dim, enc_dim))),
        post_b_sigma=T.Tensor(rng.normal(size=dim) * 0.1),
        alpha_mu=T.Tensor(rng.normal(size=dim) * 0.3),
        alpha_sigma=T.Tensor(rng.normal(size=dim) * 0.3),
    )


def zero_gate_head(rng, dim, enc_dim):
    head = make_head(rng, dim, enc_dim)
    head.alpha_mu = T.Tensor(np.zeros(dim))
    head.alpha_sigma = T.Tensor(np.zeros(dim))
    return head


def params(mu, var):
    return ga.GaussianParams(mu=T.Tensor(mu), var=T.Tensor(var))


class TestPriorForward:
    def test_zero_bias_empty_conditioning(self):
        head = zero_gate_head(np.random.default_rng(0), 3, 2)
        head.prior_b_mu = T.Tensor(np.zeros(3))
        head.prior_b_sigma = T.Tensor(np.zeros(3))
        prior = ga.prior_forward(head)
        np.testing.assert_array_equal(prior.mu.data, np.zeros(3))
        np.testing.assert_allclose(prior.var.data, np.log(2.0) + 1e-8, rtol=0, atol=1e-18)

    def test_variance_strictly_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            head = make_head(rng, 4, 2)
            assert np.all(ga.prior_forward(head).var.data > 0)

    def test_gradient_through_prior(self):
        rng = np.random.default_rng(2)
        b_sigma = rng.normal(size=3)

        def f(arr):
            head = zero_gate_head(np.random.default_rng(2), 3, 2)
            head.prior_b_sigma = T.Tensor(arr)
            prior = ga.prior_forward(head)
            return float(T.sum_all(prior.var))

        head = zero_gate_head(np.random.default_rng(2), 3, 2)
        t = T.Tensor(b_sigma)
        head.prior_b_sigma = t
        with T.Tape() as tape:
            tape.backward(T.sum_all(ga.prior_forward(head).var))
        assert max_rel_err(tape.grad(t), numerical_grad(f, b_sigma)) < 1e-6


class TestPosteriorForward:
    def test_zero_gate_posterior_equals_prior_bitwise(self):
        rng = np.random.default_rng(3)
        head = zero_gate_head(rng, 5, 3)
        prior = ga.prior_forward(head)
        post = ga.posterior_forward(head, prior, T.Tensor(rng.normal(size=3)))
        np.testing.assert_array_equal(post.mu.data, prior.mu.data)
        np.testing.assert_array_equal(post.var.data, prior.var.data)

    def test_unit_gate_ignores_prior(self):
        rng = np.random.default_rng(4)
        head = make_head(rng, 4, 3)
        head.alpha_mu = T.Tensor(np.ones(4))
        head.alpha_sigma = T.Tensor(np.ones(4))
        enc = T.Tensor(rng.normal(size=3))
        prior_a = ga.prior_forward(head)
        shifted = ga.GaussianParams(mu=prior_a.mu + 100.0, var=prior_a.var * 7.0)
        post_a = ga.posterior_forward(head, prior_a, enc)
        post_b = ga.posterior_forward(head, shifted, enc)
        np.testing.assert_array_equal(post_a.mu.data, post_b.mu.data)
        np.testing.assert_array_equal(post_a.var.data, post_b.var.data)

    def test_gradient_through_gate_path(self):
        rng = np.random.default_rng(5)
        dim, enc_dim = 3, 2
        enc_arr = rng.normal(size=enc_dim)
        alpha = rng.normal(size=dim) * 0.4

        def bound(alpha_arr):
            head = make_head(np.random.default_rng(5), dim, enc_dim)
            head.alpha_mu = T.Tensor(alpha_arr)
            prior = ga.prior_forward(head)
            post = ga.posterior_forward(head, prior, T.Tensor(enc_arr))
            return float(T.sum_all(post.mu) + T.sum_all(post.var))

        head = make_head(np.random.default_rng(5), dim, enc_dim)
        alpha_t = T.Tensor(alpha)
        head.alpha_mu = alpha_t
        with T.Tape() as tape:
            prior = ga.prior_forward(head)
            post = ga.posterior_forward(head, prior, T.Tensor(enc_arr))
            tape.backward(T.add(T.sum_all(post.mu), T.sum_all(post.var)))
        assert max_rel_err(tape.grad(alpha_t), numerical_grad(bound, alpha)) < 1e-6


class TestSampling:
    def test_floor_variance_concentrates_on_mean(self):
        mu = np.array([1.5, -2.0])
        g = params(mu, np.full(2, ga.VAR_FLOOR))
        rng = np.random.default_rng(6)
        draws = np.stack([ga.sample_with_noise(g, rng.standard_normal(2)).data for _ in range(200)])
        assert np.max(np.abs(draws - mu)) < 1e-3

    def test_standard_normal_moments(self):
        g = params(np.zeros(1), np.ones(1))
        rng = np.random.default_rng(7)
        draws = np.concatenate([ga.sample_with_noise(g, rng.standard_normal(1)).data for _ in range(100_000)])
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.02

    def test_fixed_seed_reproducible(self):
        g = params(np.array([0.3]), np.array([2.0]))
        a = [float(ga.sample_with_noise(g, np.random.default_rng(8).standard_normal(1)).data[0]) for _ in range(3)]
        b = [float(ga.sample_with_noise(g, np.random.default_rng(8).standard_normal(1)).data[0]) for _ in range(3)]
        assert a == b

    def test_reparametrised_gradients(self):
        rng = np.random.default_rng(9)
        mu = rng.normal(size=3)
        var = np.exp(rng.normal(size=3))
        eps = rng.standard_normal(3)
        with T.Tape() as tape:
            g = params(mu, var)
            z = ga.sample_with_noise(g, eps)
            tape.backward(T.sum_all(z))
        # d E[z] / d mu is exactly one.
        np.testing.assert_array_equal(tape.grad(g.mu), np.ones(3))
        num = numerical_grad(lambda v: float(np.sum(mu + np.sqrt(v) * eps)), var)
        assert max_rel_err(tape.grad(g.var), num) < 1e-6


class TestKl:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(10)
        g = params(rng.normal(size=4), np.exp(rng.normal(size=4)))
        assert float(ga.kl(g, g)) == 0.0

    def test_unit_shift_is_half(self):
        post = params(np.array([1.0]), np.array([1.0]))
        prior = params(np.array([0.0]), np.array([1.0]))
        assert float(ga.kl(post, prior)) == pytest.approx(0.5, abs=1e-15)

    def test_non_negative_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            post = params(rng.normal(size=d), np.exp(rng.normal(size=d)))
            prior = params(rng.normal(size=d), np.exp(rng.normal(size=d)))
            assert float(ga.kl(post, prior)) >= 0.0

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(12)
        post = params(rng.normal(size=3), np.exp(rng.normal(size=3) * 0.5))
        prior = params(rng.normal(size=3), np.exp(rng.normal(size=3) * 0.5))
        n = 1_000_000
        z = post.mu.data + np.sqrt(post.var.data) * rng.standard_normal((n, 3))

        def logpdf(z_arr, g):
            return -0.5 * np.sum((z_arr - g.mu.data) ** 2 / g.var.data + np.log(2 * np.pi * g.var.data), axis=1)

        diffs = logpdf(z, post) - logpdf(z, prior)
        se = diffs.std() / np.sqrt(n)
        assert abs(float(ga.kl(post, prior)) - diffs.mean()) < 3 * se

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            ga.kl(params(np.zeros(2), np.ones(2)), params(np.zeros(3), np.ones(3)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        mu_p, var_p = rng.normal(size=3), np.exp(rng.normal(size=3))
        mu_q, var_q = rng.normal(size=3), np.exp(rng.normal(size=3))
        with T.Tape() as tape:
            post = params(mu_q, var_q)
            prior = params(mu_p, var_p)
            tape.backward(ga.kl(post, prior))
        for tensor, arr, which in ((post.mu, mu_q, "mu_q"), (post.var, var_q, "var_q"), (prior.mu, mu_p, "mu_p"), (prior.var, var_p, "var_p")):
            def f(a):
                q = params(a if which == "mu_q" else mu_q, a if which == "var_q" else var_q)
                p = params(a if which == "mu_p" else mu_p, a if which == "var_p" else var_p)
                return float(ga.kl(q, p))

            assert max_rel_err(tape.grad(tensor), numerical_grad(f, arr)) < 1e-6, which

    def test_kl_gradient_at_identity_is_zero(self):
        rng = np.random.default_rng(14)
        mu, var = rng.normal(size=3), np.exp(rng.normal(size=3))
        with T.Tape() as tape:
            post = params(mu, var)
            prior = params(mu.copy(), var.copy())
            tape.backward(ga.kl(post, prior))
        np.testing.assert_allclose(tape.grad(post.mu), 0.0, atol=1e-14)
        np.testing.assert_allclose(tape.grad(post.var), 0.0, atol=1e-14)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ga.GaussianParams(mu=T.Tensor([0.0]), var=T.Tensor([0.0]))
        with pytest.raises(ValueError):
            ga.GaussianParams(mu=T.Tensor([0.0, 1.0]), var=T.Tensor([1.0]))
