"""Gaussian latent parametrisation: gating, sampling, and closed-form KL."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pwvae import gaussian as ga
from pwvae import tensor as T

from gaussian_oracle import kl as oracle_kl
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


def posterior(head, enc):
    return ga.from_raw(*ga.posterior_forward(head, enc))


class TestPosteriorForward:
    def test_zero_gate_posterior_equals_prior_bitwise(self):
        rng = np.random.default_rng(3)
        head = zero_gate_head(rng, 5, 3)
        prior = ga.prior_forward(head)
        post = posterior(head, T.Tensor(rng.normal(size=(1, 3))))
        np.testing.assert_array_equal(post.mu.data, prior.mu.data[None])
        np.testing.assert_array_equal(post.var.data, prior.var.data[None])

    def test_unit_gate_ignores_prior(self):
        rng = np.random.default_rng(4)
        head = make_head(rng, 4, 3)
        head.alpha_mu = T.Tensor(np.ones(4))
        head.alpha_sigma = T.Tensor(np.ones(4))
        enc = T.Tensor(rng.normal(size=(1, 3)))
        post_a = posterior(head, enc)
        head.prior_b_mu = head.prior_b_mu + 100.0
        head.prior_b_sigma = head.prior_b_sigma * 7.0
        post_b = posterior(head, enc)
        np.testing.assert_array_equal(post_a.mu.data, post_b.mu.data)
        np.testing.assert_array_equal(post_a.var.data, post_b.var.data)

    def test_gradient_through_gate_path(self):
        assert gate_gradient_error("alpha_mu") < 1e-6

    def test_gradient_through_sigma_gate_before_the_softplus(self):
        assert gate_gradient_error("alpha_sigma") < 1e-6


def gate_gradient_error(gate):
    """Relative error of the taped gradient of sum(mu) + sum(var) in one gate vector."""
    rng = np.random.default_rng(5)
    dim, enc_dim = 3, 2
    enc_arr = rng.normal(size=(1, enc_dim))
    alpha = rng.normal(size=dim) * 0.4

    def bound(alpha_arr):
        head = make_head(np.random.default_rng(5), dim, enc_dim)
        setattr(head, gate, T.Tensor(alpha_arr))
        post = posterior(head, T.Tensor(enc_arr))
        return float(T.sum_all(post.mu) + T.sum_all(post.var))

    head = make_head(np.random.default_rng(5), dim, enc_dim)
    alpha_t = T.Tensor(alpha)
    setattr(head, gate, alpha_t)
    with T.Tape() as tape:
        post = posterior(head, T.Tensor(enc_arr))
        tape.backward(T.add(T.sum_all(post.mu), T.sum_all(post.var)))
    return max_rel_err(tape.grad(alpha_t), numerical_grad(bound, alpha))


@st.composite
def gated_heads(draw):
    """A random head with both gates anywhere in [-10, 10], and (B, H) encodings."""
    dim, enc_dim, rows = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    head = make_head(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), dim, enc_dim)
    gates = hnp.arrays(np.float64, dim, elements=st.floats(-10.0, 10.0))
    head.alpha_mu = T.Tensor(draw(gates))
    head.alpha_sigma = T.Tensor(draw(gates))
    enc = draw(hnp.arrays(np.float64, (rows, enc_dim), elements=st.floats(-10.0, 10.0)))
    return head, enc


@settings(derandomize=True, deadline=None, database=None)
@given(gated_heads())
def test_posterior_variance_is_positive_for_any_gate(case):
    head, enc = case
    var = posterior(head, T.Tensor(enc)).var.data
    assert np.all(np.isfinite(var)) and np.all(var > 0.0)


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
        g = params(rng.normal(size=(1, 4)), np.exp(rng.normal(size=(1, 4))))
        assert float(ga.kl(g, g)) == 0.0

    def test_unit_shift_is_half(self):
        post = params(np.array([[1.0]]), np.array([[1.0]]))
        prior = params(np.array([0.0]), np.array([1.0]))
        assert float(ga.kl(post, prior)) == pytest.approx(0.5, abs=1e-15)

    def test_non_negative_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            post = params(rng.normal(size=(1, d)), np.exp(rng.normal(size=(1, d))))
            prior = params(rng.normal(size=d), np.exp(rng.normal(size=d)))
            assert float(ga.kl(post, prior)) >= 0.0

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(12)
        post = params(rng.normal(size=(1, 3)), np.exp(rng.normal(size=(1, 3)) * 0.5))
        prior = params(rng.normal(size=3), np.exp(rng.normal(size=3) * 0.5))
        n = 1_000_000
        z = post.mu.data + np.sqrt(post.var.data) * rng.standard_normal((n, 3))

        def logpdf(z_arr, g):
            return -0.5 * np.sum((z_arr - g.mu.data) ** 2 / g.var.data + np.log(2 * np.pi * g.var.data), axis=1)

        diffs = logpdf(z, post) - logpdf(z, prior)
        se = diffs.std() / np.sqrt(n)
        assert abs(float(ga.kl(post, prior)) - diffs.mean()) < 3 * se

    def test_dimension_mismatch(self):
        with pytest.raises(T.ShapeError, match=r"\(B, G\).*\(1, 2\) and \(3,\)"):
            ga.kl(params(np.zeros((1, 2)), np.ones((1, 2))), params(np.zeros(3), np.ones(3)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        mu_p, var_p = rng.normal(size=3), np.exp(rng.normal(size=3))
        mu_q, var_q = rng.normal(size=(1, 3)), np.exp(rng.normal(size=(1, 3)))
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
        mu, var = rng.normal(size=(1, 3)), np.exp(rng.normal(size=(1, 3)))
        with T.Tape() as tape:
            post = params(mu, var)
            prior = params(mu[0].copy(), var[0].copy())
            tape.backward(ga.kl(post, prior))
        np.testing.assert_allclose(tape.grad(post.mu), 0.0, atol=1e-14)
        np.testing.assert_allclose(tape.grad(post.var), 0.0, atol=1e-14)

    def test_row_gradients_match_finite_differences(self):
        """(B, G) posterior rows against a broadcast (G,) prior, each row's KL weighted differently."""
        rng = np.random.default_rng(15)
        arrays = [rng.normal(size=(3, 4)), np.exp(rng.normal(size=(3, 4))), rng.normal(size=4), np.exp(rng.normal(size=4))]
        weights = rng.normal(size=3) + 2.0

        def weighted(a):
            post, prior = params(a[0], a[1]), params(a[2], a[3])
            return post, prior, T.sum_all(T.mul(ga.kl(post, prior), T.Tensor(weights)))

        with T.Tape() as tape:
            post, prior, total = weighted(arrays)
            tape.backward(total)
        for i, tensor in enumerate((post.mu, post.var, prior.mu, prior.var)):

            def f(a, i=i):
                return float(weighted(arrays[:i] + [a] + arrays[i + 1 :])[2])

            assert max_rel_err(tape.grad(tensor), numerical_grad(f, arrays[i])) < 1e-6, i

    def test_params_validation(self):
        # A variance that is not positive is the overflow signal, a plain ValueError; a shape mismatch is a ShapeError.
        with pytest.raises(ValueError) as info:
            ga.GaussianParams(mu=T.Tensor([0.0]), var=T.Tensor([0.0]))
        assert type(info.value) is ValueError
        with pytest.raises(T.ShapeError):
            ga.GaussianParams(mu=T.Tensor([0.0, 1.0]), var=T.Tensor([1.0]))


def assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


def kl_through_the_head(kl_fn, enc_shape):
    """A weighted KL of the gated posterior against its own prior: its value, the gradients of its four inputs, and those of every head array and the encoding.

    The prior mean ``prior_b_mu`` also feeds the posterior mean, as in a model.
    """
    rng = np.random.default_rng(16)
    head = make_head(rng, 5, 3)
    enc = T.Tensor(rng.normal(size=enc_shape))
    weights = T.Tensor(rng.normal(size=enc_shape[:-1]) + 2.0)
    with T.Tape() as tape:
        post, prior = posterior(head, enc), ga.prior_forward(head)
        value = kl_fn(post, prior)
        tape.backward(T.sum_all(T.mul(value, weights)))
    inputs = (post.mu, post.var, prior.mu, prior.var)
    return value.data, [tape.grad(t) for t in inputs + tuple(vars(head).values()) + (enc,)]


@pytest.mark.parametrize("enc_shape", [(1, 3), (6, 3)])
def test_kl_op_is_bit_identical_to_the_elementwise_chain(enc_shape):
    """One (1, G) posterior row or (B, G) rows against a (G,) prior: value and all gradients, bit for bit."""
    value, grads = kl_through_the_head(ga.kl, enc_shape)
    expected_value, expected_grads = kl_through_the_head(oracle_kl, enc_shape)
    assert value.shape == enc_shape[:-1]
    assert_bits_equal(value, expected_value)
    for grad, expected in zip(grads, expected_grads):
        assert_bits_equal(grad, expected)
    assert np.any(grads[2] != 0.0)
