"""Closed-form piecewise distribution against independent numerical oracles."""

import itertools

import numpy as np
import pytest

from pwvae import piecewise as pw
from pwvae import tensor as T

from gradcheck import max_rel_err, numerical_grad
from piecewise_oracle import cdf_rows, draw_grad_rows, draw_rows


def random_params(rng, n):
    return np.exp(rng.uniform(-2.0, 2.0, size=n))


def at(fn, a, x):
    """Row function ``fn`` for the single distribution ``a`` at the point, noise or prior ``x``."""
    return fn(np.asarray(a, dtype=np.float64)[None, :], np.array([x], dtype=np.float64))[0]


def kl_grad(post, prior):
    d_post, d_prior = pw.kl_grad_rows(post[None, :], prior[None, :])
    return d_post[0], d_prior[0]


def aligned_grid(n, target):
    """Midpoint grid whose size is a multiple of n, so no point sits on a boundary."""
    per = max(1, target // n)
    m = per * n
    return (np.arange(m) + 0.5) / m, m


def quadrature_pdf_mass(a, target=10_000):
    grid, m = aligned_grid(a.size, target)
    vals = pw.pdf_rows(np.tile(a, (m, 1)), grid)
    return vals.sum() / m


def quadrature_kl(post, prior, target=100_000):
    grid, m = aligned_grid(post.size, target)
    q = pw.pdf_rows(np.tile(post, (m, 1)), grid)
    r = pw.pdf_rows(np.tile(prior, (m, 1)), grid)
    return float(np.sum(q * np.log(q / r)) / m)


def bisect_inverse_cdf(a, eps, iters=80):
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if at(cdf_rows, a, mid) < eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ks_uniform(samples):
    s = np.sort(samples)
    n = len(s)
    i = np.arange(1, n + 1)
    return max(float(np.max(i / n - s)), float(np.max(s - (i - 1) / n)))


class TestDensity:
    def test_uniform_density(self):
        assert at(pw.pdf_rows, [1.0, 1.0], 0.3) == 1.0

    def test_hand_integrated_density(self):
        a = [1.0, 3.0]
        assert at(pw.pdf_rows, a, 0.25) == pytest.approx(0.5, abs=1e-15)
        assert at(pw.pdf_rows, a, 0.75) == pytest.approx(1.5, abs=1e-15)

    def test_mass_integrates_to_one(self):
        rng = np.random.default_rng(100)
        for n in (2, 3, 5, 10):
            for _ in range(25):
                a = random_params(rng, n)
                assert abs(quadrature_pdf_mass(a) - 1.0) < 1e-8


class TestCdf:
    def test_uniform_cdf_is_identity(self):
        for z in np.linspace(0, 1, 17):
            assert at(cdf_rows, [1.0, 1.0], float(z)) == pytest.approx(z, abs=1e-15)

    def test_hand_integrated_cdf(self):
        a = [1.0, 3.0]
        assert at(cdf_rows, a, 0.5) == pytest.approx(0.25, abs=1e-15)
        assert at(cdf_rows, a, 0.75) == pytest.approx(0.625, abs=1e-15)

    def test_endpoints_exact(self):
        rng = np.random.default_rng(101)
        for n in (2, 3, 5, 10):
            a = random_params(rng, n)
            assert at(cdf_rows, a, 0.0) == 0.0
            assert at(cdf_rows, a, 1.0) == 1.0

    def test_monotone(self):
        rng = np.random.default_rng(102)
        a = random_params(rng, 5)
        zs = np.linspace(0, 1, 301)
        vals = [at(cdf_rows, a, float(z)) for z in zs]
        assert np.all(np.diff(vals) >= 0)


class TestInverseCdf:
    def test_uniform_identity(self):
        assert at(draw_rows, [1.0, 1.0], 0.7) == pytest.approx(0.7, abs=1e-15)

    def test_hand_round_trip(self):
        assert at(draw_rows, [1.0, 3.0], 0.625) == pytest.approx(0.75, abs=1e-15)

    def test_round_trip_and_bisection_oracle(self):
        rng = np.random.default_rng(103)
        for n in (2, 3, 5, 10):
            a = random_params(rng, n)
            eps = rng.random(1000)
            z = draw_rows(np.tile(a, (1000, 1)), eps)
            back = cdf_rows(np.tile(a, (1000, 1)), z)
            assert np.max(np.abs(back - eps)) < 1e-12
            for e in eps[:25]:
                assert abs(at(draw_rows, a, float(e)) - bisect_inverse_cdf(a, float(e))) < 1e-10

    def test_boundary_mass_assigns_right_segment(self):
        # Cumulative mass of segment 1 is 0.25; exactly there, use segment 2.
        assert at(draw_rows, [1.0, 3.0], 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_endpoints(self):
        a = [2.0, 5.0, 1.0]
        assert at(draw_rows, a, 0.0) == 0.0
        assert at(draw_rows, a, 1.0) == 1.0


class TestSampling:
    def test_uniform_params_pass_ks(self):
        rng = np.random.default_rng(104)
        samples = draw_rows(np.tile([1.0, 1.0], (100_000, 1)), rng.random(100_000))
        assert ks_uniform(samples) < 0.006

    def test_mass_above_half(self):
        rng = np.random.default_rng(105)
        samples = draw_rows(np.tile([1.0, 3.0], (100_000, 1)), rng.random(100_000))
        assert abs(np.mean(samples >= 0.5) - 0.75) < 0.01

    def test_fixed_seed_reproducible(self):
        weights = [0.5, 2.0, 1.0]
        a = [at(draw_rows, weights, np.random.default_rng(42).random()) for _ in range(5)]
        b = [at(draw_rows, weights, np.random.default_rng(42).random()) for _ in range(5)]
        assert a == b

    def test_histogram_matches_analytic_masses(self):
        rng = np.random.default_rng(106)
        for n in (2, 3, 5):
            a = random_params(rng, n)
            draws = draw_rows(np.tile(a, (100_000, 1)), rng.random(100_000))
            bins = np.minimum((draws * n).astype(int), n - 1)
            empirical = np.bincount(bins, minlength=n) / len(draws)
            masses = a / a.sum()
            tv = 0.5 * np.abs(empirical - masses).sum()
            assert tv < 0.01


class TestSampleGrad:
    def test_matches_finite_differences_uniform(self):
        uniform = np.array([1.0, 1.0])
        for eps in (0.1, 0.25, 0.6, 0.9):
            ana = at(draw_grad_rows, uniform, eps)
            num = numerical_grad(lambda a: at(draw_rows, a, eps), uniform)
            assert max_rel_err(ana, num) < 1e-6

    def test_matches_finite_differences_random(self):
        rng = np.random.default_rng(107)
        for n in (2, 3, 5, 10):
            weights = random_params(rng, n)
            for _ in range(5):
                eps = float(rng.uniform(0.05, 0.95))
                ana = at(draw_grad_rows, weights, eps)
                num = numerical_grad(lambda a: at(draw_rows, a, eps), weights)
                assert max_rel_err(ana, num) < 1e-6

    def test_opposite_signs_at_quarter(self):
        g = at(draw_grad_rows, [1.0, 1.0], 0.25)
        assert g[0] < 0 < g[1]

    def test_zero_noise_gives_zero_gradient(self):
        rng = np.random.default_rng(108)
        a = random_params(rng, 4)
        np.testing.assert_array_equal(at(draw_grad_rows, a, 0.0), np.zeros(4))
        np.testing.assert_array_equal(at(draw_grad_rows, a, 1.0), np.zeros(4))


class TestKl:
    def test_identical_distributions(self):
        rng = np.random.default_rng(109)
        for n in (2, 3, 5):
            a = random_params(rng, n)
            assert abs(at(pw.kl_rows, a, a)) < 1e-14

    def test_hand_case(self):
        assert at(pw.kl_rows, [1.0, 3.0], [1.0, 1.0]) == pytest.approx(0.75 * np.log(3.0) - np.log(2.0), abs=1e-9)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(110)
        for n in (2, 3, 5):
            for _ in range(34):
                post, prior = random_params(rng, n), random_params(rng, n)
                closed = at(pw.kl_rows, post, prior)
                quad = quadrature_kl(post, prior)
                assert abs(closed - quad) <= 1e-6 * max(abs(quad), 1e-3)

    def test_non_negative(self):
        rng = np.random.default_rng(111)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            assert at(pw.kl_rows, random_params(rng, n), random_params(rng, n)) >= 0.0


class TestKlGrad:
    def test_zero_at_stationary_point(self):
        rng = np.random.default_rng(112)
        a = random_params(rng, 4)
        d_post, _ = kl_grad(a, a)
        np.testing.assert_allclose(d_post, 0.0, atol=1e-14)

    def test_hand_pair_matches_finite_differences(self):
        post = np.array([1.0, 3.0])
        prior = np.array([1.0, 1.0])
        d_post, d_prior = kl_grad(post, prior)
        num_post = numerical_grad(lambda a: at(pw.kl_rows, a, prior), post)
        num_prior = numerical_grad(lambda a: at(pw.kl_rows, post, a), prior)
        assert max_rel_err(d_post, num_post) < 1e-6
        assert max_rel_err(d_prior, num_prior) < 1e-6

    def test_random_pairs_match_finite_differences(self):
        rng = np.random.default_rng(113)
        for n in (2, 3, 5):
            post, prior = random_params(rng, n), random_params(rng, n)
            d_post, d_prior = kl_grad(post, prior)
            num_post = numerical_grad(lambda a: at(pw.kl_rows, a, prior), post)
            num_prior = numerical_grad(lambda a: at(pw.kl_rows, post, a), prior)
            assert max_rel_err(d_post, num_post) < 1e-6
            assert max_rel_err(d_prior, num_prior) < 1e-6

    def test_clamped_value_has_zero_gradient(self):
        """A proportional posterior whose raw KL rounds below 0 gets KL 0 and gradient 0."""
        prior = np.array([[0.18, 0.46, 2.04], [1.0, 1.0, 1.0]])
        post = np.array([3.31 * prior[0], [1.0, 3.0, 2.0]])
        sums = post.sum(axis=1)
        raw = np.sum(post * (np.log(post) - np.log(prior)), axis=1) / sums + np.log(prior.sum(axis=1)) - np.log(sums)
        assert raw[0] < 0.0 < raw[1]
        np.testing.assert_array_equal(pw.kl_rows(post, prior), [0.0, raw[1]])
        d_post, d_prior = pw.kl_grad_rows(post, prior)
        np.testing.assert_array_equal(d_post[0], 0.0)
        np.testing.assert_array_equal(d_prior[0], 0.0)
        np.testing.assert_array_equal(d_post[1], kl_grad(post[1], prior[1])[0])
        assert np.all(d_post[1] != 0.0)

        post_t, prior_t = T.Tensor(post.reshape(-1)), T.Tensor(prior.reshape(-1))
        with T.Tape() as tape:
            value = pw.kl_between(post_t, prior_t, 2, 3)
            tape.backward(value)
        assert float(value) == raw[1]
        np.testing.assert_array_equal(tape.grad(post_t)[:3], 0.0)
        np.testing.assert_array_equal(tape.grad(prior_t)[:3], 0.0)


class TestShiftAndMean:
    def test_uniform_mean(self):
        assert pw.mean_rows(np.array([[1.0, 1.0]]))[0] == pytest.approx(0.5, abs=1e-15)

    def test_hand_mean_and_monte_carlo(self):
        a = np.array([1.0, 3.0])
        assert pw.mean_rows(np.array([a]))[0] == pytest.approx(0.625, abs=1e-12)
        rng = np.random.default_rng(114)
        draws = draw_rows(np.tile(a, (100_000, 1)), rng.random(100_000))
        se = draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean() - pw.mean_rows(np.array([a]))[0]) < 3 * se


class TestMultiModality:
    def test_two_maximal_pieces(self):
        a = np.array([3.0, 1.0, 3.0])
        densities = pw.pdf_rows(np.tile(a, (3, 1)), (np.arange(3) + 0.5) / 3)
        assert densities[0] == densities[2] > densities[1]

    def test_product_density_has_exponentially_many_modes(self):
        rng = np.random.default_rng(115)
        for d in range(1, 5):
            peaks = rng.uniform(2.0, 5.0, size=d)
            per_dim = [np.array([c, 1.0, c]) for c in peaks]
            cell_densities = []
            for combo in itertools.product(*[a / (a.sum() / 3.0) for a in per_dim]):
                cell_densities.append(np.prod(combo))
            cell_densities = np.array(cell_densities)
            top = cell_densities.max()
            assert np.sum(np.isclose(cell_densities, top, rtol=1e-12)) == 2**d


class TestHeadForward:
    def test_zero_bias_gives_uniform_weights(self):
        out = pw.head_forward(T.Tensor(np.zeros(6)))
        np.testing.assert_array_equal(out.data, np.ones(6))

    def test_clamp_prevents_overflow(self):
        out = pw.head_forward(T.Tensor([30.0, 120.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, np.exp(30.0))

    def test_gradients_through_exponential(self):
        rng = np.random.default_rng(116)
        enc = rng.normal(size=3)
        weight = rng.normal(size=(4, 3)) * 0.5
        bias = rng.normal(size=4) * 0.1

        def forward(w_arr, b_arr, e_arr):
            return pw.head_forward(T.affine(T.Tensor(e_arr), T.Tensor(w_arr), T.Tensor(b_arr)))

        with T.Tape() as tape:
            w_t, b_t, e_t = T.Tensor(weight), T.Tensor(bias), T.Tensor(enc)
            tape.backward(T.sum_all(pw.head_forward(T.affine(e_t, w_t, b_t))))
        for tensor, arr, idx in ((w_t, weight, 0), (b_t, bias, 1), (e_t, enc, 2)):
            args = [weight, bias, enc]

            def f(a, i=idx):
                args2 = list(args)
                args2[i] = a
                return float(T.sum_all(forward(*args2)))

            assert max_rel_err(tape.grad(tensor), numerical_grad(f, arr)) < 1e-6


class TestTapedOps:
    def test_sample_through_matches_scalar_path(self):
        rng = np.random.default_rng(117)
        a = np.exp(rng.uniform(-1, 1, size=(3, 4)))
        eps = rng.random(3)
        z = pw.sample_through(T.Tensor(a.reshape(-1)), eps, 3, 4)
        expect = [pw.sample_through(T.Tensor(a[i]), eps[i : i + 1], 1, 4).data[0] for i in range(3)]
        np.testing.assert_allclose(z.data, expect, rtol=1e-15)
        np.testing.assert_allclose(z.data, [bisect_inverse_cdf(a[i], float(eps[i])) for i in range(3)], rtol=0, atol=1e-10)

    def test_sample_through_gradient(self):
        rng = np.random.default_rng(118)
        a = np.exp(rng.uniform(-1, 1, size=(2, 3)))
        eps = rng.uniform(0.1, 0.9, size=2)
        with T.Tape() as tape:
            a_t = T.Tensor(a.reshape(-1))
            z = pw.sample_through(a_t, eps, 2, 3)
            tape.backward(T.sum_all(z))
        num = numerical_grad(
            lambda flat: float(np.sum(draw_rows(flat.reshape(2, 3), eps))), a.reshape(-1)
        )
        assert max_rel_err(tape.grad(a_t), num) < 1e-6

    def test_kl_between_matches_scalar_path_and_grad(self):
        rng = np.random.default_rng(119)
        post = np.exp(rng.uniform(-1, 1, size=(3, 5)))
        prior = np.exp(rng.uniform(-1, 1, size=(3, 5)))
        with T.Tape() as tape:
            post_t, prior_t = T.Tensor(post.reshape(-1)), T.Tensor(prior.reshape(-1))
            kl_node = pw.kl_between(post_t, prior_t, 3, 5)
            tape.backward(kl_node)
        expect = sum(at(pw.kl_rows, post[i], prior[i]) for i in range(3))
        assert float(kl_node) == pytest.approx(expect, rel=1e-12)
        num = numerical_grad(lambda flat: float(pw.kl_rows(flat.reshape(3, 5), prior).sum()), post.reshape(-1))
        assert max_rel_err(tape.grad(post_t), num) < 1e-6


class TestTapedRows:
    """(B, dims*pieces) rows give the per-row results of the vector path."""

    def test_sample_through_rows_match_vectors(self):
        rng = np.random.default_rng(120)
        a = np.exp(rng.uniform(-1, 1, size=(4, 6)))
        eps = rng.uniform(0.05, 0.95, size=(4, 2))
        weights = rng.normal(size=(4, 2))
        with T.Tape() as tape:
            a_t = T.Tensor(a)
            z = pw.sample_through(a_t, eps, 2, 3)
            tape.backward(T.sum_all(T.mul(z, T.Tensor(weights))))
        for i in range(4):
            with T.Tape() as row_tape:
                row_t = T.Tensor(a[i])
                z_row = pw.sample_through(row_t, eps[i], 2, 3)
                row_tape.backward(T.dot(z_row, T.Tensor(weights[i])))
            np.testing.assert_allclose(z.data[i], z_row.data, rtol=1e-15)
            np.testing.assert_allclose(tape.grad(a_t)[i], row_tape.grad(row_t), rtol=1e-14)

    def test_kl_between_rows_broadcast_the_prior(self):
        rng = np.random.default_rng(121)
        post = np.exp(rng.uniform(-1, 1, size=(3, 10)))
        prior = np.exp(rng.uniform(-1, 1, size=10))
        with T.Tape() as tape:
            post_t, prior_t = T.Tensor(post), T.Tensor(prior)
            kl_rows_t = pw.kl_between(post_t, prior_t, 2, 5)
            tape.backward(T.sum_all(kl_rows_t))
        assert kl_rows_t.data.shape == (3,)
        prior_grad = np.zeros(10)
        for i in range(3):
            with T.Tape() as row_tape:
                row_post, row_prior = T.Tensor(post[i]), T.Tensor(prior)
                kl_row = pw.kl_between(row_post, row_prior, 2, 5)
                row_tape.backward(kl_row)
            assert kl_rows_t.data[i] == pytest.approx(float(kl_row), rel=1e-14)
            np.testing.assert_allclose(tape.grad(post_t)[i], row_tape.grad(row_post), rtol=1e-14)
            prior_grad += row_tape.grad(row_prior)
        np.testing.assert_allclose(tape.grad(prior_t), prior_grad, rtol=1e-12)
