"""Closed-form piecewise distribution against independent numerical oracles."""

import itertools

import numpy as np
import pytest

from pwvae import piecewise as pw
from pwvae import tensor as T

from gradcheck import max_rel_err, numerical_grad
from piecewise_oracle import active_segment_rows, cdf_rows, draw_grad_rows, draw_rows, inverse_cdf_rows, kl_grad_rows, kl_rows, sample_grad_rows


def random_params(rng, n):
    return np.exp(rng.uniform(-2.0, 2.0, size=n))


def at(fn, a, x):
    """Row function ``fn`` for the single distribution ``a`` at the point, noise or prior ``x``."""
    return fn(np.asarray(a, dtype=np.float64)[None, :], np.array([x], dtype=np.float64))[0]


def kl_grad(post, prior):
    d_post, d_prior = kl_grad_rows(post[None, :], prior[None, :])
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

    def test_float32_draws_stay_in_their_segment(self):
        """Weights (1, e^-10, e^30) at float32, where the middle weight is below one rounding unit of the total.

        total*eps - prev cancels for the middle segment, whose window of
        noise is 4.5e-5 of its lower end wide.  Across that window every
        draw lies in the closure of the segment its noise selects, and its
        float64 CDF is within 4 float32 epsilons of its noise.  Noise 0 and
        1 still give exactly 0 and 1.
        """
        a = np.tile(np.exp([0.0, -10.0, 30.0]).astype(np.float32), (2001, 1))
        cum = np.cumsum(a[0])
        eps = np.linspace(float(cum[0] / cum[2]), float(cum[1] / cum[2]), 2001).astype(np.float32)
        z = draw_rows(a, eps)
        idx = pw._active_segment(a, eps[None, :])[0][0]
        assert z.dtype == np.float32 and np.mean(idx == 1) > 0.9
        assert np.all((idx.astype(np.float32) / 3 <= z) & (z <= (idx + 1).astype(np.float32) / 3))
        assert np.max(np.abs(cdf_rows(a.astype(np.float64), z.astype(np.float64)) - eps)) <= 4 * np.finfo(np.float32).eps
        assert draw_rows(a[:2], np.array([0.0, 1.0], dtype=np.float32)).tolist() == [0.0, 1.0]


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


def kernel_weights(rows, n, seed):
    """(rows, n) weights with log-weights across [-CLAMP, CLAMP] and about a fifth of them at exactly e^±CLAMP."""
    rng = np.random.default_rng(seed)
    logs = rng.uniform(-pw.CLAMP, pw.CLAMP, (rows, n))
    pinned = rng.random((rows, n)) < 0.2
    logs[pinned] = rng.choice([-pw.CLAMP, pw.CLAMP], size=int(pinned.sum()))
    return np.exp(logs)


def kernel_noises(a, seed):
    """Named (rows,) noise vectors: 0, 1 - 2^-53, exactly on a cumulative bound of each row, uniform, and all four mixed."""
    rng = np.random.default_rng(seed)
    rows, n = a.shape
    cum = np.cumsum(a, axis=1)
    on_bound = (cum / cum[:, -1:])[np.arange(rows), rng.integers(0, n - 1, rows)]
    kinds = {"zero": np.zeros(rows), "top": np.full(rows, 1.0 - 2.0**-53), "on_bound": on_bound, "uniform": rng.random(rows)}
    pick = rng.integers(0, len(kinds), rows)
    kinds["mixed"] = np.choose(pick, list(kinds.values()))
    return kinds


class TestPiecesAxisKernels:
    """The pieces-axis kernels equal the row-wise oracle kernels bit for bit.

    Counts n around 8, where numpy's pairwise row sums change their
    order, and row counts up to stacked evaluation's, with noise at the
    ends of [0, 1) and exactly on cumulative bounds.  The kernels take
    every noise kind at once, one sample each, and the oracle one at a
    time.
    """

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 10, 16])
    @pytest.mark.parametrize("rows", [1, 2, 150, 1250, 5000])
    def test_segment_draw_and_gradient_match_the_oracle(self, n, rows):
        a = kernel_weights(rows, n, seed=n * rows)
        kinds = kernel_noises(a, seed=n + rows)
        eps = np.stack(list(kinds.values()))
        segment = pw._active_segment(a, eps)
        idx, a_sel, prev, total = segment
        z = pw._inverse_cdf(a, eps, segment)
        grad = pw._sample_grad(a, eps, segment)
        assert grad.shape == (n, len(kinds), rows)
        for s, kind in enumerate(kinds):
            want = active_segment_rows(a, eps[s])
            for got, expected in zip((idx[s], a_sel[s], prev[s], total), want):
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), kind
            assert z[s].tobytes() == inverse_cdf_rows(a, eps[s]).tobytes(), kind
            assert np.ascontiguousarray(grad[:, s].T).tobytes() == sample_grad_rows(a, eps[s]).tobytes(), kind

    def test_noise_on_a_bound_selects_the_right_segment(self):
        a = np.array([[1.0, 3.0, 4.0], [2.0, 2.0, 4.0]])
        idx, a_sel, prev, total = pw._active_segment(a, np.array([[0.5, 0.25]]))
        np.testing.assert_array_equal(idx, [[2, 1]])
        np.testing.assert_array_equal(a_sel, [[4.0, 2.0]])
        np.testing.assert_array_equal(prev, [[4.0, 2.0]])
        np.testing.assert_array_equal(total, [8.0, 8.0])

    @pytest.mark.parametrize("samples", [1, 3])
    def test_taped_draws_and_gradients_match_the_oracle(self, samples):
        """``sample_through`` of (B, dims * pieces) rows under (samples * B, dims) noise, against the oracle kernels.

        The weights' gradient adds the samples' terms last sample first,
        as ``samples`` separate calls would.
        """
        a = kernel_weights(60, 10, seed=5)
        blocks = [kernel_noises(a, seed=6 + s)["mixed"] for s in range(samples)]
        g = np.random.default_rng(7).normal(size=(samples * 6, 10))
        with T.Tape() as tape:
            a_t = T.Tensor(a.reshape(6, 100))
            z = pw.sample_through(a_t, np.concatenate([eps.reshape(6, 10) for eps in blocks]), 10, 10)
            tape.backward(T.sum_all(T.mul(z, T.Tensor(g))))
        terms = [(g[6 * s : 6 * s + 6].reshape(-1, 1) * sample_grad_rows(a, eps)).reshape(6, 100) for s, eps in enumerate(blocks)]
        want = terms[-1].copy()
        for term in terms[-2::-1]:
            want += term
        assert z.data.tobytes() == np.concatenate([inverse_cdf_rows(a, eps).reshape(6, 10) for eps in blocks]).tobytes()
        assert tape.grad(a_t).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(5, 3), (13, 3), (12,), (6, 2)])
    def test_noise_of_the_wrong_shape_is_rejected(self, shape):
        with pytest.raises(T.ShapeError, match=r"\(S\*B, 3\) noise, got \(6, 6\) and"):
            pw.sample_through(T.Tensor(np.ones((6, 6))), np.full(shape, 0.5), 3, 2)


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
            assert abs(at(kl_rows, a, a)) < 1e-14

    def test_hand_case(self):
        assert at(kl_rows, [1.0, 3.0], [1.0, 1.0]) == pytest.approx(0.75 * np.log(3.0) - np.log(2.0), abs=1e-9)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(110)
        for n in (2, 3, 5):
            for _ in range(34):
                post, prior = random_params(rng, n), random_params(rng, n)
                closed = at(kl_rows, post, prior)
                quad = quadrature_kl(post, prior)
                assert abs(closed - quad) <= 1e-6 * max(abs(quad), 1e-3)

    def test_non_negative(self):
        rng = np.random.default_rng(111)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            assert at(kl_rows, random_params(rng, n), random_params(rng, n)) >= 0.0


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
        num_post = numerical_grad(lambda a: at(kl_rows, a, prior), post)
        num_prior = numerical_grad(lambda a: at(kl_rows, post, a), prior)
        assert max_rel_err(d_post, num_post) < 1e-6
        assert max_rel_err(d_prior, num_prior) < 1e-6

    def test_random_pairs_match_finite_differences(self):
        rng = np.random.default_rng(113)
        for n in (2, 3, 5):
            post, prior = random_params(rng, n), random_params(rng, n)
            d_post, d_prior = kl_grad(post, prior)
            num_post = numerical_grad(lambda a: at(kl_rows, a, prior), post)
            num_prior = numerical_grad(lambda a: at(kl_rows, post, a), prior)
            assert max_rel_err(d_post, num_post) < 1e-6
            assert max_rel_err(d_prior, num_prior) < 1e-6

    def test_clamped_value_has_zero_gradient(self):
        """A proportional posterior whose raw KL rounds below 0 gets KL 0 and gradient 0."""
        prior = np.array([[0.18, 0.46, 2.04], [1.0, 1.0, 1.0]])
        post = np.array([3.31 * prior[0], [1.0, 3.0, 2.0]])
        sums = post.sum(axis=1)
        raw = np.sum(post * (np.log(post) - np.log(prior)), axis=1) / sums + np.log(prior.sum(axis=1)) - np.log(sums)
        assert raw[0] < 0.0 < raw[1]
        np.testing.assert_array_equal(kl_rows(post, prior), [0.0, raw[1]])
        d_post, d_prior = kl_grad_rows(post, prior)
        np.testing.assert_array_equal(d_post[0], 0.0)
        np.testing.assert_array_equal(d_prior[0], 0.0)
        np.testing.assert_array_equal(d_post[1], kl_grad(post[1], prior[1])[0])
        assert np.all(d_post[1] != 0.0)

        post_t, prior_t = T.Tensor(post.reshape(1, -1)), T.Tensor(prior.reshape(-1))
        with T.Tape() as tape:
            value = pw.kl_between(post_t, prior_t, 2, 3)
            tape.backward(value)
        assert float(value) == raw[1]
        np.testing.assert_array_equal(tape.grad(post_t)[0, :3], 0.0)
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
        enc = rng.normal(size=(1, 3))
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
        z = pw.sample_through(T.Tensor(a.reshape(1, -1)), eps[None], 3, 4)
        expect = [pw.sample_through(T.Tensor(a[i : i + 1]), eps[None, i : i + 1], 1, 4).data[0, 0] for i in range(3)]
        np.testing.assert_allclose(z.data[0], expect, rtol=1e-15)
        np.testing.assert_allclose(z.data[0], [bisect_inverse_cdf(a[i], float(eps[i])) for i in range(3)], rtol=0, atol=1e-10)

    def test_sample_through_gradient(self):
        rng = np.random.default_rng(118)
        a = np.exp(rng.uniform(-1, 1, size=(2, 3)))
        eps = rng.uniform(0.1, 0.9, size=2)
        with T.Tape() as tape:
            a_t = T.Tensor(a.reshape(1, -1))
            z = pw.sample_through(a_t, eps[None], 2, 3)
            tape.backward(T.sum_all(z))
        num = numerical_grad(
            lambda flat: float(np.sum(draw_rows(flat.reshape(2, 3), eps))), a.reshape(1, -1)
        )
        assert max_rel_err(tape.grad(a_t), num) < 1e-6

    def test_kl_between_matches_scalar_path_and_grad(self):
        rng = np.random.default_rng(119)
        post = np.exp(rng.uniform(-1, 1, size=(3, 5)))
        prior = np.exp(rng.uniform(-1, 1, size=(3, 5)))
        with T.Tape() as tape:
            post_t, prior_t = T.Tensor(post.reshape(1, -1)), T.Tensor(prior.reshape(-1))
            kl_node = pw.kl_between(post_t, prior_t, 3, 5)
            tape.backward(kl_node)
        expect = sum(at(kl_rows, post[i], prior[i]) for i in range(3))
        assert float(kl_node) == pytest.approx(expect, rel=1e-12)
        num = numerical_grad(lambda flat: float(kl_rows(flat.reshape(3, 5), prior).sum()), post.reshape(1, -1))
        assert max_rel_err(tape.grad(post_t), num) < 1e-6


class TestTapedRows:
    """(B, dims*pieces) rows give the results of one-row calls, stacked."""

    def test_sample_through_rows_equal_stacked_one_row_calls(self):
        rng = np.random.default_rng(120)
        a = np.exp(rng.uniform(-1, 1, size=(4, 6)))
        eps = rng.uniform(0.05, 0.95, size=(4, 2))
        weights = rng.normal(size=(4, 2))
        with T.Tape() as tape:
            a_t = T.Tensor(a)
            z = pw.sample_through(a_t, eps, 2, 3)
            tape.backward(T.sum_all(T.mul(z, T.Tensor(weights))))
        z_rows, grad_rows = [], []
        for i in range(4):
            one = slice(i, i + 1)
            with T.Tape() as row_tape:
                row_t = T.Tensor(a[one])
                z_row = pw.sample_through(row_t, eps[one], 2, 3)
                row_tape.backward(T.sum_all(T.mul(z_row, T.Tensor(weights[one]))))
            z_rows.append(z_row.data)
            grad_rows.append(row_tape.grad(row_t))
        np.testing.assert_allclose(z.data, np.concatenate(z_rows), rtol=1e-15)
        np.testing.assert_allclose(tape.grad(a_t), np.concatenate(grad_rows), rtol=1e-14)

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
                row_post, row_prior = T.Tensor(post[i : i + 1]), T.Tensor(prior)
                kl_row = pw.kl_between(row_post, row_prior, 2, 5)
                row_tape.backward(kl_row)
            assert kl_rows_t.data[i] == pytest.approx(float(kl_row), rel=1e-14)
            np.testing.assert_allclose(tape.grad(post_t)[i], row_tape.grad(row_post)[0], rtol=1e-14)
            prior_grad += row_tape.grad(row_prior)
        np.testing.assert_allclose(tape.grad(prior_t), prior_grad, rtol=1e-12)
