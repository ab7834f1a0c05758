"""Properties of the piecewise row core over generated weights and noise.

Examples are derandomized and the example database is off, so every run
checks the same inputs.  Piece counts run to 16, past the 8 at which
numpy's row sums change their order.  ``conftest`` picks how many
examples each property draws.
"""

import os

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pwvae import piecewise as pw

from gradcheck import numerical_grad
from piecewise_oracle import active_segment_rows, cdf_rows, draw_grad_rows, draw_rows, inverse_cdf_rows, kl_rows, sample_grad_rows

# Log-weights lie in [-LOG_RANGE, LOG_RANGE]: weight ratios up to e^6.
LOG_RANGE = 3.0

deterministic = settings(derandomize=True, deadline=None, database=None)


def test_loaded_profile_reaches_the_settings():
    """``deterministic`` draws as many examples as the profile HYPOTHESIS_PROFILE names."""
    profile = settings.get_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
    assert deterministic.max_examples == profile.max_examples
    assert deterministic.derandomize and deterministic.database is None


@st.composite
def weight_rows(draw, max_rows=4):
    """(d, n) positive weights, one distribution per row."""
    d = draw(st.integers(1, max_rows))
    n = draw(st.integers(2, 16))
    logs = draw(hnp.arrays(np.float64, (d, n), elements=st.floats(-LOG_RANGE, LOG_RANGE)))
    return np.exp(logs)


@st.composite
def weights_and_noise(draw):
    a = draw(weight_rows())
    eps = draw(hnp.arrays(np.float64, a.shape[0], elements=st.floats(0.0, 1.0)))
    return a, eps


@deterministic
@given(weights_and_noise())
def test_cdf_inverts_inverse_cdf(case):
    a, eps = case
    np.testing.assert_allclose(cdf_rows(a, draw_rows(a, eps)), eps, rtol=0, atol=1e-12)


@deterministic
@given(weight_rows(), st.data())
def test_kernels_equal_the_row_wise_oracle_bit_for_bit(a, data):
    """Up to 3 noise samples per row; some values are moved exactly onto one of their row's cumulative bounds."""
    samples = data.draw(st.integers(1, 3))
    eps = data.draw(hnp.arrays(np.float64, (samples, a.shape[0]), elements=st.floats(0.0, 1.0)))
    cum = np.cumsum(a, axis=1)
    for s, row in zip(*np.nonzero(data.draw(hnp.arrays(np.bool_, eps.shape)))):
        eps[s, row] = cum[row, data.draw(st.integers(0, a.shape[1] - 1))] / cum[row, -1]
    segment = pw._active_segment(a, eps)
    z = pw._inverse_cdf(a, eps, segment)
    grad = pw._sample_grad(a, eps, segment)
    for s in range(samples):
        for got, want in zip((segment[0][s], segment[1][s], segment[2][s], segment[3]), active_segment_rows(a, eps[s])):
            assert got.tobytes() == want.tobytes()
        assert z[s].tobytes() == inverse_cdf_rows(a, eps[s]).tobytes()
        assert np.ascontiguousarray(grad[:, s].T).tobytes() == sample_grad_rows(a, eps[s]).tobytes()


@deterministic
@given(weight_rows())
def test_density_integrates_to_one(a):
    """The density is constant on each segment, so its midpoint mean is its integral."""
    d, n = a.shape
    midpoints = np.tile((np.arange(n) + 0.5) / n, d)
    density = pw.pdf_rows(np.repeat(a, n, axis=0), midpoints).reshape(d, n)
    np.testing.assert_allclose(density.mean(axis=1), 1.0, rtol=0, atol=1e-12)


@deterministic
@given(weight_rows(), st.data())
def test_kl_non_negative_and_above_pinsker(prior, data):
    """KL >= (1/2)·L1(masses)^2 >= 0; equal-width segments make it the KL of the masses."""
    post = np.exp(data.draw(hnp.arrays(np.float64, prior.shape, elements=st.floats(-LOG_RANGE, LOG_RANGE))))
    kl = kl_rows(post, prior)
    l1 = np.abs(post / post.sum(axis=1, keepdims=True) - prior / prior.sum(axis=1, keepdims=True)).sum(axis=1)
    assert np.all(kl >= 0.0)
    assert np.all(kl >= 0.5 * l1**2 - 1e-12)


@deterministic
@given(weight_rows(), st.data())
def test_kl_zero_for_proportional_weights(prior, data):
    scale = np.exp(data.draw(hnp.arrays(np.float64, (prior.shape[0], 1), elements=st.floats(-5.0, 5.0))))
    np.testing.assert_allclose(kl_rows(prior * scale, prior), 0.0, rtol=0, atol=1e-12)


@deterministic
@given(weights_and_noise())
def test_sample_grad_matches_central_differences(case):
    """Away from the cumulative-mass boundaries the active segment does not change under the step."""
    a, eps = case
    boundaries = np.concatenate([np.zeros((a.shape[0], 1)), np.cumsum(a, axis=1) / a.sum(axis=1, keepdims=True)], axis=1)
    assume(np.all(np.abs(boundaries - eps[:, None]) >= 1e-6))
    # A step of h moves a boundary by at most h / sum(a) <= 1e-8 / (2 e^-3) < 1e-6.
    for row, e in zip(a, eps):
        num = numerical_grad(lambda w: float(draw_rows(w[None, :], np.array([e]))[0]), row, h=1e-8)
        np.testing.assert_allclose(draw_grad_rows(row[None, :], np.array([e]))[0], num, rtol=1e-5, atol=1e-6)
