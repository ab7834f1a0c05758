"""Properties of the piecewise row core over generated weights and noise.

Examples are derandomized and the example database is off, so every run
checks the same inputs.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pwvae import piecewise as pw

from gradcheck import numerical_grad
from piecewise_oracle import cdf_rows, draw_grad_rows, draw_rows, kl_rows

# Log-weights lie in [-LOG_RANGE, LOG_RANGE]: weight ratios up to e^6.
LOG_RANGE = 3.0

deterministic = settings(derandomize=True, deadline=None, database=None)


@st.composite
def weight_rows(draw, max_rows=4):
    """(d, n) positive weights, one distribution per row."""
    d = draw(st.integers(1, max_rows))
    n = draw(st.integers(2, 8))
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
