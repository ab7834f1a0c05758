"""Test-side piecewise helpers: a CDF oracle, the row-wise sampling kernels, draws and their weight gradients through ``sample_through``, and KL values through ``kl_between``.

``a`` is a (d, n) array of positive weights, one distribution per row,
and ``z`` or ``eps`` one point or noise value per row.  The taped ops
take each row as one document's weight row with a single latent
dimension, so they run on (d, n) rows.

``active_segment_rows``, ``inverse_cdf_rows`` and ``sample_grad_rows``
are the sampler's earlier kernels, which worked row by row with
``np.cumsum``, boolean sums and 2-D fancy indexing.  ``piecewise``'s
pieces-axis kernels must reproduce them bit for bit.
"""

import numpy as np

from pwvae import piecewise as pw
from pwvae.tensor import Tape, Tensor, sum_all


def cdf_rows(a, z):
    """CDF per row, integrated segment by segment: the mass before z's segment plus its share of that one."""
    d, n = a.shape
    idx = np.minimum((z * n).astype(np.int64), n - 1)
    cum = np.cumsum(a, axis=1)
    rows = np.arange(d)
    prev = np.where(idx > 0, cum[rows, np.maximum(idx - 1, 0)], 0.0)
    val = (prev + n * (z - idx / n) * a[rows, idx]) / cum[:, -1]
    return np.where(z >= 1.0, 1.0, np.where(z <= 0.0, 0.0, val))


def active_segment_rows(a, eps):
    """Per row: the segment that eps selects, its weight, the sum of the weights before it, and the total."""
    cum = np.cumsum(a, axis=1)
    total = cum[:, -1]
    bounds = cum / total[:, None]
    idx = np.minimum(np.sum(bounds <= eps[:, None], axis=1), a.shape[1] - 1)
    rows = np.arange(a.shape[0])
    prev = np.where(idx > 0, cum[rows, np.maximum(idx - 1, 0)], 0.0)
    return idx, a[rows, idx], prev, total


def inverse_cdf_rows(a, eps):
    """Inverse-CDF draws, one per row, on the row-wise segment search."""
    idx, a_sel, prev, total = active_segment_rows(a, eps)
    n = a.shape[1]
    z = idx / n + (total * eps - prev) / (n * a_sel)
    z = np.minimum(np.maximum(z, 0.0), 1.0)
    return np.where(eps <= 0.0, 0.0, np.where(eps >= 1.0, 1.0, z))


def sample_grad_rows(a, eps):
    """(d, n) derivatives d z / d a of each row's draw, built row by row."""
    idx, a_sel, prev, total = active_segment_rows(a, eps)
    n = a.shape[1]
    cols = np.arange(n)[None, :]
    before = cols < idx[:, None]
    after = cols > idx[:, None]
    grad = np.where(before, (eps - 1.0)[:, None], np.where(after, eps[:, None], 0.0))
    grad = grad / (n * a_sel)[:, None]
    grad[np.arange(a.shape[0]), idx] = (eps * (a_sel - total) + prev) / (n * a_sel * a_sel)
    return grad


def draw_rows(a, eps):
    """Inverse-CDF draws, one per row, from the taped ``sample_through``."""
    return pw.sample_through(Tensor(a), eps[:, None], 1, a.shape[1]).data[:, 0]


def draw_grad_rows(a, eps):
    """Per row, d z / d a_k of that row's draw with its noise held fixed, from the tape's backward pass."""
    with Tape() as tape:
        a_t = Tensor(a)
        tape.backward(sum_all(pw.sample_through(a_t, eps[:, None], 1, a.shape[1])))
    return tape.grad(a_t)


def kl_rows(post, prior):
    """KL(post || prior) per row from the taped ``kl_between``, each row one latent dimension."""
    return pw.kl_between(Tensor(post), Tensor(prior), 1, post.shape[1]).data


def kl_grad_rows(post, prior):
    """Per row, the gradients of that row's KL in the posterior and the prior weights, from the tape's backward pass."""
    with Tape() as tape:
        post_t, prior_t = Tensor(post), Tensor(prior)
        tape.backward(sum_all(pw.kl_between(post_t, prior_t, 1, post.shape[1])))
    return tape.grad(post_t), tape.grad(prior_t)
