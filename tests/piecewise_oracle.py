"""Test-side piecewise helpers: a CDF oracle, and draws and their weight gradients through ``sample_through``.

``a`` is a (d, n) array of positive weights, one distribution per row,
and ``z`` or ``eps`` one point or noise value per row.
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


def draw_rows(a, eps):
    """Inverse-CDF draws, one per row, from the taped ``sample_through``."""
    return pw.sample_through(Tensor(a.reshape(-1)), eps, *a.shape).data


def draw_grad_rows(a, eps):
    """Per row, d z / d a_k of that row's draw with its noise held fixed, from the tape's backward pass."""
    with Tape() as tape:
        a_t = Tensor(a.reshape(-1))
        tape.backward(sum_all(pw.sample_through(a_t, eps, *a.shape)))
    return tape.grad(a_t).reshape(a.shape)
