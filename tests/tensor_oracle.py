"""Test-side oracles for the elementwise and row ops that the fused model ops replaced, rebuilt with ``custom_op``.

``sub``, ``concat``, ``tile_rows``, ``row_block``, ``sqrt`` and
``softplus`` are the taped ops that the Gaussian draw and KL, the latent
combination, the bound and the S-sample decoder were chained from, with
their former backward rules.  The tape tests still exercise the tape
through them, and the chains in ``gaussian_oracle`` and ``nvdm_oracle``
that the fused ops must reproduce bit for bit are built from them.
"""

import numpy as np

from pwvae.tensor import ShapeError, _check_broadcast, _same_dtype, _unbroadcast, custom_op


def sub(a, b):
    """a - b; an operand of the other's trailing shape is broadcast, and its gradient summed over the broadcast axes."""
    sa, sb = a.data.shape, b.data.shape
    _check_broadcast(sa, sb, "sub")
    _same_dtype("sub", a.data, b.data)
    return custom_op(a.data - b.data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def concat(a, b):
    """Concatenation along the last axis; leading axes must agree."""
    if a.data.ndim == 0 or a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeError(f"concat: shapes {a.data.shape} and {b.data.shape} differ before the last axis")
    _same_dtype("concat", a.data, b.data)
    na = a.data.shape[-1]
    return custom_op(np.concatenate([a.data, b.data], axis=-1), (a, b), lambda g: (g[..., :na], g[..., na:]))


def tile_rows(x, reps):
    """``reps`` copies of (B, n) rows stacked into (reps * B, n); x itself when ``reps`` is 1.

    The backward hands x one block of g per copy, the last copy's first,
    as a tape reaches ``reps`` separate uses of x.
    """
    if reps == 1:
        return x
    xd = x.data
    if xd.ndim != 2:
        raise ShapeError(f"tile_rows: expected (B, n) rows, got shape {xd.shape}")
    b = xd.shape[0]
    return custom_op(np.tile(xd, (reps, 1)), (x,) * reps, lambda g: tuple(g[s * b : (s + 1) * b] for s in reversed(range(reps))))


def row_block(x, lo, hi):
    """Rows lo:hi of x as one taped op; x itself when that is every row."""
    xd = x.data
    if lo == 0 and hi == xd.shape[0]:
        return x

    def backward(g):
        # -0.0 is the additive identity, so summing the blocks of several
        # row_block calls keeps every bit of each, the sign of a zero too.
        grad = np.full(xd.shape, -0.0, dtype=xd.dtype)
        grad[lo:hi] = g
        return (grad,)

    return custom_op(xd[lo:hi], (x,), backward)


def sqrt(x):
    xd = x.data
    if np.any(xd < 0.0):
        raise ValueError("sqrt: input must be non-negative")
    y = np.sqrt(xd)
    return custom_op(y, (x,), lambda g: (g * 0.5 / y,))


def _sigmoid(v):
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(x):
    """Elementwise log(1 + exp(x)), overflow safe; derivative is the sigmoid."""
    xd = x.data
    return custom_op(np.logaddexp(0.0, xd), (x,), lambda g: (g * _sigmoid(xd),))
