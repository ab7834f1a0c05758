"""Dense float64 tensors with taped reverse-mode differentiation.

Operations execute eagerly on numpy arrays.  Inside a ``with Tape():``
block every operation additionally records a backward rule; calling
``Tape.backward`` on a scalar result then accumulates gradients for every
tensor that participated, visiting operations in exact reverse execution
order.  Outside a tape the same functions are plain forward computations.
A backward rule may defer an input gradient (``affine`` defers all three
of its gradients, the KL ops their prior-side gradients); the tape
computes it only once it is needed, so a frozen weight or bias, an input
document or a prior built outside the tape costs nothing.

The tape keeps an input's first gradient as the array the rule returned
and adds later gradients into it in place.  It copies that array first
when it is a view (``add`` and ``concat`` return ``g`` or views of it),
is the output's gradient ``g`` or ``g``'s base, is returned again or viewed
by another array the same rule returned, or is not a writable float64
array.  These identity checks cost less than the copy they save, which
``np.may_share_memory`` did not.  This is safe because of the rule
``custom_op`` states: a backward rule never captures, in a deferred
closure, an array it also returns.

``affine`` computes rows x @ w.T.  It multiplies by the transposed view
of w unless told to use ``kept_transpose``: then it multiplies by
``w.transposed()``, a C-contiguous copy of w.T that the tensor builds
on first use and keeps.  OpenBLAS reads the transposed view slowly when
x has few rows: at the paper's decoder shape, (2000, 100), and 3 rows on
one thread, the product took about twice as long as against the copy.
Only the decoder's forward (``nvdm.decode_logprob``) uses the copy; in
the encoder it gained little.  The backward products g @ w and g.T @ x
read w itself either way, so no gradient changes.  With numpy 2.4's
OpenBLAS 0.3.31, the two layouts give the same bits for two or more rows
at the benchmark's decoder shapes, (2000, 100) and (200, 10).  One
(1, m) row goes through numpy's vector-matrix product, where they can
differ in the last bit, and so can some other shapes, e.g. (20, k)
weights for k >= 16, and (200, k) for k >= 32 with at most 6 rows.  A training batch of one document is such a row: after
15 one-document steps at V=200 and H=50 the parameters differed from
the view's by at most 4.6e-15 of each parameter's largest entry, and
the validation bounds not at all.

Row convention: a batch of documents is a (B, n) matrix with one document
per row, and a single document is a (1, n) row; ``affine`` and
``multinomial_loglik`` take nothing else.  ``affine`` multiplies every
row by the same weight matrix, so the weight gradient of a whole batch is
one product ``g.T @ x``; ``multinomial_loglik`` acts along axis 1 and
``concat`` along the last axis.  In ``add``, ``sub``, ``mul``, ``div``
and ``prelu`` an operand whose shape is the trailing shape of the other
(a (n,) parameter against (B, n) rows) is broadcast, and its gradient is
summed over the broadcast axes.
``tile_rows`` stacks S copies of rows, and ``row_block`` takes a block of
rows back out; their gradients add the same arrays in the same order as
S separate uses of the rows would, so they keep every bit.

Tensors are immutable once created and a tape is rebuilt for every
forward pass, so independent tapes may run concurrently over disjoint
data (the active-tape stack is thread local).
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "TapeError",
    "custom_op",
    "add",
    "sub",
    "mul",
    "div",
    "scale_shift",
    "affine",
    "sum_all",
    "concat",
    "tile_rows",
    "row_block",
    "exp_clamped",
    "sqrt",
    "softplus",
    "softsign",
    "prelu",
    "multinomial_loglik",
]


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class TapeError(RuntimeError):
    """Tape used outside its contract (non-scalar root, repeated backward)."""


class Tensor:
    """Immutable dense array of 64-bit floats."""

    __slots__ = ("data", "_transposed")

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64)
        arr.flags.writeable = False
        self.data = arr

    def transposed(self) -> np.ndarray:
        """A read-only C-contiguous copy of this matrix's transpose, built on the first call and kept.

        The tensor is immutable, so the copy can never go stale: a new
        weight is a new tensor, which builds its own.
        """
        try:
            return self._transposed
        except AttributeError:
            t = np.ascontiguousarray(self.data.T)
            t.flags.writeable = False
            self._transposed = t
            return t

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor of shape {self.data.shape} is not scalar")
        return float(self.data.reshape(()))

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    # Arithmetic sugar; Tensor-Tensor ops broadcast a trailing shape,
    # python scalars broadcast elementwise.
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return scale_shift(self, 1.0, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return scale_shift(self, 1.0, -float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale_shift(self, float(other), 0.0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return scale_shift(self, 1.0 / float(other), 0.0)


def _wrap(values: np.ndarray) -> Tensor:
    """Wrap an array we own without copying it."""
    t = Tensor.__new__(Tensor)
    arr = np.asarray(values, dtype=np.float64)
    arr.flags.writeable = False
    t.data = arr
    return t


_LOCAL = threading.local()


def _stack() -> list:
    try:
        return _LOCAL.stack
    except AttributeError:
        _LOCAL.stack = []
        return _LOCAL.stack


def _record(out: Tensor, inputs, backward) -> None:
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        stack[-1]._records.append((out, inputs, backward))


class Tape:
    """Ordered record of executed operations for one forward pass.

    Gradient slots are keyed by tensor identity; tensors that never
    contributed to the backward root read back as zero gradients.
    A tape supports exactly one ``backward`` call.
    """

    def __init__(self):
        self._records = []
        self._grads = None

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _stack().pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise TapeError("tape stack corrupted: exited a tape that is not innermost")
        return False

    def backward(self, root: Tensor) -> None:
        if self._grads is not None:
            raise TapeError("backward already ran on this tape; higher-order gradients are unsupported")
        if root.data.size != 1:
            raise TapeError(f"backward needs a scalar root, got shape {root.data.shape}")
        grads = {root: np.ones_like(root.data)}
        for out, inputs, backward in reversed(self._records):
            g = grads.get(out)
            if g is None:
                continue
            if callable(g):
                g = grads[out] = g()
            returned = backward(g)
            for tensor, gi in zip(inputs, returned):
                if gi is None:
                    continue
                acc = grads.get(tensor)
                if acc is None:
                    # A deferred gradient is computed fresh once it is needed.
                    grads[tensor] = gi if callable(gi) or _owned(gi, g, returned) else np.array(gi, dtype=np.float64)
                else:
                    if callable(acc):
                        acc = grads[tensor] = acc()
                    acc += gi() if callable(gi) else gi
        self._grads = grads

    def grad(self, t: Tensor) -> np.ndarray:
        if self._grads is None:
            raise TapeError("backward has not run on this tape")
        g = self._grads.get(t)
        if g is None:
            return np.zeros_like(t.data)
        if callable(g):
            g = self._grads[t] = g()
        return g


def _owned(gi, g, returned) -> bool:
    """Whether the tape may keep a rule's returned ``gi`` as its own: a writable float64 array that owns its memory, and that neither ``g`` nor another array in ``returned`` is or views.

    An array that owns its memory (``base`` is None) shares it only with
    its views, whose ``base`` numpy sets to it.  So these identity checks
    can stand in for ``np.may_share_memory``, which cost more than the
    copy it saved.
    """
    if type(gi) is not np.ndarray or gi.base is not None or gi is g or g.base is gi or gi.dtype != np.float64 or not gi.flags.writeable:
        return False
    return sum(1 for other in returned if other is gi or (type(other) is np.ndarray and other.base is gi)) == 1


def custom_op(values, inputs, backward) -> Tensor:
    """Wrap externally computed values as one taped operation.

    ``backward`` maps the output gradient ``g`` to a tuple of input
    gradients aligned with ``inputs``.  An entry may be None (no gradient)
    or a function of no arguments returning a fresh array, which the tape
    calls only once that input's gradient is needed.

    The tape keeps a returned array as that input's gradient and may add
    into it in place later; it copies first an array that is a view, is
    ``g`` or ``g``'s base, or that another returned array is or views.  A
    deferred function's array is never copied, so it must be fresh.  And
    a rule never captures, in a deferred closure, an array it also returns
    (``g`` itself excepted): the closure would read the array after the
    tape has added into it.
    """
    out = _wrap(np.asarray(values, dtype=np.float64))
    _record(out, tuple(inputs), backward)
    return out


def _check_broadcast(sa: tuple, sb: tuple, op: str) -> None:
    """Equal shapes, or one operand's shape is the trailing shape of the other's."""
    if sa == sb:
        return
    short, long = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    if long[len(long) - len(short) :] != short:
        raise ShapeError(f"{op}: shapes {sa} and {sb} do not broadcast")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes along which an operand of ``shape`` was broadcast."""
    if g.shape == shape:
        return g
    lead = g.shape[: g.ndim - len(shape)]
    g = g.reshape(g.shape[len(lead) :]) if all(n == 1 for n in lead) else g.sum(axis=tuple(range(len(lead))))
    ones = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=ones, keepdims=True) if ones else g


def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    _check_broadcast(sa, sb, "add")
    out = _wrap(a.data + b.data)
    _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    _check_broadcast(sa, sb, "sub")
    out = _wrap(a.data - b.data)
    _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.data.shape, b.data.shape, "mul")
    ad, bd = a.data, b.data
    out = _wrap(ad * bd)
    _record(out, (a, b), lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)))
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.data.shape, b.data.shape, "div")
    ad, bd = a.data, b.data
    out = _wrap(ad / bd)
    _record(out, (a, b), lambda g: (_unbroadcast(g / bd, ad.shape), _unbroadcast(-g * ad / (bd * bd), bd.shape)))
    return out


def scale_shift(x: Tensor, scale: float, shift: float) -> Tensor:
    """Elementwise scale*x + shift for python-float scale and shift."""
    out = _wrap(x.data * scale + shift)
    _record(out, (x,), lambda g: (g * scale,))
    return out


def affine(x: Tensor, w: Tensor, b: Tensor, *, negate: bool = False, kept_transpose: bool = False) -> Tensor:
    """x @ w.T + b, or b - x @ w.T under ``negate``, for (B, m) rows x as one taped op.

    w is a (k, m) matrix and b a (k,) bias.  The weight gradient is the
    single product g.T @ x over all rows, and the bias gradient g's sum
    over them.  Under ``kept_transpose`` the forward multiplies by
    ``w.transposed()``, the C-contiguous copy of w.T that w keeps, instead
    of the transposed view; the backward reads w itself either way.
    """
    wd, xd, bd = w.data, x.data, b.data
    if wd.ndim != 2 or xd.ndim != 2 or xd.shape[1] != wd.shape[1] or bd.shape != wd.shape[:1]:
        raise ShapeError(f"affine: rows {xd.shape}, matrix {wd.shape} and bias {bd.shape} do not conform; expected (B, m) rows, a (k, m) matrix and a (k,) bias")
    product = xd @ (w.transposed() if kept_transpose else wd.T)
    out = _wrap(bd - product if negate else product + bd)

    # All three gradients are deferred, so a frozen model or an input
    # document whose gradient nobody reads costs nothing.  The bias
    # gradient is a fresh sum for any B, one row included.
    def backward(g):
        gp = -g if negate else g
        return (lambda: gp @ wd, lambda: gp.T @ xd, lambda: g.sum(axis=0))

    _record(out, (x, w, b), backward)
    return out


def sum_all(x: Tensor) -> Tensor:
    xd = x.data
    out = _wrap(np.asarray(xd.sum()))
    _record(out, (x,), lambda g: (g * np.ones_like(xd),))
    return out


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenation along the last axis; leading axes must agree."""
    if a.data.ndim == 0 or a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeError(f"concat: shapes {a.data.shape} and {b.data.shape} differ before the last axis")
    na = a.data.shape[-1]
    out = _wrap(np.concatenate([a.data, b.data], axis=-1))
    _record(out, (a, b), lambda g: (g[..., :na], g[..., na:]))
    return out


def tile_rows(x: Tensor, reps: int) -> Tensor:
    """``reps`` copies of (B, n) rows stacked into (reps * B, n); x itself when ``reps`` is 1.

    The backward hands x one block of g per copy, the last copy's first:
    the order in which a tape reaches ``reps`` separate uses of x, last
    use first.  So x's gradient adds the same arrays in the same order as
    under separate uses, and keeps their bits.
    """
    if reps == 1:
        return x
    xd = x.data
    if xd.ndim != 2:
        raise ShapeError(f"tile_rows: expected (B, n) rows, got shape {xd.shape}")
    b = xd.shape[0]
    out = _wrap(np.tile(xd, (reps, 1)))
    _record(out, (x,) * reps, lambda g: tuple(g[s * b : (s + 1) * b] for s in reversed(range(reps))))
    return out


def row_block(x: Tensor, lo: int, hi: int) -> Tensor:
    """Rows lo:hi of x as one taped op; x itself when that is every row."""
    xd = x.data
    if lo == 0 and hi == xd.shape[0]:
        return x
    out = _wrap(xd[lo:hi])

    def backward(g):
        # -0.0 is the additive identity, so summing the blocks of several
        # row_block calls keeps every bit of each, the sign of a zero too.
        grad = np.full(xd.shape, -0.0)
        grad[lo:hi] = g
        return (grad,)

    _record(out, (x,), backward)
    return out


def exp_clamped(x: Tensor, lo: float = -30.0, hi: float = 30.0) -> Tensor:
    """exp of x clamped to [lo, hi]; gradient is zero outside the clamp range."""
    xd = x.data
    out_data = np.exp(np.minimum(np.maximum(xd, lo), hi))
    out = _wrap(out_data)
    _record(out, (x,), lambda g: (g * out_data * ((xd >= lo) & (xd <= hi)),))
    return out


def sqrt(x: Tensor) -> Tensor:
    xd = x.data
    if np.any(xd < 0.0):
        raise ValueError("sqrt: input must be non-negative")
    out_data = np.sqrt(xd)
    out = _wrap(out_data)
    _record(out, (x,), lambda g: (g * 0.5 / out_data,))
    return out


def _sigmoid(v: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(x: Tensor) -> Tensor:
    """Elementwise log(1 + exp(x)), overflow safe; derivative is the sigmoid."""
    xd = x.data
    out = _wrap(np.logaddexp(0.0, xd))
    _record(out, (x,), lambda g: (g * _sigmoid(xd),))
    return out


def softsign(x: Tensor) -> Tensor:
    """Elementwise v / (1 + |v|); derivative 1 / (1 + |v|)^2."""
    xd = x.data
    denom = 1.0 + np.abs(xd)
    out = _wrap(xd / denom)
    _record(out, (x,), lambda g: (g / (denom * denom),))
    return out


def prelu(x: Tensor, leak: Tensor) -> Tensor:
    """Elementwise x if x > 0 else leak*x; at exactly 0 the derivative is 1.

    ``leak`` has the trailing shape of x: one learnable value per column
    of (B, n) rows.
    """
    xd, ld = x.data, leak.data
    if ld.ndim > xd.ndim or xd.shape[xd.ndim - ld.ndim :] != ld.shape:
        raise ShapeError(f"prelu: leak shape {ld.shape} does not match input shape {xd.shape}")
    out = _wrap(np.where(xd > 0, xd, ld * xd))

    def backward(g):
        gx = g * np.where(xd >= 0, 1.0, ld)
        gl = g * np.where(xd < 0, xd, 0.0)
        return (gx, _unbroadcast(gl, ld.shape))

    _record(out, (x, leak), backward)
    return out


def multinomial_loglik(counts: Tensor, logits: Tensor) -> Tensor:
    """Count-weighted log-likelihood sum_w c_w log softmax(logits)_w of each of (B, n) rows: a (B,) array.

    The softmax is stabilised by max subtraction.  Only the logits get a
    gradient, g (c - N softmax) with N = sum_w c_w; the counts are data.
    N is summed in the backward pass, so a forward-only call never pays for it.
    """
    cd, xd = counts.data, logits.data
    if xd.ndim != 2 or cd.shape != xd.shape:
        raise ShapeError(f"multinomial_loglik: expected counts and logits of one shape, (B, n) rows, got {cd.shape} and {xd.shape}")
    if not np.isfinite(xd).all():
        raise ValueError("multinomial_loglik: logits must be finite")
    shifted = xd - xd.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = _wrap((cd[:, None, :] @ logp[:, :, None])[:, 0, 0])

    def backward(g):
        gc = g[:, None] * cd
        return (None, gc - np.exp(logp) * gc.sum(axis=1, keepdims=True))

    _record(out, (counts, logits), backward)
    return out
