"""Dense float64 tensors with taped reverse-mode differentiation.

Operations execute eagerly on numpy arrays.  Inside a ``with Tape():``
block every operation additionally records a backward rule; calling
``Tape.backward`` on a scalar result then accumulates gradients for every
tensor that participated, visiting operations in exact reverse execution
order.  Outside a tape the same functions are plain forward computations.
A backward rule may defer an expensive input gradient (``matvec`` defers
both of its products); the tape computes it only once it is needed, so a
frozen weight or an input document whose gradient nobody reads costs
nothing.

Row convention: a batch of documents is a (B, n) matrix with one document
per row, and a single document is either an (n,) vector or a (1, n) row.
``matvec``/``affine`` multiply every row by the same weight matrix, so the
weight gradient of a whole batch is one product ``g.T @ x``;
``log_softmax``, ``dot``, ``sum_last`` and ``concat`` act along the last
axis.  In ``add``, ``sub``, ``mul``, ``div`` and ``prelu`` an operand whose
shape is the trailing shape of the other (a (n,) parameter against (B, n)
rows) is broadcast, and its gradient is summed over the broadcast axes.

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
    "matvec",
    "affine",
    "dot",
    "sum_all",
    "sum_last",
    "concat",
    "exp_clamped",
    "log",
    "sqrt",
    "softplus",
    "softsign",
    "prelu",
    "log_softmax",
]


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class TapeError(RuntimeError):
    """Tape used outside its contract (non-scalar root, repeated backward)."""


class Tensor:
    """Immutable dense array of 64-bit floats."""

    __slots__ = ("data",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64)
        arr.flags.writeable = False
        self.data = arr

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

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

    def __rsub__(self, other):
        return scale_shift(self, -1.0, float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale_shift(self, float(other), 0.0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return scale_shift(self, 1.0 / float(other), 0.0)

    def __neg__(self):
        return scale_shift(self, -1.0, 0.0)


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
            for tensor, gi in zip(inputs, backward(g)):
                if gi is None:
                    continue
                acc = grads.get(tensor)
                if acc is None:
                    # Copy: backward rules may hand back views of g itself.
                    # A deferred gradient is computed fresh once it is needed.
                    grads[tensor] = gi if callable(gi) else np.array(gi, dtype=np.float64)
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


def custom_op(values, inputs, backward) -> Tensor:
    """Wrap externally computed values as one taped operation.

    ``backward`` maps the output gradient to a tuple of input gradients
    aligned with ``inputs``.  An entry may be None (no gradient) or a
    function of no arguments returning a fresh array, which the tape calls
    only once that input's gradient is needed.
    """
    out = _wrap(np.asarray(values, dtype=np.float64))
    _record(out, tuple(inputs), backward)
    return out


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    """Equal shapes, or one operand's shape is the trailing shape of the other's."""
    sa, sb = a.data.shape, b.data.shape
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
    _check_broadcast(a, b, "add")
    sa, sb = a.data.shape, b.data.shape
    out = _wrap(a.data + b.data)
    _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    sa, sb = a.data.shape, b.data.shape
    out = _wrap(a.data - b.data)
    _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    ad, bd = a.data, b.data
    out = _wrap(ad * bd)
    _record(out, (a, b), lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)))
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "div")
    ad, bd = a.data, b.data
    out = _wrap(ad / bd)
    _record(out, (a, b), lambda g: (_unbroadcast(g / bd, ad.shape), _unbroadcast(-g * ad / (bd * bd), bd.shape)))
    return out


def scale_shift(x: Tensor, scale: float, shift: float) -> Tensor:
    """Elementwise scale*x + shift for python-float scale and shift."""
    out = _wrap(x.data * scale + shift)
    _record(out, (x,), lambda g: (g * scale,))
    return out


def matvec(w: Tensor, x: Tensor) -> Tensor:
    """w @ x for a vector x (m,), or each row of x (B, m) times w; w is (k, m).

    The weight gradient is the single product g.T @ x over all rows.
    """
    wd, xd = w.data, x.data
    if wd.ndim != 2 or xd.ndim not in (1, 2) or wd.shape[1] != xd.shape[-1]:
        raise ShapeError(f"matvec: matrix {wd.shape} does not conform with input {xd.shape}")
    out = _wrap(xd @ wd.T)

    # Both products are deferred, so a frozen weight or an input document
    # whose gradient nobody reads costs nothing.
    _record(out, (w, x), lambda g: (lambda: np.atleast_2d(g).T @ np.atleast_2d(xd), lambda: g @ wd))
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """w @ x + b for matrix w (k, m), input x (m,) or (B, m), and bias b (k,)."""
    return add(matvec(w, x), b)


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Inner product along the last axis: a scalar for vectors, (B,) for (B, n) rows."""
    if a.data.shape != b.data.shape or a.data.ndim == 0:
        raise ShapeError(f"dot: expected operands of one shape, got {a.data.shape} and {b.data.shape}")
    ad, bd = a.data, b.data
    out = _wrap((ad[..., None, :] @ bd[..., :, None])[..., 0, 0])
    _record(out, (a, b), lambda g: (g[..., None] * bd, g[..., None] * ad))
    return out


def sum_all(x: Tensor) -> Tensor:
    xd = x.data
    out = _wrap(np.asarray(xd.sum()))
    _record(out, (x,), lambda g: (g * np.ones_like(xd),))
    return out


def sum_last(x: Tensor) -> Tensor:
    """Sum along the last axis: a scalar for a vector, (B,) for (B, n) rows."""
    xd = x.data
    out = _wrap(np.asarray(xd.sum(axis=-1)))
    _record(out, (x,), lambda g: (g[..., None] * np.ones_like(xd),))
    return out


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenation along the last axis; leading axes must agree."""
    if a.data.ndim == 0 or a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeError(f"concat: shapes {a.data.shape} and {b.data.shape} differ before the last axis")
    na = a.data.shape[-1]
    out = _wrap(np.concatenate([a.data, b.data], axis=-1))
    _record(out, (a, b), lambda g: (g[..., :na], g[..., na:]))
    return out


def exp_clamped(x: Tensor, lo: float = -30.0, hi: float = 30.0) -> Tensor:
    """exp of x clamped to [lo, hi]; gradient is zero outside the clamp range."""
    xd = x.data
    out_data = np.exp(np.minimum(np.maximum(xd, lo), hi))
    out = _wrap(out_data)
    _record(out, (x,), lambda g: (g * out_data * ((xd >= lo) & (xd <= hi)),))
    return out


def log(x: Tensor) -> Tensor:
    xd = x.data
    if np.any(xd <= 0.0):
        raise ValueError("log: input must be strictly positive")
    out = _wrap(np.log(xd))
    _record(out, (x,), lambda g: (g / xd,))
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

    ``leak`` is a single learnable value, one value per element, or one
    value per column of (B, n) rows.
    """
    xd, ld = x.data, leak.data
    if ld.size != 1 and (ld.ndim > xd.ndim or xd.shape[xd.ndim - ld.ndim :] != ld.shape):
        raise ShapeError(f"prelu: leak shape {ld.shape} does not match input shape {xd.shape}")
    lk = ld if ld.size != 1 else float(ld.reshape(()))
    out = _wrap(np.where(xd > 0, xd, lk * xd))

    def backward(g):
        gx = g * np.where(xd >= 0, 1.0, lk)
        gl = g * np.where(xd < 0, xd, 0.0)
        return (gx, _unbroadcast(gl, ld.shape))

    _record(out, (x, leak), backward)
    return out


def log_softmax(x: Tensor) -> Tensor:
    """Log-probabilities along the last axis, stabilised by max subtraction."""
    xd = x.data
    if xd.ndim not in (1, 2):
        raise ShapeError(f"log_softmax: expected a vector or (B, n) rows, got shape {xd.shape}")
    if not np.isfinite(xd).all():
        raise ValueError("log_softmax: logits must be finite")
    shifted = xd - xd.max(axis=-1, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = _wrap(out_data)
    _record(out, (x,), lambda g: (g - np.exp(out_data) * g.sum(axis=-1, keepdims=True),))
    return out
