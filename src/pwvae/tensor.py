"""Dense float32 or float64 tensors with taped reverse-mode differentiation.

Operations execute eagerly on numpy arrays.  Inside a ``with Tape():``
block every operation additionally records a backward rule; calling
``Tape.backward`` on a scalar result then accumulates gradients for every
tensor that participated, visiting operations in exact reverse execution
order.  Outside a tape the same functions are plain forward computations.
A backward rule may defer an input gradient (``affine`` defers all three
of its gradients, the KL ops their prior-side gradients); the tape
computes it only once it is needed, so a frozen weight or bias, an input
document or a prior built outside the tape costs nothing.  A caller that
owns an array for a gradient passes it to ``Tape.grad`` as ``out``, and
a deferred ``affine`` product or sum is computed straight into it.

The tape keeps an input's first gradient as the array the rule returned
and adds later gradients into it in place.  It copies that array first
when it is a view (``add`` and ``concat`` return ``g`` or views of it),
is the output's gradient ``g`` or ``g``'s base, is returned again or viewed
by another array the same rule returned, or is not a writable array of
the input's dtype.  These identity checks cost less than the copy they
save, which ``np.may_share_memory`` did not.  This is safe because of the rule
``custom_op`` states: a backward rule never captures, in a deferred
closure, an array it also returns.

Row convention: a batch of documents is a (B, n) matrix with one document
per row, and a single document is a (1, n) row; ``affine`` takes nothing
else.  It multiplies every row by the same weight matrix, so the weight
gradient of a whole batch is one product ``g.T @ x``; ``concat`` acts
along the last axis.  In ``add``, ``sub``, ``mul`` and ``prelu`` an
operand whose shape is the trailing shape of the other (a (n,) parameter
against (B, n) rows) is broadcast, and its gradient is summed over the
broadcast axes.

``prelu`` picks each value and gradient factor with ``_select``, a
bitwise blend on the integer views, not ``np.where``: on rows of random
signs ``np.where`` branches on every element and mispredicts half the
time, and at (100, 500) took several times as long as the blend.  The
blend copies the chosen operand's bits, so results equal ``np.where``'s
at every input; an arithmetic blend such as max(x, 0) + leak * min(x, 0)
would not, since with a negative leak it turns the sign of an exact zero.
``tile_rows`` stacks S copies of rows, and ``row_block`` takes a block of
rows back out; their gradients add the same arrays in the same order as
S separate uses of the rows would, so they keep every bit.

Every op computes in its inputs' dtype, float32 or float64: a Tensor
keeps the dtype of a float32 or float64 array and makes anything else
float64, and an op whose array operands differ in dtype raises
ShapeError naming both rather than promote float32 to float64.  Python
floats act as scalars of the arrays' dtype under every numpy casting
rule; a numpy float64 scalar does not under NEP 50, so no op uses one.

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
]


class ShapeError(ValueError):
    """Operand shapes or dtypes do not conform."""


class TapeError(RuntimeError):
    """Tape used outside its contract (non-scalar root, repeated backward)."""


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _as_float(values) -> np.ndarray:
    """``values`` as an array, not copied if it is one of float32 or float64, whose dtype it keeps; anything else becomes float64."""
    arr = np.asarray(values)
    return arr if arr.dtype in _FLOAT_DTYPES else arr.astype(np.float64)


def _same_dtype(op: str, *arrays: np.ndarray) -> None:
    """Raise ShapeError naming both dtypes unless every array has the first one's."""
    dtype = arrays[0].dtype
    for a in arrays[1:]:
        if a.dtype != dtype:
            raise ShapeError(f"{op}: operands of dtypes {dtype} and {a.dtype} do not mix")


class Tensor:
    """Immutable dense array of 32- or 64-bit floats."""

    __slots__ = ("data",)

    def __init__(self, values):
        arr = np.array(_as_float(values))
        arr.flags.writeable = False
        self.data = arr

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor of shape {self.data.shape} is not scalar")
        return float(self.data.reshape(()))

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    # Arithmetic sugar; Tensor-Tensor ops broadcast a trailing shape, and a
    # python scalar on the right broadcasts elementwise.
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return scale_shift(self, 1.0, float(other))

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return scale_shift(self, 1.0, -float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale_shift(self, float(other), 0.0)


def _wrap(values: np.ndarray) -> Tensor:
    """Wrap an array we own without copying it."""
    t = Tensor.__new__(Tensor)
    arr = _as_float(values)
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
                    dtype = tensor.data.dtype
                    grads[tensor] = gi if callable(gi) or _owned(gi, g, returned, dtype) else np.array(gi, dtype=dtype)
                else:
                    if callable(acc):
                        acc = grads[tensor] = acc()
                    acc += gi() if callable(gi) else gi
        self._grads = grads

    def grad(self, t: Tensor, out: np.ndarray | None = None) -> np.ndarray:
        """The gradient of the root in ``t``; zeros if ``t`` did not contribute.

        Without ``out`` the tape returns the array it holds, computing a
        deferred gradient on the first call and keeping it.  With ``out``,
        a writable array of ``t``'s shape and dtype, the gradient is written
        into ``out``, which is returned: a deferred gradient is computed
        straight into it (``affine``'s weight and bias products are), any
        other is copied.  The tape keeps no reference to ``out``, so the
        caller may reuse it, and a deferred gradient stays deferred.
        """
        if self._grads is None:
            raise TapeError("backward has not run on this tape")
        g = self._grads.get(t)
        if out is None:
            if g is None:
                return np.zeros_like(t.data)
            if callable(g):
                g = self._grads[t] = g()
            return g
        if out.shape != t.data.shape or out.dtype != t.data.dtype or not out.flags.writeable:
            raise ValueError(f"grad: out must be a writable {t.data.dtype} array of shape {t.data.shape}, got {out.dtype} {out.shape}")
        if g is None:
            out.fill(0.0)
            return out
        if callable(g):
            g = g(out)
        if g is not out:
            np.copyto(out, g)
        return out


def _owned(gi, g, returned, dtype) -> bool:
    """Whether the tape may keep a rule's returned ``gi`` as its own gradient of an input of ``dtype``.

    It may when ``gi`` is a writable ``dtype`` array that owns its memory,
    and neither ``g`` nor another array in ``returned`` is or views it.
    An array that owns its memory (``base`` is None) shares it only with
    its views, whose ``base`` numpy sets to it.  So these identity checks
    can stand in for ``np.may_share_memory``, which cost more than the
    copy it saved.
    """
    if type(gi) is not np.ndarray or gi.base is not None or gi is g or g.base is gi or gi.dtype != dtype or not gi.flags.writeable:
        return False
    return sum(1 for other in returned if other is gi or (type(other) is np.ndarray and other.base is gi)) == 1


def custom_op(values, inputs, backward) -> Tensor:
    """Wrap externally computed values as one taped operation.

    ``backward`` maps the output gradient ``g`` to a tuple of input
    gradients aligned with ``inputs``.  An entry may be None (no gradient)
    or a deferred function, which the tape calls only once that input's
    gradient is needed.  A deferred function takes one optional argument,
    ``out``.  Called without it, it returns a fresh array.  ``Tape.grad``
    may call it with ``out``, an array of the input's shape and dtype: it
    then either writes the gradient into ``out`` and returns ``out``, or
    returns a fresh array, which the tape copies into ``out``.

    The tape keeps a returned array as that input's gradient and may add
    into it in place later; it copies first an array that is a view, is
    ``g`` or ``g``'s base, or that another returned array is or views.  A
    deferred function's array is never copied, so it must be fresh.  And
    a rule never captures, in a deferred closure, an array it also returns
    (``g`` itself excepted): the closure would read the array after the
    tape has added into it.
    """
    out = _wrap(values)
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
    _same_dtype("add", a.data, b.data)
    out = _wrap(a.data + b.data)
    _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    _check_broadcast(sa, sb, "sub")
    _same_dtype("sub", a.data, b.data)
    out = _wrap(a.data - b.data)
    _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.data.shape, b.data.shape, "mul")
    ad, bd = a.data, b.data
    _same_dtype("mul", ad, bd)
    out = _wrap(ad * bd)
    _record(out, (a, b), lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)))
    return out


def scale_shift(x: Tensor, scale: float, shift: float) -> Tensor:
    """Elementwise scale*x + shift for python-float scale and shift."""
    out = _wrap(x.data * scale + shift)
    _record(out, (x,), lambda g: (g * scale,))
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b for (B, m) rows x as one taped op.

    w is a (k, m) matrix and b a (k,) bias.  The weight gradient is the
    single product g.T @ x over all rows, and the bias gradient g's sum
    over them.
    """
    wd, xd, bd = w.data, x.data, b.data
    if wd.ndim != 2 or xd.ndim != 2 or xd.shape[1] != wd.shape[1] or bd.shape != wd.shape[:1]:
        raise ShapeError(f"affine: rows {xd.shape}, matrix {wd.shape} and bias {bd.shape} do not conform; expected (B, m) rows, a (k, m) matrix and a (k,) bias")
    _same_dtype("affine", wd, xd, bd)
    out = _wrap(xd @ wd.T + bd)

    # All three gradients are deferred, so a frozen model or an input
    # document whose gradient nobody reads costs nothing.  The bias
    # gradient is a fresh sum for any B, one row included.  Each product
    # and sum is written into ``out`` when ``Tape.grad`` passes one.
    def backward(g):
        return (
            lambda out=None: np.matmul(g, wd, out=out),
            lambda out=None: np.matmul(g.T, xd, out=out),
            lambda out=None: np.sum(g, axis=0, out=out),
        )

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
    _same_dtype("concat", a.data, b.data)
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
        grad = np.full(xd.shape, -0.0, dtype=xd.dtype)
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


def _select(cond: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.where(cond, a, b)`` for float arrays of one dtype, bit for bit, without a branch on every element.

    On the operands' integer views the result is b ^ ((a ^ b) & mask),
    with the mask all ones where ``cond`` holds, so it copies the chosen
    operand's bits, a zero's sign and a NaN's payload included.
    """
    ints = np.dtype(f"u{b.dtype.itemsize}")
    mask = np.negative(cond, dtype=ints)
    mask &= a.view(ints) ^ b.view(ints)
    mask ^= b.view(ints)
    return mask.view(b.dtype)


def prelu(x: Tensor, leak: Tensor) -> Tensor:
    """Elementwise x if x > 0 else leak*x; at exactly 0 the derivative is 1.

    ``leak`` has the trailing shape of x: one learnable value per column
    of (B, n) rows.  Each result is a product with a factor chosen by
    ``_select``: 1.0 * x is x wherever x > 0, so the value, x's gradient
    g * (1.0 or leak) and the leak's g * (x or 0.0) keep the bits of
    choosing with ``np.where``, at every input.
    """
    xd, ld = x.data, leak.data
    if ld.ndim > xd.ndim or xd.shape[xd.ndim - ld.ndim :] != ld.shape:
        raise ShapeError(f"prelu: leak shape {ld.shape} does not match input shape {xd.shape}")
    _same_dtype("prelu", xd, ld)
    one, zero = np.ones((), xd.dtype), np.zeros((), xd.dtype)
    out = _wrap(_select(xd > 0, one, ld) * xd)

    def backward(g):
        gx = g * _select(xd >= 0, one, ld)
        gl = g * _select(xd < 0, xd, zero)
        return (gx, _unbroadcast(gl, ld.shape))

    _record(out, (x, leak), backward)
    return out
