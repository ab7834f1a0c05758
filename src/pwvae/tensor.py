"""Dense float32 or float64 tensors with taped reverse-mode differentiation.

Operations execute eagerly on numpy arrays.  Inside a ``with Tape():``
block every operation additionally records a backward rule; calling
``Tape.backward`` on a scalar result then accumulates gradients for every
tensor that participated, visiting operations in exact reverse execution
order.  Outside a tape the same functions are plain forward computations.
Every op, built in here or defined elsewhere (the decoder likelihood,
the KL ops, the piecewise sampler), is one call of ``custom_op``: it
computes its values and backward rule and hands both, with its input
tensors, to ``custom_op``, which alone wraps and records them.
A backward rule may defer an input gradient (``affine`` defers all three
of its gradients, the KL ops their prior-side gradients); the tape
computes it only once it is needed, so a frozen weight or bias, an input
document or a prior built outside the tape costs nothing.  A caller that
owns an array for a gradient passes it to ``Tape.grad`` as ``out``, and
a deferred ``affine`` product or sum is computed straight into it.

The tape never writes into a gradient: it adds a tensor's gradients out
of place, and backward rules never write into the output's gradient
``g``.  So a rule may return ``g``, a view of it or an array that one
of its deferred closures also reads, and one array may be the gradient
of several tensors (``add`` hands ``g`` to both operands, ``concat``
and ``tile_rows`` views of it); ``Tape.grad`` therefore hands out the
gradients it holds read-only.

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


class _ActiveTapes(threading.local):
    """The tapes recording in one thread, innermost last."""

    def __init__(self):
        self.stack = []


_LOCAL = _ActiveTapes()


def _record(out: Tensor, inputs, backward) -> None:
    if _LOCAL.stack:
        _LOCAL.stack[-1]._records.append((out, inputs, backward))


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
        _LOCAL.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _LOCAL.stack.pop()
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
                if acc is not None:
                    gi = (acc() if callable(acc) else acc) + (gi() if callable(gi) else gi)
                grads[tensor] = gi
        self._grads = grads

    def grad(self, t: Tensor, out: np.ndarray | None = None) -> np.ndarray:
        """The gradient of the root in ``t``; zeros if ``t`` did not contribute.

        Without ``out`` the tape returns the array it holds, read-only and
        of ``t``'s dtype, computing a deferred gradient on the first call
        and keeping it.  It is read-only because one array may be the
        gradient of several tensors, or a view of another's.  With ``out``,
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
                g = np.zeros_like(t.data)
            else:
                # A rule's product with a 0-d g can be a numpy scalar, which has no flags.
                g = self._grads[t] = np.asarray(g() if callable(g) else g, dtype=t.data.dtype)
            g.flags.writeable = False
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


def custom_op(values, inputs, backward) -> Tensor:
    """Wrap computed values as one taped operation and return them as a Tensor.

    This is the one way an op is built: every op in this module ends in
    a call of it, as do the ops other modules define, so an op call that
    computes anything is exactly one record on the active tape.

    ``backward`` maps the output gradient ``g`` to a tuple of input
    gradients aligned with ``inputs``.  An entry may be None (no gradient)
    or a deferred function, which the tape calls only once that input's
    gradient is needed.  A deferred function takes one optional argument,
    ``out``.  Called without it, it returns a fresh array.  ``Tape.grad``
    may call it with ``out``, an array of the input's shape and dtype: it
    then either writes the gradient into ``out`` and returns ``out``, or
    returns a fresh array, which the tape copies into ``out``.

    Neither the rule nor the tape writes into ``g`` or into an array the
    rule returned, so an entry may be ``g``, a view of it or an array a
    deferred function also reads.
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
    """Sum a gradient over the leading axes along which an operand of trailing ``shape`` was broadcast."""
    if g.shape == shape:
        return g
    lead = g.shape[: g.ndim - len(shape)]
    # Summing over axes of size 1 would turn -0.0 into +0.0; a reshape keeps it.
    return g.reshape(shape) if all(n == 1 for n in lead) else g.sum(axis=tuple(range(len(lead))))


def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    _check_broadcast(sa, sb, "add")
    _same_dtype("add", a.data, b.data)
    return custom_op(a.data + b.data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    _check_broadcast(sa, sb, "sub")
    _same_dtype("sub", a.data, b.data)
    return custom_op(a.data - b.data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.data.shape, b.data.shape, "mul")
    ad, bd = a.data, b.data
    _same_dtype("mul", ad, bd)
    return custom_op(ad * bd, (a, b), lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)))


def scale_shift(x: Tensor, scale: float, shift: float) -> Tensor:
    """Elementwise scale*x + shift for python-float scale and shift."""
    return custom_op(x.data * scale + shift, (x,), lambda g: (g * scale,))


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

    # All three gradients are deferred, so a frozen model or an input
    # document whose gradient nobody reads costs nothing.  Each product
    # and sum is written into ``out`` when ``Tape.grad`` passes one.
    def backward(g):
        return (
            lambda out=None: np.matmul(g, wd, out=out),
            lambda out=None: np.matmul(g.T, xd, out=out),
            lambda out=None: np.sum(g, axis=0, out=out),
        )

    return custom_op(xd @ wd.T + bd, (x, w, b), backward)


def sum_all(x: Tensor) -> Tensor:
    xd = x.data
    return custom_op(xd.sum(), (x,), lambda g: (g * np.ones_like(xd),))


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenation along the last axis; leading axes must agree."""
    if a.data.ndim == 0 or a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeError(f"concat: shapes {a.data.shape} and {b.data.shape} differ before the last axis")
    _same_dtype("concat", a.data, b.data)
    na = a.data.shape[-1]
    return custom_op(np.concatenate([a.data, b.data], axis=-1), (a, b), lambda g: (g[..., :na], g[..., na:]))


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
    return custom_op(np.tile(xd, (reps, 1)), (x,) * reps, lambda g: tuple(g[s * b : (s + 1) * b] for s in reversed(range(reps))))


def row_block(x: Tensor, lo: int, hi: int) -> Tensor:
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


def exp_clamped(x: Tensor, lo: float = -30.0, hi: float = 30.0) -> Tensor:
    """exp of x clamped to [lo, hi]; gradient is zero outside the clamp range."""
    xd = x.data
    y = np.exp(np.minimum(np.maximum(xd, lo), hi))
    return custom_op(y, (x,), lambda g: (g * y * ((xd >= lo) & (xd <= hi)),))


def sqrt(x: Tensor) -> Tensor:
    xd = x.data
    if np.any(xd < 0.0):
        raise ValueError("sqrt: input must be non-negative")
    y = np.sqrt(xd)
    return custom_op(y, (x,), lambda g: (g * 0.5 / y,))


def _sigmoid(v: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(x: Tensor) -> Tensor:
    """Elementwise log(1 + exp(x)), overflow safe; derivative is the sigmoid."""
    xd = x.data
    return custom_op(np.logaddexp(0.0, xd), (x,), lambda g: (g * _sigmoid(xd),))


def softsign(x: Tensor) -> Tensor:
    """Elementwise v / (1 + |v|); derivative 1 / (1 + |v|)^2."""
    xd = x.data
    denom = 1.0 + np.abs(xd)
    return custom_op(xd / denom, (x,), lambda g: (g / (denom * denom),))


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

    def backward(g):
        gx = g * _select(xd >= 0, one, ld)
        gl = g * _select(xd < 0, xd, zero)
        return (gx, _unbroadcast(gl, ld.shape))

    return custom_op(_select(xd > 0, one, ld) * xd, (x, leak), backward)
