"""The tape's gradients against ``tape_oracle``'s, byte for byte, over generated graphs.

Each graph reuses two or three leaves: two (B, n) rows and, in some
graphs, a (n,) vector that broadcasts.  Its ops are drawn from ``add``,
``sub``, ``mul``, ``scale_shift``, ``concat``, ``tile_rows`` with
``row_block``, ``affine`` (whose weight may be a leaf, or a weight that
another ``affine`` shares), ``prelu`` and ``custom_op`` rules that return
``g``, views of it or fresh arrays, at float32 or float64.  Every
tensor's gradient, read with ``tape.grad(t)`` and with ``tape.grad(t,
out=...)``, must equal the oracle tape's, both as it kept or copied the
first array a rule returned and copying it always.  Examples are
derandomized and the example database is off, so every run checks the
same graphs; ``conftest`` picks how many each property draws.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pwvae import tensor as T

import tape_oracle
import tensor_oracle as TO

deterministic = settings(derandomize=True, deadline=None, database=None)


def _one_for_two(g):
    h = g * 1.0
    return h, h


def _fresh_view(g):
    return ((g * 1.0)[:],)


# custom_op rules: how many operands, the values from their arrays, and
# the backward.  A deferred closure reads only g, as the oracle tape requires.
RULES = {
    "returns_g": (1, lambda a: a, lambda g: (g,)),
    "returns_a_view_of_g": (1, lambda a: a, lambda g: (g[:],)),
    "returns_a_fresh_array": (1, lambda a: 2.0 * a, lambda g: (g * 2.0,)),
    "returns_a_view_of_a_fresh_array": (1, lambda a: a, _fresh_view),
    "returns_one_array_for_two_inputs": (2, lambda a, b: a + b, _one_for_two),
    "defers_a_gradient_that_reads_g": (2, lambda a, b: a - b, lambda g: (g, lambda out=None: np.negative(g, out=out))),
}
# The binary ops; either operand may be a broadcast vector.
BINARY = {"add": T.add, "sub": TO.sub, "mul": T.mul}
OPS = (*BINARY, "scale_shift", "concat", "tile_rows", "affine", "prelu", *RULES)


@st.composite
def graphs(draw):
    """(dtype, rows, width, vector leaf?, steps, seed, held gradients read first?); each step is an op and three integers that pick its operands and settings."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rows, width = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    steps = draw(st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 255), st.integers(0, 255), st.integers(1, 3)), min_size=1, max_size=6))
    return dtype, rows, width, draw(st.booleans()), steps, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


def build(dtype, rows, width, with_vector, steps, seed):
    """The graph's scalar root and every tensor it made, in order; call it inside a tape.

    The root sums, with random weights, the tensors no op consumed, so a
    consumed tensor's first gradient is the one its last consumer's rule
    returned: ``g``, a view of it or a fresh array.
    """
    rng = np.random.default_rng(seed)
    tensor = lambda *shape: T.Tensor(rng.normal(size=shape).astype(dtype))
    leaves = [tensor(rows, width), tensor(rows, width)]
    vector = tensor(width) if with_vector else None
    made = leaves + ([vector] if with_vector else [])
    pool, weights, used = list(leaves), {}, set()

    def keep(t):
        made.append(t)
        return t

    def apply(op, *args, operands=()):
        """``op(*args)``, kept; its tensor arguments and ``operands`` count as consumed unless it returned one of them."""
        out = keep(op(*args))
        used.update(id(t) for t in (*args, *operands) if isinstance(t, T.Tensor) and t is not out)
        return out

    def broadcast(a, k):
        """The vector leaf when it broadcasts against a and k is odd, else None."""
        return vector if vector is not None and k % 2 and a.data.shape[1:] == vector.data.shape else None

    def partner(a, k):
        """A pool tensor of a's shape."""
        same = [t for t in pool if t.data.shape == a.data.shape]
        return same[k // 2 % len(same)]

    for op, i, k, p in steps:
        a = pool[i % len(pool)]
        if op in BINARY:
            b = broadcast(a, k) or partner(a, k)
            pool.append(apply(BINARY[op], *((b, a) if p == 2 else (a, b))))
        elif op == "scale_shift":
            pool.append(apply(T.scale_shift, a, (-2.0, 0.5, 3.0)[k % 3], 1.0))
        elif op == "concat":
            pool.append(apply(TO.concat, a, pool[k % len(pool)]))
        elif op == "tile_rows":
            tiled = apply(TO.tile_rows, a, p)
            pool.extend(apply(TO.row_block, tiled, s * rows, (s + 1) * rows) for s in range(p))
        elif op == "affine":
            shape = (p, a.data.shape[1])
            leaf = [t for t in leaves if t.data.shape == shape]
            if leaf and k % 2:
                w = leaf[k // 2 % len(leaf)]
            else:
                if shape not in weights:
                    weights[shape] = keep(tensor(*shape))
                w = weights[shape]
            pool.append(apply(T.affine, a, w, keep(tensor(p))))
        elif op == "prelu":
            leak = broadcast(a, k) or keep(T.Tensor(rng.uniform(-1.0, 1.0, a.data.shape[1:]).astype(dtype)))
            pool.append(apply(T.prelu, a, leak))
        else:
            arity, forward, rule = RULES[op]
            operands = (a, partner(a, k))[:arity]
            pool.append(apply(T.custom_op, forward(*(t.data for t in operands)), operands, rule, operands=operands))
    sinks = [t for t in pool + ([vector] if with_vector else []) if id(t) not in used]
    terms = [T.sum_all(T.mul(t, keep(tensor(*t.data.shape)))) for t in sinks]
    root = terms[0]
    for term in terms[1:]:
        root = T.add(root, term)
    return root, made


def gradients(dtype, rows, width, with_vector, steps, seed, held_first):
    """Every tensor's gradient, read with ``tape.grad(t)`` and with ``tape.grad(t, out=...)``, in the order ``held_first`` picks."""
    with np.errstate(all="ignore"):
        with T.Tape() as tape:
            root, made = build(dtype, rows, width, with_vector, steps, seed)
            tape.backward(root)
        held = lambda: [tape.grad(t) for t in made]
        written = lambda: [tape.grad(t, out=np.full(t.data.shape, np.nan, dtype=t.data.dtype)) for t in made]
        return held() + written() if held_first else written() + held()


@deterministic
@given(graphs())
def test_gradients_equal_the_oracle_tapes_byte_for_byte(case):
    got = gradients(*case)
    for copy_all in (False, True):
        with tape_oracle.swapped_in(copy_all):
            want = gradients(*case)
        for i, (g, w) in enumerate(zip(got, want, strict=True)):
            assert type(g) is np.ndarray and g.dtype == w.dtype == case[0] and g.shape == w.shape and g.tobytes() == w.tobytes(), (copy_all, i)
