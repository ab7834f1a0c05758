"""PReLU's exact selection against the ``np.where`` oracle over generated inputs.

Examples are derandomized and the example database is off, so every run
checks the same inputs; ``conftest`` picks how many each property draws.
Inputs include NaN, ±inf, subnormals and signed zeros, and leaks of any
sign, at float32 and float64.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pwvae import tensor as T

import nvdm_oracle as oracle

deterministic = settings(derandomize=True, deadline=None, database=None)


@st.composite
def prelu_inputs(draw):
    """(x, leak, upstream) of one dtype: (B, n) rows, a (n,) leak and (B, n) upstream gradients."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    elements = st.floats(width=np.dtype(dtype).itemsize * 8)
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    x = draw(hnp.arrays(dtype, (rows, width), elements=elements))
    leak = draw(hnp.arrays(dtype, width, elements=elements))
    upstream = draw(hnp.arrays(dtype, (rows, width), elements=elements))
    return x, leak, upstream


@deterministic
@given(prelu_inputs())
def test_prelu_equals_the_np_where_oracle_byte_for_byte(case):
    """The value and both gradients; an input that makes 0 * inf or overflows raises no warning here, in either op."""
    with np.errstate(all="ignore"):
        got, want = (oracle.prelu_results(op, *case) for op in (T.prelu, oracle.prelu))
    for i, (g, w) in enumerate(zip(got, want, strict=True)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), i
