"""Test-side tape oracle: the reverse pass that added a tensor's later gradients into the first array a rule returned.

``backward`` and ``_owned`` are that tape's, verbatim.  It kept a
returned array as a tensor's gradient only when ``_owned`` found that
nothing else held it, copied it otherwise, and then added into it in
place.  Rules that never read, in a deferred closure, an array they also
return get the same bytes from it as from ``Tape.backward``, which adds
out of place.  ``swapped_in`` puts it in ``Tape.backward``'s place, and
with ``copy_all`` makes it copy every first gradient it keeps.
"""

import contextlib
import sys

import numpy as np
import pytest

from pwvae import tensor as T
from pwvae.tensor import Tensor, TapeError


@contextlib.contextmanager
def swapped_in(copy_all=False):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(T.Tape, "backward", backward)
        if copy_all:
            patch.setattr(sys.modules[__name__], "_owned", lambda *args: False)
        yield


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
