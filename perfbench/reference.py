"""Frozen reference computations that measure how fast the machine runs right now.

The benchmark's machine is shared, and its speed drifts with the other
tenants' load: between 40-second windows the same pwvae operation has run
up to 1.3x apart, and every operation slows down and speeds up together.
A spread of medians across runs then cannot tell a slower program from a
busier machine.

Two references stand in for the program's two kinds of work:

* ``ModelReference`` imitates pwvae's per-document numerical work with
  plain numpy at a workload's shape: a dense bag-of-words vector, a
  two-layer tanh encoder, a softmax decoder and the outer-product weight
  gradients of the backward pass.
* ``TextReference`` formats floats to 17 significant digits and parses
  them back, the work of the text checkpoint format.

Neither calls pwvae, so no change to the program changes them.
``Stopwatch`` times an operation and then every reference, and rescales
the operation's time by ``nominal / r``, where ``r`` is the mean of its
kind's reference times just before and just after it.  A rescaled time is
what the operation would have taken while the reference took its nominal
time.
"""

from __future__ import annotations

import time

import numpy as np


class ModelReference:
    """Fixed numpy work shaped like one training pass over ``docs`` documents.

    Every large array is allocated once, here, so the time does not depend
    on the state of the memory allocator, which the program's own
    allocations change.
    """

    def __init__(self, vocab: int, hidden: int, latent: int, docs: int):
        rng = np.random.default_rng(12345)
        self.w0 = rng.normal(0.0, 0.02, (hidden, vocab))
        self.w1 = rng.normal(0.0, 0.05, (hidden, hidden))
        self.r = rng.normal(0.0, 0.05, (vocab, latent))
        self.grads = [np.zeros_like(self.w0), np.zeros_like(self.w1), np.zeros_like(self.r)]
        self.outers = [np.zeros_like(g) for g in self.grads]
        self.x = np.zeros(vocab)
        self.latent = latent
        self.docs = [(rng.choice(vocab, 48, replace=False), rng.integers(1, 4, 48).astype(np.float64)) for _ in range(docs)]

    def seconds(self) -> float:
        (g0, g1, gr), (o0, o1, o_r), x = self.grads, self.outers, self.x
        start = time.perf_counter()
        for ids, counts in self.docs:
            x[:] = 0.0
            x[ids] = counts
            h = np.tanh(self.w0 @ x)
            h2 = np.tanh(self.w1 @ h)
            z = h2[: self.latent]
            logp = self.r @ z
            logp -= logp.max()
            logp -= np.log(np.exp(logp).sum())
            g_logits = x - x.sum() * np.exp(logp)
            gr += np.outer(g_logits, z, out=o_r)
            g_h2 = np.zeros_like(h2)
            g_h2[: self.latent] = self.r.T @ g_logits
            g_a1 = g_h2 * (1.0 - h2 * h2)
            g1 += np.outer(g_a1, h, out=o1)
            g0 += np.outer((self.w1.T @ g_a1) * (1.0 - h * h), x, out=o0)
        return time.perf_counter() - start


class TextReference:
    """Formats ``rows`` x ``cols`` floats as text and parses them back."""

    def __init__(self, rows: int, cols: int):
        self.values = np.random.default_rng(12345).normal(size=(rows, cols)).tolist()

    def seconds(self) -> float:
        start = time.perf_counter()
        text = "\n".join(" ".join(f"{v:.17g}" for v in row) for row in self.values)
        parsed = [float(v) for line in text.splitlines() for v in line.split()]
        if len(parsed) != len(self.values) * len(self.values[0]):
            raise AssertionError("text reference lost values")
        return time.perf_counter() - start


class Stopwatch:
    """Times operations, raw and rescaled to each reference's nominal time.

    ``references`` maps a kind of work to (reference, nominal seconds).
    With no references, the rescaled time equals the raw time.
    """

    def __init__(self, references: dict):
        self.references = references
        self.reference_s: dict[str, list[float]] = {kind: [] for kind in references}
        # At the start of a process the first passes ran up to 4x slower
        # for about half a second while the processor came up to speed,
        # and the first pass also faults in the arrays.  Run the references
        # for a second before any pass counts.
        deadline = time.perf_counter() + 1.0
        while references and time.perf_counter() < deadline:
            for ref, _ in references.values():
                ref.seconds()
        self._last = self._measure()

    def _measure(self) -> dict[str, float]:
        out = {}
        for kind, (ref, _) in self.references.items():
            out[kind] = ref.seconds()
            self.reference_s[kind].append(out[kind])
        return out

    def time(self, kind: str, fn, *args, **kwargs):
        """Call ``fn``; return its result, its raw seconds and its seconds rescaled by the ``kind`` reference."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        if not self.references:
            return result, raw, raw
        before, after = self._last, self._measure()
        self._last = after
        nominal = self.references[kind][1]
        return result, raw, raw * nominal / ((before[kind] + after[kind]) / 2)
