"""Mini-batch training: Adam, global-norm gradient clipping, early stopping.

One tape per batch, documents as rows: a batch's documents are scattered
into (B, V) rows in one call and run through one forward pass of the
bound (one posterior sample per document) and one ``Tape.backward``, so
every weight gradient is a single matrix product over the batch.  After
each epoch the validation bound is estimated with several samples per
document; training stops once it has not improved for ``patience``
epochs and the parameters from the best epoch are returned.

The optimizer side of a step works on flat float64 arrays that ``train``
lays out once per call (``ParamLayout``): the gradient, the Adam moments,
and new-parameter buffers that take turns.  Every parameter's tensor is
a read-only view into one of these buffers.  The tape writes each
parameter's gradient straight into its view of the flat gradient
(``Tape.grad(t, out=...)``, into which ``affine`` and the decoder
compute their weight and bias products), which holds the batch's sum.
``clip_gradients`` reads that sum once for its global norm and returns the
one factor that makes it the clipped mean gradient; a finite norm proves
every gradient finite, so only a non-finite norm costs a scan, and a
non-finite gradient it finds ends training with ``TrainingDiverged``, as
does a batch whose bound is not finite (its variances or logits
overflow).  ``adam_step`` then takes one ascent step on the bound in one
cache-blocked pass, multiplying each block of the summed gradient by
that factor as it reads it, reading the current parameters from their
own arrays and writing the new ones into a spare buffer.  The buffer of
the previous parameters becomes the next step's, unless the best
epoch's parameters live in it: that buffer is kept as it is, and a new
one takes its place.  So after its first two steps a training step
allocates no gradient or parameter array.

Per-document sampling noise is keyed by (seed, stream, step, slot), where
the slot is the document's position in the batch: each step derives one
root from (seed, stream, step), and ``nvdm.noise_keys`` combines it with
each slot, so a batch's noise is one ``nvdm.draw_noises`` call over its
slots' keys.  A seeded run is therefore bit-reproducible, and the batch's
size does not change which noise a document receives.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import evaluation
from .corpus import Corpus
from .nvdm import NvdmModel, _check_documents, batch_bound, draw_noises, noise_keys
from .tensor import Tape, Tensor, _wrap

__all__ = [
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "kl_weight",
    "ParamLayout",
    "global_norm",
    "clip_gradients",
    "AdamState",
    "adam_init",
    "adam_step",
    "train",
]

# Deterministic sub-stream ids for seed derivation.
_STREAM_BATCH_NOISE = 2
_STREAM_SHUFFLE = 1
_STREAM_VALID = 3


class TrainingDiverged(RuntimeError):
    """Non-finite loss or gradients encountered during training."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.002
    batch_size: int = 100
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 5.0
    kl_anneal_batches: int = 0
    max_epochs: int = 50
    patience: int = 10
    seed: int = 0
    valid_samples: int = 5
    # Training runs one tape per batch; 1 is the only value.  perfbench
    # passes threads=1, so the field goes with ROADMAP open item 2's
    # benchmark change.
    threads: int = 1

    def __post_init__(self):
        if self.threads != 1:
            raise ValueError(f"threads must be 1, got {self.threads}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs, and patience must be >= 1")
        if not (self.learning_rate >= 0 and self.clip_norm > 0) or self.kl_anneal_batches < 0:
            raise ValueError("learning_rate must be >= 0, clip_norm > 0, kl_anneal_batches >= 0")
        if self.valid_samples < 1:
            raise ValueError("valid_samples must be >= 1")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ValueError("adam_beta1 and adam_beta2 must lie in [0, 1)")
        if not self.adam_eps > 0.0:
            raise ValueError("adam_eps must be > 0")


def kl_weight(step: int, config: TrainConfig) -> float:
    """Linear KL warm-up: min(1, step / kl_anneal_batches); 1 when disabled."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if config.kl_anneal_batches == 0:
        return 1.0
    return min(1.0, step / config.kl_anneal_batches)


class ParamLayout:
    """Where each parameter lies in a flat float64 array.

    Parameters follow one another in the order of ``shapes``, each as its
    C-ordered values; ``views`` gives every parameter's view of a flat
    array, shaped like the parameter.  ``train`` lays its gradients, Adam
    moments and new parameters out this way, so one numpy call covers
    every parameter.
    """

    def __init__(self, shapes: Mapping[str, tuple]):
        self.shapes = {name: tuple(shape) for name, shape in shapes.items()}
        self.slices: dict[str, slice] = {}
        lo = 0
        for name, shape in self.shapes.items():
            hi = lo + math.prod(shape)
            self.slices[name] = slice(lo, hi)
            lo = hi
        self.size = lo

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's view of ``flat``, a C-contiguous array of ``size`` floats, in layout order."""
        if flat.shape != (self.size,) or not flat.flags.c_contiguous:
            raise ValueError(f"layout of {self.size} floats: expected a C-contiguous ({self.size},) array, got shape {flat.shape}")
        return {name: flat[s].reshape(self.shapes[name]) for name, s in self.slices.items()}


def _check_flat(layout: ParamLayout, **arrays: np.ndarray) -> None:
    for label, a in arrays.items():
        if a.shape != (layout.size,) or a.dtype != np.float64 or not a.flags.c_contiguous:
            raise ValueError(f"{label} must be a C-contiguous float64 array of shape ({layout.size},), got {a.dtype} {a.shape}")


def global_norm(grad: np.ndarray, layout: ParamLayout) -> float:
    """The L2 norm of ``grad``, a flat gradient laid out by ``layout``.

    Each parameter's slice is reduced by one ``einsum`` that writes no
    array and does not go through BLAS, so the norm's bits do not depend
    on the BLAS thread count; the sums are added in layout order.
    """
    _check_flat(layout, gradient=grad)
    return math.sqrt(sum(float(np.einsum("i,i->", grad[s], grad[s])) for s in layout.slices.values()))


def clip_gradients(grad: np.ndarray, layout: ParamLayout, clip_norm: float, n: int) -> float:
    """The factor f by which the summed gradient of ``n`` documents becomes their mean gradient clipped to norm clip_norm.

    ``grad`` is the flat sum laid out by ``layout``; ``f * grad`` is the
    clipped mean, which is ``grad / n`` when that mean's norm is at most
    clip_norm.  ``grad`` is only read, save in the one case below.

    The global norm is computed first, and a finite norm proves every
    gradient finite: an inf or NaN entry makes the sum of squares inf or
    NaN.  Only a non-finite norm leads to a scan of each parameter's
    gradient, which raises ``FloatingPointError`` naming the first
    non-finite one.  If every gradient is finite, only the sum of squares
    overflowed: ``grad`` is then divided in place by its largest
    magnitude, which makes its norm representable, and f is taken
    against the divided gradient.
    """
    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    with np.errstate(over="ignore"):
        norm = global_norm(grad, layout)
    big = 1.0
    if not np.isfinite(norm):
        for name, g in layout.views(grad).items():
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"gradient of {name} is not finite")
        big = float(max(np.max(grad), -np.min(grad)))
        grad /= big
        norm = global_norm(grad, layout)
    return clip_norm / norm if norm > clip_norm * n / big else big / n


# Floats per block of ``adam_step``: a block of g, m, v, p, the new
# parameters and the scratch buffer is 1.5 MiB, so it stays in a 2 MiB L2
# cache between the step's 11 passes.  Adam step at the paper shape
# (1,579,600 floats; Xeon, 2 vCPUs, 2 MiB L2 per core, numpy 2.4.6),
# median of 200 steps with the sizes alternated in one process: 8192 ->
# 18.1 ms, 16384 -> 15.6, 32768 -> 15.4, 65536 -> 16.4, against 26.1 ms
# unblocked; inside ``train``, 17.4, 15.4, 14.8 and 15.4 ms.
_ADAM_CHUNK = 32768


@dataclass
class AdamState:
    """Step count, flat moments of parameters laid out by ``layout``, and ``adam_step``'s scratch block.

    ``m`` holds the first moment divided by 1 - beta1 and ``v`` the second
    divided by 1 - beta2, so a step adds the gradient and its square as they are.
    """

    layout: ParamLayout
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    step: int = 0


def adam_init(layout: ParamLayout) -> AdamState:
    """Zero moments, one flat array each, and a scratch buffer of one block."""
    return AdamState(layout, m=np.zeros(layout.size), v=np.zeros(layout.size), scratch=np.empty(min(_ADAM_CHUNK, layout.size)))


def adam_step(params: Mapping[str, Tensor], grad: np.ndarray, state: AdamState, config: TrainConfig, out: np.ndarray, scale: float) -> np.ndarray:
    """One bias-corrected Adam ascent step over every parameter; ``scale * grad`` is the gradient of the objective to maximise.

    ``grad``, the moments and ``out`` are flat arrays laid out by
    ``state.layout``, and ``params`` must hold the layout's names, in its
    order, with its shapes.  The new parameters are written into ``out``,
    which is returned; ``out`` may overlap no parameter, ``grad`` or
    moment.  Any fault raises ``ValueError`` before ``state`` is touched.
    ``grad`` and ``params`` are read, never written.

    The update is Kingma & Ba's reordering (arXiv:1412.6980, section 2),
    exact in real arithmetic: p + alpha * m / (sqrt(v) + eps_hat), with the
    bias corrections and the moments' scales folded into alpha and eps_hat.

    The step is one pass over the flat arrays in blocks of
    ``_ADAM_CHUNK`` floats, whatever the parameters' boundaries, so a
    block stays in cache across the step's 11 elementwise passes, the
    first of which multiplies the gradient by ``scale``.  Each block's
    current parameters are read from each parameter's own array, with no
    gather copy.  Every element goes through the same operations in the
    same order as in one whole-array pass per parameter, so the result is
    bit-identical to it.  The moments are updated in place, and the
    state's scratch buffer of at most one block holds the temporaries; a
    parameter is copied only when it is not C-contiguous (``ravel``).
    """
    layout = state.layout
    if list(params) != list(layout.shapes):
        unmatched = sorted(params.keys() ^ layout.shapes.keys())
        raise ValueError(f"adam_step: parameters {unmatched or list(params)} do not match the layout's, in its order")
    for name, t in params.items():
        if t.data.shape != layout.shapes[name]:
            raise ValueError(f"adam_step: parameter {name} has shape {t.data.shape}, the layout {layout.shapes[name]}")
    _check_flat(layout, gradient=grad, out=out, first_moment=state.m, second_moment=state.v)
    if state.scratch.shape != (min(_ADAM_CHUNK, layout.size),):
        raise ValueError(f"adam_step: the scratch buffer must hold {min(_ADAM_CHUNK, layout.size)} floats, as adam_init makes it")
    if not out.flags.writeable or any(np.may_share_memory(out, a) for a in (grad, state.m, state.v, *(t.data for t in params.values()))):
        raise ValueError("adam_step: out must be writable and overlap no parameter, gradient or moment")
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    # Kingma & Ba's lr * sqrt(c2) / c1 and eps * sqrt(c2), carried over to
    # moments scaled by 1 / (1 - b1) and 1 / (1 - b2).
    root = math.sqrt(c2 / (1.0 - b2))
    alpha = config.learning_rate * (1.0 - b1) / c1 * root
    eps_hat = config.adam_eps * root
    m, v = state.m, state.v
    # Each parameter's span of the flat arrays and its C-ordered values;
    # ravel copies only a non-contiguous parameter.
    parts = iter([(s.start, s.stop, t.data.ravel()) for s, t in zip(layout.slices.values(), params.values()) if s.stop > s.start])
    a = b = 0
    scratch = state.scratch
    for lo in range(0, layout.size, _ADAM_CHUNK):
        hi = min(lo + _ADAM_CHUNK, layout.size)
        gb, mb, vb, nb = grad[lo:hi], m[lo:hi], v[lo:hi], out[lo:hi]
        s = scratch[: hi - lo]
        np.multiply(gb, scale, out=s)
        mb *= b1
        mb += s
        s *= s
        vb *= b2
        vb += s
        np.sqrt(vb, out=s)
        s += eps_hat
        np.divide(mb, s, out=nb)
        nb *= alpha
        # The parameters spanning [lo, hi), each read from its own array.
        x = lo
        while x < hi:
            while b <= x:
                a, b, p = next(parts)
            y = min(b, hi)
            nb[x - lo : y - lo] += p[x - a : y - a]
            x = y
    return out


@dataclass
class TrainResult:
    model: NvdmModel
    log_lines: list[str]
    best_epoch: int
    best_valid_bound: float
    valid_bounds: list[float]


def _slot_noise(model: NvdmModel, seed: int, step: int, slots):
    """One posterior sample per batch slot, in slot order: row i keyed by (seed, stream, step, ``slots[i]``)."""
    root = np.random.SeedSequence((seed, _STREAM_BATCH_NOISE, step)).generate_state(1, np.uint64)[0]
    return draw_noises(model, 1, noise_keys(root, slots))


def _batch_gradients(model: NvdmModel, corpus: Corpus, batch, w: float, seed: int, step: int, layout: ParamLayout, grad: np.ndarray):
    """Summed-bound gradient of one mini-batch, written into the flat ``grad`` laid out by ``layout``; returns the mean bound, reconstruction and KL terms.

    One forward and one backward over the batch's documents as rows; a
    document's slot is its position in the batch.
    """
    n = len(batch)
    docs = [corpus.docs[di] for di in batch]
    noise = _slot_noise(model, seed, step, range(n))
    views = layout.views(grad)
    # An overflow gives a non-finite bound, which ``train`` reports as
    # divergence; numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"), Tape() as tape:
        rows = batch_bound(model, corpus, docs, noise, kl_weight=w)
        tape.backward(rows.total)
        for name, t in model.named_parameters():
            tape.grad(t, out=views[name])
    return float(rows.total) / n, float(rows.reconstruction.sum()) / n, float(rows.kl_gaussian.sum()) / n, float(rows.kl_piecewise.sum()) / n


def _diagnostic(model: NvdmModel, epoch: int, batch_index: int) -> str:
    # A parameter past about 1e154 overflows its squared norm, which then reads inf.
    with np.errstate(over="ignore"):
        norms = {name: float(np.linalg.norm(t.data)) for name, t in model.named_parameters()}
    worst = sorted(norms.items(), key=lambda kv: -kv[1])[:5]
    snapshot = ", ".join(f"{k}={v:.3e}" for k, v in worst)
    return f"non-finite loss in epoch {epoch}, batch {batch_index}; largest parameter norms: {snapshot}"


def train(model: NvdmModel, corpus_train: Corpus, corpus_valid: Corpus, config: TrainConfig, log_stream=None) -> TrainResult:
    """Train to the best validation bound; returns that epoch's parameters.

    The training log has one tab-separated line per epoch:
    ``epoch train_bound valid_bound kl_g kl_p wallclock_s``.  Both corpora
    are checked before the first step: a vocabulary that does not match
    the model raises ShapeError, and a document without tokens ValueError.
    """
    if len(corpus_train) == 0 or len(corpus_valid) == 0:
        raise ValueError("training and validation corpora must be non-empty")
    for name, corpus in (("training", corpus_train), ("validation", corpus_valid)):
        try:
            _check_documents(model, corpus, corpus.docs)
        except ValueError as exc:
            raise type(exc)(f"{name} corpus: {exc}") from None
    params = dict(model.params)
    layout = ParamLayout({name: t.data.shape for name, t in params.items()})
    state = adam_init(layout)
    grad = np.empty(layout.size)
    # Each step writes the new parameters into a spare flat buffer, and the
    # model's tensors are read-only views of it.  The buffer of the previous
    # parameters then becomes spare, unless ``best_params`` holds it: that
    # one is never written again, and a new buffer takes its turn.
    spare: list[np.ndarray] = []
    current = held = None
    best_params = params
    best_valid = -np.inf
    best_epoch = 0
    epochs_since_best = 0
    step = 0
    log_lines: list[str] = []
    valid_bounds: list[float] = []
    start = time.monotonic()

    for epoch in range(1, config.max_epochs + 1):
        shuffle_rng = np.random.default_rng((config.seed, _STREAM_SHUFFLE, epoch))
        order = shuffle_rng.permutation(len(corpus_train))
        epoch_bound = epoch_recon = epoch_kl_g = epoch_kl_p = 0.0
        batches = 0
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            w = kl_weight(step, config)
            bound, recon, kl_g, kl_p = _batch_gradients(model, corpus_train, batch, w, config.seed, step, layout, grad)
            if not np.isfinite(bound):
                raise TrainingDiverged(_diagnostic(model, epoch, batches))
            try:
                scale = clip_gradients(grad, layout, config.clip_norm, len(batch))
            except FloatingPointError as exc:
                raise TrainingDiverged(f"{_diagnostic(model, epoch, batches)}; {exc}") from exc
            out = spare.pop() if spare else np.empty(layout.size)
            adam_step(params, grad, state, config, out, scale)
            if current is not None and current is not held:
                spare.append(current)
            current = out
            params = {name: _wrap(view) for name, view in layout.views(out).items()}
            model = model.replaced(params)
            step += 1
            batches += 1
            epoch_bound += bound
            epoch_recon += recon
            epoch_kl_g += kl_g
            epoch_kl_p += kl_p

        valid_rng = np.random.default_rng((config.seed, _STREAM_VALID))
        valid_report = evaluation.evaluate(model, corpus_valid, num_samples=config.valid_samples, rng=valid_rng)
        valid_bound = valid_report.mean_bound
        valid_bounds.append(valid_bound)
        line = (
            f"{epoch}\t{epoch_bound / batches:.6f}\t{valid_bound:.6f}\t"
            f"{epoch_kl_g / batches:.6f}\t{epoch_kl_p / batches:.6f}\t{time.monotonic() - start:.3f}"
        )
        log_lines.append(line)
        if log_stream is not None:
            print(line, file=log_stream, flush=True)

        if valid_bound > best_valid:
            best_valid = valid_bound
            best_epoch = epoch
            if held is not None and held is not current:
                spare.append(held)
            held = current
            best_params = params
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break

    return TrainResult(
        model=model.replaced(best_params),
        log_lines=log_lines,
        best_epoch=best_epoch,
        best_valid_bound=best_valid,
        valid_bounds=valid_bounds,
    )
