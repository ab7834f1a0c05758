"""Mini-batch training: Adam, global-norm gradient clipping, early stopping.

One tape per batch, documents as rows: a batch's documents are scattered
into (B, V) rows in one call and run through one forward pass of the
bound (one posterior sample per document) and one ``Tape.backward``, so
every weight gradient is a single matrix product over the batch.  After
each epoch the validation bound is estimated with several samples per
document; training stops once it has not improved for ``patience``
epochs and the parameters from the best epoch are returned.

The optimizer side of a step works on flat arrays of the model's dtype,
float32 or float64, that ``train`` lays out once per call
(``ParamLayout``): the parameters, the gradient and the Adam moments.
``train`` copies the caller's parameters into its flat buffer once; the
model it trains reads them through read-only views, and the caller's
arrays are never written.  The tape writes each
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
that factor as it reads it and updating the parameters in place.  The
best epoch's parameters are kept copy-on-write: an improving epoch only
marks them as the best, and the next step, if any, first copies them
into a snapshot allocated at most once per call.  So a step allocates no
gradient or parameter array, and a call whose last epoch is its best
copies nothing.

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
from .tensor import Tape, _wrap

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
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be >= 0 and finite, got {self.learning_rate}")
        # An infinite clip_norm means no clipping.
        if not self.clip_norm > 0 or self.kl_anneal_batches < 0:
            raise ValueError("clip_norm > 0 and kl_anneal_batches >= 0 are required")
        if self.valid_samples < 1:
            raise ValueError("valid_samples must be >= 1")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ValueError("adam_beta1 and adam_beta2 must lie in [0, 1)")
        if not 0.0 < self.adam_eps < math.inf:
            raise ValueError(f"adam_eps must be > 0 and finite, got {self.adam_eps}")


def kl_weight(step: int, config: TrainConfig) -> float:
    """Linear KL warm-up: min(1, step / kl_anneal_batches); 1 when disabled."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if config.kl_anneal_batches == 0:
        return 1.0
    return min(1.0, step / config.kl_anneal_batches)


class ParamLayout:
    """Where each parameter lies in a flat array of ``dtype``, the parameters' float32 or float64.

    Parameters follow one another in the order of ``shapes``, each as its
    C-ordered values; ``views`` gives every parameter's view of a flat
    array, shaped like the parameter.  ``train`` lays its parameters,
    gradients and Adam moments out this way, in the model's dtype, so one
    numpy call covers every parameter.
    """

    def __init__(self, shapes: Mapping[str, tuple], dtype):
        self.dtype = np.dtype(dtype)
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
        if a.shape != (layout.size,) or a.dtype != layout.dtype or not a.flags.c_contiguous:
            raise ValueError(f"{label} must be a C-contiguous {layout.dtype} array of shape ({layout.size},), got {a.dtype} {a.shape}")


def global_norm(grad: np.ndarray, layout: ParamLayout) -> float:
    """The L2 norm of ``grad``, a flat gradient laid out by ``layout``.

    Each parameter's slice is reduced by one ``einsum`` that writes no
    array and does not go through BLAS, so the norm's bits do not depend
    on the BLAS thread count; the sums, in the gradient's dtype, are
    added in layout order as Python floats.
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
    overflowed, as it does for a norm past about 1.8e19 at float32 and
    1.3e154 at float64: ``grad`` is then divided in place by its largest
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


# Floats per block of ``adam_step``: a block of g, m, v, p and the scratch
# buffer is 1.25 MiB at float64 and 640 KiB at float32, so it stays in a
# 2 MiB L2 cache between the step's 11 passes.  Adam step inside ``train``
# at the paper shape (1,579,600 float64s; Xeon, 2 vCPUs, 2 MiB L2 per
# core, numpy 2.4.6), median of 60 steps per size with the sizes
# alternated in one process: 16384 -> 10.2 ms, 32768 -> 10.2, 65536 ->
# 10.5.  At float32, timed alone the same way: 16384 -> 6.4 ms, 32768 ->
# 5.7, 65536 -> 5.4, 131072 -> 5.6.
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
    """Zero moments, one flat array each, and a scratch buffer of one block, all of the layout's dtype."""
    dtype = layout.dtype
    return AdamState(layout, m=np.zeros(layout.size, dtype), v=np.zeros(layout.size, dtype), scratch=np.empty(min(_ADAM_CHUNK, layout.size), dtype))


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState, config: TrainConfig, scale: float) -> None:
    """One bias-corrected Adam ascent step, in place on the flat ``params``; ``scale * grad`` is the gradient of the objective to maximise.

    ``params``, ``grad`` and the moments are flat arrays laid out by
    ``state.layout``.  ``params`` must be writable and may overlap neither
    ``grad`` nor a moment.  Any fault raises ``ValueError`` before
    ``params`` or ``state`` is touched.  ``grad`` is read, never written.

    The update is Kingma & Ba's reordering (arXiv:1412.6980, section 2),
    exact in real arithmetic: p + alpha * m / (sqrt(v) + eps_hat), with the
    bias corrections and the moments' scales folded into alpha and eps_hat.

    The step is one pass over the flat arrays in blocks of
    ``_ADAM_CHUNK`` floats, whatever the parameters' boundaries, so a
    block stays in cache across the step's 11 elementwise passes, the
    first of which multiplies the gradient by ``scale``.  Every element
    goes through the same operations in the same order as in one
    whole-array pass per parameter, so the result is bit-identical to it.
    The parameters and the moments are updated in place, and the state's
    scratch buffer of at most one block holds the temporaries.
    """
    layout = state.layout
    _check_flat(layout, params=params, gradient=grad, first_moment=state.m, second_moment=state.v)
    if state.scratch.shape != (min(_ADAM_CHUNK, layout.size),) or state.scratch.dtype != layout.dtype:
        raise ValueError(f"adam_step: the scratch buffer must hold {min(_ADAM_CHUNK, layout.size)} {layout.dtype} floats, as adam_init makes it")
    if not params.flags.writeable or any(np.may_share_memory(params, a) for a in (grad, state.m, state.v)):
        raise ValueError("adam_step: params must be writable and overlap no gradient or moment")
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
    scratch = state.scratch
    for lo in range(0, layout.size, _ADAM_CHUNK):
        hi = min(lo + _ADAM_CHUNK, layout.size)
        gb, mb, vb, pb = grad[lo:hi], m[lo:hi], v[lo:hi], params[lo:hi]
        s = scratch[: hi - lo]
        np.multiply(gb, scale, out=s)
        mb *= b1
        mb += s
        s *= s
        vb *= b2
        vb += s
        np.sqrt(vb, out=s)
        s += eps_hat
        np.divide(mb, s, out=s)
        s *= alpha
        pb += s


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
    """Summed-bound gradient of one mini-batch, written into the flat ``grad`` laid out by ``layout``; returns the mean bound and KL terms.

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
    return float(rows.total) / n, float(rows.kl_gaussian.sum()) / n, float(rows.kl_piecewise.sum()) / n


def _diagnostic(model: NvdmModel, epoch: int, batch_index: int) -> str:
    # A parameter past about 1e154 (1.8e19 at float32) overflows its squared norm, which then reads inf.
    with np.errstate(over="ignore"):
        norms = {name: float(np.linalg.norm(t.data)) for name, t in model.named_parameters()}
    worst = sorted(norms.items(), key=lambda kv: -kv[1])[:5]
    snapshot = ", ".join(f"{k}={v:.3e}" for k, v in worst)
    return f"non-finite loss in epoch {epoch}, batch {batch_index}; largest parameter norms: {snapshot}"


def _viewing(model: NvdmModel, layout: ParamLayout, flat: np.ndarray) -> NvdmModel:
    """The model with every parameter a read-only view of ``flat``, laid out by ``layout``."""
    return model.replaced({name: _wrap(view) for name, view in layout.views(flat).items()})


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
    layout = ParamLayout({name: t.data.shape for name, t in model.named_parameters()}, model.dtype)
    state = adam_init(layout)
    grad = np.empty(layout.size, layout.dtype)
    # The parameters, which ``adam_step`` updates in place and ``trained``
    # reads.  While ``flat_is_best``, they are the best epoch's; the next
    # step first copies them into ``best``.
    flat = np.empty(layout.size, layout.dtype)
    for name, view in layout.views(flat).items():
        view[...] = model.params[name].data
    trained = _viewing(model, layout, flat)
    flat_is_best = False
    best = None
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
        epoch_bound = epoch_kl_g = epoch_kl_p = 0.0
        batches = 0
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            w = kl_weight(step, config)
            bound, kl_g, kl_p = _batch_gradients(trained, corpus_train, batch, w, config.seed, step, layout, grad)
            if not np.isfinite(bound):
                raise TrainingDiverged(_diagnostic(trained, epoch, batches))
            try:
                scale = clip_gradients(grad, layout, config.clip_norm, len(batch))
            except FloatingPointError as exc:
                raise TrainingDiverged(f"{_diagnostic(trained, epoch, batches)}; {exc}") from exc
            if flat_is_best:
                if best is None:
                    best = np.empty(layout.size, layout.dtype)
                best[...] = flat
                flat_is_best = False
            adam_step(flat, grad, state, config, scale)
            step += 1
            batches += 1
            epoch_bound += bound
            epoch_kl_g += kl_g
            epoch_kl_p += kl_p

        valid_rng = np.random.default_rng((config.seed, _STREAM_VALID))
        valid_report = evaluation.evaluate(trained, corpus_valid, num_samples=config.valid_samples, rng=valid_rng)
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
            flat_is_best = True
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break

    if not flat_is_best:
        # ``best`` is None here only if no epoch improved on -inf, as every
        # validation bound was -inf: the caller's parameters are the best.
        trained = model if best is None else _viewing(model, layout, best)
    return TrainResult(
        model=trained,
        log_lines=log_lines,
        best_epoch=best_epoch,
        best_valid_bound=best_valid,
        valid_bounds=valid_bounds,
    )
