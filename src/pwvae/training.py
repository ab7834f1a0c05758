"""Mini-batch training: Adam, global-norm gradient clipping, early stopping.

One tape per shard, documents as rows: a batch's documents are scattered
into (B, V) rows in one call and run through one forward pass of the
bound (one posterior sample per document) and one ``Tape.backward``, so
every weight gradient is a single matrix product over the batch.  After
each epoch the validation bound is estimated with several samples per
document; training stops once it has not improved for ``patience``
epochs and the parameters from the best epoch are returned.

The optimizer side of a step works in place on arrays the trainer owns.
Each tape builds its gradient arrays fresh, so later shards are added into
shard 0's arrays and the sum is divided by the batch size to get the
mean-bound gradient.  ``clip_gradients`` computes the global norm once; a
finite norm proves every gradient finite, so only a non-finite norm costs a
scan, and a non-finite gradient it finds ends training with
``TrainingDiverged``, as does a batch whose bound is not finite (its
variances or logits overflow).  ``adam_step`` then
takes one ascent step on the bound, cache-sized block by block, updating
the moments in place; its only new arrays are the new parameters.

Per-document sampling noise is keyed by (seed, stream, step, slot), where
the slot is the document's position in the batch: each step derives one
root from (seed, stream, step), and ``nvdm.noise_keys`` combines it with
each slot, so a shard's noise is one ``nvdm.draw_noises`` call over its
slots' keys.  A seeded run is therefore bit-reproducible, and neither the
batch's size nor sharding it over ``threads`` (each shard one batched
tape) changes which noise a document receives.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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
    threads: int = 1

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1 or self.threads < 1:
            raise ValueError("batch_size, max_epochs, patience, and threads must be >= 1")
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


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def clip_gradients(grads: dict[str, np.ndarray], clip_norm: float) -> dict[str, np.ndarray]:
    """Rescale all gradients in place so the global L2 norm is at most clip_norm; returns ``grads``.

    The arrays are overwritten, so the caller must own them, as ``train``
    owns the gradients ``_batch_gradients`` hands it for every batch.

    The global norm is computed first, and a finite norm proves every
    gradient finite: an inf or NaN entry makes the sum of squares inf or
    NaN.  Only a non-finite norm leads to a scan of each array, which
    raises ``FloatingPointError`` naming the first non-finite gradient.
    If every gradient is finite, only the sum of squares overflowed: the
    gradients are then divided by their largest magnitude, which makes
    their norm representable, and clipped by that norm.
    """
    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    with np.errstate(over="ignore"):
        norm = global_norm(grads)
    if np.isfinite(norm):
        scale = clip_norm / norm if norm > clip_norm else 1.0
    else:
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"gradient of {name} is not finite")
        peak = max(float(np.max(np.abs(g))) for g in grads.values() if g.size)
        for g in grads.values():
            g /= peak
        scale = clip_norm / global_norm(grads)
    if scale != 1.0:
        for g in grads.values():
            g *= scale
    return grads


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_init(params: dict[str, Tensor]) -> AdamState:
    """Zero moments, C-contiguous whatever the parameters' layout, so ``adam_step`` can update flat views."""
    return AdamState(
        step=0,
        m={name: np.zeros(t.data.shape) for name, t in params.items()},
        v={name: np.zeros(t.data.shape) for name, t in params.items()},
    )


# Floats per block of ``adam_step``: a block of g, m, v, p, the new
# parameters and the scratch buffer is 1.5 MiB, so it stays in a 2 MiB L2
# cache between the step's 14 passes.  Adam step at the paper shape
# (1,579,600 floats; Xeon, 2 vCPUs, 2 MiB L2 per core, numpy 2.4.6),
# median of 5 processes of 100 steps each: 8192 -> 19.7 ms, 16384 -> 17.7,
# 32768 -> 17.3, 65536 -> 17.6, against 22.3 ms unblocked.
_ADAM_CHUNK = 32768


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> dict[str, Tensor]:
    """One bias-corrected Adam ascent step; ``grads`` are gradients of the objective to maximise.

    ``grads`` must hold exactly the parameters' names and shapes, and the
    moments must be C-contiguous, as ``adam_init`` makes them; otherwise
    ``ValueError`` names the parameter before ``state`` is touched.

    The step runs over flat views of each parameter in blocks of
    ``_ADAM_CHUNK`` floats, so a block stays in cache across the step's
    elementwise passes.  Every element goes through the same operations in
    the same order as in one whole-array pass, so the result is
    bit-identical to it.  The moments are updated in place, one scratch
    buffer of at most one block holds the temporaries, and the new
    parameters, C-contiguous, are the only other arrays allocated.
    ``grads`` are read, never written.
    """
    unmatched = sorted(params.keys() ^ grads.keys())
    if unmatched:
        raise ValueError(f"adam_step: parameters without a gradient or gradients without a parameter: {unmatched}")
    for name, t in params.items():
        if grads[name].shape != t.data.shape:
            raise ValueError(f"adam_step: gradient of {name} has shape {grads[name].shape}, the parameter {t.data.shape}")
        if not all(a.shape == t.data.shape and a.flags.c_contiguous for a in (state.m[name], state.v[name])):
            raise ValueError(f"adam_step: moments of {name} must be C-contiguous with shape {t.data.shape}, as adam_init makes them")
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    lr, eps = config.learning_rate, config.adam_eps
    scratch = np.empty(min(_ADAM_CHUNK, max((t.data.size for t in params.values()), default=0)))
    out: dict[str, Tensor] = {}
    for name, t in params.items():
        # ravel reads p and g in C order, copying only a non-contiguous
        # array; m and v were checked C-contiguous, so theirs are views.
        p, g, m, v = t.data.ravel(), grads[name].ravel(), state.m[name].ravel(), state.v[name].ravel()
        new = np.empty_like(p)
        for lo in range(0, p.size, _ADAM_CHUNK):
            hi = lo + _ADAM_CHUNK
            gb, mb, vb, nb = g[lo:hi], m[lo:hi], v[lo:hi], new[lo:hi]
            s = scratch[: gb.size]
            np.multiply(gb, 1.0 - b1, out=s)
            mb *= b1
            mb += s
            np.multiply(gb, gb, out=s)
            s *= 1.0 - b2
            vb *= b2
            vb += s
            # p + lr * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(vb, c2, out=s)
            np.sqrt(s, out=s)
            s += eps
            np.divide(mb, c1, out=nb)
            nb *= lr
            nb /= s
            nb += p[lo:hi]
        out[name] = _wrap(new.reshape(t.data.shape))
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


def _shard_gradients(model: NvdmModel, corpus: Corpus, doc_indices, w: float, seed: int, step: int, slots):
    """Summed bound gradients of one shard: one forward and one backward over its documents as rows."""
    docs = [corpus.docs[di] for di in doc_indices]
    noise = _slot_noise(model, seed, step, slots)
    # An overflow gives a non-finite bound, which ``train`` reports as divergence;
    # numpy's warnings would only repeat it.  Set here, in the shard's own thread.
    with np.errstate(over="ignore", invalid="ignore"), Tape() as tape:
        rows = batch_bound(model, corpus, docs, noise, kl_weight=w)
        tape.backward(rows.total)
        grads = {name: tape.grad(t) for name, t in model.named_parameters()}
    return grads, float(rows.total), float(rows.reconstruction.sum()), float(rows.kl_gaussian.sum()), float(rows.kl_piecewise.sum())


def _batch_gradients(model: NvdmModel, corpus: Corpus, batch, w: float, config: TrainConfig, step: int):
    """Mean-bound gradients for one mini-batch, optionally sharded over threads.

    Slots are positions in the batch; shard i takes slots i, i + shards, ...
    """
    n = len(batch)
    shards = min(config.threads, n)
    chunks = [batch[i::shards] for i in range(shards)] if shards > 1 else [batch]
    slot_chunks = [list(range(i, n, shards)) for i in range(shards)] if shards > 1 else [list(range(n))]
    if shards > 1:
        with ThreadPoolExecutor(max_workers=shards) as pool:
            results = list(pool.map(lambda args: _shard_gradients(model, corpus, args[0], w, config.seed, step, args[1]), zip(chunks, slot_chunks)))
    else:
        results = [_shard_gradients(model, corpus, chunks[0], w, config.seed, step, slot_chunks[0])]
    # Each tape builds its gradient arrays fresh, so the trainer owns them:
    # later shards are added into shard 0's arrays, in shard order so the
    # reduction is deterministic for a fixed thread count.
    grads = results[0][0]
    for shard_grads, *_ in results[1:]:
        for name, g in grads.items():
            g += shard_grads[name]
    for g in grads.values():
        g /= n
    bound_sum = recon_sum = kl_g_sum = kl_p_sum = 0.0
    for _, bound, recon, kl_g, kl_p in results:
        bound_sum += bound
        recon_sum += recon
        kl_g_sum += kl_g
        kl_p_sum += kl_p
    return grads, bound_sum / n, recon_sum / n, kl_g_sum / n, kl_p_sum / n


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
    state = adam_init(params)
    best_params = dict(params)
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
            grads, bound, recon, kl_g, kl_p = _batch_gradients(model, corpus_train, batch, w, config, step)
            if not np.isfinite(bound):
                raise TrainingDiverged(_diagnostic(model, epoch, batches))
            try:
                clip_gradients(grads, config.clip_norm)
            except FloatingPointError as exc:
                raise TrainingDiverged(f"{_diagnostic(model, epoch, batches)}; {exc}") from exc
            params = adam_step(params, grads, state, config)
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
            best_params = dict(params)
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
