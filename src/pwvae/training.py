"""Mini-batch training: Adam, global-norm gradient clipping, early stopping.

One tape per shard, documents as rows: a batch's documents are stacked
into (B, V) matrices and run through one forward pass of the bound (one
posterior sample per document) and one ``Tape.backward``, so every weight
gradient is a single matrix product over the batch.  The trainer divides
by the batch size to get the mean-bound gradient, clips its global norm
and takes one Adam ascent step on the bound.  After each epoch the
validation bound is estimated with several samples per document; training
stops once it has not improved for ``patience`` epochs and the parameters
from the best epoch are returned.

Per-document sampling noise is keyed by (seed, stream, step, slot), where
the slot is the document's position in the batch, and stacked row by row
in that draw order.  A seeded run is therefore bit-reproducible, and
neither the batch's size nor sharding it over ``threads`` (each shard one
batched tape) changes which noise a document receives.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import evaluation
from .corpus import Corpus
from .nvdm import NvdmModel, batch_bound, draw_noises, stack_noises
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
    """Rescale all gradients so the global L2 norm is at most clip_norm."""
    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    norm = global_norm(grads)
    if norm <= clip_norm:
        return grads
    scale = clip_norm / norm
    return {name: g * scale for name, g in grads.items()}


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_init(params: dict[str, Tensor]) -> AdamState:
    return AdamState(
        step=0,
        m={name: np.zeros_like(t.data) for name, t in params.items()},
        v={name: np.zeros_like(t.data) for name, t in params.items()},
    )


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> dict[str, Tensor]:
    """One bias-corrected Adam ascent step; ``grads`` are gradients of the objective to maximise.

    The moments are updated in place, and one scratch buffer per
    parameter holds the temporaries; the new parameters are the only
    other array allocated.
    """
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    out: dict[str, Tensor] = {}
    for name, t in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        scratch = np.multiply(g, 1.0 - b1)
        m *= b1
        m += scratch
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - b2
        v *= b2
        v += scratch
        # p + lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(v, c2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += config.adam_eps
        new = np.divide(m, c1)
        new *= config.learning_rate
        new /= scratch
        new += t.data
        out[name] = _wrap(new)
    return out


@dataclass
class TrainResult:
    model: NvdmModel
    log_lines: list[str]
    best_epoch: int
    best_valid_bound: float
    valid_bounds: list[float]


def _slot_noises(model: NvdmModel, seed: int, step: int, slots):
    """One posterior sample per batch slot, stacked in slot order."""
    return stack_noises([draw_noises(model, 1, np.random.default_rng((seed, _STREAM_BATCH_NOISE, step, slot))) for slot in slots])


def _shard_gradients(model: NvdmModel, corpus: Corpus, doc_indices, w: float, seed: int, step: int, slots):
    """Summed bound gradients of one shard: one forward and one backward over its documents as rows."""
    docs = [corpus.docs[di] for di in doc_indices]
    noises = _slot_noises(model, seed, step, slots)
    with Tape() as tape:
        rows = batch_bound(model, corpus, docs, noises, kl_weight=w)
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
    # Merge in shard order so the reduction is deterministic for a fixed
    # thread count.
    grads = {name: np.zeros_like(t.data) for name, t in model.named_parameters()}
    bound_sum = recon_sum = kl_g_sum = kl_p_sum = 0.0
    for shard_grads, bound, recon, kl_g, kl_p in results:
        for name in grads:
            grads[name] += shard_grads[name]
        bound_sum += bound
        recon_sum += recon
        kl_g_sum += kl_g
        kl_p_sum += kl_p
    for name in grads:
        grads[name] /= n
    return grads, bound_sum / n, recon_sum / n, kl_g_sum / n, kl_p_sum / n


def _diagnostic(model: NvdmModel, epoch: int, batch_index: int) -> str:
    norms = {name: float(np.linalg.norm(t.data)) for name, t in model.named_parameters()}
    worst = sorted(norms.items(), key=lambda kv: -kv[1])[:5]
    snapshot = ", ".join(f"{k}={v:.3e}" for k, v in worst)
    return f"non-finite loss in epoch {epoch}, batch {batch_index}; largest parameter norms: {snapshot}"


def train(model: NvdmModel, corpus_train: Corpus, corpus_valid: Corpus, config: TrainConfig, log_stream=None) -> TrainResult:
    """Train to the best validation bound; returns that epoch's parameters.

    The training log has one tab-separated line per epoch:
    ``epoch train_bound valid_bound kl_g kl_p wallclock_s``.
    """
    if len(corpus_train) == 0 or len(corpus_valid) == 0:
        raise ValueError("training and validation corpora must be non-empty")
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
            try:
                grads, bound, recon, kl_g, kl_p = _batch_gradients(model, corpus_train, batch, w, config, step)
            except (ValueError, FloatingPointError) as exc:
                raise TrainingDiverged(f"{_diagnostic(model, epoch, batches)}; forward failed: {exc}") from exc
            if not np.isfinite(bound) or not all(np.all(np.isfinite(g)) for g in grads.values()):
                raise TrainingDiverged(_diagnostic(model, epoch, batches))
            grads = clip_gradients(grads, config.clip_norm)
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
