"""Test-time evaluation: sampled-bound perplexity and iterative posterior refinement.

Perplexity is exp(-(1/D) sum_n bound_n / L_n) over D documents with L_n
tokens each, where the sampled variational bound stands in for the exact
log-likelihood.  A float32 model's bounds are gathered as float64, in
which the perplexity is computed.  A document's noise is keyed by the
call's root and the document's content key, the digest ``Document.key``
that each document computes once, and a block's noise is one
``nvdm.draw_noises`` call over its documents' keys, so identical
documents always receive identical noise and duplicating a corpus leaves
the report unchanged.  Documents are evaluated as rows, ``EVAL_BLOCK`` at
a time, which bounds memory for any corpus size; a block's (B, V) rows
come from one scatter (``Corpus.dense_counts``).  ``posterior_bound``
raises nothing on overflow: a row whose variances or logits overflow gets
a non-finite bound, and each caller checks the bounds once.  A block with
a non-finite bound raises ValueError naming the stage and the block's
first document, and numpy's overflow warnings, which would only repeat
that, are silenced.

Iterative inference refines posterior parameters by plain gradient ascent
on the bound while the model and the prior stay frozen.  A block of
documents is refined together: each step is one forward pass and one
``Tape.backward`` over (B, dims) parameter rows, one row per document.
The priors are built once per block (``nvdm.priors``), before the step
loop and outside any tape, so a step records nothing that depends on the
model alone, and the KL ops' deferred prior gradients are never computed;
``evaluate_iterative``'s re-estimate builds them once per call.
Every row keeps its own state (best bound, steps since the last
improvement, step count, abort flag) and its own gradient-norm clip, and
only rows still refining move.  A row that stops stays in the block with
its parameters frozen, and its outputs, finite or not, are ignored: the
block's composition never changes, because a row's matrix products can
differ in the last bits with the rows around it.
Refinement draws its noise through ``nvdm.draw_noises`` too, keyed by
two roots from the call's generator and the document's content digest.
Progress tracking uses one fixed noise sample per document, so the
best-seen bound is deterministic and never falls below the amortised
starting point, and a zero learning rate returns exactly the starting
bound.  The tracked bound rides on the pass that takes the next step:
pass t builds the posterior and both KL terms once, at the parameters
after t steps, and gives their bound under the tracking noise
(``posterior_bound``'s ``track_noise``) along with the bound under step
t's noise, which step t ascends.  Pass 0 thus gives the starting bound,
and one last pass under the tracking noise alone tracks the parameters
of the last step, so k steps take k + 1 passes.  Gradient step t uses
fresh noise keyed by the document and t, the number of steps the row has
taken; one ``draw_noises`` call draws the noise of ``_NOISE_RUN``
consecutive steps over their concatenated keys, which leaves every
draw's bits as they are.  A row's noise thus depends only on its
document and its step count, never on the block around it, and
identical documents in one call refine identically.  One rule aborts a
row: its step bound or its tracked bound is not finite, as when a step
so large makes its variances or logits overflow.  The other rows go on
as if it were not there.  Returned piecewise rows are clipped
to ``piecewise.CLAMP``, as ``piecewise.head_forward`` clamps them
anyway, so a huge step never reports non-finite weights.
``evaluate_iterative`` refines each distinct document once, in
blocks taken from the distinct documents sorted by content key, so a
set of documents always forms the same blocks whatever the corpus order
or duplication.  Refinement runs with one BLAS thread
(``blas.one_thread``): a block's products are too small to gain from a
split, and a split product waits for every thread to wake.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import piecewise
from .blas import one_thread
from .corpus import Corpus, Document
from .nvdm import NvdmModel, _check_documents, amortized_posterior, batch_bound, draw_noises, encode, noise_keys, posterior_bound, priors
from .tensor import Tape, Tensor, _wrap

__all__ = [
    "EvalReport",
    "RefinementResult",
    "evaluate",
    "iterative_inference",
    "evaluate_iterative",
]


# Documents per forward pass in ``evaluate`` and per refined block in
# ``evaluate_iterative``.
EVAL_BLOCK = 64

# Refinement steps whose noise one ``draw_noises`` call draws, over the
# steps' concatenated keys; a block that stops inside a run leaves the
# rest of it unused.  Drawing and slicing a run, per step (median of 5
# repeats; Xeon, one process, numpy 2.4.6): 3 rows of 50 + 50 dims, run 1
# -> 31.5 us, 5 -> 10.8, 10 -> 7.9, 20 -> 6.3, 100 -> 9.4; 20 rows of 10
# piecewise dims, 1 -> 20.7 us, 10 -> 4.9, 20 -> 4.1, 100 -> 5.2.  Past 10
# a run saves under 2 us a step, against refinement steps of over 1 ms.
_NOISE_RUN = 10

# Largest gradient norm of a refinement step: a row whose gradient norm
# exceeds it steps along its gradient rescaled to this norm, as training
# clips with ``TrainConfig.clip_norm``'s default.
REFINE_CLIP_NORM = 5.0


def _content(doc: Document) -> tuple[bytes, bytes]:
    """What a document's noise and results depend on: its term ids and counts."""
    return doc.term_ids.tobytes(), doc.counts.tobytes()


def _root(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _content_noise(model: NvdmModel, num_samples: int, root: int, docs):
    """``num_samples`` noise samples for a block of documents, row i keyed by ``root`` and ``docs[i]``'s content."""
    return draw_noises(model, num_samples, noise_keys(root, [doc.key for doc in docs]))


@dataclass
class EvalReport:
    perplexity: float
    mean_bound: float
    per_doc_bounds: np.ndarray
    per_doc_tokens: np.ndarray
    samples: int
    mode: str

    def to_tsv(self) -> str:
        lines = [
            "perplexity\tmean_bound\tsamples\tmode\tdocs",
            f"{self.perplexity:.10g}\t{self.mean_bound:.10g}\t{self.samples}\t{self.mode}\t{len(self.per_doc_bounds)}",
            "doc\tbound\ttokens",
        ]
        for i, (b, t) in enumerate(zip(self.per_doc_bounds, self.per_doc_tokens)):
            lines.append(f"{i}\t{b:.10g}\t{int(t)}")
        return "\n".join(lines) + "\n"


def _check_finite(stage: str, docs, values: np.ndarray) -> None:
    """Raise ValueError naming ``stage`` and the block's first document if any of ``values``, one per document of the block, is not finite."""
    bad = ~np.isfinite(values)
    if bad.any():
        first = int(np.argmax(bad))
        raise ValueError(
            f"{stage}: the bound of the block starting at document {docs[0].doc_id!r} cannot be computed: {int(bad.sum())} of {len(docs)} "
            f"rows are not finite, the first {values[first]} at document {docs[first].doc_id!r}; "
            "its variances or logits overflow, or the model holds a non-finite parameter"
        )


def _aggregate(bounds: np.ndarray, tokens: np.ndarray, samples: int, mode: str) -> EvalReport:
    # A mean per-token bound below about -709 gives an infinite perplexity,
    # which is the result, not an error to warn of.
    with np.errstate(over="ignore"):
        perplexity = float(np.exp(-np.mean(bounds / tokens)))
    return EvalReport(
        perplexity=perplexity,
        mean_bound=float(bounds.mean()),
        per_doc_bounds=bounds,
        per_doc_tokens=tokens,
        samples=samples,
        mode=mode,
    )


def evaluate(
    model: NvdmModel,
    corpus: Corpus,
    num_samples: int,
    rng: np.random.Generator,
) -> EvalReport:
    """Sampled-bound perplexity over a corpus under the amortised posterior."""
    if len(corpus) == 0:
        raise ValueError("evaluate: empty corpus")
    _check_documents(model, corpus, corpus.docs)
    root = _root(rng)
    bounds = np.zeros(len(corpus))
    for lo in range(0, len(corpus), EVAL_BLOCK):
        docs = corpus.docs[lo : lo + EVAL_BLOCK]
        noise = _content_noise(model, num_samples, root, docs)
        with np.errstate(over="ignore", invalid="ignore"):
            bounds[lo : lo + len(docs)] = batch_bound(model, corpus, docs, noise).bounds
        _check_finite("evaluate", docs, bounds[lo : lo + len(docs)])
    tokens = np.array([doc.token_count for doc in corpus.docs], dtype=np.float64)
    return _aggregate(bounds, tokens, num_samples, "amortized")


@dataclass
class RefinementResult:
    """Refined per-document posterior parameters and the tracked bounds."""

    gauss_mu: np.ndarray | None
    gauss_raw_sigma: np.ndarray | None
    piece_raw_a: np.ndarray | None
    bound: float
    initial_bound: float
    steps: int
    aborted: bool = False


# Posterior parameters of a refined block, in ``posterior_bound``'s
# keywords and ``RefinementResult``'s fields: (B, dims) rows, or None for
# an absent family.
_PARAMS = ("gauss_mu", "gauss_raw_sigma", "piece_raw_a")


def _clip_pieces(rows: dict) -> dict:
    """Clip ``rows``' piecewise pre-activations in place to ±``piecewise.CLAMP``, where ``head_forward`` clamps them anyway."""
    if rows["piece_raw_a"] is not None:
        np.clip(rows["piece_raw_a"], -piecewise.CLAMP, piecewise.CLAMP, out=rows["piece_raw_a"])
    return rows


def _tensors(params: dict) -> dict:
    return {name: None if rows is None else Tensor(rows) for name, rows in params.items()}


def _abort_non_finite(bounds: np.ndarray, live: np.ndarray, aborted: np.ndarray) -> None:
    """Refinement's one abort rule: every live row whose bound is not finite stops, marked aborted."""
    failed = live & ~np.isfinite(bounds)
    aborted |= failed
    live &= ~failed


def _check_refinement(steps_max, lr, stop_patience) -> None:
    """Reject refinement settings that would step downhill or never stop, before any work."""
    if steps_max < 0:
        raise ValueError(f"steps_max must be >= 0, got {steps_max}")
    if stop_patience < 1:
        raise ValueError(f"stop_patience must be >= 1, got {stop_patience}")
    if not 0.0 <= lr < np.inf:
        raise ValueError(f"lr must be finite and >= 0, got {lr}")


@one_thread()
def iterative_inference(
    model: NvdmModel,
    corpus: Corpus,
    docs,
    *,
    steps_max: int = 100,
    lr: float = 0.1,
    stop_patience: int = 10,
    rng: np.random.Generator,
) -> list[RefinementResult]:
    """Posterior refinement of a block of documents with the model frozen.

    ``docs`` are refined together as the rows of one block (callers keep
    it to ``EVAL_BLOCK`` documents).  ``rng`` gives the roots of the
    tracking and step noise, which ``draw_noises`` keys by each document's
    content, so documents repeated in ``docs`` refine identically.
    Each document starts from its amortised posterior (Gaussian mean and
    pre-softplus sigma, pre-exponential piecewise weights), ascends its
    bound by plain SGD with its own gradient rescaled to a norm of at most
    ``REFINE_CLIP_NORM``, and stops once its tracked bound has not
    improved for ``stop_patience`` steps.  Its progress is tracked under
    one fixed noise, in the same ``posterior_bound`` pass that takes the
    next step (``track_noise``): the pass at the parameters after t steps
    gives their tracked bound and the bound that step t ascends, the first
    pass gives the starting bound, and one pass after the last step tracks
    its parameters, so k steps take k + 1 passes.  Returns, per document,
    the best-seen parameters and bound.  A document whose step bound or
    tracked bound is not finite (a huge step overflows its variances or
    logits) aborts there, and reports its best-seen parameters and the
    amortised starting bound.  Returned piecewise rows are clipped to
    ``piecewise.CLAMP``.  A block whose amortised bound is not finite
    raises ValueError naming the block's first document.
    """
    _check_refinement(steps_max, lr, stop_patience)
    docs = list(docs)
    if not docs:
        raise ValueError("iterative_inference: no documents")
    _check_documents(model, corpus, docs)
    raw = corpus.dense_counts(docs, dtype=model.dtype)
    x, counts = _wrap(corpus.dense(docs, dtype=model.dtype, counts=raw)), _wrap(raw)
    doc_keys = np.array([doc.key for doc in docs], dtype=np.uint64)
    track_root, step_root = _root(rng), _root(rng)
    track_noise = draw_noises(model, 1, noise_keys(track_root, doc_keys))

    params = _clip_pieces({name: None if t is None else np.array(t.data) for name, t in amortized_posterior(model, encode(model, x)).items()})
    best = {name: None if rows is None else rows.copy() for name, rows in params.items()}
    since_improve = np.zeros(len(docs), dtype=np.int64)
    steps = np.zeros(len(docs), dtype=np.int64)
    aborted = np.zeros(len(docs), dtype=bool)
    # Rows still refining.  The others never move again, so a row whose
    # step bound went non-finite never takes its non-finite gradient.
    live = np.ones(len(docs), dtype=bool)

    # A bound can overflow (huge parameters, or a huge lr) before it is
    # rejected or its row is marked aborted just below; numpy's overflow and
    # invalid-value warnings would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        prior = priors(model)  # once per block, outside any tape
        for t in range(steps_max + 1):
            # Pass t tracks the parameters after t steps and, while steps
            # remain, takes step t from them: one ``posterior_bound`` call
            # gives the tracked bound and the step bound.  A row steps on
            # every pass while it is live and never after, so t is every
            # live row's own step count steps[b].  Rows that start at
            # different passes must key on steps[b].
            stepping = t < steps_max
            if stepping and t % _NOISE_RUN == 0:
                run = np.concatenate([noise_keys(step_root ^ (t + i), doc_keys) for i in range(min(_NOISE_RUN, steps_max - t))])
                run_noise = draw_noises(model, 1, run)
            with Tape() as tape:
                tensors = _tensors(params)
                if stepping:
                    span = slice((t % _NOISE_RUN) * len(docs), (t % _NOISE_RUN + 1) * len(docs))
                    noise = tuple(None if eps is None else eps[:, span] for eps in run_noise)
                    stepped = posterior_bound(model, counts, priors=prior, kl_weight=1.0, noise=noise, track_noise=track_noise, **tensors)
                    tracked = stepped.tracked
                else:
                    tracked = posterior_bound(model, counts, priors=prior, kl_weight=1.0, noise=track_noise, **tensors).bounds
                if t == 0:
                    initial = tracked
                    _check_finite("iterative_inference", docs, initial)
                    best_bound = initial.copy()
                else:
                    _abort_non_finite(tracked, live, aborted)
                    improved = live & (tracked > best_bound)
                    np.copyto(best_bound, tracked, where=improved)
                    for name, rows in params.items():
                        if rows is not None:
                            np.copyto(best[name], rows, where=improved[:, None])
                    since_improve += live
                    since_improve[improved] = 0
                    live &= since_improve < stop_patience
                if not stepping:
                    break
                _abort_non_finite(stepped.bounds, live, aborted)
                if not live.any():
                    break
                tape.backward(stepped.total)
                grads = {name: tape.grad(tensor) for name, tensor in tensors.items() if tensor is not None}
            norm = np.sqrt(sum(np.sum(g * g, axis=1) for g in grads.values()))
            step = lr * (REFINE_CLIP_NORM / np.maximum(norm, REFINE_CLIP_NORM))
            # Every row's step is formed, a frozen row's perhaps not finite,
            # but only live rows add it.
            for name, g in grads.items():
                np.add(params[name], step[:, None] * g, out=params[name], where=live[:, None])
            steps += live

    _clip_pieces(best)
    return [
        RefinementResult(
            **{name: None if rows is None else rows[i] for name, rows in best.items()},
            bound=float(initial[i] if aborted[i] else best_bound[i]),
            initial_bound=float(initial[i]),
            steps=int(steps[i]),
            aborted=bool(aborted[i]),
        )
        for i in range(len(docs))
    ]


def evaluate_iterative(
    model: NvdmModel,
    corpus: Corpus,
    num_samples: int,
    rng: np.random.Generator,
    *,
    steps_max: int = 100,
    lr: float = 0.1,
    stop_patience: int = 10,
):
    """Refine every document, then re-estimate bounds at the refined posteriors.

    Each distinct document is refined and re-estimated once, in blocks of
    ``EVAL_BLOCK`` taken in content-key order; duplicates share the
    result.  Returns the refined EvalReport together with the
    per-document refinement results (whose tracked bounds carry the hard
    best-at-least-initial guarantee).
    """
    if len(corpus) == 0:
        raise ValueError("evaluate_iterative: empty corpus")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    root = _root(rng)
    prior = priors(model)
    contents = [_content(doc) for doc in corpus.docs]
    distinct = dict(zip(contents, corpus.docs))
    keys = sorted(distinct, key=lambda content: distinct[content].key)
    refined = {}
    for lo in range(0, len(keys), EVAL_BLOCK):
        block = keys[lo : lo + EVAL_BLOCK]
        docs = [distinct[key] for key in block]
        results = iterative_inference(
            model,
            corpus,
            docs,
            steps_max=steps_max,
            lr=lr,
            stop_patience=stop_patience,
            # Every block gets an identical generator, so a document's
            # noise does not depend on its block.
            rng=np.random.default_rng((root, 3)),
        )
        params = {name: None if getattr(results[0], name) is None else np.array([getattr(r, name) for r in results]) for name in _PARAMS}
        noise = _content_noise(model, num_samples, root, docs)
        with np.errstate(over="ignore", invalid="ignore"):
            final = posterior_bound(model, _wrap(corpus.dense_counts(docs, dtype=model.dtype)), priors=prior, kl_weight=1.0, noise=noise, **_tensors(params)).bounds
        _check_finite("evaluate_iterative: re-estimate", docs, final)
        refined.update(zip(block, zip(results, final)))
    picked = [refined[content] for content in contents]
    bounds = np.array([bound for _, bound in picked], dtype=np.float64)
    tokens = np.array([doc.token_count for doc in corpus.docs], dtype=np.float64)
    return _aggregate(bounds, tokens, num_samples, "iterative"), [res for res, _ in picked]
