"""Test-time evaluation: sampled-bound perplexity and iterative posterior refinement.

Perplexity is exp(-(1/D) sum_n bound_n / L_n) over D documents with L_n
tokens each, where the sampled variational bound stands in for the exact
log-likelihood.  A document's noise is keyed by the call's root and the
document's content digest (``_doc_key``), and a block's noise is one
``nvdm.draw_noises`` call over its documents' keys, so identical
documents always receive identical noise and duplicating a corpus leaves
the report unchanged.  Documents are evaluated as rows, ``EVAL_BLOCK`` at
a time, which bounds memory for any corpus size.

Iterative inference refines posterior parameters by plain gradient ascent
on the bound while the model and the prior stay frozen.  A block of
documents is refined together: each step is one forward pass and one
``Tape.backward`` over (B, dims) parameter rows, one row per document.
Every row keeps its own state (best bound, steps since the last
improvement, step count, abort flag) and its own gradient-norm clip, and
only rows still refining move.  A row that stops, by patience or by a
non-finite step bound, stays in the block with its parameters frozen and
fixed filler noise, and its outputs are ignored: the block's composition
never changes, because a row's matrix products can differ in the last
bits with the rows around it.
Refinement draws its noise from one numpy generator per document: each
gradient step uses freshly drawn noise, and a document's step stream
advances only on the steps it takes; progress tracking uses a fixed
noise set drawn once per document, so the best-seen bound is
deterministic given the block and never falls below the amortised
starting point, and a zero learning rate returns exactly the starting
bound.  A step so large that a row's bound can no longer be computed
(its variances or logits overflow) aborts that row alone.
``evaluate_iterative`` refines each distinct document once, in
blocks taken from the distinct documents sorted by content key, so a
set of documents always forms the same blocks whatever the corpus order
or duplication.  Refinement runs with one BLAS thread
(``blas.one_thread``): a block's products are too small to gain from a
split, and a split product waits for every thread to wake.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import piecewise
from .blas import one_thread
from .corpus import Corpus, Document
from .nvdm import NvdmModel, _check_documents, amortized_posterior, batch_bound, draw_noises, encode, noise_keys, posterior_bound
from .tensor import ShapeError, Tape, Tensor

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


def _content(doc: Document) -> tuple[bytes, bytes]:
    """What a document's noise and results depend on: its term ids and counts."""
    return doc.term_ids.tobytes(), doc.counts.tobytes()


def _doc_key(doc: Document) -> int:
    """Content key of a document: a digest of ``_content``."""
    digest = hashlib.blake2b(digest_size=8)
    for part in _content(doc):
        digest.update(part)
    return int.from_bytes(digest.digest(), "little")


def _doc_rng(root: int, doc: Document, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([root, purpose, _doc_key(doc)]))


def _root(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _content_noises(model: NvdmModel, num_samples: int, root: int, docs):
    """``num_samples`` noise samples for a block of documents, row i keyed by ``root`` and ``docs[i]``'s content."""
    return draw_noises(model, num_samples, noise_keys(root, [_doc_key(doc) for doc in docs]))


def _generator_noises(model: NvdmModel, num_samples: int, rng: np.random.Generator):
    """One document's refinement noise from its own generator: ``num_samples`` (eps_gauss, eps_piece) vector pairs."""
    noises = []
    for _ in range(num_samples):
        eps_g = rng.standard_normal(model.gauss_dims) if model.gauss_dims > 0 else None
        eps_p = rng.random(model.piece_dims) if model.piece_dims > 0 else None
        noises.append((eps_g, eps_p))
    return noises


def _stack_noises(per_doc):
    """Stack documents' ``_generator_noises`` results into one (B, dims) pair per sample."""
    return [tuple(None if parts[0] is None else np.array(parts) for parts in zip(*sample)) for sample in zip(*per_doc)]


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


def _aggregate(bounds: np.ndarray, tokens: np.ndarray, samples: int, mode: str) -> EvalReport:
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
    *,
    kl_weight: float = 1.0,
) -> EvalReport:
    """Sampled-bound perplexity over a corpus under the amortised posterior."""
    if len(corpus) == 0:
        raise ValueError("evaluate: empty corpus")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    _check_kl_weight(kl_weight)
    root = _root(rng)
    bounds = np.zeros(len(corpus))
    for lo in range(0, len(corpus), EVAL_BLOCK):
        docs = corpus.docs[lo : lo + EVAL_BLOCK]
        noises = _content_noises(model, num_samples, root, docs)
        bounds[lo : lo + len(docs)] = batch_bound(model, corpus, docs, noises, kl_weight=kl_weight).bounds
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


def _amortized_rows(model: NvdmModel, corpus: Corpus, docs) -> dict:
    enc = encode(model, Tensor([corpus.dense(doc) for doc in docs]))
    rows = {name: None if t is None else np.array(t.data) for name, t in amortized_posterior(model, enc).items()}
    if rows["piece_raw_a"] is not None:
        rows["piece_raw_a"] = np.clip(rows["piece_raw_a"], -piecewise.CLAMP, piecewise.CLAMP)
    return rows


def _filler_noise(model: NvdmModel):
    """One posterior sample of fixed noise for a row that no longer steps."""
    eps_g = np.zeros(model.gauss_dims) if model.gauss_dims > 0 else None
    eps_p = np.full(model.piece_dims, 0.5) if model.piece_dims > 0 else None
    return [(eps_g, eps_p)]


def _counts(corpus: Corpus, docs) -> Tensor:
    return Tensor([corpus.dense_counts(doc) for doc in docs])


def _tensors(params: dict) -> dict:
    return {name: None if rows is None else Tensor(rows) for name, rows in params.items()}


def _check_kl_weight(kl_weight: float) -> None:
    if not 0.0 <= kl_weight < np.inf:
        raise ValueError(f"kl_weight must be finite and >= 0, got {kl_weight}")


def _bound_aborting_overflow(model, counts, params, best, noises, kl_weight, live, aborted):
    """``posterior_bound`` at ``params``; returns the parameter tensors and the block's ``RowBounds``.

    A huge step can make a row's variances or logits overflow, even with
    finite parameters, and ``posterior_bound`` then rejects the whole
    block.  Each live row is then bounded alone, and every row that fails
    is marked aborted (in ``live`` and ``aborted``) and put back to its
    best-seen parameters, whose bound was computed before, and the block
    is bounded again.  The other rows keep their parameters and noise, so
    their bounds are unchanged.
    """
    while True:
        tensors = _tensors(params)
        try:
            return tensors, posterior_bound(model, counts, kl_weight=kl_weight, noises=noises, **tensors)
        except ShapeError:
            raise
        except ValueError:
            failing = np.zeros_like(live)
            for i in np.flatnonzero(live):
                one = slice(i, i + 1)
                try:
                    posterior_bound(
                        model,
                        Tensor(counts.data[one]),
                        kl_weight=kl_weight,
                        noises=[tuple(None if eps is None else eps[one] for eps in sample) for sample in noises],
                        **{name: None if rows is None else Tensor(rows[one]) for name, rows in params.items()},
                    )
                except ValueError:
                    failing[i] = True
            if not failing.any():
                raise
        aborted |= failing
        live &= ~failing
        for name, rows in params.items():
            if rows is not None:
                rows[failing] = best[name][failing]


def _check_refinement(steps_max, lr, stop_patience, clip_norm, kl_weight, eval_samples) -> None:
    """Reject refinement settings that would step downhill, never stop or misreport, before any work."""
    if eval_samples < 1:
        raise ValueError("eval_samples must be >= 1")
    if steps_max < 0:
        raise ValueError(f"steps_max must be >= 0, got {steps_max}")
    if stop_patience < 1:
        raise ValueError(f"stop_patience must be >= 1, got {stop_patience}")
    if not 0.0 <= lr < np.inf:
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    if not 0.0 < clip_norm < np.inf:
        raise ValueError(f"clip_norm must be finite and > 0, got {clip_norm}")
    _check_kl_weight(kl_weight)


@one_thread()
def iterative_inference(
    model: NvdmModel,
    corpus: Corpus,
    docs,
    *,
    steps_max: int = 100,
    lr: float = 0.1,
    stop_patience: int = 10,
    clip_norm: float = 5.0,
    kl_weight: float = 1.0,
    eval_samples: int = 1,
    rngs,
) -> list[RefinementResult]:
    """Posterior refinement of a block of documents with the model frozen.

    ``docs`` are refined together as the rows of one block (callers keep
    it to ``EVAL_BLOCK`` documents), and ``rngs`` holds one generator per
    document, from which that document's tracking and step noise derive.
    Each document starts from its amortised posterior (Gaussian mean and
    pre-softplus sigma, pre-exponential piecewise weights), ascends its
    bound by plain SGD with the training-style norm rescaling of its own
    gradient, and stops once its tracked bound has not improved for
    ``stop_patience`` steps.  Returns, per document, the best-seen
    parameters and bound; a non-finite step bound, or a step after which
    the document's bound overflows, aborts that document's refinement,
    which then reports its best-seen parameters and the amortised
    starting bound.
    """
    _check_refinement(steps_max, lr, stop_patience, clip_norm, kl_weight, eval_samples)
    docs = list(docs)
    roots = [_root(rng) for rng in rngs]
    if not docs or len(roots) != len(docs):
        raise ValueError(f"iterative_inference: needs one generator per document, got {len(docs)} documents and {len(roots)} generators")
    _check_documents(model, corpus, docs)
    counts = _counts(corpus, docs)
    step_rngs = [_doc_rng(root, doc, 2) for root, doc in zip(roots, docs)]
    track_noises = _stack_noises([_generator_noises(model, eval_samples, _doc_rng(root, doc, 1)) for root, doc in zip(roots, docs)])
    filler = _filler_noise(model)

    params = _amortized_rows(model, corpus, docs)
    best = {name: None if rows is None else rows.copy() for name, rows in params.items()}
    initial = posterior_bound(model, counts, kl_weight=kl_weight, noises=track_noises, **_tensors(params)).bounds
    best_bound = initial.copy()
    since_improve = np.zeros(len(docs), dtype=np.int64)
    steps = np.zeros(len(docs), dtype=np.int64)
    aborted = np.zeros(len(docs), dtype=bool)
    # Rows still refining.  The others never move again, so a row whose
    # step bound went non-finite never takes its non-finite gradient.
    live = np.ones(len(docs), dtype=bool)

    # A step can overflow (a huge lr) before its row is marked aborted just
    # below; numpy's overflow and invalid-value warnings would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps_max):
            noises = _stack_noises([_generator_noises(model, 1, rng) if on else filler for rng, on in zip(step_rngs, live)])
            with Tape() as tape:
                tensors, stepped = _bound_aborting_overflow(model, counts, params, best, noises, kl_weight, live, aborted)
                failed = live & ~np.isfinite(stepped.bounds)
                aborted |= failed
                live &= ~failed
                if not live.any():
                    break
                tape.backward(stepped.total)
                grads = {name: tape.grad(t) for name, t in tensors.items() if t is not None}
            norm = np.sqrt(sum(np.sum(g * g, axis=1) for g in grads.values()))
            step = lr * (clip_norm / np.maximum(norm, clip_norm))
            for name, g in grads.items():
                params[name][live] += step[live, None] * g[live]
            steps[live] += 1

            tracked = _bound_aborting_overflow(model, counts, params, best, track_noises, kl_weight, live, aborted)[1].bounds
            improved = live & np.isfinite(tracked) & (tracked > best_bound)
            best_bound[improved] = tracked[improved]
            for name, rows in params.items():
                if rows is not None:
                    best[name][improved] = rows[improved]
            since_improve[improved] = 0
            since_improve[live & ~improved] += 1
            live &= since_improve < stop_patience
            if not live.any():
                break

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
    clip_norm: float = 5.0,
    kl_weight: float = 1.0,
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
    distinct = {_content(doc): doc for doc in corpus.docs}
    keys = sorted(distinct, key=lambda key: _doc_key(distinct[key]))
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
            clip_norm=clip_norm,
            kl_weight=kl_weight,
            rngs=[_doc_rng(root, doc, 3) for doc in docs],
        )
        params = {name: None if getattr(results[0], name) is None else np.array([getattr(r, name) for r in results]) for name in _PARAMS}
        noises = _content_noises(model, num_samples, root, docs)
        final = posterior_bound(model, _counts(corpus, docs), kl_weight=kl_weight, noises=noises, **_tensors(params)).bounds
        refined.update(zip(block, zip(results, final)))
    picked = [refined[_content(doc)] for doc in corpus.docs]
    bounds = np.array([bound for _, bound in picked])
    tokens = np.array([doc.token_count for doc in corpus.docs], dtype=np.float64)
    return _aggregate(bounds, tokens, num_samples, "iterative"), [res for res, _ in picked]
