"""Test-time evaluation: sampled-bound perplexity and per-document refinement.

Perplexity is exp(-(1/D) sum_n bound_n / L_n) over D documents with L_n
tokens each, where the sampled variational bound stands in for the exact
log-likelihood.  Per-document noise streams are derived from the document
content, so identical documents always receive identical noise and
duplicating a corpus leaves the report unchanged.  Documents are
evaluated as rows, ``EVAL_BLOCK`` at a time, which bounds memory for any
corpus size.

Iterative inference refines one document's posterior parameters by plain
gradient ascent on its bound while the model and the prior stay frozen.
Each gradient step uses freshly drawn noise; progress tracking and the
returned bound use a fixed noise set drawn once per document, so the
best-seen bound is deterministic given the document and never falls below
the amortised starting point, and a zero learning rate returns exactly
the starting bound.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import gaussian, piecewise
from .corpus import Corpus, Document
from .nvdm import NvdmModel, batch_bound, decode_logprob, draw_noises, encode, posterior_bound, stack_noises
from .tensor import Tape, Tensor

__all__ = [
    "EvalReport",
    "RefinementResult",
    "evaluate",
    "iterative_inference",
    "evaluate_iterative",
    "sample_prior_docs",
]


# Documents per forward pass in ``evaluate``.
EVAL_BLOCK = 64


def _doc_rng(root: int, doc: Document, purpose: int) -> np.random.Generator:
    digest = hashlib.blake2b(digest_size=8)
    digest.update(doc.term_ids.tobytes())
    digest.update(doc.counts.tobytes())
    key = int.from_bytes(digest.digest(), "little")
    return np.random.default_rng(np.random.SeedSequence([root, purpose, key]))


def _root(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


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
    root = _root(rng)
    bounds = np.zeros(len(corpus))
    for lo in range(0, len(corpus), EVAL_BLOCK):
        docs = corpus.docs[lo : lo + EVAL_BLOCK]
        noises = stack_noises([draw_noises(model, num_samples, _doc_rng(root, doc, 0)) for doc in docs])
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


def _inverse_softplus(y: np.ndarray) -> np.ndarray:
    # log(expm1(y)), switching to the identity where expm1 would overflow.
    out = np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))
    return out


def _amortized_posterior_arrays(model: NvdmModel, corpus: Corpus, doc: Document):
    x = Tensor(corpus.dense(doc))
    enc = encode(model, x)
    mu = raw_sigma = raw_a = None
    if model.gauss_dims > 0:
        head = model.gaussian_head()
        prior = gaussian.prior_forward(head)
        post = gaussian.posterior_forward(head, prior, enc)
        mu = np.array(post.mu.data)
        raw_sigma = _inverse_softplus(np.maximum(post.var.data - gaussian.VAR_FLOOR, 1e-300))
    if model.piece_dims > 0:
        a_post = piecewise.head_forward(model.piecewise_post_head(), enc)
        raw_a = np.clip(np.log(a_post.data), -piecewise.CLAMP, piecewise.CLAMP)
    return mu, raw_sigma, raw_a


def _row(values: np.ndarray | None) -> Tensor | None:
    """One document's parameter vector as the (1, dims) row that ``posterior_bound`` takes."""
    return None if values is None else Tensor(values[None, :])


def _tracked_bound(model, corpus, doc, mu, raw_sigma, raw_a, kl_weight, noises) -> float:
    rep = posterior_bound(
        model,
        corpus,
        doc,
        gauss_mu=_row(mu),
        gauss_raw_sigma=_row(raw_sigma),
        piece_raw_a=_row(raw_a),
        kl_weight=kl_weight,
        noises=noises,
    )
    return rep.bound


def iterative_inference(
    model: NvdmModel,
    corpus: Corpus,
    doc: Document,
    *,
    steps_max: int = 100,
    lr: float = 0.1,
    stop_patience: int = 10,
    clip_norm: float = 5.0,
    kl_weight: float = 1.0,
    eval_samples: int = 1,
    rng: np.random.Generator,
) -> RefinementResult:
    """Per-document posterior refinement with the model frozen.

    Starts from the amortised posterior (Gaussian mean and pre-softplus
    sigma, pre-exponential piecewise weights), ascends the bound by plain
    SGD with the training-style global-norm rescaling, and stops once the
    tracked bound has not improved for ``stop_patience`` steps.  Returns
    the best-seen parameters and bound; a non-finite bound aborts the
    refinement and reports the amortised starting point.
    """
    root = _root(rng)
    track_rng = _doc_rng(root, doc, 1)
    step_rng = _doc_rng(root, doc, 2)
    mu, raw_sigma, raw_a = _amortized_posterior_arrays(model, corpus, doc)

    eval_noises = draw_noises(model, eval_samples, track_rng)

    best = {"mu": mu, "raw_sigma": raw_sigma, "raw_a": raw_a}
    initial_bound = _tracked_bound(model, corpus, doc, mu, raw_sigma, raw_a, kl_weight, eval_noises)
    best_bound = initial_bound
    since_improve = 0
    steps_run = 0

    for _ in range(steps_max):
        mu_t, sig_t, a_t = _row(mu), _row(raw_sigma), _row(raw_a)
        with Tape() as tape:
            rep = posterior_bound(
                model,
                corpus,
                doc,
                gauss_mu=mu_t,
                gauss_raw_sigma=sig_t,
                piece_raw_a=a_t,
                kl_weight=kl_weight,
                noises=draw_noises(model, 1, step_rng),
            )
            if not np.isfinite(rep.bound):
                return RefinementResult(
                    gauss_mu=best["mu"],
                    gauss_raw_sigma=best["raw_sigma"],
                    piece_raw_a=best["raw_a"],
                    bound=initial_bound,
                    initial_bound=initial_bound,
                    steps=steps_run,
                    aborted=True,
                )
            tape.backward(rep.bound_node)
            grads = {}
            if mu_t is not None:
                grads["mu"] = tape.grad(mu_t)[0]
                grads["raw_sigma"] = tape.grad(sig_t)[0]
            if a_t is not None:
                grads["raw_a"] = tape.grad(a_t)[0]
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        scale = clip_norm / norm if norm > clip_norm else 1.0
        if mu is not None:
            mu = mu + lr * scale * grads["mu"]
            raw_sigma = raw_sigma + lr * scale * grads["raw_sigma"]
        if raw_a is not None:
            raw_a = raw_a + lr * scale * grads["raw_a"]
        steps_run += 1

        tracked = _tracked_bound(model, corpus, doc, mu, raw_sigma, raw_a, kl_weight, eval_noises)
        if np.isfinite(tracked) and tracked > best_bound:
            best_bound = tracked
            best = {"mu": mu, "raw_sigma": raw_sigma, "raw_a": raw_a}
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= stop_patience:
                break

    return RefinementResult(
        gauss_mu=best["mu"],
        gauss_raw_sigma=best["raw_sigma"],
        piece_raw_a=best["raw_a"],
        bound=best_bound,
        initial_bound=initial_bound,
        steps=steps_run,
    )


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

    Returns the refined EvalReport together with the per-document
    refinement results (whose tracked bounds carry the hard
    best-at-least-initial guarantee).
    """
    if len(corpus) == 0:
        raise ValueError("evaluate_iterative: empty corpus")
    root = _root(rng)
    bounds = np.zeros(len(corpus))
    tokens = np.zeros(len(corpus))
    refinements: list[RefinementResult] = []

    for i, doc in enumerate(corpus.docs):
        res = iterative_inference(
            model,
            corpus,
            doc,
            steps_max=steps_max,
            lr=lr,
            stop_patience=stop_patience,
            clip_norm=clip_norm,
            kl_weight=kl_weight,
            rng=_doc_rng(root, doc, 3),
        )
        refinements.append(res)
        final_rng = _doc_rng(root, doc, 4)
        rep = posterior_bound(
            model,
            corpus,
            doc,
            gauss_mu=_row(res.gauss_mu),
            gauss_raw_sigma=_row(res.gauss_raw_sigma),
            piece_raw_a=_row(res.piece_raw_a),
            kl_weight=kl_weight,
            noises=draw_noises(model, num_samples, final_rng),
        )
        bounds[i] = rep.bound
        tokens[i] = doc.token_count
    report = _aggregate(bounds, tokens, num_samples, "iterative")
    return report, refinements


def sample_prior_docs(
    model: NvdmModel,
    num_docs: int,
    top_k: int,
    rng: np.random.Generator,
    vocab=None,
):
    """Top-k decoder words for draws from the learned prior.

    Ties in log-probability break on the lower word id.  Returns token
    lists when a vocabulary is given, word-id lists otherwise.
    """
    top_k = max(0, min(top_k, model.vocab_size))
    out = []
    for _ in range(num_docs):
        z_g = z_p = None
        if model.gauss_dims > 0:
            prior = gaussian.prior_forward(model.gaussian_head())
            z_g = gaussian.sample(prior, rng).data
        if model.piece_dims > 0:
            a = piecewise.head_forward(model.piecewise_prior_head()).data.reshape(model.piece_dims, model.n_pieces)
            z01 = piecewise.inverse_cdf_rows(a, rng.random(model.piece_dims))
            z_p = piecewise.shift_to_signed(z01)
        z = np.concatenate([part for part in (z_g, z_p) if part is not None])
        logp = decode_logprob(model, Tensor(z)).data
        order = np.argsort(-logp, kind="stable")[:top_k]
        out.append([vocab[i] for i in order] if vocab is not None else list(map(int, order)))
    return out
