"""Qualitative model analyses: word neighbours, KL word sensitivity, mean export.

Word neighbours rank vocabulary entries by Euclidean distance between
rows of the decoder matrix.  KL sensitivity attributes, per document, the
squared gradient of each latent family's KL term to the components of the
encoder input vector and counts which present words land in the
per-document top-m, giving one count table per family.  The mean export
writes per-document posterior means (Gaussian means plus closed-form
piecewise means) for external projection tools.  Both run documents as
rows, ``EVAL_BLOCK`` at a time; a row's KL depends only on its own input
row, so one backward pass per block and family gives every gradient.
That pass computes only its own family's posterior, against a prior
built once per call outside every tape.
"""

from __future__ import annotations

import numpy as np

from . import gaussian, piecewise
from .corpus import Corpus
from .evaluation import EVAL_BLOCK
from .nvdm import NvdmModel, amortized_posterior, encode, priors
from .tensor import Tape, Tensor, affine, sum_all

__all__ = ["UnknownTokenError", "word_neighbors", "kl_sensitivity", "export_posterior_means"]


class UnknownTokenError(ValueError):
    """Query token missing from the vocabulary; carries nearby spellings."""

    def __init__(self, token: str, suggestions: list[str]):
        self.token = token
        self.suggestions = suggestions
        super().__init__(f"unknown token {token!r}; nearest spellings: {', '.join(suggestions)}")


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def word_neighbors(model: NvdmModel, vocab, query: str, k: int):
    """k nearest words to the query in decoder-row space, query excluded.

    Distances are Euclidean; ties break on the lower word id.  Returns
    (token, distance) pairs.
    """
    tokens = list(vocab)
    if len(tokens) != model.vocab_size:
        raise ValueError(f"vocabulary size {len(tokens)} != model vocabulary size {model.vocab_size}")
    try:
        qid = tokens.index(query)
    except ValueError:
        by_edit = sorted(tokens, key=lambda t: (_edit_distance(query, t), t))[:5]
        raise UnknownTokenError(query, by_edit) from None
    r = model.params["dec_r"].data
    dist = np.linalg.norm(r - r[qid], axis=1)
    order = [i for i in np.argsort(dist, kind="stable") if i != qid]
    k = max(0, min(k, len(order)))
    return [(tokens[i], float(dist[i])) for i in order[:k]]


def _family_kl_node(model: NvdmModel, enc, family: str, prior):
    """The (B,) KL rows of one latent family at encoding rows ``enc``, against that family's ``prior``."""
    if family == "gaussian":
        return gaussian.kl(gaussian.from_raw(*gaussian.posterior_forward(model.gaussian_head(), enc)), prior)
    piece_raw_a = affine(enc, model.params["p_post_w_a"], model.params["p_post_b_a"])
    return piecewise.kl_between(piecewise.head_forward(piece_raw_a), prior, model.piece_dims, model.n_pieces)


def kl_sensitivity(model: NvdmModel, corpus: Corpus, top_m: int = 5):
    """Count, per word, top-m appearances of squared KL input gradients.

    For every document and each latent family, the gradient of that
    family's KL term with respect to the dense encoder input is squared
    componentwise and masked to the words present in the document; the
    top_m present word types (ties broken by word id) each receive one
    count.  Returns (gaussian_counts, piecewise_counts) over the
    vocabulary.
    """
    if top_m < 1:
        raise ValueError(f"top_m must be >= 1, got {top_m}")
    # Both priors once per call and outside every tape: their gradients are never read.
    gauss_prior, a_prior = priors(model)
    families = {}
    if model.gauss_dims > 0:
        families["gaussian"] = gauss_prior
    if model.piece_dims > 0:
        families["piecewise"] = a_prior
    counts = {
        "gaussian": np.zeros(model.vocab_size, dtype=np.int64),
        "piecewise": np.zeros(model.vocab_size, dtype=np.int64),
    }
    for lo in range(0, len(corpus), EVAL_BLOCK):
        docs = corpus.docs[lo : lo + EVAL_BLOCK]
        x = Tensor(corpus.dense(docs))
        for family, prior in families.items():
            with Tape() as tape:
                tape.backward(sum_all(_family_kl_node(model, encode(model, x), family, prior)))
                g = tape.grad(x)
            for row, doc in zip(g, docs):
                present = doc.term_ids
                top = present[np.argsort(-row[present] ** 2, kind="stable")[:top_m]]
                counts[family][top] += 1
    return counts["gaussian"], counts["piecewise"]


def export_posterior_means(model: NvdmModel, corpus: Corpus, out_path: str) -> int:
    """Write one line per document: id, label, Gaussian means, piecewise means.

    Piecewise means are closed form (sum of segment mass times segment
    midpoint) on the unshifted [0, 1] parametrisation.  Returns the
    number of data lines written.
    """
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("# per-document posterior means\n")
        fh.write(f"# doc_id label mu[{model.gauss_dims}] piecewise_mean[{model.piece_dims}]\n")
        for lo in range(0, len(corpus), EVAL_BLOCK):
            docs = corpus.docs[lo : lo + EVAL_BLOCK]
            post = amortized_posterior(model, encode(model, Tensor(corpus.dense(docs))))
            columns = []
            if post["gauss_mu"] is not None:
                columns.append(post["gauss_mu"].data)
            if post["piece_raw_a"] is not None:
                a = piecewise.head_forward(post["piece_raw_a"]).data
                columns.append(piecewise.mean_rows(a.reshape(-1, model.n_pieces)).reshape(len(docs), model.piece_dims))
            for doc, values in zip(docs, np.concatenate(columns, axis=1)):
                label = doc.label if doc.label is not None else "-"
                fh.write("\t".join([doc.doc_id, label] + [f"{v:.10g}" for v in values]) + "\n")
    return len(corpus.docs)
