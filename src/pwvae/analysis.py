"""Qualitative model analyses: word neighbours, KL word sensitivity, mean export.

Word neighbours rank vocabulary entries by Euclidean distance between
rows of the decoder matrix.  KL sensitivity attributes, per document, the
squared gradient of each latent family's KL term to the components of the
encoder input vector and counts which present words land in the
per-document top-m, giving one count table per family.  The mean export
writes per-document posterior means (Gaussian means plus closed-form
piecewise means) for external projection tools.
"""

from __future__ import annotations

import numpy as np

from . import gaussian, piecewise
from .corpus import Corpus
from .nvdm import NvdmModel, amortized_posterior, encode, priors
from .tensor import Tape, Tensor

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


def _family_kl_node(model: NvdmModel, enc, family: str):
    prior = priors(model)
    gauss_post, piece_raw = amortized_posterior(model, enc, prior)
    if family == "gaussian":
        return gaussian.kl(gauss_post, prior[0])
    return piecewise.kl_between(piecewise.head_forward(piece_raw), prior[1], model.piece_dims, model.n_pieces)


def kl_sensitivity(model: NvdmModel, corpus: Corpus, top_m: int = 5):
    """Count, per word, top-m appearances of squared KL input gradients.

    For every document and each latent family, the gradient of that
    family's KL term with respect to the dense encoder input is squared
    componentwise and masked to the words present in the document; the
    top_m present word types (ties broken by word id) each receive one
    count.  Returns (gaussian_counts, piecewise_counts) over the
    vocabulary.
    """
    families = []
    if model.gauss_dims > 0:
        families.append("gaussian")
    if model.piece_dims > 0:
        families.append("piecewise")
    counts = {
        "gaussian": np.zeros(model.vocab_size, dtype=np.int64),
        "piecewise": np.zeros(model.vocab_size, dtype=np.int64),
    }
    for doc in corpus.docs:
        present = doc.term_ids
        for family in families:
            x = Tensor(corpus.dense(doc))
            with Tape() as tape:
                kl_node = _family_kl_node(model, encode(model, x), family)
                tape.backward(kl_node)
                g = tape.grad(x)
            score = g[present] ** 2
            top = present[np.argsort(-score, kind="stable")[:top_m]]
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
        prior = priors(model)
        for doc in corpus.docs:
            gauss_post, piece_raw = amortized_posterior(model, encode(model, Tensor(corpus.dense(doc))), prior)
            values: list[float] = []
            if gauss_post is not None:
                values.extend(gauss_post.mu.data)
            if piece_raw is not None:
                a = piecewise.head_forward(piece_raw)
                values.extend(piecewise.mean_rows(a.data.reshape(model.piece_dims, model.n_pieces)))
            label = doc.label if doc.label is not None else "-"
            fh.write("\t".join([doc.doc_id, label] + [f"{v:.10g}" for v in values]) + "\n")
    return len(corpus.docs)
