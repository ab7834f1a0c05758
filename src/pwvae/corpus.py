"""Corpus ingestion: vocabulary, sparse count vectors, synthetic data.

File formats (gzip variants accepted by `.gz` extension):

* vocabulary: one token per line, UTF-8; id = zero-based line number.
* documents: one document per line, ASCII,
  ``doc_id term:count term:count ...`` with space separators.
* labels (optional sidecar): one label per line, aligned with documents.

Counts are stored as integers.  A ``Document`` holds each term id at most
once, and computes its token count and its content key once.  Densifying
works per batch: ``Corpus.dense_counts`` builds a batch's (B, V) count
rows with one scatter, in the float dtype a model computes in, and
``Corpus.dense`` applies the optional log(1 + TF) transform to them for
the encoder.
"""

from __future__ import annotations

import gzip
import hashlib
import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "CorpusFormatError",
    "Document",
    "Corpus",
    "TRANSFORMS",
    "load_corpus",
    "save_corpus",
    "load_vocab",
    "load_labels",
    "make_synthetic_bimodal",
]

logger = logging.getLogger(__name__)

TRANSFORMS = ("none", "log1p_tf")


class CorpusFormatError(ValueError):
    """Malformed vocabulary or document file."""


@dataclass(frozen=True, eq=False)
class Document:
    """A bag of words: distinct term ids and their counts.

    A negative or repeated term id, or a count below 1, raises ValueError
    naming the document; ids at or above a corpus's vocabulary size are
    caught when the corpus densifies them.  The token count and the content
    key are computed once, on first use, and then kept.  Two documents are
    equal when their ids, labels, term ids and counts are, and the hash
    follows that equality, so corpora of documents compare and hash too.
    """

    doc_id: str
    term_ids: np.ndarray
    counts: np.ndarray
    label: str | None = None

    def __post_init__(self):
        ids = np.asarray(self.term_ids, dtype=np.int64)
        cnt = np.asarray(self.counts, dtype=np.int64)
        if ids.ndim != 1 or ids.shape != cnt.shape:
            raise ValueError(f"document {self.doc_id!r}: term ids of shape {ids.shape} and counts of shape {cnt.shape} do not pair up")
        if ids.size and ids.min() < 0:
            raise ValueError(f"document {self.doc_id!r}: negative term id {ids.min()}")
        if cnt.size and cnt.min() < 1:
            raise ValueError(f"document {self.doc_id!r}: count must be >= 1, got {cnt.min()}")
        if len(set(ids.tolist())) != ids.size:
            values, times = np.unique(ids, return_counts=True)
            raise ValueError(f"document {self.doc_id!r}: term id {values[times > 1][0]} appears more than once")
        ids.flags.writeable = False
        cnt.flags.writeable = False
        object.__setattr__(self, "term_ids", ids)
        object.__setattr__(self, "counts", cnt)

    def __eq__(self, other):
        if not isinstance(other, Document):
            return NotImplemented
        same_arrays = np.array_equal(self.term_ids, other.term_ids) and np.array_equal(self.counts, other.counts)
        return (self.doc_id, self.label) == (other.doc_id, other.label) and same_arrays

    def __hash__(self) -> int:
        return hash((self.doc_id, self.label, self.key))

    @cached_property
    def token_count(self) -> int:
        return sum(self.counts.tolist())

    @cached_property
    def key(self) -> int:
        """Content key: the 64-bit blake2b digest of the term-id bytes followed by the count bytes; evaluation keys noise by it."""
        digest = hashlib.blake2b(self.term_ids.tobytes(), digest_size=8)
        digest.update(self.counts.tobytes())
        return int.from_bytes(digest.digest(), "little")


@dataclass(frozen=True)
class Corpus:
    vocab: tuple[str, ...]
    docs: tuple[Document, ...]
    transform: str = "none"
    dropped_docs: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.transform not in TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}; expected one of {TRANSFORMS}")

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def __len__(self) -> int:
        return len(self.docs)

    def dense_counts(self, docs, *, dtype) -> np.ndarray:
        """(B, V) raw counts of a batch of documents as ``dtype``, one row per document in order, from one scatter.

        A term id at or above the vocabulary size raises ValueError naming
        the first document that holds one.
        """
        rows = np.zeros((len(docs), self.vocab_size), dtype=dtype)
        row_of_entry = np.repeat(np.arange(len(docs)), [doc.term_ids.size for doc in docs])
        ids = np.concatenate([doc.term_ids for doc in docs])
        if ids.size and ids.max() >= self.vocab_size:
            doc = docs[row_of_entry[np.argmax(ids >= self.vocab_size)]]
            raise ValueError(f"document {doc.doc_id!r}: term id {doc.term_ids.max()} is outside the vocabulary of {self.vocab_size} words")
        rows[row_of_entry, ids] = np.concatenate([doc.counts for doc in docs])
        return rows

    def dense(self, docs, *, dtype, counts: np.ndarray | None = None) -> np.ndarray:
        """(B, V) encoder rows of a batch as ``dtype``: ``counts`` (by default ``dense_counts(docs, dtype=dtype)``) with the transform applied; under "none" the same array."""
        if counts is None:
            counts = self.dense_counts(docs, dtype=dtype)
        return np.log1p(counts) if self.transform == "log1p_tf" else counts


def _open_text(path: str, mode: str = "rt"):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode, encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def load_vocab(path: str) -> tuple[str, ...]:
    """One token per line, from a plain or a ``.gz`` file; an empty vocabulary raises CorpusFormatError."""
    with _open_text(path) as fh:
        vocab = tuple(line.rstrip("\n") for line in fh)
    if not vocab:
        raise CorpusFormatError(f"{path}: empty vocabulary")
    return vocab


def load_labels(path: str) -> tuple[str, ...]:
    with _open_text(path) as fh:
        return tuple(line.strip() for line in fh)


def load_corpus(vocab_path: str, docs_path: str, transform: str = "none", labels_path: str | None = None) -> Corpus:
    """Load a corpus, filtering terms outside the vocabulary.

    Term ids at or above the vocabulary size are treated as
    out-of-vocabulary and dropped; documents left empty are removed and
    the number of removals is reported.  Negative ids, non-numeric
    fields, counts below 1, or a term id repeated within a line are parse
    errors.  A labels sidecar holds one line per document line, dropped
    documents included; any other count is an error.
    """
    vocab = load_vocab(vocab_path)
    labels = load_labels(labels_path) if labels_path else None
    docs: list[Document] = []
    dropped = 0
    with _open_text(docs_path) as fh:
        lineno = 0
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            doc_id = parts[0]
            ids: list[int] = []
            counts: list[int] = []
            for tok in parts[1:]:
                try:
                    tid_s, cnt_s = tok.split(":")
                    tid, cnt = int(tid_s), int(cnt_s)
                except ValueError:
                    raise CorpusFormatError(f"{docs_path}:{lineno}: malformed term entry {tok!r}") from None
                if tid < 0:
                    raise CorpusFormatError(f"{docs_path}:{lineno}: negative term id {tid}")
                if cnt < 1:
                    raise CorpusFormatError(f"{docs_path}:{lineno}: count must be >= 1, got {cnt}")
                if tid >= len(vocab):
                    continue  # out of vocabulary
                ids.append(tid)
                counts.append(cnt)
            file_index = len(docs) + dropped
            if not ids:
                dropped += 1
                continue
            label = labels[file_index] if labels is not None and file_index < len(labels) else None
            try:
                docs.append(Document(doc_id=doc_id, term_ids=np.array(ids), counts=np.array(counts), label=label))
            except ValueError as exc:
                raise CorpusFormatError(f"{docs_path}:{lineno}: {exc}") from None
        if lineno == 0:
            raise CorpusFormatError(f"{docs_path}: no documents")
    if labels is not None and len(labels) != len(docs) + dropped:
        raise CorpusFormatError(f"{labels_path}: {len(labels)} labels for {len(docs) + dropped} documents in {docs_path}")
    if not docs:
        raise CorpusFormatError(f"{docs_path}: no documents")
    if dropped:
        logger.warning("%s: dropped %d empty document(s) after vocabulary filtering", docs_path, dropped)
    return Corpus(vocab=vocab, docs=tuple(docs), transform=transform, dropped_docs=dropped)


def save_corpus(corpus: Corpus, vocab_path: str, docs_path: str, labels_path: str | None = None) -> None:
    with _open_text(vocab_path, "wt") as fh:
        for token in corpus.vocab:
            fh.write(token + "\n")
    with _open_text(docs_path, "wt") as fh:
        for doc in corpus.docs:
            entries = " ".join(f"{t}:{c}" for t, c in zip(doc.term_ids, doc.counts))
            fh.write(f"{doc.doc_id} {entries}\n")
    if labels_path is not None:
        with _open_text(labels_path, "wt") as fh:
            for doc in corpus.docs:
                fh.write((doc.label or "-") + "\n")


def make_synthetic_bimodal(num_docs: int, vocab_size: int, seed: int) -> Corpus:
    """Two-topic corpus for multi-modality checks.

    Each document picks one of two modes uniformly; mode 0 puts 95% of its
    word mass uniformly on the first half of the vocabulary and 5% on the
    second half, mode 1 mirrors that.  Document lengths follow
    Poisson(50) + 1.  Deterministic for a fixed seed.
    """
    if vocab_size % 2 != 0:
        raise ValueError("make_synthetic_bimodal: vocab_size must be even")
    rng = np.random.default_rng(seed)
    half = vocab_size // 2
    p0 = np.concatenate([np.full(half, 0.95 / half), np.full(half, 0.05 / half)])
    p1 = p0[::-1].copy()
    vocab = tuple(f"w{i}" for i in range(vocab_size))
    docs = []
    for i in range(num_docs):
        mode = int(rng.integers(2))
        length = int(rng.poisson(50.0)) + 1
        words = rng.choice(vocab_size, size=length, p=p0 if mode == 0 else p1)
        ids, counts = np.unique(words, return_counts=True)
        docs.append(Document(doc_id=str(i), term_ids=ids, counts=counts, label=str(mode)))
    return Corpus(vocab=vocab, docs=tuple(docs))
