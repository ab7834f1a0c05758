"""Corpus file formats, filtering rules, and the synthetic generator."""

import gzip
import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pwvae import corpus as cio


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def vocab_path(tmp_path):
    return write(tmp_path, "vocab.txt", "".join(f"w{i}\n" for i in range(10)))


class TestLoading:
    def test_basic_line(self, tmp_path, vocab_path):
        docs = write(tmp_path, "docs.txt", "0 3:2 7:1\n")
        corpus = cio.load_corpus(vocab_path, docs)
        doc = corpus.docs[0]
        assert doc.doc_id == "0"
        np.testing.assert_array_equal(doc.term_ids, [3, 7])
        np.testing.assert_array_equal(doc.counts, [2, 1])

    def test_log1p_transform_at_densification(self, tmp_path, vocab_path):
        docs = write(tmp_path, "docs.txt", "0 3:2\n")
        corpus = cio.load_corpus(vocab_path, docs, transform="log1p_tf")
        doc = corpus.docs[0]
        assert corpus.dense([doc], dtype=np.float64)[0, 3] == pytest.approx(np.log(3.0), abs=1e-12)
        assert doc.counts[0] == 2  # stored counts stay integers

    def test_empty_file_rejected(self, tmp_path, vocab_path):
        docs = write(tmp_path, "docs.txt", "")
        with pytest.raises(cio.CorpusFormatError, match="no documents"):
            cio.load_corpus(vocab_path, docs)

    def test_malformed_entry_reports_line(self, tmp_path, vocab_path):
        docs = write(tmp_path, "docs.txt", "0 3:2\n1 oops\n")
        with pytest.raises(cio.CorpusFormatError, match=":2:"):
            cio.load_corpus(vocab_path, docs)

    def test_negative_id_rejected(self, tmp_path, vocab_path):
        docs = write(tmp_path, "docs.txt", "0 -3:2\n")
        with pytest.raises(cio.CorpusFormatError, match="negative"):
            cio.load_corpus(vocab_path, docs)

    def test_zero_count_rejected(self, tmp_path, vocab_path):
        docs = write(tmp_path, "docs.txt", "0 3:0\n")
        with pytest.raises(cio.CorpusFormatError, match="count"):
            cio.load_corpus(vocab_path, docs)

    def test_repeated_term_id_rejected_with_file_line_and_id(self, tmp_path, vocab_path):
        """A repeated id would give a token count that the dense rows, which keep one entry, do not hold."""
        docs = write(tmp_path, "docs.txt", "d0 3:2\nd1 1:1 1:2 3:1\n")
        with pytest.raises(cio.CorpusFormatError, match=r"docs\.txt:2: document 'd1': term id 1 appears more than once"):
            cio.load_corpus(vocab_path, docs)

    def test_out_of_vocabulary_filtered_and_empty_docs_dropped(self, tmp_path, vocab_path):
        docs = write(tmp_path, "docs.txt", "0 3:2 99:5\n1 42:1\n2 1:1\n")
        corpus = cio.load_corpus(vocab_path, docs)
        assert len(corpus) == 2
        assert corpus.dropped_docs == 1
        np.testing.assert_array_equal(corpus.docs[0].term_ids, [3])

    def test_blank_lines_are_skipped(self, tmp_path, vocab_path):
        docs = write(tmp_path, "docs.txt", "\n0 3:2\n   \n\n1 1:1\n")
        corpus = cio.load_corpus(vocab_path, docs)
        assert [doc.doc_id for doc in corpus.docs] == ["0", "1"] and corpus.dropped_docs == 0

    def test_every_document_out_of_vocabulary_rejected(self, tmp_path, vocab_path):
        docs = write(tmp_path, "docs.txt", "0 10:2\n1 42:1 99:3\n")
        with pytest.raises(cio.CorpusFormatError, match=r"docs\.txt: no documents"):
            cio.load_corpus(vocab_path, docs)

    def test_gzip_round_trip(self, tmp_path):
        corpus = cio.make_synthetic_bimodal(20, 10, seed=3)
        vocab_gz = str(tmp_path / "v.vocab.gz")
        docs_gz = str(tmp_path / "d.docs.gz")
        cio.save_corpus(corpus, vocab_gz, docs_gz)
        with gzip.open(docs_gz, "rt", encoding="utf-8") as fh:
            assert fh.readline().startswith("0 ")
        loaded = cio.load_corpus(vocab_gz, docs_gz)
        assert len(loaded) == len(corpus)

    def test_labels_sidecar(self, tmp_path, vocab_path):
        docs = write(tmp_path, "docs.txt", "0 3:2\n1 4:1\n")
        labels = write(tmp_path, "labels.txt", "a\nb\n")
        corpus = cio.load_corpus(vocab_path, docs, labels_path=labels)
        assert [d.label for d in corpus.docs] == ["a", "b"]

    @pytest.mark.parametrize("lines", [1, 2, 3, 4])
    def test_labels_count_every_document_line(self, tmp_path, vocab_path, lines):
        """A document dropped as empty keeps its label line; fewer or more labels than document lines is an error naming both counts."""
        docs = write(tmp_path, "docs.txt", "0 3:2\n1 42:1\n2 4:1\n")
        labels = write(tmp_path, "labels.txt", "".join(f"{c}\n" for c in "abcd"[:lines]))
        if lines == 3:
            assert [d.label for d in cio.load_corpus(vocab_path, docs, labels_path=labels).docs] == ["a", "c"]
            return
        with pytest.raises(cio.CorpusFormatError, match=rf"labels\.txt: {lines} labels for 3 documents in .*docs\.txt$"):
            cio.load_corpus(vocab_path, docs, labels_path=labels)


class TestRoundTrip:
    def test_save_load_identical_sparse_vectors(self, tmp_path):
        corpus = cio.make_synthetic_bimodal(50, 20, seed=5)
        vp, dp, lp = (str(tmp_path / n) for n in ("v", "d", "l"))
        cio.save_corpus(corpus, vp, dp, lp)
        loaded = cio.load_corpus(vp, dp, labels_path=lp)
        assert loaded.vocab == corpus.vocab
        assert len(loaded) == len(corpus)
        for a, b in zip(loaded.docs, corpus.docs):
            assert a.doc_id == b.doc_id
            assert a.label == b.label
            np.testing.assert_array_equal(a.term_ids, b.term_ids)
            np.testing.assert_array_equal(a.counts, b.counts)

    def test_save_is_byte_stable(self, tmp_path):
        corpus = cio.make_synthetic_bimodal(30, 12, seed=6)
        p1, p2 = str(tmp_path / "a.docs"), str(tmp_path / "b.docs")
        cio.save_corpus(corpus, str(tmp_path / "a.vocab"), p1)
        cio.save_corpus(corpus, str(tmp_path / "b.vocab"), p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


class TestSynthetic:
    def test_deterministic_under_seed(self):
        a = cio.make_synthetic_bimodal(40, 16, seed=7)
        b = cio.make_synthetic_bimodal(40, 16, seed=7)
        for da, db in zip(a.docs, b.docs):
            np.testing.assert_array_equal(da.term_ids, db.term_ids)
            np.testing.assert_array_equal(da.counts, db.counts)
            assert da.label == db.label

    def test_majority_half_recovers_mode(self):
        corpus = cio.make_synthetic_bimodal(2000, 200, seed=8)
        half = corpus.vocab_size // 2
        correct = 0
        for doc in corpus.docs:
            first = doc.counts[doc.term_ids < half].sum()
            second = doc.counts[doc.term_ids >= half].sum()
            predicted = "0" if first >= second else "1"
            correct += predicted == doc.label
        assert correct / len(corpus) >= 0.99

    def test_length_distribution(self):
        corpus = cio.make_synthetic_bimodal(10_000, 20, seed=9)
        lengths = np.array([d.token_count for d in corpus.docs])
        assert abs(lengths.mean() - 51.0) < 2.0
        assert lengths.min() >= 1

    def test_odd_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="even"):
            cio.make_synthetic_bimodal(10, 9, seed=0)

    def test_no_empty_documents(self):
        corpus = cio.make_synthetic_bimodal(500, 30, seed=10)
        assert all(d.token_count >= 1 for d in corpus.docs)


class TestDocument:
    def test_repeated_term_id_rejected(self):
        with pytest.raises(ValueError, match="term id 4 appears more than once"):
            cio.Document("x", np.array([4, 1, 4]), np.array([1, 2, 3]))

    def test_unpaired_ids_and_counts_rejected(self):
        with pytest.raises(ValueError, match="do not pair up"):
            cio.Document("x", np.array([1, 2]), np.array([1]))

    @pytest.mark.parametrize("ids, counts, message", [
        ([-1, 0], [2, 1], "negative term id -1"),
        ([0, 1], [1, 0], "count must be >= 1, got 0"),
        ([0, 1], [1, -1], "count must be >= 1, got -1"),
    ])
    def test_negative_ids_and_counts_below_one_rejected(self, ids, counts, message):
        """A -1 id used to densify onto the last vocabulary column, and a -1 count gave a finite bound."""
        with pytest.raises(ValueError, match=f"document 'x': {message}"):
            cio.Document("x", ids, counts)

    def test_token_count_and_content_key_are_computed_once(self):
        """The key is the blake2b digest of the term-id bytes followed by the count bytes, read as a little-endian integer."""
        doc = cio.Document("x", np.array([2, 7]), np.array([3, 1]))
        digest = hashlib.blake2b(np.array([2, 7], dtype=np.int64).tobytes() + np.array([3, 1], dtype=np.int64).tobytes(), digest_size=8)
        assert doc.token_count == 4
        assert doc.key == int.from_bytes(digest.digest(), "little")
        assert doc.key is doc.key  # kept after the first use, not recomputed
        assert doc.key == cio.Document("renamed", np.array([2, 7]), np.array([3, 1]), label="1").key
        assert doc.key != cio.Document("x", np.array([2, 7]), np.array([1, 3])).key

    def test_documents_with_equal_content_are_equal_and_hash_alike(self):
        doc = cio.Document("x", np.array([2, 7, 9]), np.array([3, 1, 4]), label="a")
        twin = cio.Document("x", [2, 7, 9], [3, 1, 4], label="a")
        assert doc is not twin and doc == twin and hash(doc) == hash(twin)
        assert len({doc, twin}) == 1
        assert doc != cio.Document("x", np.array([2, 7, 9]), np.array([3, 1, 5]), label="a")
        assert doc != cio.Document("y", np.array([2, 7, 9]), np.array([3, 1, 4]), label="a")
        assert doc != cio.Document("x", np.array([2, 7, 9]), np.array([3, 1, 4]), label="b")
        assert doc != cio.Document("x", np.array([2, 7]), np.array([3, 1]), label="a")
        assert doc != (doc.doc_id, doc.term_ids, doc.counts, doc.label)

    def test_separately_built_corpora_are_equal_and_hash_alike(self):
        first, second = cio.make_synthetic_bimodal(3, 10, 1), cio.make_synthetic_bimodal(3, 10, 1)
        assert first.docs[0] is not second.docs[0]
        assert first == second and hash(first) == hash(second)
        assert first != cio.make_synthetic_bimodal(3, 10, 2)


def _reference_row(corpus, doc, transform):
    """One document's dense row, built entry by entry."""
    row = np.zeros(corpus.vocab_size)
    for term, count in zip(doc.term_ids.tolist(), doc.counts.tolist()):
        row[term] = float(count)
    return np.log1p(row) if transform == "log1p_tf" else row


class TestDense:
    """A batch's rows from one scatter equal the stacked per-document rows."""

    @pytest.mark.parametrize("transform", cio.TRANSFORMS)
    @pytest.mark.parametrize(
        "picks",
        [[0], [5, 2, 9, 0], [3, 3, 1, 3], list(range(12))[::-1]],
        ids=["single", "shuffled", "repeated", "reversed"],
    )
    def test_rows_match_a_per_document_reference(self, transform, picks):
        corpus = replace(cio.make_synthetic_bimodal(12, 30, seed=4), transform=transform)
        docs = [corpus.docs[i] for i in picks]
        counts = corpus.dense_counts(docs, dtype=np.float64)
        rows = corpus.dense(docs, dtype=np.float64)
        np.testing.assert_array_equal(counts, np.stack([_reference_row(corpus, doc, "none") for doc in docs]))
        np.testing.assert_array_equal(rows, np.stack([_reference_row(corpus, doc, transform) for doc in docs]))
        np.testing.assert_array_equal(corpus.dense(docs, dtype=np.float64, counts=counts), rows)
        assert counts.sum(axis=1).tolist() == [doc.token_count for doc in docs]

    def test_plain_rows_are_the_counts_array(self):
        corpus = cio.make_synthetic_bimodal(4, 10, seed=1)
        counts = corpus.dense_counts(corpus.docs, dtype=np.float64)
        assert corpus.dense(corpus.docs, dtype=np.float64, counts=counts) is counts
        logged = replace(corpus, transform="log1p_tf")
        assert logged.dense(corpus.docs, dtype=np.float64, counts=counts) is not counts

    @pytest.mark.parametrize("bad_id", [5, 6, 2**40])
    def test_term_id_outside_the_vocabulary_names_its_document(self, bad_id):
        """The scatter used to raise a bare IndexError that named no document."""
        docs = (cio.Document("ok", [0, 4], [1, 2]), cio.Document("bad", [1, bad_id, 2], [1, 1, 1]), cio.Document("also bad", [bad_id], [3]))
        corpus = cio.Corpus(vocab=tuple(f"w{i}" for i in range(5)), docs=docs)
        with pytest.raises(ValueError, match=f"document 'bad': term id {bad_id} is outside the vocabulary of 5 words"):
            corpus.dense_counts(docs, dtype=np.float64)
        with pytest.raises(ValueError, match="document 'bad'"):
            corpus.dense(docs[1:2], dtype=np.float64)
        np.testing.assert_array_equal(corpus.dense_counts(docs[:1], dtype=np.float64), [[1, 0, 0, 0, 2]])
