"""Corpus file formats, filtering rules, and the synthetic generator."""

import gzip
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
        assert corpus.dense(doc)[3] == pytest.approx(np.log(3.0), abs=1e-12)
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

    def test_out_of_vocabulary_filtered_and_empty_docs_dropped(self, tmp_path, vocab_path):
        docs = write(tmp_path, "docs.txt", "0 3:2 99:5\n1 42:1\n2 1:1\n")
        corpus = cio.load_corpus(vocab_path, docs)
        assert len(corpus) == 2
        assert corpus.dropped_docs == 1
        np.testing.assert_array_equal(corpus.docs[0].term_ids, [3])

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
