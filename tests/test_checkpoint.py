"""Checkpoint format: losslessness, byte stability and clean rejection of bad files."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pwvae import checkpoint as ck
from pwvae import corpus as cio
from pwvae import nvdm, training


def perturbed(model, seed):
    rng = np.random.default_rng(seed)
    return model.replaced({name: t.data + rng.normal(size=t.data.shape) for name, t in model.named_parameters()})


class TestRoundTrip:
    @pytest.mark.parametrize("variant,kw", [
        ("g", dict(gauss_dims=3, piece_dims=0, n_pieces=2)),
        ("p", dict(gauss_dims=0, piece_dims=2, n_pieces=5)),
        ("h", dict(gauss_dims=2, piece_dims=2, n_pieces=3)),
    ])
    def test_save_load_save_is_byte_identical(self, tmp_path, variant, kw):
        model = perturbed(nvdm.init_model(variant, 11, hidden=4, activation="prelu", seed=1, **kw), seed=2)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        ck.save_checkpoint(model, p1)
        loaded = ck.load_checkpoint(p1)
        ck.save_checkpoint(loaded, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_values_round_trip_exactly(self, tmp_path):
        model = perturbed(nvdm.init_model("h", 7, hidden=3, gauss_dims=2, piece_dims=1, n_pieces=4, seed=3), seed=4)
        path = str(tmp_path / "m.ckpt")
        ck.save_checkpoint(model, path)
        loaded = ck.load_checkpoint(path)
        assert loaded.variant == model.variant
        assert loaded.n_pieces == model.n_pieces
        assert loaded.activation == model.activation
        for name, t in model.named_parameters():
            np.testing.assert_array_equal(loaded.params[name].data, t.data)

    def test_softsign_model_round_trip(self, tmp_path):
        model = nvdm.init_model("g", 6, hidden=3, gauss_dims=2, activation="softsign", seed=5)
        path = str(tmp_path / "m.ckpt")
        ck.save_checkpoint(model, path)
        loaded = ck.load_checkpoint(path)
        assert loaded.activation == "softsign"
        assert "enc_leak0" not in loaded.params

    def test_header_magic(self, tmp_path):
        model = nvdm.init_model("g", 5, hidden=2, gauss_dims=1, seed=6)
        path = str(tmp_path / "m.ckpt")
        ck.save_checkpoint(model, path)
        with np.load(path, allow_pickle=False) as archive:
            assert str(archive["header"]).split("\n")[0] == "pwvae-ckpt v2"

    def test_written_at_exactly_the_given_path(self, tmp_path):
        ck.save_checkpoint(nvdm.init_model("g", 5, hidden=2, gauss_dims=1, seed=6), str(tmp_path / "model.ckpt"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
        assert not (tmp_path / "model.ckpt.npz").exists()

    @pytest.mark.parametrize("variant,kw", [
        ("g", dict(gauss_dims=2)),
        ("p", dict(gauss_dims=0, piece_dims=2, n_pieces=3)),
        ("h", dict(gauss_dims=2, piece_dims=2, n_pieces=3)),
    ])
    def test_loaded_arrays_are_float64_contiguous_and_read_only_like_the_saved_ones(self, tmp_path, variant, kw):
        """Every ``Tensor`` holds a read-only array; a loaded one is C-ordered float64 like a fresh one."""
        model = perturbed(nvdm.init_model(variant, 9, hidden=3, seed=8, **kw), seed=9)
        path = str(tmp_path / "m.ckpt")
        ck.save_checkpoint(model, path)
        loaded = ck.load_checkpoint(path)
        assert list(loaded.params) == list(model.params)
        for name, t in model.named_parameters():
            got = loaded.params[name].data
            assert got.dtype == np.float64 and got.flags.c_contiguous, name
            assert got.flags.writeable == t.data.flags.writeable, name

    def test_loaded_model_trains_one_step_bit_identically(self, tmp_path):
        data = cio.make_synthetic_bimodal(24, 12, seed=10)
        train_c, valid_c = replace(data, docs=data.docs[:20]), replace(data, docs=data.docs[20:])
        model = perturbed(nvdm.init_model("h", 12, hidden=4, gauss_dims=2, piece_dims=2, n_pieces=3, seed=11), seed=12)
        path = str(tmp_path / "m.ckpt")
        ck.save_checkpoint(model, path)
        config = training.TrainConfig(learning_rate=0.01, batch_size=20, max_epochs=1, seed=13)
        want = training.train(model, train_c, valid_c, config).model
        got = training.train(ck.load_checkpoint(path), train_c, valid_c, config).model
        assert any(not np.array_equal(want.params[name].data, t.data) for name, t in model.named_parameters())
        for name, t in want.named_parameters():
            np.testing.assert_array_equal(got.params[name].data, t.data, err_msg=name)


def saved_arrays(tmp_path):
    """The arrays of a saved variant-G checkpoint, header first."""
    path = str(tmp_path / "good.ckpt")
    ck.save_checkpoint(nvdm.init_model("g", 5, hidden=2, gauss_dims=1, seed=7), path)
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def write_arrays(path, arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def header_with(arrays, old, new):
    return {**arrays, "header": np.array(str(arrays["header"]).replace(old, new))}


def rejects(path, match):
    with pytest.raises(ck.CheckpointError, match=match) as info:
        ck.load_checkpoint(str(path))
    assert str(path) in str(info.value)


class TestErrors:
    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        with pytest.raises(ck.CheckpointError, match="not a"):
            ck.load_checkpoint(str(path))

    def test_rejects_truncation(self, tmp_path):
        model = nvdm.init_model("g", 5, hidden=2, gauss_dims=1, seed=7)
        path = tmp_path / "m.ckpt"
        ck.save_checkpoint(model, str(path))
        data = path.read_bytes()
        for keep in (len(data) - 1, len(data) - 30, len(data) // 2, 100, 4):
            path.write_bytes(data[:keep])
            rejects(path, "pwvae-ckpt v2")

    def test_rejects_v1_text_checkpoint_by_name(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_text("pwvae-ckpt v1\nvariant g\nvocab 5\n", encoding="ascii")
        rejects(path, "pwvae-ckpt v1 text checkpoint")

    def test_rejects_npy_and_empty_zip(self, tmp_path):
        npy = tmp_path / "m.npy"
        np.save(npy, np.zeros(3))
        rejects(npy, "not a pwvae-ckpt v2 file")
        empty = tmp_path / "empty.ckpt"
        write_arrays(empty, {})
        rejects(empty, "not a pwvae-ckpt v2 file")

    def test_rejects_wrong_or_missing_magic(self, tmp_path):
        arrays = saved_arrays(tmp_path)
        for bad in (
            header_with(arrays, "pwvae-ckpt v2", "pwvae-ckpt v3"),
            {name: a for name, a in arrays.items() if name != "header"},
            {**arrays, "header": np.array([str(arrays["header"])])},
            {**arrays, "header": np.array(str(arrays["header"]).encode())},
        ):
            write_arrays(tmp_path / "m.ckpt", bad)
            rejects(tmp_path / "m.ckpt", "not a pwvae-ckpt v2 file")

    @pytest.mark.parametrize("old,new", [
        ("vocab_size 5", "vocab_size five"),
        ("vocab_size 5", "vocab_size 5.0"),
        ("vocab_size 5\n", ""),
        ("hidden 2", "hidden 2 3"),
        ("hidden 2", "hidden"),
        ("activation prelu", "activation prelu\nextra 1"),
        ("variant g\nvocab_size 5", "vocab_size 5\nvariant g"),
        # Well-formed lines whose values init_model rejects.
        ("activation prelu", "activation relu"),
        ("variant g", "variant z"),
    ])
    def test_rejects_malformed_header(self, tmp_path, old, new):
        arrays = saved_arrays(tmp_path)
        assert old in str(arrays["header"])
        write_arrays(tmp_path / "m.ckpt", header_with(arrays, old, new))
        rejects(tmp_path / "m.ckpt", "malformed header")

    def test_rejects_missing_extra_and_misnamed_arrays(self, tmp_path):
        arrays = saved_arrays(tmp_path)
        renamed = {("enc_b9" if name == "enc_b1" else name): a for name, a in arrays.items()}
        for bad, match in (
            ({name: a for name, a in arrays.items() if name != "dec_b"}, r"missing \['dec_b'\], unexpected \[\]"),
            ({**arrays, "dec_b2": arrays["dec_b"]}, r"missing \[\], unexpected \['dec_b2'\]"),
            (renamed, r"missing \['enc_b1'\], unexpected \['enc_b9'\]"),
        ):
            write_arrays(tmp_path / "m.ckpt", bad)
            rejects(tmp_path / "m.ckpt", match)

    def test_rejects_wrong_shape_and_dtype(self, tmp_path):
        arrays = saved_arrays(tmp_path)
        w = arrays["enc_w0"]
        for bad in (w.T, w.reshape(-1), w[:, :-1], w.astype(np.float32), w.astype(">f8"), w.astype(np.int64)):
            write_arrays(tmp_path / "m.ckpt", {**arrays, "enc_w0": bad})
            rejects(tmp_path / "m.ckpt", "parameter 'enc_w0' is")

    def test_rejects_pickled_arrays(self, tmp_path):
        arrays = saved_arrays(tmp_path)
        with open(tmp_path / "m.ckpt", "wb") as fh:
            np.savez(fh, **{**arrays, "dec_b": np.array([None, 1.0], dtype=object)})
        rejects(tmp_path / "m.ckpt", "unreadable pwvae-ckpt v2 archive")

    def test_rejects_corrupted_bytes(self, tmp_path):
        """A flipped byte is rejected or leaves every value intact.

        Every byte of the first member's header and of the central
        directory is flipped, and every 31st byte between them.
        """
        model = nvdm.init_model("g", 5, hidden=2, gauss_dims=1, seed=7)
        path = tmp_path / "m.ckpt"
        ck.save_checkpoint(model, str(path))
        data = path.read_bytes()
        for i in sorted({*range(64), *range(64, len(data), 31), *range(len(data) - 256, len(data))}):
            path.write_bytes(data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1:])
            try:
                loaded = ck.load_checkpoint(str(path))
            except ck.CheckpointError as exc:
                assert str(path) in str(exc)
                continue
            for name, t in model.named_parameters():
                np.testing.assert_array_equal(loaded.params[name].data, t.data)
