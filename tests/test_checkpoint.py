"""Checkpoint format: losslessness, byte stability and clean rejection of bad files."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pwvae import checkpoint as ck
from pwvae import corpus as cio
from pwvae import nvdm, training
from pwvae.tensor import Tensor


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
            assert str(archive["header"]).split("\n")[0] == "pwvae-ckpt v3"

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
        model = perturbed(nvdm.init_model(variant, 9, hidden=3, seed=8, **kw, dtype=np.float64), seed=9)
        path = str(tmp_path / "m.ckpt")
        ck.save_checkpoint(model, path)
        loaded = ck.load_checkpoint(path)
        assert list(loaded.params) == list(model.params)
        for name, t in model.named_parameters():
            got = loaded.params[name].data
            assert got.dtype == np.float64 and got.flags.c_contiguous, name
            assert got.flags.writeable == t.data.flags.writeable, name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_arrays_carry_the_models_dtype(self, tmp_path, dtype):
        """A float32 model loads as float32 and a float64 one as float64, each bit for bit and saved again byte for byte."""
        model = perturbed(nvdm.init_model("h", 9, hidden=3, gauss_dims=2, piece_dims=2, n_pieces=3, seed=20, dtype=dtype), seed=21)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        ck.save_checkpoint(model, p1)
        loaded = ck.load_checkpoint(p1)
        assert loaded.dtype == dtype
        for name, t in model.named_parameters():
            got = loaded.params[name].data
            assert got.dtype == dtype and got.tobytes() == t.data.tobytes(), name
        ck.save_checkpoint(loaded, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_a_float32_file_at_the_paper_shape_is_half_the_float64_one(self, tmp_path):
        """1,579,600 parameters: 12.6 MB of float64 values become 6.3 MB of float32, with the same archive overhead."""
        sizes = {}
        for dtype in (np.float32, np.float64):
            model = nvdm.init_model("h", 2000, hidden=500, gauss_dims=50, piece_dims=50, n_pieces=3, seed=0, dtype=dtype)
            path = tmp_path / f"{np.dtype(dtype).name}.ckpt"
            ck.save_checkpoint(model, str(path))
            sizes[dtype] = path.stat().st_size
        count = sum(t.data.size for _, t in model.named_parameters())
        assert count == 1_579_600
        assert sizes[np.float64] - 8 * count == sizes[np.float32] - 4 * count < 8192
        assert round(sizes[np.float64] / 1e6, 1) == 12.6 and round(sizes[np.float32] / 1e6, 1) == 6.3

    def test_a_fortran_ordered_decoder_is_stored_in_c_order(self, tmp_path):
        """``replaced`` and ``load_checkpoint`` copy a Fortran-ordered ``dec_r`` into C order, keeping its values."""
        model = perturbed(nvdm.init_model("h", 9, hidden=3, gauss_dims=2, piece_dims=2, n_pieces=3, seed=14, dtype=np.float64), seed=15)
        want = model.params["dec_r"].data
        fortran = np.asfortranarray(want)
        replaced = model.replaced({"dec_r": fortran})
        path = str(tmp_path / "m.ckpt")
        ck.save_checkpoint(model, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        write_arrays(path, {**arrays, "dec_r": fortran})
        loaded = ck.load_checkpoint(path)
        rng = np.random.default_rng(16)
        z, counts = Tensor(rng.normal(size=(3, model.latent_dim))), Tensor(rng.integers(0, 4, size=(3, 9)))
        logprob = nvdm.decode_logprob(model, z, counts).data
        for got in (replaced, loaded):
            dec_r = got.params["dec_r"].data
            assert dec_r.flags.c_contiguous and dec_r.tobytes() == want.tobytes()
            assert nvdm.decode_logprob(got, z, counts).data.tobytes() == logprob.tobytes()

    def test_a_fortran_ordered_tensor_is_saved_in_c_order(self, tmp_path):
        """A model holding a Fortran-ordered ``Tensor`` writes the same bytes as its C-ordered twin."""
        model = perturbed(nvdm.init_model("h", 9, hidden=3, gauss_dims=2, piece_dims=2, n_pieces=3, seed=17), seed=18)
        fortran = model.replaced({"dec_r": Tensor(np.asfortranarray(model.params["dec_r"].data))})
        assert fortran.params["dec_r"].data.flags.f_contiguous and not fortran.params["dec_r"].data.flags.c_contiguous
        want, got = tmp_path / "c.ckpt", tmp_path / "f.ckpt"
        ck.save_checkpoint(model, str(want))
        ck.save_checkpoint(fortran, str(got))
        assert got.read_bytes() == want.read_bytes()

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
    ck.save_checkpoint(nvdm.init_model("g", 5, hidden=2, gauss_dims=1, seed=7, dtype=np.float64), path)
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
            rejects(path, "pwvae-ckpt v3")

    def test_rejects_v1_text_checkpoint_by_name(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_text("pwvae-ckpt v1\nvariant g\nvocab 5\n", encoding="ascii")
        rejects(path, "pwvae-ckpt v1 text checkpoint")

    def test_rejects_v2_archive_by_name(self, tmp_path):
        """A v2 archive, written as v2 wrote it: the same members, with the v2 magic and ``dec_r`` as (V, L)."""
        model = perturbed(nvdm.init_model("h", 6, hidden=3, gauss_dims=2, piece_dims=1, n_pieces=3, seed=14), seed=15)
        path = tmp_path / "v2.ckpt"
        ck.save_checkpoint(model, str(path))
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["dec_r"] = np.ascontiguousarray(arrays["dec_r"].T)
        assert arrays["dec_r"].shape == (6, 3)
        write_arrays(path, header_with(arrays, "pwvae-ckpt v3", "pwvae-ckpt v2"))
        rejects(path, r"a pwvae-ckpt v2 checkpoint, whose dec_r is \(vocabulary, latent dims\); only pwvae-ckpt v3 is read")

    def test_rejects_npy_and_empty_zip(self, tmp_path):
        npy = tmp_path / "m.npy"
        np.save(npy, np.zeros(3))
        rejects(npy, "not a pwvae-ckpt v3 file")
        empty = tmp_path / "empty.ckpt"
        write_arrays(empty, {})
        rejects(empty, "not a pwvae-ckpt v3 file")

    def test_rejects_wrong_or_missing_magic(self, tmp_path):
        arrays = saved_arrays(tmp_path)
        for bad in (
            header_with(arrays, "pwvae-ckpt v3", "pwvae-ckpt v4"),
            {name: a for name, a in arrays.items() if name != "header"},
            {**arrays, "header": np.array([str(arrays["header"])])},
            {**arrays, "header": np.array(str(arrays["header"]).encode())},
        ):
            write_arrays(tmp_path / "m.ckpt", bad)
            rejects(tmp_path / "m.ckpt", "not a pwvae-ckpt v3 file")

    @pytest.mark.parametrize("old,new", [
        ("vocab_size 5", "vocab_size five"),
        ("vocab_size 5", "vocab_size 5.0"),
        ("vocab_size 5\n", ""),
        ("hidden 2", "hidden 2 3"),
        ("hidden 2", "hidden"),
        ("activation prelu", "activation prelu\nextra 1"),
        ("variant g\nvocab_size 5", "vocab_size 5\nvariant g"),
    ])
    def test_rejects_malformed_header(self, tmp_path, old, new):
        arrays = saved_arrays(tmp_path)
        assert old in str(arrays["header"])
        write_arrays(tmp_path / "m.ckpt", header_with(arrays, old, new))
        rejects(tmp_path / "m.ckpt", "malformed header")

    @pytest.mark.parametrize("old,new,match", [
        ("activation prelu", "activation relu", r"activation must be one of \('prelu', 'softsign'\), got 'relu'"),
        ("variant g", "variant z", r"variant must be one of \('g', 'p', 'h'\), got 'z'"),
    ])
    def test_rejects_well_formed_header_lines_that_no_model_has(self, tmp_path, old, new, match):
        """The model built from the header rejects the value, naming its field."""
        arrays = saved_arrays(tmp_path)
        write_arrays(tmp_path / "m.ckpt", header_with(arrays, old, new))
        rejects(tmp_path / "m.ckpt", match)

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

    @pytest.mark.parametrize("dtype, other", [(np.float32, np.float64), (np.float64, np.float32)])
    @pytest.mark.parametrize("name", ["enc_w0", "g_alpha_mu", "dec_r"])
    def test_rejects_an_archive_of_two_dtypes_naming_the_odd_parameter(self, tmp_path, dtype, other, name):
        model = nvdm.init_model("g", 5, hidden=2, gauss_dims=1, seed=7, dtype=dtype)
        path = tmp_path / "good.ckpt"
        ck.save_checkpoint(model, str(path))
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        write_arrays(tmp_path / "m.ckpt", {**arrays, name: arrays[name].astype(other)})
        rejects(tmp_path / "m.ckpt", f"parameter '{name}' is {np.dtype(other).name} .*, expected {np.dtype(dtype).name} ")

    def test_rejects_pickled_arrays(self, tmp_path):
        arrays = saved_arrays(tmp_path)
        with open(tmp_path / "m.ckpt", "wb") as fh:
            np.savez(fh, **{**arrays, "dec_b": np.array([None, 1.0], dtype=object)})
        rejects(tmp_path / "m.ckpt", "unreadable pwvae-ckpt v3 archive")

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
