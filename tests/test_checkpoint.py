"""Checkpoint format: losslessness and byte stability."""

from pathlib import Path

import numpy as np
import pytest

from pwvae import checkpoint as ck
from pwvae import nvdm


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
        assert Path(path).read_text().splitlines()[0] == "pwvae-ckpt v1"


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
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ck.CheckpointError):
            ck.load_checkpoint(str(path))
