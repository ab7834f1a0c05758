"""Command line: explicit dimensions reach the model as given; bad settings and checkpoints exit 1 before any report."""

from pathlib import Path

import pytest

from pwvae import cli
from pwvae.checkpoint import load_checkpoint


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("cli") / "synth")
    assert cli.main(["synth", "--docs", "30", "--vocab", "10", "--seed", "0", "--out", prefix, "--split", "20,5,5"]) == 0
    return prefix


def train_args(data, tmp_path, variant, *flags):
    return [
        "train", "--variant", variant, "--corpus", data + ".train.docs", "--vocab", data + ".vocab",
        "--valid", data + ".valid.docs", "--out", str(tmp_path / "model.ckpt"),
        "--hidden", "4", "--epochs", "1", "--batch-size", "10", *flags,
    ]


@pytest.mark.parametrize(
    "variant, flag, message",
    [
        ("g", "--gauss-dims", "gauss_dims >= 1"),
        ("h", "--gauss-dims", "gauss_dims >= 1"),
        ("p", "--piece-dims", "piece_dims >= 1"),
        ("h", "--piece-dims", "piece_dims >= 1"),
        ("p", "--pieces", "at least 2 pieces"),
        ("h", "--pieces", "at least 2 pieces"),
    ],
)
def test_explicit_zero_is_rejected_not_replaced_by_default(data, tmp_path, capsys, variant, flag, message):
    assert cli.main(train_args(data, tmp_path, variant, flag, "0")) == cli.RUNTIME_ERROR
    assert message in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_bad_config_value_exits_before_training(data, tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("adam_beta1 = 1.0\n", encoding="utf-8")
    assert cli.main(train_args(data, tmp_path, "g", "--config", str(config))) == cli.RUNTIME_ERROR
    assert "adam_beta1 and adam_beta2 must lie in [0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_explicit_dimensions_reach_the_model(data, tmp_path, capsys):
    flags = ("--gauss-dims", "2", "--piece-dims", "3", "--pieces", "4")
    assert cli.main(train_args(data, tmp_path, "h", *flags)) == 0
    model = load_checkpoint(str(tmp_path / "model.ckpt"))
    assert (model.gauss_dims, model.piece_dims, model.n_pieces) == (2, 3, 4)


def test_unset_dimensions_take_the_defaults(data, tmp_path, capsys):
    assert cli.main(train_args(data, tmp_path, "p")) == 0
    model = load_checkpoint(str(tmp_path / "model.ckpt"))
    assert (model.gauss_dims, model.piece_dims, model.n_pieces) == (0, 50, 3)


@pytest.fixture(scope="module")
def checkpoint(data, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    assert cli.main(train_args(data, out, "h", "--gauss-dims", "2", "--piece-dims", "2")) == 0
    return str(out / "model.ckpt")


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("eval", ("--iterative", "--inf-lr", "-1"), "lr must be finite and >= 0"),
        ("eval", ("--iterative", "--inf-patience", "0"), "stop_patience must be >= 1"),
        ("eval", ("--kl-weight", "nan"), "kl_weight must be finite and >= 0"),
        ("sensitivity", ("--top-m", "0"), "top_m must be >= 1"),
    ],
)
def test_bad_evaluation_setting_exits_before_any_report(data, checkpoint, capsys, command, flags, message):
    args = [command, "--ckpt", checkpoint, "--corpus", data + ".test.docs", "--vocab", data + ".vocab", *flags]
    assert cli.main(args) == cli.RUNTIME_ERROR
    out, err = capsys.readouterr()
    assert message in err
    assert out == ""


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda data: b"pwvae-ckpt v1\nvariant h\nvocab 10\n", "pwvae-ckpt v1 text checkpoint"),
        (lambda data: data[: len(data) // 2], "unreadable pwvae-ckpt v2 archive"),
    ],
    ids=["v1-text", "truncated"],
)
def test_bad_checkpoint_exits_with_its_message(data, checkpoint, tmp_path, capsys, damage, message):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(damage(Path(checkpoint).read_bytes()))
    args = ["eval", "--ckpt", str(bad), "--corpus", data + ".test.docs", "--vocab", data + ".vocab"]
    assert cli.main(args) == cli.RUNTIME_ERROR
    out, err = capsys.readouterr()
    assert message in err and str(bad) in err
    assert out == ""
