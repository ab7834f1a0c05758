"""Command line: explicit dimensions reach the model as given; bad settings and checkpoints exit 1 before any report."""

import gzip
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwvae
from pwvae import cli
from pwvae.checkpoint import load_checkpoint, save_checkpoint
from pwvae.corpus import load_corpus, make_synthetic_bimodal
from pwvae.nvdm import init_model
from pwvae.training import TrainConfig


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


@pytest.mark.parametrize("line, message", [("batch_size = abc", "batch_size expects int, got 'abc'"), ("learning_rate = fast", "learning_rate expects float, got 'fast'")])
def test_config_value_that_does_not_parse_is_a_usage_error(data, tmp_path, capsys, line, message):
    config = tmp_path / "train.cfg"
    config.write_text(f"# settings\n{line}\n", encoding="utf-8")
    assert cli.main(train_args(data, tmp_path, "g", "--config", str(config))) == cli.USAGE_ERROR
    assert f"{config}:2: {message}" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_threads_is_not_a_flag(data, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(train_args(data, tmp_path, "g", "--threads", "2"))
    assert info.value.code == cli.USAGE_ERROR
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_threads_is_not_a_config_key(data, tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("threads = 1\n", encoding="utf-8")
    assert cli.main(train_args(data, tmp_path, "g", "--config", str(config))) == cli.USAGE_ERROR
    assert f"{config}:1: unknown config key 'threads'" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def run_module(*args, cwd):
    """``python -X dev -m pwvae`` in a child process, with this checkout's package first on its path."""
    src = str(Path(pwvae.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-X", "dev", "-m", "pwvae", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_python_dash_m_pwvae_writes_what_main_writes(tmp_path):
    """``__main__`` hands the arguments to ``cli.main``: the module run writes the same corpus files as the call."""
    flags = ["--docs", "12", "--vocab", "6", "--seed", "3", "--split", "8,2,2"]
    assert cli.main(["synth", *flags, "--out", str(tmp_path / "want")]) == 0
    run = run_module("synth", *flags, "--out", "got", cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    wanted = sorted(p.name[len("want"):] for p in tmp_path.glob("want.*"))
    assert wanted and sorted(p.name[len("got"):] for p in tmp_path.glob("got.*")) == wanted
    for suffix in wanted:
        assert (tmp_path / f"got{suffix}").read_bytes() == (tmp_path / f"want{suffix}").read_bytes(), suffix


def test_python_dash_m_pwvae_exits_with_the_usage_error_code(data, tmp_path):
    """The module's exit status is ``main``'s: an unknown flag exits 2 and names the flag."""
    run = run_module(*train_args(data, tmp_path, "g", "--threads", "2"), cwd=tmp_path)
    assert run.returncode == cli.USAGE_ERROR
    assert "unrecognized arguments: --threads 2" in run.stderr
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


@pytest.mark.parametrize(
    "lines, flags, expected, model_settings",
    [
        # train_args sets --hidden 4, --epochs 1 and --batch-size 10.
        ("", (), TrainConfig(batch_size=10, max_epochs=1), (4, "prelu")),
        (
            "learning_rate = 0.5\nbatch_size = 7\nadam_beta2 = 0.99\nvalid_samples = 2\nhidden = 6\nactivation = softsign\n",
            ("--seed", "3"),
            TrainConfig(learning_rate=0.5, batch_size=10, adam_beta2=0.99, max_epochs=1, seed=3, valid_samples=2),
            (4, "softsign"),
        ),
    ],
    ids=["defaults", "file-and-flags"],
)
def test_a_flag_overrides_the_config_file_which_overrides_the_defaults(data, tmp_path, monkeypatch, lines, flags, expected, model_settings):
    received = {}

    def train(model, train_corpus, valid_corpus, config, log_stream=None):
        received.update(model=model, config=config)
        raise ValueError("stopped before the first step")

    monkeypatch.setattr(cli.training, "train", train)
    config = tmp_path / "train.cfg"
    config.write_text(lines, encoding="utf-8")
    assert cli.main(train_args(data, tmp_path, "g", "--config", str(config), *flags)) == cli.RUNTIME_ERROR
    assert received["config"] == expected
    assert (received["model"].hidden, received["model"].activation) == model_settings


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
        (lambda data: data[: len(data) // 2], "unreadable pwvae-ckpt v3 archive"),
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


def iterative_report(data, checkpoint, docs_path, capsys):
    """``eval --iterative`` stdout, and its two reports' per-document bound fields in corpus order."""
    args = ["eval", "--ckpt", checkpoint, "--corpus", docs_path, "--vocab", data + ".vocab"]
    assert cli.main([*args, "--iterative", "--samples", "2", "--steps", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    reports = out.split("doc\tbound\ttokens\n")[1:]
    return out, [[line.split("\t")[1] for line in report.splitlines() if line.split("\t")[0].isdigit()] for report in reports]


def test_iterative_eval_is_reproducible_and_free_of_document_order(data, checkpoint, tmp_path, capsys):
    out, (amortized, refined) = iterative_report(data, checkpoint, data + ".test.docs", capsys)
    assert iterative_report(data, checkpoint, data + ".test.docs", capsys)[0] == out
    lines = Path(data + ".test.docs").read_text(encoding="utf-8").splitlines()
    reversed_docs = tmp_path / "reversed.docs"
    reversed_docs.write_text("\n".join(lines[::-1]) + "\n", encoding="utf-8")
    _, (amortized2, refined2) = iterative_report(data, checkpoint, str(reversed_docs), capsys)
    assert len(refined) == len(lines) == 5
    # Refinement blocks are formed in content order, so its bounds are bit-identical.
    assert refined2[::-1] == refined
    # An amortised block keeps corpus order, whose row position may move a product's last bit.
    assert [float(b) for b in amortized2[::-1]] == pytest.approx([float(b) for b in amortized], rel=1e-9)


def test_iterative_eval_at_lr_0_repeats_the_amortised_report(data, checkpoint, capsys):
    """Both reports draw their noise from one root, so refinement that takes no step re-estimates the amortised bounds."""
    args = ["eval", "--ckpt", checkpoint, "--corpus", data + ".test.docs", "--vocab", data + ".vocab"]
    assert cli.main([*args, "--iterative", "--inf-lr", "0", "--samples", "3", "--seed", "4"]) == 0
    reports = capsys.readouterr().out.split("perplexity\tmean_bound\tsamples\tmode\tdocs\n")[1:]
    (amortized, *amortized_docs), (refined, *refined_docs) = (report.splitlines()[:7] for report in reports)
    assert amortized.split("\t")[3:4] == ["amortized"] and refined.split("\t")[3:4] == ["iterative"]
    assert amortized.split("\t")[:2] == refined.split("\t")[:2]
    assert amortized_docs == refined_docs and len(amortized_docs) == 6


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_train_writes_float32_and_the_other_commands_follow_the_checkpoint(data, tmp_path, capsys, dtype):
    """``train`` makes a float32 model; a float64 checkpoint, which only ``init_model`` makes, runs through every other command."""
    ckpt = str(tmp_path / "model.ckpt")
    assert cli.main(train_args(data, tmp_path, "h", "--gauss-dims", "2", "--piece-dims", "2")) == 0
    model = load_checkpoint(ckpt)
    assert model.dtype == "float32" and all(t.data.dtype == "float32" for _, t in model.named_parameters())
    if dtype == "float64":
        save_checkpoint(init_model("h", model.vocab_size, hidden=4, gauss_dims=2, piece_dims=2, seed=1, dtype=np.float64), ckpt)
        assert load_checkpoint(ckpt).dtype == "float64"
    capsys.readouterr()
    args = ["--ckpt", ckpt, "--corpus", data + ".test.docs", "--vocab", data + ".vocab"]
    assert cli.main(["eval", *args, "--iterative", "--steps", "3", "--samples", "2"]) == 0
    assert cli.main(["sensitivity", *args]) == 0
    assert cli.main(["export-means", *args, "--out", str(tmp_path / "means.tsv")]) == 0
    assert cli.main(["query", "--ckpt", ckpt, "--vocab", data + ".vocab", "--word", "w0", "--k", "2"]) == 0


def test_query_reads_a_gzipped_vocabulary_like_a_plain_one(data, checkpoint, tmp_path, capsys):
    """``query`` reads its vocabulary as every other command does: a ``.gz`` file gives the same neighbours, and an empty file's error names it."""
    gz = tmp_path / "synth.vocab.gz"
    with gzip.open(gz, "wb") as fh:
        fh.write(Path(data + ".vocab").read_bytes())
    outputs = []
    for vocab in (data + ".vocab", str(gz)):
        assert cli.main(["query", "--ckpt", checkpoint, "--vocab", vocab, "--word", "w0", "--k", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 3
    empty = tmp_path / "empty.vocab"
    empty.write_text("", encoding="utf-8")
    assert cli.main(["query", "--ckpt", checkpoint, "--vocab", str(empty), "--word", "w0"]) == cli.RUNTIME_ERROR
    assert f"{empty}: empty vocabulary" in capsys.readouterr().err


@pytest.mark.parametrize(
    "split, message",
    [("70,-10,0", "--split must name 3 non-negative counts summing to --docs (60)"), ("20,five,35", "--split must be comma-separated integers")],
    ids=["negative-count", "non-integer"],
)
def test_synth_rejects_a_bad_split(tmp_path, capsys, split, message):
    """Counts that sum to --docs with one below zero, or a field that is no integer, are a usage error, and nothing is written."""
    args = ["synth", "--docs", "60", "--vocab", "10", "--out", str(tmp_path / "synth"), "--split", split]
    assert cli.main(args) == cli.USAGE_ERROR
    assert f"usage error: {message}, got {split!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value",
    [("--docs", "0"), ("--docs", "-3"), ("--vocab", "0"), ("--vocab", "-2"), ("--vocab", "7")],
)
def test_synth_rejects_a_size_that_cannot_make_a_corpus(tmp_path, capsys, flag, value):
    """Too few documents, or a vocabulary that is not a positive even number, is a usage error naming the flag, and nothing is written."""
    sizes = {"--docs": "10", "--vocab": "6", flag: value}
    args = ["synth", *(item for pair in sizes.items() for item in pair), "--out", str(tmp_path / "synth")]
    assert cli.main(args) == cli.USAGE_ERROR
    assert f"usage error: {flag} must be" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_synth_without_split_writes_the_generated_corpus(tmp_path, capsys):
    """The vocabulary, documents and labels files load back as the corpus the generator makes."""
    prefix = str(tmp_path / "synth")
    assert cli.main(["synth", "--docs", "25", "--vocab", "8", "--seed", "4", "--out", prefix]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["synth.docs", "synth.labels", "synth.vocab"]
    loaded = load_corpus(prefix + ".vocab", prefix + ".docs", labels_path=prefix + ".labels")
    generated = make_synthetic_bimodal(25, 8, 4)
    assert loaded == generated
    assert [doc.label for doc in loaded.docs] == [doc.label for doc in generated.docs]
    assert f"wrote 25 documents to {prefix}.docs" in capsys.readouterr().err


@pytest.mark.parametrize("missing, what", [("--ckpt", "checkpoint"), ("--corpus", "corpus"), ("--vocab", "vocabulary")])
def test_a_missing_input_file_is_a_usage_error_naming_its_kind(data, checkpoint, tmp_path, capsys, missing, what):
    paths = {"--ckpt": checkpoint, "--corpus": data + ".test.docs", "--vocab": data + ".vocab", missing: str(tmp_path / "absent")}
    assert cli.main(["eval", *(item for pair in paths.items() for item in pair)]) == cli.USAGE_ERROR
    out, err = capsys.readouterr()
    assert f"usage error: {what} file not found: {tmp_path / 'absent'}" in err
    assert out == ""


def test_export_means_writes_the_labels_file_s_labels(data, checkpoint, tmp_path, capsys):
    out = tmp_path / "means.tsv"
    args = ["export-means", "--ckpt", checkpoint, "--corpus", data + ".test.docs", "--vocab", data + ".vocab", "--out", str(out)]
    assert cli.main([*args, "--labels", data + ".test.labels"]) == 0
    rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    assert [row[1] for row in rows] == Path(data + ".test.labels").read_text(encoding="utf-8").splitlines()
    assert {row[1] for row in rows} <= {"0", "1"}
    out.unlink()
    assert cli.main([*args, "--labels", str(tmp_path / "absent.labels")]) == cli.USAGE_ERROR
    assert f"usage error: labels file not found: {tmp_path / 'absent.labels'}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "variant, flags, message",
    [
        ("g", ("--pieces", "3"), "--pieces/--piece-dims are not valid with --variant g"),
        ("g", ("--piece-dims", "2"), "--pieces/--piece-dims are not valid with --variant g"),
        ("p", ("--gauss-dims", "2"), "--gauss-dims is not valid with --variant p"),
    ],
)
def test_a_dimension_flag_of_the_absent_family_is_a_usage_error(data, tmp_path, capsys, variant, flags, message):
    assert cli.main(train_args(data, tmp_path, variant, *flags)) == cli.USAGE_ERROR
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_a_config_line_without_equals_is_a_usage_error(data, tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("hidden = 4\nbatch_size 10\n", encoding="utf-8")
    assert cli.main(train_args(data, tmp_path, "g", "--config", str(config))) == cli.USAGE_ERROR
    assert f"{config}:2: expected 'key = value'" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_eval_on_a_vocabulary_of_another_size_names_both_sizes(data, checkpoint, tmp_path, capsys):
    vocab = tmp_path / "wider.vocab"
    vocab.write_text("".join(f"w{i}\n" for i in range(12)), encoding="utf-8")
    assert cli.main(["eval", "--ckpt", checkpoint, "--corpus", data + ".test.docs", "--vocab", str(vocab)]) == cli.RUNTIME_ERROR
    out, err = capsys.readouterr()
    assert "error: checkpoint vocabulary size 10 != corpus vocabulary size 12" in err
    assert out == ""
