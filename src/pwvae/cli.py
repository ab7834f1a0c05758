"""Command-line interface tying the library into reproducible experiments.

Commands: ``synth`` (generate a synthetic corpus), ``train``, ``eval``,
``query`` (word neighbours), ``sensitivity`` (KL word sensitivity), and
``export-means``.  Reports go to stdout, progress to stderr.  Exit codes:
0 success, 1 runtime failure, 2 usage error.  All commands are
deterministic for a fixed ``--seed``.  ``train`` makes a float32 model;
the other commands compute in the dtype their checkpoint stores.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import analysis, evaluation, training
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .corpus import TRANSFORMS, CorpusFormatError, load_corpus, load_vocab, make_synthetic_bimodal, save_corpus
from .nvdm import ACTIVATIONS, VARIANTS, init_model
from .tensor import ShapeError
from .training import TrainConfig, TrainingDiverged

USAGE_ERROR = 2
RUNTIME_ERROR = 1

# Config file keys and the types their values parse to: the model's hidden
# and activation, and every TrainConfig field but the seed, which is a
# flag, and threads, whose only value is 1.
_MODEL_FIELDS = {"hidden": int, "activation": str}
_CONFIG_FIELDS = {f.name: type(f.default) for f in fields(TrainConfig) if f.name not in ("seed", "threads")} | _MODEL_FIELDS


class UsageError(Exception):
    pass


def _require_file(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise UsageError(f"{what} file not found: {path}")
    return path


def _require_parent_dir(path: str, flag: str) -> None:
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"{flag} directory not found: {parent}")


def _read_config_file(path: str) -> dict:
    """Flat ``key = value`` configuration; blank lines and # comments ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_FIELDS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            kind = _CONFIG_FIELDS[key]
            try:
                values[key] = kind(raw)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: {key} expects {kind.__name__}, got {raw!r}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pwvae", description="Document models with piecewise and Gaussian latents")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic two-topic corpus")
    p.add_argument("--docs", type=int, required=True)
    p.add_argument("--vocab", type=int, required=True, help="vocabulary size (must be even)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--split", default=None, help="train,valid,test document counts (e.g. 1600,200,200)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model, which computes in float32")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--pieces", type=int, default=None)
    p.add_argument("--gauss-dims", type=int, default=None)
    p.add_argument("--piece-dims", type=int, default=None)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--activation", choices=ACTIVATIONS, default=None)
    p.add_argument("--corpus", required=True, help="training documents file")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--valid", required=True, help="validation documents file")
    p.add_argument("--transform", choices=TRANSFORMS, default="none")
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path of the binary checkpoint (an .npz archive, written at exactly this path)")
    # --hidden, --activation and the flags below store into their config key, and are None when unset.
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--clip-norm", type=float, default=None)
    p.add_argument("--kl-anneal", dest="kl_anneal_batches", type=int, default=None, help="batches of linear KL warm-up (0 = off)")
    p.add_argument("--epochs", dest="max_epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--transform", choices=TRANSFORMS, default="none")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterative", action="store_true")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--inf-lr", type=float, default=0.1)
    p.add_argument("--inf-patience", type=int, default=10)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("query", help="nearest words in decoder space")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("sensitivity", help="KL word-sensitivity counts")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--transform", choices=TRANSFORMS, default="none")
    p.add_argument("--top-m", type=int, default=5)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("export-means", help="write per-document posterior means")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--transform", choices=TRANSFORMS, default="none")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_means)
    return parser


def _cmd_synth(args) -> int:
    if args.docs < 1:
        raise UsageError(f"--docs must be >= 1, got {args.docs}")
    if args.vocab < 2 or args.vocab % 2:
        raise UsageError(f"--vocab must be a positive even number, got {args.vocab}")
    corpus = make_synthetic_bimodal(args.docs, args.vocab, args.seed)
    if args.split is None:
        save_corpus(corpus, args.out + ".vocab", args.out + ".docs", args.out + ".labels")
        print(f"wrote {len(corpus)} documents to {args.out}.docs", file=sys.stderr)
        return 0
    try:
        sizes = [int(s) for s in args.split.split(",")]
    except ValueError:
        raise UsageError(f"--split must be comma-separated integers, got {args.split!r}") from None
    if len(sizes) != 3 or sum(sizes) != len(corpus) or min(sizes) < 0:
        raise UsageError(f"--split must name 3 non-negative counts summing to --docs ({len(corpus)}), got {args.split!r}")
    lo = 0
    for name, size in zip(("train", "valid", "test"), sizes):
        part = replace(corpus, docs=corpus.docs[lo : lo + size])
        save_corpus(part, args.out + ".vocab", f"{args.out}.{name}.docs", f"{args.out}.{name}.labels")
        lo += size
        print(f"wrote {size} documents to {args.out}.{name}.docs", file=sys.stderr)
    return 0


def _model_dims(args) -> dict:
    """Latent sizes from the flags; an unset flag takes its default, an explicit 0 reaches validation."""

    def given(value, default):
        return default if value is None else value

    if args.variant == "g":
        if args.pieces is not None or args.piece_dims is not None:
            raise UsageError("--pieces/--piece-dims are not valid with --variant g")
        return {"gauss_dims": given(args.gauss_dims, 50), "piece_dims": 0, "n_pieces": 2}
    if args.variant == "p":
        if args.gauss_dims is not None:
            raise UsageError("--gauss-dims is not valid with --variant p")
        return {"gauss_dims": 0, "piece_dims": given(args.piece_dims, 50), "n_pieces": given(args.pieces, 3)}
    return {
        "gauss_dims": given(args.gauss_dims, 50),
        "piece_dims": given(args.piece_dims, 50),
        "n_pieces": given(args.pieces, 3),
    }


def _cmd_train(args) -> int:
    for path, what in ((args.corpus, "corpus"), (args.vocab, "vocabulary"), (args.valid, "validation corpus")):
        _require_file(path, what)
    _require_parent_dir(args.out, "--out")
    # A flag overrides the config file, which overrides the defaults of TrainConfig and init_model.
    settings = _read_config_file(args.config) if args.config else {}
    settings.update((key, getattr(args, key)) for key in _CONFIG_FIELDS if getattr(args, key, None) is not None)
    model_settings = {key: settings.pop(key) for key in _MODEL_FIELDS if key in settings}
    config = TrainConfig(seed=args.seed, **settings)
    train_corpus = load_corpus(args.vocab, args.corpus, transform=args.transform)
    valid_corpus = load_corpus(args.vocab, args.valid, transform=args.transform)
    model = init_model(args.variant, train_corpus.vocab_size, seed=args.seed, **model_settings, **_model_dims(args))
    result = training.train(model, train_corpus, valid_corpus, config, log_stream=sys.stderr)
    save_checkpoint(result.model, args.out)
    with open(args.out + ".log", "w", encoding="utf-8") as fh:
        fh.write("\n".join(result.log_lines) + "\n")
    print(f"best_epoch\t{result.best_epoch}")
    print(f"best_valid_bound\t{result.best_valid_bound:.10g}")
    return 0


def _load_for_eval(args, labels_path=None):
    _require_file(args.ckpt, "checkpoint")
    _require_file(args.corpus, "corpus")
    _require_file(args.vocab, "vocabulary")
    if labels_path:
        _require_file(labels_path, "labels")
    model = load_checkpoint(args.ckpt)
    corpus = load_corpus(args.vocab, args.corpus, transform=args.transform, labels_path=labels_path)
    if corpus.vocab_size != model.vocab_size:
        raise ShapeError(f"checkpoint vocabulary size {model.vocab_size} != corpus vocabulary size {corpus.vocab_size}")
    return model, corpus


def _cmd_eval(args) -> int:
    model, corpus = _load_for_eval(args)
    # Both reports draw their noise from one root, so the two perplexities
    # are paired: with --inf-lr 0 they are equal.
    seed = (args.seed, 0)
    # Refinement runs first, so that bad refinement settings fail before any report is written.
    if args.iterative:
        refined, refinements = evaluation.evaluate_iterative(
            model,
            corpus,
            args.samples,
            np.random.default_rng(seed),
            steps_max=args.steps,
            lr=args.inf_lr,
            stop_patience=args.inf_patience,
        )
    report = evaluation.evaluate(model, corpus, args.samples, np.random.default_rng(seed))
    sys.stdout.write(report.to_tsv())
    if args.iterative:
        sys.stdout.write(refined.to_tsv())
        tracked_gain = float(np.mean([r.bound - r.initial_bound for r in refinements]))
        print(f"mean_tracked_refinement_gain\t{tracked_gain:.10g}")
    return 0


def _cmd_query(args) -> int:
    _require_file(args.ckpt, "checkpoint")
    _require_file(args.vocab, "vocabulary")
    model = load_checkpoint(args.ckpt)
    for token, distance in analysis.word_neighbors(model, load_vocab(args.vocab), args.word, args.k):
        print(f"{token}\t{distance:.10g}")
    return 0


def _cmd_sensitivity(args) -> int:
    model, corpus = _load_for_eval(args)
    counts_g, counts_p = analysis.kl_sensitivity(model, corpus, top_m=args.top_m)
    print("family\ttoken\tcount")
    for family, counts in (("gaussian", counts_g), ("piecewise", counts_p)):
        for wid in np.argsort(-counts, kind="stable"):
            if counts[wid] == 0:
                break
            print(f"{family}\t{corpus.vocab[wid]}\t{int(counts[wid])}")
    return 0


def _cmd_export_means(args) -> int:
    model, corpus = _load_for_eval(args, args.labels)
    written = analysis.export_posterior_means(model, corpus, args.out)
    print(f"wrote\t{written}\t{args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # Every subcommand with a --seed rejects a negative one before it reads or writes a file.
        if getattr(args, "seed", 0) < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (CheckpointError, CorpusFormatError, TrainingDiverged, ShapeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
