"""End-to-end and per-layer benchmark for pwvae.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload paper-h --seed 1 --seconds 45 --trace 0

The benchmark generates the workload's documents from ``--seed`` with
``corpus.make_synthetic_bimodal``, writes them with ``corpus.save_corpus``
and reads them back with ``corpus.load_corpus``, so the program only ever
sees generated files.  One caller runs a closed loop of rounds in this one
process (default BLAS threads, ``TrainConfig.threads=1``) until
``--seconds`` have passed.  A round trains, saves and loads a checkpoint,
evaluates and refines posteriors iteratively, and checks every output.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, each timing rescaled to a reference machine speed
(``reference.py``); the line before it gives the same timings unscaled.
With ``--trace 1`` the same rounds run once untraced and once under the
outside-in span recorder of ``tracer.py``, and the object holds the
per-layer metrics.  The first line records the environment.  Workloads,
metrics and their expected interactions are described in NOTES.md next to
this file.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))
from reference import ModelReference, Stopwatch, TextReference  # noqa: E402
from tracer import Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: model shape, document counts and round mix."""

    variant: str
    vocab: int
    hidden: int
    gauss_dims: int
    piece_dims: int
    pieces: int
    batch: int
    learning_rate: float
    epochs: int
    train_docs: int
    valid_docs: int
    test_docs: int  # evaluated in every round
    eval_docs: int  # documents per `evaluate` call
    iter_docs: int  # refined per round, taken in turn from the test documents
    ckpt_reps: int  # checkpoint save/load pairs per round
    # Evaluate and refine a seeded model with non-zero gates, decoder and
    # biases instead of the freshly trained one.  A model trained for a
    # few steps still has near-zero gates, so its posterior ignores the
    # document and iterative inference always runs every step.
    seeded_inference: bool
    # Documents in one pass of the model reference, and the nominal time of
    # that pass, to which numerical work is rescaled (see reference.py).
    reference_docs: int
    reference_s: float
    setup_reps: int = 3

    def smoke(self) -> "Workload":
        """The same shape with the fewest documents and repetitions."""
        return replace(self, epochs=1, train_docs=self.batch, valid_docs=5, test_docs=5, eval_docs=5, iter_docs=1, ckpt_reps=1, setup_reps=1)


WORKLOADS = {
    # The paper's shape (variant H, V=2000, H=500, 50+50 latent dims, 3
    # pieces, batch 100): the dense first layer and the backward pass
    # dominate training, and a document touches ~2.5% of the input columns.
    "paper-h": Workload(
        variant="h", vocab=2000, hidden=500, gauss_dims=50, piece_dims=50, pieces=3, batch=100,
        learning_rate=0.002, epochs=1, train_docs=200, valid_docs=50, test_docs=100, eval_docs=25, iter_docs=3,
        ckpt_reps=1, seeded_inference=True, reference_docs=10, reference_s=0.045,
    ),
    # A small piecewise-only model trained long enough to learn: per-call
    # Python and tape overhead dominate, ~20% of the input columns are
    # used and no Gaussian code runs.
    "tiny-p": Workload(
        variant="p", vocab=200, hidden=50, gauss_dims=0, piece_dims=10, pieces=10, batch=50,
        learning_rate=0.01, epochs=4, train_docs=500, valid_docs=100, test_docs=200, eval_docs=50, iter_docs=20,
        ckpt_reps=3, seeded_inference=False, reference_docs=200, reference_s=0.016,
    ),
}

# Values formatted and parsed by one pass of the text reference, to whose
# nominal time checkpoint work is rescaled (see reference.py).
TEXT_REFERENCE_SHAPE = (4, 2000)
TEXT_REFERENCE_S = 0.010
EVAL_SAMPLES = 10  # the CLI's `eval --samples` default
ITER_SETTINGS = dict(steps_max=100, lr=0.1, stop_patience=10)  # the CLI's iterative defaults

TRACED = [
    ("tensor", "Tape.backward"),
    ("corpus", "Corpus.dense"),
    ("corpus", "Corpus.dense_counts"),
    ("corpus", "load_corpus"),
    ("nvdm", "encode"),
    ("nvdm", "decode_logprob"),
    ("nvdm", "elbo"),
    ("nvdm", "posterior_bound"),
    ("nvdm", "draw_noises"),
    ("piecewise", "head_forward"),
    ("piecewise", "sample_through"),
    ("piecewise", "kl_between"),
    ("gaussian", "prior_forward"),
    ("gaussian", "posterior_forward"),
    ("gaussian", "sample_with_noise"),
    ("gaussian", "kl"),
    ("training", "train"),
    ("training", "adam_step"),
    ("training", "clip_gradients"),
    ("evaluation", "evaluate"),
    ("evaluation", "iterative_inference"),
    ("evaluation", "evaluate_iterative"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
]
PER_CALL = {"corpus.load_corpus", "checkpoint.save_checkpoint", "checkpoint.load_checkpoint"}


def import_pwvae():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "pwvae" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pwvae sources under {SRC}; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import pwvae
    from pwvae import checkpoint, corpus, evaluation, nvdm, training

    if Path(pwvae.__file__).resolve().parent != SRC / "pwvae":
        sys.exit(f"perfbench: imported pwvae from {pwvae.__file__}, not from {SRC}")
    return checkpoint, corpus, evaluation, nvdm, training


checkpoint, corpus, evaluation, nvdm, training = import_pwvae()


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), platform.machine())
    except OSError:
        cpu = platform.machine()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)


def write_inputs(w: Workload, seed: int, workdir: Path) -> dict[str, str]:
    """Generate the workload's documents from the seed and save them as files."""
    full = corpus.make_synthetic_bimodal(w.train_docs + w.valid_docs + w.test_docs, w.vocab, seed)
    cuts = {"train": (0, w.train_docs), "valid": (w.train_docs, w.train_docs + w.valid_docs), "test": (w.train_docs + w.valid_docs, len(full))}
    paths = {"vocab": str(workdir / "vocab.txt")}
    for split, (lo, hi) in cuts.items():
        paths[split] = str(workdir / f"{split}.txt")
        corpus.save_corpus(replace(full, docs=full.docs[lo:hi]), paths["vocab"], paths[split])
    return paths


def load_inputs(paths: dict[str, str]) -> dict:
    return {split: corpus.load_corpus(paths["vocab"], paths[split]) for split in ("train", "valid", "test")}


def seeded_model(init, seed: int):
    """The initial model with every zero-initialised parameter drawn from the seed.

    Gates go to U(0.2, 0.8), so posterior variances stay positive; biases
    and the decoder go to N(0, 0.1).
    """
    rng = np.random.default_rng((seed, 1))
    updates = {}
    for name, t in init.named_parameters():
        if np.any(t.data):
            continue
        if name.startswith("g_alpha"):
            updates[name] = rng.uniform(0.2, 0.8, t.data.shape)
        else:
            updates[name] = rng.normal(0.0, 0.1, t.data.shape)
    return init.replaced(updates)


def train_config(w: Workload, seed: int, epochs: int):
    return training.TrainConfig(learning_rate=w.learning_rate, batch_size=w.batch, max_epochs=epochs, patience=epochs, seed=seed, threads=1)


@dataclass
class State:
    data: dict
    init: object
    seeded: object | None


def set_up(w: Workload, seed: int, paths: dict[str, str], ckpt_path: str) -> State:
    """Load the inputs, build the models and make one untimed call of each timed operation."""
    data = load_inputs(paths)
    init = nvdm.init_model(w.variant, w.vocab, hidden=w.hidden, gauss_dims=w.gauss_dims, piece_dims=w.piece_dims, n_pieces=w.pieces, seed=seed)
    seeded = seeded_model(init, seed) if w.seeded_inference else None
    train, valid, test = data["train"], data["valid"], data["test"]
    trained = training.train(init, replace(train, docs=train.docs[: w.batch]), replace(valid, docs=valid.docs[:5]), train_config(w, seed, 1)).model
    model = trained if seeded is None else seeded
    checkpoint.save_checkpoint(model, ckpt_path)
    checkpoint.load_checkpoint(ckpt_path)
    evaluation.evaluate(model, replace(test, docs=test.docs[:5]), EVAL_SAMPLES, np.random.default_rng(seed))
    evaluation.evaluate_iterative(model, replace(test, docs=test.docs[:1]), EVAL_SAMPLES, np.random.default_rng(seed), **ITER_SETTINGS)
    return State(data=data, init=init, seeded=seeded)


def same_params(a, b) -> bool:
    meta = ("variant", "vocab_size", "hidden", "gauss_dims", "piece_dims", "n_pieces", "activation")
    if any(getattr(a, k) != getattr(b, k) for k in meta) or a.params.keys() != b.params.keys():
        return False
    return all(np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)


def all_finite(*values) -> bool:
    return all(bool(np.all(np.isfinite(v))) for v in values)


class Rounds:
    """The timed closed loop of one workload and the checks on its outputs."""

    def __init__(self, w: Workload, seed: int, state: State, ckpt_path: str, tally: Tally, watch: Stopwatch):
        self.w, self.seed, self.state, self.ckpt_path, self.tally, self.watch = w, seed, state, ckpt_path, tally, watch
        names = ("train_docs_per_s", "eval_docs_per_s", "iter_steps_per_s", "ckpt_save_s", "ckpt_load_s")
        self.samples = {k: [] for k in names}  # rescaled to the reference's nominal speed
        self.raw = {k: [] for k in names}
        self.count = 0
        self.docs = 0
        self.steps = 0
        self.refinements = 0
        self.aborted = 0
        self.ckpt_bytes = 0
        self.trained = None
        self._valid_bound = None
        self._eval_bounds = {}

    def _sample(self, name: str, work: float, raw_s: float, scaled_s: float) -> None:
        """Record a rate (work per second) for ``*_per_s`` metrics, else the seconds."""
        rate = name.endswith("_per_s")
        self.raw[name].append(work / raw_s if rate else raw_s)
        self.samples[name].append(work / scaled_s if rate else scaled_s)

    def run_for(self, data: dict, seconds: float) -> None:
        """Run rounds until ``seconds`` have passed, at least one."""
        start = time.perf_counter()
        while self.count == 0 or time.perf_counter() - start < seconds:
            self.run(data)

    def run(self, data: dict) -> None:
        """One round: train, checkpoint round trips, evaluate, refine a chunk of documents."""
        w, seed, tally = self.w, self.seed, self.tally
        train, valid, test = data["train"], data["valid"], data["test"]
        k = self.count
        self.count += 1

        try:
            result, raw, scaled = self.watch.time("model", training.train, self.state.init, train, valid, train_config(w, seed, w.epochs))
        except training.TrainingDiverged as exc:
            tally.op(False, f"train: {exc}")
            result = None
        else:
            self._sample("train_docs_per_s", w.epochs * len(train), raw, scaled)
            if self._valid_bound is None:
                self._valid_bound, self.trained = result.best_valid_bound, result.model
            tally.op(
                all_finite(result.valid_bounds) and result.best_valid_bound == self._valid_bound,
                "train: validation bound not finite or not repeated exactly",
            )
        self.docs += w.epochs * len(train)
        if self.state.seeded is not None:
            model = self.state.seeded
        else:
            model = result.model if result is not None else self.state.init

        for _ in range(w.ckpt_reps):
            _, raw, scaled = self.watch.time("text", checkpoint.save_checkpoint, model, self.ckpt_path)
            self._sample("ckpt_save_s", 1, raw, scaled)
            self.ckpt_bytes = os.path.getsize(self.ckpt_path)
            loaded, raw, scaled = self.watch.time("text", checkpoint.load_checkpoint, self.ckpt_path)
            self._sample("ckpt_load_s", 1, raw, scaled)
            tally.op(True, "save_checkpoint")
            tally.op(same_params(model, loaded), "load_checkpoint(save_checkpoint(m)) differs from m")

        for lo in range(0, len(test), w.eval_docs):
            part = replace(test, docs=test.docs[lo : lo + w.eval_docs])
            report, raw, scaled = self.watch.time("model", evaluation.evaluate, loaded, part, EVAL_SAMPLES, np.random.default_rng(seed))
            self._sample("eval_docs_per_s", len(part), raw, scaled)
            first = self._eval_bounds.setdefault(lo, report.per_doc_bounds)
            tally.op(
                all_finite(report.per_doc_bounds, report.perplexity) and np.array_equal(report.per_doc_bounds, first),
                "evaluate: bounds not finite or not repeated exactly",
            )
        self.docs += len(test)

        lo = k * w.iter_docs % len(test)
        chunk = replace(test, docs=(test.docs + test.docs)[lo : lo + w.iter_docs])
        (refined, refinements), raw, scaled = self.watch.time(
            "model", evaluation.evaluate_iterative, loaded, chunk, EVAL_SAMPLES, np.random.default_rng((seed, k)), **ITER_SETTINGS
        )
        steps = sum(r.steps for r in refinements)
        self._sample("iter_steps_per_s", steps, raw, scaled)
        finite = all_finite(refined.per_doc_bounds, refined.perplexity)
        for r in refinements:
            tally.op(
                finite and not r.aborted and r.bound >= r.initial_bound,
                f"iterative_inference: aborted={r.aborted} bound={r.bound} initial={r.initial_bound}",
            )
        self.docs += len(chunk)
        self.steps += steps
        self.refinements += len(refinements)
        self.aborted += sum(r.aborted for r in refinements)

    def valid_ppl(self, valid) -> float:
        """Validation perplexity after the fixed training; a second evaluation must repeat it bit for bit."""
        model = self.trained if self.trained is not None else self.state.init
        first, second = (evaluation.evaluate(model, valid, 5, np.random.default_rng(self.seed)) for _ in range(2))
        self.tally.op(
            all_finite(first.per_doc_bounds, first.perplexity) and np.array_equal(first.per_doc_bounds, second.per_doc_bounds),
            "evaluate twice on the same documents gave different bounds",
        )
        return first.perplexity


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def end_to_end(w: Workload, seed: int, seconds: float, paths: dict, ckpt_path: str, tally: Tally):
    """End-to-end metrics, rescaled to the reference speed, and the same timings unscaled."""
    watch = Stopwatch({
        "model": (ModelReference(w.vocab, w.hidden, w.gauss_dims + w.piece_dims, w.reference_docs), w.reference_s),
        "text": (TextReference(*TEXT_REFERENCE_SHAPE), TEXT_REFERENCE_S),
    })
    setup_raw, setup_scaled = [], []
    for _ in range(w.setup_reps):
        state = None  # release the previous set-up, so that each one starts from the same memory
        state, raw, scaled = watch.time("model", set_up, w, seed, paths, ckpt_path)
        setup_raw.append(raw)
        setup_scaled.append(scaled)
    rounds = Rounds(w, seed, state, ckpt_path, tally, watch)
    start = time.perf_counter()
    rounds.run(state.data)
    # Peak memory of set-up and one round of every operation: later rounds
    # repeat the same work, and how many fit depends on the machine's speed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds.run_for(state.data, seconds - (time.perf_counter() - start))
    s = rounds.samples
    metrics = {
        "setup_s": (median(setup_scaled), "s"),
        "train_docs_per_s": (median(s["train_docs_per_s"]), "docs/s"),
        "valid_ppl": (rounds.valid_ppl(state.data["valid"]), "ppl"),
        "eval_docs_per_s": (median(s["eval_docs_per_s"]), "docs/s"),
        "iter_steps_per_s": (median(s["iter_steps_per_s"]), "steps/s"),
        "ckpt_save_s": (median(s["ckpt_save_s"]), "s"),
        "ckpt_load_s": (median(s["ckpt_load_s"]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    unscaled = {name: median(values) for name, values in rounds.raw.items()}
    unscaled["setup_s"] = median(setup_raw)
    for kind, values in watch.reference_s.items():
        unscaled[f"reference_{kind}_s"] = median(values)
    return metrics, unscaled


def per_layer(w: Workload, seed: int, seconds: float, paths: dict, ckpt_path: str, tally: Tally, spans_path: Path, env: dict) -> dict:
    """Run the rounds untraced, then the same rounds traced, and reduce the spans."""
    state = set_up(w, seed, paths, ckpt_path)
    untraced = Rounds(w, seed, state, ckpt_path, tally, Stopwatch({}))
    start = time.perf_counter()
    untraced.run_for(load_inputs(paths), seconds / 2)
    wall_untraced = time.perf_counter() - start
    untraced.valid_ppl(state.data["valid"])

    traced = Rounds(w, seed, state, ckpt_path, tally, Stopwatch({}))
    with Tracer("pwvae", TRACED) as tracer:
        start = time.perf_counter()
        data = load_inputs(paths)
        while traced.count < untraced.count:
            traced.run(data)
        wall_traced = time.perf_counter() - start
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_tsv(str(spans_path), header=json.dumps(env))

    stats = tracer.summary()
    out = {}
    for name, st in stats.items():
        if name in PER_CALL:
            out[f"{name}.self_ms_per_call"] = (st.self_ns / 1e6 / st.calls if st.calls else 0.0, "ms/call")
            out[f"{name}.calls"] = (st.calls, "count")
        else:
            out[f"{name}.self_ms_per_doc"] = (st.self_ns / 1e6 / traced.docs, "ms/doc")
            out[f"{name}.calls_per_doc"] = (st.calls / traced.docs, "calls/doc")
    # Step time: gaps between successive Adam steps of one train call.
    starts = tracer.starts("training.adam_step")
    gaps = [(b - a) / 1e6 for (a, pa), (b, pb) in zip(starts, starts[1:]) if pa == pb]
    out["training.step_ms.p50"] = (median(gaps) if gaps else 0.0, "ms")
    out["evaluation.iterative_inference.steps_per_doc"] = (traced.steps / traced.refinements, "steps/doc")
    out["evaluation.iterative_inference.aborted"] = (traced.aborted, "count")
    out["checkpoint.bytes"] = (traced.ckpt_bytes, "bytes")
    out["trace.overhead_frac"] = (wall_traced / wall_untraced - 1.0, "ratio")
    out["trace.coverage_frac"] = (sum(st.self_ns for st in stats.values()) / 1e9 / wall_traced, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true", help="fewest documents and repetitions, for the smoke test")
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke()
    env = environment(args.seed)
    print(json.dumps({"environment": env}), flush=True)

    workdir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        paths = write_inputs(w, args.seed, workdir)
        ckpt_path = str(workdir / "model.ckpt")
        if args.trace:
            spans_path = BENCH_DIR / "traces" / f"{args.workload}-seed{args.seed}.tsv"
            metrics = per_layer(w, args.seed, args.seconds, paths, ckpt_path, tally, spans_path, env)
        else:
            metrics, unscaled = end_to_end(w, args.seed, args.seconds, paths, ckpt_path, tally)
            print(json.dumps({"unscaled": unscaled}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
