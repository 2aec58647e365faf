"""Benchmark of the ccdr package on satimage-shaped synthetic data.

Run from the root of a source checkout (the package is imported from
./src, never from an installed copy):

    python3 perfbench/run.py --workload satimage-iso --seed 0 --seconds 15 --trace 0

Each round times the package's public entry points: `fit` on the training
split, `embed_many` plus `KnnClassifier.predict` over the test split in
fixed batches with single points between them, and `run_sweep` over the
workload's grid, read from Statlog files. Rounds repeat until --seconds
have passed; each round's outputs are checked against computations made
apart from the package (checks.py) as soon as it ends. The last line of
standard output is one JSON object with the counts of operations attempted
and failed and, with --trace 0, the end-to-end metrics or, with --trace 1,
the per-layer ones. See README.md.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    # BLAS threads are fixed before numpy loads: at most 2, at most nproc.
    _threads = str(min(2, len(os.sched_getaffinity(0))))
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = _threads

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import D, NUM_CLASSES, WORKLOADS  # noqa: E402

SETUP_REPEATS = 15
WARM_N_TRAIN = 300
WARM_SINGLES = 5
CLASSIFIERS = ("knn", "linear")

# per-layer metric -> (traced function, field); see README.md for what each should move
LAYER_METRICS = {
    "graph.knn_graph_s": ("graph.knn_graph", "self_s"),
    "graph.knn_graph_calls": ("graph.knn_graph", "calls"),
    "graph.median_eps_s": ("graph.median_eps", "self_s"),
    "graph.heat_weights_s": ("graph.heat_weights", "self_s"),
    "graph.kernel_rows_s": ("graph.kernel_rows", "self_s"),
    "spectral.generalized_eig_s": ("spectral.generalized_eig", "self_s"),
    "spectral.generalized_eig_calls": ("spectral.generalized_eig", "calls"),
    "spectral.dense_mb": ("spectral.generalized_eig", "bytes"),
    "embedding.fit_self_s": ("embedding.fit", "self_s"),
    "embedding.build_augmented_s": ("embedding.build_augmented", "self_s"),
    "embedding.constraint_residuals_s": ("embedding.constraint_residuals", "self_s"),
    "embedding.embed_many_self_s": ("embedding.embed_many", "self_s"),
    "classify.sorted_neighbor_labels_s": ("classify.sorted_neighbor_labels", "self_s"),
    "classify.vote_s": ("classify.vote", "self_s"),
    "classify.linear_fit_s": ("classify.linear_fit", "self_s"),
    "baselines.pca_fit_s": ("baselines.pca_fit", "self_s"),
    "baselines.lda_fit_s": ("baselines.lda_fit", "self_s"),
    "harness.run_sweep_self_s": ("harness.run_sweep", "self_s"),
    "harness.fit_pipeline_self_s": ("harness.fit_pipeline", "self_s"),
    "harness.fit_pipeline_calls": ("harness.fit_pipeline", "calls"),
    "dataset.load_statlog_s": ("dataset.load_statlog", "self_s"),
}


def import_package(root: Path):
    """Import ccdr from root/src; exit with an error when it is not there."""
    src = root / "src"
    if not (src / "ccdr" / "__init__.py").is_file():
        sys.exit("no package source at %s: run from the root of a ccdr checkout" % src)
    sys.path.insert(0, str(src))
    import ccdr

    if Path(ccdr.__file__).resolve().parent != (src / "ccdr").resolve():
        sys.exit("imported ccdr from %s, not from %s" % (ccdr.__file__, src))
    return ccdr


@dataclass
class Case:
    """One split as the package sees it: arrays, Statlog files and a sweep config."""

    split: object
    train_ds: object
    cfg: object
    labeled: np.ndarray


@dataclass
class RoundResult:
    """Timings and outputs of one round; the last model serves the predictions."""

    fit_s: list = field(default_factory=list)
    pass_s: list = field(default_factory=list)
    single_s: list = field(default_factory=list)
    sweep_s: list = field(default_factory=list)
    wall_s: float = 0.0
    models: list = field(default_factory=list)
    passes: list = field(default_factory=list)  # per pass: ([embeddings], [labels]) by batch
    singles: list = field(default_factory=list)  # (test index, embedding row, label)
    sweep_rows: list = field(default_factory=list)  # per sweep: its rows
    error: str = ""

    def drop_outputs(self) -> None:
        """Forget the checked outputs so memory does not grow with the rounds."""
        self.models, self.passes, self.singles, self.sweep_rows = [], [], [], []


def _write_statlog(path: Path, X, labels) -> None:
    # Class 6 is written as 7, as in the satimage files; 0 stays unlabeled.
    lab = np.where(labels == NUM_CLASSES, 7, labels)
    np.savetxt(path, np.column_stack([X, lab]), fmt=["%.17g"] * X.shape[1] + ["%d"])


class Bench:
    def __init__(self, ccdr, wl, seed: int, n_train: int, out_dir: Path):
        self.ccdr = ccdr
        self.wl = wl
        self.seed = seed
        self.n_train = n_train
        self.out_dir = out_dir
        self.files = []

    def make_case(self, n_train: int, tag: str) -> Case:
        ccdr, wl = self.ccdr, self.wl
        split = wl.split(self.seed, n_train)
        stem = self.out_dir / ("%s-s%d-p%d-%s" % (wl.name, self.seed, os.getpid(), tag))
        train_path, test_path = Path(str(stem) + "-train.sat"), Path(str(stem) + "-test.sat")
        _write_statlog(train_path, split.train_X, split.train_labels)
        _write_statlog(test_path, split.test_X, split.test_y)
        self.files += [train_path, test_path]
        cfg = ccdr.ExperimentConfig(
            train_path=str(train_path),
            test_path=str(test_path),
            pipelines=wl.pipelines,
            classifiers=CLASSIFIERS,
            betas=wl.betas,
            ms=wl.ms,
            graph_ks=wl.graph_ks,
            clf_ks=wl.clf_ks,
            measure_wall=False,
        )
        train_ds = ccdr.LabeledDataset(split.train_X, split.train_labels, NUM_CLASSES)
        return Case(split, train_ds, cfg, split.train_labels > 0)

    def setup(self) -> Case:
        """Data generation, the Statlog files, and a warm-up round on a small split."""
        case = self.make_case(self.n_train, "main")
        self.run_round(self.make_case(WARM_N_TRAIN, "warm"), 0, 1, 2, 1, WARM_SINGLES)
        return case

    def run_round(self, case: Case, index: int, fits: int, passes: int, sweeps: int,
                  singles_per_batch: int) -> RoundResult:
        ccdr, wl = self.ccdr, self.wl
        Xt = case.split.test_X
        q = Xt.shape[0]
        r = RoundResult()
        clock = time.perf_counter
        start = clock()
        try:
            for _ in range(fits):
                t0 = clock()
                model = ccdr.fit(case.train_ds, k=wl.k, beta=wl.beta, m=wl.m)
                r.fit_s.append(clock() - t0)
                r.models.append(model)
            knn = ccdr.KnnClassifier(
                model.embedding[case.labeled], case.split.train_labels[case.labeled],
                wl.clf_k, NUM_CLASSES,
            )
            # Sweeps sit between passes and single-point calls between
            # batches, so the samples of each spread over the whole round.
            sweep_before = [(k + 1) * passes // (sweeps + 1) for k in range(sweeps)]
            j = index * passes * -(-q // wl.batch) * singles_per_batch
            for p in range(passes):
                for _ in range(sweep_before.count(p)):
                    t0 = clock()
                    r.sweep_rows.append(ccdr.run_sweep(case.cfg).rows)
                    r.sweep_s.append(clock() - t0)
                embs, preds = [], []
                pass_s = 0.0
                for s in range(0, q, wl.batch):
                    t0 = clock()
                    E = ccdr.embed_many(model, Xt[s : s + wl.batch])
                    preds.append(knn.predict(E))
                    pass_s += clock() - t0
                    embs.append(E)
                    for _ in range(singles_per_batch):
                        i = j % q
                        j += 1
                        t0 = clock()
                        e = ccdr.embed_many(model, Xt[i : i + 1])
                        label = knn.predict(e)
                        r.single_s.append(clock() - t0)
                        r.singles.append((i, e, label))
                r.pass_s.append(pass_s)
                r.passes.append((embs, preds))
        except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
            r.error = "%s: %s" % (type(exc).__name__, exc)
        r.wall_s = clock() - start
        return r

    def cleanup(self) -> None:
        for p in self.files:
            p.unlink(missing_ok=True)


def expected_sweep_keys(cfg, d: int) -> set:
    """Grid keys of a sweep report; axes a pipeline ignores collapse to one placeholder."""
    keys = set()
    for p in cfg.pipelines:
        for c in cfg.classifiers:
            for b in cfg.betas if p == "ccdr" else (0.0,):
                for m in cfg.ms if p != "raw" else (d,):
                    for g in cfg.graph_ks if p in ("ccdr", "lapeig") else (0,):
                        for k in cfg.clf_ks if c == "knn" else (0,):
                            keys.add((p, c, b, m, g, k))
    return keys


class Checker:
    """The benchmark's own computations for one case, and per-round verification."""

    def __init__(self, wl, case: Case, ref):
        sp = case.split
        self.wl, self.case, self.ref = wl, case, ref
        self.problem = checks.FitProblem(sp.train_X, sp.train_labels, NUM_CLASSES, wl.k, wl.beta)
        self.kidx, self.kd2 = checks.neighbours(sp.test_X, sp.train_X, wl.k)
        lab = case.labeled
        trX, trY = sp.train_X[lab], sp.train_labels[lab]
        n_test = sp.test_y.size
        lsq = checks.lsq_predict(trX, trY, sp.test_X, NUM_CLASSES)
        self.raw_errors = {("linear", 0): int(np.sum(lsq != sp.test_y)) / n_test}
        for k in sorted(set(case.cfg.clf_ks) | {wl.clf_k}):
            pred = checks.knn_predict(trX, trY, sp.test_X, k, NUM_CLASSES)
            self.raw_errors[("knn", k)] = int(np.sum(pred != sp.test_y)) / n_test
        self.sweep_keys = expected_sweep_keys(case.cfg, D)

    def ops_per_round(self) -> int:
        wl = self.wl
        n_batches = -(-self.case.split.test_y.size // wl.batch)
        return wl.fits + wl.passes * n_batches * (1 + wl.singles_per_batch) + wl.sweeps * len(self.sweep_keys)

    def failures(self, r: RoundResult) -> list:
        """Messages for the failed operations of one round, one per operation."""
        if r.error:
            return [r.error] * self.ops_per_round()
        sp, wl, lab = self.case.split, self.wl, self.case.labeled
        out = []
        for model in r.models:
            fails = checks.check_fit(
                self.problem, model.eps, model.centers, model.embedding, model.eigenvalues, self.ref
            ) + checks.check_training_rows(
                self.problem, model.eps, model.beta, model.centers, model.embedding, model.eigenvalues
            )
            if fails:
                out.append("fit: " + "; ".join(fails))
        model = r.models[-1]
        own = checks.extension(self.kidx, self.kd2, model.eps, model.embedding, model.eigenvalues, model.beta)
        trY, trL = model.embedding[lab], sp.train_labels[lab]
        for embs, preds in r.passes:
            E = np.vstack(embs)
            pred = np.concatenate(preds)
            bad_row = checks.extension_mismatch(E, own)
            bad_row |= pred != checks.knn_predict(trY, trL, E, wl.clf_k, NUM_CLASSES)
            accuracy = checks.check_accuracy(pred, sp.test_y, self.raw_errors[("knn", wl.clf_k)])
            for s in range(0, sp.test_y.size, wl.batch):
                if accuracy or bad_row[s : s + wl.batch].any():
                    out.append("batch at %d: %s" % (s, "; ".join(accuracy) or "extension or prediction differs"))
        idx = np.array([i for i, _, _ in r.singles], dtype=np.int64)
        if idx.size:
            Es = np.vstack([e for _, e, _ in r.singles])
            labels = np.concatenate([p for _, _, p in r.singles])
            bad = checks.extension_mismatch(Es, own[idx])
            bad |= labels != checks.knn_predict(trY, trL, Es, wl.clf_k, NUM_CLASSES)
            out += ["single point %d: extension or prediction differs" % i for i in idx[bad]]
        for rows in r.sweep_rows:
            sweep_fails = checks.sweep_row_failures(rows, self.sweep_keys, self.raw_errors)
            out += ["sweep row %s: %s" % (key, why) for key, why in sorted(sweep_fails.items(), key=str)]
        return out


def get_reference(wl, seed: int, n_train: int):
    """Reference eigenvalues; solved in a child process the first time a seed is seen."""
    ref = reference.lookup(wl, seed, n_train)
    if ref is None:
        subprocess.run(
            [sys.executable, str(Path(reference.__file__)), "--workload", wl.name,
             "--seeds", str(seed), "--n-train", str(n_train)],
            check=True, timeout=150,
        )
        ref = reference.lookup(wl, seed, n_train)
    return ref


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    totals = tracer.totals()
    out = {}
    for metric, (target, what) in LAYER_METRICS.items():
        t = totals.get(target, {"self_s": 0.0, "calls": 0, "bytes": 0})
        if what == "self_s":
            out[metric] = {"value": t["self_s"] / rounds, "unit": "s"}
        elif what == "calls":
            out[metric] = {"value": t["calls"] / rounds, "unit": "count"}
        else:
            out[metric] = {"value": t["bytes"] / 2**20, "unit": "MB-computed"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n-train", type=int, default=None,
                    help="training size (default: the workload's); for scaling figures")
    args = ap.parse_args(argv)
    ccdr = import_package(Path.cwd())
    wl = WORKLOADS[args.workload]
    n_train = wl.n_train if args.n_train is None else args.n_train
    out_dir = Path(reference.__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    bench = Bench(ccdr, wl, args.seed, n_train, out_dir)
    try:
        return _run(args, ccdr, wl, bench, n_train, out_dir)
    finally:
        bench.cleanup()


def _run(args, ccdr, wl, bench: Bench, n_train: int, out_dir: Path) -> int:
    setup_s = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        case = bench.setup()
        setup_s.append(time.perf_counter() - t0)

    ref = get_reference(wl, args.seed, n_train)
    checker = Checker(wl, case, ref)
    failed = []

    def check(r: RoundResult) -> None:
        try:
            failed.extend(checker.failures(r))
        except Exception as exc:  # output too malformed for the checks to run
            failed.extend(["checks raised %s: %s" % (type(exc).__name__, exc)] * checker.ops_per_round())
        r.drop_outputs()

    # Each round is checked as soon as it ends, outside its timings. With
    # --trace 1, untraced and traced rounds alternate; their gap is the overhead.
    counts = (wl.fits, wl.passes, wl.sweeps, wl.singles_per_batch)
    tracer = Tracer()
    results, plain, traced = [], [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < args.seconds:
        r = bench.run_round(case, len(results), *counts)
        check(r)
        plain.append(r)
        results.append(r)
        if args.trace:
            tracer.install()
            tracer.recording = True
            with tracer.mark("round"):
                r = bench.run_round(case, len(results), *counts)
            tracer.recording = False
            tracer.uninstall()
            check(r)
            traced.append(r)
            results.append(r)
    for msg in failed[:20]:
        print("FAILED " + msg, file=sys.stderr)
    attempted = len(results) * checker.ops_per_round()

    if args.trace:
        metrics = layer_metrics(tracer, len(traced))
        base = statistics.median(r.wall_s for r in plain)
        with_trace = statistics.median(r.wall_s for r in traced)
        metrics["trace.overhead_pct"] = {"value": 100.0 * (with_trace - base) / base, "unit": "%"}
        trace_file = out_dir / ("trace-%s-n%d-s%d.json" % (wl.name, n_train, args.seed))
        trace_file.write_text(json.dumps({
            "workload": wl.name, "seed": args.seed, "n_train": n_train,
            "absent": tracer.absent,
            "round_wall_s": {"untraced": [r.wall_s for r in plain],
                             "traced": [r.wall_s for r in traced]},
            "totals": tracer.totals(),
            "spans": tracer.spans,
        }))
        for name in tracer.absent:
            print("traced function %s is absent" % name, file=sys.stderr)
    else:
        ok = [r for r in results if not r.error]
        if not ok:
            sys.exit("every round failed: %s" % results[0].error)
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "fit_s": {"value": statistics.median(t for r in ok for t in r.fit_s), "unit": "s"},
            "predict_pts_per_s": {
                "value": statistics.median(case.split.test_y.size / t for r in ok for t in r.pass_s),
                "unit": "1/s",
            },
            "predict_single_ms": {
                "value": 1e3 * statistics.median(t for r in ok for t in r.single_s),
                "unit": "ms",
            },
            "sweep_s": {"value": statistics.median(t for r in ok for t in r.sweep_s), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    # No operation of these workloads is expected to fail, so any failure,
    # or a round too malformed to check, means the package's output is wrong.
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
