"""Grid sweeps over embedding pipelines and classifiers, with CSV reports.

A sweep crosses pipelines {raw, pca, ccdr, lda, lapeig} with classifiers
{knn, linear} over grids of beta, target dimension m, graph degree k, and
classifier k. Per-pipeline irrelevant axes collapse to a single placeholder
so the report carries one row for each distinct experiment. Everything is
fitted on the training split only; test points reach an embedding through
the out-of-sample path (label 0 for CCDR), so no test information can leak
into any fitted parameter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtri

from . import classify as _classify
from .dataset import (
    LabeledDataset,
    apply_standardize,
    column_stats,
    gen_circles,
    load_statlog,
)
from .embedding import _check_fit, _extend, _solve, embed_many
from .graph import _heat_graph, kernel_rows
from .baselines import lda_fit, pca_fit

PIPELINES = ("raw", "pca", "ccdr", "lda", "lapeig")
_GRAPH_PIPELINES = ("ccdr", "lapeig")
CLASSIFIERS = ("knn", "linear")

CSV_HEADER = "pipeline,classifier,beta,m,graph_k,clf_k,error,ci_low,ci_high,wall_ms"

# Two-sided normal quantile for the default 80% confidence level.
Z80 = 1.2816


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs and grids for one sweep.

    Exactly one data source applies: statlog paths (train_path, test_path)
    or a synthetic spec (synth = dict with n_per_class, radii, noise_sd);
    synthetic test data uses seed + 1. remap=None means the satimage label
    table. eps=None selects the median heuristic scaled by eps_scale.
    The `ccdr sweep` and `ccdr classify` options are derived from these
    fields and their defaults (see cli.py).
    """

    train_path: str | None = None
    test_path: str | None = None
    synth: dict | None = None
    remap: dict | None = None
    pipelines: tuple = ("ccdr",)
    classifiers: tuple = ("knn",)
    betas: tuple = (0.5,)
    ms: tuple = (2,)
    graph_ks: tuple = (4,)
    clf_ks: tuple = (1,)
    eps: float | None = None
    eps_scale: float = 1.0
    standardize: bool = False
    seed: int = 0
    ci_level: float = 0.8
    measure_wall: bool = True


@dataclass(frozen=True)
class SweepRow:
    """One grid point's result; note holds the failure text for error rows."""

    pipeline: str
    classifier: str
    beta: float
    m: int
    graph_k: int
    clf_k: int
    error: float
    ci_low: float
    ci_high: float
    wall_ms: float
    note: str = ""


@dataclass(frozen=True)
class SweepReport:
    config: ExperimentConfig
    rows: tuple


@dataclass(frozen=True)
class PipelineFit:
    """A fitted embedding: training coordinates plus a transform for new points."""

    train_embedding: np.ndarray
    transform: Callable
    detail: object = None


def _check_level(level):
    if not 0 <= level < 1:
        raise ValueError("level must lie in [0, 1)")


def confidence_interval(errors: int, n_test: int, level: float = 0.8):
    """Normal-approximation binomial interval for an error rate.

    Returns (low, high) clamped to [0, 1]; errors = 0 or errors = n_test
    collapse the interval onto the point estimate. Level 0.8 uses Z80;
    any other level takes its quantile from scipy.special.ndtri, bit for
    bit the value scipy.stats.norm.ppf gives, without loading scipy.stats.
    """
    if n_test < 1:
        raise ValueError("n_test must be at least 1")
    if not 0 <= errors <= n_test:
        raise ValueError("errors must lie in {0, .., n_test}")
    _check_level(level)
    z = Z80 if level == 0.8 else float(ndtri((1.0 + level) / 2.0))
    p = errors / n_test
    half = z * np.sqrt(p * (1.0 - p) / n_test)
    return (float(max(0.0, p - half)), float(min(1.0, p + half)))


def load_split(cfg: ExperimentConfig):
    """Materialize (train, test) datasets from the config's data source."""
    if cfg.synth is not None:
        spec = dict(cfg.synth)
        train = gen_circles(seed=cfg.seed, **spec)
        test = gen_circles(seed=cfg.seed + 1, **spec)
    elif cfg.train_path and cfg.test_path:
        train = load_statlog(cfg.train_path, remap=cfg.remap)
        test = load_statlog(cfg.test_path, remap=cfg.remap)
    else:
        raise ValueError("config needs train_path and test_path, or synth")
    if cfg.standardize:
        mean, sd = column_stats(train)
        train = apply_standardize(train, mean, sd)
        test = apply_standardize(test, mean, sd)
    return train, test


def fit_pipeline(
    pipeline: str,
    train: LabeledDataset,
    m: int,
    graph_k: int = 4,
    beta: float = 1.0,
    eps: float | None = None,
    eps_scale: float = 1.0,
) -> PipelineFit:
    """Fit one embedding pipeline on the training split only.

    The returned transform embeds arbitrary query points without touching
    any fitted parameter; for CCDR queries enter unlabeled (c = 0). A graph
    pipeline's transform is embed_many, and detail is its CcdrModel.
    """
    if pipeline == "raw":
        return PipelineFit(train.points, lambda X: np.asarray(X, dtype=np.float64))
    if pipeline == "pca":
        emb = pca_fit(train.points, m)
        return PipelineFit(emb.transform(train.points), emb.transform, emb)
    if pipeline == "lda":
        mask = train.labels > 0
        emb = lda_fit(train.points[mask], train.labels[mask], m)
        return PipelineFit(emb.transform(train.points), emb.transform, emb)
    if pipeline in _GRAPH_PIPELINES:
        W = _heat_graph(train.points, graph_k, eps, eps_scale)
        model = _graph_model(pipeline, train, m, graph_k, beta, W)
        return PipelineFit(model.embedding, lambda X: embed_many(model, X), model)
    raise ValueError("unknown pipeline %r" % pipeline)


def _graph_model(pipeline, train, m, graph_k, beta, W):
    """Fit ccdr or lapeig on the heat weights W.

    lapeig is the CCDR model with no class nodes and beta = 1, so both
    share one solve, one model type and one extension.
    """
    if pipeline == "lapeig":
        if not 1 <= m <= train.n - 1:
            raise ValueError("m must satisfy 1 <= m <= n - 1 = %d" % (train.n - 1))
        return _solve(train.points, np.zeros(train.n, dtype=np.int64), 0, W, graph_k, 1.0, m)
    _check_fit(train, beta, m)
    return _solve(train.points, train.labels, train.num_classes, W, graph_k, beta, m)


def _axis(values, relevant: bool, placeholder):
    return tuple(values) if relevant else (placeholder,)


def run_sweep(cfg: ExperimentConfig) -> SweepReport:
    """Run the full grid and return rows sorted by their grid coordinates.

    A grid point that violates a precondition becomes a row with nan
    metrics and the exception text in `note`; the sweep continues. Each
    grid key (pipeline, beta, m, graph_k) is handled in one pass: one fit,
    one embedding of the test points, then every (classifier, clf_k) row
    from that embedding, so removing one grid point never changes another
    row. The heat weights and the test points' kernel rows depend on
    graph_k alone: one cache entry per graph_k holds them for every ccdr
    and lapeig key using it, with the same bits as a build per key. A
    graph that cannot be built gives its error to every such key before
    any argument check. With measure_wall off, wall_ms is 0 and a rerun
    emits a byte-identical CSV; with it on, each row carries its key's fit
    and test-embedding time plus its own classification time, and the
    first key that uses a graph carries its build time.
    """
    for p in cfg.pipelines:
        if p not in PIPELINES:
            raise ValueError("unknown pipeline %r" % p)
    for c in cfg.classifiers:
        if c not in CLASSIFIERS:
            raise ValueError("unknown classifier %r" % c)
    _check_level(cfg.ci_level)
    if not (cfg.pipelines and cfg.classifiers and cfg.betas and cfg.ms
            and cfg.graph_ks and cfg.clf_ks):
        raise ValueError("all grids must be non-empty")
    train, test = load_split(cfg)
    if np.any(test.labels == 0):
        raise ValueError("test set must be fully labeled")
    if test.num_classes > train.num_classes:
        raise ValueError("test set has labels unseen in training")
    ctx = _Sweep(cfg, train, test, time.perf_counter if cfg.measure_wall else (lambda: 0.0))
    rows = []
    for pipeline in cfg.pipelines:
        for beta in _axis(cfg.betas, pipeline == "ccdr", 0.0):
            for m in _axis(cfg.ms, pipeline != "raw", train.d):
                for graph_k in _axis(cfg.graph_ks, pipeline in _GRAPH_PIPELINES, 0):
                    rows.extend(ctx.key_rows(pipeline, beta, m, graph_k))
    rows.sort(key=lambda r: (r.pipeline, r.classifier, r.beta, r.m, r.graph_k, r.clf_k))
    return SweepReport(config=cfg, rows=tuple(rows))


@dataclass
class _Sweep:
    """What the grid keys of one run_sweep call share: graphs holds each
    graph_k's heat weights and the test points' kernel_rows, or the
    ValueError building them raised.
    """

    cfg: ExperimentConfig
    train: LabeledDataset
    test: LabeledDataset
    clock: Callable
    graphs: dict = field(default_factory=dict)

    def graph(self, graph_k):
        """(W, test kernel rows) of one graph_k, built on its first lookup."""
        if graph_k not in self.graphs:
            cfg, train = self.cfg, self.train
            try:
                W = _heat_graph(train.points, graph_k, cfg.eps, cfg.eps_scale)
                rows = kernel_rows(self.test.points, train.points, graph_k, W.eps)
                self.graphs[graph_k] = (W, rows)
            except ValueError as exc:
                self.graphs[graph_k] = exc
        got = self.graphs[graph_k]
        if isinstance(got, Exception):
            raise got.with_traceback(None)
        return got

    def embed(self, pipeline, beta, m, graph_k):
        """Fit one grid key; return its training and test embeddings."""
        if pipeline not in _GRAPH_PIPELINES:
            pf = fit_pipeline(pipeline, self.train, m=m)
            return pf.train_embedding, pf.transform(self.test.points)
        W, rows = self.graph(graph_k)
        model = _graph_model(pipeline, self.train, m, graph_k, beta, W)
        return model.embedding, _extend(model, rows, np.zeros(self.test.n, dtype=np.int64))

    def key_rows(self, pipeline, beta, m, graph_k):
        """Every (classifier, clf_k) row of one grid key, from one fit.

        The first kNN row sorts the test points' neighbour labels up to the
        largest clf_k and the others reuse them; the key's one linear row
        fits the linear classifier.
        """
        cfg, train, test, clock = self.cfg, self.train, self.test, self.clock
        key = (pipeline, beta, m, graph_k)
        cells = [
            (classifier, clf_k)
            for classifier in cfg.classifiers
            for clf_k in _axis(cfg.clf_ks, classifier == "knn", 0)
        ]
        t0 = clock()
        try:
            train_emb, test_emb = self.embed(*key)
        except ValueError as exc:
            fit_ms = (clock() - t0) * 1e3
            return [_failed_row(key, c, k, fit_ms, exc) for c, k in cells]
        fit_ms = (clock() - t0) * 1e3
        labeled = train.labels > 0
        train_emb, train_labs = train_emb[labeled], train.labels[labeled]
        nbr = None
        rows = []
        for classifier, clf_k in cells:
            t0 = clock()
            try:
                if classifier == "knn":
                    if nbr is None:
                        nbr = _classify.sorted_neighbor_labels(
                            train_emb, train_labs, test_emb,
                            min(max(cfg.clf_ks), train_labs.size),
                        )
                    if clf_k > nbr.shape[1]:
                        raise ValueError("clf_k = %d exceeds labeled size" % clf_k)
                    pred = _classify.vote(nbr, clf_k, train.num_classes)
                else:
                    lin = _classify.linear_fit(train_emb, train_labs, train.num_classes)
                    pred = lin.predict(test_emb)
                err_count = int(np.sum(pred != test.labels))
                lo, hi = confidence_interval(err_count, test.n, cfg.ci_level)
            except ValueError as exc:
                wall = fit_ms + (clock() - t0) * 1e3
                rows.append(_failed_row(key, classifier, clf_k, wall, exc))
                continue
            rows.append(SweepRow(
                pipeline, classifier, beta, m, graph_k, clf_k,
                err_count / test.n, lo, hi, fit_ms + (clock() - t0) * 1e3,
            ))
        return rows


def _failed_row(key, classifier, clf_k, wall_ms, exc) -> SweepRow:
    pipeline, beta, m, graph_k = key
    nan = float("nan")
    return SweepRow(
        pipeline, classifier, beta, m, graph_k, clf_k, nan, nan, nan, wall_ms, note=str(exc)
    )


def _csv_num(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def emit_report(report: SweepReport, path) -> None:
    """Write the report as CSV; float fields round-trip at full precision."""
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(
            ",".join(
                [
                    r.pipeline,
                    r.classifier,
                    _csv_num(r.beta),
                    _csv_num(r.m),
                    _csv_num(r.graph_k),
                    _csv_num(r.clf_k),
                    _csv_num(r.error),
                    _csv_num(r.ci_low),
                    _csv_num(r.ci_high),
                    _csv_num(r.wall_ms),
                ]
            )
        )
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
