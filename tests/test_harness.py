"""Experiment harness: splits, pipelines, sweeps, and CSV reports."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

import ccdr.classify
import ccdr.graph
import ccdr.harness
from ccdr.classify import KnnClassifier, linear_fit
from ccdr.dataset import (
    LabeledDataset,
    gen_circles,
    save_statlog,
)
from ccdr.baselines import laplacian_eigenmap
from ccdr.embedding import OOS_MODES, constraint_residuals, embed_many, fit
from ccdr.graph import heat_weights, knn_graph, median_eps
from ccdr.harness import (
    CSV_HEADER,
    PIPELINES,
    ExperimentConfig,
    SweepReport,
    SweepRow,
    confidence_interval,
    emit_report,
    fit_pipeline,
    load_split,
    run_sweep,
)


@pytest.fixture()
def circle_files(tmp_path):
    trn = tmp_path / "c.trn"
    tst = tmp_path / "c.tst"
    save_statlog(gen_circles(40, [1.0, 2.0], 0.02, seed=1), trn)
    save_statlog(gen_circles(10, [1.0, 2.0], 0.02, seed=2), tst)
    return str(trn), str(tst)


def test_confidence_interval_frozen_values():
    lo, hi = confidence_interval(50, 100, 0.8)
    # half width 1.2816 * sqrt(0.25 / 100) = 0.064080
    assert abs(lo - 0.43592) < 1e-12
    assert abs(hi - 0.56408) < 1e-12
    assert confidence_interval(0, 50) == (0.0, 0.0)
    assert confidence_interval(50, 50) == (1.0, 1.0)


def test_confidence_interval_level_and_clamping():
    p = 0.3
    lo, hi = confidence_interval(30, 100, 1e-12)
    assert abs(lo - p) < 1e-9 and abs(hi - p) < 1e-9
    # wide level clamps into [0, 1]
    lo, hi = confidence_interval(99, 100, 0.9999)
    assert hi == 1.0 and lo > 0.9
    lo95, hi95 = confidence_interval(20, 100, 0.95)
    z = 1.959963984540054
    half = z * math.sqrt(0.2 * 0.8 / 100)
    assert abs(lo95 - (0.2 - half)) < 1e-12
    assert abs(hi95 - (0.2 + half)) < 1e-12


def test_confidence_interval_validation():
    with pytest.raises(ValueError, match="n_test must be at least 1"):
        confidence_interval(0, 0)
    with pytest.raises(ValueError, match=r"errors must lie in \{0, .., n_test\}"):
        confidence_interval(11, 10)
    with pytest.raises(ValueError, match=r"level must lie in \[0, 1\)"):
        confidence_interval(1, 10, 1.0)


def test_load_split_synthetic_determinism():
    cfg = ExperimentConfig(synth={"n_per_class": 15, "radii": [1.0, 2.0], "noise_sd": 0.05}, seed=3)
    tr1, te1 = load_split(cfg)
    tr2, te2 = load_split(cfg)
    assert np.array_equal(tr1.points, tr2.points)
    assert np.array_equal(te1.points, te2.points)
    # the test split comes from an independent stream
    assert not np.array_equal(tr1.points, te1.points)
    assert np.array_equal(tr1.labels, te1.labels)


def test_load_split_standardize_uses_train_stats_only(circle_files):
    trn, tst = circle_files
    cfg = ExperimentConfig(train_path=trn, test_path=tst, remap={1: 1, 2: 2}, standardize=True)
    train, test = load_split(cfg)
    assert np.abs(train.points.mean(axis=0)).max() < 1e-12
    assert np.abs(train.points.std(axis=0) - 1.0).max() < 1e-12
    # the test split is mapped with the training statistics, so it need
    # not be centered itself
    assert np.all(np.isfinite(test.points))


def test_load_split_needs_a_source():
    with pytest.raises(ValueError, match="config needs train_path and test_path, or synth"):
        load_split(ExperimentConfig())


def test_fit_pipeline_each_kind():
    train = gen_circles(30, [1.0, 2.0], 0.02, seed=4)
    q = train.points[:5]
    raw = fit_pipeline("raw", train, 2)
    assert np.array_equal(raw.train_embedding, train.points)
    assert np.array_equal(raw.transform(q), q)
    pca = fit_pipeline("pca", train, 1)
    assert pca.train_embedding.shape == (60, 1)
    assert np.array_equal(pca.transform(q), pca.train_embedding[:5])
    lda = fit_pipeline("lda", train, 1)
    assert lda.train_embedding.shape == (60, 1)
    lap = fit_pipeline("lapeig", train, 2, graph_k=4)
    assert lap.train_embedding.shape == (60, 2)
    assert np.all(np.isfinite(lap.transform(q)))
    ccdr = fit_pipeline("ccdr", train, 2, graph_k=4, beta=0.05)
    assert np.array_equal(ccdr.train_embedding, ccdr.detail.embedding)
    assert np.array_equal(ccdr.transform(q), embed_many(ccdr.detail, q, 0))
    with pytest.raises(ValueError, match="unknown pipeline 'foo'"):
        fit_pipeline("foo", train, 2)


def test_fit_pipeline_lda_ignores_unlabeled_points():
    pts = np.array([
        [0.0, 0.0], [1.0, 0.2], [0.4, 1.0],
        [5.0, 0.0], [6.0, 0.3], [5.5, 1.0],
        [50.0, 50.0],
    ])
    labels = np.array([1, 1, 1, 2, 2, 2, 0])
    ds = LabeledDataset(pts, labels, 2)
    with_unlabeled = fit_pipeline("lda", ds, 1)
    ds_cut = LabeledDataset(pts[:6], labels[:6], 2)
    without = fit_pipeline("lda", ds_cut, 1)
    assert np.array_equal(with_unlabeled.detail.A, without.detail.A)


def test_fit_pipeline_refit_transform_is_deterministic():
    train = gen_circles(20, [1.0, 2.0], 0.02, seed=5)
    pf = fit_pipeline("ccdr", train, 2, graph_k=4, beta=0.05, oos="refit")
    q = np.array([[0.5, 0.5], [-1.2, 0.3]])
    a = pf.transform(q)
    b = pf.transform(q)
    assert np.array_equal(a, b)
    assert a.shape == (2, 2) and np.all(np.isfinite(a))


def test_lapeig_is_ccdr_with_no_class_nodes():
    train = gen_circles(30, [1.0, 2.0], 0.02, seed=4)
    pf = fit_pipeline("lapeig", train, 2, graph_k=4)
    model = pf.detail
    assert model.num_classes == 0 and model.centers.shape == (0, 2)
    assert model.beta == 1.0 and not model.train_labels.any()
    g = knn_graph(train.points, 4)
    W = heat_weights(g, train.points, median_eps(g, train.points))
    assert np.array_equal(pf.train_embedding, laplacian_eigenmap(W, 2))
    # the default rebuild of W and C reproduces the model's identities
    res = constraint_residuals(model)
    assert set(res) == {"gram", "mean", "center", "row"}
    assert max(res.values()) <= 1e-8 and res["center"] == 0.0


def test_lapeig_honours_the_oos_flags():
    train = gen_circles(20, [1.0, 2.0], 0.02, seed=5)
    q = np.array([[0.5, 0.5], [-1.2, 0.3], [3.0, 0.0]])
    full = fit_pipeline("lapeig", train, 2, graph_k=4, oos="full")
    assert np.array_equal(full.transform(q), embed_many(full.detail, q, 0, "full"))
    refit = fit_pipeline("lapeig", train, 2, graph_k=4, oos="refit")
    want = embed_many(refit.detail, q, 0, "refit")
    assert np.array_equal(refit.transform(q), want)
    plain = fit_pipeline("lapeig", train, 2, graph_k=4)
    assert not np.array_equal(plain.transform(q[:2]), full.transform(q[:2]))


def test_lapeig_eigenvalue_reaching_one_names_only_m():
    # a path graph's spectrum reaches 2, so a full band cannot stay below 1
    pts = np.arange(8.0)[:, None]
    ds = LabeledDataset(pts, np.repeat([1, 2], 4), 2)
    with pytest.raises(ValueError, match="retained eigenvalue .* reaches 1; decrease m$"):
        fit_pipeline("lapeig", ds, 7, graph_k=1)


def test_run_sweep_rows_and_collapsed_axes(circle_files):
    trn, tst = circle_files
    cfg = ExperimentConfig(
        train_path=trn, test_path=tst, remap={1: 1, 2: 2},
        pipelines=("ccdr", "raw"), classifiers=("knn", "linear"),
        betas=(0.05, 0.5), ms=(2,), graph_ks=(4,), clf_ks=(1, 3),
        measure_wall=False,
    )
    report = run_sweep(cfg)
    # ccdr/knn: 2 betas x 2 clf_k; ccdr/linear: 2 betas; raw/knn: 2 clf_k;
    # raw/linear: 1
    assert len(report.rows) == 9
    keys = [(r.pipeline, r.classifier, r.beta, r.m, r.graph_k, r.clf_k) for r in report.rows]
    assert keys == sorted(keys)
    for r in report.rows:
        if r.pipeline == "raw":
            assert r.beta == 0.0 and r.m == 2 and r.graph_k == 0
        if r.classifier == "linear":
            assert r.clf_k == 0
        assert 0.0 <= r.error <= 1.0
        assert r.ci_low <= r.error <= r.ci_high
        assert r.wall_ms == 0.0 and r.note == ""


def test_run_sweep_byte_identical_without_wall(circle_files, tmp_path):
    trn, tst = circle_files
    cfg = ExperimentConfig(
        train_path=trn, test_path=tst, remap={1: 1, 2: 2},
        pipelines=("ccdr", "raw"), classifiers=("knn", "linear"),
        betas=(0.05, 0.5), ms=(2,), graph_ks=(4,), clf_ks=(1, 3),
        measure_wall=False,
    )
    p1 = tmp_path / "r1.csv"
    p2 = tmp_path / "r2.csv"
    emit_report(run_sweep(cfg), p1)
    emit_report(run_sweep(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == CSV_HEADER


def test_run_sweep_error_rows_keep_note_and_continue(circle_files):
    trn, tst = circle_files
    cfg = ExperimentConfig(
        train_path=trn, test_path=tst, remap={1: 1, 2: 2},
        pipelines=("ccdr",), classifiers=("knn",), betas=(0.5,), ms=(2,),
        graph_ks=(4, 500), clf_ks=(1,), measure_wall=False,
    )
    rows = run_sweep(cfg).rows
    assert len(rows) == 2
    ok = [r for r in rows if r.graph_k == 4][0]
    bad = [r for r in rows if r.graph_k == 500][0]
    assert ok.note == "" and np.isfinite(ok.error)
    assert math.isnan(bad.error) and math.isnan(bad.ci_low)
    assert "k must satisfy" in bad.note


def test_run_sweep_turns_a_failed_residual_gate_into_a_row(nearly_cut_off, tmp_path):
    trn, tst = tmp_path / "cut.trn", tmp_path / "cut.tst"
    save_statlog(nearly_cut_off, trn)
    save_statlog(LabeledDataset(np.array([[-0.2], [0.1], [0.3]]), np.ones(3), 1), tst)
    cfg = ExperimentConfig(
        train_path=str(trn), test_path=str(tst), remap={1: 1}, betas=(0.1,),
        ms=(1,), graph_ks=(1, 2), measure_wall=False,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the k = 1 graph is disconnected
        bad, ok = run_sweep(cfg).rows
    assert bad.graph_k == 1 and math.isnan(bad.error)
    assert "violates its row identity" in bad.note and "worst at point 3" in bad.note
    assert ok.graph_k == 2 and ok.note == "" and np.isfinite(ok.error)


def test_run_sweep_rows_are_independent(circle_files):
    trn, tst = circle_files
    base = dict(
        train_path=trn, test_path=tst, remap={1: 1, 2: 2},
        pipelines=("ccdr", "raw"), classifiers=("knn", "linear"),
        ms=(2,), graph_ks=(4,), clf_ks=(1, 3), measure_wall=False,
    )
    full = run_sweep(ExperimentConfig(betas=(0.05, 0.5), **base)).rows
    small = run_sweep(ExperimentConfig(betas=(0.05,), **base)).rows
    sub = [r for r in full if r.beta in (0.05, 0.0)]
    assert len(sub) == len(small)
    for a, b in zip(sub, small):
        assert (a.pipeline, a.classifier, a.beta, a.m, a.graph_k, a.clf_k) == (
            b.pipeline, b.classifier, b.beta, b.m, b.graph_k, b.clf_k)
        assert a.error == b.error and a.ci_low == b.ci_low and a.ci_high == b.ci_high


def _graph_grid(trn, tst, graph_ks, oos="nearest"):
    return ExperimentConfig(
        train_path=trn, test_path=tst, remap={1: 1, 2: 2},
        pipelines=("ccdr", "lapeig"), classifiers=("knn", "linear"),
        betas=(0.05, 0.5), ms=(1, 2), graph_ks=graph_ks, clf_ks=(1, 3),
        oos=oos, measure_wall=False,
    )


def _count_knn_graphs(monkeypatch):
    calls = []
    real = ccdr.graph.knn_graph

    def counted(points, k):
        calls.append(k)
        return real(points, k)

    monkeypatch.setattr(ccdr.graph, "knn_graph", counted)
    return calls


def test_run_sweep_builds_each_graph_once(circle_files, monkeypatch):
    calls = _count_knn_graphs(monkeypatch)
    rows = run_sweep(_graph_grid(*circle_files, graph_ks=(4, 6))).rows
    # ccdr: 2 betas x 2 ms x 2 graph_ks; lapeig: 2 ms x 2 graph_ks; each
    # point with 2 clf_k rows for knn and one for linear
    assert len(rows) == (8 + 4) * 3
    assert sorted(calls) == [4, 6]


def test_run_sweep_fits_and_embeds_each_grid_key_once(circle_files, monkeypatch):
    calls = Counter()
    for module, name in (
        (ccdr.harness, "_solve"), (ccdr.harness, "pca_fit"), (ccdr.harness, "lda_fit"),
        (ccdr.harness, "_extend"), (ccdr.classify, "linear_fit"),
    ):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    trn, tst = circle_files
    cfg = ExperimentConfig(
        train_path=trn, test_path=tst, remap={1: 1, 2: 2}, pipelines=PIPELINES,
        classifiers=("knn", "linear"), betas=(0.05, 0.5), ms=(1, 3), graph_ks=(4, 6),
        clf_ks=(1, 3), measure_wall=False,
    )
    rows = run_sweep(cfg).rows
    # grid keys: raw 1, pca 2 ms, lda 2 ms, ccdr 2 betas x 2 ms x 2 graph_ks,
    # lapeig 2 ms x 2 graph_ks; pca and lda cannot reach m = 3 > d = 2
    assert len(rows) == 17 * 3
    assert {(r.pipeline, r.m) for r in rows if r.note} == {("pca", 3), ("lda", 3)}
    # one fit and one test embedding (_extend) per key, failed fits included,
    # and one linear classifier per linear key that fitted
    assert calls == {"_solve": 12, "pca_fit": 2, "lda_fit": 2, "_extend": 12, "linear_fit": 15}


def test_run_sweep_rows_equal_the_uncached_path(circle_files, monkeypatch):
    # the kNN classifier sees each grid point's embeddings once, in grid order
    seen = []
    real = ccdr.classify.sorted_neighbor_labels

    def recorded(train_Y, train_labels, Q, k_max):
        seen.append((train_Y, Q))
        return real(train_Y, train_labels, Q, k_max)

    monkeypatch.setattr(ccdr.classify, "sorted_neighbor_labels", recorded)
    # on every oos route, compared with fitting each grid point on its own
    for oos in OOS_MODES:
        cfg = _graph_grid(*circle_files, graph_ks=(4, 6), oos=oos)
        train, test = load_split(cfg)
        lab = train.labels > 0
        seen.clear()
        rows = run_sweep(cfg).rows
        fits = {}
        for pipeline in cfg.pipelines:
            for beta in cfg.betas if pipeline == "ccdr" else (0.0,):
                for m in cfg.ms:
                    for graph_k in cfg.graph_ks:
                        pf = fit_pipeline(pipeline, train, m, graph_k, beta, oos=oos)
                        fits[pipeline, beta, m, graph_k] = (
                            pf.train_embedding, pf.transform(test.points))
        assert len(seen) == len(fits)
        for (train_Y, Q), (Y, Yq) in zip(seen, fits.values()):
            assert np.array_equal(train_Y, Y[lab]) and np.array_equal(Q, Yq)
        for r in rows:
            Y, Yq = fits[r.pipeline, r.beta, r.m, r.graph_k]
            if r.classifier == "knn":
                clf = KnnClassifier(Y[lab], train.labels[lab], r.clf_k, 2)
            else:
                clf = linear_fit(Y[lab], train.labels[lab], 2)
            errors = int(np.sum(clf.predict(Yq) != test.labels))
            assert r.note == ""
            assert (r.error, r.ci_low, r.ci_high) == (
                errors / test.n, *confidence_interval(errors, test.n, cfg.ci_level))


def test_run_sweep_failed_graph_repeats_its_note(circle_files, monkeypatch):
    calls = _count_knn_graphs(monkeypatch)
    rows = run_sweep(_graph_grid(*circle_files, graph_ks=(4, 500))).rows
    bad = [r for r in rows if r.graph_k == 500]
    good = [r for r in rows if r.graph_k == 4]
    assert len(bad) == len(good) == 18
    assert {r.note for r in bad} == {"k must satisfy 1 <= k <= n - 1, got k=500, n=80"}
    assert all(math.isnan(r.error) for r in bad)
    assert all(r.note == "" and np.isfinite(r.error) for r in good)
    assert sorted(calls) == [4, 500]


def test_duplicate_points_need_an_explicit_eps():
    # 20 distinct points, each 6 times: every kNN edge has length 0
    rng = np.random.default_rng(3)
    pts = np.repeat(rng.standard_normal((20, 2)), 6, axis=0)
    ds = LabeledDataset(pts, np.repeat([1, 2], 60), 2)
    msg = "median squared kNN edge length is 0, duplicate points\\? Pass eps explicitly"
    with pytest.raises(ValueError, match=msg):
        fit(ds, k=4, beta=0.5, m=2)
    with pytest.raises(ValueError, match=msg):
        fit_pipeline("lapeig", ds, 2, graph_k=4)


def test_run_sweep_never_reads_test_statistics(circle_files, tmp_path):
    # scaling the test file by 100 must not change anything fitted: with
    # standardize on, the statistics come from the training split alone
    trn, tst = circle_files
    big = gen_circles(10, [1.0, 2.0], 0.02, seed=2)
    tst2 = tmp_path / "big.tst"
    save_statlog(LabeledDataset(big.points * 100.0, big.labels, 2), tst2)
    kw = dict(remap={1: 1, 2: 2}, pipelines=("ccdr",), classifiers=("linear",),
              betas=(0.5,), ms=(2,), graph_ks=(4,), clf_ks=(1,),
              standardize=True, measure_wall=False)
    trA, _ = load_split(ExperimentConfig(train_path=trn, test_path=tst, **kw))
    trB, _ = load_split(ExperimentConfig(train_path=trn, test_path=str(tst2), **kw))
    assert np.array_equal(trA.points, trB.points)
    pfA = fit_pipeline("ccdr", trA, 2, graph_k=4, beta=0.5)
    pfB = fit_pipeline("ccdr", trB, 2, graph_k=4, beta=0.5)
    assert np.array_equal(pfA.train_embedding, pfB.train_embedding)
    assert pfA.detail.eps == pfB.detail.eps


def test_run_sweep_with_refit_extension(circle_files):
    trn, tst = circle_files
    cfg = ExperimentConfig(
        train_path=trn, test_path=tst, remap={1: 1, 2: 2},
        pipelines=("ccdr",), classifiers=("knn",), betas=(0.5,), ms=(2,),
        graph_ks=(4,), clf_ks=(1,), oos="refit", measure_wall=False,
    )
    rows = run_sweep(cfg).rows
    assert len(rows) == 1
    assert rows[0].note == "" and 0.0 <= rows[0].error <= 1.0


def test_run_sweep_validation(circle_files):
    trn, tst = circle_files
    base = dict(train_path=trn, test_path=tst, remap={1: 1, 2: 2})
    with pytest.raises(ValueError, match="unknown pipeline 'mds'"):
        run_sweep(ExperimentConfig(pipelines=("mds",), **base))
    with pytest.raises(ValueError, match="unknown classifier 'svm'"):
        run_sweep(ExperimentConfig(classifiers=("svm",), **base))
    with pytest.raises(ValueError, match="oos must be one of nearest, full, refit"):
        run_sweep(ExperimentConfig(oos="knn", **base))
    with pytest.raises(ValueError, match="all grids must be non-empty"):
        run_sweep(ExperimentConfig(betas=(), **base))


def test_run_sweep_rejects_bad_test_sets(circle_files, tmp_path):
    trn, _ = circle_files
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    t0 = tmp_path / "unlabeled.tst"
    save_statlog(LabeledDataset(pts, np.array([0, 2, 1, 1]), 2), t0)
    with pytest.raises(ValueError, match="test set must be fully labeled"):
        run_sweep(ExperimentConfig(train_path=trn, test_path=str(t0),
                                   remap={1: 1, 2: 2}, pipelines=("raw",)))
    t3 = tmp_path / "unseen.tst"
    save_statlog(LabeledDataset(pts, np.array([1, 2, 3, 3]), 3), t3)
    with pytest.raises(ValueError, match="test set has labels unseen in training"):
        run_sweep(ExperimentConfig(train_path=trn, test_path=str(t3),
                                   remap={1: 1, 2: 2, 3: 3}, pipelines=("raw",)))


def test_wall_clock_measurement(circle_files):
    trn, tst = circle_files
    base = dict(
        train_path=trn, test_path=tst, remap={1: 1, 2: 2},
        pipelines=("ccdr",), classifiers=("knn",), betas=(0.5,), ms=(2,),
        graph_ks=(4,), clf_ks=(1,),
    )
    timed = run_sweep(ExperimentConfig(measure_wall=True, **base)).rows[0]
    frozen = run_sweep(ExperimentConfig(measure_wall=False, **base)).rows[0]
    assert timed.wall_ms > 0.0
    assert frozen.wall_ms == 0.0
    assert timed.error == frozen.error


def test_emit_report_empty_and_full_precision(tmp_path):
    empty = SweepReport(config=None, rows=())
    p = tmp_path / "empty.csv"
    emit_report(empty, p)
    assert p.read_text() == CSV_HEADER + "\n"
    row = SweepRow("ccdr", "knn", 0.5, 14, 4, 3, 0.08100000000000001, 0.07, 0.09, 12.5)
    one = SweepReport(config=None, rows=(row,))
    p2 = tmp_path / "one.csv"
    emit_report(one, p2)
    lines = p2.read_text().splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "ccdr" and fields[1] == "knn"
    assert fields[3] == "14" and fields[4] == "4" and fields[5] == "3"
    # float fields survive a text round trip exactly
    assert float(fields[6]) == 0.08100000000000001
    assert float(fields[2]) == 0.5
