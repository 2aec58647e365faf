"""Tests of the benchmark itself, at small n: generators, checks and tracer."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.csgraph import connected_components

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import ccdr  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import D, NUM_CLASSES, TRAIN_COUNTS, WORKLOADS, gen_clustered, gen_iso, scaled_counts  # noqa: E402

N = 300


@pytest.mark.parametrize("gen", [gen_iso, gen_clustered])
def test_generator_shapes_and_determinism(gen):
    a = gen(3, N, 120)
    b = gen(3, N, 120)
    c = gen(4, N, 120)
    assert a.train_X.shape == (N, D) and a.test_X.shape == (120, D)
    assert a.train_labels.shape == (N,) and a.test_y.shape == (120,)
    assert set(np.unique(a.train_truth)) == set(range(1, NUM_CLASSES + 1))
    assert np.array_equal(np.bincount(a.train_truth)[1:], scaled_counts(TRAIN_COUNTS, N))
    for f in ("train_X", "train_labels", "test_X", "test_y"):
        assert np.array_equal(getattr(a, f), getattr(b, f))
    assert not np.array_equal(a.train_X, c.train_X)


def test_scaled_counts_sum_and_satimage_sizes():
    assert scaled_counts(TRAIN_COUNTS, 4435).tolist() == list(TRAIN_COUNTS)
    assert scaled_counts((461, 224, 397, 211, 237, 470), 1000).sum() == 1000


def test_clustered_hides_labels_but_keeps_every_class():
    s = gen_clustered(0, N, 120)
    hidden = np.mean(s.train_labels == 0)
    assert 0.15 < hidden < 0.45
    assert set(np.unique(s.train_labels[s.train_labels > 0])) == set(range(1, NUM_CLASSES + 1))
    assert np.array_equal(s.train_labels[s.train_labels > 0], s.train_truth[s.train_labels > 0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_clustered_augmented_graph_is_connected(seed):
    s = gen_clustered(seed, N, 120)
    prob = checks.FitProblem(s.train_X, s.train_labels, NUM_CLASSES, 4, 0.5)
    lap, _ = prob.augmented(prob.median_eps())
    assert connected_components(lap, directed=False)[0] == 1


def test_neighbours_break_ties_by_index():
    rng = np.random.default_rng(0)
    X = rng.integers(0, 3, size=(40, 2)).astype(float)  # many exact ties
    Q = rng.integers(0, 3, size=(15, 2)).astype(float)
    idx, d2 = checks.neighbours(Q, X, 5)
    full = ((Q[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    want = np.sort(np.argsort(full, axis=1, kind="stable")[:, :5], axis=1)
    assert np.array_equal(idx, want)
    assert np.array_equal(d2, np.take_along_axis(full, idx, axis=1))
    own = checks.FitProblem(X, np.ones(40, dtype=np.int64), 1, 4, 1.0)
    assert {tuple(e) for e in own.edges.tolist()} == ccdr.knn_graph(X, 4).edge_set()


@pytest.fixture(scope="module")
def fitted():
    s = gen_clustered(1, N, 120)
    model = ccdr.fit(ccdr.LabeledDataset(s.train_X, s.train_labels, NUM_CLASSES), k=4, beta=0.5, m=5)
    prob = checks.FitProblem(s.train_X, s.train_labels, NUM_CLASSES, 4, 0.5)
    ref = checks.reference_eigenvalues(prob, model.m + 2)
    return s, model, prob, ref


def _fit_fails(prob, model, ref, centers=None, embedding=None, eigenvalues=None):
    c = model.centers if centers is None else centers
    y = model.embedding if embedding is None else embedding
    lam = model.eigenvalues if eigenvalues is None else eigenvalues
    return checks.check_fit(prob, model.eps, c, y, lam, ref) + checks.check_training_rows(
        prob, model.eps, model.beta, c, y, lam
    )


def test_fit_check_accepts_the_fit_and_column_sign_flips(fitted):
    _, model, prob, ref = fitted
    assert _fit_fails(prob, model, ref) == []
    flip = np.array([1.0, -1.0, 1.0, -1.0, -1.0])
    assert _fit_fails(prob, model, ref, model.centers * flip, model.embedding * flip) == []


def test_fit_check_rejects_permuted_rows(fitted):
    _, model, prob, ref = fitted
    perm = np.random.default_rng(0).permutation(model.embedding.shape[0])
    assert _fit_fails(prob, model, ref, embedding=model.embedding[perm])


def test_fit_check_rejects_perturbed_eigenvalue(fitted):
    _, model, prob, ref = fitted
    lam = model.eigenvalues.copy()
    lam[2] *= 1.0 + 1e-6
    assert _fit_fails(prob, model, ref, eigenvalues=lam)


def test_fit_check_rejects_a_band_that_is_not_the_smallest(fitted):
    _, model, prob, ref = fitted
    shifted = np.concatenate([ref[:1], ref[2:]])  # as if lambda_2 were missed
    assert any("smallest" in f for f in checks.check_fit(
        prob, model.eps, model.centers, model.embedding, model.eigenvalues, shifted
    ))


def test_fit_check_rejects_disconnected_augmented_graph():
    s = gen_clustered(0, N, 120)
    X = s.train_X + 1e3 * (s.train_truth[:, None] == 1)  # class 1 moves far away
    labels = s.train_truth
    model = ccdr.fit(ccdr.LabeledDataset(X, labels, NUM_CLASSES), k=4, beta=0.5, m=5)
    prob = checks.FitProblem(X, labels, NUM_CLASSES, 4, 0.5)
    ref = checks.reference_eigenvalues(prob, 7)
    fails = checks.check_fit(prob, model.eps, model.centers, model.embedding, model.eigenvalues, ref)
    assert any("not connected" in f for f in fails)
    assert any("outside (0, 1)" in f for f in fails)


def test_extension_matches_embed_many_and_rejects_permuted_rows(fitted):
    s, model, _, _ = fitted
    idx, d2 = checks.neighbours(s.test_X, s.train_X, model.k)
    own = checks.extension(idx, d2, model.eps, model.embedding, model.eigenvalues, model.beta)
    got = ccdr.embed_many(model, s.test_X)
    assert not checks.extension_mismatch(got, own).any()
    perm = np.roll(np.arange(got.shape[0]), 1)
    assert checks.extension_mismatch(got[perm], own).all()
    flipped = replace(model, centers=-model.centers, embedding=-model.embedding)
    own_f = checks.extension(idx, d2, model.eps, flipped.embedding, model.eigenvalues, model.beta)
    assert not checks.extension_mismatch(ccdr.embed_many(flipped, s.test_X), own_f).any()


def test_own_knn_and_least_squares_agree_with_package(fitted):
    s, model, _, _ = fitted
    lab = s.train_labels > 0
    knn = ccdr.KnnClassifier(s.train_X[lab], s.train_labels[lab], 5, NUM_CLASSES)
    assert np.array_equal(
        knn.predict(s.test_X), checks.knn_predict(s.train_X[lab], s.train_labels[lab], s.test_X, 5, NUM_CLASSES)
    )
    lin = ccdr.linear_fit(s.train_X[lab], s.train_labels[lab], NUM_CLASSES)
    assert np.array_equal(
        lin.predict(s.test_X), checks.lsq_predict(s.train_X[lab], s.train_labels[lab], s.test_X, NUM_CLASSES)
    )


def test_accuracy_check_bounds():
    truth = np.array([1, 1, 1, 1, 2, 2, 3, 3, 1, 1])
    assert checks.check_accuracy(truth, truth, 0.1) == []
    worse = truth.copy()
    worse[:3] = 2
    assert checks.check_accuracy(worse, truth, 0.1)


@pytest.fixture(scope="module")
def round_and_checker(tmp_path_factory):
    wl = replace(WORKLOADS["satimage-iso"], m=5, n_train=N, n_test=120, fits=2, passes=2, sweeps=2, singles_per_batch=2, batch=50)
    bench = run.Bench(ccdr, wl, 2, N, tmp_path_factory.mktemp("bench"))
    case = bench.setup()
    r = bench.run_round(case, 0, wl.fits, wl.passes, wl.sweeps, wl.singles_per_batch)
    prob = checks.FitProblem(case.split.train_X, case.split.train_labels, NUM_CLASSES, wl.k, wl.beta)
    checker = run.Checker(wl, case, checks.reference_eigenvalues(prob, wl.m + 2))
    yield wl, r, checker
    bench.cleanup()


def test_round_passes_every_check(round_and_checker):
    wl, r, checker = round_and_checker
    assert r.error == ""
    assert checker.failures(r) == []
    assert checker.ops_per_round() == 2 + 2 * 3 * (1 + 2) + 2 * 9


def test_round_check_rejects_one_changed_batch_label(round_and_checker):
    wl, r, checker = round_and_checker
    embs, preds = r.passes[1]
    preds = [p.copy() for p in preds]
    preds[1][7] = preds[1][7] % NUM_CLASSES + 1
    bad = replace(r, passes=[r.passes[0], (embs, preds)])
    assert checker.failures(bad) == [
        "batch at 50: extension or prediction differs"
    ]


def test_round_check_rejects_one_changed_single_label(round_and_checker):
    wl, r, checker = round_and_checker
    i, e, p = r.singles[3]
    bad = replace(r, singles=r.singles[:3] + [(i, e, p % NUM_CLASSES + 1)] + r.singles[4:])
    assert checker.failures(bad) == [
        "single point %d: extension or prediction differs" % i
    ]


def test_round_check_rejects_permuted_fit_rows(round_and_checker):
    wl, r, checker = round_and_checker
    first = r.models[0]
    bad = replace(first, embedding=first.embedding[::-1].copy())
    fails = checker.failures(replace(r, models=[bad] + r.models[1:]))
    assert len(fails) == 1 and fails[0].startswith("fit:")


def test_round_check_rejects_bad_sweep_rows(round_and_checker):
    wl, r, checker = round_and_checker
    rows = list(r.sweep_rows[1])
    raw = next(i for i, row in enumerate(rows) if row.pipeline == "raw")
    rows[raw] = replace(rows[raw], error=rows[raw].error + 1.0 / 120, ci_high=1.0)
    pca = next(i for i, row in enumerate(rows) if row.pipeline == "pca")
    rows[pca] = replace(rows[pca], error=float("nan"), note="m too large")
    fails = checker.failures(replace(r, sweep_rows=[r.sweep_rows[0], tuple(rows[:-1])]))
    assert len(fails) == 3 and all(f.startswith("sweep row") for f in fails)


def test_tracer_spans_self_time_and_restore():
    original = ccdr.embedding.knn_graph
    t = tracer.Tracer()
    t.install()
    try:
        assert ccdr.embedding.knn_graph is not original
        assert ccdr.graph.knn_graph is ccdr.embedding.knn_graph
        s = gen_iso(0, 60, 60)
        t.recording = True
        with t.mark("round"):
            ccdr.fit(ccdr.LabeledDataset(s.train_X, s.train_labels, NUM_CLASSES), k=4, m=2)
        t.recording = False
    finally:
        t.uninstall()
    assert ccdr.embedding.knn_graph is original
    totals = t.totals()
    assert totals["graph.knn_graph"]["calls"] == 1
    assert totals["spectral.generalized_eig"]["bytes"] == 66 * 66 * 8
    fit_span = next(sp for sp in t.spans if sp[0] == "embedding.fit")
    assert 0.0 <= totals["embedding.fit"]["self_s"] < fit_span[2] - fit_span[1]


def test_matrix_bytes_falls_when_the_solver_gets_a_sparse_matrix():
    eye = np.eye(50)
    assert tracer.matrix_bytes(eye) == 50 * 50 * 8
    # 50 float64 values, 50 int32 column indices, 51 int32 row pointers
    assert tracer.matrix_bytes(scipy.sparse.csr_matrix(eye)) == 50 * 8 + 50 * 4 + 51 * 4


def test_tracer_reports_absent_targets(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + ("graph.no_such_function",))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["graph.no_such_function"]
