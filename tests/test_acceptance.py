"""Acceptance suite: one test per criterion, run with pytest -v.

Criteria 1-4 evaluate the Landsat satellite benchmark and need the Statlog
satimage files (sat.trn, sat.tst) in $CCDR_DATA_DIR or ./data; they skip
with that message when the files are absent. Criteria 5-9 are
self-contained. Each test prints its measured numbers, and `pytest -v`
emits the pass/fail line per criterion.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from ccdr.baselines import laplacian_eigenmap
from ccdr.classify import linear_fit, sorted_neighbor_labels, vote
from ccdr.dataset import LabeledDataset, _indicator, gen_circles, load_statlog
from ccdr.embedding import (
    build_augmented,
    constraint_residuals,
    cost,
    embed_many,
    embed_oos,
    fit,
    shrink,
)
from ccdr.graph import heat_weights, knn_graph, median_eps
from ccdr.spectral import generalized_eig

from conftest import requires_statlog

KC_GRID = range(1, 16)


def knn_best_error(train_Y, train_labels, test_Y, test_labels, num_classes, ks=KC_GRID):
    """Lowest test error over the classifier-k grid (the tuned k_c)."""
    nbr = sorted_neighbor_labels(train_Y, train_labels, test_Y, max(ks))
    errs = [np.mean(vote(nbr, k, num_classes) != test_labels) for k in ks]
    return min(errs)


class LandsatLab:
    """Shared split plus memoized CCDR fits for the benchmark criteria."""

    def __init__(self, trn_path, tst_path):
        self.train = load_statlog(trn_path)
        self.test = load_statlog(tst_path)
        self._models = {}
        self._test_emb = {}

    def model(self, eps_scale, beta, m):
        key = (eps_scale, beta, m)
        if key not in self._models:
            self._models[key] = fit(
                self.train, k=4, eps=None, beta=beta, m=m, eps_scale=eps_scale
            )
        return self._models[key]

    def test_embedding(self, eps_scale, beta, m):
        key = (eps_scale, beta, m)
        if key not in self._test_emb:
            self._test_emb[key] = embed_many(
                self.model(eps_scale, beta, m), self.test.points, 0
            )
        return self._test_emb[key]

    def errors(self, eps_scale, beta, m):
        """(best-k_c kNN error, linear error) on the test split."""
        model = self.model(eps_scale, beta, m)
        test_Y = self.test_embedding(eps_scale, beta, m)
        knn = knn_best_error(
            model.embedding, self.train.labels, test_Y, self.test.labels,
            self.train.num_classes,
        )
        lin = linear_fit(model.embedding, self.train.labels, self.train.num_classes)
        return knn, np.mean(lin.predict(test_Y) != self.test.labels)


@pytest.fixture(scope="module")
def lab(statlog_paths):
    trn, tst = statlog_paths
    out = LandsatLab(trn, tst)
    assert out.train.d == 36 and out.train.num_classes == 6
    return out


@requires_statlog
def test_criterion_1_raw_feature_column(lab):
    t0 = time.perf_counter()
    knn_err = knn_best_error(
        lab.train.points, lab.train.labels, lab.test.points, lab.test.labels,
        lab.train.num_classes,
    )
    lin = linear_fit(lab.train.points, lab.train.labels, lab.train.num_classes)
    lin_err = np.mean(lin.predict(lab.test.points) != lab.test.labels)
    elapsed = time.perf_counter() - t0
    print("criterion 1: knn=%.4f (target 0.0965 +- 0.010) linear=%.4f "
          "(target 0.227 +- 0.020) elapsed=%.1fs" % (knn_err, lin_err, elapsed))
    assert abs(knn_err - 0.0965) <= 0.010
    assert abs(lin_err - 0.227) <= 0.020
    assert elapsed < 120.0


@requires_statlog
def test_criterion_2_ccdr_column(lab):
    t0 = time.perf_counter()
    results = {s: lab.errors(s, 0.5, 14) for s in (0.25, 1.0, 4.0)}
    best_knn = min(v[0] for v in results.values())
    best_lin = min(v[1] for v in results.values())
    elapsed = time.perf_counter() - t0
    print("criterion 2: per-eps %s best_knn=%.4f (<= 0.095) best_linear=%.4f "
          "(<= 0.105) elapsed=%.1fs" % (results, best_knn, best_lin, elapsed))
    assert best_knn <= 0.095
    assert best_lin <= 0.105
    assert elapsed < 900.0


@requires_statlog
def test_criterion_3_beta_sweep_shape(lab):
    betas = (0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    knn = {}
    lin = {}
    for b in betas:
        knn[b], lin[b] = lab.errors(1.0, b, 14)
    print("criterion 3: knn=%s linear=%s" % (knn, lin))
    for b in (0.01, 0.05, 0.1):
        assert 0.085 <= lin[b] <= 0.11
    tail = (0.5, 1.0, 2.0, 5.0, 10.0)
    rho = spearmanr(tail, [lin[b] for b in tail]).statistic
    print("criterion 3: spearman(beta >= 0.5) = %.3f" % rho)
    assert rho > 0.0
    assert knn[0.5] < knn[0.01]


@requires_statlog
def test_criterion_4_dimension_sweep_shape(lab):
    model16 = lab.model(1.0, 0.5, 16)
    test16 = lab.test_embedding(1.0, 0.5, 16)
    errs = {}
    for m in [3] + list(range(6, 17)):
        small = shrink(model16, m)
        errs[m] = knn_best_error(
            small.embedding, lab.train.labels, test16[:, :m], lab.test.labels,
            lab.train.num_classes,
        )
    band = [errs[m] for m in range(6, 17)]
    print("criterion 4: errors=%s band spread=%.4f" % (errs, max(band) - min(band)))
    assert errs[3] < 0.10
    assert max(band) - min(band) < 0.015


def test_criterion_5_out_of_sample_coincidence():
    t0 = time.perf_counter()
    ds = gen_circles(100, [1.0, 2.0], 0.01, seed=7)
    model = fit(ds, k=4, eps=None, beta=0.05, m=2)
    W = heat_weights(knn_graph(ds.points, 4), ds.points, model.eps).matrix.toarray()
    worst = 0.0
    for i in range(ds.n):
        yi = embed_oos(model, ds.points[i], int(ds.labels[i]), weights=W[i])
        worst = max(worst, float(np.abs(yi - model.embedding[i]).max()))
    elapsed = time.perf_counter() - t0
    print("criterion 5: worst coincidence=%.3g (<= 1e-8) elapsed=%.3fs" % (worst, elapsed))
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_6_constraint_residual_suite():
    rng = np.random.default_rng(60)
    worst = 0.0
    for t in range(50):
        n = int(rng.integers(20, 61))
        L = int(rng.integers(2, 5))
        d = int(rng.integers(2, 5))
        X = rng.standard_normal((n, d))
        labels = np.zeros(n, dtype=int)
        labels[:L] = np.arange(1, L + 1)
        labels[L:] = rng.integers(0, L + 1, n - L)
        rng.shuffle(labels)
        ds = LabeledDataset(X, labels, L)
        model = fit(ds, k=4, eps=None, beta=float(rng.uniform(0.5, 2.0)),
                    m=int(rng.integers(1, 3)))
        worst = max(worst, max(constraint_residuals(model).values()))
    print("criterion 6: worst residual over 50 fits=%.3g (<= 1e-8)" % worst)
    assert worst <= 1e-8


def test_criterion_7_oracle_equivalence():
    def dense_oracle(lap, deg, count):
        s = 1.0 / np.sqrt(deg)
        S = s[:, None] * lap * s[None, :]
        S = (S + S.T) / 2.0
        vals, vecs = np.linalg.eigh(S)
        U = s[:, None] * vecs[:, :count]
        for l in range(count):
            i = np.argmax(np.abs(U[:, l]))
            if U[i, l] < 0:
                U[:, l] *= -1.0
        return vals[:count], U

    rng = np.random.default_rng(70)
    worst_vec = 0.0
    worst_cost = 0.0
    for t in range(100):
        n = int(rng.integers(6, 25))
        L = int(rng.integers(1, 4))
        if L + n > 30:
            n = 30 - L
        X = rng.standard_normal((n, 2))
        labels = np.zeros(n, dtype=int)
        labels[:L] = np.arange(1, L + 1)
        labels[L:] = rng.integers(1, L + 1, n - L)
        rng.shuffle(labels)
        ds = LabeledDataset(X, labels, L)
        k = min(4, n - 1)
        g = knn_graph(X, k)
        W = heat_weights(g, X, median_eps(g, X))
        C = _indicator(ds.labels, ds.num_classes)
        beta = float(rng.uniform(0.2, 2.0))
        aug = build_augmented(C, W, beta)
        count = int(rng.integers(2, min(6, L + n)))
        got = generalized_eig(aug.lap, aug.deg, count)
        ov, oU = dense_oracle(aug.lap, aug.deg, count)
        worst_vec = max(
            worst_vec,
            float(np.abs(got.vectors - oU).max()),
            float(np.abs(got.values - ov).max()),
        )
        Zhat = got.vectors[:, 1:].T
        cval = cost(Zhat[:, :L].T, Zhat[:, L:].T, C, W, beta)
        tval = float(np.trace(Zhat @ aug.lap @ Zhat.T))
        worst_cost = max(worst_cost, abs(cval - tval))
    print("criterion 7: worst eigenpair diff=%.3g (<= 1e-8) "
          "worst cost-trace diff=%.3g (<= 1e-10)" % (worst_vec, worst_cost))
    assert worst_vec <= 1e-8
    assert worst_cost <= 1e-10


def test_criterion_8_nonlinear_separation():
    ds = gen_circles(100, [1.0, 2.0], 0.01, seed=7)
    model = fit(ds, k=4, eps=None, beta=0.05, m=2)
    ccdr_clf = linear_fit(model.embedding, ds.labels, ds.num_classes)
    ccdr_err = np.mean(ccdr_clf.predict(model.embedding) != ds.labels)
    raw_clf = linear_fit(ds.points, ds.labels, ds.num_classes)
    raw_err = np.mean(raw_clf.predict(ds.points) != ds.labels)
    print("criterion 8: ccdr+linear train error=%.3f (= 0) "
          "raw+linear train error=%.3f (>= 0.40)" % (ccdr_err, raw_err))
    assert ccdr_err == 0.0
    assert raw_err >= 0.40


def test_criterion_9_beta_extreme_equivalence():
    rng = np.random.default_rng(90)
    worst = 0.0
    for t in range(10):
        X = rng.standard_normal((25, 3))
        labels = rng.integers(1, 3, 25)
        labels[0], labels[1] = 1, 2
        ds = LabeledDataset(X, labels, 2)
        model = fit(ds, k=5, eps=None, beta=1e6, m=2)
        W = heat_weights(knn_graph(X, 5), X, model.eps)
        le = laplacian_eigenmap(W, 2)
        dw = W.degrees()
        rel = 0.0
        for c in range(2):
            yc = model.embedding[:, c]
            yc = yc / math.sqrt(yc * dw @ yc)
            lc = le[:, c]
            lc = lc / math.sqrt(lc * dw @ lc)
            if np.dot(yc, lc) < 0:
                yc = -yc
            rel = max(rel, float(np.linalg.norm(yc - lc) / np.linalg.norm(lc)))
        worst = max(worst, rel)
    print("criterion 9: worst aligned relative diff=%.3g (<= 1e-4)" % worst)
    assert worst <= 1e-4
