"""Constrained embedding: augmented graph, fit, extension, persistence."""

import dataclasses
import inspect
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial.distance import cdist

from ccdr import embedding, graph
from ccdr.dataset import LabeledDataset, _indicator, gen_circles
from ccdr.embedding import (
    DENSE_MAX_ORDER,
    CcdrModel,
    MODEL_FORMAT_VERSION,
    _extend,
    build_augmented,
    constraint_residuals,
    embed_many,
    fit,
    load_model,
    save_model,
)
from ccdr.graph import heat_weights, kernel_rows, knn_graph, median_eps
from conftest import cost, refit_row, shrink


def small_w():
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 0.5
    W[1, 2] = W[2, 1] = 0.25
    return W


def test_build_augmented_by_hand():
    C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    W = small_w()
    beta = 2.0
    aug = build_augmented(C, W, beta)
    # degrees: centers get class sizes, points get labels + beta * W row sums
    assert np.array_equal(aug.deg, [1.0, 2.0, 2.0, 2.5, 1.5])
    G = np.zeros((5, 5))
    G[:2, 2:] = C
    G[2:, :2] = C.T
    G[2:, 2:] = beta * W
    assert np.array_equal(aug.lap, np.diag(aug.deg) - G)
    assert np.abs(aug.lap.sum(axis=1)).max() <= 1e-12
    assert aug.num_classes == 2


def test_build_augmented_beta_zero_degrees():
    C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    aug = build_augmented(C, small_w(), 0.0)
    assert np.array_equal(aug.deg, [1.0, 2.0, 1.0, 1.0, 1.0])


def test_build_augmented_zero_degree_errors():
    W = small_w()
    C_empty = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="class 1 is empty"):
        build_augmented(C_empty, W, 1.0)
    # unlabeled point 2 loses its only weight at beta = 0
    C_gap = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="point 2 is unlabeled and has no weighted edge"):
        build_augmented(C_gap, W, 0.0)


def test_build_augmented_validation():
    with pytest.raises(ValueError, match="C must be an L x n matrix"):
        build_augmented(np.ones(3), small_w(), 1.0)
    with pytest.raises(ValueError, match="W must be n x n"):
        build_augmented(np.ones((2, 3)), np.eye(4), 1.0)
    with pytest.raises(ValueError, match="beta must be finite and nonnegative"):
        build_augmented(np.ones((2, 3)), small_w(), -1.0)


def test_fit_satisfies_all_constraints(blob30):
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    assert model.centers.shape == (3, 2)
    assert model.embedding.shape == (30, 2)
    assert model.n == 30 and model.d == 3 and model.m == 2
    lam = model.eigenvalues
    assert lam.shape == (2,) and np.all(np.diff(lam) >= 0)
    assert lam[0] > 0.0 and lam[-1] < 1.0
    res = constraint_residuals(model)
    assert max(res.values()) < 1e-8
    assert set(res) == {"gram", "mean", "center", "row"}


def test_fit_deterministic(blob30):
    a = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    b = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    assert np.array_equal(a.embedding, b.embedding)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_fit_eigenvalue_reaches_one():
    ds = LabeledDataset(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1, 2]), 2)
    with pytest.raises(ValueError, match="decrease m or increase beta"):
        fit(ds, k=1, eps=1.0, beta=1e-8, m=2)


def test_fit_validation(blob30):
    ds = LabeledDataset(np.array([[0.0], [1.0], [2.0]]), np.array([1, 1, 0]), 2)
    with pytest.raises(ValueError, match="class 2 has no labeled points"):
        fit(ds, k=1, eps=1.0, beta=1.0, m=1)
    ds2 = LabeledDataset(np.array([[0.0], [1.0], [2.0]]), np.array([1, 2, 0]), 2)
    with pytest.raises(ValueError, match=r"m \+ 1 must not exceed L \+ n = 5"):
        fit(ds2, k=1, eps=1.0, beta=1.0, m=5)
    with pytest.raises(ValueError, match="beta must be finite and nonnegative"):
        fit(blob30, beta=-0.5)
    with pytest.raises(ValueError, match="m must be at least 1"):
        fit(blob30, m=0)
    with pytest.raises(ValueError, match="eps must be positive"):
        fit(blob30, eps=-1.0)
    with pytest.raises(TypeError, match="ds must be a LabeledDataset"):
        fit(np.ones((4, 2)))


def test_cost_zero_and_single_pair():
    # one class center at 0, one point at distance 2, no point-point edges
    Z = np.array([[0.0, 0.0]])
    Y = np.array([[2.0, 0.0]])
    C = np.array([[1.0]])
    W = np.zeros((1, 1))
    assert cost(Z, Y, C, W, 1.0) == 4.0
    assert cost(Z, Z, C, W, 1.0) == 0.0
    # two points joined by one edge of weight w: (beta/2) * 2 w ||dy||^2
    Y2 = np.array([[0.0], [3.0]])
    W2 = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert cost(np.zeros((1, 1)), Y2, np.zeros((1, 2)), W2, 2.0) == 9.0


def test_cost_equals_laplacian_trace(blob30):
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    g = knn_graph(blob30.points, 5)
    W = heat_weights(g, blob30.points, model.eps)
    C = _indicator(blob30.labels, blob30.num_classes)
    aug = build_augmented(C, W, 0.8)
    # at the fit: cost = tr(Zhat Lap Zhat^T) = sum of retained eigenvalues
    got = cost(model.centers, model.embedding, C, W, 0.8)
    assert got == pytest.approx(model.eigenvalues.sum(), abs=1e-10)
    # identity holds off the fit as well, for any arrangement
    rng = np.random.default_rng(50)
    Zr = rng.standard_normal((3, 2))
    Yr = rng.standard_normal((30, 2))
    Zhat = np.concatenate([Zr.T, Yr.T], axis=1)
    direct = float(np.trace(Zhat @ aug.lap @ Zhat.T))
    assert cost(Zr, Yr, C, W, 0.8) == pytest.approx(direct, abs=1e-10)


def test_fit_minimizes_over_feasible_competitors(blob30):
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    g = knn_graph(blob30.points, 5)
    W = heat_weights(g, blob30.points, model.eps)
    C = _indicator(blob30.labels, blob30.num_classes)
    aug = build_augmented(C, W, 0.8)
    deg = aug.deg
    cost_fit = cost(model.centers, model.embedding, C, W, 0.8)
    rng = np.random.default_rng(51)
    for t in range(100):
        R = rng.standard_normal((2, deg.size))
        # feasible rows: project out the deg-weighted mean, then
        # orthonormalize in the deg inner product
        for r in range(2):
            R[r] -= (R[r] @ deg) / deg.sum()
            for s in range(r):
                R[r] -= (R[r] * deg @ R[s]) * R[s]
            R[r] /= math.sqrt(R[r] * deg @ R[r])
        cand = cost(R[:, :3].T, R[:, 3:].T, C, W, 0.8)
        assert cost_fit <= cand + 1e-10


def test_oos_reproduces_training_row(blob30):
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    g = knn_graph(blob30.points, 5)
    W = heat_weights(g, blob30.points, model.eps).matrix.toarray()
    for i in (0, 11, 29):
        cols = np.flatnonzero(W[i])
        got = _extend(model, (cols[None], W[i, cols][None]), np.array([blob30.labels[i]]))[0]
        assert np.abs(got - model.embedding[i]).max() < 1e-8


def test_oos_four_point_hand_formula():
    pts = np.array([[0.0], [1.0], [3.0], [4.0]])
    ds = LabeledDataset(pts, np.array([1, 1, 2, 2]), 2)
    model = fit(ds, k=2, eps=2.0, beta=0.7, m=1)
    x = np.array([2.0])
    d2 = ((pts - x) ** 2).sum(axis=1)
    order = np.argsort(d2, kind="stable")[:2]
    K = np.zeros(4)
    K[order] = np.exp(-d2[order] / 2.0)
    num = 0.7 * (K[:, None] * model.embedding).sum(axis=0)
    den = (1.0 - model.eigenvalues) * (0.7 * K.sum())
    assert np.abs(embed_many(model, x[None], 0)[0] - num / den).max() < 1e-12
    # with a label the center joins the average and the mass gains one
    num1 = model.centers[0] + 0.7 * (K[:, None] * model.embedding).sum(axis=0)
    den1 = (1.0 - model.eigenvalues) * (1.0 + 0.7 * K.sum())
    assert np.abs(embed_many(model, x[None], 1)[0] - num1 / den1).max() < 1e-12


def test_oos_beta_zero_collapses_to_center():
    ds = LabeledDataset(
        np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([1, 1, 2, 2]), 2
    )
    model = fit(ds, k=1, eps=1.0, beta=0.0, m=1)
    got = embed_many(model, np.array([[9.0]]), 1)[0]
    assert np.array_equal(got, model.centers[0] / (1.0 - model.eigenvalues))


def test_oos_support_errors():
    circ = gen_circles(50, [1.0, 2.0], 0.01, seed=7)
    model = fit(circ, k=4, eps=None, beta=0.05, m=2)
    far = np.array([[1e6, 1e6]])
    with pytest.raises(ValueError, match="query 0 outside model support: zero kernel mass"):
        embed_many(model, far, 0)  # kernel underflows to 0
    # the same far query with a label keeps a positive denominator
    assert np.all(np.isfinite(embed_many(model, far, 1)))


def test_oos_weights_take_the_nearest_kernel_row(blob30):
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    x = np.array([0.3, -0.2, 0.5])
    nbrs, w = kernel_rows(x[None], model.train_points, model.k, model.eps)
    order = np.argsort(nbrs[0])
    for c in (0, 2):
        # the same terms, summed in index order instead of nearest first
        got = _extend(model, (nbrs[:, order], w[:, order]), np.array([c]))[0]
        assert np.abs(got - embed_many(model, x[None], c)[0]).max() < 1e-12
    # no kernel mass: a labelled query lands on its class center
    got = embed_many(model, np.full((1, 3), 1e6), 2)[0]
    assert np.array_equal(got, model.centers[1] / (1.0 - model.eigenvalues))


def test_embed_many_matches_single(blob30):
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    rng = np.random.default_rng(52)
    X = rng.standard_normal((6, 3)) * 0.5
    cs = np.array([0, 1, 2, 3, 0, 1])
    for c in (cs, 0):
        batch = embed_many(model, X, c)
        for i in range(6):
            ci = int(np.broadcast_to(c, 6)[i])
            single = embed_many(model, X[i : i + 1], ci)[0]
            assert np.array_equal(batch[i], single)


@st.composite
def small_fit_and_batch(draw):
    """A small labeled fit, a batch of nearby queries with labels, and a
    permutation of the batch."""
    seed = draw(st.integers(0, 2**32 - 1))
    n, d, L = draw(st.integers(12, 40)), draw(st.integers(2, 4)), draw(st.integers(1, 3))
    q = draw(st.integers(1, 40))
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, L + 1, n)
    labels[:L] = np.arange(1, L + 1)
    ds = LabeledDataset(rng.standard_normal((n, d)), labels, L)
    X = rng.standard_normal((q, d))
    cs = rng.integers(0, L + 1, q)
    k = draw(st.integers(3, 6))
    return ds, k, draw(st.sampled_from([0.1, 0.8, 5.0])), X, cs, rng.permutation(q)


@settings(max_examples=100, deadline=None)
@given(small_fit_and_batch())
def test_embed_many_rows_do_not_depend_on_the_batch(problem):
    ds, k, beta, X, cs, perm = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # disconnected graphs are fine here
        try:
            model = fit(ds, k=k, eps=None, beta=beta, m=1)
        except ValueError:  # an eigenvalue reaching 1, a failed residual gate
            assume(False)
    for c in (cs, 0):
        try:
            batch = embed_many(model, X, c)
        except ValueError:  # an unlabeled query whose kernel underflows
            assume(False)
        c_perm = c[perm] if np.ndim(c) else c
        assert np.array_equal(embed_many(model, X[perm], c_perm), batch[perm])


def test_failed_residual_gate_is_a_fit_error(nearly_cut_off):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the graph is disconnected
        with pytest.raises(ValueError, match=(
            r"fitted model violates its row identity \(residual [^)]+\), worst at "
            r"point 3 with heat-kernel degree 2\.79e-52; try a larger eps or k"
        )):
            fit(nearly_cut_off, k=1, beta=0.1, m=1)


def test_embed_many_validation(blob30):
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    with pytest.raises(ValueError, match="X must be q x 3"):
        embed_many(model, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="c must be a scalar or a length-q vector"):
        embed_many(model, np.zeros((2, 3)), np.array([1, 2, 3]))
    with pytest.raises(ValueError, match=r"labels must lie in \{0, .., 3\}"):
        embed_many(model, np.zeros((2, 3)), np.array([0, 9]))
    with pytest.raises(ValueError, match=r"labels must lie in \{0, .., 3\}"):
        embed_many(model, np.zeros((2, 3)), np.array([1.7, 0.2]))
    with pytest.raises(ValueError, match="query 0 outside model support"):
        embed_many(model, np.full((1, 3), 1e6), 0)


def test_oos_is_locally_lipschitz(circles200):
    # the embedding map must not blow up between nearby queries; the
    # measured worst slope on this model is below 12, the bound is lax
    model = fit(circles200, k=4, eps=None, beta=0.05, m=2)
    rng = np.random.default_rng(12)
    checked = 0
    for t in range(20):
        x0 = rng.uniform(-2, 2, 2)
        try:
            f0 = embed_many(model, x0[None], 0)[0]
        except ValueError:
            continue
        for _ in range(5):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            try:
                f1 = embed_many(model, (x0 + 1e-6 * u)[None], 0)[0]
            except ValueError:
                continue
            assert np.linalg.norm(f1 - f0) / 1e-6 <= 100.0
            checked += 1
    assert checked >= 50


def test_small_beta_collapses_classes(blob30):
    model = fit(blob30, k=5, eps=None, beta=1e-6, m=2)
    Y = model.embedding
    total = ((Y - Y.mean(axis=0)) ** 2).sum()
    within = 0.0
    for c in range(1, 4):
        sel = Y[blob30.labels == c]
        within += ((sel - sel.mean(axis=0)) ** 2).sum()
    assert within / total <= 1e-3


def test_large_beta_fit_stays_consistent(blob30):
    model = fit(blob30, k=5, eps=None, beta=1e6, m=2)
    assert np.all(model.eigenvalues < 1.0)
    assert max(constraint_residuals(model).values()) < 1e-8


def test_shrink_matches_direct_fit(blob30):
    big = fit(blob30, k=5, eps=None, beta=0.8, m=4)
    small = fit(blob30, k=5, eps=big.eps, beta=0.8, m=2)
    sh = shrink(big, 2)
    assert np.abs(sh.embedding - small.embedding).max() < 1e-8
    assert np.abs(sh.centers - small.centers).max() < 1e-8
    assert np.abs(sh.eigenvalues - small.eigenvalues).max() < 1e-10
    assert sh.m == 2 and sh.beta == big.beta and sh.eps == big.eps
    with pytest.raises(ValueError, match="m must satisfy 1 <= m <= 4"):
        shrink(big, 5)


def test_refit_embed_deterministic(blob30):
    # the refit oracle gives the same bits on every call
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    a = refit_row(model, np.ones(3), 0)
    b = refit_row(model, np.ones(3), 0)
    assert np.array_equal(a, b)
    assert a.shape == (2,) and np.all(np.isfinite(a))


def test_model_round_trip(tmp_path, blob30):
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    p = tmp_path / "model.npz"
    save_model(model, p)
    back = load_model(p)
    assert np.array_equal(back.embedding, model.embedding)
    assert np.array_equal(back.centers, model.centers)
    assert np.array_equal(back.eigenvalues, model.eigenvalues)
    assert np.array_equal(back.train_points, model.train_points)
    assert np.array_equal(back.train_labels, model.train_labels)
    assert np.array_equal(back.class_sizes, model.class_sizes)
    assert back.beta == model.beta and back.eps == model.eps
    assert back.k == model.k and back.m == model.m
    assert back.num_classes == model.num_classes
    # a reloaded model keeps working
    x = np.zeros(3)
    assert np.array_equal(embed_many(back, x[None], 1), embed_many(model, x[None], 1))


# graph._SCREEN_MIN_WORK values: every call screened, then every call exact
ROUTES = (0, 1 << 62)


def test_fitted_models_are_read_only_with_unchanged_fields(tmp_path, blob30):
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    assert [f.name for f in dataclasses.fields(CcdrModel)] == [
        "centers", "embedding", "eigenvalues", "beta", "eps", "k", "m",
        "train_points", "train_labels", "num_classes", "class_sizes",
    ]
    save_model(model, tmp_path / "model.npz")
    back = load_model(tmp_path / "model.npz")
    Q = np.random.default_rng(41).standard_normal((50, 3))
    for route in ROUTES:
        with mock.patch.object(graph, "_SCREEN_MIN_WORK", route):
            assert np.array_equal(embed_many(back, Q), embed_many(model, Q))
    for m in (model, back):
        for f in dataclasses.fields(CcdrModel):
            v = getattr(m, f.name)
            assert not isinstance(v, np.ndarray) or not v.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m.train_points[0, 0] = 1.0


def test_embed_many_builds_the_training_index_once(blob30):
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    Q = np.random.default_rng(43).standard_normal((50, 3))
    with mock.patch.object(embedding, "_TrainIndex", wraps=graph._TrainIndex) as built, \
            mock.patch.object(graph, "_TrainIndex", wraps=graph._TrainIndex) as per_call:
        rows = []
        for route in ROUTES:
            with mock.patch.object(graph, "_SCREEN_MIN_WORK", route):
                rows += [embed_many(model, Q), embed_many(model, Q[:7], 2)]
    assert built.call_count == 1 and per_call.call_count == 0
    assert np.array_equal(rows[0], rows[2]) and np.array_equal(rows[1], rows[3])


def test_load_model_reads_the_v1_layout(tmp_path, blob30):
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    # a version 1 file, written entry by entry with its dtypes
    v1 = dict(
        format_version=np.int64(1), centers=model.centers, embedding=model.embedding,
        eigenvalues=model.eigenvalues, beta=np.float64(0.8), eps=np.float64(model.eps),
        k=np.int64(5), m=np.int64(2), train_points=model.train_points,
        train_labels=model.train_labels, num_classes=np.int64(3), class_sizes=model.class_sizes,
    )
    np.savez(tmp_path / "v1.npz", **v1)
    back = load_model(tmp_path / "v1.npz")
    for f in dataclasses.fields(CcdrModel):
        want = getattr(model, f.name)
        assert type(getattr(back, f.name)) is type(want)
        assert np.array_equal(getattr(back, f.name), want)
    # save_model writes the same entries, in the same order, with the same dtypes
    save_model(model, tmp_path / "saved.npz")
    with np.load(tmp_path / "saved.npz") as z:
        assert z.files == list(v1)
        for name, want in v1.items():
            assert z[name].dtype == want.dtype and np.array_equal(z[name], want)


def test_load_model_rejects_future_version(tmp_path, blob30):
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    p = tmp_path / "model.npz"
    save_model(model, p)
    with np.load(p) as z:
        data = {k: z[k] for k in z.files}
    data["format_version"] = np.int64(MODEL_FORMAT_VERSION + 1)
    np.savez(p, **data)
    with pytest.raises(ValueError, match="unsupported model format version 2 \\(expected 1\\)"):
        load_model(p)


def test_load_model_rejects_a_malformed_file(tmp_path, blob30):
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    p = tmp_path / "model.npz"
    save_model(model, p)
    with np.load(p) as z:
        good = {k: z[k] for k in z.files}
    # each field's shape follows from n = 30, d = 3, L = 3 and m = 2
    for name, bad, msg in (
        ("train_points", np.zeros(30), r"train_points has shape \(30,\), expected \(n, d\)"),
        ("centers", np.zeros((2, 2)), r"centers has shape \(2, 2\), expected \(3, 2\)"),
        ("embedding", model.embedding[:10], r"embedding has shape \(10, 2\), expected \(30, 2\)"),
        ("eigenvalues", np.zeros(3), r"eigenvalues has shape \(3,\), expected \(2,\)"),
        ("train_labels", np.ones(29, dtype=np.int64), r"train_labels has shape \(29,\), expected \(30,\)"),
        ("class_sizes", np.ones(4, dtype=np.int64), r"class_sizes has shape \(4,\), expected \(3,\)"),
        ("m", np.int64(3), r"centers has shape \(3, 2\), expected \(3, 3\)"),
        ("k", np.int64(30), r"k = 30 must satisfy 1 <= k < n = 30"),
        ("k", np.int64(0), r"k = 0 must satisfy 1 <= k < n = 30"),
    ):
        np.savez(p, **dict(good, **{name: bad}))
        with pytest.raises(ValueError, match="model field " + msg):
            load_model(p)


def test_fit_rejects_overflowing_distances():
    ds = LabeledDataset(np.random.default_rng(0).standard_normal((20, 3)) * 1e155,
                        np.repeat([1, 2], 10), 2)
    with pytest.raises(ValueError, match="point 0 .* overflows; rescale the points"):
        fit(ds, k=3, beta=0.5, m=2)


def gaussian_classes(n, L=3, d=4, seed=12):
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, L + 1, n)
    labels[:L] = np.arange(1, L + 1)
    return LabeledDataset(rng.standard_normal((n, d)), labels, L)


def test_build_augmented_goes_sparse_above_the_cutoff():
    for n, want_sparse in ((DENSE_MAX_ORDER - 3, False), (DENSE_MAX_ORDER - 2, True)):
        ds = gaussian_classes(n)
        g = knn_graph(ds.points, 4)
        W = heat_weights(g, ds.points, median_eps(g, ds.points))
        C = _indicator(ds.labels, ds.num_classes)
        aug = build_augmented(C, W, 0.7)
        assert sparse.issparse(aug.lap) == want_sparse
        G = np.zeros((n + 3, n + 3))
        G[:3, 3:] = C
        G[3:, :3] = C.T
        G[3:, 3:] = 0.7 * W.matrix.toarray()
        lap = aug.lap.toarray() if want_sparse else aug.lap
        assert np.array_equal(lap, np.diag(aug.deg) - G)
        assert np.allclose(aug.deg, G.sum(axis=1), rtol=1e-14, atol=0.0)


def test_sparse_fit_is_deterministic_and_satisfies_constraints():
    ds = gaussian_classes(400)
    a = fit(ds, k=5, beta=0.8, m=3)
    b = fit(ds, k=5, beta=0.8, m=3)
    assert np.array_equal(a.embedding, b.embedding)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert max(constraint_residuals(a).values()) < 1e-8


def test_fit_warns_on_disconnected_augmented_graph():
    # ten unlabeled points far from every labeled one: their component has
    # no class node, so its indicator is an eigenvector with eigenvalue 0
    ds = gaussian_classes(60)
    labels = ds.labels.copy()
    labels[-10:] = 0
    far = ds.points.copy()
    far[-10:] += 1e3
    with pytest.warns(
        RuntimeWarning,
        match="augmented graph has 2 connected components and 10 points sit "
        "in components with no class node",
    ):
        model = fit(LabeledDataset(far, labels, 3), k=4, beta=0.5, m=2)
    assert model.eigenvalues[0] < 1e-10


def test_fit_is_silent_when_each_component_holds_a_class_node():
    # class 1 far from the rest splits the graph along the class boundary,
    # which is the separation the embedding is after
    ds = gaussian_classes(60)
    far = ds.points + 1e3 * (ds.labels[:, None] == 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        model = fit(LabeledDataset(far, ds.labels, 3), k=4, beta=0.5, m=2)
    assert model.eigenvalues[0] < 1e-10


def test_two_circles_fit_raises_no_warning():
    # the README example: each circle is one class and one component
    train = gen_circles(n_per_class=100, radii=[1.0, 2.0], noise_sd=0.01, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit(train, k=4, beta=0.05, m=2)


def test_fit_memory_stays_below_a_dense_augmented_matrix():
    # a p x p float64 array is 72 MB at n = 3000; the fit must never hold
    # anything near it
    ds = gaussian_classes(3000, d=10)
    p = ds.n + ds.num_classes
    tracemalloc.start()
    try:
        fit(ds, k=4, beta=0.5, m=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p * p * 8 / 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_embed_rejects_non_finite_queries(blob30, bad):
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    X = blob30.points[:4].copy()
    X[2, 1] = bad
    with pytest.raises(ValueError, match="query 2 has a non-finite coordinate"):
        embed_many(model, X)
    with pytest.raises(ValueError, match="query 0 has a non-finite coordinate"):
        embed_many(model, X[2:3])


def test_embed_many_keeps_the_batch_contract(blob30):
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    empty = embed_many(model, np.empty((0, 3)))
    assert empty.shape == (0, 2) and empty.dtype == np.float64
    with pytest.raises(ValueError, match="X must be q x 3"):
        embed_many(model, np.zeros(3))
    with pytest.raises(ValueError, match="X must be q x 3"):
        embed_many(model, np.ones((1, 2)))
    X = blob30.points[:4].copy()
    X[2, 0], X[3, 1] = np.nan, np.inf
    with pytest.raises(ValueError, match="query 2 has a non-finite coordinate"):
        embed_many(model, X)


def test_embed_many_rejects_an_unknown_route(blob30):
    # the k-nearest extension is the one route: there is no route to name
    assert list(inspect.signature(embed_many).parameters) == ["model", "X", "c"]
    model = fit(blob30, k=5, eps=None, beta=0.8, m=2)
    with pytest.raises(TypeError):
        embed_many(model, blob30.points[:2], 0, "nearest")
    with pytest.raises(TypeError):
        embed_many(model, blob30.points[:2], oos="nearest")


def test_refit_honours_query_labels():
    train = gen_circles(30, [1.0, 2.0], 0.02, seed=1)
    test = gen_circles(10, [1.0, 2.0], 0.02, seed=2)
    model = fit(train, k=4, beta=0.05, m=2)
    refit = np.array([refit_row(model, x, c) for x, c in zip(test.points, test.labels)])
    unlabeled = np.array([refit_row(model, x, 0) for x in test.points])
    assert np.all(np.abs(refit - unlabeled).max(axis=1) > 1e-3)
    # a labelled refit lands where the labelled extension puts the point
    near = np.abs(refit - embed_many(model, test.points, test.labels)).max(axis=1)
    assert near.max() < 0.1


def test_refit_oracle_agrees_with_labelled_extensions():
    """The refit oracle's contract: labelled queries only.

    Seeds 1, 3 and 5, 20 labelled queries each, beta = 0.05. The median
    over queries of |refit - extension| read 2.3-2.4e-3 at n = 60,
    3.9-8.2e-4 at n = 200 and 7.4-7.9e-5 at n = 600; the bounds leave about
    a factor of two. The per-query max is noisy (0.36, 0.26 and 0.24 on
    seed 3), so it is not pinned.

    Unlabelled queries are not compared. The appended vertex then has
    degree beta * sum(w), and at small beta it takes a large share of an
    eigenvector's Dg-mass (median 0.32-0.38 here, against under 0.01 for a
    labelled query), so the refit row moves away from the extension.
    """
    bounds = {30: 5e-3, 100: 1.6e-3, 300: 1.6e-4}
    for s in (1, 3, 5):
        medians = []
        for npc, bound in bounds.items():
            train = gen_circles(npc, [1.0, 2.0], 0.02, seed=s)
            test = gen_circles(10, [1.0, 2.0], 0.02, seed=s + 100)
            model = fit(train, k=4, beta=0.05, m=2)
            ext = embed_many(model, test.points, test.labels)
            refit = np.array([refit_row(model, x, c) for x, c in zip(test.points, test.labels)])
            medians.append(np.median(np.abs(refit - ext).max(axis=1)))
            assert medians[-1] < bound, (s, npc, medians[-1])
            if npc == 30:
                # the appended vertex's largest share of an eigenvector's
                # Dg-mass: its augmented degree times its squared coordinate
                w = np.array([graph._heat_graph(np.vstack([train.points, x]), model.k,
                                                model.eps).degrees()[-1] for x in test.points])
                unlabelled = np.array([refit_row(model, x, 0) for x in test.points])
                lab = ((1.0 + model.beta * w)[:, None] * refit**2).max(axis=1)
                unl = ((model.beta * w)[:, None] * unlabelled**2).max(axis=1)
                assert np.median(lab) < 0.02 and np.median(unl) > 0.2, (s, lab, unl)
        # the agreement tightens as n grows
        assert medians[0] > medians[1] > medians[2], (s, medians)


# graph._SCREEN_MIN_WORK values: every neighbour search screened, then exact
ROUTES = (0, 1 << 62)


@pytest.mark.parametrize("route", ROUTES)
def test_fit_is_scale_covariant(route):
    # X -> 2X multiplies every squared distance and the median eps by 4
    # exactly, so every heat weight, and with it the whole model, keeps its bits
    ds = gaussian_classes(400, d=6)
    Q = np.random.default_rng(3).standard_normal((50, 6))
    with mock.patch.object(graph, "_SCREEN_MIN_WORK", route):
        a = fit(ds, k=5, beta=0.5, m=3)
        b = fit(LabeledDataset(2.0 * ds.points, ds.labels, ds.num_classes),
                k=5, beta=0.5, m=3)
        assert np.array_equal(embed_many(a, Q), embed_many(b, 2.0 * Q))
    assert b.eps == 4.0 * a.eps
    assert np.array_equal(b.train_points, 2.0 * a.train_points)
    for f in dataclasses.fields(CcdrModel):
        if f.name not in ("eps", "train_points"):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def _tie_free_draw(seed, n=120, d=3, k=5, L=3):
    """A labeled Gaussian draw whose kNN sets no rounding can change: in
    every row the k-th and (k+1)-th neighbour distances differ by at least
    1e-9 relative."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    labels = rng.integers(1, L + 1, n)
    labels[:L] = np.arange(1, L + 1)
    d2 = np.sort(cdist(X, X, "sqeuclidean"), axis=1)  # column 0 is the point itself
    assume(np.all(d2[:, k + 1] - d2[:, k] > 1e-9 * d2[:, k + 1]))
    return rng, LabeledDataset(X, labels, L)


def _equal_up_to_column_sign(A, B, tol):
    signs = np.where(np.sum(A * B, axis=0) < 0, -1.0, 1.0)
    return np.max(np.abs(A - B * signs), initial=0.0) <= tol


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fit_is_invariant_to_rigid_motion(seed):
    rng, ds = _tie_free_draw(seed)
    R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    moved = LabeledDataset(ds.points @ R.T + rng.normal(0.0, 3.0, 3), ds.labels, 3)
    for route in ROUTES:
        with mock.patch.object(graph, "_SCREEN_MIN_WORK", route):
            assert knn_graph(moved.points, 5).edge_set() == knn_graph(ds.points, 5).edge_set()
            a = fit(ds, k=5, beta=0.5, m=2)
            b = fit(moved, k=5, beta=0.5, m=2)
        assert _equal_up_to_column_sign(np.vstack([a.centers, a.embedding]),
                                        np.vstack([b.centers, b.embedding]), 1e-8)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fit_is_equivariant_to_row_permutation(seed):
    rng, ds = _tie_free_draw(seed)
    perm = rng.permutation(ds.n)
    shuffled = LabeledDataset(ds.points[perm], ds.labels[perm], 3)
    for route in ROUTES:
        with mock.patch.object(graph, "_SCREEN_MIN_WORK", route):
            want = {tuple(sorted((int(perm[i]), int(perm[j]))))
                    for i, j in knn_graph(shuffled.points, 5).edges}
            assert knn_graph(ds.points, 5).edge_set() == want
            a = fit(ds, k=5, beta=0.5, m=2)
            b = fit(shuffled, k=5, beta=0.5, m=2)
        assert _equal_up_to_column_sign(np.vstack([a.centers, a.embedding[perm]]),
                                        np.vstack([b.centers, b.embedding]), 1e-8)
