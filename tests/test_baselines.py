"""PCA and Fisher LDA baselines, and the Laplacian eigenmap oracle."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import pdist

from ccdr.baselines import (
    lda_fit,
    pca_fit,
)
from ccdr.graph import heat_weights, knn_graph
from ccdr.spectral import _fix_signs
from conftest import laplacian_eigenmap


def _six_classes_in_36d():
    # anisotropic features, so every covariance eigenvalue is well separated,
    # and six shifted classes, so C_B has rank 5
    rng = np.random.default_rng(36)
    y = np.repeat(np.arange(1, 7), 100)
    means = rng.standard_normal((6, 36))
    X = rng.standard_normal((600, 36)) * np.linspace(3.0, 0.5, 36) + means[y - 1]
    return X, y


def _scatters(X, y):
    n, d = X.shape
    mu = X.mean(axis=0)
    CB = np.zeros((d, d))
    CW = np.zeros((d, d))
    for k in np.unique(y):
        sel = X[y == k]
        mk = sel.mean(axis=0)
        CB += len(sel) * np.outer(mk - mu, mk - mu)
        CW += (sel - mk).T @ (sel - mk)
    return CB / n, CW / n


def _rel_diff(A, B):
    return np.abs(A - B).max() / np.abs(B).max()


def test_pca_rows_orthonormal():
    rng = np.random.default_rng(53)
    X = rng.standard_normal((40, 6))
    emb = pca_fit(X, 3)
    assert emb.A.shape == (3, 6)
    assert np.abs(emb.A @ emb.A.T - np.eye(3)).max() < 1e-12
    assert emb.offset == pytest.approx(X.mean(axis=0), abs=0.0)
    assert emb.m == 3


def test_pca_line_is_isometric():
    # a 1-D manifold embedded affinely in R^3 projects without distortion
    t = np.linspace(0.0, 1.0, 30)
    line = np.outer(t, [1.0, 2.0, -1.0]) + np.array([5.0, 0.0, 3.0])
    Y = pca_fit(line, 1).transform(line)
    assert np.abs(pdist(Y) - pdist(line)).max() < 1e-10


def test_pca_explained_variance_isotropic():
    # 2 of 8 isotropic directions hold about a quarter of the energy
    rng = np.random.default_rng(5)
    X = rng.standard_normal((10000, 8))
    Xc = X - X.mean(axis=0)
    C = (Xc.T @ Xc) / X.shape[0]
    vals = np.linalg.eigvalsh(C)[::-1]
    emb = pca_fit(X, 2)
    captured = float(np.trace(emb.A @ C @ emb.A.T))
    assert captured == pytest.approx(vals[:2].sum(), rel=1e-10)
    assert abs(captured / vals.sum() - 0.25) < 0.02


def test_pca_beats_random_projections():
    rng = np.random.default_rng(54)
    X = rng.standard_normal((60, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.1])
    Xc = X - X.mean(axis=0)
    C = (Xc.T @ Xc) / X.shape[0]
    emb = pca_fit(X, 2)
    best = float(np.trace(emb.A @ C @ emb.A.T))
    for t in range(100):
        Q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        assert float(np.trace(Q.T @ C @ Q)) <= best + 1e-10


def test_pca_validation():
    with pytest.raises(ValueError, match="need an n x d matrix with n >= 2"):
        pca_fit(np.ones((1, 3)), 1)
    with pytest.raises(ValueError, match="m must satisfy 1 <= m <= d = 3"):
        pca_fit(np.ones((4, 3)), 4)


def test_pca_rows_in_variance_order():
    rng = np.random.default_rng(56)
    X = rng.standard_normal((80, 5)) @ np.diag([0.5, 3.0, 0.1, 2.0, 1.0])
    Xc = X - X.mean(axis=0)
    C = (Xc.T @ Xc) / X.shape[0]
    A = pca_fit(X, 5).A
    assert np.all(np.diff(np.diag(A @ C @ A.T)) < 0)


def test_pca_sign_convention():
    # each row's largest-magnitude entry is positive; on an exact tie the
    # lowest index wins, so the leading direction here is (1, -1) / sqrt(2)
    X = np.array([[1.0, -1.0], [-1.0, 1.0], [0.5, 0.5], [-0.5, -0.5]])
    A = pca_fit(X, 2).A
    assert abs(A[0, 0]) == abs(A[0, 1])
    assert A[0, 0] > 0 > A[0, 1]
    rng = np.random.default_rng(57)
    A = pca_fit(rng.standard_normal((50, 6)), 4).A
    assert np.all(A[np.arange(4), np.argmax(np.abs(A), axis=1)] > 0)


def test_pca_repeated_variance_warns_at_the_caller():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    with pytest.warns(RuntimeWarning, match="not unique") as record:
        pca_fit(X, 2)
    assert [w.filename for w in record] == [__file__]


def test_pca_agrees_with_scipy_subset_solve():
    X, _ = _six_classes_in_36d()
    Xc = X - X.mean(axis=0)
    C = (Xc.T @ Xc) / X.shape[0]
    m = 10
    _, vecs = scipy.linalg.eigh((C + C.T) / 2.0, subset_by_index=(36 - m, 35))
    expect = _fix_signs(vecs[:, ::-1]).T
    assert _rel_diff(pca_fit(X, m).A, expect) < 1e-10


def test_lda_agrees_with_scipy_generalized_solve():
    X, y = _six_classes_in_36d()
    CB, CW = _scatters(X, y)
    m = 5  # C_B has rank 5, so only these directions are unique
    _, vecs = scipy.linalg.eigh(CB, CW)
    expect = _fix_signs(vecs[:, ::-1][:, :m]).T
    A = lda_fit(X, y, m).A
    assert _rel_diff(A, expect) < 1e-10
    assert np.abs(A @ CW @ A.T - np.eye(m)).max() < 1e-10
    # the full set of rows is C_W-orthonormal too, null directions included
    A = lda_fit(X, y, 36).A
    assert np.abs(A @ CW @ A.T - np.eye(36)).max() < 1e-10


def test_pca_and_lda_reject_non_finite_points():
    X, y = _six_classes_in_36d()
    X[3, 7] = np.nan
    with pytest.raises(ValueError, match="points must be finite"):
        pca_fit(X, 2)
    with pytest.raises(ValueError, match="points must be finite"):
        lda_fit(X, y, 2)


def test_lda_separable_construction():
    # classes with diagonal within-scatter diag(0.5, 2) and between-class
    # spread only along x: the Fisher direction is exactly e1, normalized
    # so that A C_W A^T = 1, hence sqrt(2) e1
    base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
    X = np.vstack([base, base + np.array([10.0, 0.0])])
    y = np.array([1, 1, 1, 1, 2, 2, 2, 2])
    emb = lda_fit(X, y, 1)
    assert emb.A[0] == pytest.approx([math.sqrt(2.0), 0.0], abs=1e-9)
    assert np.array_equal(emb.offset, np.zeros(2))


def test_lda_prefers_low_variance_direction():
    # two long parallel clouds: the discriminant ignores the elongated
    # axis and projects on the separating one
    rng = np.random.default_rng(4)
    A1 = rng.standard_normal((300, 2)) * np.array([6.0, 0.5]) + np.array([0.0, -2.0])
    A2 = rng.standard_normal((300, 2)) * np.array([6.0, 0.5]) + np.array([0.0, 2.0])
    X = np.vstack([A1, A2])
    y = np.array([1] * 300 + [2] * 300)
    a1 = lda_fit(X, y, 1).A[0]
    a1 = a1 / np.linalg.norm(a1)
    assert abs(a1[1]) >= 0.99


def test_lda_matches_grid_search():
    rng = np.random.default_rng(3)
    means = np.array([[0.0, 0.0], [3.0, 1.0], [1.0, 4.0]])
    X, y = [], []
    for k in range(3):
        X.append(means[k] + rng.standard_normal((40, 2)) @ np.array([[1.0, 0.3], [0.0, 0.7]]))
        y.extend([k + 1] * 40)
    X = np.vstack(X)
    y = np.array(y)
    mu = X.mean(axis=0)
    CB = np.zeros((2, 2))
    CW = np.zeros((2, 2))
    for k in range(1, 4):
        sel = X[y == k]
        mk = sel.mean(axis=0)
        CB += len(sel) * np.outer(mk - mu, mk - mu)
        CW += (sel - mk).T @ (sel - mk)
    CB /= len(X)
    CW /= len(X)
    best = -np.inf
    for theta in np.linspace(0.0, np.pi, 20001):
        a = np.array([math.cos(theta), math.sin(theta)])
        best = max(best, (a @ CB @ a) / (a @ CW @ a))
    a1 = lda_fit(X, y, 1).A[0]
    obj = (a1 @ CB @ a1) / (a1 @ CW @ a1)
    assert abs(obj - best) / best < 1e-3
    # returned rows are C_W-orthonormal
    emb2 = lda_fit(X, y, 2)
    assert np.abs(emb2.A @ CW @ emb2.A.T - np.eye(2)).max() < 1e-9


def test_lda_affine_invariant_objective():
    rng = np.random.default_rng(56)
    X = rng.standard_normal((60, 3))
    y = rng.integers(1, 3, 60)
    y[:2] = [1, 2]
    M = np.array([[2.0, 0.1, 0.0], [0.0, 1.0, -0.3], [0.5, 0.0, 1.5]])
    Xt = X @ M.T + np.array([1.0, -2.0, 0.5])

    def objective(pts, labs, a):
        mu = pts.mean(axis=0)
        CB = np.zeros((3, 3))
        CW = np.zeros((3, 3))
        for k in np.unique(labs):
            sel = pts[labs == k]
            mk = sel.mean(axis=0)
            CB += len(sel) * np.outer(mk - mu, mk - mu)
            CW += (sel - mk).T @ (sel - mk)
        return (a @ CB @ a) / (a @ CW @ a)

    o1 = objective(X, y, lda_fit(X, y, 1).A[0])
    o2 = objective(Xt, y, lda_fit(Xt, y, 1).A[0])
    assert abs(o1 - o2) / o1 < 1e-6


def test_lda_singular_within_scatter_ridge():
    # within-class deviations live on the x axis only: C_W is singular and
    # the solver falls back to a small ridge
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.0, 2.0]])
    y = np.array([1, 1, 2, 2])
    with pytest.warns(RuntimeWarning, match="within-class scatter is singular; adding ridge"):
        emb = lda_fit(X, y, 1)
    a1 = emb.A[0] / np.linalg.norm(emb.A[0])
    assert abs(a1[1]) > 0.9999


def test_lda_validation():
    X = np.zeros((4, 2)) + np.arange(4)[:, None]
    with pytest.raises(ValueError, match="LDA needs a class label"):
        lda_fit(X, np.array([0, 1, 1, 2]), 1)
    with pytest.raises(ValueError, match="LDA needs at least two classes"):
        lda_fit(X, np.array([1, 1, 1, 1]), 1)
    with pytest.raises(ValueError, match="m must satisfy 1 <= m <= d = 2"):
        lda_fit(X, np.array([1, 1, 2, 2]), 3)
    with pytest.raises(ValueError, match="labels must have length n"):
        lda_fit(X, np.array([1, 2]), 1)
    with pytest.raises(ValueError, match="points must be an n x d matrix"):
        lda_fit(np.zeros(4), np.array([1, 2, 1, 2]), 1)


def test_laplacian_eigenmap_path_is_monotone():
    pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    g = knn_graph(pts, 1)
    W = heat_weights(g, pts, 1e9)
    Y = laplacian_eigenmap(W, 1).ravel()
    d = np.diff(Y)
    assert np.all(d > 0) or np.all(d < 0)


def test_laplacian_eigenmap_two_components_split_by_sign():
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    with pytest.warns(RuntimeWarning, match="graph has 2 connected components"):
        Y = laplacian_eigenmap(W, 1).ravel()
    s = np.sign(Y)
    assert s[0] == s[1] and s[2] == s[3] and s[0] != s[2]


def test_laplacian_eigenmap_validation():
    with pytest.raises(ValueError, match="vertex 0 has nonpositive degree"):
        laplacian_eigenmap(np.zeros((3, 3)), 1)
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="m must satisfy 1 <= m <= n - 1 = 1"):
        laplacian_eigenmap(W, 2)
    with pytest.raises(ValueError, match="W must be square"):
        laplacian_eigenmap(np.zeros((2, 3)), 1)
