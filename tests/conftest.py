"""Shared fixtures: Statlog satimage file discovery, small datasets, a
Lanczos solver that does not converge, and test oracles: the refit of the
out-of-sample extension, the objective, model shrinking and the plain
Laplacian eigenmap.

The Landsat-based tests need the UCI Statlog satimage files. They are not
bundled; place sat.trn and sat.tst in the directory named by $CCDR_DATA_DIR
or in ./data at the repository root. Tests that need them skip with a
message when the files are absent.
"""

import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.spatial.distance import cdist

import ccdr.spectral
from ccdr.dataset import LabeledDataset, gen_circles
from ccdr.embedding import CcdrModel, _heat_graph, _read_only_model, _solve, _spectrum
from ccdr.graph import WeightMatrix

REPO_ROOT = Path(__file__).resolve().parent.parent


def statlog_dir():
    env = os.environ.get("CCDR_DATA_DIR")
    if env:
        return Path(env)
    return REPO_ROOT / "data"


def statlog_files():
    d = statlog_dir()
    trn, tst = d / "sat.trn", d / "sat.tst"
    if trn.is_file() and tst.is_file():
        return trn, tst
    return None


requires_statlog = pytest.mark.skipif(
    statlog_files() is None,
    reason=(
        "Statlog satimage files not found; place sat.trn and sat.tst in "
        "$CCDR_DATA_DIR or ./data"
    ),
)


@pytest.fixture(scope="session")
def statlog_paths():
    paths = statlog_files()
    if paths is None:
        pytest.skip(
            "Statlog satimage files not found; place sat.trn and sat.tst in "
            "$CCDR_DATA_DIR or ./data"
        )
    return paths


@pytest.fixture()
def blob30():
    """30 gaussian points in R^3 with 3 classes, every class nonempty."""
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((30, 3))
    labels = rng.integers(1, 4, 30)
    labels[:3] = [1, 2, 3]
    return LabeledDataset(pts, labels, 3)


@pytest.fixture()
def circles200():
    return gen_circles(100, [1.0, 2.0], 0.01, seed=7)


@pytest.fixture()
def nearly_cut_off():
    """8 points in 1-D, one class. With k = 1 the median eps is 0.0041 and
    unlabeled point 3's heat-kernel degree is 2.8e-52, so a fit at
    beta = 0.1, m = 1 fails its row identity there."""
    X = np.array([[1.872], [0.124], [-0.208], [-0.980], [-0.165], [-0.285], [-0.118], [0.088]])
    return LabeledDataset(X, np.array([1, 1, 0, 0, 1, 1, 0, 1]), 1)


@pytest.fixture()
def lanczos_fails(monkeypatch):
    """Make every Lanczos eigensolve give up before its first basis fill."""
    monkeypatch.setattr(ccdr.spectral, "MAX_CYCLES", 0)


def refit_row(model, x, c):
    """x's row in a refit with x appended under label c, solved with the
    model's hyperparameters (same absolute eps), its columns sign-aligned to
    the original embedding.

    The oracle of the out-of-sample extension. It agrees with a labelled
    query's extension; an unlabelled query enters the refit as a vertex of
    degree beta * sum(w) only, and at small beta it can pull an eigenvector
    onto itself, so unlabelled rows are not compared with it.
    """
    pts = np.vstack([model.train_points, x[None, :]])
    labs = np.concatenate([model.train_labels, [c]])
    refit = _solve(
        pts, labs, model.num_classes, _heat_graph(pts, model.k, model.eps),
        model.k, model.beta, model.m,
    )
    flip = np.sign(
        np.einsum("ij,ij->j", refit.embedding[:-1], model.embedding)
    )
    flip[flip == 0] = 1.0
    return refit.embedding[-1] * flip


def cost(Z: np.ndarray, Y: np.ndarray, C, W, beta: float) -> float:
    """Objective sum_ki c_ki ||z_k - y_i||^2 + (b/2) sum_ij w_ij ||y_i - y_j||^2.

    Z is (L, m), Y is (n, m). Equals tr(Zhat Lap Zhat^T) for the stacked
    arrangement, feasible or not.
    """
    C = np.asarray(C, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    term1 = float((C * cdist(Z, Y, "sqeuclidean")).sum())
    coo = sparse.coo_matrix(W.matrix if isinstance(W, WeightMatrix) else W)
    diff2 = ((Y[coo.row] - Y[coo.col]) ** 2).sum(axis=1)
    return term1 + 0.5 * beta * float((coo.data * diff2).sum())


def shrink(model: CcdrModel, m: int) -> CcdrModel:
    """Restrict a fitted model to its first m coordinates.

    The leading eigenpairs do not depend on how many were requested, so
    this equals a direct fit at the smaller m (up to eigensolver rounding).
    """
    if not 1 <= m <= model.m:
        raise ValueError("m must satisfy 1 <= m <= %d" % model.m)
    return _read_only_model(
        centers=model.centers[:, :m].copy(),
        embedding=model.embedding[:, :m].copy(),
        eigenvalues=model.eigenvalues[:m].copy(),
        beta=model.beta,
        eps=model.eps,
        k=model.k,
        m=int(m),
        train_points=model.train_points,
        train_labels=model.train_labels,
        num_classes=model.num_classes,
        class_sizes=model.class_sizes,
    )


def laplacian_eigenmap(W, m: int) -> np.ndarray:
    """Eigenmap coordinates: generalized eigenvectors 2..m+1 of (D - W, D).

    W may be a WeightMatrix or a symmetric nonnegative array; every vertex
    needs positive degree. This is the CCDR spectrum with no class nodes
    and beta = 1, without CCDR's requirement that retained eigenvalues stay
    below 1; a disconnected W gives the fit's RuntimeWarning.
    """
    shape = W.matrix.shape if isinstance(W, WeightMatrix) else np.shape(W)
    n = shape[0]
    if shape != (n, n):
        raise ValueError("W must be square")
    if not 1 <= m <= n - 1:
        raise ValueError("m must satisfy 1 <= m <= n - 1 = %d" % (n - 1))
    return _spectrum(np.zeros((0, n)), W, 1.0, m).vectors.copy()
