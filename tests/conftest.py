"""Shared fixtures: Statlog satimage file discovery, small datasets, a
Lanczos solver that does not converge, and the refit oracle of the
out-of-sample extension.

The Landsat-based tests need the UCI Statlog satimage files. They are not
bundled; place sat.trn and sat.tst in the directory named by $CCDR_DATA_DIR
or in ./data at the repository root. Tests that need them skip with a
message when the files are absent.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import ccdr.spectral
from ccdr.dataset import LabeledDataset, gen_circles
from ccdr.embedding import _solve
from ccdr.graph import _heat_graph

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
