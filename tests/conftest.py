"""Shared fixtures: Statlog satimage file discovery and small datasets.

The Landsat-based tests need the UCI Statlog satimage files. They are not
bundled; place sat.trn and sat.tst in the directory named by $CCDR_DATA_DIR
or in ./data at the repository root. Tests that need them skip with a
message when the files are absent.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from ccdr.dataset import LabeledDataset, gen_circles

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
    return LabeledDataset(pts, labels, 3, name="blob30")


@pytest.fixture()
def circles200():
    return gen_circles(100, [1.0, 2.0], 0.01, seed=7)


@pytest.fixture()
def nearly_cut_off():
    """8 points in 1-D, one class. With k = 1 the median eps is 0.0041 and
    unlabeled point 3's heat-kernel degree is 2.8e-52, so a fit at
    beta = 0.1, m = 1 fails its row identity there."""
    X = np.array([[1.872], [0.124], [-0.208], [-0.980], [-0.165], [-0.285], [-0.118], [0.088]])
    return LabeledDataset(X, np.array([1, 1, 0, 0, 1, 1, 0, 1]), 1, name="nearly-cut-off")

