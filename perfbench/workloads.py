"""Satimage-shaped synthetic data and the benchmark's workload definitions.

The shape follows the Statlog satimage split: 4435 training and 2000 test
points, 36 features, six classes with satimage's class proportions. Data
depends only on (generator, seed, sizes); nothing here imports ccdr.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

D = 36
NUM_CLASSES = 6
# Class sizes of the satimage training and test files, classes 1..6.
TRAIN_COUNTS = (1072, 479, 961, 415, 470, 1038)
TEST_COUNTS = (461, 224, 397, 211, 237, 470)

ISO_SPREAD = 0.55  # sd of the class means; unit-variance classes around them
CLU_CLUSTERS = 12
CLU_RANK = 4  # the cluster centres span a rank-4 subspace
CLU_SEP = 4.0  # sd of the cluster centres inside that subspace
CLU_CLASS_SHIFT = 1.3  # each class's shift, along its own further direction
CLU_NOISE = 0.4
CLU_HIDDEN = 0.3  # share of training labels hidden (label 0)


@dataclass(frozen=True)
class Split:
    """One generated train/test split.

    train_truth holds every training point's class; train_labels hides
    some of them (0 = unlabeled) and is what a fit sees.
    """

    train_X: np.ndarray
    train_labels: np.ndarray
    train_truth: np.ndarray
    test_X: np.ndarray
    test_y: np.ndarray


def scaled_counts(counts, total: int) -> np.ndarray:
    """Split `total` over the classes in proportion to `counts` (largest remainder)."""
    counts = np.asarray(counts, dtype=np.float64)
    share = counts / counts.sum() * total
    out = np.floor(share).astype(np.int64)
    order = np.argsort(-(share - out), kind="stable")
    out[order[: total - int(out.sum())]] += 1
    return out


def _labels(counts) -> np.ndarray:
    return np.concatenate([np.full(c, k + 1, dtype=np.int64) for k, c in enumerate(counts)])


def gen_iso(seed: int, n_train: int = 4435, n_test: int = 2000) -> Split:
    """Isotropic unit-variance Gaussian classes with nearby means; fully labeled."""
    rng = np.random.default_rng([seed, 1])
    means = rng.normal(0.0, ISO_SPREAD, (NUM_CLASSES, D))

    def draw(counts):
        y = _labels(counts)
        return means[y - 1] + rng.normal(0.0, 1.0, (y.size, D)), y

    X, y = draw(scaled_counts(TRAIN_COUNTS, n_train))
    Xt, yt = draw(scaled_counts(TEST_COUNTS, n_test))
    return Split(X, y.copy(), y, Xt, yt)


def gen_clustered(seed: int, n_train: int = 4435, n_test: int = 2000) -> Split:
    """Clustered low-rank mixture with part of the training labels hidden.

    Every class draws from every cluster, shifted by a fixed class offset
    orthogonal to the cluster subspace and small enough that neighbouring
    points of different classes meet inside each cluster, so the class nodes
    join the clusters: the augmented graph stays connected. Were the classes
    to sit in separate clusters, it would fall apart. The fixed offsets keep
    the raw-feature 5-NN error near 0.16 on every seed.
    """
    rng = np.random.default_rng([seed, 2])
    basis = np.linalg.qr(rng.normal(size=(D, CLU_RANK + NUM_CLASSES)))[0]
    centres = rng.normal(0.0, CLU_SEP, (CLU_CLUSTERS, CLU_RANK)) @ basis[:, :CLU_RANK].T
    shifts = CLU_CLASS_SHIFT * basis[:, CLU_RANK:].T

    def draw(counts):
        y = _labels(counts)
        cluster = rng.integers(0, CLU_CLUSTERS, y.size)
        X = centres[cluster] + shifts[y - 1] + rng.normal(0.0, CLU_NOISE, (y.size, D))
        return X, y

    X, y = draw(scaled_counts(TRAIN_COUNTS, n_train))
    Xt, yt = draw(scaled_counts(TEST_COUNTS, n_test))
    hidden = rng.random(y.size) < CLU_HIDDEN
    # keep at least one labeled point per class
    for k in range(1, NUM_CLASSES + 1):
        members = np.nonzero(y == k)[0]
        hidden[members[0]] = False
    labels = np.where(hidden, 0, y)
    return Split(X, labels, y, Xt, yt)


GENERATORS = {"iso": gen_iso, "clustered": gen_clustered}
# Raise a generator's version whenever its output changes, so kept
# reference eigenvalues made from the old output are no longer used.
GENERATOR_VERSIONS = {"iso": 1, "clustered": 2}


@dataclass(frozen=True)
class Workload:
    """Inputs and settings of one benchmark workload.

    Every round fits CCDR `fits` times with (k, beta, m), predicts the test
    split in batches `passes` times, with `singles_per_batch` points
    predicted one at a time after each batch, and runs `sweeps` sweeps over
    the grid below on the same split, read back from Statlog files. Short
    operations repeat more, so each run holds enough samples for a steady
    median.
    """

    name: str
    generator: str
    n_train: int
    n_test: int
    k: int
    beta: float
    m: int
    clf_k: int
    batch: int
    fits: int
    passes: int
    sweeps: int
    singles_per_batch: int
    pipelines: tuple
    betas: tuple
    ms: tuple
    graph_ks: tuple
    clf_ks: tuple

    def split(self, seed: int, n_train: int | None = None) -> Split:
        n = self.n_train if n_train is None else n_train
        n_test = self.n_test if n_train is None else max(60, round(n * self.n_test / self.n_train))
        return GENERATORS[self.generator](seed, n, n_test)

    def signature(self, n_train: int) -> str:
        """Names everything the reference eigenvalues depend on."""
        return "%s-v%d n=%d k=%d beta=%r m=%d" % (
            self.generator, GENERATOR_VERSIONS[self.generator], n_train, self.k, self.beta, self.m
        )


_BASELINE_SWEEP = dict(
    pipelines=("raw", "pca", "lda"),
    betas=(0.5,),
    ms=(5,),
    graph_ks=(4,),
    clf_ks=(1, 5),
)

WORKLOADS = {
    # k, beta and m = 14 are the settings the package's README gives for
    # Landsat; the band lambda_7..lambda_15 lies inside the crowded bulk.
    "satimage-iso": Workload(
        "satimage-iso", "iso", 4435, 2000, k=4, beta=0.5, m=14, clf_k=5,
        batch=250, fits=1, passes=2, sweeps=2, singles_per_batch=25, **_BASELINE_SWEEP,
    ),
    # m = 5 = L - 1 keeps the band below a wide gap in the spectrum.
    "satimage-clustered": Workload(
        "satimage-clustered", "clustered", 4435, 2000, k=4, beta=0.5, m=5, clf_k=5,
        batch=250, fits=1, passes=2, sweeps=2, singles_per_batch=25, **_BASELINE_SWEEP,
    ),
    "sweep-grid": Workload(
        "sweep-grid", "iso", 1000, 500, k=4, beta=0.5, m=5, clf_k=5,
        batch=250, fits=5, passes=6, sweeps=1, singles_per_batch=150,
        pipelines=("raw", "pca", "ccdr", "lda", "lapeig"),
        betas=(0.1, 0.5, 2.0),
        ms=(2, 5),
        graph_ks=(4, 8),
        clf_ks=(1, 5),
    ),
}
