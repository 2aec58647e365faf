"""Downstream classifiers on embedded coordinates: kNN and one-vs-all least squares."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import _nearest, _TrainIndex
from .spectral import _warn_caller


def argmax_labels(scores: np.ndarray) -> np.ndarray:
    """Row-wise argmax as 1-based class labels; ties go to the lower class."""
    scores = np.asarray(scores)
    return scores.argmax(axis=1).astype(np.int64) + 1


@dataclass(frozen=True)
class LinearClassifier:
    """One-vs-all least-squares scores s_k(y) = w_k . y + b_k."""

    weights: np.ndarray  # (L, m)
    bias: np.ndarray  # (L,)

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    def scores(self, Y: np.ndarray) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
        return Y @ self.weights.T + self.bias

    def predict(self, Y: np.ndarray) -> np.ndarray:
        return argmax_labels(self.scores(Y))


def linear_fit(Y: np.ndarray, labels: np.ndarray, num_classes: int) -> LinearClassifier:
    """Fit one least-squares score per class against its 0/1 indicator.

    Solves the normal equations on the design X = [Y | 1] with a tiny ridge
    1e-10 tr(X^T X)/cols for numerical safety. The rank is tested on the
    Gram matrix X^T X, so a design whose singular-value ratio falls below
    about sqrt(cols * eps) ~ 1e-7 counts as rank deficient and gets a
    warning: the ridge dominates such a direction and picks a
    minimum-norm-like solution.
    """
    Y = np.asarray(Y, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if Y.ndim != 2:
        raise ValueError("Y must be an n x m matrix")
    n, m = Y.shape
    if n <= m:
        raise ValueError("need more points than dimensions, got n=%d, m=%d" % (n, m))
    if labels.shape != (n,):
        raise ValueError("labels must have length n")
    if np.any(labels < 1) or np.any(labels > num_classes):
        raise ValueError("labels must lie in {1, .., %d}" % num_classes)
    X = np.hstack([Y, np.ones((n, 1))])
    T = np.zeros((n, num_classes))
    T[np.arange(n), labels - 1] = 1.0
    G = X.T @ X
    if np.linalg.matrix_rank(G, hermitian=True) < m + 1:
        _warn_caller("design matrix is rank deficient; returning a minimum-norm-like solution")
    ridge = 1e-10 * np.trace(G) / (m + 1)
    coef = np.linalg.solve(G + ridge * np.eye(m + 1), X.T @ T)
    return LinearClassifier(weights=coef[:m].T.copy(), bias=coef[m].copy())


def sorted_neighbor_labels(
    train_Y: np.ndarray, train_labels: np.ndarray, Q: np.ndarray, k_max: int,
    _index=None,
) -> np.ndarray:
    """Labels of each query's k_max nearest training points, nearest first.

    Distance ties are broken by ascending training index, the same rule and
    the same neighbour search the graph construction uses. Non-finite
    queries or training points are an error. _index, the search's
    _TrainIndex of train_Y, is built per call when None.
    """
    train_Y = np.asarray(train_Y, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    n = train_Y.shape[0]
    if not 1 <= k_max <= n:
        raise ValueError("k must satisfy 1 <= k <= n = %d" % n)
    return train_labels[_nearest(Q, _index or _TrainIndex(train_Y), k_max)[0]]


def vote(nbr_labels: np.ndarray, k: int, num_classes: int) -> np.ndarray:
    """Majority vote over the first k neighbour labels per row.

    Vote ties go to the smaller class index.
    """
    nbr_labels = np.asarray(nbr_labels, dtype=np.int64)
    q = nbr_labels.shape[0]
    if not 1 <= k <= nbr_labels.shape[1]:
        raise ValueError("k must satisfy 1 <= k <= %d" % nbr_labels.shape[1])
    votes = np.zeros((q, num_classes + 1))
    np.add.at(votes, (np.arange(q)[:, None], nbr_labels[:, :k]), 1.0)
    return argmax_labels(votes[:, 1:])


@dataclass(frozen=True)
class KnnClassifier:
    """k-nearest-neighbour majority vote in the embedded space.

    Keeps read-only copies of train_Y (float64) and train_labels (int64),
    so the neighbour index built on the first predict stays valid.
    """

    train_Y: np.ndarray
    train_labels: np.ndarray
    k: int
    num_classes: int

    def __post_init__(self):
        Y = np.array(self.train_Y, dtype=np.float64)
        labels = np.array(self.train_labels, dtype=np.int64)
        if Y.ndim != 2 or not np.isfinite(Y).all():
            raise ValueError("train_Y must be an n x m matrix of finite values")
        n = Y.shape[0]
        if labels.shape != (n,):
            raise ValueError("train_labels must hold one label per row of train_Y (%d)" % n)
        if np.any(labels < 1) or np.any(labels > self.num_classes):
            raise ValueError("training labels must lie in {1, .., %d}" % self.num_classes)
        if not 1 <= self.k <= n:
            raise ValueError("k must satisfy 1 <= k <= n = %d" % n)
        Y.flags.writeable = labels.flags.writeable = False
        object.__setattr__(self, "train_Y", Y)
        object.__setattr__(self, "train_labels", labels)

    @cached_property
    def _index(self) -> _TrainIndex:
        return _TrainIndex(self.train_Y)

    def predict(self, Y: np.ndarray) -> np.ndarray:
        nbr = sorted_neighbor_labels(
            self.train_Y, self.train_labels, Y, self.k, _index=self._index
        )
        return vote(nbr, self.k, self.num_classes)
