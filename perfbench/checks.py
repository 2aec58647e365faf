"""Checks on the package's outputs, computed apart from the package.

Everything here uses numpy and scipy only; nothing imports ccdr. Each check
returns a list of failure messages (empty when the output passes), or a
per-item boolean mask of failures, so a run can count failed operations.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

RESIDUAL_TOL = 1e-8  # relative eigen-residual, Dg-orthonormality, orthogonality
EIG_TOL = 1e-8  # retained eigenvalues against the reference solve
EXT_TOL = 1e-9  # extension against the benchmark's own formula, relative
LAMBDA_FLOOR = 1e-10  # a retained eigenvalue at or below this is a null vector
# CCDR kNN error may exceed raw-feature kNN error by this much: at m = 14
# the bulk coordinates cost up to 0.034 on isotropic draws (seeds 0-15).
KNN_ERROR_SLACK = 0.06
BLOCK = 256


def neighbours(Q, X, k: int, skip_self: bool = False):
    """Indices (ascending) and squared distances of each query's k nearest rows of X.

    Distance ties at the k-th place go to the lower index, which is the
    package's documented rule. Rows of Q are processed in blocks so memory
    stays at BLOCK x n. With skip_self, query i is row i of X and is excluded.
    """
    Q = np.asarray(Q, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    q = Q.shape[0]
    idx = np.empty((q, k), dtype=np.int64)
    dist = np.empty((q, k))
    for s in range(0, q, BLOCK):
        e = min(q, s + BLOCK)
        d2 = cdist(Q[s:e], X, "sqeuclidean")
        if skip_self:
            d2[np.arange(e - s), np.arange(s, e)] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        below = d2 < kth
        tied = d2 == kth
        need = k - below.sum(axis=1, keepdims=True)
        keep = below | (tied & (np.cumsum(tied, axis=1) <= need))
        rows, cols = np.nonzero(keep)
        idx[s:e] = cols.reshape(e - s, k)
        dist[s:e] = d2[rows, cols].reshape(e - s, k)
    return idx, dist


class FitProblem:
    """The benchmark's own kNN graph and class indicator for a training split.

    Edges are the union-symmetrized k-nearest-neighbour pairs; the heat
    weights and the augmented matrices follow for any eps.
    """

    def __init__(self, X, labels, num_classes: int, k: int, beta: float):
        X = np.asarray(X, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        n = X.shape[0]
        idx, dist = neighbours(X, X, k, skip_self=True)
        rows = np.repeat(np.arange(n), k)
        lo = np.minimum(rows, idx.ravel())
        hi = np.maximum(rows, idx.ravel())
        codes, first = np.unique(lo * n + hi, return_index=True)
        self.edges = np.column_stack([codes // n, codes % n])
        self.edge_d2 = dist.ravel()[first]
        self.n = n
        self.labels = labels
        self.num_classes = num_classes
        self.beta = float(beta)

    def median_eps(self) -> float:
        return float(np.median(self.edge_d2))

    def weights(self, eps: float) -> sp.csr_matrix:
        w = np.exp(-self.edge_d2 / eps)
        i, j = self.edges[:, 0], self.edges[:, 1]
        return sp.csr_matrix(
            (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(self.n, self.n),
        )

    def indicator(self) -> sp.csr_matrix:
        lab = np.nonzero(self.labels > 0)[0]
        return sp.csr_matrix(
            (np.ones(lab.size), (self.labels[lab] - 1, lab)),
            shape=(self.num_classes, self.n),
        )

    def augmented(self, eps: float):
        """Sparse (Lap, deg) of the class-augmented graph, classes first."""
        C = self.indicator()
        G = sp.bmat([[None, C], [C.T, self.beta * self.weights(eps)]], format="csr")
        deg = np.asarray(G.sum(axis=1)).ravel()
        return (sp.diags(deg) - G).tocsr(), deg


def reference_eigenvalues(problem: FitProblem, count: int) -> np.ndarray:
    """Smallest `count` eigenvalues of Lap u = lambda Dg u by a dense solve.

    Uses the problem's own median eps. Needs p^2 doubles of memory, so runs
    keep its result rather than calling it beside a timed fit.
    """
    lap, deg = problem.augmented(problem.median_eps())
    s = 1.0 / np.sqrt(deg)
    S = (sp.diags(s) @ lap @ sp.diags(s)).toarray()
    return scipy.linalg.eigh(S, eigvals_only=True, subset_by_index=(0, count - 1))


def check_fit(problem: FitProblem, eps, centers, embedding, eigenvalues, reference) -> list:
    """Verify a fitted (centers, embedding, eigenvalues) on the own matrices.

    reference holds the smallest m + 2 eigenvalues of the own problem, the
    first being the trivial 0. Column sign flips pass: they are eigenvectors.
    """
    fails = []
    lam = np.asarray(eigenvalues, dtype=np.float64)
    m = lam.size
    own_eps = problem.median_eps()
    if not abs(eps - own_eps) <= 1e-12 * own_eps:
        fails.append("eps %r differs from the median squared edge length %r" % (eps, own_eps))
    lap, deg = problem.augmented(eps)
    if connected_components(lap, directed=False)[0] != 1:
        fails.append("augmented graph is not connected")
    U = np.vstack([np.asarray(centers), np.asarray(embedding)])
    if U.shape != (deg.size, m):
        return fails + ["embedding shape %s, expected %s" % (U.shape, (deg.size, m))]
    DU = deg[:, None] * U
    res = np.linalg.norm(lap @ U - DU * lam[None, :], axis=0) / np.linalg.norm(DU, axis=0)
    if not res.max() <= RESIDUAL_TOL:
        fails.append("eigen-residual %.3g" % res.max())
    gram = np.abs(U.T @ DU - np.eye(m)).max()
    if not gram <= RESIDUAL_TOL:
        fails.append("Dg-orthonormality off by %.3g" % gram)
    mean = np.abs(DU.sum(axis=0)).max() / np.sqrt(deg.sum())
    if not mean <= RESIDUAL_TOL:
        fails.append("not Dg-orthogonal to the constant (%.3g)" % mean)
    if not (lam.min() > LAMBDA_FLOOR and lam.max() < 1.0):
        fails.append("eigenvalues outside (0, 1): %r" % lam.tolist())
    if np.any(np.diff(lam) < 0):
        fails.append("eigenvalues not ascending")
    ref = np.asarray(reference)
    if not abs(ref[0]) <= LAMBDA_FLOOR:
        fails.append("reference trivial eigenvalue %r is not 0" % ref[0])
    if not np.abs(lam - ref[1 : m + 1]).max() <= EIG_TOL:
        fails.append(
            "eigenvalues are not the smallest nontrivial ones: %r vs %r"
            % (lam.tolist(), ref[1 : m + 1].tolist())
        )
    return fails


def extension(kernel_idx, kernel_d2, eps, embedding, eigenvalues, beta):
    """The closed-form extension of unlabeled queries (c = 0) from kernel rows."""
    K = np.exp(-np.asarray(kernel_d2) / eps)
    num = beta * np.einsum("qk,qkm->qm", K, np.asarray(embedding)[kernel_idx])
    den = beta * K.sum(axis=1)
    return num / ((1.0 - np.asarray(eigenvalues))[None, :] * den[:, None])


def extension_mismatch(got, want) -> np.ndarray:
    """Per-row flag: the package's extension differs from the own formula."""
    got = np.atleast_2d(got)
    scale = max(1.0, float(np.abs(want).max()))
    if got.shape != want.shape:
        return np.ones(want.shape[0], dtype=bool)
    return ~(np.abs(got - want).max(axis=1) <= EXT_TOL * scale)


def check_training_rows(problem: FitProblem, eps, beta, centers, embedding, eigenvalues) -> list:
    """Each training point's own weight row reproduces its row.

    Labeled points enter with their label, unlabeled ones without (c = 0).
    """
    W = problem.weights(eps)
    C = problem.indicator()
    Y = np.asarray(embedding)
    lab = np.asarray(C.sum(axis=0)).ravel()
    num = C.T @ np.asarray(centers) + beta * (W @ Y)
    den = (lab + beta * np.asarray(W.sum(axis=1)).ravel())[:, None]
    f = num / ((1.0 - np.asarray(eigenvalues))[None, :] * den)
    fails = []
    scale = max(1.0, float(np.abs(Y).max()))
    for name, rows in (("labeled", lab > 0), ("unlabeled", lab == 0)):
        if rows.any():
            err = np.abs(f[rows] - Y[rows]).max()
            if not err <= RESIDUAL_TOL * scale:
                fails.append("%s training rows not reproduced (%.3g)" % (name, err))
    return fails


def knn_predict(train_Y, train_labels, Q, k: int, num_classes: int) -> np.ndarray:
    """k-nearest-neighbour majority vote; vote ties go to the smaller class."""
    idx, _ = neighbours(Q, train_Y, k)
    votes = np.zeros((idx.shape[0], num_classes + 1))
    np.add.at(votes, (np.arange(idx.shape[0])[:, None], np.asarray(train_labels)[idx]), 1.0)
    return votes[:, 1:].argmax(axis=1) + 1


def lsq_predict(train_X, train_labels, Q, num_classes: int) -> np.ndarray:
    """One-vs-all least squares on [X | 1]; the highest score wins."""
    A = np.hstack([train_X, np.ones((train_X.shape[0], 1))])
    T = np.eye(num_classes)[np.asarray(train_labels) - 1]
    coef = np.linalg.lstsq(A, T, rcond=None)[0]
    return (np.hstack([Q, np.ones((Q.shape[0], 1))]) @ coef).argmax(axis=1) + 1


def check_accuracy(pred, truth, raw_error: float) -> list:
    """CCDR kNN error: within KNN_ERROR_SLACK of raw-feature kNN, and well below chance."""
    truth = np.asarray(truth)
    err = float(np.mean(np.asarray(pred) != truth))
    chance = 1.0 - np.bincount(truth).max() / truth.size
    fails = []
    if not err <= raw_error + KNN_ERROR_SLACK:
        fails.append("kNN error %.4f exceeds raw-feature error %.4f + %g" % (err, raw_error, KNN_ERROR_SLACK))
    if not err <= 0.5 * chance:
        fails.append("kNN error %.4f is not well below chance %.4f" % (err, chance))
    return fails


def sweep_row_failures(rows, expected: set, raw_errors: dict) -> dict:
    """Failure text per grid key for one sweep report.

    expected is the set of (pipeline, classifier, beta, m, graph_k, clf_k)
    keys the grid defines; raw_errors maps ("knn", clf_k) and ("linear", 0)
    to the own error on raw features. Keys missing from the report fail.
    """
    fails = {key: "row missing" for key in expected}
    for r in rows:
        key = (r.pipeline, r.classifier, r.beta, r.m, r.graph_k, r.clf_k)
        if key not in expected:
            continue
        why = []
        if r.note or not np.isfinite(r.error):
            why.append("failed row: %s" % (r.note or "nan"))
        elif not r.ci_low <= r.error <= r.ci_high:
            why.append("error %r outside [%r, %r]" % (r.error, r.ci_low, r.ci_high))
        if r.pipeline == "raw" and not why:
            want = raw_errors[(r.classifier, r.clf_k)]
            if r.error != want:
                why.append("raw error %r, own computation %r" % (r.error, want))
        if why:
            fails[key] = "; ".join(why)
        else:
            del fails[key]
    return fails
