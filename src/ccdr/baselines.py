"""Classical linear embeddings: PCA and Fisher LDA.

Both solve their small dense eigenproblems through `numpy.linalg`, whose
OpenBLAS also runs every neighbour-search GEMM. scipy ships a second
OpenBLAS with its own worker pool; after a threaded LAPACK call on that pool
its worker spins for about 0.1 s, and numpy GEMMs run at about half speed
meanwhile (measured on 2 vCPUs). Keeping these solves on numpy's pool
keeps a baseline fit from slowing the embed and predict batches that
follow it. The unsupervised Laplacian eigenmap is CCDR with no class nodes
and beta = 1, fitted by the harness's `lapeig` pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import _fix_signs, _warn_caller, _warn_small_gaps


@dataclass(frozen=True)
class LinearEmbedding:
    """Affine map x -> A (x - offset) with A of shape (m, d)."""

    A: np.ndarray
    offset: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return (X - self.offset) @ self.A.T

    @property
    def m(self) -> int:
        return self.A.shape[0]


def _check_scatter(scatter: np.ndarray) -> None:
    if not np.isfinite(scatter).all():
        raise ValueError("points must be finite, with a finite scatter matrix")


def pca_fit(points: np.ndarray, m: int) -> LinearEmbedding:
    """Top-m principal directions of the mean-centered covariance.

    Rows of A are orthonormal (A A^T = I), in non-increasing variance order
    and sign-fixed so each row's largest-magnitude entry is positive (ties by
    lowest index); the offset is the sample mean.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need an n x d matrix with n >= 2")
    n, d = X.shape
    if not 1 <= m <= d:
        raise ValueError("m must satisfy 1 <= m <= d = %d" % d)
    mean = X.mean(axis=0)
    Xc = X - mean
    C = (Xc.T @ Xc) / n
    _check_scatter(C)
    vals, vecs = np.linalg.eigh((C + C.T) / 2.0)
    _warn_small_gaps(vals[d - m:])
    A = _fix_signs(vecs[:, ::-1][:, :m]).T
    return LinearEmbedding(A=A.copy(), offset=mean)


def lda_fit(points: np.ndarray, labels: np.ndarray, m: int) -> LinearEmbedding:
    """Fisher discriminant directions: top-m generalized eigenvectors of
    the between-class scatter against the within-class scatter.

    Rows of A satisfy A C_W A^T = I within numerical tolerance. A singular
    within-class scatter falls back to a ridge of 1e-6 tr(C_W)/d with a
    warning. The offset is zero (projection y = A x).
    """
    X = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2:
        raise ValueError("points must be an n x d matrix")
    n, d = X.shape
    if labels.shape != (n,):
        raise ValueError("labels must have length n")
    if np.any(labels < 1):
        raise ValueError("LDA needs a class label (>= 1) on every point")
    if not 1 <= m <= d:
        raise ValueError("m must satisfy 1 <= m <= d = %d" % d)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("LDA needs at least two classes")
    mean = X.mean(axis=0)
    CW = np.zeros((d, d))
    CB = np.zeros((d, d))
    for k in classes:
        Xk = X[labels == k]
        mk = Xk.mean(axis=0)
        dk = Xk - mk
        CW += dk.T @ dk
        dm = (mk - mean)[:, None]
        CB += Xk.shape[0] * (dm @ dm.T)
    CW /= n
    CB /= n
    _check_scatter(CW)
    _check_scatter(CB)
    try:
        L = np.linalg.cholesky(CW)
    except np.linalg.LinAlgError:
        tr = float(np.trace(CW))
        ridge = 1e-6 * (tr / d if tr > 0 else 1.0)
        _warn_caller("within-class scatter is singular; adding ridge %g" % ridge)
        L = np.linalg.cholesky(CW + ridge * np.eye(d))
    # CB v = lambda L L^T v becomes the symmetric problem M w = lambda w with
    # M = L^{-1} CB L^{-T} and w = L^T v; then v = L^{-T} w is CW-orthonormal.
    M = np.linalg.solve(L, np.linalg.solve(L, CB).T)
    _, W = np.linalg.eigh((M + M.T) / 2.0)
    vecs = np.linalg.solve(L.T, W[:, ::-1][:, :m])
    A = _fix_signs(vecs).T
    return LinearEmbedding(A=A.copy(), offset=np.zeros(d))

