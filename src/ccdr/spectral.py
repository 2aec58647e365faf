"""Degree-weighted generalized eigensolver for graph Laplacians.

The generalized problem Lap u = lambda Dg u with a positive diagonal Dg is
reduced by the similarity transform S = Dg^{-1/2} Lap Dg^{-1/2}; the
standard symmetric solve on S is then mapped back through u = Dg^{-1/2} v.
A dense Lap gets a dense LAPACK solve; a scipy sparse Lap gets ARPACK's
Lanczos iteration on 2I - S, whose largest eigenvalues are the smallest of
S (the spectrum of S lies in [0, 2] for a graph Laplacian). Returned
eigenvectors are Dg-orthonormal and sign-fixed so the
largest-magnitude entry is positive (ties by lowest index).

This is the one module on scipy's LAPACK and ARPACK. scipy links its own
OpenBLAS, apart from numpy's: after a threaded call its worker spins for
about 0.1 s, and numpy GEMMs (the neighbour search) run at about half
speed meanwhile. The rest of the package does its dense linear algebra
through numpy.linalg for that reason. These solves stay on scipy because
numpy has no subset eigensolver (at order 300 on 2 vCPUs a full numpy eigh
took about 11 ms against 4-6 ms for the subset solve) and no Lanczos solver.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

# Below this gap the eigenvector basis inside a cluster is not unique.
GAP_TOL = 1e-10


@dataclass(frozen=True)
class EigenSolution:
    """Ascending eigenpairs of (Lap, Dg).

    values has shape (count,), vectors (p, count) with column l the
    eigenvector of values[l].
    """

    values: np.ndarray
    vectors: np.ndarray


def _fix_signs(U: np.ndarray) -> np.ndarray:
    """Flip columns so each column's largest-magnitude entry is positive."""
    U = U.copy()
    idx = np.argmax(np.abs(U), axis=0)
    flip = U[idx, np.arange(U.shape[1])] < 0
    U[:, flip] *= -1.0
    return U


def _abs_max(M) -> float:
    if sparse.issparse(M):
        return float(abs(M).max())
    return float(np.abs(M).max(initial=0.0))


def _check_symmetric(M, what: str) -> None:
    scale = max(1.0, _abs_max(M))
    if _abs_max(M - M.T) > 1e-10 * scale:
        raise ValueError("%s must be symmetric" % what)


def _warn_caller(message: str) -> None:
    """RuntimeWarning attributed to the first caller outside this package."""
    here = os.path.dirname(__file__)
    level, frame = 2, sys._getframe(1)
    while frame is not None and frame.f_code.co_filename.startswith(here):
        level, frame = level + 1, frame.f_back
    warnings.warn(message, RuntimeWarning, stacklevel=level)


def _warn_small_gaps(values: np.ndarray) -> None:
    if values.size >= 2 and np.any(np.diff(values) < GAP_TOL):
        _warn_caller(
            "eigenvalue gap below %g in the selected band; "
            "eigenvector choice is not unique" % GAP_TOL
        )


def generalized_eig(
    lap,
    deg: np.ndarray,
    count: int,
    *,
    exclude_ones: bool = False,
) -> EigenSolution:
    """Smallest `count` eigenpairs of Lap u = lambda Dg u, Dg = diag(deg).

    Lap is a dense array or a scipy sparse matrix; requires a symmetric Lap
    and strictly positive deg. Eigenvectors come back Dg-orthonormal
    (u^T Dg u = 1) in ascending eigenvalue order.

    With exclude_ones=True the solve is restricted to the complement of the
    constant vector (u^T Dg 1 = 0): the constant direction is moved out of
    the wanted end of the spectrum before the solve. On a connected graph
    this returns exactly the eigenpairs after the constant one; on a
    disconnected graph, where the kernel basis is otherwise arbitrary, it
    keeps the returned band Dg-orthogonal to the constant. A sparse solve
    that does not converge raises np.linalg.LinAlgError.
    """
    if not sparse.issparse(lap):
        lap = np.asarray(lap, dtype=np.float64)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError("lap must be square")
    p = lap.shape[0]
    deg = np.asarray(deg, dtype=np.float64).ravel()
    if deg.shape != (p,):
        raise ValueError("deg must have length %d" % p)
    bad = np.nonzero(deg <= 0)[0]
    if bad.size:
        raise ValueError("vertex %d has nonpositive degree" % int(bad[0]))
    limit = p - 1 if exclude_ones else p
    if not 1 <= count <= limit:
        raise ValueError(
            "count must satisfy 1 <= count <= %d, got %d" % (limit, count)
        )
    _check_symmetric(lap, "lap")
    if sparse.issparse(lap) and count >= p - 1:
        lap = lap.toarray()  # ARPACK needs count < p - 1; this is a full solve anyway
    s = 1.0 / np.sqrt(deg)
    v1 = np.sqrt(deg)
    v1 /= np.linalg.norm(v1)
    if sparse.issparse(lap):
        vals, vecs = _lanczos_smallest(lap, s, count, v1 if exclude_ones else None)
    else:
        S = s[:, None] * lap * s[None, :]
        S = (S + S.T) / 2.0
        if exclude_ones:
            # Shift the constant direction above every eigenvalue; the max
            # absolute row sum bounds the spectral radius.
            shift = 1.0 + float(np.abs(S).sum(axis=1).max())
            S = S + shift * np.outer(v1, v1)
        vals, vecs = eigh(S, subset_by_index=(0, count - 1))
    U = _fix_signs(s[:, None] * vecs)
    _warn_small_gaps(vals)
    return EigenSolution(values=vals, vectors=U)


def _lanczos_smallest(lap, s: np.ndarray, count: int, deflate):
    """Smallest `count` eigenpairs of S = diag(s) Lap diag(s) by ARPACK.

    Lanczos runs on A = 2I - S, whose top eigenvalues 2 - lambda are the
    wanted ones and are all of order 1, so ARPACK's relative tolerance at
    machine precision holds them to absolute accuracy. A unit vector
    `deflate` (the constant direction, an eigenvector of S with eigenvalue
    0) is removed as the rank-one term -2 v v^T, which moves it to 0 at
    the bottom of A. The start vector is fixed, so results are
    bit-deterministic.
    """
    p = lap.shape[0]
    Ds = sparse.diags(s)
    S = (Ds @ lap @ Ds).tocsr()
    S = ((S + S.T) * 0.5).tocsr()

    def matvec(x):
        x = np.ravel(x)
        y = 2.0 * x - S @ x
        if deflate is not None:
            y -= (2.0 * (deflate @ x)) * deflate
        return y

    v0 = np.random.default_rng(0).standard_normal(p)
    if deflate is not None:
        v0 -= (deflate @ v0) * deflate
    A = LinearOperator((p, p), matvec=matvec, dtype=np.float64)
    try:
        theta, vecs = eigsh(A, k=count, which="LA", v0=v0)
    except ArpackNoConvergence as exc:
        raise np.linalg.LinAlgError("Lanczos solve did not converge (%s)" % exc) from None
    order = np.argsort(-theta, kind="stable")
    return 2.0 - theta[order], vecs[:, order]
