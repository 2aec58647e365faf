"""Degree-weighted generalized eigensolver for graph Laplacians.

The generalized problem Lap u = lambda Dg u with a positive diagonal Dg is
reduced by the similarity transform S = Dg^{-1/2} Lap Dg^{-1/2}; the
standard symmetric solve on S is then mapped back through u = Dg^{-1/2} v.
A dense Lap gets a full eigh. A sparse Lap gets the kernel of S exactly,
one vector per connected component of the graph, and the rest of the band
from a thick-restart Lanczos iteration (Wu and Simon 2000) on A = 2I - S
with the kernel kept out of its basis: off the kernel, the largest
eigenvalues of A are the smallest of S (the spectrum of S lies in [0, 2]
for a graph Laplacian). A sparse request that leaves no room for a Krylov
basis beside the kernel and the wanted vectors takes the full eigh too.
Returned eigenvectors are Dg-orthonormal and sign-fixed so the
largest-magnitude entry is positive (ties by lowest index).

Everything here runs on numpy, so its BLAS calls share numpy's OpenBLAS
worker pool with the neighbour search. scipy links a second OpenBLAS: after
a threaded call on one pool its worker spins for about 0.1 s, and BLAS work
on the other pool runs at about half speed meanwhile. No module of the
package calls scipy.linalg or scipy.sparse.linalg.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components

# Below this gap the eigenvector basis inside a cluster is not unique.
GAP_TOL = 1e-10

# Basis fills, the first and one per thick restart, before a Lanczos solve
# is reported as not converging. Satimage-shaped fits at m = 14 need 52-66
# at n = 4435 and 84-94 at n = 20000; the two-component eigenmap of
# gen_circles(300, [1, 2], 0.02, seed=1) at k = 8 and m = 2, whose band is
# 0 and 2.1e-7 with 5.7e-7 next, needs 312.
MAX_CYCLES = 1000


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


def _check_laplacian(M) -> None:
    scale = max(1.0, _abs_max(M))
    if _abs_max(M - M.T) > 1e-10 * scale:
        raise ValueError("lap must be symmetric")
    if _abs_max(M @ np.ones(M.shape[0])) > 1e-10 * scale:
        raise ValueError("lap rows must sum to zero")


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

    Lap is a graph Laplacian, as a dense array or a scipy sparse matrix:
    symmetric with zero row sums; deg must be strictly positive.
    Eigenvectors come back Dg-orthonormal (u^T Dg u = 1) in ascending
    eigenvalue order. A dense Lap gets a full numpy eigh. A sparse Lap gets
    its kernel exactly, one vector per connected component, and the rest of
    the band from the Lanczos iteration, which raises
    np.linalg.LinAlgError when it does not converge.

    With exclude_ones=True the solve is restricted to the complement of the
    constant vector (u^T Dg 1 = 0): the constant direction is moved out of
    the wanted end of the spectrum before the solve. On a connected graph
    this returns exactly the eigenpairs after the constant one; on a
    disconnected graph, where the kernel basis is otherwise arbitrary, it
    keeps the returned band Dg-orthogonal to the constant.
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
    _check_laplacian(lap)
    if sparse.issparse(lap):
        vals, vecs = _sparse_smallest(lap, deg, count, exclude_ones)
    else:
        vals, vecs = _dense_smallest(lap, deg, count, exclude_ones)
    U = _fix_signs((1.0 / np.sqrt(deg))[:, None] * vecs)
    _warn_small_gaps(vals)
    return EigenSolution(values=vals, vectors=U)


def _basis_size(n: int, count: int) -> int:
    """ARPACK's default Lanczos basis size in a space of dimension n."""
    return min(n - 1, max(2 * count + 1, 20))


def _dense_smallest(lap: np.ndarray, deg: np.ndarray, count: int, exclude_ones: bool):
    """Smallest `count` eigenpairs of S = Dg^{-1/2} Lap Dg^{-1/2} by a full eigh."""
    s = 1.0 / np.sqrt(deg)
    S = s[:, None] * lap * s[None, :]
    S = (S + S.T) / 2.0
    if exclude_ones:
        # Shift the constant direction above every eigenvalue; the max
        # absolute row sum bounds the spectral radius.
        v1 = np.sqrt(deg) / np.linalg.norm(np.sqrt(deg))
        S = S + (1.0 + float(np.abs(S).sum(axis=1).max())) * np.outer(v1, v1)
    vals, vecs = np.linalg.eigh(S)
    return vals[:count], vecs[:, :count]


def _sparse_smallest(lap, deg: np.ndarray, count: int, exclude_ones: bool):
    """Smallest `count` eigenpairs of S = Dg^{-1/2} Lap Dg^{-1/2}, Lap sparse.

    The kernel of S is known: sqrt(deg) on each connected component of the
    graph, zero elsewhere. Its vectors (those orthogonal to sqrt(deg) with
    exclude_ones) come first, with eigenvalue 0, and the Lanczos iteration
    finds the rest of the band with the whole kernel kept out of its basis,
    so a zero eigenvalue of any multiplicity neither stalls it nor hides
    from it.
    """
    p = lap.shape[0]
    parts, comp = connected_components(lap, directed=False)
    r = np.sqrt(deg)
    norms = np.sqrt(np.bincount(comp, weights=deg, minlength=parts))
    z = r / norms[comp]  # vertex i's entry of its component's unit kernel vector
    # the returned kernel vectors, in per-component coordinates
    zeros = min(count, parts - exclude_ones)
    Q = np.eye(parts, zeros, -int(exclude_ones))
    if exclude_ones and zeros:
        # columns 2.. of the Householder reflection that swaps e_1 and the
        # constant's coordinates: an orthonormal basis of their complement
        u = norms / np.linalg.norm(norms)
        u[0] -= 1.0
        Q -= (2.0 / (u @ u)) * np.outer(u, u[1 : zeros + 1])
    kernel = z[:, None] * Q[comp]
    if zeros == count:
        return np.zeros(count), kernel
    if _basis_size(p - parts, count - zeros) < count - zeros + 2:
        # no room for a Krylov basis beside the kernel and the wanted vectors
        return _dense_smallest(lap.toarray(), deg, count, exclude_ones)
    # the kernel does not fill the band, so parts <= count: its basis is small
    Z = np.zeros((parts, p))
    Z[comp, np.arange(p)] = z
    Ds = sparse.diags(1.0 / r)
    S = (Ds @ lap @ Ds).tocsr()
    S = ((S + S.T) * 0.5).tocsr()
    A = (2.0 * sparse.identity(p, format="csr") - S).tocsr()
    vals, vecs = _lanczos_smallest(A, count - zeros, Z)
    return np.concatenate([np.zeros(zeros), vals]), np.hstack([kernel, vecs])


def _lanczos_smallest(A, count: int, Z):
    """Largest `count` eigenpairs of the sparse A = 2I - S off the kernel
    of S, by thick-restart Lanczos; returned as the smallest of S.

    The rows of Z, an orthonormal basis of that kernel, lead the basis:
    each new vector is orthogonalised against them and against every
    Lanczos vector, twice (classical Gram-Schmidt, twice), so the kernel,
    at 2 on top of A, never enters the iteration. When the basis is full,
    the wanted Ritz vectors and the better half of the rest are kept and
    the basis is extended again from them. The stopping rule is ARPACK's
    at tol = 0: every wanted Ritz pair's residual is at most
    eps * max(|theta|, 1). The start vector is fixed, so results are
    bit-deterministic. Raises np.linalg.LinAlgError after MAX_CYCLES basis
    fills.
    """
    (o, p) = Z.shape
    ncv = _basis_size(p - o, count)
    keep = count + (ncv - count) // 2
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(0)

    def start_vector(basis):
        v = rng.standard_normal(p)
        for _ in range(2):
            v -= basis.T @ (basis @ v)
        return v / np.linalg.norm(v)

    W = np.empty((o + ncv + 1, p))  # the kernel, then the Lanczos vectors, one per row
    W[:o] = Z
    V = W[o:]
    T = np.zeros((ncv, ncv))  # A projected on V[:ncv]
    V[0] = start_vector(Z)
    k = 0
    for _ in range(MAX_CYCLES):
        for j in range(k, ncv):
            w = A @ V[j]
            B = W[: o + j + 1]
            h = B @ w
            w -= B.T @ h
            c = B @ w
            w -= B.T @ c
            T[j, j] = h[o + j] + c[o + j]
            beta = np.linalg.norm(w)
            if beta > eps:
                V[j + 1] = w / beta
            else:
                # the basis spans an invariant subspace: go on from a fresh
                # direction, uncoupled from it
                beta = 0.0
                V[j + 1] = start_vector(B)
            if j + 1 < ncv:
                T[j, j + 1] = T[j + 1, j] = beta
        theta, Y = np.linalg.eigh(T)
        resid = np.abs(beta * Y[-1, -count:])
        if np.all(resid <= eps * np.maximum(np.abs(theta[-count:]), 1.0)):
            # Ritz vectors as (p x ncv) @ (ncv x count): the layout whose
            # bits do not change with the BLAS thread count
            return 2.0 - theta[-count:][::-1], V[:ncv].T @ Y[:, -count:][:, ::-1]
        # thick restart: the top `keep` Ritz pairs, coupled to the residual
        V[:keep] = (V[:ncv].T @ Y[:, -keep:]).T
        V[keep] = V[ncv]
        T[:] = 0.0
        np.fill_diagonal(T[:keep, :keep], theta[-keep:])
        T[keep, :keep] = T[:keep, keep] = beta * Y[-1, -keep:]
        k = keep
    raise np.linalg.LinAlgError(
        "Lanczos solve did not converge (%d cycles, basis of %d for %d eigenpairs)"
        % (MAX_CYCLES, ncv, count)
    )
