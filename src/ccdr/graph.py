"""Symmetrized kNN graphs with heat-kernel edge weights.

Distances are Euclidean; ties are broken by ascending point index, so
construction is deterministic. An edge {i, j} exists when i is among the k
nearest neighbours of j or vice versa (union symmetrization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial.distance import cdist

# Query rows per _nearest block are sized so one block holds about this
# many distances (2 MiB of float64), never the full q x n matrix.
_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class NeighborGraph:
    """Undirected kNN graph on n vertices.

    edges is an (E, 2) int64 array with i < j per row, sorted
    lexicographically; sq_dists holds each edge's squared Euclidean length
    (the cdist value every kernel weight is computed from), in edge order.
    """

    n_vertices: int
    k: int
    edges: np.ndarray
    sq_dists: np.ndarray

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(i), int(j)) for i, j in self.edges}


@dataclass(frozen=True)
class WeightMatrix:
    """Sparse symmetric nonnegative weights with zero diagonal."""

    matrix: csr_matrix
    eps: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def degrees(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()


def _check_finite(Q: np.ndarray) -> None:
    """Raise on the first query row with a NaN or infinite coordinate."""
    finite = np.isfinite(Q).all(axis=1)
    if not finite.all():
        raise ValueError("query %d has a non-finite coordinate" % int(np.argmin(finite)))


def _nearest(
    Q: np.ndarray, X: np.ndarray, k: int, skip_self: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Each query's k nearest rows of X, ordered by (distance, index).

    Returns (q, k) indices and their cdist squared distances, the one
    formula every graph and kernel weight is computed from. Query rows go
    in blocks of about _BLOCK_ENTRIES distances: a partition finds the k-th
    smallest value, a cumulative count of the values tied with it keeps
    the lowest-indexed ones, and only the k survivors are sorted. With
    skip_self, query i is row i of X and is not its own neighbour.
    Non-finite queries are an error.
    """
    _check_finite(Q)
    q, n = Q.shape[0], X.shape[0]
    idx = np.empty((q, k), dtype=np.int64)
    dist = np.empty((q, k))
    step = max(1, _BLOCK_ENTRIES // n)
    for s in range(0, q, step):
        e = min(q, s + step)
        d2 = cdist(Q[s:e], X, "sqeuclidean")
        if skip_self:
            d2[np.arange(e - s), np.arange(s, e)] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        keep = d2 <= kth
        # rows with more than k values at or below the k-th: keep the
        # lowest-indexed of the values tied with it
        over = np.nonzero(np.count_nonzero(keep, axis=1) > k)[0]
        if over.size:
            sub, t = d2[over], kth[over]
            tied = sub == t
            need = k - np.count_nonzero(sub < t, axis=1)[:, None]
            keep[over] = (sub < t) | (tied & (np.cumsum(tied, axis=1) <= need))
        rows, cols = np.nonzero(keep)  # ascending index within each row
        vals = d2[rows, cols].reshape(e - s, k)
        cols = cols.reshape(e - s, k)
        order = np.argsort(vals, axis=1, kind="stable")
        idx[s:e] = np.take_along_axis(cols, order, axis=1)
        dist[s:e] = np.take_along_axis(vals, order, axis=1)
    return idx, dist


def knn_graph(points: np.ndarray, k: int) -> NeighborGraph:
    """Symmetrized-union kNN graph under Euclidean distance.

    Requires 1 <= k <= n - 1. Distance ties are broken by ascending index.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("need an n x d matrix with n >= 2")
    n = points.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError("k must satisfy 1 <= k <= n - 1, got k=%d, n=%d" % (k, n))
    nbrs, d2 = _nearest(points, points, k, skip_self=True)
    rows = np.repeat(np.arange(n), k)
    cols = nbrs.ravel()
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    # cdist gives the same bits for (i, j) and (j, i), so either copy will do
    codes, first = np.unique(lo * n + hi, return_index=True)
    edges = np.column_stack([codes // n, codes % n])
    return NeighborGraph(n_vertices=n, k=k, edges=edges, sq_dists=d2.ravel()[first])


def _check_points(graph: NeighborGraph, points: np.ndarray) -> None:
    if np.shape(points)[0] != graph.n_vertices:
        raise ValueError("points must be the graph's %d vertices" % graph.n_vertices)


def median_eps(graph: NeighborGraph, points: np.ndarray) -> float:
    """Median of squared edge distances, the default heat-kernel width.

    The lengths are the ones stored on the graph; points, the graph's own
    vertices, are only checked for their count. A zero median, which
    duplicate points cause, is an error: no heat kernel has width 0.
    """
    _check_points(graph, points)
    if graph.edges.shape[0] == 0:
        raise ValueError("graph has no edges")
    eps = float(np.median(graph.sq_dists))
    if not eps > 0:
        raise ValueError(
            "median squared kNN edge length is 0, duplicate points? "
            "Pass eps explicitly"
        )
    return eps


def heat_weights(
    graph: NeighborGraph, points: np.ndarray, eps: float
) -> WeightMatrix:
    """Heat-kernel weights w_ij = exp(-||x_i - x_j||^2 / eps) on graph edges.

    The squared lengths are the ones stored on the graph, so each weight is
    bit-identical to kernel_rows on the same pair; points are only checked
    for their count. The two triangles share each computed value, so the
    matrix is exactly symmetric.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    _check_points(graph, points)
    n = graph.n_vertices
    w = np.exp(-graph.sq_dists / eps)
    i = graph.edges[:, 0]
    j = graph.edges[:, 1]
    mat = csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    )
    return WeightMatrix(matrix=mat, eps=float(eps))


def _heat_graph(
    points: np.ndarray, k: int, eps: float | None = None, eps_scale: float = 1.0
) -> WeightMatrix:
    """Heat weights on the kNN graph of points; eps = None selects the
    median heuristic scaled by eps_scale."""
    graph = knn_graph(points, k)
    if eps is None:
        eps = median_eps(graph, points) * float(eps_scale)
    return heat_weights(graph, points, eps)


def kernel_rows(
    X: np.ndarray, train_points: np.ndarray, k: int, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Heat-kernel weights from each query to its k nearest training points.

    Returns (nbrs, w), both (q, k): nbrs[i] indexes the k nearest training
    points to x_i, nearest first (ties by ascending index), and
    w[i, t] = exp(-||x_i - x_nbrs[i, t]||^2 / eps). Every other training
    point has weight 0. Non-finite queries are an error.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    train_points = np.asarray(train_points, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a q x d matrix")
    n = train_points.shape[0]
    if not 1 <= k < n:
        raise ValueError("k must satisfy 1 <= k <= n - 1, got k=%d, n=%d" % (k, n))
    nbrs, d2 = _nearest(X, train_points, k)
    return nbrs, np.exp(-d2 / eps)

