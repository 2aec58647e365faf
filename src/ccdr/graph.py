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

# Calls with fewer query-training pairs (q * n) than this compute every
# block with cdist; larger calls screen each block with one GEMM first. On
# a (q, n, d) grid with each call after non-BLAS work, as in a sweep, the
# screen was faster in every cell from q * n = 2^20 up and lost in some
# below it, most at small d (see CHANGES.md for the table).
_SCREEN_MIN_PAIRS = 1 << 20

# Each row's k-th value is bounded from the minima of g = max(_GROUPS, 4k)
# column groups (_kth_upper). At n = 4435, d = 36, k = 4 on 2 vCPUs,
# knn_graph took 110-128 ms with 32 groups, 94-121 ms with 64 and 99-114 ms
# with 128 (five runs each).
_GROUPS = 64


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

    def degrees(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()


_U = 2.0**-53  # unit roundoff of float64
_ETA = 2.0**-1074  # smallest subnormal; bounds the error of one underflow


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u), the relative error of m roundings."""
    return m * _U / (1 - m * _U)


class _Screen:
    """Certified GEMM screen for the k nearest rows of X, one block at a time.

    On points centred on the training mean, one BLAS product per block gives
    S_ij = qc_i . (-2 xc_j) + ||xc_j||^2, so that S_ij + ||qc_i||^2
    approximates the squared distance D_ij = ||q_i - x_j||^2; the row
    constant ||qc_i||^2 does not change the order. Column j is a candidate
    of row i when S_ij <= T_i, a threshold that provably keeps every column
    whose cdist value c_ij is at or below the row's k-th smallest. The
    (distance, index) rule on the candidates' cdist values then picks the
    same k columns, with the same values, as on all n columns.

    Proof. u = 2^-53, gamma_m = m u / (1 - m u), eta = 2^-1074, d columns.
    a = fl(q - mu) and b = fl(x - mu) for the computed mean mu; A = ||a||^2,
    B = max_j ||b_j||^2, N = A + B. No bound depends on the order of a sum
    or on fused multiply-adds; an underflowing product adds at most eta / 2.
    (1) cdist sums the d nonnegative terms fl(q_t - x_t)^2, so
        |c - D| <= g' D + d eta with g' = gamma_{d+2}.
    (2) Centring: a_t = alpha_t (1 + delta_t) with alpha = q - mu and
        |delta_t| <= u, likewise b from beta = x - mu. With
        e = (a - b) - (alpha - beta), ||e|| <= u (||alpha|| + ||beta||) and
        | ||a - b||^2 - D | <= 2 ||alpha - beta|| ||e|| + ||e||^2
        <= (4u + 2u^2)(||alpha||^2 + ||beta||^2) <= gamma_5 N,
        as ||alpha||^2 <= A / (1 - u)^2.
    (3) The product: S is the d + 1 term dot product of [a, 1] with
        [-2b, xx], where xx = fl(||b||^2) is off by at most gamma_d N + d eta.
        As 2 sum |a_t b_t| <= 2 ||a|| ||b|| <= N, S is off from
        S* = ||a - b||^2 - A by at most
        gamma_{d+1} (N + (1 + gamma_d) N) + gamma_d N + 3 d eta
        <= 3 gamma_{d+2} N + 3 d eta.
    So |S_ij + A_i - D_ij| <= E_i = 4 gamma_{d+5} N_i + 3 d eta.
    Let u_i be any value at or above the row's k-th smallest S that k
    distinct columns J attain, S_ij <= u_i for j in J (_kth_upper gives
    one). For j in J, D_ij <= u_i + A_i + E_i, so by (1)
    c_ij <= U_i = (1 + g')(u_i + A_i + E_i) + d eta: the row's k-th
    smallest c is at most U_i. A column with c_ij <= U_i has
    D_ij <= (U_i + d eta) / (1 - g'), so
    S_ij <= D_ij - A_i + E_i <= T_i = (U_i + d eta) / (1 - g') - A_i + E_i.
    With r = (1 + g') / (1 - g') and W_i = u_i + A_i + E_i >= 0,
        T_i = u_i + (r - 1) W_i + 2 E_i + 2 d eta / (1 - g').
    Computed: A and N are replaced by upper bounds from their computed
    values, (x + d eta) / (1 - gamma_d) per computed norm, and W_i by
    |u_i| + A_i + E_i. The margin T_i - u_i is then made of nonnegative
    floats with fewer than 32 roundings, so the computed margin times
    1 + 64u, rounded once more, is an upper bound; u_i + margin is rounded
    to nearest and stepped one float up, an upper bound too.
    Nothing overflows while 8 N_i is finite: every partial sum of the
    product and every |S_ij| is at most 2 N_i + E_i, and T_i at most 4 N_i.
    A block where 8 N_i is not finite takes the exact path.
    """

    def __init__(self, Q: np.ndarray, X: np.ndarray):
        (n, d), q = X.shape, Q.shape[0]
        mu = X.mean(axis=0)
        # [qc, 1] and [-2 xc, ||xc||^2]: one product gives S, ||xc||^2 included
        self.Qa = np.empty((q, d + 1))
        self.Xa = np.empty((n, d + 1))
        qc, xc = self.Qa[:, :d], self.Xa[:, :d]
        np.subtract(Q, mu, out=qc)
        np.subtract(X, mu, out=xc)
        self.Qa[:, d] = 1.0
        self.Xa[:, d] = np.einsum("ij,ij->i", xc, xc)
        xc *= -2.0  # exact: a power-of-two scaling
        up = 1.0 / (1.0 - _gamma(d))
        self.a_up = (np.einsum("ij,ij->i", qc, qc) + d * _ETA) * up
        n_up = self.a_up + (self.Xa[:, d].max() + d * _ETA) * up
        self.err = 4.0 * _gamma(d + 5) * n_up + 3.0 * d * _ETA
        self.finite = np.isfinite(8.0 * n_up)
        g = _gamma(d + 2)
        self.r1 = 2.0 * g / (1.0 - g)  # r - 1
        self.tail = 2.0 * d * _ETA / (1.0 - g)
        # column-major copies for the refine's one-coordinate gathers
        self.QT = np.ascontiguousarray(Q.T)
        self.XT = np.ascontiguousarray(X.T)
        # the screen, reused by every block
        step = max(1, _BLOCK_ENTRIES // n)
        self.S = np.empty((min(step, q), n))

    def candidates(self, s: int, e: int, k: int, skip_self: bool):
        """Candidates of query rows s:e as flat indices into the block's
        (e - s) x n distances and their cdist values, or None when the
        block takes the exact path."""
        if not self.finite[s:e].all():
            return None
        b, n = e - s, self.Xa.shape[0]
        S = np.matmul(self.Qa[s:e], self.Xa.T, out=self.S[:b])
        if skip_self:
            S[np.arange(b), np.arange(s, e)] = np.inf
        u = _kth_upper(S, k)
        a_up, err = self.a_up[s:e], self.err[s:e]
        margin = self.r1 * (np.abs(u) + a_up + err) + 2.0 * err + self.tail
        margin *= 1.0 + 64 * _U
        T = np.nextafter(u + margin, np.inf)
        if not np.isfinite(T).all():
            return None
        keep = S <= T[:, None]
        # each candidate holds five 8-byte words (row, column, sum and two
        # gathered coordinates); the cap keeps them under a block's memory
        if np.count_nonzero(keep) > _BLOCK_ENTRIES // 8:
            return None
        flat = np.flatnonzero(keep)
        return flat, _sq_dists(self.QT, self.XT, flat // n + s, flat % n)


def _kth_upper(S: np.ndarray, k: int) -> np.ndarray:
    """Per row of S, a value at or above its k-th smallest entry that k
    entries of the row are at or below.

    Column j is in group j mod g, g = max(_GROUPS, 4k); the k-th smallest
    of the group minima over the first w * g columns, w = n // g, is the
    value of k distinct columns. When w < 2 it is the exact k-th value.
    """
    b, n = S.shape
    g = max(_GROUPS, 4 * k)
    w = n // g
    if w < 2:
        return np.partition(S, k - 1, axis=1)[:, k - 1]
    mins = np.minimum.reduce(S[:, : w * g].reshape(b, w, g), axis=1)
    return np.partition(mins, k - 1, axis=1)[:, k - 1]


def _sq_dists(QT: np.ndarray, XT: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """cdist(..., "sqeuclidean") of the pairs (rows, cols), bit for bit.

    QT and XT are the points column by column. Like cdist, each pair's sum
    runs over the coordinates in order, acc += (q_t - x_t)^2, with no fused
    multiply-add; numpy's pairwise .sum(-1) differs from cdist for d >= 8.
    """
    acc = np.zeros(rows.size)
    a = np.empty(rows.size)
    b = np.empty(rows.size)
    for qt, xt in zip(QT, XT):
        qt.take(rows, out=a)
        xt.take(cols, out=b)
        np.subtract(a, b, out=a)
        np.multiply(a, a, out=a)
        acc += a
    return acc


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
    in blocks of about _BLOCK_ENTRIES distances. A call of at least
    _SCREEN_MIN_PAIRS query-training pairs screens each block with one GEMM
    (_Screen) and computes cdist's bits for the candidates only; otherwise,
    or when a block's screen is not finite or keeps too many candidates, the
    block's candidates are the cdist values at or below _kth_upper's bound,
    which is at or above each row's k-th smallest. Either way the
    candidates hold every column at or below the k-th smallest cdist value,
    and the rule is the same: sort each row's candidates by
    (distance, index) and keep the first k. With skip_self, query i is row
    i of X and is not its own neighbour. Non-finite queries and a query
    dimension other than X's are errors.
    """
    if Q.shape[1] != X.shape[1]:
        raise ValueError(
            "queries have %d coordinates but the training points have %d"
            % (Q.shape[1], X.shape[1])
        )
    _check_finite(Q)
    q, n = Q.shape[0], X.shape[0]
    idx = np.empty((q, k), dtype=np.int64)
    dist = np.empty((q, k))
    step = max(1, _BLOCK_ENTRIES // n)
    screen = _Screen(Q, X) if q * n >= _SCREEN_MIN_PAIRS else None
    for s in range(0, q, step):
        e = min(q, s + step)
        found = screen.candidates(s, e, k, skip_self) if screen else None
        if found is None:
            d2 = cdist(Q[s:e], X, "sqeuclidean")
            if skip_self:
                d2[np.arange(e - s), np.arange(s, e)] = np.inf
            flat = np.flatnonzero(d2 <= _kth_upper(d2, k)[:, None])
            found = flat, d2.ravel()[flat]
        idx[s:e], dist[s:e] = _first_k(*found, e - s, n, k)
    return idx, dist


def _first_k(flat, vals, b: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first k candidates of each of b rows by (value, column).

    flat indexes a b x n block in ascending order, as np.flatnonzero
    returns it, and each row has at least k candidates.
    """
    rows, cols = np.divmod(flat, n)
    counts = np.bincount(rows, minlength=b)
    starts = np.cumsum(counts) - counts
    # each row's candidates in column order, padded with inf after them; a
    # stable sort keeps equal values in column order
    V = np.full((b, counts.max()), np.inf)
    V[rows, np.arange(flat.size) - starts[rows]] = vals
    take = starts[:, None] + np.argsort(V, axis=1, kind="stable")[:, :k]
    return cols[take], vals[take]


def knn_graph(points: np.ndarray, k: int) -> NeighborGraph:
    """Symmetrized-union kNN graph under Euclidean distance.

    Requires 1 <= k <= n - 1. Distance ties are broken by ascending index.
    A kNN squared distance that overflows to inf is an error: the points
    need rescaling.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("need an n x d matrix with n >= 2")
    n = points.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError("k must satisfy 1 <= k <= n - 1, got k=%d, n=%d" % (k, n))
    nbrs, d2 = _nearest(points, points, k, skip_self=True)
    bad = np.flatnonzero(~np.isfinite(d2).all(axis=1))
    if bad.size:
        raise ValueError(
            "squared distance from point %d to a k-nearest neighbour overflows; "
            "rescale the points" % bad[0]
        )
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

