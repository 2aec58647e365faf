"""Symmetrized kNN graphs with heat-kernel edge weights.

Distances are Euclidean; ties are broken by ascending point index, so
construction is deterministic. An edge {i, j} exists when i is among the k
nearest neighbours of j or vice versa (union symmetrization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial.distance import cdist

# Query rows per _nearest block are sized so one block holds about this
# many distances, never the full q x n matrix: 8 MiB of the float32
# screen, 16 MiB on the exact cdist path. At n = 4435 that is 472 rows,
# so a 250-query batch is one block. On 2 vCPUs (satimage-clustered,
# medians of 314 interleaved runs) knn_graph took 41.0, 36.9, 34.0 and
# 32.8 ms at 2^19, 2^20, 2^21 and 2^22, and a 250-query batch 2.60, 2.36,
# 2.11 and 2.11 ms; 2^22 would add 8 MiB to the peak for 1 ms.
_BLOCK_ENTRIES = 1 << 21

# Calls with less work than this, counted as q * n * d multiply-adds for q
# queries against n training points in d dimensions, compute every block
# with cdist; larger calls screen each block with one GEMM first. The
# count of pairs alone sent every sweep-sized search (the 1000-point graph,
# 250- and 500-query batches against 1000 points) to the single-threaded
# cdist, where at d = 36 on 2 vCPUs the screen took knn_graph from 25 to
# 7.5 ms and a 250-query kernel_rows from 12.5 to 4.0 ms. Single queries
# against the satimage-sized training set (4435 x 36) stay on cdist.
_SCREEN_MIN_WORK = 1 << 20

# Each row's k-th value is bounded from the minima of
# g = max(_GROUPS, 4k, n // 16) column groups (_groups, _kth_upper), and
# the screen scans only the groups whose minimum is at or below the row's
# threshold (_at_or_below), w = n // g columns of each. Both passes are
# bound by memory and per-call overhead, not arithmetic: few groups make
# the minima's inner loops short and the scan gather many strided columns
# per candidate group; many groups make the minima and their partition
# large. On 2 vCPUs (satimage-clustered, k = 4, medians of 249 interleaved
# runs) knn_graph at n = 4435 took 41.3, 42.6, 36.0, 36.5 and 52.9 ms with
# g = 64, n // 8, n // 16, n // 32 and n // 4, and a 250-query batch 2.61,
# 2.45, 2.20, 2.26 and 3.27 ms. At n = 1000 the rule keeps g = 64; n // 4
# took knn_graph there from 4.2 to 4.5 ms.
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
_ETA = 2.0**-1074  # smallest float64 subnormal; bounds one underflow's error
_V = 2.0**-24  # unit roundoff of float32
_ETA32 = 2.0**-149  # smallest float32 subnormal


def _gamma(m: int, unit: float = _U) -> float:
    """Higham's gamma_m = m u / (1 - m u), the relative error of m roundings."""
    return m * unit / (1 - m * unit)


class _TrainIndex:
    """The training side of the neighbour search on the rows of X: the mean
    mu, the float32 rows [-2 b', fl32(||b'||^2)] of b' = fl32(s fl(x - mu))
    for an exact power of two s, the screen's error constants, norm bounds
    and a column-major copy of X. Every route reads X through it, so X must
    not change while the index is in use; a fitted model and a
    KnnClassifier build one each, on read-only arrays, and reuse it.
    Non-finite training points are an error.
    """

    def __init__(self, X: np.ndarray):
        _check_finite(X, "training point")
        n, d = X.shape
        self.X = X
        self.mu = X.mean(axis=0)
        xc = X - self.mu
        # float64 bound on max ||xc||^2: keeps a screened block's cdist finite
        xx = np.einsum("ij,ij->i", xc, xc)
        self.b_up = (xx.max() + d * _ETA) / (1.0 - _gamma(d))
        # s = 2^p takes max |xc| into [1/2, 1); p <= 450 keeps s^2 eta below
        # eta', p >= -1022 keeps s a normal float
        top = float(np.abs(xc).max(initial=0.0))
        p = min(max(-math.frexp(top)[1], -1022), 450)
        self.s = 2.0**p
        # a query row is screened when s^2 times its float64 norm bound is at
        # most 2^100 (capped at 2^1023, where s^2 2^1023 < 2^100 anyway), and
        # no row when d >= 2^22 (the bound needs d v small)
        self.a_max = math.ldexp(1.0, min(100 - 2 * p, 1023)) if d < 1 << 22 else -1.0
        self.Xa = np.empty((n, d + 1), dtype=np.float32)
        b = self.Xa[:, :d]
        np.multiply(xc, self.s, out=b, casting="same_kind")
        # squares of float32 numbers are exact in float64
        bb = np.einsum("ij,ij->i", b, b, dtype=np.float64)
        self.Xa[:, d] = bb
        b *= -2.0  # exact: a power-of-two scaling
        self.b32_up = bb.max() / (1.0 - _gamma(d))
        # |S_ij + ||a'_i||^2 - s^2 c_ij| <= kappa N_i + lam (_Screen's proof)
        w = _V + 2 * _U
        h = 2.0 * math.sqrt(d) * _ETA32
        k2 = w * (2.0 + w) + _gamma(d + 2) + (1.0 + w) * h
        self.kappa = (3.0 * _gamma(d + 1, _V) + _V + 2.0 * _gamma(d)
                      + 2.0 * (1.0 + h) * k2 / (1.0 - w) ** 2)
        self.lam = 16.0 * (d + 1) * _ETA32
        # column-major copy for the refine's one-coordinate gathers
        self.XT = np.ascontiguousarray(X.T)


class _Screen:
    """Certified float32 GEMM screen of queries Q against a _TrainIndex,
    one block of query rows at a time.

    The points are centred on the training mean, scaled by the index's
    power of two s and rounded to float32: a' per query, b' per training
    point. One float32 product per block gives
    S_ij = a'_i . (-2 b'_j) + fl32(||b'_j||^2), so that S_ij + ||a'_i||^2
    approximates s^2 D_ij for the squared distance D_ij = ||q_i - x_j||^2;
    the row constant ||a'_i||^2 does not change the order. Column j is a
    candidate of row i when S_ij <= T_i, a threshold that provably keeps
    every column whose cdist value c_ij is at or below the row's k-th
    smallest. The (distance, index) rule on the candidates' cdist values
    then picks the same k columns, with the same values, as on all n
    columns.

    Proof. u = 2^-53 and v = 2^-24 are the unit roundoffs of float64 and
    float32, gamma_m = m u / (1 - m u) and gamma'_m = m v / (1 - m v);
    eta = 2^-1074 and eta' = 2^-149 are their smallest subnormals, and a
    rounding that underflows is off by at most half of one. d columns, mu
    the computed mean, s = 2^p with p <= 450. alpha = s (q - mu) and
    beta = s (x - mu) are exact, so ||alpha - beta||^2 = s^2 D;
    A' = ||a'||^2, B' = max_j ||b'_j||^2, and N_i >= A'_i + B'. No bound
    depends on the order of a sum or on fused multiply-adds.
    (1) Inputs: a'_t = fl32(s fl(q_t - mu_t)), where the scaling is exact
        but may underflow, so |a'_t - alpha_t| <= w |alpha_t| + eta' with
        w = v + 2u; likewise b'. So e = (a' - b') - (alpha - beta) has
        ||e|| <= w R + h with R = ||alpha|| + ||beta||, h = 2 sqrt(d) eta',
        and | ||a' - b'||^2 - s^2 D | <= 2 R ||e|| + ||e||^2. From
        ||alpha|| <= (||a'|| + sqrt(d) eta') / (1 - w) and the same for
        beta, R <= (sqrt(2 N) + h) / (1 - w).
    (2) The product: S is the (d + 1)-term float32 dot product of [a', 1]
        with [-2 b', xx], xx = fl32(fl64(||b'||^2)). Squares of float32
        numbers are exact in float64, so |xx - ||b'||^2| <= w_d ||b'||^2 +
        eta' / 2 with w_d = v + 2 gamma_d. The product is off by at most
        gamma'_{d+1} (2 ||a'|| ||b'|| + xx) + (d + 1) eta', and
        ||a' - b'||^2 - A' = -2 a'.b' + ||b'||^2, so
        |S + A' - ||a' - b'||^2| <= (3 gamma'_{d+1} + w_d) N + (d + 2) eta'.
    (3) cdist sums the d nonnegative terms fl(q_t - x_t)^2, so
        s^2 |c - D| <= gamma_{d+2} s^2 D + s^2 d eta, and s^2 eta <= eta'.
    With s^2 D <= R^2, 2R <= 1 + R^2 and 2 sqrt(2N) <= 1 + 2N, (1)-(3) give
        |S_ij + A'_i - s^2 c_ij| <= E_i = kappa N_i + lambda,
        kappa = 3 gamma'_{d+1} + w_d + 2 (1 + h) k2 / (1 - w)^2,
        k2 = w (2 + w) + gamma_{d+2} + (1 + w) h, lambda = 16 (d + 1) eta'
        (the terms in h and eta' alone, with k2 <= 1 and h <= 1).
    Let u_i be any value at or above the row's k-th smallest S that k
    distinct columns J attain, S_ij <= u_i for j in J (_kth_upper gives
    one). For j in J, s^2 c_ij <= u_i + A'_i + E_i, so the row's k-th
    smallest c is at most (u_i + A'_i + E_i) / s^2. A column with c_ij at
    or below that has S_ij <= s^2 c_ij - A'_i + E_i <= T_i = u_i + 2 E_i.
    Computed: N_i adds fl64(||a'_i||^2) / (1 - gamma_d) and the same bound
    on B'; 2 E_i is then made of nonnegative floats with fewer than 32
    roundings, so the computed value times 1 + 64u, rounded once more, is
    an upper bound. u_i + 2 E_i is summed in float64, rounded to float32
    and stepped one float32 up, which lands above the exact sum.
    Scan: the columns before the last whole group are split into groups
    (_kth_upper), and a column with S_ij <= T_i lies in a group whose
    minimum is at most S_ij, so at most T_i. Comparing the columns of those
    groups and every column after the last whole group therefore finds
    every column with S_ij <= T_i, and no other (_at_or_below).
    Range: s takes every |b'_t| to at most 4, so B' <= 16 d. A query row is
    screened only when s^2 A_i <= 2^100 for the float64 bound A_i on
    ||fl(q_i - mu)||^2, so A'_i <= 2^101, and only while d < 2^22; then
    every partial sum of the product, every |S_ij| and T_i are below
    8 N_i < 2^105, far inside float32. It is also screened only while
    8 (A_i + B) is finite for the float64 bound B on max ||fl(x - mu)||^2,
    so no cdist value overflows. A block holding any other row takes the
    exact path, and those rows are zeroed before the cast.
    """

    def __init__(self, Q: np.ndarray, index: _TrainIndex):
        (q, d), n = Q.shape, index.X.shape[0]
        self.index = index
        qc = Q - index.mu
        a_up = (np.einsum("ij,ij->i", qc, qc) + d * _ETA) / (1.0 - _gamma(d))
        self.ok = np.isfinite(8.0 * (a_up + index.b_up)) & (a_up <= index.a_max)
        qc[~self.ok] = 0.0
        # [a', 1] against [-2 b', ||b'||^2]: one product gives S, ||b'||^2 included
        self.Qa = np.empty((q, d + 1), dtype=np.float32)
        a = self.Qa[:, :d]
        np.multiply(qc, index.s, out=a, casting="same_kind")
        self.Qa[:, d] = 1.0
        aa = np.einsum("ij,ij->i", a, a, dtype=np.float64)
        n_up = aa / (1.0 - _gamma(d)) + index.b32_up
        self.margin = 2.0 * (index.kappa * n_up + index.lam) * (1.0 + 64 * _U)
        self.QT = np.ascontiguousarray(Q.T)
        # the screen, reused by every block
        step = max(1, _BLOCK_ENTRIES // n)
        self.S = np.empty((min(step, q), n), dtype=np.float32)

    def candidates(self, s: int, e: int, k: int, skip_self: bool):
        """Candidates of query rows s:e as flat indices into the block's
        (e - s) x n distances and their cdist values, or None when the
        block takes the exact path."""
        if not self.ok[s:e].all():
            return None
        b, n = e - s, self.S.shape[1]
        S = np.matmul(self.Qa[s:e], self.index.Xa.T, out=self.S[:b])
        if skip_self:
            S[np.arange(b), np.arange(s, e)] = np.inf
        u, mins = _kth_upper(S, k)
        T = u + self.margin[s:e]
        T = np.nextafter(T.astype(np.float32), np.float32(np.inf))
        flat = _at_or_below(S, mins, T)
        # each candidate holds five 8-byte words (row, column, sum and two
        # gathered coordinates); the cap keeps them under the exact path's
        # float64 block
        if flat.size > _BLOCK_ENTRIES // 8:
            return None
        return flat, _sq_dists(self.QT, self.index.XT, flat // n + s, flat % n)


def _groups(n: int, k: int) -> int:
    """The column-group count of _kth_upper for n columns and the k-th value."""
    return max(_GROUPS, 4 * k, n // 16)


def _kth_upper(S: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of S, a value at or above its k-th smallest entry that k
    entries of the row are at or below, and the column-group minima it is
    taken from, a (b, g) array.

    Column j is in group j mod g, g = _groups(n, k), for the first w * g
    columns, w = n // g; the k-th smallest of the group minima is the
    value of k distinct columns. When n < 2g every column is its own group,
    the minima are S itself, and the value is the row's exact k-th
    smallest. A NaN entry never lowers a group's minimum.
    """
    b, n = S.shape
    g = _groups(n, k)
    if n < 2 * g:
        mins = S  # one column per group: no copy of the block
    else:
        mins = np.fmin.reduce(S[:, : n // g * g].reshape(b, n // g, g), axis=1)
    return np.partition(mins, k - 1, axis=1)[:, k - 1], mins


def _at_or_below(S: np.ndarray, mins: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Flat indices, ascending, of the entries of S at or below their row's T.

    mins are _kth_upper's column-group minima of S. A column at or below T_i
    lies in a group whose minimum is at or below T_i, so only the columns of
    those groups and the columns after the last whole group are compared;
    the gathered columns hold at most one block of S.
    """
    b, n = S.shape
    g = mins.shape[1]
    w = n // g
    rows, groups = np.nonzero(mins <= T[:, None])
    # (pairs, w): row i's columns t * g + c of each of its candidate groups c
    V = S[:, : w * g].reshape(b, w, g)[rows, :, groups]
    p, t = np.nonzero(V <= T[rows, None])
    r, c = np.nonzero(S[:, w * g :] <= T[:, None])
    flat = np.concatenate([rows[p] * n + t * g + groups[p], r * n + (w * g + c)])
    flat.sort()
    return flat


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


def _check_finite(Q: np.ndarray, what: str = "query") -> None:
    """Raise on the first row with a NaN or infinite coordinate."""
    finite = np.isfinite(Q).all(axis=1)
    if not finite.all():
        raise ValueError("%s %d has a non-finite coordinate" % (what, int(np.argmin(finite))))


def _nearest(
    Q: np.ndarray, index: _TrainIndex, k: int, skip_self: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Each query's k nearest rows of the indexed X, ordered by (distance, index).

    Returns (q, k) indices and their cdist squared distances, the one
    formula every graph and kernel weight is computed from. Query rows go
    in blocks of about _BLOCK_ENTRIES distances. A call of at least
    _SCREEN_MIN_WORK multiply-adds (q * n * d) screens each block with one
    float32 GEMM (_Screen) and computes cdist's bits for the candidates
    only; otherwise, or when a block holds a row outside the screen's range
    or keeps too many candidates, the block's candidates are the cdist
    values at or below _kth_upper's bound, which is at or above each row's
    k-th smallest. Either way the candidates hold every column at or below
    the k-th smallest cdist value, and the rule is the same: sort each
    row's candidates by (distance, index) and keep the first k. With skip_self, query i is row
    i of X and is not its own neighbour. Non-finite queries and a query
    dimension other than X's are errors.
    """
    X = index.X
    if Q.shape[1] != X.shape[1]:
        raise ValueError(
            "queries have %d coordinates but the training points have %d"
            % (Q.shape[1], X.shape[1])
        )
    _check_finite(Q)
    q, (n, d) = Q.shape[0], X.shape
    idx = np.empty((q, k), dtype=np.int64)
    dist = np.empty((q, k))
    step = max(1, _BLOCK_ENTRIES // n)
    screen = _Screen(Q, index) if q * n * d >= _SCREEN_MIN_WORK else None
    for s in range(0, q, step):
        e = min(q, s + step)
        found = screen.candidates(s, e, k, skip_self) if screen else None
        if found is None:
            d2 = cdist(Q[s:e], X, "sqeuclidean")
            if skip_self:
                d2[np.arange(e - s), np.arange(s, e)] = np.inf
            # a full compare: on the one-row blocks of single queries it is
            # cheaper than _at_or_below's fixed cost of a dozen small calls
            flat = np.flatnonzero(d2 <= _kth_upper(d2, k)[0][:, None])
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
    nbrs, d2 = _nearest(points, _TrainIndex(points), k, skip_self=True)
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


def kernel_rows(
    X: np.ndarray, train_points: np.ndarray, k: int, eps: float, _index=None
) -> tuple[np.ndarray, np.ndarray]:
    """Heat-kernel weights from each query to its k nearest training points.

    Returns (nbrs, w), both (q, k): nbrs[i] indexes the k nearest training
    points to x_i, nearest first (ties by ascending index), and
    w[i, t] = exp(-||x_i - x_nbrs[i, t]||^2 / eps). Every other training
    point has weight 0. Non-finite queries or training points are an
    error. _index, the search's _TrainIndex of train_points, is built per
    call when None.
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
    nbrs, d2 = _nearest(X, _index or _TrainIndex(train_points), k)
    return nbrs, np.exp(-d2 / eps)
