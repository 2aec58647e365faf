"""Neighbor graph, heat-kernel weights, and out-of-sample kernel rows."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from ccdr import graph
from ccdr.classify import sorted_neighbor_labels
from ccdr.graph import (
    NeighborGraph,
    WeightMatrix,
    heat_weights,
    kernel_rows,
    knn_graph,
    median_eps,
)


def brute_knn_edges(points, k):
    """Union-symmetrized kNN edge set by full enumeration, ties by index."""
    pts = [tuple(map(float, p)) for p in points]
    n = len(pts)
    edges = set()
    for i in range(n):
        cand = []
        for j in range(n):
            if j == i:
                continue
            d2 = sum((a - b) ** 2 for a, b in zip(pts[i], pts[j]))
            cand.append((d2, j))
        cand.sort()
        for _, j in cand[:k]:
            edges.add((min(i, j), max(i, j)))
    return edges


def test_line_points_k1():
    g = knn_graph(np.array([[0.0], [1.0], [3.0]]), 1)
    assert g.edge_set() == {(0, 1), (1, 2)}
    assert g.k == 1 and g.n_vertices == 3


def test_complete_graph_at_k_n_minus_1():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((6, 2))
    g = knn_graph(pts, 5)
    assert len(g.edge_set()) == 15


def test_unit_square_corner_ties():
    # each corner's two distance-1 neighbors tie; the lower index wins, and
    # the union then holds exactly 3 edges
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    g = knn_graph(pts, 1)
    assert g.edge_set() == {(0, 1), (0, 2), (1, 3)}


def test_matches_brute_force_enumeration():
    rng = np.random.default_rng(21)
    for n, k in [(8, 1), (10, 3), (15, 4), (12, 11)]:
        pts = rng.standard_normal((n, 3))
        g = knn_graph(pts, k)
        assert g.edge_set() == brute_knn_edges(pts, k)


def test_knn_validation():
    pts = np.zeros((3, 1)) + np.arange(3)[:, None]
    with pytest.raises(ValueError, match="k must satisfy"):
        knn_graph(pts, 3)
    with pytest.raises(ValueError, match="k must satisfy"):
        knn_graph(pts, 0)


def test_knn_graph_rejects_overflowing_distances():
    pts = np.random.default_rng(0).standard_normal((20, 3))
    msg = "squared distance from point %d to a k-nearest neighbour overflows; rescale the points"
    with pytest.raises(ValueError, match=msg % 0):
        knn_graph(pts * 1e155, 3)
    pts[7] *= 1e160  # only the far point's neighbours overflow
    with pytest.raises(ValueError, match=msg % 7):
        knn_graph(pts, 3)
    assert np.all(np.isfinite(knn_graph(pts[:7], 3).sq_dists))


def test_no_self_loops_and_sorted_pairs():
    rng = np.random.default_rng(22)
    g = knn_graph(rng.standard_normal((20, 2)), 4)
    assert np.all(g.edges[:, 0] < g.edges[:, 1])


def test_every_vertex_has_degree_at_least_one():
    rng = np.random.default_rng(23)
    for seed in range(5):
        pts = np.random.default_rng(seed).standard_normal((25, 2))
        g = knn_graph(pts, 1)
        deg = np.zeros(25, dtype=int)
        for i, j in g.edges:
            deg[i] += 1
            deg[j] += 1
        assert deg.min() >= 1


def test_edge_sets_nest_as_k_grows():
    rng = np.random.default_rng(24)
    pts = rng.standard_normal((18, 2))
    prev = set()
    for k in (1, 2, 4, 8):
        cur = knn_graph(pts, k).edge_set()
        assert prev <= cur
        prev = cur


def test_heat_weights_values():
    pts = np.array([[0.0], [0.0], [2.0]])
    g = knn_graph(pts, 1)
    wm = heat_weights(g, pts, 4.0)
    W = wm.matrix.toarray()
    assert W[0, 1] == 1.0  # duplicate points
    assert W[0, 2] == math.exp(-1.0)  # d^2 equals eps
    assert W[1, 2] == 0.0  # non-edge: vertex 2 ties at distance 2, index 0 wins


def test_heat_weights_validation():
    pts = np.array([[0.0], [1.0]])
    g = knn_graph(pts, 1)
    with pytest.raises(ValueError, match="eps must be positive"):
        heat_weights(g, pts, 0.0)


def test_weight_matrix_symmetry_is_exact():
    rng = np.random.default_rng(25)
    pts = rng.standard_normal((40, 3))
    g = knn_graph(pts, 5)
    W = heat_weights(g, pts, median_eps(g, pts)).matrix.toarray()
    assert np.max(np.abs(W - W.T)) == 0.0
    assert np.all(np.diag(W) == 0.0)


def test_weights_increase_strictly_with_eps():
    rng = np.random.default_rng(26)
    pts = rng.standard_normal((15, 2))
    g = knn_graph(pts, 3)
    w1 = heat_weights(g, pts, 0.5).matrix.toarray()
    w2 = heat_weights(g, pts, 1.5).matrix.toarray()
    on_edge = w1 > 0
    assert np.all(w2[on_edge] > w1[on_edge])


def test_median_eps_on_line():
    pts = np.array([[0.0], [1.0], [3.0]])
    g = knn_graph(pts, 1)
    # edge squared lengths are 1 and 4; their median is 2.5
    assert median_eps(g, pts) == 2.5


def test_edge_sq_distances_match_direct():
    rng = np.random.default_rng(27)
    pts = rng.standard_normal((12, 2))
    g = knn_graph(pts, 3)
    assert g.sq_dists.shape == (g.edges.shape[0],)
    for (i, j), v in zip(g.edges, g.sq_dists):
        assert v == pytest.approx(np.sum((pts[i] - pts[j]) ** 2), rel=1e-12)


def dense_rows(nbrs, w, n):
    """Scatter kernel_rows' (nbrs, w) into dense (q, n) rows, 0 elsewhere."""
    out = np.zeros((nbrs.shape[0], n))
    out[np.arange(nbrs.shape[0])[:, None], nbrs] = w
    return out


def test_kernel_row_agrees_with_weight_row_for_training_point():
    rng = np.random.default_rng(28)
    pts = rng.standard_normal((20, 2))
    g = knn_graph(pts, 4)
    eps = median_eps(g, pts)
    W = heat_weights(g, pts, eps).matrix.toarray()
    for i in (0, 7, 19):
        # k+1 covers self plus neighbors
        row = dense_rows(*kernel_rows(pts[i : i + 1], pts, 5, eps), 20)[0]
        nbrs = np.nonzero(row)[0]
        for j in nbrs:
            if W[i, j] > 0:
                assert row[j] == W[i, j]


def test_kernel_row_equidistant_ties_by_index():
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    nbrs, w = kernel_rows(np.array([[0.5, 0.5]]), sq, 2, 0.7)
    assert nbrs.tolist() == [[0, 1]]
    row = dense_rows(nbrs, w, 4)[0]
    v = math.exp(-0.5 / 0.7)
    assert row == pytest.approx([v, v, 0.0, 0.0], abs=0.0)


def test_kernel_row_matches_brute_force():
    rng = np.random.default_rng(29)
    pts = rng.standard_normal((10, 3))
    for t in range(5):
        x = rng.standard_normal(3)
        k, eps = 4, 1.3
        nbrs, w = kernel_rows(x[None], pts, k, eps)
        row = dense_rows(nbrs, w, 10)[0]
        d2 = [(sum((a - b) ** 2 for a, b in zip(x, p)), j) for j, p in enumerate(pts)]
        d2.sort()
        keep = {j for _, j in d2[:k]}
        assert nbrs[0].tolist() == [j for _, j in d2[:k]]  # nearest first
        for j in range(10):
            want = math.exp(-d2list(d2, j) / eps) if j in keep else 0.0
            assert row[j] == pytest.approx(want, rel=1e-12)


def d2list(d2, j):
    for v, jj in d2:
        if jj == j:
            return v
    raise KeyError(j)


def test_kernel_row_validation():
    pts = np.zeros((3, 1)) + np.arange(3)[:, None]
    with pytest.raises(ValueError, match="k must satisfy"):
        kernel_rows(np.zeros((1, 1)), pts, 3, 1.0)
    with pytest.raises(ValueError, match="eps must be positive"):
        kernel_rows(np.zeros((1, 1)), pts, 1, 0.0)


def test_kernel_rows_match_single_row_calls():
    rng = np.random.default_rng(30)
    pts = rng.standard_normal((12, 2))
    Q = rng.standard_normal((5, 2))
    nbrs, w = kernel_rows(Q, pts, 3, 0.9)
    assert nbrs.shape == w.shape == (5, 3)
    for i in range(5):
        one_nbrs, one_w = kernel_rows(Q[i : i + 1], pts, 3, 0.9)
        assert np.array_equal(nbrs[i], one_nbrs[0])
        assert np.array_equal(w[i], one_w[0])


def full_sort_neighbors(Q, X, k, skip_self=False):
    """Reference rule: the first k columns of a full stable argsort."""
    d2 = ((Q[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    if skip_self:
        np.fill_diagonal(d2, np.inf)
    idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(d2, idx, axis=1)


@st.composite
def grid_problem(draw):
    """Integer-grid points and queries, where distance ties are common."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 3))
    coords = st.integers(0, 3).map(float)
    X = draw(arrays(np.float64, (n, d), elements=coords))
    Q = draw(arrays(np.float64, (draw(st.integers(1, 12)), d), elements=coords))
    k = draw(st.integers(1, n - 1))
    return X, Q, k


# one query row per block, then the default block size
BLOCK_SIZES = (1, graph._BLOCK_ENTRIES)
# _SCREEN_MIN_WORK values: every call screened, then every call exact
ROUTES = (0, 1 << 62)


def assert_nearest_follows_the_full_sort(X, Q, k):
    for block in BLOCK_SIZES:
        for route in ROUTES:
            with mock.patch.object(graph, "_BLOCK_ENTRIES", block), \
                    mock.patch.object(graph, "_SCREEN_MIN_WORK", route):
                for skip_self, queries in ((False, Q), (True, X)):
                    idx, d2 = graph._nearest(queries, graph._TrainIndex(X), k, skip_self=skip_self)
                    want_idx, want_d2 = full_sort_neighbors(queries, X, k, skip_self)
                    assert np.array_equal(idx, want_idx)
                    assert np.array_equal(d2, want_d2)


@settings(max_examples=150, deadline=None)
@given(grid_problem())
def test_nearest_equals_full_stable_argsort(problem):
    assert_nearest_follows_the_full_sort(*problem)


@st.composite
def grouped_problem(draw):
    """Integer-grid points with 2g <= n <= 4g + 17 for g = graph._GROUPS, so
    _kth_upper bounds rows from column-group minima and some columns fall
    outside the last whole group; k runs up to g. Some queries copy the
    last points, so those columns are often among the nearest."""
    g = graph._GROUPS
    n = draw(st.integers(2 * g, 4 * g + 17))
    d = draw(st.integers(1, 3))
    hi = draw(st.sampled_from([2, 4, 10]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, hi, (n, d)).astype(float)
    Q = rng.integers(0, hi, (draw(st.integers(1, 12)), d)).astype(float)
    Q = np.vstack([Q, X[n - 1 - rng.integers(0, 20, 4)]])
    return X, Q, draw(st.one_of(st.integers(1, 8), st.integers(1, g)))


@settings(max_examples=40, deadline=None)
@given(grouped_problem())
def test_nearest_equals_full_stable_argsort_past_the_group_bound(problem):
    assert_nearest_follows_the_full_sort(*problem)


# from 1100 columns on, n // 16 > graph._GROUPS and the group count grows with n
@pytest.mark.parametrize("n", [5, 127, 128, 129, 200, 256, 273, 700, 1100, 1553, 2047, 2100])
def test_kth_upper_bounds_each_rows_kth_value(n):
    # integer values tie often, and inf stands for a skipped diagonal or an
    # overflowed distance; some rows hold fewer than k finite entries
    rng = np.random.default_rng(n)
    for k in sorted({1, 2, 5, 16, 17, 40, graph._GROUPS, n - 1} & set(range(1, n))):
        S = rng.integers(0, 6, (40, n)).astype(float)
        S[rng.random(S.shape) < 0.1] = np.inf
        S[np.arange(40), np.arange(40) % n] = np.inf
        S[0] = np.inf
        S[1, : n - 1] = np.inf
        S[2] = -np.arange(n, dtype=float)  # the k smallest in the last columns
        kth = np.partition(S, k - 1, axis=1)[:, k - 1]
        u, mins = graph._kth_upper(S, k)
        assert u.shape == (40,)
        assert np.all(u >= kth)
        assert np.all(np.count_nonzero(S <= u[:, None], axis=1) >= k)
        # the group-pruned scan finds every entry at or below the bound
        assert np.array_equal(graph._at_or_below(S, mins, u), np.flatnonzero(S <= u[:, None]))
        assert mins.shape[1] == (n if n < 2 * graph._groups(n, k) else graph._groups(n, k))
        if n < 2 * graph._groups(n, k):
            assert np.array_equal(u, kth)


@settings(max_examples=100, deadline=None)
@given(grid_problem())
def test_graph_kernel_and_classifier_follow_the_full_sort(problem):
    X, Q, k = problem
    n = X.shape[0]
    idx, d2 = full_sort_neighbors(X, X, k, skip_self=True)
    rows = np.repeat(np.arange(n), k)
    want_edges = set(zip(np.minimum(rows, idx.ravel()).tolist(),
                         np.maximum(rows, idx.ravel()).tolist()))
    qidx, qd2 = full_sort_neighbors(Q, X, k)
    labels = np.arange(n) * 10
    for route in ROUTES:
        with mock.patch.object(graph, "_SCREEN_MIN_WORK", route):
            g = knn_graph(X, k)
            assert g.edge_set() == want_edges
            for (i, j), v in zip(g.edges, g.sq_dists):
                assert v == np.sum((X[i] - X[j]) ** 2)
            nbrs, w = kernel_rows(Q, X, k, 1.7)
            assert np.array_equal(nbrs, qidx)
            assert np.array_equal(w, np.exp(-qd2 / 1.7))
            got = sorted_neighbor_labels(X, labels, Q, k)
            assert np.array_equal(got, labels[qidx])


def all_pair_sq_dists(Q, X):
    """graph._sq_dists on every (query, training point) pair, as a q x n array."""
    rows = np.repeat(np.arange(Q.shape[0]), X.shape[0])
    cols = np.tile(np.arange(X.shape[0]), Q.shape[0])
    QT, XT = np.ascontiguousarray(Q.T), np.ascontiguousarray(X.T)
    return graph._sq_dists(QT, XT, rows, cols).reshape(Q.shape[0], X.shape[0])


@pytest.mark.parametrize("d", [1, 2, 5, 8, 14, 36, 100])
def test_sequential_column_sum_is_cdist_bit_for_bit(d):
    # the refine's contract: every distance the screen returns is cdist's
    rng = np.random.default_rng(d)
    for scale, offset in ((1.0, 0.0), (1e-3, 7.0), (1e5, -3e6), (1e-120, 1e-110)):
        col_scale = scale * 10.0 ** rng.uniform(-3, 3, d)  # mixed scales
        X = rng.standard_normal((30, d)) * col_scale + offset
        Q = rng.standard_normal((20, d)) * col_scale + offset
        assert np.array_equal(all_pair_sq_dists(Q, X), cdist(Q, X, "sqeuclidean"))


@st.composite
def float_pairs(draw):
    """Queries and points of any finite floats up to 1e100, 1 to 40 columns."""
    d = draw(st.integers(1, 40))
    coords = st.floats(-1e100, 1e100)
    Q = draw(arrays(np.float64, (draw(st.integers(1, 4)), d), elements=coords))
    X = draw(arrays(np.float64, (draw(st.integers(1, 4)), d), elements=coords))
    return Q, X


@settings(max_examples=200, deadline=None)
@given(float_pairs())
def test_sequential_column_sum_is_cdist_on_any_floats(pair):
    Q, X = pair
    assert np.array_equal(all_pair_sq_dists(Q, X), cdist(Q, X, "sqeuclidean"))


def cdist_sort_neighbors(Q, X, k, skip_self=False):
    """Reference rule on cdist values: the first k columns of a full stable argsort."""
    d2 = cdist(Q, X, "sqeuclidean")
    if skip_self:
        np.fill_diagonal(d2, np.inf)
    idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(d2, idx, axis=1)


def screened_nearest(Q, X, k, skip_self=False):
    """_nearest with every call sent to the screen; also says whether any
    block fell back to the exact cdist path."""
    with mock.patch.object(graph, "_SCREEN_MIN_WORK", 0), \
            mock.patch.object(graph, "cdist", wraps=cdist) as spy:
        idx, d2 = graph._nearest(Q, graph._TrainIndex(X), k, skip_self=skip_self)
    return idx, d2, spy.called


# n // 16 > graph._GROUPS, so the group count grows with n (n // 16 groups
# for small k), and n is not a multiple of 16, so tail columns remain
WIDE = st.integers(1100, 2100).filter(lambda v: v % 16)


@st.composite
def scan_problem(draw, sizes=None):
    """n from 2g to 6g and not a multiple of g = graph._GROUPS unless sizes
    is given, so rows are scanned by whole groups plus tail columns; integer
    grids (ties) or Gaussian points at mixed scales, with duplicate rows; k
    up to n - 1, where 4k > n / 2 makes every column its own group. Some
    queries copy training points."""
    g = graph._GROUPS
    if sizes is None:
        sizes = st.integers(2 * g, 6 * g).filter(lambda v: v % g)
    n = draw(sizes)
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(0, 3, (n, d)).astype(float)
    else:
        scale = 10.0 ** draw(st.integers(-3, 3))
        X = rng.standard_normal((n, d)) * scale + draw(st.sampled_from([0.0, 1e3]))
    X[rng.integers(0, n, n // 4)] = X[rng.integers(0, n, n // 4)]
    Q = np.vstack([rng.standard_normal((draw(st.integers(1, 10)), d)) * X.std(),
                   X[rng.integers(0, n, 5)]])
    return X, Q, draw(st.one_of(st.integers(1, 8), st.integers(1, n - 1)))


def assert_scan_follows_the_full_sort(X, Q, k, rows=5):
    # both routes, in blocks of `rows` query rows and in one block, against
    # cdist plus a full stable sort
    index = graph._TrainIndex(X)
    for skip_self, queries in ((False, Q), (True, X)):
        want_idx, want_d2 = cdist_sort_neighbors(queries, X, k, skip_self)
        for route in ROUTES:
            for block in (rows * X.shape[0], graph._BLOCK_ENTRIES):
                with mock.patch.object(graph, "_SCREEN_MIN_WORK", route), \
                        mock.patch.object(graph, "_BLOCK_ENTRIES", block):
                    idx, d2 = graph._nearest(queries, index, k, skip_self=skip_self)
                assert np.array_equal(idx, want_idx)
                assert np.array_equal(d2, want_d2)


@settings(max_examples=50, deadline=None)
@given(scan_problem())
def test_group_pruned_scan_follows_the_full_sort(problem):
    assert_scan_follows_the_full_sort(*problem)


@settings(max_examples=10, deadline=None)
@given(scan_problem(WIDE))
def test_group_pruned_scan_follows_the_full_sort_with_groups_sized_to_n(problem):
    assert_scan_follows_the_full_sort(*problem, rows=97)


def _adversarial(case):
    """(Q, X, k, and whether a screened search falls back to cdist for the
    queries and for X against itself)."""
    rng = np.random.default_rng(17)
    if case == "offset 1e6":
        X = rng.standard_normal((400, 5)) + 1e6
        return rng.standard_normal((300, 5)) + 1e6, X, 5, False, False
    if case == "near duplicates":
        base = rng.standard_normal((200, 4))
        X = np.vstack([base, np.nextafter(base, np.inf)])  # x and x + 1 ulp
        Q = np.vstack([base[:60], np.nextafter(base[60:120], -np.inf)])
        return Q, X, 3, False, False
    if case == "d = 1":
        return rng.standard_normal((300, 1)), rng.standard_normal((500, 1)), 7, False, False
    if case == "integer grid ties":
        X = rng.integers(0, 4, (600, 3)).astype(float)
        return rng.integers(0, 4, (200, 3)).astype(float), X, 10, False, False
    if case == "squares overflow":
        X = rng.standard_normal((300, 3)) * 1e155
        return rng.standard_normal((40, 3)) * 1e155, X, 4, True, True
    if case == "candidates over the cap":
        X = rng.standard_normal((3000, 2))
        X[0] = 1e9  # the far point's norm widens every row's margin past the spread
        return rng.standard_normal((200, 2)), X, 4, True, True
    if case == "scale 1e30":
        # float32 squares overflow and float64 ones do not; the index's
        # power-of-two scaling brings the points into float32's range
        X = rng.standard_normal((400, 4)) * 1e30
        return rng.standard_normal((300, 4)) * 1e30, X, 5, False, False
    if case == "scale 1e-120":
        # float32 underflows unscaled
        X = rng.standard_normal((400, 4)) * 1e-120
        return rng.standard_normal((300, 4)) * 1e-120, X, 5, False, False
    if case == "subnormal points":
        # every square underflows, so every cdist value ties at 0; in float32
        # the points round to 0, and every column is a candidate
        X = rng.standard_normal((3000, 2)) * 1e-310
        return rng.standard_normal((200, 2)) * 1e-310, X, 4, True, True
    if case == "subnormal points, few columns":
        X = rng.standard_normal((400, 3)) * 1e-310
        return rng.standard_normal((300, 3)) * 1e-310, X, 5, False, False
    if case == "mixed column scales":
        scale = 10.0 ** rng.uniform(-30, 30, 6)
        X = rng.standard_normal((500, 6)) * scale
        return rng.standard_normal((300, 6)) * scale, X, 5, False, False
    if case == "queries far outside":
        # rows past float32's range at the training points' scale
        X = rng.standard_normal((400, 3))
        return rng.standard_normal((100, 3)) * 1e60, X, 4, True, False
    raise KeyError(case)


@pytest.mark.parametrize("case", [
    "offset 1e6", "near duplicates", "d = 1", "integer grid ties",
    "squares overflow", "candidates over the cap", "scale 1e30", "scale 1e-120",
    "subnormal points", "subnormal points, few columns", "mixed column scales",
    "queries far outside",
])
def test_screen_matches_the_full_sort_on_adversarial_inputs(case):
    Q, X, k, falls_back, self_falls_back = _adversarial(case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx, d2, fell_back = screened_nearest(Q, X, k)
        self_idx, self_d2, self_fell_back = screened_nearest(X, X, k, skip_self=True)
    want_idx, want_d2 = cdist_sort_neighbors(Q, X, k)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(d2, want_d2)
    assert fell_back == falls_back
    want_idx, want_d2 = cdist_sort_neighbors(X, X, k, skip_self=True)
    assert np.array_equal(self_idx, want_idx)
    assert np.array_equal(self_d2, want_d2)
    assert self_fell_back == self_falls_back


def test_screen_bound_stays_tight_on_gaussian_data():
    # a loose bound keeps more candidates per row, and pushes blocks over
    # the cap onto cdist; the refine sees every kept candidate
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3000, 36))
    Q = rng.standard_normal((1000, 36))
    k = 5
    real, refined = graph._sq_dists, []

    def counted(QT, XT, rows, cols):
        refined.append(rows.size)
        return real(QT, XT, rows, cols)

    with mock.patch.object(graph, "_sq_dists", counted):
        idx, d2, fell_back = screened_nearest(Q, X, k)
    assert not fell_back
    assert sum(refined) / Q.shape[0] <= 1.25 * k
    want_idx, want_d2 = cdist_sort_neighbors(Q, X, k)
    assert np.array_equal(idx, want_idx) and np.array_equal(d2, want_d2)


def test_screen_keeps_k_equal_n_in_sorted_neighbor_labels():
    rng = np.random.default_rng(23)
    X = rng.integers(0, 3, (40, 2)).astype(float)
    Q = rng.standard_normal((30, 2))
    labels = np.arange(40) * 10
    want = labels[cdist_sort_neighbors(Q, X, 40)[0]]
    for route in ROUTES:
        with mock.patch.object(graph, "_SCREEN_MIN_WORK", route):
            assert np.array_equal(sorted_neighbor_labels(X, labels, Q, 40), want)


def test_screened_search_memory_stays_at_the_block_scale():
    # q x n float64 is 48 MB here, and a (candidates x d) gather of one block
    # about 5 MB; the search may hold its inputs' copies, its outputs and a
    # few blocks of the float32 screen, never either
    rng = np.random.default_rng(29)
    X = rng.standard_normal((3000, 36))
    Q = rng.standard_normal((2000, 36))
    k = 200
    tracemalloc.start()
    try:
        _, _, fell_back = screened_nearest(Q, X, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not fell_back
    outputs = 2 * Q.shape[0] * k * 8
    copies = 2 * (Q.nbytes + X.nbytes)
    assert peak < outputs + copies + 4 * graph._BLOCK_ENTRIES * 4


def test_cdist_search_holds_one_block_of_distances():
    # one 250 x 1000 block: its distances are 2 MB, and the k-th smallest of
    # each row is found without a second block-sized copy beside them
    rng = np.random.default_rng(31)
    X = rng.standard_normal((1000, 5))
    Q = rng.standard_normal((250, 5))
    tracemalloc.start()
    try:
        idx, d2 = graph._nearest(Q, graph._TrainIndex(X), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want_idx, want_d2 = cdist_sort_neighbors(Q, X, 5)
    assert np.array_equal(idx, want_idx) and np.array_equal(d2, want_d2)
    assert peak < 1.5 * Q.shape[0] * X.shape[0] * 8


@pytest.mark.parametrize("route", ROUTES)
def test_kernel_rows_reject_a_query_dimension_mismatch(route):
    X = np.arange(12.0).reshape(6, 2)
    with mock.patch.object(graph, "_SCREEN_MIN_WORK", route):
        with pytest.raises(ValueError, match="queries have 3 coordinates but the "
                           "training points have 2"):
            kernel_rows(np.zeros((4, 3)), X, 2, 1.0)


def test_stored_edge_lengths_need_the_graph_vertices():
    pts = np.array([[0.0], [1.0], [3.0]])
    g = knn_graph(pts, 1)
    with pytest.raises(ValueError, match="graph's 3 vertices"):
        median_eps(g, pts[:2])
    with pytest.raises(ValueError, match="graph's 3 vertices"):
        heat_weights(g, pts[:2], 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_rows_reject_non_finite_queries(bad):
    pts = np.arange(12.0).reshape(6, 2)
    Q = np.zeros((3, 2))
    Q[1, 0] = bad
    with pytest.raises(ValueError, match="query 1 has a non-finite coordinate"):
        kernel_rows(Q, pts, 2, 1.0)
    with pytest.raises(ValueError, match="query 0 has a non-finite coordinate"):
        kernel_rows(Q[1:2], pts, 2, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_search_rejects_non_finite_training_points(bad):
    train = np.array([[0.0], [bad], [bad], [3.0]])
    Q = np.array([[0.1], [2.9]])
    for k in (2, 3):
        with pytest.raises(ValueError, match="training point 1 has a non-finite coordinate"):
            kernel_rows(Q, train, k, 1.0)
        with pytest.raises(ValueError, match="training point 1 has a non-finite coordinate"):
            sorted_neighbor_labels(train, [1, 1, 2, 2], Q, k)
