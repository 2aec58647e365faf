"""Generalized eigensolver."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sparse

from ccdr.dataset import _indicator, gen_circles
from ccdr.embedding import build_augmented
from ccdr.graph import heat_weights, knn_graph, median_eps
from ccdr.spectral import GAP_TOL, generalized_eig


def random_laplacian(rng, p):
    """Dense symmetric graph Laplacian with positive degrees."""
    A = rng.uniform(0.1, 1.0, size=(p, p))
    A = (A + A.T) / 2.0
    np.fill_diagonal(A, 0.0)
    deg = A.sum(axis=1)
    return np.diag(deg) - A, deg


def dense_oracle(lap, deg, count):
    """Full-spectrum solve of the same problem through plain numpy."""
    s = 1.0 / np.sqrt(deg)
    S = s[:, None] * lap * s[None, :]
    S = (S + S.T) / 2.0
    vals, vecs = np.linalg.eigh(S)
    U = s[:, None] * vecs[:, :count]
    for l in range(count):
        i = np.argmax(np.abs(U[:, l]))
        if U[i, l] < 0:
            U[:, l] *= -1.0
    return vals[:count], U


def test_path_graph_by_hand():
    # two-vertex path: Lap = [[w,-w],[-w,w]], Dg = diag(w, w); eigenvalues
    # of the pencil are 0 and 2
    w = 0.7
    lap = np.array([[w, -w], [-w, w]])
    sol = generalized_eig(lap, np.array([w, w]), 2)
    assert sol.values == pytest.approx([0.0, 2.0], abs=1e-14)
    # constant eigenvector normalized in the Dg inner product
    assert sol.vectors[:, 0] == pytest.approx([1 / np.sqrt(2 * w)] * 2, abs=1e-14)


def test_matches_dense_oracle():
    rng = np.random.default_rng(40)
    for trial in range(20):
        p = int(rng.integers(4, 25))
        count = int(rng.integers(1, p + 1))
        lap, deg = random_laplacian(rng, p)
        sol = generalized_eig(lap, deg, count)
        vals, U = dense_oracle(lap, deg, count)
        assert sol.values == pytest.approx(vals, abs=1e-8)
        assert np.abs(sol.vectors - U).max() < 1e-8


def test_vectors_are_metric_orthonormal():
    rng = np.random.default_rng(41)
    lap, deg = random_laplacian(rng, 12)
    sol = generalized_eig(lap, deg, 6)
    G = sol.vectors.T @ np.diag(deg) @ sol.vectors
    assert np.abs(G - np.eye(6)).max() < 1e-10


def test_residual_of_generalized_problem():
    rng = np.random.default_rng(42)
    lap, deg = random_laplacian(rng, 15)
    sol = generalized_eig(lap, deg, 5)
    R = lap @ sol.vectors - deg[:, None] * sol.vectors * sol.values[None, :]
    assert np.abs(R).max() < 1e-10


def test_sign_convention():
    rng = np.random.default_rng(43)
    lap, deg = random_laplacian(rng, 10)
    sol = generalized_eig(lap, deg, 10)
    for l in range(10):
        col = sol.vectors[:, l]
        assert col[np.argmax(np.abs(col))] > 0


def test_deterministic_bit_identical():
    rng = np.random.default_rng(44)
    lap, deg = random_laplacian(rng, 14)
    a = generalized_eig(lap, deg, 4)
    b = generalized_eig(lap, deg, 4)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_scaling_both_sides_keeps_eigenvalues():
    # scaling Lap and Dg by c leaves eigenvalues fixed and shrinks the
    # Dg-normalized eigenvectors by sqrt(c)
    rng = np.random.default_rng(45)
    lap, deg = random_laplacian(rng, 9)
    c = 4.0
    base = generalized_eig(lap, deg, 3)
    scaled = generalized_eig(c * lap, c * deg, 3)
    assert scaled.values == pytest.approx(base.values, abs=1e-12)
    assert np.abs(scaled.vectors * np.sqrt(c) - base.vectors).max() < 1e-10


def test_generalized_validation():
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError, match="vertex 1 has nonpositive degree"):
        generalized_eig(lap, np.array([1.0, 0.0]), 1)
    with pytest.raises(ValueError, match="lap must be symmetric"):
        generalized_eig(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2), 1)
    with pytest.raises(ValueError, match="count must satisfy 1 <= count <= 2"):
        generalized_eig(lap, np.ones(2), 3)
    with pytest.raises(ValueError, match="lap must be square"):
        generalized_eig(np.ones((2, 3)), np.ones(2), 1)
    with pytest.raises(ValueError, match="deg must have length 2"):
        generalized_eig(lap, np.ones(3), 1)
    with pytest.raises(ValueError, match="lap rows must sum to zero"):
        generalized_eig(np.array([[1.0, -0.5], [-0.5, 1.0]]), np.ones(2), 1)


def test_warns_on_repeated_eigenvalue():
    with pytest.warns(RuntimeWarning, match="not unique"):
        generalized_eig(np.zeros((3, 3)), np.ones(3), 2)


def test_no_warning_with_clear_gap():
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generalized_eig(lap, np.ones(2), 2)


def test_exclude_ones_on_disconnected_graph():
    # two components: the kernel is 2-dimensional, so without deflation the
    # first two vectors span {1_A, 1_B} arbitrarily; with exclude_ones the
    # returned band is Dg-orthogonal to the all-ones vector
    W = np.zeros((6, 6))
    W[0, 1] = W[1, 0] = 1.0
    W[1, 2] = W[2, 1] = 1.0
    W[0, 2] = W[2, 0] = 1.0
    W[3, 4] = W[4, 3] = 2.0
    W[4, 5] = W[5, 4] = 2.0
    deg = W.sum(axis=1)
    lap = np.diag(deg) - W
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = generalized_eig(lap, deg, 4, exclude_ones=True)
    ones = np.ones(6)
    proj = sol.vectors.T @ (deg * ones)
    assert np.abs(proj).max() < 1e-8
    # residuals still hold: these are genuine eigenvectors of the pencil
    R = lap @ sol.vectors - deg[:, None] * sol.vectors * sol.values[None, :]
    assert np.abs(R).max() < 1e-8


def test_exclude_ones_count_limit():
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError, match="count must satisfy 1 <= count <= 1"):
        generalized_eig(lap, np.ones(2), 2, exclude_ones=True)


def test_exclude_ones_matches_connected_tail():
    # on a connected graph the deflated solve returns eigenpairs 2..count+1
    rng = np.random.default_rng(46)
    lap, deg = random_laplacian(rng, 10)
    plain = generalized_eig(lap, deg, 5)
    tail = generalized_eig(lap, deg, 4, exclude_ones=True)
    assert tail.values == pytest.approx(plain.values[1:], abs=1e-9)
    assert np.abs(tail.vectors - plain.vectors[:, 1:]).max() < 1e-7


def augmented_600(kind):
    """Sparse augmented Laplacian of order 600 from isotropic or clustered points."""
    rng = np.random.default_rng(48)
    n, L = 594, 6
    if kind == "iso":
        X = rng.standard_normal((n, 4))
    else:
        centres = 6.0 * rng.standard_normal((5, 4))
        X = centres[rng.integers(0, 5, n)] + 0.5 * rng.standard_normal((n, 4))
    labels = rng.integers(0, L + 1, n)
    labels[:L] = np.arange(1, L + 1)
    g = knn_graph(X, 5)
    W = heat_weights(g, X, median_eps(g, X))
    aug = build_augmented(_indicator(labels, L), W, 0.5)
    assert sparse.issparse(aug.lap) and aug.lap.shape == (600, 600)
    return aug


@pytest.mark.parametrize("kind", ["iso", "clustered"])
@pytest.mark.parametrize("exclude_ones", [False, True])
def test_sparse_solve_matches_dense(kind, exclude_ones):
    aug = augmented_600(kind)
    got = generalized_eig(aug.lap, aug.deg, 8, exclude_ones=exclude_ones)
    want = generalized_eig(aug.lap.toarray(), aug.deg, 8, exclude_ones=exclude_ones)
    assert np.abs(got.values - want.values).max() <= 1e-10
    assert np.abs(got.vectors - want.vectors).max() <= 1e-8


def test_sparse_validation_and_full_spectrum_requests():
    rng = np.random.default_rng(49)
    lap, deg = random_laplacian(rng, 8)
    full = generalized_eig(sparse.csr_matrix(lap), deg, 7, exclude_ones=True)
    dense = generalized_eig(lap, deg, 7, exclude_ones=True)
    assert np.array_equal(full.values, dense.values)
    skew = sparse.csr_matrix(np.triu(lap))
    with pytest.raises(ValueError, match="lap must be symmetric"):
        generalized_eig(skew, deg, 2)


def test_sparse_non_convergence_is_a_linalg_error(lanczos_fails):
    lap, deg = random_laplacian(np.random.default_rng(50), 8)
    with pytest.raises(np.linalg.LinAlgError, match="Lanczos solve did not converge"):
        generalized_eig(sparse.csr_matrix(lap), deg, 2)


def test_sparse_solve_returns_a_multiple_kernel_exactly():
    # the 4-NN graph of these 80 circle points has 3 components, so
    # eigenvalue 0 is two-fold off the constant, and the next one is 8e-9:
    # one Krylov sequence holds only one direction of the kernel, and a
    # solve that misses the other returns 8e-9 in its place
    ds = gen_circles(40, [1.0, 2.0], 0.02, seed=1)
    g = knn_graph(ds.points, 4)
    aug = build_augmented(np.zeros((0, 80)), heat_weights(g, ds.points, median_eps(g, ds.points)), 1.0)
    lap, deg = sparse.csr_matrix(aug.lap), aug.deg
    with pytest.warns(RuntimeWarning, match="not unique"):
        sol = generalized_eig(lap, deg, 3, exclude_ones=True)
    vals, _ = dense_oracle(lap.toarray(), deg, 4)
    assert vals[3] > 1e-9 and np.abs(sol.values - vals[1:]).max() <= 1e-12
    U = sol.vectors
    R = lap @ U - deg[:, None] * U * sol.values[None, :]
    assert np.abs(R).max() < 1e-10
    assert np.abs(U.T @ (deg[:, None] * U) - np.eye(3)).max() < 1e-10
    assert np.abs(U.T @ deg).max() < 1e-10


def test_sparse_solves_of_small_disconnected_graphs_match_dense():
    # every count, with and without the constant, on 1 to 3 components:
    # the kernel vectors, the Lanczos basis beside them and the full-solve
    # fallback when there is no room for it
    rng = np.random.default_rng(52)
    for trial in range(30):
        blocks = [random_laplacian(rng, int(q)) for q in rng.integers(2, 7, rng.integers(1, 4))]
        lap = sparse.block_diag([b[0] for b in blocks], format="csr")
        deg = np.concatenate([b[1] for b in blocks])
        p = lap.shape[0]
        for exclude_ones in (False, True):
            for count in range(1, p - exclude_ones + 1):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # repeated eigenvalue 0
                    sol = generalized_eig(lap, deg, count, exclude_ones=exclude_ones)
                vals, _ = dense_oracle(lap.toarray(), deg, count + exclude_ones)
                assert np.abs(sol.values - vals[exclude_ones:]).max() < 1e-9
                U = sol.vectors
                assert np.abs(lap @ U - deg[:, None] * U * sol.values).max() < 1e-9
                assert np.abs(U.T @ (deg[:, None] * U) - np.eye(count)).max() < 1e-9
                if exclude_ones:
                    assert np.abs(U.T @ deg).max() < 1e-9
