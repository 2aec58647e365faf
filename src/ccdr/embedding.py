"""Class-constrained spectral embedding with an out-of-sample extension.

Class centers are added to the point graph as pseudo-nodes: the augmented
adjacency is

    G = [[0,   C  ],
         [C^T, bW ]]        (L + n vertices, b = beta)

with C the class indicator and W the heat-kernel weights. Writing
Dg = diag(G 1) and Lap = Dg - G, the embedding stacks class centers and
point coordinates into Zhat (m rows, L + n columns) and minimizes
tr(Zhat Lap Zhat^T) subject to Zhat Dg 1 = 0 and Zhat Dg Zhat^T = I. The
minimizer's rows are the generalized eigenvectors u_2 .. u_{m+1} of
Lap u = lambda Dg u; u_1 (the constant vector) is discarded, which is what
enforces the centering constraint.

A new point x with optional label c is embedded without refitting through

    f_l(x, c) = [1(c != 0) z_c(l) + b sum_j K(x, x_j) y_j(l)]
                / [(1 - lambda_l) (1(c != 0) + b sum_j K(x, x_j))]

which reproduces the training coordinates when K reproduces the point's
weight row. With no class nodes (L = 0) and b = 1 the problem is the
Laplacian eigenmap and f is its Nystrom extension, so eigenmaps are fitted
and extended by the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components

from .dataset import LabeledDataset, _indicator
from .graph import WeightMatrix, _TrainIndex, heat_weights, kernel_rows, knn_graph, median_eps
from .spectral import EigenSolution, _warn_caller, generalized_eig

# Retained eigenvalues must stay clear of 1 for the extension denominator.
LAMBDA_TOL = 1e-9
RESIDUAL_TOL = 1e-8

MODEL_FORMAT_VERSION = 1

# build_augmented returns a dense Laplacian up to this order p = L + n and
# a CSR one above it, so generalized_eig solves small problems with a full
# numpy eigh and large ones with its Lanczos iteration. At p = 300 on
# 2 vCPUs the full eigh took 8.9-9.4 ms and the Lanczos solve 3.7-11 ms
# for m = 2..14.
DENSE_MAX_ORDER = 300


@dataclass(frozen=True)
class AugmentedLaplacian:
    """Laplacian of the center-augmented graph.

    Vertices 0..L-1 are class centers, vertices L..L+n-1 the data points.
    lap is a dense array when p = L + n is at most DENSE_MAX_ORDER and a
    scipy CSR matrix otherwise.
    """

    lap: np.ndarray | sparse.csr_matrix
    deg: np.ndarray
    num_classes: int


@dataclass(frozen=True)
class CcdrModel:
    """Fitted embedding: class centers, point coordinates, and spectrum.

    centers has shape (L, m) with row k the center of class k + 1; embedding
    has shape (n, m) with row i the coordinates of training point i;
    eigenvalues holds lambda_2 .. lambda_{m+1} in ascending order. The
    package's constructors (fit, load_model) make every array read-only:
    the neighbour index built on the first embed_many reads train_points,
    which must not change after it.
    """

    centers: np.ndarray
    embedding: np.ndarray
    eigenvalues: np.ndarray
    beta: float
    eps: float
    k: int
    m: int
    train_points: np.ndarray
    train_labels: np.ndarray
    num_classes: int
    class_sizes: np.ndarray

    @property
    def n(self) -> int:
        return self.train_points.shape[0]

    @property
    def d(self) -> int:
        return self.train_points.shape[1]

    @cached_property
    def _index(self) -> _TrainIndex:
        return _TrainIndex(self.train_points)


def _read_only_model(**values) -> CcdrModel:
    """A CcdrModel of these field values, its arrays made read-only."""
    for v in values.values():
        if isinstance(v, np.ndarray):
            v.flags.writeable = False
    return CcdrModel(**values)


def build_augmented(C, W, beta: float) -> AugmentedLaplacian:
    """Assemble Dg and Lap = Dg - G for the center-augmented graph.

    C is the (L, n) 0/1 class indicator; W a WeightMatrix or a symmetric
    (n, n) array. L = 0 with beta = 1 gives the plain graph
    Laplacian D - W. G is assembled sparse; Lap comes back dense when
    p = L + n <= DENSE_MAX_ORDER and CSR otherwise. Every augmented row
    must have positive degree: an empty class or an unlabeled point with no
    weighted edge is an error.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2:
        raise ValueError("C must be an L x n matrix")
    L, n = C.shape
    if isinstance(W, WeightMatrix):
        W = W.matrix
    elif not sparse.issparse(W):
        W = np.asarray(W, dtype=np.float64)
    if W.shape != (n, n):
        raise ValueError("W must be n x n with n matching C")
    if not np.isfinite(beta) or beta < 0:
        raise ValueError("beta must be finite and nonnegative")
    Cs = sparse.csr_matrix(C)
    G = sparse.bmat([[None, Cs], [Cs.T, beta * sparse.csr_matrix(W)]], format="csr")
    G.eliminate_zeros()  # zero weights are not edges
    deg = np.asarray(G.sum(axis=1)).ravel()
    bad = np.nonzero(deg <= 0)[0]
    if bad.size:
        r = int(bad[0])
        what = (
            "class %d is empty" % (r + 1)
            if r < L
            else "point %d is unlabeled and has no weighted edge" % (r - L)
        )
        raise ValueError("vertex %d has nonpositive degree: %s" % (r, what))
    lap = (sparse.diags(deg) - G).tocsr()
    return AugmentedLaplacian(
        lap=lap if L + n > DENSE_MAX_ORDER else lap.toarray(),
        deg=deg,
        num_classes=L,
    )


def fit(
    ds: LabeledDataset,
    k: int = 4,
    eps: float | None = None,
    beta: float = 1.0,
    m: int = 2,
    eps_scale: float = 1.0,
) -> CcdrModel:
    """Fit the constrained embedding on a labeled dataset.

    eps = None selects the median of squared kNN edge distances, scaled by
    eps_scale; an explicit eps needs eps_scale = 1. The graph comes first: a
    graph that cannot be built is reported ahead of any bad argument. Then
    beta >= 0, m >= 1 and m + 1 <= L + n are required, and every class must
    have a labeled point; beta = 0 additionally needs a fully labeled
    dataset so every augmented-graph row keeps positive degree. Raises
    ValueError when a retained eigenvalue reaches 1 (then m is too large or
    beta too small for this graph) or when the fitted model fails a
    constraint identity beyond RESIDUAL_TOL, which a point the heat kernel
    has all but cut off can cause; warns (RuntimeWarning) when some
    connected component of the augmented graph holds no class node.
    """
    if not isinstance(ds, LabeledDataset):
        raise TypeError("ds must be a LabeledDataset")
    W = _heat_graph(ds.points, k, eps, eps_scale)
    return _solve(ds.points, ds.labels, ds.num_classes, W, k, beta, m)


def _heat_graph(
    points: np.ndarray, k: int, eps: float | None = None, eps_scale: float = 1.0
) -> WeightMatrix:
    """Heat weights on the kNN graph of points; eps = None selects the
    median heuristic scaled by eps_scale, which an explicit eps excludes."""
    if eps is not None and eps_scale != 1.0:
        raise ValueError("eps_scale scales the median eps; pass eps or eps_scale, not both")
    graph = knn_graph(points, k)
    if eps is None:
        eps = median_eps(graph, points) * float(eps_scale)
    return heat_weights(graph, points, eps)


def _spectrum(C: np.ndarray, W, beta: float, m: int) -> EigenSolution:
    """The m smallest nontrivial eigenpairs of the center-augmented graph.

    This is the one spectral solve of the package: CCDR with L class rows
    in C, and the Laplacian eigenmap with L = 0 and beta = 1. Warns
    (RuntimeWarning) when some connected component holds no class node.
    """
    aug = build_augmented(C, W, beta)
    L = aug.num_classes
    parts, comp = connected_components(aug.lap, directed=False)
    if parts > 1:
        # a component with no class node carries no label information, and
        # its indicator is a spurious eigenvector with eigenvalue 0
        anchored = np.zeros(parts, dtype=bool)
        anchored[comp[:L]] = True
        loose = int(np.count_nonzero(~anchored[comp[L:]]))
        if loose:
            what = "graph has %d connected components" % parts
            if L:
                what = "augmented %s and %d points sit in components with no class node" % (
                    what, loose)
            _warn_caller(what + "; eigenvalues near 0 then only tell the components apart")
    # The constant vector u_1 never enters: the solve is restricted to its
    # complement, which on a connected graph is the same as discarding it.
    return generalized_eig(aug.lap, aug.deg, m, exclude_ones=True)


def _solve(
    points: np.ndarray,
    labels: np.ndarray,
    L: int,
    W: WeightMatrix,
    k: int,
    beta: float,
    m: int,
) -> CcdrModel:
    """The beta- and m-dependent part of fit, on heat weights W built with
    graph degree k from points; it makes fit's argument checks. labels lie
    in {0, .., L}; L = 0 with beta = 1 is the Laplacian eigenmap."""
    if not np.isfinite(beta) or beta < 0:
        raise ValueError("beta must be finite and nonnegative")
    if m < 1:
        raise ValueError("m must be at least 1")
    if m + 1 > L + labels.size:
        raise ValueError("m + 1 must not exceed L + n = %d" % (L + labels.size))
    class_sizes = np.bincount(labels, minlength=L + 1)[1:]
    if np.any(class_sizes == 0):
        raise ValueError("class %d has no labeled points" % (int(np.argmin(class_sizes)) + 1))
    C = _indicator(labels, L)
    sol = _spectrum(C, W, beta, m)
    lam = sol.values.copy()
    if lam.max() >= 1.0 - LAMBDA_TOL:
        raise ValueError(
            "retained eigenvalue %.6g reaches 1; decrease m%s"
            % (float(lam.max()), " or increase beta" if L else "")
        )
    U = sol.vectors
    model = _read_only_model(
        centers=np.ascontiguousarray(U[:L].copy()),
        embedding=np.ascontiguousarray(U[L:].copy()),
        eigenvalues=lam,
        beta=float(beta),
        eps=W.eps,
        k=int(k),
        m=int(m),
        train_points=points.copy(),
        train_labels=labels.copy(),
        num_classes=int(L),
        class_sizes=class_sizes,
    )
    res = constraint_residuals(model, W=W)
    failed = max(res, key=res.get)
    if res[failed] > RESIDUAL_TOL:
        # name the point whose row identity is furthest off: it is usually
        # one the heat kernel has all but cut off
        i = int(np.argmax(_row_errors(model, W.matrix, C)))
        raise ValueError(
            "fitted model violates its %s identity (residual %.3g), worst at "
            "point %d with heat-kernel degree %.3g; try a larger eps or k"
            % (failed, res[failed], i, W.degrees()[i])
        )
    return model


def _stack(model: CcdrModel) -> np.ndarray:
    """Zhat, the m x (L + n) stacked solution [centers^T | embedding^T]."""
    return np.concatenate([model.centers.T, model.embedding.T], axis=1)


def constraint_residuals(model: CcdrModel, W=None) -> dict[str, float]:
    """Max-norm residuals of the four fitted-model identities.

    gram:   Zhat Dg Zhat^T = I
    mean:   Zhat Dg 1 = 0
    center: z_k = sum_i c_ki y_i / ((1 - lambda) n_k)
    row:    y_i = (sum_k c_ki z_k + b sum_j w_ij y_j)
                  / ((1 - lambda) (sum_k c_ki + b sum_j w_ij))

    W defaults to a rebuild from the stored training data. With no classes
    (L = 0) the center identity is empty and its residual is 0.
    """
    C = _indicator(model.train_labels, model.num_classes)
    if W is None:
        W = _heat_graph(model.train_points, model.k, model.eps)
    Wmat = W.matrix if isinstance(W, WeightMatrix) else np.asarray(W)
    lam = model.eigenvalues
    Z = model.centers
    Y = model.embedding
    Zhat = _stack(model)
    w_deg = np.asarray(Wmat.sum(axis=1)).ravel()
    labeled = np.asarray(C.sum(axis=0)).ravel()
    deg = np.concatenate([model.class_sizes.astype(float), labeled + model.beta * w_deg])
    gram = Zhat * deg[None, :] @ Zhat.T
    res_gram = float(np.abs(gram - np.eye(model.m)).max())
    res_mean = float(np.abs(Zhat @ deg).max())
    cy = C @ Y
    z_rhs = cy / (model.class_sizes.astype(float)[:, None] * (1.0 - lam)[None, :])
    res_center = float(np.abs(Z - z_rhs).max(initial=0.0))
    return {
        "gram": res_gram,
        "mean": res_mean,
        "center": res_center,
        "row": float(_row_errors(model, Wmat, C).max()),
    }


def _row_errors(model: CcdrModel, Wmat, C: np.ndarray) -> np.ndarray:
    """Each training point's max-norm residual of the row identity."""
    w_deg = np.asarray(Wmat.sum(axis=1)).ravel()
    labeled = np.asarray(C.sum(axis=0)).ravel()
    num = C.T @ model.centers + model.beta * (Wmat @ model.embedding)
    den = (labeled + model.beta * w_deg)[:, None] * (1.0 - model.eigenvalues)[None, :]
    return np.abs(model.embedding - num / den).max(axis=1)


def embed_many(model: CcdrModel, X: np.ndarray, c: np.ndarray | int = 0) -> np.ndarray:
    """Embed a batch of points; c is one label or a vector of labels.

    Each query is extended from its k nearest training points, the kernel
    the fit's own rows sum over, so a row does not depend on its batch.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise ValueError("X must be q x %d" % model.d)
    q = X.shape[0]
    cs = np.full(q, c) if np.ndim(c) == 0 else np.asarray(c)
    if cs.shape != (q,):
        raise ValueError("c must be a scalar or a length-q vector")
    if cs.min(initial=0) < 0 or cs.max(initial=0) > model.num_classes or (cs % 1).any():
        raise ValueError("labels must lie in {0, .., %d}" % model.num_classes)
    K = kernel_rows(X, model.train_points, model.k, model.eps, _index=model._index)
    return _extend(model, K, cs.astype(np.int64))


def _extend(model: CcdrModel, K, cs: np.ndarray) -> np.ndarray:
    """The extension formula for kernel rows K and labels cs (0 = unlabeled).

    K is kernel_rows' (nbrs, w), whose terms are added one column at a
    time, left to right, so a row gets the same bits in any batch. For an
    eigenmap model (L = 0, beta = 1) this is the Nystrom extension
    sum_j K_ij y_j / ((1 - lambda) sum_j K_ij), bit for bit."""
    nbrs, w = K
    terms = model.embedding[nbrs] * w[:, :, None]
    mass, wy = w[:, 0], terms[:, 0]
    for t in range(1, w.shape[1]):
        mass, wy = mass + w[:, t], wy + terms[:, t]
    lab = (cs > 0).astype(np.float64)
    den = lab + model.beta * mass
    bad = np.nonzero(den <= 0.0)[0]
    if bad.size:
        raise ValueError(
            "query %d outside model support: zero kernel mass" % int(bad[0])
        )
    num = model.beta * wy
    labeled = np.nonzero(cs > 0)[0]
    if labeled.size:
        num[labeled] += model.centers[cs[labeled] - 1]
    return num / ((1.0 - model.eigenvalues)[None, :] * den[:, None])


def save_model(model: CcdrModel, path) -> None:
    """Persist a model at exactly path as a flat .npz container with a
    format version (np.savez given a file name would append .npz to it).

    Each CcdrModel field is one entry under its own name; scalars are 0-d
    arrays (float64 beta and eps, int64 k, m and num_classes).
    """
    with open(path, "wb") as fh:
        np.savez(
            fh,
            format_version=np.int64(MODEL_FORMAT_VERSION),
            **{f.name: getattr(model, f.name) for f in fields(CcdrModel)},
        )


def load_model(path) -> CcdrModel:
    """Load a model written by save_model; the round trip is lossless.

    A file holding what fit never produces raises ValueError naming the
    first bad field: array shapes that disagree with each other, k outside
    1 <= k < n, a non-finite value, eps <= 0, beta < 0, an eigenvalue not
    below 1 - LAMBDA_TOL, or a training label outside {0, .., L}.
    """
    with np.load(path) as z:
        version = int(z["format_version"])
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(
                "unsupported model format version %d (expected %d)"
                % (version, MODEL_FORMAT_VERSION)
            )
        entries = {f.name: z[f.name] for f in fields(CcdrModel)}
    values = {k: v.item() if v.ndim == 0 else v for k, v in entries.items()}
    _check_layout(values)
    return _read_only_model(**values)


def _check_layout(values: dict) -> None:
    """Check a loaded model's array shapes against its n, L and m, its k,
    and its values against the ranges fit guarantees."""
    pts = np.shape(values["train_points"])
    if len(pts) != 2:
        raise ValueError("model field train_points has shape %s, expected (n, d)" % (pts,))
    n, L, m = pts[0], values["num_classes"], values["m"]
    want = {
        "centers": (L, m),
        "embedding": (n, m),
        "eigenvalues": (m,),
        "train_labels": (n,),
        "class_sizes": (L,),
    }
    for name, shape in want.items():
        got = np.shape(values[name])
        if got != shape:
            raise ValueError("model field %s has shape %s, expected %s" % (name, got, shape))
    if not 1 <= values["k"] < n:
        raise ValueError("model field k = %s must satisfy 1 <= k < n = %d" % (values["k"], n))
    for name in ("train_points", "centers", "embedding", "eigenvalues", "beta", "eps"):
        if not np.isfinite(values[name]).all():
            raise ValueError("model field %s holds a non-finite value" % name)
    if not values["eps"] > 0:
        raise ValueError("model field eps = %r must be positive" % values["eps"])
    if values["beta"] < 0:
        raise ValueError("model field beta = %r must be nonnegative" % values["beta"])
    if np.any(values["eigenvalues"] >= 1.0 - LAMBDA_TOL):
        raise ValueError("model field eigenvalues must lie below 1 - %g" % LAMBDA_TOL)
    labels = values["train_labels"]
    if labels.min(initial=0) < 0 or labels.max(initial=0) > L:
        raise ValueError("model field train_labels must lie in {0, .., %d}" % L)
