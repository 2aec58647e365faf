"""Labeled point sets: Statlog-format I/O, class indicators, synthetic data.

Label 0 always means "unlabeled"; classes are numbered 1..L. Feature
matrices are stored as float64 even when the source file holds integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Statlog satimage labels its six classes 1,2,3,4,5,7 (there is no 6).
SATIMAGE_REMAP = {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 7: 6}


class _PassthroughRemap(dict):
    """Accepts any positive label and maps it to itself."""

    def __contains__(self, key) -> bool:
        return isinstance(key, (int, np.integer)) and key >= 1

    def __missing__(self, key):
        if key in self:
            return key
        raise KeyError(key)


PASSTHROUGH_REMAP = _PassthroughRemap()


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LabeledDataset:
    """Points with (partial) class labels.

    Attributes
    ----------
    points : (n, d) float64, finite
    labels : (n,) int64, values in {0, .., num_classes}, 0 = unlabeled
    num_classes : int, L >= 1
    name : str, free-form tag
    """

    points: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 1:
            raise ValueError("points must be an n x d matrix with n >= 2, d >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if labs.shape != (pts.shape[0],):
            raise ValueError("labels must be a vector of length n")
        if self.num_classes < 1:
            raise ValueError("num_classes must be at least 1")
        if labs.min(initial=0) < 0 or labs.max(initial=0) > self.num_classes:
            raise ValueError(
                "labels must lie in {0, .., %d}" % self.num_classes
            )
        if not np.any(labs > 0):
            raise ValueError("dataset has no labeled points")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "labels", _readonly(labs))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def class_counts(ds: LabeledDataset) -> np.ndarray:
    """Sizes of classes 1..L, shape (L,)."""
    return np.bincount(ds.labels, minlength=ds.num_classes + 1)[1:]


def _indicator(labels: np.ndarray, L: int) -> np.ndarray:
    """The (L, n) 0/1 indicator of labels in {0, .., L}; L may be 0."""
    C = np.zeros((L, labels.size), dtype=np.float64)
    labeled = labels > 0
    C[labels[labeled] - 1, np.nonzero(labeled)[0]] = 1.0
    return C


def read_points(path, remap: dict[int, int] | None = None):
    """Parse a whitespace table whose last column is an integer label.

    Returns (points, labels) without enforcing dataset invariants, so files
    made only of unlabeled rows (label 0) are accepted. Label 0 always
    passes through untouched; nonzero labels go through `remap` (default:
    the satimage table).

    Raises ValueError with a 1-based line number for ragged rows,
    non-numeric tokens, non-integer labels, or labels outside the remap.
    """
    if remap is None:
        remap = SATIMAGE_REMAP
    rows: list[list[float]] = []
    labels: list[int] = []
    width = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split()
            if not toks:
                continue
            if width is None:
                width = len(toks)
                if width < 2:
                    raise ValueError(
                        "%s: line %d: need at least one feature column and a label"
                        % (path, lineno)
                    )
            elif len(toks) != width:
                raise ValueError(
                    "%s: line %d: expected %d columns, got %d"
                    % (path, lineno, width, len(toks))
                )
            try:
                feats = [float(t) for t in toks[:-1]]
            except ValueError:
                raise ValueError(
                    "%s: line %d: non-numeric feature" % (path, lineno)
                ) from None
            try:
                lab = int(toks[-1])
            except ValueError:
                raise ValueError(
                    "%s: line %d: label must be an integer" % (path, lineno)
                ) from None
            if lab != 0:
                if lab not in remap:
                    raise ValueError(
                        "%s: line %d: label %d not in remap table"
                        % (path, lineno, lab)
                    )
                lab = remap[lab]
            rows.append(feats)
            labels.append(lab)
    if not rows:
        raise ValueError("%s: no data rows" % path)
    return np.asarray(rows, dtype=np.float64), np.asarray(labels, dtype=np.int64)


def load_statlog(
    path, remap: dict[int, int] | None = None, name: str | None = None
) -> LabeledDataset:
    """Load a Statlog-format file (whitespace table, last column = label).

    The default remap is the satimage table {1..5 -> 1..5, 7 -> 6}; pass
    PASSTHROUGH_REMAP for files already labeled 1..L (for example files
    written by `save_statlog`). The number of classes is the largest label
    seen after remapping.
    """
    points, labels = read_points(path, remap)
    L = int(labels.max(initial=0))
    if name is None:
        name = str(path)
    return LabeledDataset(points, labels, num_classes=max(L, 1), name=name)


def _fmt(v: float) -> str:
    # Integers round-trip as integers so integer-valued files survive
    # a save/load cycle bit for bit.
    if v == int(v) and abs(v) < 2**53:
        return str(int(v))
    return repr(float(v))


def save_statlog(ds: LabeledDataset, path) -> None:
    """Write a dataset in Statlog format (features then label, one row per point)."""
    with open(path, "w", encoding="ascii") as fh:
        for x, lab in zip(ds.points, ds.labels):
            fh.write(" ".join(_fmt(v) for v in x))
            fh.write(" %d\n" % lab)


def gen_circles(
    n_per_class: int,
    radii,
    noise_sd: float = 0.0,
    seed: int = 0,
) -> LabeledDataset:
    """Concentric-circle classes in the plane.

    Class k (1-based) is n_per_class points at uniformly random angles on
    the circle of radius radii[k-1], plus isotropic Gaussian noise with
    standard deviation noise_sd. Deterministic for a given seed; points are
    laid out class block by class block.
    """
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim != 1 or radii.size < 1:
        raise ValueError("radii must be a non-empty sequence")
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    if np.unique(radii).size != radii.size:
        raise ValueError("radii must be distinct")
    if n_per_class < 2:
        raise ValueError("need at least 2 points per class")
    if noise_sd < 0:
        raise ValueError("noise_sd must be nonnegative")
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for k, r in enumerate(radii, start=1):
        ang = rng.uniform(0.0, 2.0 * np.pi, size=n_per_class)
        pts = r * np.column_stack([np.cos(ang), np.sin(ang)])
        pts = pts + rng.normal(0.0, noise_sd, size=pts.shape)
        blocks.append(pts)
        labels.append(np.full(n_per_class, k, dtype=np.int64))
    return LabeledDataset(
        np.vstack(blocks),
        np.concatenate(labels),
        num_classes=len(radii),
        name="circles(seed=%d)" % seed,
    )


def column_stats(ds: LabeledDataset):
    """Per-column mean and standard deviation (sd 0 is reported as 1)."""
    mean = ds.points.mean(axis=0)
    sd = ds.points.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return mean, sd


def apply_standardize(
    ds: LabeledDataset, mean: np.ndarray, sd: np.ndarray
) -> LabeledDataset:
    """Z-score a dataset with externally supplied statistics.

    Pass the training set's `column_stats` when transforming a test set so
    no test information leaks into the fit.
    """
    pts = (ds.points - mean) / sd
    return LabeledDataset(pts, ds.labels, ds.num_classes, name=ds.name)
