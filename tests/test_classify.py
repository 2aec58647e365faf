"""Least-squares and k-nearest-neighbour classifiers on embedded points."""

import numpy as np
import pytest

from ccdr.classify import (
    KnnClassifier,
    argmax_labels,
    linear_fit,
    sorted_neighbor_labels,
    vote,
)


def brute_knn(train_Y, train_labels, q, k, num_classes):
    """Reference kNN vote: stable distance sort, vote ties to lower class."""
    d2 = [(float(((q - t) ** 2).sum()), i) for i, t in enumerate(train_Y)]
    d2.sort(key=lambda p: p[0])  # python sort is stable, index order kept
    counts = [0] * (num_classes + 1)
    for _, i in d2[:k]:
        counts[int(train_labels[i])] += 1
    best = max(counts[1:])
    return counts.index(best, 1)


def test_argmax_labels():
    s = np.array([[0.1, 0.9, 0.3], [0.5, 0.5, 0.2], [0.0, 0.1, 0.7]])
    assert np.array_equal(argmax_labels(s), [2, 1, 3])


def test_linear_boundary_between_two_points():
    clf = linear_fit(np.array([[0.0], [1.0]]), np.array([1, 2]), 2)
    assert clf.predict(np.array([[0.4]]))[0] == 1
    assert clf.predict(np.array([[0.6]]))[0] == 2
    s = clf.scores(np.array([[0.5]]))[0]
    assert abs(s[0] - s[1]) < 1e-9
    # bisect the decision boundary; the regularizer may move it by well
    # under 1e-6 from the midpoint
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if clf.predict(np.array([[mid]]))[0] == 1:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - 0.5) < 1e-6


def test_linear_degenerate_design_ties_to_class_one():
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        clf = linear_fit(np.array([[0.0], [0.0]]), np.array([1, 2]), 2)
    s = clf.scores(np.array([[0.0]]))[0]
    assert s == pytest.approx([0.5, 0.5], abs=1e-9)
    assert np.array_equal(clf.predict(np.array([[0.0], [5.0]])), [1, 1])


def test_linear_separates_three_clusters():
    rng = np.random.default_rng(57)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    Y = np.vstack([c + 0.3 * rng.standard_normal((20, 2)) for c in centers])
    labels = np.repeat([1, 2, 3], 20)
    clf = linear_fit(Y, labels, 3)
    assert np.array_equal(clf.predict(Y), labels)
    assert np.array_equal(clf.predict(Y), argmax_labels(Y @ clf.weights.T + clf.bias))
    assert clf.num_classes == 3
    assert clf.weights.shape == (3, 2) and clf.bias.shape == (3,)


def test_linear_scores_shift_invariance_of_argmax():
    # adding a constant to every class score keeps the decision
    rng = np.random.default_rng(58)
    Y = rng.standard_normal((30, 2))
    labels = rng.integers(1, 4, 30)
    labels[:3] = [1, 2, 3]
    clf = linear_fit(Y, labels, 3)
    s = clf.scores(Y)
    assert np.array_equal(argmax_labels(s), argmax_labels(s + 3.7))


def test_linear_fit_validation():
    Y = np.arange(6, dtype=float).reshape(3, 2)
    with pytest.raises(ValueError, match="need more points than dimensions, got n=2, m=2"):
        linear_fit(np.zeros((2, 2)), np.array([1, 2]), 2)
    with pytest.raises(ValueError, match="labels must have length n"):
        linear_fit(Y, np.array([1, 2]), 2)
    with pytest.raises(ValueError, match=r"labels must lie in \{1, .., 2\}"):
        linear_fit(Y, np.array([1, 2, 3]), 2)
    with pytest.raises(ValueError, match="Y must be an n x m matrix"):
        linear_fit(np.zeros(3), np.array([1, 2, 1]), 2)


def test_knn_memorizes_at_k_one():
    train = np.array([[0.0], [1.0], [2.0]])
    labels = np.array([1, 2, 2])
    clf = KnnClassifier(train, labels, 1, 2)
    assert np.array_equal(clf.predict(train), labels)
    assert clf.predict(np.array([[1.0]]))[0] == 2


def test_knn_k_equals_n_is_global_majority():
    clf = KnnClassifier(np.array([[0.0], [1.0], [2.0]]), np.array([1, 2, 2]), 3, 2)
    assert clf.predict(np.array([[50.0]]))[0] == 2
    assert clf.predict(np.array([[-50.0]]))[0] == 2


def test_knn_distance_tie_prefers_lower_training_index():
    train = np.array([[0.0], [2.0]])
    clf = KnnClassifier(train, np.array([2, 1]), 1, 2)
    # the query is equidistant; the stable sort keeps index 0 first
    assert clf.predict(np.array([[1.0]]))[0] == 2


def test_knn_vote_tie_prefers_lower_class():
    train = np.array([[0.0], [2.0]])
    clf = KnnClassifier(train, np.array([2, 1]), 2, 2)
    assert clf.predict(np.array([[1.0]]))[0] == 1


def test_knn_matches_brute_force():
    rng = np.random.default_rng(59)
    train = rng.standard_normal((25, 3))
    labels = rng.integers(1, 4, 25)
    labels[:3] = [1, 2, 3]
    Q = rng.standard_normal((15, 3))
    for k in (1, 3, 5, 25):
        clf = KnnClassifier(train, labels, k, 3)
        got = clf.predict(Q)
        want = [brute_knn(train, labels, q, k, 3) for q in Q]
        assert np.array_equal(got, want)


def test_knn_invariant_to_rigid_motion():
    rng = np.random.default_rng(60)
    train = rng.standard_normal((20, 2))
    labels = rng.integers(1, 3, 20)
    labels[:2] = [1, 2]
    Q = rng.standard_normal((10, 2))
    th = 1.1
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    t = np.array([4.0, -7.0])
    a = KnnClassifier(train, labels, 3, 2).predict(Q)
    b = KnnClassifier(train @ R.T + t, labels, 3, 2).predict(Q @ R.T + t)
    assert np.array_equal(a, b)


def test_sorted_neighbor_labels_order():
    train = np.array([[0.0], [1.0], [2.0], [3.0]])
    labels = np.array([1, 2, 1, 2])
    nbr = sorted_neighbor_labels(train, labels, np.array([[1.2]]), 4)
    assert np.array_equal(nbr, [[2, 1, 1, 2]])
    with pytest.raises(ValueError, match="k must satisfy 1 <= k <= n = 4"):
        sorted_neighbor_labels(train, labels, np.array([[0.0]]), 5)


def test_vote_majority_and_bounds():
    nbr = np.array([[1, 2, 2], [3, 3, 1]])
    assert np.array_equal(vote(nbr, 3, 3), [2, 3])
    assert np.array_equal(vote(nbr, 1, 3), [1, 3])
    with pytest.raises(ValueError, match="k must satisfy 1 <= k <= 3"):
        vote(nbr, 4, 3)


def test_knn_validation():
    train = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match=r"training labels must lie in \{1, .., 2\}"):
        KnnClassifier(train, np.array([1, 3]), 1, 2)
    with pytest.raises(ValueError, match="k must satisfy 1 <= k <= n = 2"):
        KnnClassifier(train, np.array([1, 2]), 3, 2)


def test_knn_predict_rejects_non_finite_queries():
    clf = KnnClassifier(np.arange(8.0).reshape(4, 2), np.array([1, 1, 2, 2]), 3, 2)
    with pytest.raises(ValueError, match="query 2 has a non-finite coordinate"):
        clf.predict(np.array([[0.0, 0.0], [1.0, 1.0], [np.nan, 0.0]]))
