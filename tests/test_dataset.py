"""Dataset loading, synthesis, indicators, and the whitespace text format."""

import numpy as np
import pytest

from ccdr.dataset import (
    _indicator,
    PASSTHROUGH_REMAP,
    SATIMAGE_REMAP,
    LabeledDataset,
    apply_standardize,
    class_counts,
    column_stats,
    gen_circles,
    load_statlog,
    read_points,
    save_statlog,
)


def test_parse_two_line_file(tmp_path):
    p = tmp_path / "two.txt"
    p.write_text("0 1 1\n2 3 2\n")
    ds = load_statlog(p, {1: 1, 2: 2})
    assert np.array_equal(ds.points, [[0.0, 1.0], [2.0, 3.0]])
    assert np.array_equal(ds.labels, [1, 2])
    assert ds.num_classes == 2
    assert ds.d == 2 and ds.n == 2


def test_parse_handles_multiple_spaces(tmp_path):
    p = tmp_path / "sp.txt"
    p.write_text("1   2  1\n 3 4   2 \n")
    ds = load_statlog(p, {1: 1, 2: 2})
    assert np.array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])


def test_ragged_row_error_names_line(tmp_path):
    p = tmp_path / "ragged.txt"
    p.write_text("1 2 1\n3 4\n")
    with pytest.raises(ValueError, match="line 2"):
        load_statlog(p, {1: 1, 2: 2})


def test_non_numeric_feature_error(tmp_path):
    p = tmp_path / "alpha.txt"
    p.write_text("1 x 1\n1 2 1\n")
    with pytest.raises(ValueError, match="line 1: non-numeric feature"):
        load_statlog(p, {1: 1, 2: 2})


def test_non_integer_label_error(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("1 2 1.5\n1 2 1\n")
    with pytest.raises(ValueError, match="label must be an integer"):
        load_statlog(p, {1: 1, 2: 2})


def test_label_outside_remap_error(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 9\n3 4 1\n")
    with pytest.raises(ValueError, match="label 9 not in remap"):
        load_statlog(p, {1: 1, 2: 2})


def test_empty_file_error(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    with pytest.raises(ValueError, match="no data rows"):
        load_statlog(p, {1: 1, 2: 2})


def test_satimage_remap_closes_label_gap(tmp_path):
    # satimage labels skip 6; 7 maps onto 6 so classes are consecutive
    assert SATIMAGE_REMAP == {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 7: 6}
    p = tmp_path / "s.txt"
    p.write_text("1 1 7\n2 2 5\n3 3 1\n")
    ds = load_statlog(p, SATIMAGE_REMAP)
    assert np.array_equal(ds.labels, [6, 5, 1])
    assert ds.num_classes == 6


def test_remap_preserves_class_counts(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("0 7\n1 7\n2 5\n3 1\n")
    ds = load_statlog(p, SATIMAGE_REMAP)
    # the 7 -> 6 relabeling moves the count, never merges or drops it
    assert class_counts(ds).tolist() == [1, 0, 0, 0, 1, 2]


def test_unlabeled_rows_pass_through(tmp_path):
    p = tmp_path / "u.txt"
    p.write_text("1 2 0\n3 4 1\n")
    ds = load_statlog(p, {1: 1})
    assert np.array_equal(ds.labels, [0, 1])


def test_passthrough_remap_accepts_any_positive_label():
    assert PASSTHROUGH_REMAP[3] == 3
    assert PASSTHROUGH_REMAP[100] == 100
    assert 7 in PASSTHROUGH_REMAP
    assert 0 not in PASSTHROUGH_REMAP


def test_integer_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(100)
    ds = LabeledDataset(
        rng.integers(0, 256, (20, 5)).astype(np.float64),
        rng.integers(1, 4, 20),
        3,
    )
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_statlog(ds, p1)
    ds2 = load_statlog(p1, {1: 1, 2: 2, 3: 3})
    save_statlog(ds2, p2)
    assert np.array_equal(ds.points, ds2.points)
    assert np.array_equal(ds.labels, ds2.labels)
    assert p1.read_bytes() == p2.read_bytes()


def test_float_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(101)
    ds = LabeledDataset(rng.standard_normal((5, 3)), np.array([1, 2, 1, 2, 1]), 2)
    p = tmp_path / "f.txt"
    save_statlog(ds, p)
    ds2 = load_statlog(p, {1: 1, 2: 2})
    assert np.array_equal(ds.points, ds2.points)


def test_read_points_returns_features_and_labels(tmp_path):
    p = tmp_path / "q.txt"
    p.write_text("1 2 0\n3 4 2\n")
    pts, labs = read_points(p, {1: 1, 2: 2})
    assert np.array_equal(pts, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(labs, [0, 2])


def test_make_indicator_definition():
    ds = LabeledDataset(np.zeros((3, 1)) + np.arange(3)[:, None], [1, 0, 2], 2)
    C = _indicator(ds.labels, ds.num_classes)
    assert np.array_equal(C, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def test_indicator_unlabeled_columns_are_zero():
    ds = LabeledDataset(np.arange(8, dtype=float).reshape(4, 2), [0, 1, 0, 2], 2)
    C = _indicator(ds.labels, ds.num_classes)
    assert np.all(C[:, 0] == 0.0) and np.all(C[:, 2] == 0.0)
    assert C.sum(axis=0).tolist() == [0.0, 1.0, 0.0, 1.0]


def test_indicator_row_sums_are_class_counts():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 4, 40)
    labels[:3] = [1, 2, 3]
    ds = LabeledDataset(rng.standard_normal((40, 2)), labels, 3)
    C = _indicator(ds.labels, ds.num_classes)
    assert np.array_equal(C.sum(axis=1), class_counts(ds))


def test_dataset_rejects_all_unlabeled():
    with pytest.raises(ValueError, match="no labeled points"):
        LabeledDataset(np.zeros((3, 1)), [0, 0, 0], 2)


def test_dataset_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        LabeledDataset(np.zeros((1, 2)), [1], 1)
    with pytest.raises(ValueError, match="finite"):
        LabeledDataset(np.array([[np.nan], [0.0]]), [1, 1], 1)
    with pytest.raises(ValueError, match="labels must lie in"):
        LabeledDataset(np.zeros((2, 1)), [1, 3], 2)
    with pytest.raises(ValueError, match="num_classes"):
        LabeledDataset(np.zeros((2, 1)), [1, 1], 0)
    with pytest.raises(ValueError, match="length n"):
        LabeledDataset(np.zeros((2, 1)), [1], 1)


def test_dataset_arrays_are_read_only():
    ds = LabeledDataset(np.zeros((2, 1)), [1, 1], 1)
    with pytest.raises(ValueError):
        ds.points[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.labels[0] = 0


def test_gen_circles_exact_radii_without_noise():
    ds = gen_circles(50, [1.0, 2.0], 0.0, seed=3)
    norms = np.linalg.norm(ds.points, axis=1)
    assert np.allclose(norms[ds.labels == 1], 1.0, atol=1e-12)
    assert np.allclose(norms[ds.labels == 2], 2.0, atol=1e-12)
    assert class_counts(ds).tolist() == [50, 50]


def test_gen_circles_deterministic():
    a = gen_circles(20, [1.0, 2.0], 0.05, seed=9)
    b = gen_circles(20, [1.0, 2.0], 0.05, seed=9)
    c = gen_circles(20, [1.0, 2.0], 0.05, seed=10)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.points, c.points)


def test_gen_circles_validation():
    with pytest.raises(ValueError, match="at least 2 points"):
        gen_circles(1, [1.0, 2.0], 0.0, seed=0)
    with pytest.raises(ValueError, match="distinct"):
        gen_circles(5, [1.0, 1.0], 0.0, seed=0)
    with pytest.raises(ValueError, match="positive"):
        gen_circles(5, [1.0, -2.0], 0.0, seed=0)
    with pytest.raises(ValueError, match="noise_sd"):
        gen_circles(5, [1.0, 2.0], -0.1, seed=0)


def test_standardize_uses_reference_statistics():
    rng = np.random.default_rng(12)
    train = LabeledDataset(rng.standard_normal((50, 3)) * 4 + 7, rng.integers(1, 3, 50), 2)
    test = LabeledDataset(rng.standard_normal((20, 3)), rng.integers(1, 3, 20), 2)
    mean, sd = column_stats(train)
    strain = apply_standardize(train, mean, sd)
    stest = apply_standardize(test, mean, sd)
    assert np.allclose(strain.points.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(strain.points.std(axis=0), 1.0, atol=1e-12)
    # the test split is shifted by the train statistics, not its own
    assert not np.allclose(stest.points.mean(axis=0), 0.0, atol=1e-3)
    assert np.array_equal(stest.labels, test.labels)


def test_standardize_constant_column_left_unscaled():
    pts = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    ds = LabeledDataset(pts, [1, 1, 1], 1)
    mean, sd = column_stats(ds)
    assert sd[1] == 1.0
    out = apply_standardize(ds, mean, sd)
    assert np.allclose(out.points[:, 1], 0.0)
