"""Dataset loading, synthesis, indicators, and the whitespace text format."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccdr.dataset import (
    _indicator,
    _read_points_loop,
    _read_points_numpy,
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


@pytest.mark.parametrize("reader", [_read_points_numpy, _read_points_loop])
def test_round_trip_is_bit_identical_on_both_parsers(tmp_path, reader):
    rng = np.random.default_rng(102)
    points = np.vstack([
        rng.integers(-255, 256, (8, 4)).astype(np.float64),
        rng.standard_normal((8, 4)) * 10.0 ** rng.integers(-300, 300, (8, 4)),
        [[-0.0, 0.0, -5e-324, 2.0**53], [-(2.0**53) + 1, 1e308, -2.5, 0.1]],
    ])
    ds = LabeledDataset(points, rng.integers(0, 4, 18), 3)
    p = tmp_path / "r.txt"
    save_statlog(ds, p)
    pts, labs = reader(p, PASSTHROUGH_REMAP)
    assert pts.tobytes() == ds.points.tobytes()
    assert labs.tobytes() == ds.labels.tobytes()


def test_negative_zero_survives_a_round_trip(tmp_path):
    ds = LabeledDataset(np.array([[-0.0, 1.0], [0.0, -0.0]]), [1, 2], 2)
    p = tmp_path / "z.txt"
    save_statlog(ds, p)
    assert np.signbit(load_statlog(p, PASSTHROUGH_REMAP).points).tolist() == [
        [True, False],
        [False, True],
    ]


def test_numpy_pass_reads_savetxt_files(tmp_path):
    rng = np.random.default_rng(103)
    X = rng.standard_normal((50, 6)) * 40.0 + 80.0
    lab = rng.choice([0, 1, 2, 3, 4, 5, 7], 50)
    p = tmp_path / "s.txt"
    np.savetxt(p, np.column_stack([X, lab]), fmt=["%.17g"] * 6 + ["%d"])
    pts, labs = _read_points_numpy(p, SATIMAGE_REMAP)
    ref_pts, ref_labs = _read_points_loop(p, SATIMAGE_REMAP)
    assert pts.tobytes() == ref_pts.tobytes() == X.tobytes()
    assert labs.tobytes() == ref_labs.tobytes()
    assert pts.flags.c_contiguous


def test_integer_via_float_warning_sends_the_file_to_the_loop(tmp_path, monkeypatch):
    # Some numpy releases read a `1.0` integer field through a float and
    # only warn; emulate one so the fast path must refuse the file.
    def lenient_loadtxt(fh, *, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        rows = [line.split() for line in fh if line.split()]
        table = np.zeros(len(rows), dtype=dtype)
        table["x"] = [[float(t) for t in r[:-1]] for r in rows]
        table["y"] = [int(float(r[-1])) for r in rows]
        return table

    p = tmp_path / "f.txt"
    p.write_text("1 2 1.0\n3 4 2\n")
    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    with pytest.raises(ValueError, match="line 1: label must be an integer"):
        read_points(p, {1: 1, 2: 2})


def test_tokens_only_python_reads_fall_back_to_the_loop(tmp_path):
    p = tmp_path / "u.txt"
    p.write_text("1_0 2 1\n3 4 1_0\n")
    with pytest.raises(ValueError, match="1_0"):
        _read_points_numpy(p, PASSTHROUGH_REMAP)
    pts, labs = read_points(p, PASSTHROUGH_REMAP)
    assert pts.tolist() == [[10.0, 2.0], [3.0, 4.0]]
    assert labs.tolist() == [1, 10]


# Tokens on which float()/int() and numpy's parsers were probed: both accept
# the first group, both reject the second, only Python accepts the third.
_BOTH_ACCEPT = ["nan", "-nan", "+nan", "Infinity", "-inf", "iNf", "1e500", "-1e-400",
                ".5", "5.", "+7", "07", "-0", "0", "1", "2", "7", "1e3", "2.5"]
_BOTH_REJECT = ["0x1p3", "1.5d3", "1e", "nan(1)", "1.0f", "x", "1,2", "#1", "'1'",
                "1\x002", "--1", "infinit", "", "99999999999999999999"]
_PYTHON_ONLY = ["1_0", "7_0", "\u0661", "\uff17", "1\u00e9"]
# Floats that neither parser takes for an integer label.
_NOT_LABELS = ["7.0", "7e0", "1.0", "2e0", "0.0", "1.", "+2.", "1.5", "nan", "inf"]
_SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]
_ENDINGS = ["\n", "\r\n", "\r"]
_CLEAN_FLOATS = st.one_of(
    st.sampled_from(_BOTH_ACCEPT),
    st.floats(allow_nan=False).map(repr),
    st.floats(allow_nan=False).map(lambda v: "%.17g" % v),
    st.integers(-300, 300).map(str),
)
_CLEAN_LABELS = st.sampled_from(["0", "1", "2", "+1", "02", "-0"])
_ANY_TOKEN = st.one_of(
    st.sampled_from(_BOTH_ACCEPT + _BOTH_REJECT + _PYTHON_ONLY + _NOT_LABELS),
    st.integers(-2, 9).map(str),
    st.integers(-2**70, 2**70).map(str),
    st.text(alphabet="0123456789.eE+-_naifx", max_size=6),
)


@st.composite
def statlog_text(draw):
    """A file of rows of clean tokens, every row as wide as the first, with
    blank lines, mixed separators and line endings; in most files one token
    is then replaced by an arbitrary one or one row loses or gains a column."""
    width = draw(st.integers(1, 4))
    rows = [
        [draw(_CLEAN_FLOATS) for _ in range(width - 1)] + [draw(_CLEAN_LABELS)]
        for _ in range(draw(st.integers(0, 5)))
    ]
    if rows and draw(st.integers(0, 3)) > 0:
        row = draw(st.sampled_from(rows))
        if draw(st.integers(0, 3)) > 0:
            row[draw(st.sampled_from([0, -1]))] = draw(_ANY_TOKEN)
        elif draw(st.booleans()) and width > 1:
            row.pop()
        else:
            row.append(draw(_ANY_TOKEN))
    lines = []
    for row in rows:
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x0b", "\x1c", "\x0c"])))
        lead = draw(st.sampled_from(["", " ", "\x1f"]))
        lines.append(lead + draw(st.sampled_from(_SEPARATORS)).join(row))
    ending = draw(st.sampled_from(_ENDINGS))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def _outcome(reader, path, remap):
    try:
        pts, labs = reader(path, remap)
    except Exception as e:  # the exact type and message are compared
        return type(e), str(e)
    return pts.dtype, pts.shape, pts.tobytes(), labs.dtype, labs.tobytes()


@settings(max_examples=600, deadline=None)
@given(
    statlog_text(),
    st.sampled_from([SATIMAGE_REMAP, {1: 1, 2: 2}, PASSTHROUGH_REMAP]),
)
@example("1_0 2 1\n3 4 7_0\n", PASSTHROUGH_REMAP)
@example("1 2 1.0\n3 4 2\n", {1: 1, 2: 2})
@example("1 2 7e0\n", SATIMAGE_REMAP)
@example("1 2 1\n3 4 2 #x\n", {1: 1, 2: 2})
@example("1 1 7\n2 2 5\n", SATIMAGE_REMAP)
@example("1 2 0\n3 4 0\n", {1: 1})
@example("\u0661 2 1\n", {1: 1})
@example("1 2 99999999999999999999\n", PASSTHROUGH_REMAP)
@example("\r\n1\x1c2 1\r\n\x0b\r\n-nan\x0b-1e-400\t+2\r\n", {1: 1, 2: 2})
def test_read_points_matches_the_line_loop(tmp_path_factory, text, remap):
    p = tmp_path_factory.mktemp("parity") / "p.txt"
    p.write_bytes(text.encode("utf-8"))
    assert _outcome(read_points, p, remap) == _outcome(_read_points_loop, p, remap)


@pytest.mark.parametrize("text, remap, lineno, label", [
    ("1.0 2.0 1\n3.0 4.0 99999999999999999999\n", PASSTHROUGH_REMAP, 2, 10**20 - 1),
    ("1.0 2.0 9223372036854775808\n", PASSTHROUGH_REMAP, 1, 2**63),
    ("1.0 2.0 2\n3.0 4.0 1\n", {1: 2**64, 2: 2}, 2, 2**64),
])
def test_labels_past_int64_raise_a_line_numbered_error(tmp_path, text, remap, lineno, label):
    p = tmp_path / "big.txt"
    p.write_text(text)
    # the numpy pass refuses the file, and the loop words the error
    with pytest.raises((ValueError, OverflowError)):
        _read_points_numpy(p, remap)
    msg = "line %d: label %d does not fit a 64-bit integer" % (lineno, label)
    for reader in (read_points, _read_points_loop):
        with pytest.raises(ValueError, match=msg):
            reader(p, remap)


def test_largest_int64_label_reads_on_both_parsers(tmp_path):
    p = tmp_path / "max.txt"
    p.write_text("1.0 2.0 9223372036854775807\n")
    for reader in (_read_points_numpy, _read_points_loop):
        assert reader(p, PASSTHROUGH_REMAP)[1].tolist() == [2**63 - 1]


def test_dataset_does_not_freeze_or_alias_callers_arrays():
    X = np.zeros((4, 2))
    y = np.array([1, 1, 2, 2])
    ds = LabeledDataset(X, y, 2)
    view = LabeledDataset(X[1:], y[1:], 2)
    assert X.flags.writeable and y.flags.writeable
    X[:] = 5.0
    y[:] = 0
    assert not ds.points.any() and not view.points.any()
    assert ds.labels.tolist() == [1, 1, 2, 2] and view.labels.tolist() == [1, 2, 2]
    assert not ds.points.flags.writeable and not view.labels.flags.writeable


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
