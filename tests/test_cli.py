"""Command line verbs, config files, and option resolution."""

import warnings
from dataclasses import fields

import numpy as np
import pytest

import ccdr
import ccdr.cli
from ccdr.cli import _SCHEMAS, main
from ccdr.dataset import gen_circles, load_statlog, read_points, save_statlog
from ccdr.embedding import embed_many, load_model
from ccdr.harness import ExperimentConfig, SweepReport, SweepRow
from conftest import refit_row

# sweep's and classify's options with their defaults, as written out by hand
# before the two tables were derived from ExperimentConfig
_COMMON_OPTIONS = {
    "train": None, "test": None, "synth_n_per_class": None,
    "synth_radii": (1.0, 2.0), "synth_noise_sd": 0.01, "eps": None,
    "eps_scale": 1.0, "standardize": False, "remap": "satimage", "seed": 0,
    "ci_level": 0.8,
}
SWEEP_OPTIONS = dict(
    _COMMON_OPTIONS, pipelines=("ccdr",), classifiers=("knn",), betas=(0.5,),
    ms=(2,), graph_ks=(4,), clf_ks=(1,), no_wall=False, out=None,
)
CLASSIFY_OPTIONS = dict(
    _COMMON_OPTIONS, pipeline="ccdr", classifier="knn", beta=1.0, m=2, k=4, clf_k=1,
)
# embed's options with their defaults, as written out by hand before its fit
# options were taken from classify's table
EMBED_OPTIONS = {
    "train": None, "pipeline": "ccdr", "m": 2, "k": 4, "beta": 1.0, "eps": None,
    "eps_scale": 1.0, "standardize": False, "remap": "satimage", "out": None,
    "model_out": None,
}
# oos's options with their defaults
OOS_OPTIONS = {"model": None, "points": None, "out": None, "remap": "satimage"}


@pytest.fixture()
def split_files(tmp_path):
    trn = tmp_path / "c.trn"
    tst = tmp_path / "c.tst"
    save_statlog(gen_circles(30, [1.0, 2.0], 0.02, seed=1), trn)
    save_statlog(gen_circles(10, [1.0, 2.0], 0.02, seed=2), tst)
    return str(trn), str(tst)


def test_package_exports():
    assert ccdr.__version__ == "0.1.0"
    for name in ccdr.__all__:
        assert getattr(ccdr, name) is not None


def test_synth_writes_deterministic_file(tmp_path, capsys):
    p1 = tmp_path / "a.trn"
    p2 = tmp_path / "b.trn"
    base = ["synth", "--n-per-class", "5", "--noise-sd", "0.05", "--seed", "3"]
    assert main(base + ["--out", str(p1)]) == 0
    assert main(base + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    out = capsys.readouterr().out
    assert "wrote 10 points (2 classes, d=2)" in out
    ds = load_statlog(p1, remap={1: 1, 2: 2})
    assert ds.n == 10 and ds.num_classes == 2


def test_load_check_summary(split_files, capsys):
    trn, tst = split_files
    rc = main(["load-check", "--train", trn, "--test", tst, "--remap", "identity"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "train: n=60 d=2 classes=2 counts=[30,30] unlabeled=0" in out
    assert "test: n=20 d=2 classes=2" in out


def test_embed_writes_csv_and_model(split_files, tmp_path, capsys):
    trn, _ = split_files
    emb = tmp_path / "emb.csv"
    mdl = tmp_path / "model.npz"
    rc = main([
        "embed", "--train", trn, "--remap", "identity", "--pipeline", "ccdr",
        "--beta", "0.05", "--m", "2", "--out", str(emb), "--model-out", str(mdl),
    ])
    assert rc == 0
    lines = emb.read_text().splitlines()
    assert lines[0] == "e1,e2,label"
    assert len(lines) == 61
    model = load_model(mdl)
    assert model.beta == 0.05 and model.m == 2 and model.n == 60
    # CSV floats round-trip the stored embedding exactly
    first = lines[1].split(",")
    assert float(first[0]) == model.embedding[0, 0]
    assert "saved model to" in capsys.readouterr().out


def test_embed_model_out_requires_ccdr(split_files, tmp_path, capsys):
    trn, _ = split_files
    rc = main([
        "embed", "--train", trn, "--remap", "identity", "--pipeline", "pca",
        "--out", str(tmp_path / "e.csv"), "--model-out", str(tmp_path / "m.npz"),
    ])
    assert rc == 2
    assert "error: --model-out only applies to the ccdr pipeline" in capsys.readouterr().err
    # the option is checked before anything is fitted or written
    assert not (tmp_path / "e.csv").exists()


def test_embed_model_out_rejects_standardize(split_files, tmp_path, capsys):
    trn, _ = split_files
    rc = main([
        "embed", "--train", trn, "--remap", "identity", "--standardize", "true",
        "--out", str(tmp_path / "e.csv"), "--model-out", str(tmp_path / "m.npz"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: --model-out cannot be combined with --standardize true" in err
    # the model would hold z-scored points that oos cannot map queries onto,
    # so nothing is fitted or written
    assert not (tmp_path / "e.csv").exists() and not (tmp_path / "m.npz").exists()


def test_embed_reports_a_failed_residual_gate(nearly_cut_off, tmp_path, capsys):
    trn = tmp_path / "cut.trn"
    save_statlog(nearly_cut_off, trn)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the graph is disconnected
        rc = main([
            "embed", "--train", str(trn), "--remap", "identity", "--k", "1",
            "--beta", "0.1", "--m", "1", "--out", str(tmp_path / "e.csv"),
        ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fitted model violates its row identity")
    assert "worst at point 3" in err and not (tmp_path / "e.csv").exists()


def test_oos_extension_and_brute_force(split_files, tmp_path):
    trn, tst = split_files
    mdl = tmp_path / "model.npz"
    main([
        "embed", "--train", trn, "--remap", "identity", "--pipeline", "ccdr",
        "--beta", "0.05", "--out", str(tmp_path / "e.csv"), "--model-out", str(mdl),
    ])
    o1 = tmp_path / "oos.csv"
    rc = main(["oos", "--model", str(mdl), "--points", tst, "--remap", "identity", "--out", str(o1)])
    assert rc == 0
    lines = o1.read_text().splitlines()
    assert lines[0] == "e1,e2,label" and len(lines) == 21
    # labels column carries the query labels through
    assert {int(l.rsplit(",", 1)[1]) for l in lines[1:]} == {1, 2}
    # each query is extended with its label, and the labelled extension
    # lands where a brute-force refit with the query appended puts it
    model = load_model(mdl)
    points, labels = read_points(tst, remap={1: 1, 2: 2})
    got = np.loadtxt(o1, delimiter=",", skiprows=1)
    assert np.array_equal(got[:, :2], embed_many(model, points, labels))
    assert np.array_equal(got[:, 2], labels)
    refit = np.array([refit_row(model, x, c) for x, c in zip(points, labels)])
    assert np.abs(refit - got[:, :2]).max() < 0.1


def test_oos_rejects_a_malformed_model_file(split_files, tmp_path, capsys):
    trn, tst = split_files
    mdl = tmp_path / "model.npz"
    main([
        "embed", "--train", trn, "--remap", "identity", "--pipeline", "ccdr",
        "--beta", "0.05", "--out", str(tmp_path / "e.csv"), "--model-out", str(mdl),
    ])
    with np.load(mdl) as z:
        data = {k: z[k] for k in z.files}
    data["embedding"] = data["embedding"][:10]
    np.savez(mdl, **data)
    capsys.readouterr()
    out = tmp_path / "oos.csv"
    rc = main(["oos", "--model", str(mdl), "--points", tst, "--remap", "identity", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: model field embedding has shape (10, 2), expected (60, 2)\n"
    )
    assert not out.exists()


def test_oos_rejects_a_model_with_an_eigenvalue_of_one(split_files, tmp_path, capsys):
    trn, tst = split_files
    mdl = tmp_path / "model.npz"
    main([
        "embed", "--train", trn, "--remap", "identity", "--pipeline", "ccdr",
        "--beta", "0.05", "--out", str(tmp_path / "e.csv"), "--model-out", str(mdl),
    ])
    with np.load(mdl) as z:
        data = {k: z[k] for k in z.files}
    data["eigenvalues"] = np.array([data["eigenvalues"][0], 1.0])
    np.savez(mdl, **data)
    capsys.readouterr()
    out = tmp_path / "oos.csv"
    rc = main(["oos", "--model", str(mdl), "--points", tst, "--remap", "identity", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: model field eigenvalues must lie below 1 - 1e-09\n"
    assert not out.exists()


def test_model_saved_to_a_path_without_suffix_extends(split_files, tmp_path, capsys):
    trn, tst = split_files
    mdl = tmp_path / "mymodel"
    rc = main([
        "embed", "--train", trn, "--remap", "identity", "--pipeline", "ccdr",
        "--beta", "0.05", "--out", str(tmp_path / "e.csv"), "--model-out", str(mdl),
    ])
    assert rc == 0 and "saved model to %s\n" % mdl in capsys.readouterr().out
    assert not (tmp_path / "mymodel.npz").exists()
    out = tmp_path / "oos.csv"
    rc = main(["oos", "--model", str(mdl), "--points", tst, "--remap", "identity", "--out", str(out)])
    assert rc == 0 and len(out.read_text().splitlines()) == 21


def test_embed_rejects_eps_with_eps_scale(split_files, tmp_path, capsys):
    trn, _ = split_files
    out = tmp_path / "e.csv"
    rc = main([
        "embed", "--train", trn, "--remap", "identity", "--eps", "0.7",
        "--eps-scale", "2", "--out", str(out),
    ])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: eps_scale scales the median eps; pass eps or eps_scale, not both\n"
    )
    assert not out.exists()


def test_classify_prints_error_line(split_files, capsys):
    trn, tst = split_files
    rc = main([
        "classify", "--train", trn, "--test", tst, "--remap", "identity",
        "--pipeline", "ccdr", "--classifier", "knn", "--beta", "0.05",
        "--clf-k", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pipeline=ccdr classifier=knn error=" in out
    assert "ci80=[" in out


def test_classify_on_synthetic_source(capsys):
    rc = main([
        "classify", "--synth-n-per-class", "20", "--synth-noise-sd", "0.02",
        "--pipeline", "ccdr", "--classifier", "knn", "--beta", "0.05", "--seed", "4",
    ])
    assert rc == 0
    assert "pipeline=ccdr" in capsys.readouterr().out


def test_classify_reports_a_lanczos_failure(lanczos_fails, capsys):
    rc = main([
        "classify", "--synth-n-per-class", "160", "--synth-noise-sd", "0.02",
        "--pipeline", "lapeig", "--classifier", "knn", "--k", "8", "--m", "2",
    ])
    assert rc == 2
    assert "error: grid point failed: Lanczos solve did not converge" in capsys.readouterr().err


def test_sweep_writes_report(split_files, tmp_path, capsys):
    trn, tst = split_files
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--train", trn, "--test", tst, "--remap", "identity",
        "--pipelines", "ccdr,raw", "--classifiers", "knn,linear",
        "--betas", "0.05,0.5", "--clf-ks", "1,3", "--no-wall", "true",
        "--out", str(out),
    ])
    assert rc == 0
    assert "wrote 9 rows" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "pipeline,classifier,beta,m,graph_k,clf_k,error,ci_low,ci_high,wall_ms"
    assert len(lines) == 10
    out2 = tmp_path / "sweep2.csv"
    main([
        "sweep", "--train", trn, "--test", tst, "--remap", "identity",
        "--pipelines", "ccdr,raw", "--classifiers", "knn,linear",
        "--betas", "0.05,0.5", "--clf-ks", "1,3", "--no-wall", "true",
        "--out", str(out2),
    ])
    assert out.read_bytes() == out2.read_bytes()


def test_sweep_and_classify_options_keep_their_names_and_defaults():
    for verb, want in (
        ("sweep", SWEEP_OPTIONS), ("classify", CLASSIFY_OPTIONS), ("embed", EMBED_OPTIONS),
        ("oos", OOS_OPTIONS),
    ):
        got = {name: default for name, (default, _) in _SCHEMAS[verb].items()}
        assert got == want
        assert [type(got[n]) for n in want] == [type(v) for v in want.values()]
    # the one intended difference: classify --beta keeps fit's default
    assert ExperimentConfig().betas == (0.5,)


def test_unknown_oos_route_fails_before_any_file_is_read(tmp_path, capsys):
    # no verb takes a route: --oos as a flag or as a config key fails
    # before any data or model file is read
    missing = str(tmp_path / "missing")
    cfg = tmp_path / "route.cfg"
    cfg.write_text("oos=nearest\n")
    for argv in (
        ["sweep", "--train", missing, "--test", missing, "--out", missing],
        ["oos", "--model", missing, "--points", missing, "--out", missing],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--oos", "nearest"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --oos nearest" in capsys.readouterr().err
        assert main(argv + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: oos\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["route.cfg"]


def _config_passed(monkeypatch, argv):
    """The ExperimentConfig main(argv) hands to run_sweep."""
    seen = []

    def fake_run_sweep(cfg):
        seen.append(cfg)
        return SweepReport(cfg, (SweepRow("raw", "knn", 0.0, 2, 0, 1, 0.5, 0.4, 0.6, 0.0),))

    monkeypatch.setattr(ccdr.cli, "run_sweep", fake_run_sweep)
    monkeypatch.delenv("CCDR_DATA_DIR", raising=False)
    assert main(argv) == 0
    return seen[0]


def test_every_config_field_can_be_set_from_sweep(monkeypatch, tmp_path):
    argv = [
        "sweep", "--out", str(tmp_path / "s.csv"), "--remap", "1:1,9:2",
        "--pipelines", "raw,pca", "--classifiers", "linear", "--betas", "0.1,0.2",
        "--ms", "3,4", "--graph-ks", "5,6", "--clf-ks", "3", "--eps", "0.7",
        "--eps-scale", "2", "--standardize", "true", "--seed", "9",
        "--ci-level", "0.9", "--no-wall", "true",
    ]
    files = _config_passed(monkeypatch, argv + ["--train", "a.trn", "--test", "b.tst"])
    synth = _config_passed(monkeypatch, argv + [
        "--synth-n-per-class", "6", "--synth-radii", "1,3", "--synth-noise-sd", "0.2",
    ])
    got = {f.name: getattr(files, f.name) for f in fields(ExperimentConfig)}
    got["synth"] = synth.synth
    assert got == {
        "train_path": "a.trn", "test_path": "b.tst",
        "synth": {"n_per_class": 6, "radii": (1.0, 3.0), "noise_sd": 0.2},
        "remap": {1: 1, 9: 2}, "pipelines": ("raw", "pca"), "classifiers": ("linear",),
        "betas": (0.1, 0.2), "ms": (3, 4), "graph_ks": (5, 6), "clf_ks": (3,),
        "eps": 0.7, "eps_scale": 2.0, "standardize": True, "seed": 9,
        "ci_level": 0.9, "measure_wall": False,
    }
    default = ExperimentConfig()
    assert all(v != getattr(default, name) for name, v in got.items())


def test_classify_is_a_one_point_sweep(monkeypatch, capsys):
    cfg = _config_passed(monkeypatch, [
        "classify", "--train", "a.trn", "--test", "b.tst", "--pipeline", "pca",
        "--classifier", "linear", "--m", "3", "--k", "6", "--clf-k", "5",
    ])
    assert (cfg.pipelines, cfg.classifiers, cfg.betas, cfg.ms, cfg.graph_ks, cfg.clf_ks) == (
        ("pca",), ("linear",), (1.0,), (3,), (6,), (5,))
    assert cfg.measure_wall
    assert "error=0.5 ci80=[0.4,0.6]" in capsys.readouterr().out


def test_sweep_config_file_matches_flags(split_files, tmp_path):
    trn, tst = split_files
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("betas = 0.05,0.5\nno-wall = true\n")
    base = ["sweep", "--train", trn, "--test", tst, "--remap", "identity", "--pipelines", "ccdr,raw"]
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert main(base + ["--config", str(cfg), "--out", str(from_file)]) == 0
    assert main(base + ["--betas", "0.05,0.5", "--no-wall", "true", "--out", str(from_flags)]) == 0
    assert len(from_file.read_text().splitlines()) == 4
    assert from_file.read_bytes() == from_flags.read_bytes()


def test_sweep_counts_failed_grid_points(split_files, tmp_path, capsys):
    trn, tst = split_files
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--train", trn, "--test", tst, "--remap", "identity",
        "--graph-ks", "4,500", "--no-wall", "true", "--out", str(out),
    ])
    assert rc == 0
    assert "(1 failed grid points marked nan)" in capsys.readouterr().out
    assert "nan" in out.read_text()


def test_bad_ci_level_exits_2_before_any_fit(split_files, tmp_path, capsys):
    trn, tst = split_files
    out = tmp_path / "bad.csv"
    common = ["--train", trn, "--test", tst, "--remap", "identity", "--ci-level", "1.5"]
    assert main(["sweep", *common, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: level must lie in [0, 1)\n"
    assert not out.exists()
    assert main(["classify", *common]) == 2
    assert capsys.readouterr().err == "error: level must lie in [0, 1)\n"


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(
        "# synthetic data settings\n"
        "n-per-class = 7\n"
        "noise_sd = 0.05\n"
        "seed = 3\n"
    )
    p1 = tmp_path / "a.trn"
    assert main(["synth", "--config", str(cfg), "--out", str(p1)]) == 0
    assert "wrote 14 points" in capsys.readouterr().out
    # an explicit flag beats the file value
    p2 = tmp_path / "b.trn"
    assert main(["synth", "--config", str(cfg), "--n-per-class", "9", "--out", str(p2)]) == 0
    assert "wrote 18 points" in capsys.readouterr().out


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x.trn")])
    assert rc == 2
    assert "error: unknown config keys: bogus" in capsys.readouterr().err


def test_config_file_rejects_non_assignment_lines(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x.trn")])
    assert rc == 2
    assert "line 1: expected key=value" in capsys.readouterr().err


def test_load_check_reports_a_label_past_int64(tmp_path, capsys):
    p = tmp_path / "big.txt"
    p.write_text("1.0 2.0 1\n3.0 4.0 99999999999999999999\n")
    assert main(["load-check", "--train", str(p), "--remap", "identity"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 2: label 99999999999999999999" in err


def test_missing_required_option(capsys):
    rc = main(["synth"])
    assert rc == 2
    assert "error: missing required option --out" in capsys.readouterr().err


def test_custom_remap_table(tmp_path, capsys):
    ds = gen_circles(5, [1.0, 2.0], 0.02, seed=6)
    relabeled = type(ds)(ds.points, np.where(ds.labels == 2, 9, ds.labels), 9)
    f = tmp_path / "r.trn"
    save_statlog(relabeled, f)
    rc = main(["load-check", "--train", str(f), "--remap", "1:1,9:2"])
    assert rc == 0
    assert "classes=2 counts=[5,5]" in capsys.readouterr().out
    rc = main(["load-check", "--train", str(f), "--remap", "1-1"])
    assert rc == 2
    assert "remap entries must look like SRC:DST" in capsys.readouterr().err


def test_data_dir_resolution(tmp_path, monkeypatch, capsys):
    d = tmp_path / "datadir"
    d.mkdir()
    save_statlog(gen_circles(5, [1.0, 2.0], 0.02, seed=6), d / "inner.trn")
    monkeypatch.setenv("CCDR_DATA_DIR", str(d))
    monkeypatch.chdir(tmp_path)
    rc = main(["load-check", "--train", "inner.trn", "--remap", "identity"])
    assert rc == 0
    assert "n=10" in capsys.readouterr().out


def test_missing_file_reports_error(capsys):
    rc = main(["load-check", "--train", "/nonexistent/file.trn"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
