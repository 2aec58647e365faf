"""Command line verbs, config files, and option resolution."""

import numpy as np
import pytest

import ccdr
from ccdr.cli import main
from ccdr.dataset import gen_circles, identity_remap, load_statlog, save_statlog
from ccdr.embedding import load_model


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
    ds = load_statlog(p1, remap=identity_remap(2))
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
    o2 = tmp_path / "oos_full.csv"
    assert main(["oos", "--model", str(mdl), "--points", tst, "--remap", "identity",
                 "--out", str(o2), "--full-kernel", "true"]) == 0
    assert o2.read_text() != o1.read_text()
    o3 = tmp_path / "oos_refit.csv"
    assert main(["oos", "--model", str(mdl), "--points", tst, "--remap", "identity",
                 "--out", str(o3), "--brute-force", "true"]) == 0
    assert len(o3.read_text().splitlines()) == 21


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
