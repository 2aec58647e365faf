"""Command line front end: load-check, synth, embed, oos, classify, sweep.

Every verb accepts --config FILE with key=value lines (keys are the long
option names, dashes or underscores); explicit flags override file values.
Relative data paths are also resolved against $CCDR_DATA_DIR when set.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .dataset import (
    PASSTHROUGH_REMAP,
    SATIMAGE_REMAP,
    class_counts,
    gen_circles,
    load_statlog,
    read_points,
    save_statlog,
)
from .embedding import embed_many, load_model, refit_embed, save_model
from .harness import (
    CLASSIFIERS,
    PIPELINES,
    ExperimentConfig,
    emit_report,
    fit_pipeline,
    run_sweep,
)

DATA_DIR_ENV = "CCDR_DATA_DIR"


def _resolve(path: str) -> str:
    if os.path.exists(path) or os.path.isabs(path):
        return path
    base = os.environ.get(DATA_DIR_ENV)
    if base:
        cand = os.path.join(base, path)
        if os.path.exists(cand):
            return cand
    return path


def _parse_remap(s: str):
    if s == "satimage":
        return SATIMAGE_REMAP
    if s == "identity":
        return PASSTHROUGH_REMAP
    table = {}
    for part in s.split(","):
        src, _, dst = part.partition(":")
        if not dst:
            raise ValueError("remap entries must look like SRC:DST, got %r" % part)
        table[int(src)] = int(dst)
    return table


def _bool(s) -> bool:
    if isinstance(s, bool):
        return s
    t = str(s).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean: %r" % s)


def _ints(s) -> tuple:
    return tuple(int(t) for t in str(s).split(",") if t.strip())


def _floats(s) -> tuple:
    return tuple(float(t) for t in str(s).split(",") if t.strip())


def _opt_float(s):
    if s is None or str(s).strip().lower() in ("", "none"):
        return None
    return float(s)


# verb -> option name -> (default, converter). Converters apply both to
# config-file strings and to flag strings, so the two behave identically.
_SCHEMAS = {
    "synth": {
        "out": (None, str),
        "n_per_class": (100, int),
        "radii": ((1.0, 2.0), _floats),
        "noise_sd": (0.01, float),
        "seed": (0, int),
    },
    "load-check": {
        "train": (None, str),
        "test": (None, str),
        "remap": ("satimage", str),
    },
    "embed": {
        "train": (None, str),
        "pipeline": ("ccdr", str),
        "m": (2, int),
        "k": (4, int),
        "beta": (1.0, float),
        "eps": (None, _opt_float),
        "eps_scale": (1.0, float),
        "standardize": (False, _bool),
        "remap": ("satimage", str),
        "out": (None, str),
        "model_out": (None, str),
    },
    "oos": {
        "model": (None, str),
        "points": (None, str),
        "out": (None, str),
        "remap": ("satimage", str),
        "full_kernel": (False, _bool),
        "brute_force": (False, _bool),
    },
    "classify": {
        "train": (None, str),
        "test": (None, str),
        "synth_n_per_class": (None, lambda s: None if s in (None, "") else int(s)),
        "synth_radii": ((1.0, 2.0), _floats),
        "synth_noise_sd": (0.01, float),
        "pipeline": ("ccdr", str),
        "classifier": ("knn", str),
        "beta": (1.0, float),
        "m": (2, int),
        "k": (4, int),
        "clf_k": (1, int),
        "eps": (None, _opt_float),
        "eps_scale": (1.0, float),
        "standardize": (False, _bool),
        "remap": ("satimage", str),
        "seed": (0, int),
        "ci_level": (0.8, float),
    },
    "sweep": {
        "train": (None, str),
        "test": (None, str),
        "synth_n_per_class": (None, lambda s: None if s in (None, "") else int(s)),
        "synth_radii": ((1.0, 2.0), _floats),
        "synth_noise_sd": (0.01, float),
        "pipelines": (("ccdr",), lambda s: tuple(str(s).split(","))),
        "classifiers": (("knn",), lambda s: tuple(str(s).split(","))),
        "betas": ((0.5,), _floats),
        "ms": ((2,), _ints),
        "graph_ks": ((4,), _ints),
        "clf_ks": ((1,), _ints),
        "eps": (None, _opt_float),
        "eps_scale": (1.0, float),
        "standardize": (False, _bool),
        "remap": ("satimage", str),
        "seed": (0, int),
        "ci_level": (0.8, float),
        "oos_full_kernel": (False, _bool),
        "oos_refit": (False, _bool),
        "no_wall": (False, _bool),
        "out": (None, str),
    },
}


def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            key, sep, val = body.partition("=")
            if not sep:
                raise ValueError(
                    "%s: line %d: expected key=value" % (path, lineno)
                )
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ccdr",
        description="Label-aware spectral embedding and its evaluation harness",
    )
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, schema in _SCHEMAS.items():
        p = sub.add_parser(verb)
        p.add_argument("--config", default=None, help="key=value file; flags win")
        for name in schema:
            p.add_argument("--" + name.replace("_", "-"), dest=name, default=None)
    return top


def _merge(verb: str, args: argparse.Namespace) -> dict:
    schema = _SCHEMAS[verb]
    file_cfg = _parse_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - set(schema)
    if unknown:
        raise ValueError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    opts = {}
    for name, (default, conv) in schema.items():
        flag = getattr(args, name)
        if flag is not None:
            opts[name] = conv(flag)
        elif name in file_cfg:
            opts[name] = conv(file_cfg[name])
        else:
            opts[name] = default
    return opts


def _require(opts: dict, *names: str) -> None:
    for name in names:
        if opts[name] in (None, ""):
            raise ValueError("missing required option --%s" % name.replace("_", "-"))


def _write_embedding_csv(path, coords: np.ndarray, labels: np.ndarray) -> None:
    m = coords.shape[1]
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join("e%d" % (j + 1) for j in range(m)) + ",label\n")
        for row, lab in zip(coords, labels):
            fh.write(",".join(repr(float(v)) for v in row) + ",%d\n" % lab)


def _cmd_synth(opts) -> int:
    _require(opts, "out")
    ds = gen_circles(
        opts["n_per_class"], opts["radii"], opts["noise_sd"], opts["seed"]
    )
    save_statlog(ds, opts["out"])
    print(
        "wrote %d points (%d classes, d=%d) to %s"
        % (ds.n, ds.num_classes, ds.d, opts["out"])
    )
    return 0


def _summary(tag: str, ds) -> str:
    counts = ",".join(str(int(c)) for c in class_counts(ds))
    return "%s: n=%d d=%d classes=%d counts=[%s] unlabeled=%d" % (
        tag, ds.n, ds.d, ds.num_classes, counts, int(np.sum(ds.labels == 0))
    )


def _cmd_load_check(opts) -> int:
    _require(opts, "train")
    remap = _parse_remap(opts["remap"])
    print(_summary("train", load_statlog(_resolve(opts["train"]), remap=remap)))
    if opts["test"]:
        print(_summary("test", load_statlog(_resolve(opts["test"]), remap=remap)))
    return 0


def _cmd_embed(opts) -> int:
    _require(opts, "train", "out")
    if opts["model_out"] and opts["pipeline"] != "ccdr":
        raise ValueError("--model-out only applies to the ccdr pipeline")
    remap = _parse_remap(opts["remap"])
    train = load_statlog(_resolve(opts["train"]), remap=remap)
    if opts["standardize"]:
        from .dataset import apply_standardize, column_stats

        mean, sd = column_stats(train)
        train = apply_standardize(train, mean, sd)
    pf = fit_pipeline(
        opts["pipeline"], train, m=opts["m"], graph_k=opts["k"],
        beta=opts["beta"], eps=opts["eps"], eps_scale=opts["eps_scale"],
    )
    _write_embedding_csv(opts["out"], pf.train_embedding, train.labels)
    print(
        "embedded %d points into %d dims with %s; wrote %s"
        % (train.n, pf.train_embedding.shape[1], opts["pipeline"], opts["out"])
    )
    if opts["model_out"]:
        save_model(pf.detail, opts["model_out"])
        print("saved model to %s" % opts["model_out"])
    return 0


def _cmd_oos(opts) -> int:
    _require(opts, "model", "points", "out")
    model = load_model(_resolve(opts["model"]))
    remap = _parse_remap(opts["remap"])
    points, labels = read_points(_resolve(opts["points"]), remap=remap)
    if opts["brute_force"]:
        coords = np.vstack([refit_embed(model, x) for x in points])
    else:
        coords = embed_many(model, points, labels, full_kernel=opts["full_kernel"])
    _write_embedding_csv(opts["out"], coords, labels)
    print("embedded %d query points; wrote %s" % (points.shape[0], opts["out"]))
    return 0


def _data_options(opts) -> dict:
    if opts["synth_n_per_class"] is not None:
        return {
            "synth": {
                "n_per_class": opts["synth_n_per_class"],
                "radii": opts["synth_radii"],
                "noise_sd": opts["synth_noise_sd"],
            }
        }
    _require(opts, "train", "test")
    return {
        "train_path": _resolve(opts["train"]),
        "test_path": _resolve(opts["test"]),
    }


def _cmd_classify(opts) -> int:
    cfg = ExperimentConfig(
        remap=_parse_remap(opts["remap"]),
        pipelines=(opts["pipeline"],),
        classifiers=(opts["classifier"],),
        betas=(opts["beta"],),
        ms=(opts["m"],),
        graph_ks=(opts["k"],),
        clf_ks=(opts["clf_k"],),
        eps=opts["eps"],
        eps_scale=opts["eps_scale"],
        standardize=opts["standardize"],
        seed=opts["seed"],
        ci_level=opts["ci_level"],
        **_data_options(opts),
    )
    row = run_sweep(cfg).rows[0]
    if row.note:
        raise ValueError("grid point failed: %s" % row.note)
    print(
        "pipeline=%s classifier=%s error=%.6g ci%d=[%.6g,%.6g]"
        % (
            row.pipeline, row.classifier, row.error,
            round(cfg.ci_level * 100), row.ci_low, row.ci_high,
        )
    )
    return 0


def _cmd_sweep(opts) -> int:
    _require(opts, "out")
    cfg = ExperimentConfig(
        remap=_parse_remap(opts["remap"]),
        pipelines=opts["pipelines"],
        classifiers=opts["classifiers"],
        betas=opts["betas"],
        ms=opts["ms"],
        graph_ks=opts["graph_ks"],
        clf_ks=opts["clf_ks"],
        eps=opts["eps"],
        eps_scale=opts["eps_scale"],
        standardize=opts["standardize"],
        seed=opts["seed"],
        ci_level=opts["ci_level"],
        oos_full_kernel=opts["oos_full_kernel"],
        oos_refit=opts["oos_refit"],
        measure_wall=not opts["no_wall"],
        **_data_options(opts),
    )
    report = run_sweep(cfg)
    emit_report(report, opts["out"])
    failed = sum(1 for r in report.rows if r.note)
    msg = "wrote %d rows to %s" % (len(report.rows), opts["out"])
    if failed:
        msg += " (%d failed grid points marked nan)" % failed
    print(msg)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "load-check": _cmd_load_check,
    "embed": _cmd_embed,
    "oos": _cmd_oos,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opts = _merge(args.verb, args)
        return _COMMANDS[args.verb](opts)
    except (ValueError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
