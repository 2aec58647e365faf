"""Command line front end: load-check, synth, embed, oos, classify, sweep.

Every verb accepts --config FILE with key=value lines (keys are the long
option names, dashes or underscores); explicit flags override file values.
Relative data paths are also resolved against $CCDR_DATA_DIR when set.
sweep and oos share one --oos option, one of embedding.OOS_MODES, for how
query points reach a fitted graph model.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .dataset import (
    PASSTHROUGH_REMAP,
    SATIMAGE_REMAP,
    apply_standardize,
    class_counts,
    column_stats,
    gen_circles,
    load_statlog,
    read_points,
    save_statlog,
)
from .embedding import _check_oos, embed_many, load_model, save_model
from .harness import ExperimentConfig, emit_report, fit_pipeline, run_sweep

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


def _list(elem):
    """Comma-list converter. Blank items are dropped from number lists and
    kept in name lists, where run_sweep rejects them."""
    return lambda s: tuple(elem(t) for t in str(s).split(",") if elem is str or t.strip())


def _opt_float(s):
    if s is None or str(s).strip().lower() in ("", "none"):
        return None
    return float(s)


def _converter(default):
    """The converter an ExperimentConfig field's default implies."""
    if isinstance(default, bool):
        return _bool
    if isinstance(default, tuple):
        return _list(type(default[0]))
    if default is None:
        return _opt_float
    return type(default)


# ExperimentConfig fields with no option of their own name: the data source
# (train, test, synth_*), the label table (remap) and sweep's no_wall
_SPECIAL_FIELDS = ("train_path", "test_path", "synth", "remap", "measure_wall")
# classify is a one-point sweep: grid field -> its singular option
_POINT_OPTIONS = {
    "pipelines": "pipeline", "classifiers": "classifier", "betas": "beta",
    "ms": "m", "graph_ks": "k", "clf_ks": "clf_k",
}
_SWEEP_ONLY = ("oos",)


def _experiment_schema(sweep: bool) -> dict:
    """sweep's or classify's options, derived from ExperimentConfig."""
    schema = {
        "train": (None, str),
        "test": (None, str),
        "synth_n_per_class": (None, lambda s: None if s in (None, "") else int(s)),
        "synth_radii": ((1.0, 2.0), _list(float)),
        "synth_noise_sd": (0.01, float),
        "remap": ("satimage", str),
    }
    for f in fields(ExperimentConfig):
        if f.name in _SPECIAL_FIELDS or (not sweep and f.name in _SWEEP_ONLY):
            continue
        name, default = f.name, f.default
        if not sweep and name in _POINT_OPTIONS:
            # classify --beta defaults to fit's beta, not the sweep grid's
            default = 1.0 if name == "betas" else default[0]
            name = _POINT_OPTIONS[name]
        schema[name] = (default, _converter(default))
    if sweep:
        schema["no_wall"] = (False, _bool)
    return schema


_CLASSIFY = _experiment_schema(sweep=False)
_SWEEP = {**_experiment_schema(sweep=True), "out": (None, str)}

# verb -> option name -> (default, converter). Converters apply both to
# config-file strings and to flag strings, so the two behave identically.
_SCHEMAS = {
    "synth": {
        "out": (None, str),
        "n_per_class": (100, int),
        "radii": ((1.0, 2.0), _list(float)),
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
        # classify's fit options, defaults and converters
        **{name: _CLASSIFY[name] for name in (
            "pipeline", "m", "k", "beta", "eps", "eps_scale", "standardize", "remap")},
        "out": (None, str),
        "model_out": (None, str),
    },
    "oos": {
        "model": (None, str),
        "points": (None, str),
        "out": (None, str),
        "remap": ("satimage", str),
        "oos": _SWEEP["oos"],
    },
    "classify": _CLASSIFY,
    "sweep": _SWEEP,
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
    if opts["model_out"] and opts["standardize"]:
        # the model would hold z-scored points without the column statistics,
        # so oos would embed raw queries into the wrong coordinates
        raise ValueError("--model-out cannot be combined with --standardize true")
    remap = _parse_remap(opts["remap"])
    train = load_statlog(_resolve(opts["train"]), remap=remap)
    if opts["standardize"]:
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
    _check_oos(opts["oos"])
    model = load_model(_resolve(opts["model"]))
    remap = _parse_remap(opts["remap"])
    points, labels = read_points(_resolve(opts["points"]), remap=remap)
    coords = embed_many(model, points, labels, opts["oos"])
    _write_embedding_csv(opts["out"], coords, labels)
    print("embedded %d query points; wrote %s" % (points.shape[0], opts["out"]))
    return 0


def _experiment(opts) -> ExperimentConfig:
    """The ExperimentConfig that sweep's or classify's options describe."""
    kw = {"remap": _parse_remap(opts["remap"])}
    for f in fields(ExperimentConfig):
        if f.name in _SPECIAL_FIELDS:
            continue
        if f.name in opts:
            kw[f.name] = opts[f.name]
        elif _POINT_OPTIONS.get(f.name) in opts:
            kw[f.name] = (opts[_POINT_OPTIONS[f.name]],)
    if "no_wall" in opts:
        kw["measure_wall"] = not opts["no_wall"]
    if opts["synth_n_per_class"] is not None:
        kw["synth"] = {
            "n_per_class": opts["synth_n_per_class"],
            "radii": opts["synth_radii"],
            "noise_sd": opts["synth_noise_sd"],
        }
    else:
        _require(opts, "train", "test")
        kw["train_path"] = _resolve(opts["train"])
        kw["test_path"] = _resolve(opts["test"])
    return ExperimentConfig(**kw)


def _cmd_classify(opts) -> int:
    cfg = _experiment(opts)
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
    report = run_sweep(_experiment(opts))
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
