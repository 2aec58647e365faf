"""Reference eigenvalues for the fit check, one dense solve per seed.

The fit check compares the retained eigenvalues with the smallest ones of
the benchmark's own augmented matrix. That solve needs p^2 doubles (157 MB
at p = 4441) and seconds of LAPACK, so run.py makes it once per seed and
size, in a child process whose memory never counts towards the run's peak,
and keeps it in out/. Make kept values anew (or ahead of the runs) with

    python3 perfbench/reference.py --workload satimage-iso --seeds 0-9
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from checks import FitProblem, reference_eigenvalues
from workloads import NUM_CLASSES, WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"


def _cache_path(workload: str, n_train: int, seed: int) -> Path:
    return OUT_DIR / ("ref-%s-n%d-s%d.json" % (workload, n_train, seed))


def lookup(workload, seed: int, n_train: int):
    """Kept reference eigenvalues for this seed and size, or None."""
    cache = _cache_path(workload.name, n_train, seed)
    if cache.is_file():
        data = json.loads(cache.read_text())
        if data.get("signature") == workload.signature(n_train):
            return data["eigenvalues"]
    return None


def compute(workload, seed: int, n_train: int) -> list:
    split = workload.split(seed, n_train)
    problem = FitProblem(split.train_X, split.train_labels, NUM_CLASSES, workload.k, workload.beta)
    return [float(v) for v in reference_eigenvalues(problem, workload.m + 2)]


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", required=True, help="e.g. 0-9 or 3,5,8")
    ap.add_argument("--n-train", type=int, default=None)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    n = wl.n_train if args.n_train is None else args.n_train
    OUT_DIR.mkdir(exist_ok=True)
    for seed in _seeds(args.seeds):
        path = _cache_path(wl.name, n, seed)
        tmp = path.with_suffix(".tmp%d" % os.getpid())
        tmp.write_text(json.dumps({"signature": wl.signature(n), "eigenvalues": compute(wl, seed, n)}))
        tmp.replace(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
