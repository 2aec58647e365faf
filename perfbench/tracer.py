"""Spans around the package's public functions, installed from outside.

Each target function is replaced, for the length of the traced run, at every
name through which the package reaches it (for example both
ccdr.graph.knn_graph and ccdr.embedding.knn_graph), so calls between modules
are seen too. Spans (name, start, end, parent) stay in memory; self time is
a span's duration minus the durations of its direct children. A span of
spectral.generalized_eig also records the bytes of the matrix it is handed.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import scipy.sparse

# module.function for every traced public function of the package
TARGETS = (
    "dataset.load_statlog",
    "graph.knn_graph",
    "graph.median_eps",
    "graph.heat_weights",
    "graph.kernel_rows",
    "spectral.generalized_eig",
    "embedding.fit",
    "embedding.build_augmented",
    "embedding.constraint_residuals",
    "embedding.embed_many",
    "classify.sorted_neighbor_labels",
    "classify.vote",
    "classify.linear_fit",
    "baselines.pca_fit",
    "baselines.lda_fit",
    "harness.fit_pipeline",
    "harness.run_sweep",
)


def matrix_bytes(a) -> int:
    """Bytes held by the matrix a solver is handed: a dense array's buffer,
    or a sparse matrix's value and index arrays."""
    if scipy.sparse.issparse(a):
        parts = ("data", "indices", "indptr", "row", "col", "offsets")
        return sum(getattr(a, f).nbytes for f in parts if hasattr(a, f))
    return int(getattr(a, "nbytes", 0))


class Tracer:
    """Wraps TARGETS of the ccdr package; records spans while `recording` is set."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, bytes or None]
        self.absent = []
        self.recording = False
        self._stack = []
        self._patches = []

    def _modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "ccdr" or name.startswith("ccdr."))
        ]

    def install(self) -> None:
        self.absent = []
        modules = self._modules()
        for target in TARGETS:
            mod_name, _, fn_name = target.rpartition(".")
            mod = sys.modules.get("ccdr." + mod_name)
            fn = getattr(mod, fn_name, None) if mod is not None else None
            if not callable(fn):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches = []

    def _open(self, name, nbytes=None) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, nbytes]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        sized = name == "spectral.generalized_eig"  # its first argument is the matrix solved

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            nbytes = None
            if sized:
                nbytes = matrix_bytes(args[0] if args else next(iter(kwargs.values())))
            span = self._open(name, nbytes)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    @contextlib.contextmanager
    def mark(self, name: str):
        """Record a span for a stretch of benchmark code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def totals(self) -> dict:
        """Self time, call count and largest bytes per name, inside "round" spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        inside = [False] * len(spans)
        out = {}
        for i, s in enumerate(spans):
            p = s[3]
            inside[i] = p >= 0 and (inside[p] or spans[p][0] == "round")
            if not inside[i]:
                continue
            t = out.setdefault(s[0], {"self_s": 0.0, "calls": 0, "bytes": 0})
            t["self_s"] += (s[2] - s[1]) - child_time[i]
            t["calls"] += 1
            if s[4] is not None:
                t["bytes"] = max(t["bytes"], s[4])
        return out
