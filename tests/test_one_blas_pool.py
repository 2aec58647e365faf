"""numpy and scipy each link their own OpenBLAS, with its own worker pool.

A threaded call on one pool leaves its worker spinning for about 0.1 s,
and BLAS work on the other pool runs at about half speed meanwhile. So all
dense and iterative linear algebra, the eigensolver's Lanczos iteration
included, goes through numpy, whose pool also runs every neighbour-search
GEMM; no module reaches scipy.linalg or scipy.sparse.linalg. Thread counts
are not set from the package.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ccdr"
SCIPY_LINALG = ("scipy.linalg", "scipy.sparse.linalg")
THREAD_CONTROL = ("ctypes", "threadpoolctl")


def _within(name, prefixes):
    return any(name == p or name.startswith(p + ".") for p in prefixes)


def _modules_used(tree):
    """Dotted names of every module imported, imported from, or reached as
    an attribute chain through an imported name."""
    aliases, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                used.add(a.name)
                if a.asname:
                    aliases[a.asname] = a.name
                else:
                    root = a.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            used.add(node.module)
            for a in node.names:
                used.add(node.module + "." + a.name)
                aliases[a.asname or a.name] = node.module + "." + a.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in aliases:
                used.add(".".join([aliases[node.id]] + parts[::-1]))
    return used


def test_no_module_calls_scipy_linalg():
    sources = sorted(PACKAGE.glob("*.py"))
    assert "spectral.py" in {p.name for p in sources} and len(sources) > 5
    on_scipy = {
        p.name
        for p in sources
        if any(_within(u, SCIPY_LINALG) for u in _modules_used(ast.parse(p.read_text())))
    }
    assert on_scipy == set()


def test_no_thread_control_in_the_package():
    for p in sorted(PACKAGE.glob("*.py")):
        text = p.read_text()
        used = _modules_used(ast.parse(text))
        assert not any(_within(u, THREAD_CONTROL) for u in used), p.name
        assert "OPENBLAS_NUM_THREADS" not in text, p.name


def test_module_scan_sees_aliases_and_attribute_chains():
    tree = ast.parse(
        "import scipy\nimport scipy.sparse as sp\nfrom scipy import sparse\n"
        "scipy.linalg.eigh(a)\nsp.linalg.eigsh(a)\nsparse.linalg.svds(a)\n"
    )
    used = _modules_used(tree)
    assert {"scipy.linalg.eigh", "scipy.sparse.linalg.eigsh", "scipy.sparse.linalg.svds"} <= used
    assert not any(_within(u, SCIPY_LINALG) for u in _modules_used(ast.parse("import scipy.sparse")))


# Fits a satimage-sized problem (n = 4435, d = 36, 6 classes, k = 4,
# m = 14, so p = 4441) and prints a digest of the fitted bits.
FIT_DIGEST = """
import hashlib
import numpy as np
from ccdr import LabeledDataset, fit
rng = np.random.default_rng(5)
labels = rng.integers(1, 7, 4435)
points = rng.standard_normal((4435, 36)) + 0.5 * rng.standard_normal((6, 36))[labels - 1]
model = fit(LabeledDataset(points, labels, 6), k=4, beta=0.5, m=14)
print(hashlib.sha256(model.embedding.tobytes() + model.eigenvalues.tobytes()).hexdigest())
"""


def test_fit_bits_do_not_depend_on_the_blas_thread_count():
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(PACKAGE.parent))
        out = subprocess.run(
            [sys.executable, "-c", FIT_DIGEST], env=env, capture_output=True, text=True, check=True
        )
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
