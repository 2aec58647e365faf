"""numpy and scipy each link their own OpenBLAS, with its own worker pool.

A threaded LAPACK call on scipy's pool leaves its worker spinning for about
0.1 s, and numpy's GEMMs (every neighbour search) run at about half speed
meanwhile. So dense linear algebra goes through numpy.linalg, and only the
eigensolver module calls scipy's LAPACK and ARPACK. Thread counts are not
set from the package.
"""

import ast
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


def test_only_spectral_calls_scipy_linalg():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    on_scipy = {
        p.name
        for p in sources
        if any(_within(u, SCIPY_LINALG) for u in _modules_used(ast.parse(p.read_text())))
    }
    assert on_scipy == {"spectral.py"}


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
