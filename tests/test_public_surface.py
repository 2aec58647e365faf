"""The public surface: every exported name is real and has a caller.

A name in `ccdr.__all__` must be used by some package module other than
`__init__.py`, or by the benchmark under `perfbench/`. A helper that only
tests call belongs in `tests/conftest.py`, not in the package.
"""

import ast
from pathlib import Path

import ccdr

REPO_ROOT = Path(__file__).resolve().parent.parent


def _used_names() -> set[str]:
    """Names read, attributes taken and (in perfbench) names imported from
    ccdr, across the package's modules and the benchmark's."""
    files = [p for p in sorted((REPO_ROOT / "src" / "ccdr").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((REPO_ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.ImportFrom) and path.parent.name == "perfbench"
                    and (node.module or "").split(".")[0] == "ccdr"):
                used.update(alias.name for alias in node.names)
    return used


def test_every_exported_name_resolves_and_is_used():
    missing = [name for name in ccdr.__all__ if not hasattr(ccdr, name)]
    assert missing == []
    unused = [name for name in ccdr.__all__ if name not in _used_names()]
    assert unused == []
