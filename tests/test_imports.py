"""Every name that a module of the package, of its tests or of the bench
imports is read somewhere in that module, or exported through its __all__."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "gzlie", "*.py"))
                 + glob.glob(os.path.join(ROOT, "tests", "*.py"))
                 + glob.glob(os.path.join(ROOT, "perfbench", "*.py")))


def unused_imports(source):
    """Names bound by an import statement (anywhere in the module, from
    __future__ aside) that no expression reads and __all__ does not list."""
    tree = ast.parse(source)
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names
                            if a.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_scan_flags_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as js\n"
              "from math import gcd, lcm\nfrom re import sub\n"
              "__all__ = ['sub']\n"
              "def f():\n    from sys import argv\n    return os.sep, gcd\n")
    assert unused_imports(source) == ["argv", "js", "lcm"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[os.path.relpath(p, ROOT) for p in MODULES])
def test_no_unused_imports(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []
