"""Every name that a module of the package, of its tests or of the bench
imports is read somewhere in that module, or exported through its __all__,
and every private function or class of the package is read somewhere in
the package: code that only tests reach belongs in the tests."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "gzlie", "*.py")))
MODULES = sorted(PACKAGE + glob.glob(os.path.join(ROOT, "tests", "*.py"))
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


def unread_private_definitions(sources):
    """Functions and classes, methods included, with a private name (one
    leading underscore, not a dunder) defined in any of the module sources
    that no expression of them reads, as a name or as an attribute."""
    defined, read = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__")
                                                 and name.endswith("__")):
                    defined.add(name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                read.add(node.attr)
    return sorted(defined - read)


def test_scan_flags_an_unread_private_definition():
    sources = ["def _used():\n    pass\n"
               "class _Kept:\n"
               "    def _method(self):\n        return _used()\n"
               "    def __len__(self):\n        return 0\n"
               "    def _dead_method(self):\n        pass\n"
               "def _dead():\n    pass\n"
               "class _Gone:\n    pass\n",
               "from a import _Kept\n_Kept()._method()\n"]
    assert unread_private_definitions(sources) == [
        "_Gone", "_dead", "_dead_method"]


def test_no_unread_private_definitions_in_the_package():
    sources = []
    for path in PACKAGE:
        with open(path) as fh:
            sources.append(fh.read())
    assert unread_private_definitions(sources) == []
