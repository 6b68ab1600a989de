"""Every name that a module of the package, of its tests or of the bench
imports is read somewhere in that module, or exported through its __all__;
every private function or class of the package is read somewhere in the
package, and so is every public one that is not API: code that only tests
reach belongs in the tests.

The API is declared in three places, and read from them here: the names in
code spans and code blocks of README.md, the entry function of each
[project.scripts] entry of pyproject.toml, and the functions and methods
the bench tracer wraps (SPAN_LAYERS and COUNT_LAYERS).  Code of perfbench/
reads the package as package code does.  A public function or class is
read when an expression reads its name; a public method that is not a
property only when one is called through an attribute (x.m(...)), so that
a field or a local variable of the same name does not keep it."""

import ast
import glob
import os
import re

import pytest

from test_bench_tracer import _load_tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "gzlie", "*.py")))
BENCH = sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
MODULES = sorted(PACKAGE + glob.glob(os.path.join(ROOT, "tests", "*.py"))
                 + BENCH)


def _sources(paths):
    out = []
    for path in paths:
        with open(path) as fh:
            out.append(fh.read())
    return out


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


def _definitions(sources):
    """Names of the functions and classes, methods included, that the
    module sources define."""
    return {node.name for source in sources
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def _reads(sources):
    """Names that an expression of the module sources reads, as a name or
    as an attribute."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                read.add(node.attr)
    return read


def unread_private_definitions(sources):
    """Functions and classes, methods included, with a private name (one
    leading underscore, not a dunder) defined in any of the module sources
    that no expression of them reads, as a name or as an attribute."""
    private = {name for name in _definitions(sources)
               if name.startswith("_")
               and not (name.startswith("__") and name.endswith("__"))}
    return sorted(private - _reads(sources))


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
    assert unread_private_definitions(_sources(PACKAGE)) == []


def api_names(readme, pyproject, traced_layers):
    """The names the package declares to readers outside it: every name in
    a code span or code block of the README text, the entry function of
    each [project.scripts] entry of the pyproject text, and the last part
    of every qualified name in the tracer's layer tables (layer ->
    [(module, qualified name), ...])."""
    blocks = re.findall(r"```.*?```", readme, re.S)
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme,
                                            flags=re.S))
    names = set(re.findall(r"\w+", " ".join(blocks + spans)))
    scripts = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n)*)",
                        pyproject, re.M).group(1)
    names.update(re.findall(r":(\w+)[\"']", scripts))
    names.update(qual.rsplit(".", 1)[-1] for layers in traced_layers
                 for specs in layers.values() for _, qual in specs)
    return names


def _public_definitions(sources):
    """(functions, methods): the public names (no leading underscore) of
    the functions and classes, and of the methods that are not properties,
    that the module sources define.  A method is a function defined in the
    body of a class."""
    functions, methods = set(), set()
    for source in sources:
        tree = ast.parse(source)
        method_nodes = {
            node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not any(isinstance(d, ast.Name) and d.id == "property"
                        for d in node.decorator_list)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                (methods if node in method_nodes else functions).add(
                    node.name)
    return functions, methods


def _attribute_calls(sources):
    """Names that an expression of the module sources calls through an
    attribute, as m in x.m(...)."""
    return {node.func.attr for source in sources
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)}


def unread_public_definitions(sources, bench_sources, api):
    """Public definitions of the module sources that no reader reaches and
    that api does not hold.  A function or class is reached when an
    expression of the module or bench sources reads its name, as a name or
    as an attribute; a method that is not a property only when one of them
    calls it through an attribute (x.m(...)), so a field or a local
    variable of the same name does not count."""
    functions, methods = _public_definitions(sources)
    readers = sources + bench_sources
    return sorted((functions - _reads(readers) - api)
                  | (methods - _attribute_calls(readers) - api))


def test_scan_flags_an_unread_public_definition():
    sources = ["def used():\n    pass\n"
               "class Kept:\n"
               "    def method(self):\n        return used()\n"
               "    def dead_method(self):\n        pass\n"
               "    def benched(self):\n        pass\n"
               "    def traced(self):\n        pass\n"
               "    def field(self):\n        pass\n"
               "    def local(self):\n        pass\n"
               "    @property\n    def prop(self):\n        pass\n"
               "def dead():\n    pass\n"
               "def documented():\n    pass\n"
               "def listed():\n    pass\n"
               "def main():\n    pass\n",
               "from a import Kept\nKept().method()\n"
               "local = Kept().prop\nprint(local, Kept().field)\n"]
    readme = ("Call `documented(x)`; plain words such as dead do not "
              "count.\n\n```\nfrom a import listed\n```\n")
    pyproject = ('[project]\nname = "a"\n\n[project.scripts]\n'
                 'a = "a.cli:main"\n\n[tool.x]\ny = "b:dead"\n')
    bench = ["def run(k):\n    return k.benched(), k.field\n"]
    api = api_names(readme, pyproject, [{"a.layer": [("a", "Kept.traced")]}])
    # a method read only as a field or as a local variable is flagged
    assert unread_public_definitions(sources, bench, api) == [
        "dead", "dead_method", "field", "local"]
    # without the bench source, the method it calls is flagged too
    assert unread_public_definitions(sources, [], api) == [
        "benched", "dead", "dead_method", "field", "local"]


def test_no_unread_public_definitions_in_the_package():
    """A public function, class or method of gzlie that no package code
    reads is API (see the module docstring) or belongs in the tests."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        pyproject = fh.read()
    tracer = _load_tracer()
    api = api_names(readme, pyproject,
                    [tracer.SPAN_LAYERS, tracer.COUNT_LAYERS])
    assert unread_public_definitions(_sources(PACKAGE), _sources(BENCH),
                                     api) == []
