"""The package root exports exactly what README documents, and every module's
``__all__`` lists distinct names that resolve."""

import ast
import collections
import importlib
import pkgutil
import re
import warnings
from pathlib import Path

import pytest

import wlmf

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_code_names():
    """Last component of the dotted name that opens each inline code span of
    README (fenced blocks aside), so `wlmf.cnn.train` and `train(seed, *,
    input_len=8, filter_len=3)` both document ``train``."""
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    names = set()
    for span in re.findall(r"`([^`]+)`", text):
        match = re.match(r"[A-Za-z_][\w.]*", span)
        if match:
            names.add(match.group().rsplit(".", 1)[-1])
    return names


def modules_with_all():
    """The package root and every ``wlmf.*`` module that defines ``__all__``."""
    names = [info.name for info in pkgutil.iter_modules(wlmf.__path__, "wlmf.")]
    modules = [wlmf] + [importlib.import_module(name) for name in names if name != "wlmf.__main__"]
    return [module for module in modules if hasattr(module, "__all__")]


def test_all_names_resolve():
    for module in modules_with_all():
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
        assert len(set(module.__all__)) == len(module.__all__), module.__name__


def test_star_import_yields_exactly_all():
    namespace = {}
    exec("from wlmf import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(wlmf.__all__)


def test_readme_documents_every_root_name():
    undocumented = sorted(set(wlmf.__all__) - readme_code_names())
    assert undocumented == []


def unused_imports(path):
    """Names a module imports but neither uses nor lists in a literal
    ``__all__``; ``from __future__`` imports are directives, not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_no_module_imports_an_unused_name():
    package = Path(wlmf.__file__).resolve().parent
    unused = {path.name: unused_imports(path) for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def referenced_names(node):
    """Every name and attribute name that code under ``node`` reads or writes."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def test_every_private_definition_has_a_caller_in_the_package():
    """A private module-level function or class is referenced somewhere in
    the package outside its own definition: code whose only caller is a test
    is deleted, not kept for the test."""
    package = Path(wlmf.__file__).resolve().parent
    references, private = collections.Counter(), []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        references.update(referenced_names(tree))
        private += [
            (path.name, node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
        ]
    assert private
    uncalled = [f"{module}:{node.name}" for module, node in private
                if references[node.name] == list(referenced_names(node)).count(node.name)]
    assert uncalled == []


@pytest.mark.parametrize("category", [RuntimeWarning, DeprecationWarning, FutureWarning])
def test_warnings_from_package_code_fail_the_suite(category):
    """The suite turns a runtime, deprecation or future warning raised from a
    ``wlmf`` module into an error, so a deprecated numpy call in the package
    fails a test instead of passing silently."""
    with pytest.raises(category):
        warnings.warn_explicit("probe", category, "filters.py", 1, module="wlmf.filters")
