"""The package root exports exactly what README documents, and every module's
``__all__`` lists distinct names that resolve."""

import importlib
import pkgutil
import re
from pathlib import Path

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
