import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import achilles

MODULES = sorted(info.name for info in pkgutil.iter_modules(achilles.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"achilles.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(achilles.__file__).read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imports
    stray = [
        (module, name)
        for module, name in imports
        if name not in importlib.import_module(f"achilles.{module}").__all__
    ]
    assert stray == []
