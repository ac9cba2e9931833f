"""The oracles stay independent of the code whose claims they check."""

import ast
import importlib
from pathlib import Path

import sepaut.oracles

# the modules whose claims the oracles check
CHECKED = {"quasitorus", "permgroup", "torusgeom", "rigidity", "autassembly"}
ALLOWED = {("permgroup", "cycle_notation")}


def test_oracles_import_only_exceptions_from_the_checked_modules():
    tree = ast.parse(Path(sepaut.oracles.__file__).read_text())
    imported = []  # (module, name), name None for the whole module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "sepaut"):
            pairs = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            pairs = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        imported += [
            (module.split(".")[-1], name)
            for module, name in pairs
            if module.split(".")[-1] in CHECKED
        ]
    assert ("quasitorus", "SingleMonomialError") in imported
    for module, name in imported:
        assert name is not None, f"the oracles import all of {module}"
        obj = getattr(importlib.import_module(f"sepaut.{module}"), name)
        is_exception = isinstance(obj, type) and issubclass(obj, BaseException)
        assert is_exception or (module, name) in ALLOWED, f"{module}.{name}"
