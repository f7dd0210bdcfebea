import ast
import importlib
import pathlib
import pkgutil
import types

import oddmult

# every submodule but __main__, which runs the command line when imported
MODULES = [
    importlib.import_module(f"oddmult.{info.name}")
    for info in pkgutil.iter_modules(oddmult.__path__)
    if info.name != "__main__"
]


def test_every_name_in_all_exists():
    listed = [module for module in MODULES if hasattr(module, "__all__")]
    assert {module.__name__ for module in listed} >= {"oddmult.gf2series", "oddmult.etaq", "oddmult.numtheory"}
    for module in listed:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert len(set(module.__all__)) == len(module.__all__), module.__name__


def test_package_reexports_only_listed_names():
    listed = {name for module in MODULES for name in getattr(module, "__all__", ())}
    exported = {
        name
        for name, value in vars(oddmult).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported, "the package re-exports nothing"
    assert exported <= listed, sorted(exported - listed)


def unused_imports(source: str) -> list[str]:
    """The names a module imports, other than from __future__, and never reads.

    A name counts as read where it appears as a bare name or as the root of
    an attribute chain, or where the module lists it in __all__.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, numpy as np\nfrom .x import A, B\nnp.zeros(A)\n"
    assert unused_imports(source) == ["B (line 3)", "os (line 2)"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports only to re-export, which test_package_reexports_only_listed_names covers
    paths = [path for path in pathlib.Path(oddmult.__file__).parent.glob("*.py") if path.name != "__init__.py"]
    unused = {path.name: unused_imports(path.read_text()) for path in paths}
    assert not any(unused.values()), unused
