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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level _names (not __dunder__) defined in sources that none
    of them reads.

    A name counts as read where it appears as a bare name that is loaded, as
    an attribute, or in a from-import.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name, node.lineno) for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return sorted(
        f"{module}: {name} (line {line})"
        for module, name, line in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def test_unread_private_names_are_found():
    sources = {
        "a": "_A = 1\n_B, _C = 2, 3\n_D: int = 4\ndef _f(): return _A\nclass _K: pass\n__all__ = []\n",
        "b": "from .a import _C\nimport a\na._D\n",
    }
    assert unread_private_names(sources) == ["a: _B (line 2)", "a: _K (line 5)", "a: _f (line 4)"]


def test_no_private_name_goes_unread():
    paths = pathlib.Path(oddmult.__file__).parent.glob("*.py")
    unread = unread_private_names({path.name: path.read_text() for path in paths})
    assert not unread, unread
