import importlib
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
