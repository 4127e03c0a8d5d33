"""Every name a module lists in __all__ must exist."""
import importlib
import pkgutil

import pytest

import fourthorder

MODULES = [fourthorder.__name__] + [
    f"{fourthorder.__name__}.{info.name}" for info in pkgutil.iter_modules(fourthorder.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
