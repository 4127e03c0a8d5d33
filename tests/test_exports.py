"""Every name a module lists in __all__ must exist; the CLI imports stay lean."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_scipy_submodules_unloaded():
    # the quadrature tables are hard-coded and the correction cache fits its
    # own cubic, so CLI start-up pays for scipy.special alone; a fresh
    # interpreter shows what an import loads
    src = str(Path(fourthorder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    heavy = ["scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.linalg"]
    probe = f"import sys, fourthorder.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
