"""Every name a module lists in __all__ must exist; the CLI imports stay lean."""
import importlib
import os
import pkgutil
import re
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


def test_cli_import_leaves_scipy_unloaded():
    # the quadrature tables are hard-coded, the correction cache fits its own
    # cubic and the sector kernels evaluate their own half-integer Bessel
    # functions, so CLI start-up loads no scipy; a fresh interpreter shows
    # what an import loads
    src = str(Path(fourthorder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, fourthorder.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_program_imports_no_scipy():
    sources = Path(fourthorder.__file__).resolve().parent.glob("*.py")
    importing = [path.name for path in sources if re.search(r"^\s*(import|from)\s+scipy\b", path.read_text(), re.M)]
    assert importing == []
