"""The public surface: one address per public name, and a package root that
loads nothing beyond its errors."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import dualfx
from dualfx import errors

PACKAGES = ("dualfx", "dualfx.sde", "dualfx.lattice")


def test_importing_dualfx_loads_no_numpy_and_no_subpackage():
    src = str(Path(dualfx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, dualfx; print(sorted("
         "m for m in sys.modules if m.split('.')[0] in ('numpy', 'dualfx')))"],
        env=env, check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "['dualfx', 'dualfx.errors']"


def test_the_root_exports_the_errors_and_the_version_only():
    error_classes = {name for name, v in vars(errors).items()
                     if isinstance(v, type) and issubclass(v, Exception)}
    assert len(error_classes) == 13
    assert set(dualfx.__all__) == error_classes | {"__version__"}


def test_every_public_name_resolves_and_has_one_address():
    seen = {}
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name}"
            assert name not in seen, f"{name} in {seen.get(name)} and {package}"
            seen[name] = package
    assert len(seen) == 55
