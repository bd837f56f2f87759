"""The public surface: one address per public name, and a package root that
loads nothing beyond its errors."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualfx
from dualfx import errors
from dualfx.lattice import dump_tree, two_period_example

PACKAGES = ("dualfx", "dualfx.sde", "dualfx.lattice")


# the exact half, its two commands included, loads no numpy either
CLI = "from dualfx.cli import main; assert main([{!r}, '--tree', TREE]) == 0"


@pytest.mark.parametrize("code", [
    "import dualfx", "import dualfx.lattice, dualfx.physical",
    CLI.format("lattice-verify"), CLI.format("physical")],
    ids=["root", "exact_half", "lattice_verify", "physical"])
def test_importing_dualfx_loads_no_numpy_and_no_subpackage(code, tmp_path):
    tree = tmp_path / "two_period.json"
    dump_tree(two_period_example(), tree)
    src = str(Path(dualfx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; TREE = {str(tree)!r}; {code}; "
         "print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('numpy', 'dualfx')))"],
        env=env, cwd=tmp_path, check=True, capture_output=True, text=True)
    loaded = out.stdout.splitlines()[-1]
    assert "numpy" not in loaded
    if code == "import dualfx":
        assert loaded == "['dualfx', 'dualfx.errors']"


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
    assert len(seen) == 53
