"""The benchmark's contract with dualfx: every dualfx module and name that
bench/*.py imports must exist, and the lattice workload's calls must run."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _dualfx_imports():
    """(file, module, name) for each dualfx import in bench/*.py, name None
    for a plain `import dualfx...`; imports inside functions included."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "dualfx":
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "dualfx":
                        yield path.name, alias.name, None


def test_bench_imports_from_dualfx_resolve():
    found = list(_dualfx_imports())
    assert {"workloads.py", "reference.py"} <= {f for f, _, _ in found}
    missing = []
    for file, module, name in found:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{file}: from {module} import {name}")
    assert not missing


def test_lattice_corpus_call_shapes_run(monkeypatch):
    """Each tree of the tiny lattice corpus through one operation and its
    checks, as bench/run.py calls them."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    corpus = workloads.LatticeCorpus(seed=5, tiny=True)
    tr = tracing.Tracer(enabled=False)
    for _ in corpus.corpus:
        corpus.check(corpus.op(tr))
