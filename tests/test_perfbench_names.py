"""The package names the benchmark harness wraps or reads still resolve.

``perfbench/tracer.py`` swaps the functions listed in its ``SPANS`` and
``MARKS`` for timing wrappers, and ``perfbench/run.py`` reads
``verify.CHECKS`` and two ``_engine`` names; a rename in the package
would stop every benchmark run with AttributeError.  The tables are read
from the source with ``ast``, so the harness is neither run nor imported.
The tracer finds the modules it patches in ``sys.modules`` after a bare
``import singlab.cli``, so each must be loaded by that import: a lazy
import would stop every benchmark run with KeyError.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _tables():
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "MARKS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_tracer_spans_and_marks_resolve():
    tables = _tables()
    assert set(tables) == {"SPANS", "MARKS"}
    wrapped = [entry[:2] for entry in tables["SPANS"]] + list(tables["MARKS"])
    assert len(wrapped) > 20
    for module, function in wrapped:
        assert callable(getattr(importlib.import_module(f"singlab.{module}"), function)), (
            module, function)


def test_names_the_runner_reads_resolve():
    from singlab import _engine, verify

    assert verify.CHECKS and all(isinstance(name, str) and callable(fn)
                                 for name, fn in verify.CHECKS)
    assert isinstance(_engine.USING_COMPILED, bool)
    assert _engine.max_enum() >= 1


def test_importing_the_cli_loads_every_module_the_tracer_patches():
    tables = _tables()
    needed = {"verify"} | {entry[0] for entry in tables["SPANS"] + tables["MARKS"]}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, singlab.cli; print(' '.join(n for n in sys.modules if n.startswith('singlab.')))"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    loaded = {name[len("singlab."):] for name in proc.stdout.split()}
    assert needed <= loaded, sorted(needed - loaded)
