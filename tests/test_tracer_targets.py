"""Every boundary that the benchmark's tracer rebinds exists in the package.

`perfbench/tracer.py` wraps functions by (module, attribute) name; a rename
in `multiseg` would otherwise surface only as a failed `--trace 1` run.
The tracer module is read, not imported as a package, and not edited.
The tracer finds each target's module in sys.modules after the CLI is
imported, so importing the CLI must load every one of them.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


@pytest.mark.parametrize("module, attr", [t[:2] for t in _targets()],
                         ids=lambda v: v)
def test_target_resolves(module, attr):
    obj = importlib.import_module("multiseg." + module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_cli_import_loads_every_target_module():
    modules = sorted({"multiseg." + t[0] for t in _targets()})
    code = "import sys, multiseg.cli; print(sorted(set(sys.argv[1:]) - set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(importlib.import_module("multiseg").__file__)
                                           .parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, *modules], capture_output=True,
                          text=True, env=env, timeout=60)
    assert len(modules) == 9
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
