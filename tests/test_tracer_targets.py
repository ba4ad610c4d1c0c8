"""Every boundary that the benchmark's tracer rebinds exists in the package.

`perfbench/tracer.py` wraps functions by (module, attribute) name; a rename
in `multiseg` would otherwise surface only as a failed `--trace 1` run.
The tracer module is read, not imported as a package, and not edited.
"""

import importlib
import importlib.util
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
