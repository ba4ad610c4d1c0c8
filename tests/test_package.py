"""The package surface: what `from multiseg import *` binds, and the README's
library quick start run as written."""

import ast
import io
import os
import subprocess
import sys
import tokenize
import types
from pathlib import Path

import multiseg

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_no_module():
    modules = [n for n in multiseg.__all__ if isinstance(getattr(multiseg, n), types.ModuleType)]
    assert modules == []
    namespace = {}
    exec("from multiseg import *", namespace)
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())
    assert {"GrothExpr", "resolve_general", "mw_dual"} <= set(namespace)


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start():
    """Each statement runs in order; a statement whose last line carries a
    trailing `# ...` comment is an expression whose repr is that comment."""
    source = _quick_start()
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace, checked = {}, 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        want = comments.get(stmt.end_lineno)
        if want is None:
            exec(code, namespace)
            continue
        assert isinstance(stmt, ast.Expr), code
        assert repr(eval(code, namespace)) == want, code
        checked += 1
    assert checked == len(comments) == 4


def _modules_loaded_by_cli_import(names) -> str:
    """Which of `names` a fresh interpreter loads when it imports the CLI."""
    code = ("import sys; before = set(sys.modules); import multiseg.cli; "
            f"print(sorted({set(names)!r} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(Path(multiseg.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_cli_import_loads_no_fractions():
    """Homology ranks are computed over Z, so importing the CLI loads
    neither fractions nor the decimal module that fractions imports."""
    assert _modules_loaded_by_cli_import({"fractions", "decimal"}) == "[]\n"


def test_cli_import_loads_no_dataclasses():
    """The value classes are plain __slots__ classes: importing dataclasses,
    and the inspect module it imports, would add several milliseconds to
    every command-line call."""
    assert _modules_loaded_by_cli_import({"dataclasses", "inspect"}) == "[]\n"
