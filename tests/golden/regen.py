"""Re-record the golden CLI outputs in this directory.

    PYTHONPATH=src python3 tests/golden/regen.py

Every case runs `multiseg.cli.main` in-process from this directory (so the
parameter files are named relative to it).  Its stdout goes to
`<case>.out` and its argv and exit code to `cases.json`.  Two library
outputs that no subcommand prints are recorded too: `str()` and `to_json()`
of the one-level expansion `resolve_block` of the quad (rho,3,0,+), whose
words carry multi-row ladder atoms.

Re-record only when an output change is intended; `tests/test_golden.py`
compares against these files byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from multiseg import CuspidalLabel, Quad, resolve_block
from multiseg.cli import main

HERE = Path(__file__).resolve().parent

# parameter file -> (label, point) for the plain and theta Jacquet cases
FILES = {
    "worked": ("rho", "1/2"),
    "block33": ("rho", "2"),
    "twolabel": ("r1", "1"),
    "mult": ("rho", "1"),
    "escape": ('r"\\é', "0"),
}


# cases that no FILES variant reaches: the staircase domination rule, the
# theta-checks of verify on several blocks (their known false failure,
# exit 2) and a pair of blocks in z_sets' Z_W
EXTRA = [
    ("mult.dominate-staircase", ["dominate", "mult.txt", "--rule", "staircase"]),
    ("mult.resolve-staircase", ["resolve", "mult.txt", "--rule", "staircase"]),
    ("residual.verify", ["verify", "residual.txt"]),
    ("zwpairs.signs", ["signs", "zwpairs.txt"]),
]


def cases():
    for stem, (rho, x) in FILES.items():
        path = f"{stem}.txt"
        variants = [
            ("classify", ["classify", path]),
            ("signs", ["signs", path]),
            ("resolve", ["resolve", path]),
            ("dominate", ["dominate", path]),
            ("jacquet", ["jacquet", path, "--rho", rho, "--x", x]),
            ("jacquet-theta", ["jacquet", path, "--rho", rho, "--x", x, "--theta"]),
            ("jacquet-neg", ["jacquet", path, "--rho", rho, "--x=-1/2"]),
            ("verify", ["verify", path]),
        ]
        for name, argv in variants:
            yield f"{stem}.{name}", argv
            yield f"{stem}.{name}.json", argv[:1] + ["--json"] + argv[1:]
    for i, m in enumerate(("{[2..0]rho}", "{[3/2..-1/2]rho, [1/2..1/2]rho, [0..-2]tau}")):
        yield f"dual{i}", ["dual", m]
        yield f"dual{i}.json", ["dual", "--json", m]
    yield "complex-check", ["complex-check", "--n", "4"]
    yield "complex-check.json", ["complex-check", "--json", "--n", "4"]
    for name, argv in EXTRA:
        yield name, argv
        yield f"{name}.json", argv[:1] + ["--json"] + argv[1:]


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return buf.getvalue(), code


def resolve_block_pin():
    expr = resolve_block(Quad(CuspidalLabel("rho"), 6, 0, 1))
    return str(expr) + "\n", json.dumps(expr.to_json(), indent=2) + "\n"


def main_regen():
    os.chdir(HERE)
    manifest = []
    for name, argv in cases():
        out, code = run(argv)
        (HERE / f"{name}.out").write_text(out, encoding="utf-8")
        manifest.append({"name": name, "argv": argv, "exit": code})
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    text, js = resolve_block_pin()
    (HERE / "resolve_block_3_0.str").write_text(text, encoding="utf-8")
    (HERE / "resolve_block_3_0.json").write_text(js, encoding="utf-8")
    print(f"wrote {len(manifest)} cases to {HERE}")


if __name__ == "__main__":
    main_regen()
