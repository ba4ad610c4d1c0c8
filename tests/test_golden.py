"""Byte-compare CLI and library outputs with the files in tests/golden/.

The files were recorded with `tests/golden/regen.py`; a difference here is
a change of behaviour, not of formatting taste.
"""

import json
from pathlib import Path

import pytest

from multiseg import CuspidalLabel, Quad, resolve_block
from multiseg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")


def test_output_files_match_the_manifest():
    # an .out file that no case of cases.json produces is a stale recording
    stems = sorted(p.name[:-len(".out")] for p in GOLDEN.glob("*.out"))
    assert stems == sorted(c["name"] for c in CASES)


def test_resolve_block_with_ladder_atoms_matches_golden():
    expr = resolve_block(Quad(CuspidalLabel("rho"), 6, 0, 1))
    text = str(expr)
    assert text.startswith("+[0..-3]rho*L([2..-1],[1..-2])rho*[3..0]rho")
    assert text + "\n" == (GOLDEN / "resolve_block_3_0.str").read_text(encoding="utf-8")
    js = json.dumps(expr.to_json(), indent=2) + "\n"
    assert js == (GOLDEN / "resolve_block_3_0.json").read_text(encoding="utf-8")
