"""Tests of the benchmark itself: tiny runs of every workload, the output
gate, and the separation of timed and traced runs.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

CLI = run.load_cli()
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(items):
    """The four cheapest-looking items of a pass."""
    return sorted(items, key=lambda it: it.info.get("n", 0))[:4]


@pytest.fixture
def tiny_corpus(monkeypatch):
    real = corpus.generate
    monkeypatch.setattr(corpus, "generate", lambda w, s: tiny(real(w, s)))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "PROBE_REPEATS", 1)


@pytest.fixture
def workdir():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        yield Path(tmp)


def result_of(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace, tiny_corpus, capsys):
    res = result_of(capsys, ["--workload", workload, "--seed", "1", "--seconds", "0",
                             "--trace", str(trace)])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 4
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]


def test_timed_runs_never_carry_wrappers(tiny_corpus, capsys, monkeypatch):
    seen = []
    real = run.call_inproc

    def spy(cli, argv):
        seen.append(tracer.traced_names())
        return real(cli, argv)

    monkeypatch.setattr(run, "call_inproc", spy)
    result_of(capsys, ["--workload", "deep_block", "--seconds", "0", "--trace", "0"])
    assert seen and not any(seen)
    seen.clear()
    result_of(capsys, ["--workload", "deep_block", "--seconds", "0", "--trace", "1"])
    assert any(seen) and not all(seen)  # traced calls alternate with untraced ones
    assert not tracer.traced_names()


def test_traced_counts_repeat(tiny_corpus, capsys):
    argv = ["--workload", "peel_chain", "--seconds", "0", "--trace", "1"]
    first, second = result_of(capsys, argv), result_of(capsys, argv)
    for name, m in first["metrics"].items():
        if m["unit"] == "count":
            assert second["metrics"][name]["value"] == m["value"], name


def _outcome(item, workdir):
    (argv,) = run.materialize([item], workdir)
    return run.call_inproc(CLI, argv)


def test_gate_flags_a_tampered_digest(workdir):
    item = tiny(corpus.generate("peel_chain", 1))[0]
    out = _outcome(item, workdir)
    good = gate.digest(out.rc, out.stdout)
    assert gate.Gate("x", recorded={item.key(): good}).check(item, out.rc, out.stdout, "", None)
    check = gate.Gate("x", recorded={item.key(): [0, "0" * 16]})
    assert not check.check(item, out.rc, out.stdout, "", None)
    assert "recorded" in check.failures[0]


def test_gate_flags_a_wrong_degree(workdir):
    item = tiny(corpus.generate("peel_chain", 1))[0]
    out = _outcome(item, workdir)
    payload = json.loads(out.stdout)
    atom = payload["terms"][0]["word"][0]
    atom["type"], atom["rows"] = "ladder", [[atom["start"], atom["end"]]] * 2
    check = gate.Gate("x", recorded={})
    assert check.check(item, out.rc, out.stdout, "", None)
    check = gate.Gate("x", recorded={})
    assert not check.check(item, out.rc, json.dumps(payload), "", None)
    assert "degree" in check.failures[0]


def test_gate_flags_a_repeat_that_differs(workdir):
    item = corpus.coverage_tail()[0]
    out = _outcome(item, workdir)
    check = gate.Gate("x", recorded={})
    assert check.check(item, out.rc, out.stdout, "", None)
    assert not check.check(item, out.rc, out.stdout + " ", "", None)


def test_gate_flags_tracebacks_and_wrong_exit_codes():
    item = corpus.Item(["classify", corpus.MISSING], check="malformed", rc=1)
    check = gate.Gate("x", recorded={})
    assert check.check(item, 1, "", "error: line 0: cannot read", None)
    assert not check.check(item, 1, "", "Traceback (most recent call last):", None)
    assert not check.check(item, 0, "", "error: nothing", None)


def test_oracle_dual_law_and_involution():
    rng = random.Random(5)
    for a in range(1, 7):
        for b in range(1, 7):
            rows, cols = corpus.tableau(a, b, "rho")
            to_ms = lambda segs: Counter((l, max(s, e), min(s, e)) for l, s, e in segs)
            assert gate.mw_dual(to_ms(rows)) == to_ms(cols)
    for _ in range(100):
        segs = corpus.random_multisegment(rng, rng.randint(1, 30), ["rho", "pi"], 0.5, 5, 4)
        ms = gate.parse_ms(corpus._ms_text(segs))
        dual = gate.mw_dual(ms)
        assert gate.support(dual) == gate.support(ms)
        assert gate.mw_dual(dual) == ms


def test_corpus_is_deterministic_per_seed():
    for workload in corpus.WORKLOADS:
        a, b = corpus.generate(workload, 3), corpus.generate(workload, 3)
        assert corpus.corpus_hash(a) == corpus.corpus_hash(b)
        assert corpus.corpus_hash(a) != corpus.corpus_hash(corpus.generate(workload, 4))


def test_peel_chain_corpus_matches_its_description():
    for blocks in corpus.peel_shapes():
        assert 2 <= len(blocks) <= 3 and not corpus.discrete_diagonal(blocks)
        assert 14 <= sum(a * b for _, a, b in blocks) <= 25
    items = corpus.generate("peel_chain", 1)
    heavy = [it for it in items if blocks_of(it.text) == sorted(corpus.PEEL_HEAVY)]
    assert len(heavy) == 1
    assert len({it.key() for it in items}) >= 100


def blocks_of(text):
    blocks = []
    for line in text.splitlines():
        tok = line.split()
        if tok and tok[0] == "block":
            blocks += [(int(tok[2]), int(tok[3]))] * (int(tok[4][1:]) if len(tok) == 5 else 1)
    return sorted(blocks)


def test_without_sources_the_run_fails_without_a_result(workdir):
    shutil.copy(HERE.parent / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "peel_chain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
