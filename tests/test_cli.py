import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multiseg
from multiseg import (CuspidalLabel, GrothExpr, Ladder, Quad,
                      parse_parameter_file, render_parameter_file,
                      resolve_block)
from multiseg import cli
from multiseg import core
from multiseg.cli import MAX_N, _dumps, build_parser, main
from multiseg.groth import canonical_word
from multiseg.paramfile import ParamFileError

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
# label names that need JSON escapes (quote, backslash, non-ASCII) next to a
# plain one, so that random words mix labels
_LABELS = (CuspidalLabel('r"\\é'), CuspidalLabel("rho"), CuspidalLabel("τ", 2))


@st.composite
def _atoms(draw):
    """Ladders of 1-3 rows over any label and either coset of Z; one row
    may run either way."""
    rho = draw(st.sampled_from(_LABELS))
    off = draw(st.integers(0, 1))
    k = draw(st.integers(1, 3))
    pts = st.sets(st.integers(-4, 4), min_size=k, max_size=k)
    starts = sorted(draw(pts), reverse=True)
    ends = sorted(draw(pts), reverse=True)
    return Ladder(rho, tuple((2 * s + off, 2 * e + off) for s, e in zip(starts, ends)))

GUIDE_FILE = """\
# the four-dimensional worked example
cuspidal rho d=1 eta=+1 chi=+1
block rho 2 1
block rho 1 2
"""


@pytest.fixture
def guide_path(tmp_path):
    p = tmp_path / "psi.txt"
    p.write_text(GUIDE_FILE)
    return str(p)


class TestParameterFile:
    def test_basic_parse(self):
        psi, labels = parse_parameter_file(
            "cuspidal rho d=1 eta=+1 chi=+1\nblock rho 2 1\n")
        assert psi.n == 2
        assert labels["rho"].eta == 1

    def test_guide_file(self):
        psi, _ = parse_parameter_file(GUIDE_FILE)
        assert psi.n == 4

    def test_multiplicity(self):
        psi, _ = parse_parameter_file("cuspidal r\nblock r 2 2 x3\n")
        assert len(psi) == 3 and psi.n == 12

    def test_validation_errors_carry_line_numbers(self):
        with pytest.raises(ParamFileError, match="line 2: a must be >= 1"):
            parse_parameter_file("cuspidal r\nblock r 0 1\n")
        with pytest.raises(ParamFileError, match="line 1: block references"):
            parse_parameter_file("block r 1 1\ncuspidal r\n")
        with pytest.raises(ParamFileError, match="line 3: duplicate"):
            parse_parameter_file("cuspidal r\ncuspidal s\ncuspidal r\n")
        with pytest.raises(ParamFileError, match="line 1"):
            parse_parameter_file("cuspidal r eta=maybe\n")

    @pytest.mark.parametrize("line, msg", [("block r 0 x", "a must be >= 1"),
                                           ("block r x 0", "a and b must be integers"),
                                           ("block r 1 0 x0", "b must be >= 1")])
    def test_first_fault_in_token_order(self, line, msg):
        with pytest.raises(ParamFileError, match=f"^line 2: {msg}$"):
            parse_parameter_file(f"cuspidal r\n{line}\n")

    def test_round_trip(self):
        psi, _ = parse_parameter_file(
            "cuspidal r d=2 eta=-1 chi=+1\ncuspidal s eta=?\n"
            "block r 2 1 x2\nblock s 3 4\n")
        again, _ = parse_parameter_file(render_parameter_file(psi))
        assert again == psi
        relabels = {b.rho.name: b.rho for b in again.blocks}
        assert relabels["r"].d == 2 and relabels["r"].eta == -1
        assert relabels["s"].eta is None


class TestCommands:
    def test_classify(self, guide_path, capsys):
        assert main(["classify", guide_path]) == 0
        out = capsys.readouterr().out
        assert "n = 4" in out
        assert "discrete diagonal  : False" in out

    def test_classify_json(self, guide_path, capsys):
        assert main(["classify", "--json", guide_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 4 and data["in_Psi_H"] is True

    def test_dominate(self, guide_path, capsys):
        assert main(["dominate", "--json", guide_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["peel"] == [["rho", "3/2"]]
        assert "(rho,4,1)" in data["psi_tilde"]

    def test_signs(self, guide_path, capsys):
        assert main(["signs", "--json", guide_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["z_W"] == 1 and data["z_U"] == -1
        assert data["theta_ratio_WU"]["ratio"] == -1

    def test_resolve(self, guide_path, capsys):
        assert main(["resolve", "--json", guide_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 4
        assert len(data["terms"]) == 1
        (term,) = data["terms"]
        assert term["coeff"] == 1
        assert [a["start"] for a in term["word"]] == ["1/2", "-1/2"]

    def test_jacquet(self, guide_path, capsys):
        assert main(["jacquet", "--json", guide_path,
                     "--rho", "rho", "--x", "1/2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["op"] == "jac_left"

    def test_dual(self, capsys):
        assert main(["dual", "{[2..0]rho}"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "{[2..2]rho, [1..1]rho, [0..0]rho}"

    def test_dual_bad_input(self, capsys):
        assert main(["dual", "[2..0"]) == 1

    def test_dual_bad_bound(self, capsys):
        assert main(["dual", "{[a..0]rho}"]) == 1
        assert capsys.readouterr().err == "error: not a half-integer: 'a'\n"

    def test_complex_check(self, capsys):
        assert main(["complex-check", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_complex_check_n_1(self, capsys):
        assert main(["complex-check", "--n", "1"]) == 0
        assert capsys.readouterr().out == "subset-homology    n=1   PASS\n"

    def test_verify(self, tmp_path, capsys):
        p = tmp_path / "b.txt"
        p.write_text("cuspidal rho\nblock rho 3 3\n")
        assert main(["verify", str(p)]) == 0
        assert "vanishes" in capsys.readouterr().out

    def test_verify_without_checks_exits_1(self, tmp_path, capsys):
        p = tmp_path / "b.txt"
        p.write_text("cuspidal rho\nblock rho 3 2\nblock rho 1 1\n")
        assert main(["verify", str(p)]) == 1
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith("error: nothing to verify:")

    def test_identity_error_exits_2(self, guide_path, capsys, monkeypatch):
        import multiseg.signs
        odd = ((), ((0, 1),), ())
        monkeypatch.setattr(multiseg.signs, "z_sets", lambda psi: odd)
        assert main(["signs", guide_path]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith("identity failure: Z_W has odd cardinality 1")

    def test_bad_file_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("block rho 1 1\n")
        assert main(["classify", str(p)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        assert main(["classify", "/nonexistent/psi.txt"]) == 1

    def test_unknown_flag_is_fatal(self, guide_path):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--frobnicate", guide_path])
        assert exc.value.code == 1

    def test_byte_determinism(self, guide_path, capsys):
        for cmd in (
            ["classify", guide_path],
            ["signs", "--json", guide_path],
            ["resolve", "--json", guide_path],
            ["dominate", guide_path],
            ["complex-check", "--n", "3"],
        ):
            assert main(list(cmd)) == 0
            first = capsys.readouterr().out
            assert main(list(cmd)) == 0
            assert capsys.readouterr().out == first


class TestErrorPaths:
    """Each failure branch of a subcommand: empty stdout, one stderr line,
    and the documented exit code."""

    @staticmethod
    def _run(argv, capsys):
        code = main(argv)
        cap = capsys.readouterr()
        assert cap.out == ""
        return code, cap.err

    def test_signs_evaluations_disagree(self, guide_path, capsys, monkeypatch):
        import multiseg.cli
        monkeypatch.setattr(multiseg.cli, "eval_at_c2", lambda chi, psi: 0)
        assert self._run(["signs", guide_path], capsys) == (
            2, "identity failure: eps_W evaluations disagree\n")

    def test_signs_ratio_inconsistent(self, guide_path, capsys, monkeypatch):
        import multiseg.cli
        monkeypatch.setattr(multiseg.cli, "theta_ratio_WU",
                            lambda psi: {"consistent": False})
        assert self._run(["signs", guide_path], capsys) == (
            2, "identity failure: half-sum ratio != z_W*z_U\n")

    def test_resolve_wrong_degree(self, guide_path, capsys, monkeypatch):
        import multiseg.cli
        monkeypatch.setattr(multiseg.cli, "degree_conserved", lambda res: False)
        assert self._run(["resolve", "--json", guide_path], capsys) == (
            2, "identity failure: a resolution term has the wrong degree\n")

    def test_dual_not_involutive(self, capsys, monkeypatch):
        import multiseg.cli
        fixed = multiseg.cli.parse_multisegment("{[0..0]rho}")
        monkeypatch.setattr(multiseg.cli, "mw_dual", lambda m: fixed)
        assert self._run(["dual", "{[2..0]rho}"], capsys) == (
            2, "identity failure: dual applied twice did not return the input\n")

    def test_jacquet_unknown_cuspidal(self, guide_path, capsys):
        assert self._run(["jacquet", guide_path, "--rho", "nope", "--x", "1"],
                         capsys) == (1, "error: unknown cuspidal 'nope'\n")

    def test_jacquet_point_is_stripped(self, guide_path, capsys):
        assert self._run(["jacquet", guide_path, "--rho", "rho", "--x", " 3/4 "],
                         capsys) == (1, "error: not a half-integer: '3/4'\n")
        assert main(["jacquet", guide_path, "--rho", "rho", "--x", " 1/2 "]) == 0
        assert capsys.readouterr().out.startswith("jac_left(1/2) = ")

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_complex_check_n_below_1(self, n, capsys):
        assert self._run(["complex-check", "--n", n], capsys) == (
            1, f"error: --n must be at least 1, got {n}\n")

    @pytest.mark.parametrize("text, err", [
        ("cuspidal r d=1_0\nblock r 2 2\n", "error: line 1: bad d value '1_0'\n"),
        ("cuspidal r d=٣\nblock r 2 2\n", "error: line 1: bad d value '٣'\n"),
        ("cuspidal r\nblock r ٢ 2 x1_0\n", "error: line 2: a and b must be integers\n"),
        ("cuspidal r\nblock r 2 2_0\n", "error: line 2: a and b must be integers\n"),
        ("cuspidal r\nblock r 2 2 x1_0\n", "error: line 2: bad multiplicity 'x1_0'\n"),
        ("cuspidal r\nblock r 2 2 x٢\n", "error: line 2: bad multiplicity 'x٢'\n"),
    ], ids=["d-underscore", "d-arabic", "ab-arabic", "ab-underscore",
            "mult-underscore", "mult-arabic"])
    def test_paramfile_integers_are_ascii_decimal(self, text, err, tmp_path, capsys):
        # int() would read 1_0 as 10 and ٢ (Arabic-Indic two) as 2
        p = tmp_path / "psi.txt"
        p.write_text(text, encoding="utf-8")
        assert self._run(["classify", str(p)], capsys) == (1, err)

    @pytest.mark.parametrize("options", ["d=1 d=2", "eta=+1 d=2 eta=-1", "chi=-1 chi=-1"],
                             ids=["d", "eta", "chi"])
    def test_paramfile_repeated_option(self, options, tmp_path, capsys):
        # a repeated option is refused, not read as its last value
        key = options.split()[-1].split("=")[0]
        p = tmp_path / "psi.txt"
        p.write_text(f"cuspidal rho {options}\nblock rho 2 2\n")
        assert self._run(["classify", str(p)], capsys) == (
            1, f"error: line 1: duplicate option '{key}'\n")

    def test_multisegment_digits_are_ascii(self, capsys):
        assert self._run(["dual", "{[٣..0]}"], capsys) == (
            1, "error: not a half-integer: '٣'\n")

    @pytest.mark.parametrize("n", ["٣", "1_0", " 3"], ids=["arabic", "underscore", "blank"])
    def test_complex_check_n_is_ascii_decimal(self, n, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["complex-check", "--n", n])
        cap = capsys.readouterr()
        assert exc.value.code == 1
        assert cap.out == ""
        assert cap.err.endswith(f"error: argument --n: invalid int value: {n!r}\n")
        assert "Traceback" not in cap.err

    def test_unreadable_file_has_no_line_number(self, tmp_path, capsys):
        code, err = self._run(["resolve", str(tmp_path)], capsys)
        assert code == 1
        assert err.startswith(f"error: cannot read {tmp_path}: ")
        assert "line 0" not in err


class TestRenderOnlyWhatIsPrinted:
    """Each subcommand builds only the output form it prints: the text form
    never calls `to_json`, `--json` writes a `GrothExpr` through one
    `_terms` call and never through `to_json` or `str()`, and `dual`
    renders its input only for the `--json` payload."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from collections import Counter

        import multiseg.cli
        from multiseg.core import Multisegment
        from multiseg.groth import GrothExpr
        seen = Counter()

        def count(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args):
                seen[key] += 1
                return original(*args)
            monkeypatch.setattr(owner, name, wrapper)

        count(GrothExpr, "__str__", "GrothExpr.__str__")
        count(GrothExpr, "to_json", "GrothExpr.to_json")
        count(Multisegment, "__str__", "Multisegment.__str__")
        count(multiseg.cli, "_terms", "cli._terms")
        return seen

    @pytest.mark.parametrize("cmd", [
        ["resolve"], ["jacquet", "--rho", "rho", "--x", "1/2"],
        ["jacquet", "--rho", "rho", "--x", "3/2", "--theta"],
    ], ids=["resolve", "jacquet", "jacquet-theta"])
    def test_groth_expr_rendered_once(self, cmd, guide_path, calls, capsys):
        assert main(cmd + [guide_path]) == 0
        assert capsys.readouterr().out
        assert calls == {"GrothExpr.__str__": 1}
        calls.clear()
        assert main(cmd + ["--json", guide_path]) == 0
        json.loads(capsys.readouterr().out)
        assert calls == {"cli._terms": 1}

    def test_dual_renders_input_only_for_json(self, calls, capsys):
        assert main(["dual", "{[2..0]rho}"]) == 0
        assert capsys.readouterr().out == "{[2..2]rho, [1..1]rho, [0..0]rho}\n"
        assert calls == {"Multisegment.__str__": 1}
        calls.clear()
        assert main(["dual", "--json", "{[2..0]rho}"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "input": "{[2..0]rho}", "dual": "{[2..2]rho, [1..1]rho, [0..0]rho}"}
        assert calls == {"Multisegment.__str__": 2}


_JSON_CASES = [c for c in GOLDEN_CASES if "--json" in c["argv"]]
_ODD_TEXT = '"\\\x00\x07\n\x1f\x7f\u00e9\u03c4\u2028\ud800\U0001f600 a'
_EXPRS = st.lists(st.tuples(st.lists(_atoms(), max_size=3), st.integers(-7, 7).filter(bool)),
                  max_size=3).map(lambda pairs: GrothExpr((canonical_word(w), c) for w, c in pairs))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2**80, 2**80),
                     st.text(max_size=6), st.text(_ODD_TEXT, max_size=6))


def _containers(kids):
    keys = st.text(max_size=4) | st.text(_ODD_TEXT, max_size=4)
    return (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
            | st.dictionaries(keys, kids, max_size=4))


class TestJsonRendererOracle:
    """`cli._dumps` writes every `--json` payload itself.  Its output must
    be the bytes of `json.dumps(indent=2)` over the payload with each
    expression replaced by `to_json()`."""

    @classmethod
    def _plain(cls, v):
        if isinstance(v, GrothExpr):
            return v.to_json()
        if isinstance(v, dict):
            return {k: cls._plain(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [cls._plain(x) for x in v]
        return v

    @classmethod
    def _reference(cls, payload):
        return json.dumps(cls._plain(payload), indent=2)

    def _check(self, expr):
        for payload in ({"psi": "{(rho,1,1)}", "n": 2, "terms": expr,
                         "trace": [{"case": "elementary", "blocks": []}]},
                        {"op": "jac_left", "x": "-1/2", "terms": expr}):
            assert _dumps(payload) == self._reference(payload)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.lists(_atoms(), max_size=5),
                              st.integers(-7, 7).filter(bool)), max_size=6))
    def test_random_expressions(self, pairs):
        self._check(GrothExpr((canonical_word(w), c) for w, c in pairs))

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(_SCALARS | _EXPRS, _containers, max_leaves=10))
    def test_random_payloads(self, payload):
        assert _dumps(payload) == self._reference(payload)

    @settings(max_examples=100, deadline=None)
    @given(_EXPRS, st.text(_ODD_TEXT, max_size=4))
    def test_expression_at_depth_two(self, expr, key):
        payload = {key: [{"terms": expr, "n": -1}, expr], "x": [expr]}
        assert _dumps(payload) == self._reference(payload)

    @pytest.mark.parametrize("payload", [
        1.5, {1, 2}, {1: "a"}, {None: 1}, {("a",): 1}, object(),
        {"a": [1, 2.5]}, [{"b": frozenset()}], {"c": {2: 3}}],
        ids=["float", "set", "int-key", "none-key", "tuple-key", "object",
             "nested-float", "nested-frozenset", "nested-int-key"])
    def test_other_types_raise(self, payload):
        with pytest.raises(TypeError):
            _dumps(payload)

    def test_zero_and_empty_word(self):
        self._check(GrothExpr())
        self._check(GrothExpr([((), 1)]))
        self._check(GrothExpr([((), -3)]))

    @pytest.mark.parametrize("A2, B2, zeta", [(6, 0, 1), (5, 1, -1), (8, 2, 1)])
    def test_ladder_atoms_of_resolve_block(self, A2, B2, zeta):
        expr = resolve_block(Quad(_LABELS[0], A2, B2, zeta))
        assert any(len(a.rows) > 1 for w in expr.terms for a in w)
        self._check(expr)
        self._check(GrothExpr((w, -2 * c) for w, c in expr.terms.items()))

    @pytest.mark.parametrize("case", _JSON_CASES, ids=lambda c: c["name"])
    def test_golden_payloads(self, case, monkeypatch, capsys):
        import multiseg.cli
        payloads = []
        emit = multiseg.cli._emit

        def recording(as_json, payload, lines):
            payloads.append(payload())
            emit(as_json, lambda: payloads[-1], lines)
        monkeypatch.setattr(multiseg.cli, "_emit", recording)
        monkeypatch.chdir(GOLDEN)
        assert main(list(case["argv"])) == case["exit"]
        assert len(payloads) == (case["exit"] != 1)  # exit 1 refuses the input before output
        if case["argv"][0] in ("resolve", "jacquet") and payloads:
            assert isinstance(payloads[0]["terms"], GrothExpr)
        assert capsys.readouterr().out == "".join(self._reference(p) + "\n" for p in payloads)


class TestNoPurePythonEncoder:
    """No `--json` call enters `json.dumps`'s pure-Python encoder, which
    `indent=2` selects; every golden `--json` case still prints its
    recorded bytes and exit code with that encoder refused."""

    @pytest.fixture(autouse=True)
    def refuse_encoder(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json.encoder._make_iterencode was entered")
        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError):
            json.dumps([1], indent=2)

    @pytest.mark.parametrize("case", _JSON_CASES, ids=lambda c: c["name"])
    def test_golden_case(self, case, monkeypatch, capsys):
        monkeypatch.chdir(GOLDEN)
        assert main(list(case["argv"])) == case["exit"]
        out = capsys.readouterr().out
        assert out == (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")


class TestClosedPipe:
    """A reader that closes stdout early ends the run quietly with exit 1."""

    @pytest.mark.parametrize("argv", [["resolve", "mult.txt"],
                                      ["resolve", "--json", "mult.txt"]],
                             ids=["text", "json"])
    def test_no_traceback(self, argv):
        r, w = os.pipe()
        os.close(r)
        env = {**os.environ, "PYTHONPATH": str(Path(multiseg.__file__).parents[1])}
        try:
            proc = subprocess.run([sys.executable, "-m", "multiseg.cli", *argv],
                                  stdout=w, stderr=subprocess.PIPE, text=True,
                                  cwd=GOLDEN, env=env, timeout=60)
        finally:
            os.close(w)
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stderr) == (1, "")


class TestRecursionTooDeep:
    """A resolution deeper than resolve.MAX_DEPTH ends with one error: line
    and exit 1.  The 500 blocks (2 + 4j, 2) are already discrete diagonal,
    each with A - B = 1, so the resolver would nest 500 expansions at once
    without a long domination step first."""

    @pytest.mark.parametrize("argv", [["resolve"], ["jacquet", "--rho", "rho", "--x", "1"]],
                             ids=["resolve", "jacquet"])
    def test_no_traceback(self, argv, tmp_path):
        path = tmp_path / "deep.txt"
        path.write_text("cuspidal rho\n" + "".join(f"block rho {2 + 4 * j} 2\n"
                                                   for j in range(500)))
        env = {**os.environ, "PYTHONPATH": str(Path(multiseg.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "multiseg.cli", *argv, str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Sum(A-B) = 500" in proc.stderr

    @pytest.mark.parametrize("blocks, depth", [
        ("".join(f"block rho {2 + 4 * j} 2\n" for j in range(480)), 480),
        ("block rho 2 2 x500\n", 500)], ids=["480_blocks", "x500"])
    def test_refused_up_front(self, blocks, depth, tmp_path):
        """480 blocks fit the interpreter's stack but 2^480 words fit
        nowhere: the depth check refuses them at once, where a recursion
        limit would let them run."""
        path = tmp_path / "deep.txt"
        path.write_text("cuspidal rho\n" + blocks)
        env = {**os.environ, "PYTHONPATH": str(Path(multiseg.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "multiseg.cli", "resolve", str(path)],
                              capture_output=True, text=True, env=env, timeout=20)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"error: resolution too deep: Sum(A-B) = {depth} nested "
                               "expansions exceed the limit of 24\n")


class TestComplexCheckBound:
    """complex-check --n past cli.MAX_N is refused at once with one error:
    line and exit 1; the wedge suites alone would run for a long time."""

    @pytest.mark.parametrize("n", [MAX_N + 1, 10**6], ids=["max_plus_1", "million"])
    def test_refused_up_front(self, n):
        env = {**os.environ, "PYTHONPATH": str(Path(multiseg.__file__).parents[1])}
        argv = [sys.executable, "-m", "multiseg.cli", "complex-check", "--n", str(n)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=20)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: --n must be at most {MAX_N}, got {n}\n"


class TestDualSupportBound:
    """dual refuses an input of more than cli.MAX_SUPPORT support points at
    once, with one error: line and exit 1; 25 characters of input would
    otherwise decide how long the dual runs and how much memory it takes."""

    def test_refused_up_front(self, capsys):
        t0 = time.perf_counter()
        assert main(["dual", "{[5000000..-5000000]}"]) == 1
        assert time.perf_counter() - t0 < 1
        assert capsys.readouterr() == ("", "error: the multisegment covers 10000001 "
                                       "support points, more than the limit of 100000\n")

    def test_no_traceback(self):
        env = {**os.environ, "PYTHONPATH": str(Path(multiseg.__file__).parents[1])}
        argv = [sys.executable, "-m", "multiseg.cli", "dual", "{[5000000..-5000000]}"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=20)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_boundary(self, monkeypatch, capsys):
        # 12 points: [2..0] 3, [1/2..-3/2] 3, [5..0]tau 6
        monkeypatch.setattr(cli, "MAX_SUPPORT", 12)
        text = "{[2..0], [1/2..-3/2], [5..0]tau}"
        assert main(["dual", text]) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(cli, "MAX_SUPPORT", 11)
        assert main(["dual", text]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: the multisegment covers 12 support points, "
                                  "more than the limit of 11\n")


class TestParserBuiltOnce:
    """One argparse tree per process: repeated in-process calls reuse it and
    leave no parser behind as cyclic garbage."""

    def test_same_parser(self):
        assert build_parser() is build_parser()

    def test_repeated_calls_agree(self, capsys):
        argv = ["resolve", "--json", str(GOLDEN / "mult.txt")]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_no_parser_garbage(self, capsys):
        main(["dual", "{[2..0]rho}"])
        flags = gc.get_debug()
        gc.collect()
        try:
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.garbage.clear()
            main(["dual", "{[2..0]rho}"])
            gc.collect()
            leaked = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert leaked == []


class TestNoCrossCallState:
    """Atoms are interned only while something holds them: once a call
    returns, the intern table keeps none of the atoms it built."""

    def test_resolve_leaves_no_atom_interned(self, tmp_path, capsys):
        path = tmp_path / "heavy.txt"
        path.write_text("cuspidal xi\nblock xi 3 3\nblock xi 3 3\nblock xi 2 2\n")

        def held():
            return [key for key in core._interned.keys() if key[0] == "xi"]

        assert held() == []
        assert main(["resolve", "--json", str(path)]) == 0
        terms = json.loads(capsys.readouterr().out)["terms"]
        assert len(terms) > 4000 and all(a["rho"] == "xi" for t in terms for a in t["word"])
        assert held() == []
