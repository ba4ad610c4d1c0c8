import json

import pytest

from multiseg import parse_parameter_file, render_parameter_file
from multiseg.cli import main
from multiseg.paramfile import ParamFileError

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
        odd = ((), (multiseg.signs.ZPair(0, 1),), ())
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

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_complex_check_n_below_1(self, n, capsys):
        assert self._run(["complex-check", "--n", n], capsys) == (
            1, f"error: --n must be at least 1, got {n}\n")


class TestRenderOnlyWhatIsPrinted:
    """Each subcommand builds only the output form it prints: the text form
    never calls `to_json`, `--json` never renders a `GrothExpr` as text, and
    `dual` renders its input only for the `--json` payload."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from collections import Counter

        from multiseg.core import Multisegment
        from multiseg.groth import GrothExpr
        seen = Counter()

        def count(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args):
                seen[f"{cls.__name__}.{name}"] += 1
                return original(self, *args)
            monkeypatch.setattr(cls, name, wrapper)

        count(GrothExpr, "__str__")
        count(GrothExpr, "to_json")
        count(Multisegment, "__str__")
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
        assert calls == {"GrothExpr.to_json": 1}

    def test_dual_renders_input_only_for_json(self, calls, capsys):
        assert main(["dual", "{[2..0]rho}"]) == 0
        assert capsys.readouterr().out == "{[2..2]rho, [1..1]rho, [0..0]rho}\n"
        assert calls == {"Multisegment.__str__": 1}
        calls.clear()
        assert main(["dual", "--json", "{[2..0]rho}"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "input": "{[2..0]rho}", "dual": "{[2..2]rho, [1..1]rho, [0..0]rho}"}
        assert calls == {"Multisegment.__str__": 2}
