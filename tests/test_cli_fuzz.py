"""A bounded fuzz of the command line through cli.main.

Every subcommand, and an unknown one, gets well-formed and malformed
parameter files, multisegments and option values.  Whatever the input, the
exit code is 0, 1 or 2, no traceback is printed, a refused input (exit 1)
prints nothing on stdout, and error lines go to stderr only.

The inputs stay small: at most 3 block instances counting xN, n <= 12, and
complex-check --n <= 7.  Larger ones can run for a long time, since nothing
bounds the size of the domination chain yet: {(3,3)x3} already peaks at
117 250 terms.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiseg.cli import main

# tokens that are never an integer above 1, so a token swapped in for a
# number can only shrink a block
_BAD_TOKENS = ["", "0", "-1", "+1", "1", "1.5", "1/2", "x", "x0", "x-1", "x+1", "xx",
               "١", "1_0", "d=0", "d=", "eta=?", "eta=2", "chi=-1", "chi=0", "foo=1",
               "=", "#", "rho", "ghost", "block", "cuspidal"]
# lines that declare no block
_BAD_LINES = ["", "   ", "# a comment", "block", "cuspidal", "block rho", "block rho 1",
              "block rho 0 1", "block rho 1 1 x0", "block rho 1 1 7", "block ghost 1 1",
              "cuspidal rho d=0", "cuspidal rho eta=0", "cuspidal rho chi", "frobnicate 1",
              "cuspidal τ d=2 eta=? chi=-1"]
_POINTS = ["0", "1", "-1", "1/2", "-1/2", "3/2", "-5/2", "2", "1/3", "abc", "", "٣", "--"]
_RULES = ["minimal", "staircase", "bogus", ""]


@st.composite
def _parameter_file(draw):
    """Declarations of 1-2 labels and of at most 3 block instances with
    n <= 12, then possibly broken: a token swapped, a line dropped or a
    malformed line inserted."""
    labels = {}
    for name in draw(st.lists(st.sampled_from(["rho", "sig"]), min_size=1, max_size=2,
                              unique=True)):
        labels[name] = draw(st.sampled_from([1, 2]))
    lines = [f"cuspidal {name} d={d}" + draw(st.sampled_from(["", " eta=+1", " eta=?",
                                                              " eta=-1", " chi=-1"]))
             for name, d in labels.items()]
    room, left = 12, 3
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(labels)))
        d = labels[name]
        if not left or room < d:
            break
        a = draw(st.integers(1, room // d))
        b = draw(st.integers(1, room // (a * d)))
        mult = draw(st.integers(1, min(left, room // (a * b * d))))
        lines.append(f"block {name} {a} {b}" + (f" x{mult}" if mult > 1 or draw(st.booleans())
                                                else ""))
        room, left = room - mult * a * b * d, left - mult
    kind = draw(st.sampled_from(["keep", "keep", "keep", "swap", "drop", "insert"]))
    if kind == "swap":
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
        lines[i] = " ".join(toks)
    elif kind == "drop":
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif kind == "insert":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BAD_LINES)))
    return "\n".join(lines) + "\n"


@st.composite
def _multisegment(draw):
    """Up to 4 segments on points -3..3 or their halves, possibly with one
    character dropped or one inserted."""
    off = draw(st.sampled_from(["", "/2"]))
    pts = st.integers(-3, 3).map(lambda k: f"{2 * k + 1}{off}" if off else str(k))
    segs = draw(st.lists(st.tuples(pts, pts, st.sampled_from(["rho", "sig", ""])), max_size=4))
    text = "{" + ", ".join(f"[{s}..{e}]{name}" for s, e, name in segs) + "}"
    kind = draw(st.sampled_from(["keep", "keep", "drop", "insert"]))
    i = draw(st.integers(0, len(text) - 1))
    if kind == "drop":
        text = text[:i] + text[i + 1:]
    elif kind == "insert":
        text = text[:i] + draw(st.sampled_from(list("{}[].,/-x9 "))) + text[i:]
    return text


@st.composite
def _argv(draw):
    """A command line for one subcommand; file arguments are either the
    drawn parameter file or a file that does not exist."""
    command = draw(st.sampled_from(["classify", "signs", "resolve", "jacquet", "dominate",
                                    "verify", "dual", "complex-check", "frobnicate"]))
    argv = [command] + (["--json"] if draw(st.booleans()) else [])
    if command in ("resolve", "dominate") and draw(st.booleans()):
        argv.append(f"--rule={draw(st.sampled_from(_RULES))}")
    if command == "jacquet":
        if draw(st.integers(0, 4)):
            argv += ["--rho", draw(st.sampled_from(["rho", "sig", "ghost"]))]
        if draw(st.integers(0, 4)):
            argv.append(f"--x={draw(st.sampled_from(_POINTS))}")
        if draw(st.booleans()):
            argv.append("--theta")
    if command == "complex-check" and draw(st.booleans()):
        argv.append("--n=" + draw(st.one_of(st.integers(-2, 7).map(str),
                                            st.sampled_from(["", "abc", "1.5", "٣", "+3"]))))
    if command == "dual":
        argv.append(draw(_multisegment()))
    elif command not in ("complex-check", "frobnicate"):
        argv.append(draw(st.sampled_from(["FILE"] * 5 + ["missing.txt"])))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-", "x"])))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    """main(argv)'s exit code, SystemExit's included, and its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None)
@given(text=_parameter_file(), argv=_argv())
def test_exit_codes_and_streams(workdir, text, argv):
    path = workdir / "psi.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run([str(path) if a == "FILE" else str(workdir / a) if a == "missing.txt"
                           else a for a in argv])
    assert code in (0, 1, 2), (argv, text, err)
    assert "Traceback" not in err, (argv, text, err)
    assert "error:" not in out, (argv, text, out)
    if code == 1:
        assert out == "", (argv, text, out)


@pytest.mark.parametrize("argv", [["jacquet", "--rho", "rho", "--x=--", "FILE"],
                                  ["jacquet", "--rho=--", "--x", "1", "FILE"],
                                  ["complex-check", "--n=--"],
                                  ["resolve", "--rule=--", "FILE"]], ids=str)
def test_double_dash_value(argv, workdir):
    """Before Python 3.13 argparse reads `--x=--` as an empty list, which
    reached the half-integer parser, a comparison and a dict lookup and
    ended in a traceback.  On every version it is an input error."""
    path = workdir / "worked.txt"
    path.write_text("cuspidal rho\nblock rho 2 2\n", encoding="utf-8")
    code, out, err = _run([str(path) if a == "FILE" else a for a in argv])
    assert (code, out) == (1, "")
    assert "error: " in err.splitlines()[-1] and "Traceback" not in err
