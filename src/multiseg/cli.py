"""Command line front end.

Exit codes: 0 success, 1 input/validation error, 2 violated internal
identity (something that must vanish or agree did not).

`--json` output is written by one recursive writer, `_dumps`, with fixed
two-space indentation; its bytes are those of `json.dumps(payload,
indent=2)`, whose indenting encoder is pure Python.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .core import IdentityError, _half_str, _twice, mw_dual, parse_int, parse_multisegment
from .groth import GrothExpr, jac_left, jac_theta
from .paramfile import parse_parameter_file, render_parameter_file
from .params import (dominate, in_Psi_H, is_discrete, is_discrete_diagonal,
                     is_elementary)
from .resolve import degree_conserved, resolve_general, verify_cancellation
from .signs import (eps_char, eval_at_c2, eval_at_z, theta_ratio_WU, z_sets,
                    z_sign)
from .wedges import check_nilpotent, check_subset_homology, check_theta_sign

OK, BAD_INPUT, BAD_IDENTITY = 0, 1, 2


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    return parse_parameter_file(text)


def _emit(as_json: bool, payload, lines) -> None:
    """Print one output form.  payload and lines are zero-argument callables
    and only the selected one is called, so a command builds only what it
    prints."""
    if as_json:
        print(_dumps(payload()))
    else:
        for line in lines():
            print(line)


_string = json.encoder.encode_basestring_ascii  # json.dumps's C string escaper


def _dumps(value, pad="\n") -> str:
    """`json.dumps(value, indent=2)`, with `to_json()` in place of each
    `GrothExpr`, written by one recursive writer: pad is the newline and
    indentation of the line the value starts on.  It takes the shapes the
    commands print, dicts with str keys, lists, tuples, str, bool, int,
    None and `GrothExpr`, and raises TypeError on anything else."""
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, bool):  # before int: a bool is an int
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if value is None:
        return "null"
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"cannot write a key of type {type(k).__name__}")
            items.append(f"{_string(k)}: {_dumps(v, inner)}")
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return f"[{inner}{(',' + inner).join([_dumps(v, inner) for v in value])}{pad}]"
    if isinstance(value, GrothExpr):
        return _terms(value, pad)
    raise TypeError(f"cannot write a value of type {type(value).__name__}")


def _terms(expr: GrothExpr, pad: str) -> str:
    """`_dumps(expr.to_json(), pad)`.  Each distinct atom is written once
    per call; its text is reused at every occurrence."""
    terms = expr.sorted_terms()
    if not terms:
        return "[]"
    at = pad + "      "
    atoms = {a: _dumps(a.to_json(), at) for a in set().union(*expr.terms)}
    sep = "," + at
    blocks = []
    for w, c in terms:
        word = f"[{at}{sep.join(map(atoms.__getitem__, w))}{pad}    ]" if w else "[]"
        blocks.append(f'{{{pad}    "coeff": {c},{pad}    "word": {word}{pad}  }}')
    return f"[{pad}  " + f",{pad}  ".join(blocks) + f"{pad}]"


def _sgn(v: int) -> str:
    return f"{v:+d}"


def cmd_classify(args) -> int:
    psi, _ = _load(args.file)
    flags = {
        "elementary": is_elementary(psi),
        "discrete": is_discrete(psi),
        "discrete_diagonal": is_discrete_diagonal(psi),
    }
    try:
        parity = parity_text = in_Psi_H(psi)
    except ValueError as exc:
        parity, parity_text = None, f"not decidable ({exc})"
    _emit(args.json,
          lambda: {"n": psi.n, "blocks": [str(b) for b in psi.blocks],
                   "quads": [str(q) for q in psi.quads()], **flags,
                   "in_Psi_H": parity},
          lambda: [f"n = {psi.n}",
                   *(f"block {b}  ->  quad {q}" for b, q in zip(psi.blocks, psi.quads())),
                   f"elementary         : {flags['elementary']}",
                   f"discrete           : {flags['discrete']}",
                   f"discrete diagonal  : {flags['discrete_diagonal']}",
                   f"parity membership  : {parity_text}"])
    return OK


def cmd_signs(args) -> int:
    psi, _ = _load(args.file)
    Z, ZW, ZU = z_sets(psi)
    chars = {w: eps_char(psi, w) for w in ("W", "U", "")}
    zvals = {w: z_sign(psi, w) for w in ("W", "U", "")}
    ratio = theta_ratio_WU(psi)
    evals = {
        w: {"at_z": eval_at_z(chars[w]), "at_c2": eval_at_c2(chars[w], psi)}
        for w in ("W", "U", "")
    }
    for w in ("W", "U", ""):
        if evals[w]["at_z"] != 1 or evals[w]["at_c2"] != zvals[w]:
            raise IdentityError(f"eps_{w or 'empty'} evaluations disagree")
    if not ratio["consistent"]:
        raise IdentityError("half-sum ratio != z_W*z_U")

    def text():
        yield f"{'block':<14}{'eps_W':>6}{'eps_U':>6}{'eps_0':>6}"
        for i, b in enumerate(psi.blocks):
            yield (f"{str(b):<14}{_sgn(chars['W'][i]):>6}"
                   f"{_sgn(chars['U'][i]):>6}{_sgn(chars[''][i]):>6}")
        yield f"z_W = {_sgn(zvals['W'])}   z_U = {_sgn(zvals['U'])}   z_empty = {_sgn(zvals[''])}"
        yield (f"theta_W/theta_U ratio = {_sgn(ratio['ratio'])}"
               f"  (half-sum {_sgn(ratio['half_sum'])},"
               f" a-chain {_sgn(ratio['a_chain'])} [{ratio['convention']}])")
        for w in ("W", "U", ""):
            yield (f"eps_{w or 'empty'}: value at z = {_sgn(evals[w]['at_z'])},"
                   f" at c2 = {_sgn(evals[w]['at_c2'])}")

    _emit(args.json,
          lambda: {"blocks": [str(b) for b in psi.blocks],
                   "eps_W": list(chars["W"]),
                   "eps_U": list(chars["U"]),
                   "eps_empty": list(chars[""]),
                   "z_W": zvals["W"], "z_U": zvals["U"], "z_empty": zvals[""],
                   "pairs": {"Z": len(Z), "Z_W": len(ZW), "Z_U": len(ZU)},
                   "theta_ratio_WU": ratio,
                   "evaluations": evals},
          text)
    return OK


def cmd_resolve(args) -> int:
    psi, _ = _load(args.file)
    res = resolve_general(psi, rule=args.rule)
    if not degree_conserved(res):
        raise IdentityError("a resolution term has the wrong degree")
    _emit(args.json,
          lambda: {"psi": str(psi), "n": psi.n, "terms": res.expr,
                   "trace": res.trace},
          lambda: [f"psi = {psi}  (n = {psi.n})", f"resolution = {res.expr}"])
    return OK


def cmd_jacquet(args) -> int:
    psi, labels = _load(args.file)
    if args.rho not in labels:
        raise ValueError(f"unknown cuspidal {args.rho!r}")
    rho = labels[args.rho]
    t = _twice(args.x.strip())
    expr = resolve_general(psi).expr
    out = jac_theta(rho, t, expr) if args.theta else jac_left(rho, t, expr)
    op = "jac_theta" if args.theta else "jac_left"
    x = _half_str(t)
    _emit(args.json,
          lambda: {"psi": str(psi), "op": op, "rho": args.rho, "x": x, "terms": out},
          lambda: [f"{op}({x}) = {out}"])
    return OK


def cmd_dominate(args) -> int:
    psi, _ = _load(args.file)
    tilde, peel = dominate(psi, rule=args.rule)
    _emit(args.json,
          lambda: {"psi": str(psi), "psi_tilde": str(tilde),
                   "peel": [[rho.name, _half_str(t)] for rho, t in peel],
                   "file": render_parameter_file(tilde)},
          lambda: [f"psi       = {psi}", f"psi~      = {tilde}",
                   "peel list = (" + ", ".join(f"{r.name}:{_half_str(t)}" for r, t in peel) + ")"])
    return OK


# support points of a dual input, its segment lengths summed; one segment of
# 100 000 points takes about 0.6 s on 2 vCPU (Python 3.11)
MAX_SUPPORT = 100_000


def cmd_dual(args) -> int:
    m = parse_multisegment(args.multisegment)
    points = sum((s - e) // 2 + 1 for _, s, e in m.rows)
    if points > MAX_SUPPORT:
        raise ValueError(f"the multisegment covers {points} support points, "
                         f"more than the limit of {MAX_SUPPORT}")
    d = mw_dual(m)
    if mw_dual(d) != m:
        raise IdentityError("dual applied twice did not return the input")
    _emit(args.json, lambda: {"input": str(m), "dual": str(d)}, lambda: [str(d)])
    return OK


MAX_N = 16  # n = 16 takes about 8 s on 2 vCPU (Python 3.11); each step up costs about x2.4


def cmd_complex_check(args) -> int:
    n = args.n
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    if n > MAX_N:
        raise ValueError(f"--n must be at most {MAX_N}, got {n}")
    results = []
    for k in range(2, n + 1):
        results.append(("nilpotency", k, check_nilpotent(k)))
        results.append(("theta-sign", k, check_theta_sign(k)))
    size = min(n, 5)
    results.append(("subset-homology", size, check_subset_homology(size)))
    _emit(args.json,
          lambda: [{"suite": name, "n": k, "pass": ok} for name, k, ok in results],
          lambda: [f"{name:<18} n={k:<3} {'PASS' if ok else 'FAIL'}"
                   for name, k, ok in results])
    return OK if all(ok for _, _, ok in results) else BAD_IDENTITY


def cmd_verify(args) -> int:
    psi, _ = _load(args.file)
    report = verify_cancellation(psi)

    def text():
        yield f"expansion of {report['quad']}"
        for ch in report["checks"]:
            status = "vanishes" if ch["vanishes"] else f"RESIDUAL({ch['residual']})"
            yield f"{ch['kind']:<12} x={ch['x']:<6} {status}"

    _emit(args.json, lambda: report, text)
    return OK if report["all_vanish"] else BAD_IDENTITY


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1 instead of argparse's 2, which
    here means a failed identity.  Subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(BAD_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    ap = _Parser(
        prog="multiseg",
        description="Segment combinatorics for twisted general linear groups",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help, *positional):
        p = sub.add_parser(name, help=help)
        p.register("type", int, parse_int)  # errors still say "invalid int value"
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for arg in positional:
            p.add_argument(arg)
        p.set_defaults(fn=fn)
        return p

    add("classify", cmd_classify, "block predicates and quad recoding", "file")
    add("signs", cmd_signs, "sign characters and normalization ratios", "file")
    p = add("resolve", cmd_resolve, "resolution in the formal group", "file")
    p.add_argument("--rule", choices=("minimal", "staircase"), default="minimal")
    p = add("jacquet", cmd_jacquet, "Jacquet projection of the resolution", "file")
    p.add_argument("--rho", required=True)
    p.add_argument("--x", required=True,
                   help="point such as 3/2; write a negative point as --x=-1/2")
    p.add_argument("--theta", action="store_true")
    p = add("dominate", cmd_dominate, "discrete-diagonal dominating parameter", "file")
    p.add_argument("--rule", choices=("minimal", "staircase"), default="minimal")
    add("dual", cmd_dual, "dual multisegment", "multisegment")
    p = add("complex-check", cmd_complex_check, "wedge-sign and homology suites")
    p.add_argument("--n", type=int, default=5)
    add("verify", cmd_verify, "cancellation report for a parameter", "file")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if [] in vars(args).values():  # before Python 3.13 argparse reads `--x=--` as []
        ap.error("an option value cannot be '--'")
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): point stdout at devnull
        # so that the interpreter's own flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BAD_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except IdentityError as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return BAD_IDENTITY


if __name__ == "__main__":
    sys.exit(main())
