"""Parameter file format: one `cuspidal` or `block` declaration per line."""

from __future__ import annotations

from collections import Counter

from .core import CuspidalLabel, parse_int
from .params import JordanBlock, Parameter


class ParamFileError(ValueError):
    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")


_SIGNS = {"+1": 1, "-1": -1, "1": 1}


def _sign(tok: str, what: str, line_no: int) -> int:
    if tok in _SIGNS:
        return _SIGNS[tok]
    raise ParamFileError(line_no, f"{what} must be +1 or -1, got {tok!r}")


def _positive(tok: str, what: str, bad_message: str, line_no: int) -> int:
    """tok as an integer >= 1; bad_message is the error when it is not an integer."""
    try:
        n = parse_int(tok)
    except ValueError:
        raise ParamFileError(line_no, bad_message) from None
    if n < 1:
        raise ParamFileError(line_no, f"{what} must be >= 1")
    return n


def parse_parameter_file(text: str) -> tuple[Parameter, dict[str, CuspidalLabel]]:
    """Parse declarations into a Parameter plus the label table."""
    labels: dict[str, CuspidalLabel] = {}
    blocks: list[JordanBlock] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]
        if kind == "cuspidal":
            if len(toks) < 2:
                raise ParamFileError(line_no, "cuspidal needs a name")
            name = toks[1]
            if name in labels:
                raise ParamFileError(line_no, f"duplicate cuspidal name {name!r}")
            d, eta, chi, seen = 1, None, 1, set()
            for opt in toks[2:]:
                if "=" not in opt:
                    raise ParamFileError(line_no, f"expected key=value, got {opt!r}")
                key, val = opt.split("=", 1)
                if key in seen:
                    raise ParamFileError(line_no, f"duplicate option {key!r}")
                seen.add(key)
                if key == "d":
                    d = _positive(val, "d", f"bad d value {val!r}", line_no)
                elif key == "eta":
                    eta = None if val == "?" else _sign(val, "eta", line_no)
                elif key == "chi":
                    chi = _sign(val, "chi", line_no)
                else:
                    raise ParamFileError(line_no, f"unknown option {key!r}")
            try:
                labels[name] = CuspidalLabel(name, d, eta, chi)
            except ValueError as exc:
                raise ParamFileError(line_no, str(exc)) from None
        elif kind == "block":
            if len(toks) not in (4, 5):
                raise ParamFileError(line_no, "block needs: block <name> <a> <b> [xMult]")
            name = toks[1]
            if name not in labels:
                raise ParamFileError(line_no, f"block references unknown cuspidal {name!r}")
            a = _positive(toks[2], "a", "a and b must be integers", line_no)
            b = _positive(toks[3], "b", "a and b must be integers", line_no)
            mult = 1
            if len(toks) == 5:
                if not toks[4].startswith("x"):
                    raise ParamFileError(line_no, f"multiplicity must be xN, got {toks[4]!r}")
                mult = _positive(toks[4][1:], "multiplicity", f"bad multiplicity {toks[4]!r}",
                                 line_no)
            blocks.extend(JordanBlock(labels[name], a, b) for _ in range(mult))
        else:
            raise ParamFileError(line_no, f"unknown declaration {kind!r}")
    return Parameter(blocks), labels


def render_parameter_file(psi: Parameter) -> str:
    """Deterministic text form; parse(render(psi)) reproduces psi.  A file
    names each label once, so two labels that share a name raise ValueError."""
    lines, names = [], set()
    for rho in psi.labels():
        if rho.name in names:
            raise ValueError(f"two labels share the name {rho.name!r}; "
                             "a parameter file cannot tell them apart")
        names.add(rho.name)
        eta = "?" if rho.eta is None else f"{rho.eta:+d}"
        lines.append(f"cuspidal {rho.name} d={rho.d} eta={eta} chi={rho.chi:+d}")
    # psi.blocks is in (name, a, b) order, and Counter keeps first-seen order
    for block, mult in Counter(psi.blocks).items():
        suffix = f" x{mult}" if mult > 1 else ""
        lines.append(f"block {block.rho.name} {block.a} {block.b}{suffix}")
    return "\n".join(lines) + "\n"
