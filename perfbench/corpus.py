"""Seeded inputs for the four benchmark workloads.

Every workload is a list of `Item`s: one CLI call each, with the parameter
file it reads (if any), the exit code it must return and the oracle that
checks its output.  `generate(workload, seed)` is deterministic per seed.

The seed changes what the output looks like (label names, cuspidal data,
line order, random multisegments, the small cli_session files) but keeps
the amount of work per pass nearly the same, so that runs with different
seeds measure the same cost.  The shape lists below fix that work.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("peel_chain", "deep_block", "dual_sweep", "cli_session")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

FILE = "@file"          # argv placeholder for the item's parameter file
MISSING = "@missing"    # argv placeholder for a path that is never created

LABEL_NAMES = ("rho", "sigma", "pi", "tau", "nu", "r1", "s2", "chi3")


@dataclass
class Item:
    argv: list
    text: str | None = None
    check: str = "rc"
    info: dict = field(default_factory=dict)
    rc: int = 0

    def key(self) -> str:
        """Content hash of the call: argv plus the parameter file text."""
        raw = json.dumps([self.argv, self.text], separators=(",", ":"))
        return hashlib.sha256(raw.encode()).hexdigest()[:16]


def corpus_hash(items) -> str:
    h = hashlib.sha256()
    for it in items:
        h.update(it.key().encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- shapes

def _quad2(a: int, b: int):
    """(A, B) of block (a, b), both doubled."""
    return a + b - 2, abs(a - b)


def discrete_diagonal(blocks) -> bool:
    """blocks: (label, a, b).  True iff every label/integrality family has
    pairwise disjoint [B, A] intervals (no domination peel is needed)."""
    fams: dict = {}
    for lab, a, b in blocks:
        A2, B2 = _quad2(a, b)
        fams.setdefault((lab, B2 % 2), []).append((B2, A2))
    for ivs in fams.values():
        ivs.sort()
        if any(i1[1] >= i2[0] for i1, i2 in zip(ivs, ivs[1:])):
            return False
    return True


# {(3,3)x2,(2,2)}: the reference peel chain (21 points), once per pass.
PEEL_HEAVY = ((2, 2), (3, 3), (3, 3))
# One-label shapes in range that took over 0.25 s each at the commit that
# defined the benchmark (four of them over 1.5 s).  Left out so that the
# light shapes can run in several rounds per pass; {(4,4)x2} (about 50 s)
# is outside the n range anyway.
PEEL_EXCLUDED = {
    ((3, 3), (4, 4)), ((2, 2), (2, 2), (4, 4)), ((2, 3), (3, 3), (3, 3)),
    ((3, 2), (3, 3), (3, 3)), ((2, 2), (2, 2), (3, 3)), ((3, 3), (3, 3)),
    ((2, 2), (3, 3), (4, 2)), ((2, 2), (3, 3), (3, 4)), ((2, 2), (3, 3), (4, 3)),
    ((4, 3), (4, 3)), ((3, 4), (3, 4)), ((4, 2), (4, 4)), ((2, 3), (2, 3), (4, 3)),
    ((3, 2), (3, 2), (3, 4)), ((2, 3), (2, 3), (3, 4)), ((3, 2), (3, 2), (4, 3)),
    ((3, 3), (4, 2), (4, 2)),
}
# Each light shape runs this many times per pass, in separately shuffled
# rounds, so that the light items weigh more than the heavy one and are
# sampled at several moments of a run.
PEEL_ROUNDS = 3


def peel_shapes():
    """Light shapes: one label, 2-3 blocks, a,b in 2..4, 14 <= n <= 25, not
    discrete diagonal, not excluded; plus two-label variants of the 3-block
    ones with n <= 21 (the first block, in order, that keeps the parameter
    non discrete-diagonal moves to the second label)."""
    ab = [(a, b) for a in range(2, 5) for b in range(2, 5)]
    one, two = [], []
    for k in (2, 3):
        for combo in itertools.combinations_with_replacement(ab, k):
            n = sum(a * b for a, b in combo)
            if not 14 <= n <= 25 or discrete_diagonal([(0, a, b) for a, b in combo]):
                continue
            if combo == PEEL_HEAVY or combo in PEEL_EXCLUDED:
                continue
            one.append([(0, a, b) for a, b in combo])
            if k == 3 and n <= 21:
                for j in range(3):
                    blocks = [(1 if i == j else 0, a, b) for i, (a, b) in enumerate(combo)]
                    if not discrete_diagonal(blocks):
                        two.append(blocks)
                        break
    return one + two


# Multi-block discrete-diagonal shapes for deep_block (label, a, b).
DEEP_MULTI = (
    ((0, 4, 3), (0, 6, 4)),
    ((0, 2, 7), (0, 5, 5)),
    ((0, 1, 3), (0, 5, 6), (0, 7, 1)),
    ((0, 2, 2), (0, 2, 6), (0, 4, 5)),
    ((0, 2, 1), (0, 3, 5), (0, 5, 2)),
    ((0, 1, 1), (0, 5, 3), (0, 6, 3)),
    ((0, 3, 2), (0, 5, 5)),
    ((0, 1, 1), (0, 4, 6), (0, 5, 2)),
    ((0, 2, 2), (0, 2, 3), (0, 7, 3)),
    ((0, 1, 3), (0, 3, 4), (0, 3, 7)),
    ((0, 3, 3), (1, 6, 6)),
    ((0, 5, 4), (1, 4, 4), (1, 2, 1)),
)


# ---------------------------------------------------------------- text

def _cuspidal_line(rng: random.Random, name: str, d: int) -> str:
    eta = rng.choice(("+1", "-1", "?"))
    chi = "+1" if eta == "-1" else rng.choice(("+1", "-1"))
    opts = [f"d={d}", f"eta={eta}", f"chi={chi}"]
    if d == 1 and rng.random() < 0.3:
        opts.pop(0)
    return f"cuspidal {name} " + " ".join(opts)


def _param_text(rng: random.Random, blocks, names, dims) -> str:
    """Parameter file for blocks (label index, a, b), cosmetically varied:
    line order, xN multiplicity versus repeated lines, comments."""
    lines = []
    if rng.random() < 0.5:
        lines.append("# generated parameter")
    used = sorted({lab for lab, _, _ in blocks})
    for lab in used:
        lines.append(_cuspidal_line(rng, names[lab], dims[lab]))
    counts: dict = {}
    for blk in blocks:
        counts[blk] = counts.get(blk, 0) + 1
    decl = []
    for (lab, a, b), mult in counts.items():
        if mult > 1 and rng.random() < 0.5:
            decl.append(f"block {names[lab]} {a} {b} x{mult}")
        else:
            decl.extend([f"block {names[lab]} {a} {b}"] * mult)
    rng.shuffle(decl)
    lines.extend(decl)
    if rng.random() < 0.3:
        lines.insert(len(lines) // 2, "")
    return "\n".join(lines) + "\n"


def _names(rng: random.Random, k: int = 2):
    """k distinct label names in sorted order: label 0 sorts first in every
    seed, so the resolver meets the labels in the same order."""
    return sorted(rng.sample(LABEL_NAMES, k))


def _param_item(rng, argv, blocks, check, dims=None):
    names = _names(rng)
    dims = dims or {0: 1, 1: 1}
    text = _param_text(rng, blocks, names, dims)
    n = sum(a * b * dims[lab] for lab, a, b in blocks)
    return Item(list(argv), text, check, {"n": n, "dims": {names[i]: dims[i] for i in dims}})


def _fmt2(t2: int) -> str:
    return str(t2 // 2) if t2 % 2 == 0 else f"{t2}/2"


def _ms_text(segs) -> str:
    """segs: (label, start2, end2)."""
    return "{" + ", ".join(f"[{_fmt2(s)}..{_fmt2(e)}]{lab}" for lab, s, e in segs) + "}"


def random_multisegment(rng, size, labels, half_share, span, maxlen):
    segs = []
    for _ in range(size):
        off = 1 if rng.random() < half_share else 0
        top = rng.randint(-span, span)
        low = top - rng.randint(0, maxlen)
        s, e = 2 * top + off, 2 * low + off
        if rng.random() < 0.5:
            s, e = e, s
        segs.append((rng.choice(labels), s, e))
    return segs


def tableau(a: int, b: int, lab: str):
    """Rows and columns of the block tableau of (a, b), doubled."""
    A2, B2 = _quad2(a, b)
    z = 1 if a >= b or B2 == 0 else -1
    rows = [(lab, z * (B2 + 2 * k), -z * (A2 - 2 * k)) for k in range((A2 - B2) // 2 + 1)]
    cols = [(lab, z * (B2 - 2 * m), z * (A2 - 2 * m)) for m in range((A2 + B2) // 2 + 1)]
    return rows, cols


# ---------------------------------------------------------------- workloads

def _peel_chain(rng):
    def item(blocks):
        return _param_item(rng, ["resolve", "--json", FILE], blocks, "degree")

    light = [item(blocks) for blocks in peel_shapes()]
    heavy = item([(0, a, b) for a, b in PEEL_HEAVY])
    items = []
    for r in range(PEEL_ROUNDS):
        rng.shuffle(light)
        items += light + ([heavy] if r == 0 else [])
    return items


def _deep_block(rng):
    items = []
    shapes = [((0, a, b),) for a in range(2, 9) for b in range(2, 9)] + list(DEEP_MULTI)
    for blocks in shapes:
        dims = {0: rng.choice((1, 2)), 1: rng.choice((1, 2))}
        items.append(_param_item(rng, ["resolve", "--json", FILE], blocks, "degree", dims))
        check = "verify" if len(blocks) == 1 else "verify_commutative"
        items.append(_param_item(rng, ["verify", "--json", FILE], blocks, check, dims))
    rng.shuffle(items)
    return items


DUAL_RANDOM = 150
DUAL_TABLEAUX = 12


def _dual_sweep(rng):
    items = []
    for i in range(DUAL_RANDOM):
        size = 40 + (210 * i) // (DUAL_RANDOM - 1)
        labels = _names(rng, 1 + i % 2)
        segs = random_multisegment(rng, size, labels, half_share=0.5 * (i % 3 != 0),
                                   span=12 + 4 * (i % 3), maxlen=8 + 2 * (i % 2))
        fmt = ["--json"] if i % 2 else []
        items.append(Item(["dual", *fmt, _ms_text(segs)], check="dual"))
    grid = [(a, b) for a in range(2, 9) for b in range(2, 9)]
    for a, b in rng.sample(grid, DUAL_TABLEAUX):
        rows, cols = tableau(a, b, rng.choice(LABEL_NAMES))
        items.append(Item(["dual", "--json", _ms_text(rows)], check="dual",
                          info={"cols": [list(c) for c in cols]}))
    rng.shuffle(items)
    return items


def _small_parameter(rng):
    """1-3 blocks, a,b in 1..3, one or two labels, n <= 8."""
    while True:
        k = rng.randint(1, 3)
        blocks = [(rng.randint(0, 1), rng.randint(1, 3), rng.randint(1, 3)) for _ in range(k)]
        if sum(a * b for _, a, b in blocks) <= 8 and any(min(a, b) > 1 for _, a, b in blocks):
            return blocks


MALFORMED = (
    (["classify", FILE], "cuspidal {r}\nblock {r} 0 1\n"),
    (["signs", FILE], "block {r} 1 1\ncuspidal {r}\n"),
    (["resolve", FILE], "cuspidal {r}\ncuspidal {s}\ncuspidal {r}\n"),
    (["dominate", FILE], "cuspidal {r} eta=maybe\n"),
    (["verify", FILE], "cuspidal {r}\nblock {r} 2 2 y3\n"),
    (["classify", "--json", FILE], "frobnicate {r}\n"),
    (["signs", "--json", FILE], "cuspidal {r} d=0\n"),
    (["verify", FILE], "cuspidal {r}\nblock {r} 3 1\n"),
    (["jacquet", FILE, "--rho", "nobody", "--x", "1"], "cuspidal {r}\nblock {r} 2 2\n"),
    (["jacquet", FILE, "--rho", "{r}", "--x", "1/3"], "cuspidal {r}\nblock {r} 2 2\n"),
    (["classify", MISSING], None),
    (["dual", "{[2..0]{r}"], None),
    (["dual", "{[1/2..0]{r}}"], None),
)


def _cli_session(rng):
    items = []
    for _ in range(6):
        blocks = _small_parameter(rng)
        base = _param_item(rng, [], blocks, "rc")
        for cmd in ("classify", "signs", "resolve", "dominate"):
            for fmt in ([], ["--json"]):
                check = {"classify": "classify", "resolve": "degree"}.get(cmd, "rc")
                items.append(Item([cmd, *fmt, FILE], base.text, check, base.info))
        rho = next(name for name in base.info["dims"] if f"block {name} " in base.text)
        theta = rng.random() < 0.5
        x2 = rng.choice((1, 2, 3, 4, -1))
        n_out = base.info["n"] - (2 if theta else 1) * base.info["dims"][rho]
        items.append(Item(["jacquet", "--json", FILE, "--rho", rho, f"--x={_fmt2(x2)}"]
                          + (["--theta"] if theta else []),
                          base.text, "degree", dict(base.info, n=n_out)))
    for a, b in rng.sample([(3, 3), (3, 4), (4, 3), (4, 4), (2, 3), (3, 2)], 3):
        base = _param_item(rng, [], [(0, a, b)], "rc")
        for fmt in ([], ["--json"]):
            items.append(Item(["verify", *fmt, FILE], base.text, "verify"))
    for _ in range(12):
        segs = random_multisegment(rng, rng.randint(10, 30), _names(rng, 1 + rng.randint(0, 1)),
                                   half_share=0.5, span=6, maxlen=5)
        for fmt in ([], ["--json"]):
            items.append(Item(["dual", *fmt, _ms_text(segs)], check="dual"))
    for n, fmt in ((6, []), (7, ["--json"]), (8, []), (9, ["--json"])):
        items.append(Item(["complex-check", *fmt, "--n", str(n)], check="complex"))
    for argv, text in MALFORMED:
        r, s = _names(rng)
        argv = [arg.replace("{r}", r) for arg in argv]
        text = text.format(r=r, s=s) if text else None
        items.append(Item(argv, text, "malformed", rc=1))
    rng.shuffle(items)
    return items


def coverage_tail():
    """Tiny calls through every subcommand, appended to in-process traced
    passes so that every traced boundary is crossed at least once."""
    worked = "cuspidal rho d=1 eta=+1 chi=+1\nblock rho 2 1\nblock rho 1 2\n"
    info = {"n": 4, "dims": {"rho": 1}}
    return [
        Item(["classify", "--json", FILE], worked, "classify", info),
        Item(["signs", "--json", FILE], worked, "rc", info),
        Item(["resolve", FILE], worked, "degree", info),
        Item(["dominate", FILE], worked, "rc", info),
        Item(["jacquet", "--json", FILE, "--rho", "rho", "--x", "3/2", "--theta"], worked,
             "degree", {"n": 2, "dims": {"rho": 1}}),
        Item(["verify", "--json", FILE], "cuspidal rho\nblock rho 3 3\n", "verify"),
        Item(["dual", "{[2..0]rho, [1..-1]rho}"], check="dual"),
        Item(["complex-check", "--n", "3"], check="complex"),
    ]


_GENERATORS = {
    "peel_chain": _peel_chain,
    "deep_block": _deep_block,
    "dual_sweep": _dual_sweep,
    "cli_session": _cli_session,
}


def generate(workload: str, seed: int):
    """One pass of the workload's items, deterministic per seed."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)
