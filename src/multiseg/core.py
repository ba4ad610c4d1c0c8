"""Half-integer arithmetic, segments, multisegments, and the dual involution.

Everything here is exact: half-integers are stored as doubled integers, so
no floating point ever enters segment combinatorics.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True, slots=True, order=True)
class HalfInt:
    """An element of (1/2)Z, stored as twice its value."""

    twice: int

    @staticmethod
    def of(x) -> "HalfInt":
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, int):
            return HalfInt(2 * x)
        raise TypeError(f"cannot coerce {x!r} to HalfInt")

    @staticmethod
    def parse(text: str) -> "HalfInt":
        text = text.strip()
        m = re.fullmatch(r"(-?\d+)/2", text)
        if m:
            return HalfInt(int(m.group(1)))
        m = re.fullmatch(r"-?\d+", text)
        if m:
            return HalfInt(2 * int(text))
        raise ValueError(f"not a half-integer: {text!r}")

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __add__(self, other) -> "HalfInt":
        return HalfInt(self.twice + HalfInt.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __rsub__(self, other) -> "HalfInt":
        return HalfInt(HalfInt.of(other).twice - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __mul__(self, k: int) -> "HalfInt":
        if not isinstance(k, int):
            raise TypeError("HalfInt can only be scaled by an integer")
        return HalfInt(self.twice * k)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({str(self)})"


ZERO = HalfInt(0)


class IdentityError(RuntimeError):
    """An exact identity that must hold did not; a fault of the program,
    not of its input."""


@dataclass(frozen=True, slots=True, eq=False)
class CuspidalLabel:
    """Abstract self-dual cuspidal datum: dimension d, parity eta, character sign chi.

    Labels compare and hash by name; the numeric attributes are carried data.
    eta is +1 (orthogonal), -1 (symplectic) or None (unknown).  When eta = -1
    the quadratic character class is forced trivial.
    """

    name: str
    d: int = 1
    eta: int | None = None
    chi: int = 1

    def __post_init__(self):
        if not self.name:
            raise ValueError("cuspidal label needs a nonempty name")
        if self.d < 1:
            raise ValueError(f"label {self.name}: d must be >= 1")
        if self.eta not in (1, -1, None):
            raise ValueError(f"label {self.name}: eta must be +1, -1 or unknown")
        if self.chi not in (1, -1):
            raise ValueError(f"label {self.name}: chi must be +1 or -1")
        if self.eta == -1 and self.chi != 1:
            raise ValueError(f"label {self.name}: eta=-1 forces chi=+1")

    def __eq__(self, other) -> bool:
        return isinstance(other, CuspidalLabel) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"CuspidalLabel({self.name!r})"


@dataclass(frozen=True, slots=True)
class Segment:
    """Oriented interval [start .. end] of half-integers over a cuspidal label.

    start - end must be an integer; elements run from start toward end in
    steps of 1, in either direction.
    """

    rho: CuspidalLabel
    start: HalfInt
    end: HalfInt

    def __post_init__(self):
        if not (self.start - self.end).is_integer:
            raise ValueError(f"segment bounds differ by a non-integer: {self}")

    @property
    def length(self) -> int:
        return abs(self.start.twice - self.end.twice) // 2 + 1

    @property
    def step(self) -> int:
        return -1 if self.start >= self.end else 1

    def elements(self) -> tuple[HalfInt, ...]:
        s = self.step
        return tuple(
            HalfInt(self.start.twice + 2 * s * i) for i in range(self.length)
        )

    def descending(self) -> "Segment":
        if self.start >= self.end:
            return self
        return Segment(self.rho, self.end, self.start)

    def __str__(self) -> str:
        return f"[{self.start}..{self.end}]{self.rho.name}"


class Multisegment:
    """Multiset of segments; equality forgets orientation.

    Canonical form: every segment descending, sorted by (label, start
    descending, end descending).
    """

    __slots__ = ("segments",)

    def __init__(self, segments=()):
        segs = tuple(
            sorted(
                (s.descending() for s in segments),
                key=lambda s: (s.rho.name, -s.start.twice, -s.end.twice),
            )
        )
        object.__setattr__(self, "segments", segs)

    def __setattr__(self, *a):
        raise AttributeError("Multisegment is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Multisegment) and self.segments == other.segments

    def __hash__(self) -> int:
        return hash(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    def __str__(self) -> str:
        return "{" + ", ".join(str(s) for s in self.segments) + "}"

    __repr__ = __str__


def support(m: Multisegment) -> Counter:
    """Multiset of (label, point) pairs covered by m."""
    out: Counter = Counter()
    for seg in m:
        for x in seg.elements():
            out[(seg.rho, x)] += 1
    return out


def _dual_one_family(segs: list[list[int]]) -> list[tuple[int, int]]:
    # segs: [start2, end2] with start2 >= end2, all in one coset of 2Z.
    # Greedy chain extraction: repeatedly peel a maximal staircase of starts
    # x, x-1, ... where successive ends strictly decrease; within a step the
    # candidate with maximal end is taken.  Each extracted chain is one
    # segment of the dual.
    pool = [[s, e] for s, e in segs]
    out: list[tuple[int, int]] = []
    while pool:
        locked: set[int] = set()
        x = max(s for s, _ in pool)
        cur = x
        prev_end: int | None = None
        while True:
            cands = [
                i
                for i, (s, e) in enumerate(pool)
                if i not in locked and s == cur and (prev_end is None or e < prev_end)
            ]
            if not cands:
                break
            i = max(cands, key=lambda i: pool[i][1])
            prev_end = pool[i][1]
            if pool[i][0] == pool[i][1]:
                pool.pop(i)
                locked = {j if j < i else j - 1 for j in locked}
            else:
                pool[i][0] -= 2
                locked.add(i)
            cur -= 2
        out.append((x, cur + 2))
    return out


def mw_dual(m: Multisegment) -> Multisegment:
    """Dual multisegment via the classical greedy staircase-chain algorithm.

    Applied independently to each (label, integrality-coset) family; the
    result is an involution preserving cuspidal support.
    """
    families: dict[tuple[CuspidalLabel, int], list[list[int]]] = {}
    for seg in m:
        s = seg.descending()
        families.setdefault((s.rho, s.start.twice % 2), []).append(
            [s.start.twice, s.end.twice]
        )
    out = []
    for (rho, _), segs in families.items():
        for s2, e2 in _dual_one_family(segs):
            out.append(Segment(rho, HalfInt(s2), HalfInt(e2)))
    return Multisegment(out)


_SEG_RE = re.compile(r"\[\s*([^.\s\]]+)\s*\.\.\s*([^.\s\]]+)\s*\]\s*([A-Za-z_]\w*)?")


def parse_multisegment(text: str, labels: dict[str, CuspidalLabel] | None = None,
                       default: CuspidalLabel | None = None) -> Multisegment:
    """Parse the text form `{[2..0]rho, [1..-1]rho}`.

    Unlabelled segments fall back to `default` (a d=1 label named "rho" if
    not supplied).  Known labels may be passed in; new names get fresh d=1
    labels.
    """
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError("multisegment must be enclosed in { }")
    body = text[1:-1].strip()
    labels = dict(labels or {})
    if default is None:
        default = labels.get("rho") or CuspidalLabel("rho")
    segs = []
    pos = 0
    while pos < len(body):
        while pos < len(body) and body[pos].isspace():
            pos += 1
        if pos >= len(body):
            break
        m = _SEG_RE.match(body, pos)
        if not m:
            raise ValueError(f"bad segment syntax near: {body[pos:]!r}")
        start, end, name = m.group(1), m.group(2), m.group(3)
        if name is None:
            rho = default
        else:
            rho = labels.setdefault(name, CuspidalLabel(name))
        segs.append(Segment(rho, HalfInt.parse(start), HalfInt.parse(end)))
        pos = m.end()
        rest = body[pos:].lstrip()
        if rest.startswith(","):
            pos = len(body) - len(rest) + 1
        elif rest:
            raise ValueError(f"expected ',' between segments near: {rest!r}")
        else:
            break
    return Multisegment(segs)
