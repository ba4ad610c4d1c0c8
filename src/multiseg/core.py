"""Half-integer text, ladders and segments, multisegments, and the dual
involution.

Everything here is exact: below the text boundary a half-integer x is the
int 2x ("t doubled"), and `_twice` and `_half_str` are the only converters
from and to its text `n` or `n/2`.  A `Ladder` is a tuple of oriented
doubled-int rows over one label, interned and checked once when first
built; a segment is a one-row ladder.  A multisegment is built from and
stored as sorted doubled-int rows (label, start2, end2); parsing and the
dual work on those rows and build no ladder, which only
`Multisegment.segments` and iteration make.  Ladder and Multisegment refuse odd start2 - end2.
"""

from __future__ import annotations

import re
from bisect import bisect_left, insort
from collections import Counter
from weakref import WeakValueDictionary

_HALF_RE = re.compile(r"(-?[0-9]+)(/2)?")
_INT_RE = re.compile(r"[+-]?[0-9]+")


def _twice(text: str) -> int:
    """Twice the half-integer written `n` or `n/2`."""
    m = _HALF_RE.fullmatch(text)
    if not m:
        raise ValueError(f"not a half-integer: {text!r}")
    n = int(m.group(1))
    return n if m.group(2) else 2 * n


def _half_str(twice: int) -> str:
    """The text of the half-integer twice/2: `n` or `n/2`."""
    return f"{twice}/2" if twice % 2 else str(twice // 2)


def parse_int(text: str) -> int:
    """`text` as an int when it is ASCII decimal digits with an optional
    sign.  int() alone would also take underscores, surrounding blanks and
    non-ASCII digits."""
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


class Frozen:
    """Base of the immutable value types.  A subclass lists its fields in
    `__slots__`, sets each once, in its constructor, through
    object.__setattr__, and returns its constructor's arguments from
    `_astuple`; assigning or deleting an attribute afterwards raises
    AttributeError.  Equality (NotImplemented against any other class), the
    hash, the repr `Name(field=value, ...)`, pickling and copying all read
    that tuple.  `Ladder`, being interned, keeps object's identity equality
    and hash; `CuspidalLabel` compares by its key and hashes by its name;
    `GrothExpr` is unhashable."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self):
        return self.__class__, self._astuple()

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._astuple()))
        return f"{self.__class__.__qualname__}({body})"


class IdentityError(RuntimeError):
    """An exact identity that must hold did not; a fault of the program,
    not of its input."""


class CuspidalLabel(Frozen):
    """Abstract self-dual cuspidal datum: dimension d, parity eta, character sign chi.

    eta is +1 (orthogonal), -1 (symplectic) or None (unknown).  When eta = -1
    the quadratic character class is forced trivial.

    Labels compare by `key`, all four fields (eta None as 0), so two labels
    of one name with different data are different labels; the hash reads
    the name only.  `key` also orders the rows of a multisegment.
    """

    __slots__ = ("name", "d", "eta", "chi", "key")

    def __init__(self, name: str, d: int = 1, eta: int | None = None, chi: int = 1):
        if not name:
            raise ValueError("cuspidal label needs a nonempty name")
        if d < 1:
            raise ValueError(f"label {name}: d must be >= 1")
        if eta not in (1, -1, None):
            raise ValueError(f"label {name}: eta must be +1, -1 or unknown")
        if chi not in (1, -1):
            raise ValueError(f"label {name}: chi must be +1 or -1")
        if eta == -1 and chi != 1:
            raise ValueError(f"label {name}: eta=-1 forces chi=+1")
        put = object.__setattr__
        put(self, "name", name)
        put(self, "d", d)
        put(self, "eta", eta)
        put(self, "chi", chi)
        put(self, "key", (name, d, eta or 0, chi))

    def _astuple(self) -> tuple:
        return (self.name, self.d, self.eta, self.chi)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, CuspidalLabel) and self.key == other.key)

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"CuspidalLabel({self.name!r})"


def _is_ladder(rows) -> bool:
    """Ladder condition on (start, end) pairs sorted by descending start."""
    return all(s > s2 and e > e2 for (s, e), (s2, e2) in zip(rows, rows[1:]))


def _body(rows) -> str:
    return ",".join(f"[{_half_str(s)}..{_half_str(e)}]" for s, e in rows)


def _parity_error(rho: CuspidalLabel, s: int, e: int) -> ValueError:
    """The error for the row (s, e), doubled and printed as given, of odd s - e."""
    return ValueError(f"segment bounds differ by a non-integer: {_body(((s, e),))}{rho.name}")


_interned: WeakValueDictionary = WeakValueDictionary()


class Ladder(Frozen):
    """Oriented rows as doubled (start, end) pairs in ladder order
    (descending start).  One row is the socle <rho||^start, ..., rho||^end>;
    orientation is meaningful.

    Interned by `key`, (label key, multi-row, rows): the constructor returns
    the live ladder with the same label data (name, d, eta, chi) and rows if
    there is one, so equal ladders are one object, equality is identity,
    the hash is object's, and a pickle or a copy is the live ladder.  A new
    value is checked once, when it is first built: every row's bounds differ
    by an integer, and the rows satisfy the ladder condition.  Built once
    per value and read in the word loops: size (times rho.d), the sort key
    and one (coset parity, lo, hi) span per row."""

    __slots__ = ("rho", "rows", "size", "spans", "key", "__weakref__")

    def __new__(cls, rho: CuspidalLabel, rows: tuple[tuple[int, int], ...]):
        key = (rho.key, len(rows) > 1, rows)
        self = _interned.get(key)
        if self is None:
            for s, e in rows:
                if (s - e) % 2:
                    raise _parity_error(rho, s, e)
            if not _is_ladder(rows):
                raise ValueError(f"rows do not satisfy the ladder condition: {_body(rows)}")
            self = object.__new__(cls)
            put = object.__setattr__
            put(self, "rho", rho)
            put(self, "rows", rows)
            put(self, "size", sum(abs(s - e) // 2 + 1 for s, e in rows) * rho.d)
            put(self, "spans", tuple((s % 2, min(s, e), max(s, e)) for s, e in rows))
            put(self, "key", key)
            _interned[key] = self
        return self

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def _astuple(self) -> tuple:
        return (self.rho, self.rows)

    def __repr__(self) -> str:
        return f"Ladder({self.rho!r}, {self.rows!r})"

    def segments(self) -> tuple["Ladder", ...]:
        """The rows as one-row ladders."""
        return tuple(Ladder(self.rho, (row,)) for row in self.rows)

    def to_json(self):
        if len(self.rows) == 1:
            s, e = self.rows[0]
            return {"type": "segment", "rho": self.rho.name,
                    "start": _half_str(s), "end": _half_str(e)}
        return {"type": "ladder", "rho": self.rho.name,
                "rows": [[_half_str(s), _half_str(e)] for s, e in self.rows]}

    def __str__(self) -> str:
        if len(self.rows) == 1:
            return _body(self.rows) + self.rho.name
        return f"L({_body(self.rows)}){self.rho.name}"


class Multisegment(Frozen):
    """Multiset of segments; equality forgets orientation.

    Built from (label, start2, end2) rows with doubled ints, in either
    orientation, with no ladder built; an odd start2 - end2 raises, as in Ladder.
    Stored as one tuple `rows`, every row descending (start2 >= end2) and
    sorted by (label key, start descending, end descending), so equal
    multisets have equal rows.  `groth.gl_multisegment` builds the
    multisegment of a word of ladders; `segments` and iteration build the
    one-row ladders on demand.
    """

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        oriented = []
        for rho, s, e in rows:
            if (s - e) % 2:
                raise _parity_error(rho, s, e)
            oriented.append((rho, s, e) if s >= e else (rho, e, s))
        oriented.sort(key=lambda r: (r[0].key, -r[1], -r[2]))
        object.__setattr__(self, "rows", tuple(oriented))

    def _astuple(self) -> tuple:
        return (self.rows,)

    @property
    def segments(self) -> tuple[Ladder, ...]:
        return tuple(Ladder(rho, ((s, e),)) for rho, s, e in self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.segments)

    def __str__(self) -> str:
        return "{" + ", ".join(
            f"[{_half_str(s)}..{_half_str(e)}]{rho.name}" for rho, s, e in self.rows
        ) + "}"

    __repr__ = __str__


def support(m: Multisegment) -> Counter:
    """Multiset of (label, t) pairs covered by m, each point t doubled."""
    return Counter((rho, t) for rho, s, e in m.rows for t in range(s, e - 1, -2))


def _dual_one_family(rows: list[tuple[int, int]]) -> list[tuple[int, int]]:
    # rows: (start2, end2) pairs with start2 >= end2, all in one coset of 2Z.
    # Greedy chain extraction: from the largest start x, walk the starts
    # x, x-1, ..., taking at each start the largest end below the previous
    # one (strictly), and stop at the first start with none; each chain is
    # one segment of the dual.  A row taken at start c and not used up goes
    # back as (c-2, e) in doubled units; its end is the chain's new bound,
    # so the strict test keeps it out of the rest of this chain.  Rows only
    # move to lower starts, so x runs once down the support points.
    ends: dict[int, list[int]] = {}
    for s, e in sorted(rows):
        ends.setdefault(s, []).append(e)
    out: list[tuple[int, int]] = []
    for x in sorted({p for s, e in rows for p in range(e, s + 1, 2)}, reverse=True):
        while ends.get(x):
            c, prev = x, x + 2
            while (bucket := ends.get(c)) and (i := bisect_left(bucket, prev)):
                prev = bucket.pop(i - 1)
                if prev < c:
                    insort(ends.setdefault(c - 2, []), prev)
                c -= 2
            out.append((x, c + 2))
    return out


def mw_dual(m: Multisegment) -> Multisegment:
    """Dual multisegment (Zelevinsky involution) by the Moeglin-Waldspurger
    chain algorithm.

    Applied independently to each (label, integrality-coset) family, as one
    walk over its segment ends bucketed by start: each chain step is one
    bisection and one pop in a sorted bucket and removes one support point,
    so the cost grows with the support points, not with points x rows.
    The result is an involution preserving cuspidal support.
    """
    families: dict[tuple[CuspidalLabel, int], list[tuple[int, int]]] = {}
    for rho, s2, e2 in m.rows:
        families.setdefault((rho, s2 % 2), []).append((s2, e2))
    return Multisegment(
        (rho, s2, e2)
        for (rho, _), rows in families.items()
        for s2, e2 in _dual_one_family(rows)
    )


_SEG_RE = re.compile(r"\s*\[\s*([^.\s\]]+)\s*\.\.\s*([^.\s\]]+)\s*\]\s*([A-Za-z_]\w*)?")
_SEP_RE = re.compile(r"\s*(?:,|\Z)")


def parse_multisegment(text: str) -> Multisegment:
    """Parse the text form `{[2..0]rho, [1..-1]rho}`.

    Every label name gets one d=1 label; unlabelled segments get "rho".
    """
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError("multisegment must be enclosed in { }")
    body = text[1:-1].strip()
    labels: dict[str, CuspidalLabel] = {}
    rows = []
    pos = 0
    while pos < len(body):
        m = _SEG_RE.match(body, pos)
        if not m:
            raise ValueError(f"bad segment syntax near: {body[pos:].lstrip()!r}")
        start, end, name = m.groups("rho")
        rho = labels.get(name)
        if rho is None:
            rho = labels[name] = CuspidalLabel(name)
        rows.append((rho, _twice(start), _twice(end)))
        sep = _SEP_RE.match(body, m.end())
        if not sep:
            raise ValueError(f"expected ',' between segments near: {body[m.end():].lstrip()!r}")
        pos = sep.end()
    return Multisegment(rows)
