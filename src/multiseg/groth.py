"""Formal integer combinations of induced words, with the Jacquet engine.

A word is an ordered list of atoms: ladders (`core.Ladder`) over one
cuspidal label, a one-row ladder being an oriented segment socle.  Words
are identified up to commutation of adjacent atoms whose supports are
everywhere at distance >= 2 for a shared label; the canonical
representative is the lexicographically least word of the commutation
class (the normal form of the trace monoid), built by inserting one atom at
a time into the normal form of the atoms before it.  Atoms are interned
ladders: equal atoms are one object, carrying its size, sort key and row
spans.  Jac_x acts by the Leibniz rule over word factors; every Jacquet
operator takes its point x as the doubled int t = 2x.  Each runs on one
loop, peel_terms, over positional words (atom tuples that are not
canonicalized), and the GrothExpr it returns canonicalizes its words.
"""

from __future__ import annotations

from collections import Counter

from .core import CuspidalLabel, Frozen, Ladder, Multisegment
from .ladders import peel


def _commute(a: Ladder, b: Ladder) -> bool:
    """True unless the labels agree and two rows in one coset of Z come
    within distance 1 of each other (doubled: a gap of at most 2)."""
    if a.rho is not b.rho and a.rho.key != b.rho.key:
        return True
    for p, lo, hi in a.spans:
        for p2, lo2, hi2 in b.spans:
            if p == p2 and lo2 <= hi + 2 and lo <= hi2 + 2:
                return False
    return True


def canonical_word(atoms) -> tuple[Ladder, ...]:
    """Lexicographically least representative of the commutation class.

    Empty atoms are dropped.  Each other atom is a sink of the dependence
    graph of the atoms so far, so it leaves their least topological order
    as it was: it goes in just after its last linked atom, then past the
    smaller atoms.  Equal keys mean equal atoms, which never commute, so
    there are no ties.
    """
    out: list[Ladder] = []
    for a in atoms:
        if not a.size:
            continue
        p = len(out)
        while p and _commute(out[p - 1], a):
            p -= 1
        key = a.key
        while p < len(out) and out[p].key < key:
            p += 1
        out.insert(p, a)
    return tuple(out)


def total_size(word: tuple[Ladder, ...]) -> int:
    return sum(a.size for a in word)


def gl_multisegment(word: tuple[Ladder, ...]) -> Multisegment:
    """The multisegment of every row of every atom of the word: the only
    way to build a multisegment from ladders."""
    return Multisegment((a.rho, s, e) for a in word for s, e in a.rows)


def _sum(pairs) -> dict:
    """Sum (key, coefficient) pairs into a dict, dropping zero totals."""
    acc: dict = {}
    for key, coeff in pairs:
        c = acc.get(key, 0) + coeff
        if c:
            acc[key] = c
        else:
            acc.pop(key, None)
    return acc


class GrothExpr(Frozen):
    """Map from words, canonicalized by the constructor, to nonzero integer
    coefficients; unhashable, as its terms are a dict."""

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, pairs=()):
        """Sum (word, coefficient) pairs by canonical word; zero totals drop."""
        object.__setattr__(self, "terms", _sum((canonical_word(w), c) for w, c in pairs))

    def _astuple(self) -> tuple:
        return (self.terms,)

    def __reduce__(self):
        return GrothExpr, (tuple(self.terms.items()),)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        """Terms by total size, then atom by atom by key: the distinct atoms
        are sorted once, and words compare as tuples of their ranks."""
        atoms = set().union(*self.terms)
        order = {k: i for i, k in enumerate(sorted({a.key for a in atoms}))}
        rank = {a: order[a.key] for a in atoms}
        return sorted(self.terms.items(),
                      key=lambda wc: (total_size(wc[0]), tuple(map(rank.__getitem__, wc[0]))))

    def to_json(self):
        return [
            {"coeff": c, "word": [a.to_json() for a in w]}
            for w, c in self.sorted_terms()
        ]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = self.sorted_terms()
        atoms = {a: str(a) for a in set().union(*self.terms)}
        parts = []
        for w, c in terms:
            body = "*".join(map(atoms.__getitem__, w)) if w else "1"
            parts.append(f"{'+' if c > 0 else '-'}{abs(c) if abs(c) != 1 else ''}{body}")
        return " ".join(parts)

    __repr__ = __str__


def induce(parts) -> GrothExpr:
    """Multilinear concatenation of words; sizes add."""
    terms = [((), 1)]
    for p in parts:
        terms = [(w1 + w2, c1 * c2) for w1, c1 in terms for w2, c2 in p.terms.items()]
    return GrothExpr(terms)


def peel_terms(terms: dict, rho: CuspidalLabel, t: int, left: bool) -> dict:
    """Leibniz sum of one-sided peels at rho||^(t/2), t doubled, over the
    factors of positional words (atom tuples in any order of their
    commutation class): from the left (a row starting there) or the right.

    A peel only shrinks a row, so atoms that commute still commute after it,
    and Jac acts on any representative of a commutation class.  Each
    distinct atom is peeled once per step.  An emptied atom keeps its place
    with no rows, never peels again, and canonical_word drops it."""
    key, moves = rho.key, {}
    for a in set().union(*terms):
        if a.rho.key == key:
            new = peel(t, a, left)
            if new is not None:
                moves[a] = new
    return _sum((w[:i] + (moves[a],) + w[i + 1:], c)
                for w, c in terms.items()
                for i, a in enumerate(w) if a in moves)


def theta_terms(terms: dict, rho: CuspidalLabel, t: int) -> dict:
    """Two-sided peel: rho||^(t/2) from the left, then rho||^(-t/2) from the right."""
    return peel_terms(peel_terms(terms, rho, t, True), rho, -t, False)


def jac_left(rho: CuspidalLabel, t: int, e: GrothExpr) -> GrothExpr:
    """Leibniz sum of left peels at rho||^(t/2), t doubled, over all word
    factors."""
    return GrothExpr(peel_terms(e.terms, rho, t, True).items())


def jac_right(rho: CuspidalLabel, t: int, e: GrothExpr) -> GrothExpr:
    """Mirror of jac_left: right peels at rho||^(t/2), t doubled."""
    return GrothExpr(peel_terms(e.terms, rho, t, False).items())


def jac_theta(rho: CuspidalLabel, t: int, e: GrothExpr) -> GrothExpr:
    """Two-sided peel, t doubled: rho||^(t/2) from the left, then
    rho||^(-t/2) from the right."""
    return GrothExpr(theta_terms(e.terms, rho, t).items())


def jac_theta_seq(points, e: GrothExpr) -> GrothExpr:
    """Apply jac_theta at (rho, t) pairs, t doubled, in list order (first
    entry first).

    The whole chain runs on positional terms, and only the returned words
    are canonicalized.
    """
    points = list(points)
    if not points or e.is_zero:
        return e
    terms = e.terms
    for rho, t in points:
        terms = theta_terms(terms, rho, t)
    return GrothExpr(terms.items())


def commutative_image(e: GrothExpr) -> dict:
    """Collapse each word to its atom multiset (full commutativity).

    Canonical-word equality refines this; comparisons here test identities
    that only hold after forgetting factor order.
    """
    return _sum((frozenset(Counter(w).items()), c) for w, c in e.terms.items())
