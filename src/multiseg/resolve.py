"""Recursive Grothendieck-group resolutions and the domination pipeline.

A block with A > B is expanded into the signed sum over C in ]B, A] of
  (-1)^(A-C)  <zB..-zC> x Jac^theta_{z(B+2)..zC}( rest x (A,B+2,z) ) x <zC..-zB>
plus the closing term (-1)^[(A-B+1)/2] (rest x (A,B+1,z) x (B,B,z)).
_expand writes this sum once on positional terms dicts, with sub() giving
the words of the smaller parameters; the GrothExpr that resolve_param and
resolve_block return canonicalizes each word once.  resolve_param's recursion
passes itself as sub, so every surviving word is a product of oriented
segment atoms; resolve_block is one step of it with the tableaux as leaves,
so its truncated tableaux (the theta-peels of one tableau) stay ladder atoms.

The recursion is a tree, so it keeps no memo.  Both sub calls shrink (A, B)
inside [B, A], and every call stays discrete diagonal.  They never meet
again: only the closing call holds (B, B), which no step removes and no
quad of the middle call's tree reaches.  Sum(A-B) falls by 2 through the
middle call and by 1 through the closing one: the depth is exactly Sum(A-B).
"""

from __future__ import annotations

from .core import Ladder, _half_str
from .groth import (GrothExpr, _sum, canonical_word, commutative_image, jac_theta_seq,
                    peel_terms, theta_terms, total_size)
from .ladders import ladder_multisegment
from .params import Parameter, Quad, _quad_sort_key, dominate, is_discrete_diagonal


class Resolution:
    """A parameter, its expression in the Grothendieck group, and the
    resolver's steps as trace dicts.  Mutable and unhashable; equal when
    all three fields are."""

    __slots__ = ("psi", "expr", "trace")

    def __init__(self, psi: Parameter, expr: GrothExpr, trace: list | None = None):
        self.psi = psi
        self.expr = expr
        self.trace = [] if trace is None else trace

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.psi, self.expr, self.trace) == (other.psi, other.expr, other.trace)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Resolution(psi={self.psi!r}, expr={self.expr!r}, trace={self.trace!r})"


def _expand(q: Quad, rest: tuple[Quad, ...], sub) -> dict:
    """The expansion of block q next to the blocks rest, as positional terms;
    sub maps a tuple of quads to positional terms.  For A = B+1 the middle
    is sub(rest).  Each C theta-peels the previous middle at the doubled
    point zC, which is Jac^theta_{z(B+2)..zC} of the first, and wraps its
    words as (<zB..-zC>, *w, <zC..-zB>), not canonicalized: the caller's
    GrothExpr canonicalizes them.  All the terms go into one sum.  The
    closing sub call comes last, which keeps the resolver's trace order."""
    rho, A, B, z = q.rho, q.A, q.B, q.zeta
    inner = rest + ((Quad(rho, A, B + 4, z),) if A >= B + 4 else ())
    middle = sub(inner)
    pairs = []
    for C in range(B + 2, A + 1, 2):
        if C >= B + 4:
            middle = theta_terms(middle, rho, C * z)
        left, right = Ladder(rho, ((B * z, -C * z),)), Ladder(rho, ((C * z, -B * z),))
        sign = (-1) ** ((A - C) // 2)
        pairs += [((left, *w, right), sign * c) for w, c in middle.items()]
    closing = sub(rest + (Quad(rho, A, B + 2, z), Quad(rho, B, B, z)))
    sign = (-1) ** (((A - B) // 2 + 1) // 2)
    pairs += [(w, sign * c) for w, c in closing.items()]
    return _sum(pairs)


def resolve_block(q: Quad) -> GrothExpr:
    """One step of the resolver on a single block with A > B, with the
    tableaux as leaves: the truncated tableaux come out as ladder atoms."""
    if q.A <= q.B:
        raise ValueError(f"resolve_block needs A > B, got {q}")
    return GrothExpr(_expand(q, (), _elementary_word).items())


def _leading(quads, pick=max):
    """The expandable block (A > B) that pick selects by _quad_sort_key, or
    None when every block is elementary, and the other quads as given."""
    expandable = [q for q in quads if q.A > q.B]
    if not expandable:
        return None, list(quads)
    q = pick(expandable, key=_quad_sort_key)
    rest = list(quads)
    rest.remove(q)
    return q, rest


def _tableaux(quads) -> tuple[Ladder, ...]:
    """The quads' tableau atoms in decreasing _quad_sort_key order."""
    return tuple(map(ladder_multisegment, sorted(quads, key=_quad_sort_key, reverse=True)))


def _elementary_word(quads) -> dict:
    return {_tableaux(quads): 1}


def distinguished_word(psi: Parameter):
    """Canonical word picking out the block product inside a resolution.

    Built by the same recursion the resolver uses: the largest block with
    A > B contributes its outermost tableau row on the left and its mirror on
    the right, wrapped around the word of the shrunk parameter; elementary
    parameters contribute their single-row tableaux in decreasing block
    order.  The word carries coefficient +1 in the resolution.
    """

    def build(quads):
        q, rest = _leading(quads)
        if q is None:
            return _tableaux(quads)
        if q.A >= q.B + 4:
            rest.append(Quad(q.rho, q.A - 2, q.B + 2, q.zeta))
        A, B = q.A * q.zeta, q.B * q.zeta
        return (Ladder(q.rho, ((B, -A),)), *build(tuple(rest)), Ladder(q.rho, ((A, -B),)))

    return canonical_word(build(psi.quads()))


MAX_DEPTH = 24


def _check_depth(psi: Parameter) -> None:
    """Refuse a depth Sum(A-B) past MAX_DEPTH: each nested expansion at least
    doubles the words, so 25 of them give 2^25 words and over an hour of work."""
    depth = sum(q.A - q.B for q in psi.quads()) // 2
    if depth > MAX_DEPTH:
        raise ValueError(f"resolution too deep: Sum(A-B) = {depth} nested expansions "
                         f"exceed the limit of {MAX_DEPTH}")


def resolve_param(psi: Parameter, block_choice: str = "largest") -> Resolution:
    """Full recursive resolution of a discrete-diagonal parameter.  A depth
    Sum(A-B) past MAX_DEPTH raises ValueError."""
    if not is_discrete_diagonal(psi):
        raise ValueError("resolve_param needs a parameter of discrete diagonal restriction")
    if block_choice not in ("largest", "smallest"):
        raise ValueError(f"unknown block choice {block_choice!r}")
    _check_depth(psi)
    pick = max if block_choice == "largest" else min
    trace: list = []

    def resolve(quads: tuple[Quad, ...]) -> dict:
        q, rest = _leading(quads, pick)
        if q is None:
            ordered = sorted(quads, key=_quad_sort_key)
            trace.append({"case": "elementary", "blocks": [str(b) for b in ordered]})
            return _elementary_word(quads)
        trace.append({"case": "A=B+1" if q.A == q.B + 2 else "A>B+1", "block": str(q)})
        return _expand(q, tuple(rest), resolve)

    return Resolution(psi, GrothExpr(resolve(psi.quads()).items()), trace)


def resolve_general(psi: Parameter, rule: str = "minimal") -> Resolution:
    """Dominate, resolve the dominating parameter, then peel back down.  As
    domination keeps each block's A-B, a too deep resolution is refused first."""
    _check_depth(psi)
    psi_t, peel = dominate(psi, rule=rule)
    res = resolve_param(psi_t)
    expr = jac_theta_seq(peel, res.expr)
    trace = [{"case": "dominate", "rule": rule, "psi_tilde": str(psi_t),
              "peel": [[rho.name, _half_str(t)] for rho, t in peel]}] + res.trace
    return Resolution(psi, expr, trace)


def verify_cancellation(psi: Parameter) -> dict:
    """Vanishing report for the expansion of psi's largest expandable block.

    Checks Jac_x for x outside [zeta B, zeta A], Jac_{x,x} for all support
    points, and the theta-peels at zeta C for C in ]B+1, A].  For a single
    block the expansion is resolve_block's one level, kept positional;
    otherwise the full recursive resolution is used.  Raises ValueError
    when no check applies (several blocks and A = B+1), rather than report
    a vacuous pass.  Every check peels the expansion's terms at a doubled
    point.
    """
    quads = psi.quads()
    q, _ = _leading(quads)
    if q is None:
        raise ValueError("nothing to verify: all blocks are elementary")
    rho, A, B, z = q.rho, q.A, q.B, q.zeta
    single = len(quads) == 1
    cs = range(B + 4, A + 1, 2)
    if single:
        terms = _expand(q, (), _elementary_word)
    elif not is_discrete_diagonal(psi):
        raise ValueError("verify_cancellation needs a single block or discrete diagonal input")
    elif not cs:
        raise ValueError(f"nothing to verify: {q} has A = B+1, so with further "
                         "blocks present no check applies")
    else:
        terms = resolve_param(psi).expr.terms
    checks = []

    def check(kind, t, val, **extra):
        checks.append({"kind": kind, "x": _half_str(t), "vanishes": val.is_zero,
                       **extra, "residual": len(val.terms)})

    if single:
        # the one-sided checks are block-local statements; with further
        # blocks present Jac_x legitimately survives at their base points
        inside = {x * z for x in range(B, A + 1, 2)}
        for t in range(-(A + 2), A + 3, 2):
            if t not in inside:
                check("jac_outside", t, GrothExpr(peel_terms(terms, rho, t, True).items()))
        for t in range(-A, A + 1, 2):
            once = peel_terms(terms, rho, t, True)
            check("jac_xx", t, GrothExpr(peel_terms(once, rho, t, True).items()))
    for c in cs:
        val = GrothExpr(theta_terms(terms, rho, c * z).items())
        check("jac_theta", c * z, val, vanishes_mod_commutative=not commutative_image(val))
    return {
        "quad": str(q), "single_block": single, "checks": checks,
        "all_vanish": all(ch["vanishes"] for ch in checks),
        "all_vanish_mod_commutative": all(
            ch.get("vanishes_mod_commutative", ch["vanishes"]) for ch in checks),
    }


def degree_conserved(res: Resolution) -> bool:
    return all(total_size(w) == res.psi.n for w in res.expr.terms)
