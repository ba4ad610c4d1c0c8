"""The theta-elliptic part of a resolution has a closed form.

theta maps a row [x..y] to [-y..-x].  Call an atom theta-fixed when its
rows are [x..-x]; such a ladder has one row, since the ladder condition
wants both the starts and the ends to fall.  P keeps the atom multisets of
a commutative image whose atoms are pairwise distinct and theta-fixed, and
drops every other multiset.

Then P(commutative_image(resolve_general(psi).expr)) is built from
diag_restriction alone: each block (rho, a, b) with sign zeta splits into
the pieces (rho, c, 1), and each piece becomes the segment [zeta x..-zeta x]
with x = (c-1)/2.  The class is the multiset of these oriented segments
with sign prod s(k) over the blocks, k = min(a, b) and s(k) = -1 exactly
when k = 2 (mod 4); it is 0 when two of the segments coincide.

This rule is empirical: it holds on both corpora below under both
domination rules, and is not derived here from the paper.  It is what one
expects if the resolution's identity holds modulo the kernel of the twisted
trace on theta-elliptic elements, but that is a hypothesis, not a theorem.
The oracle shares no code with the resolver: it reads only diag_restriction,
to_quad's zeta and Ladder.
"""

import random
from collections import Counter
from itertools import combinations_with_replacement
from math import prod

import pytest

from multiseg import CuspidalLabel, JordanBlock, Ladder, Parameter, resolve_general, to_quad
from multiseg.groth import commutative_image
from multiseg.params import diag_restriction

R = CuspidalLabel("rho")
S = CuspidalLabel("sig")
D2 = CuspidalLabel("tau", 2)


def elliptic(image):
    """P: the multisets of distinct theta-fixed atoms, with their coefficients."""
    return {key: c for key, c in image.items()
            if all(m == 1 and all(e == -s for s, e in atom.rows) for atom, m in key)}


def s(k):
    return -1 if k % 4 == 2 else 1


def closed_form(psi):
    """The signed multiset of psi's oriented diagonal pieces, or {} when two
    of them coincide."""
    segments = []
    for block in psi.blocks:
        zeta = to_quad(block).zeta
        for piece in diag_restriction(Parameter([block])).blocks:
            x2 = piece.a - 1  # doubled x = (c-1)/2
            segments.append(Ladder(block.rho, ((zeta * x2, -zeta * x2),)))
    if len(set(segments)) < len(segments):
        return {}
    return {frozenset(Counter(segments).items()): prod(s(min(b.a, b.b)) for b in psi.blocks)}


def one_label():
    """Every parameter over rho with 1-3 blocks, 1 <= a, b <= 4 and n <= 20."""
    shapes = [(a, b) for a in range(1, 5) for b in range(1, 5)]
    for k in (1, 2, 3):
        for blocks in combinations_with_replacement(shapes, k):
            if sum(a * b for a, b in blocks) <= 20:
                yield Parameter([JordanBlock(R, a, b) for a, b in blocks])


def two_labels():
    """226 of the 3804 parameters with 2-3 blocks on exactly two of rho, sig
    and tau (d = 2), 1 <= a, b <= 4 and n <= 16, drawn with a fixed seed."""
    shapes = [(r, a, b) for r in (R, S, D2) for a in range(1, 5) for b in range(1, 5)]
    psis = [Parameter([JordanBlock(r, a, b) for r, a, b in blocks])
            for k in (2, 3) for blocks in combinations_with_replacement(shapes, k)
            if len({r for r, _, _ in blocks}) == 2
            and sum(a * b * r.d for r, a, b in blocks) <= 16]
    assert len(psis) == 3804
    return random.Random(21).sample(psis, 226)


@pytest.mark.parametrize("corpus, count, nonzero", [(one_label, 650, 570), (two_labels, 226, 314)],
                         ids=["one_label", "two_labels"])
def test_elliptic_part_is_the_oriented_diagonal_restriction(corpus, count, nonzero):
    psis, seen = list(corpus()), 0
    assert len(psis) == count
    for psi in psis:
        want = closed_form(psi)
        seen += 2 * bool(want)
        for rule in ("minimal", "staircase"):
            got = elliptic(commutative_image(resolve_general(psi, rule=rule).expr))
            assert got == want, (str(psi), rule)
    assert seen == nonzero


def test_examples():
    """(rho,2,2) has pieces c = 1, 3 and s(2) = -1; (rho,3,1) and (rho,1,3)
    give [1..-1] and [-1..1]; two blocks (rho,1,1) repeat [0..0]."""
    def segment(x2):
        return Ladder(R, ((x2, -x2),))

    assert closed_form(Parameter([JordanBlock(R, 2, 2)])) == {
        frozenset({(segment(0), 1), (segment(2), 1)}): -1}
    assert closed_form(Parameter([JordanBlock(R, 3, 1), JordanBlock(R, 1, 3)])) == {
        frozenset({(segment(2), 1), (segment(-2), 1)}): 1}
    assert closed_form(Parameter([JordanBlock(R, 1, 1)] * 2)) == {}
