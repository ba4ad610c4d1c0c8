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

The pipeline is not multiplicative on the one_label() corpus, but its
theta-elliptic part is.  Let the product of psi's blocks be the product of
their single-block images, multiset by multiset.  The difference
D = image(psi) - product has P(D) = 0 on every multi-block parameter of
one_label().  Where D is nonzero (37 of the 634), its coefficients sum to
0, each multiset that theta moves has its theta-image with an equal
coefficient, and each theta-stable multiset has an even coefficient;
{(rho,3,1), (rho,3,3)} gives D = X + theta X - 2Y.  This rule is
empirical too.  The shape is what one expects under the same hypothesis,
that the identity holds modulo the kernel of the twisted trace on
theta-elliptic elements.

The domination chain can be run on atom multisets.  Start from the image of
the dominating parameter psi~ and, for each point (rho, x) of dominate's
peel list, take one Leibniz step: every atom of rho peels at x from the
left, with its multiplicity, then every atom peels at -x from the right,
and emptied atoms drop out.  The result is the image of resolve_general's
expression, on all of one_label() under both rules: the theta-chain does
not need the words' order.  Applying P after every step gives P of the
chain's end: the multisets that P drops add nothing to what it keeps.  Both
rules are empirical: checked on one_label() only, not derived.  Of the
Jacquet engine the chain uses only the one-atom peel, ladders.peel, and the
accumulator groth._sum; it builds no word and calls neither peel_terms nor
canonical_word.
"""

import random
from collections import Counter
from functools import cache
from itertools import combinations_with_replacement
from math import prod

import pytest

from multiseg import (CuspidalLabel, JordanBlock, Ladder, Parameter, resolve_general,
                      resolve_param, to_quad)
from multiseg.groth import _sum, commutative_image
from multiseg.ladders import peel
from multiseg.params import diag_restriction, dominate

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


def theta_atom(atom):
    """theta of a ladder: each row [x..y] becomes [-y..-x], in ladder order."""
    return Ladder(atom.rho, tuple((-e, -s) for s, e in reversed(atom.rows)))


def theta(key):
    """theta of an atom multiset, atom by atom."""
    return frozenset((theta_atom(atom), m) for atom, m in key)


def product(images):
    """The product of commutative images: multisets add, coefficients multiply."""
    out = {frozenset(): 1}
    for image in images:
        out = _sum((frozenset((Counter(dict(k1)) + Counter(dict(k2))).items()), c1 * c2)
                   for k1, c1 in out.items() for k2, c2 in image.items())
    return out


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


@cache
def general_image(psi, rule):
    """The commutative image of resolve_general(psi), computed once per
    (psi, rule) in this module."""
    return commutative_image(resolve_general(psi, rule=rule).expr)


@pytest.mark.parametrize("corpus, count, nonzero", [(one_label, 650, 570), (two_labels, 226, 314)],
                         ids=["one_label", "two_labels"])
def test_elliptic_part_is_the_oriented_diagonal_restriction(corpus, count, nonzero):
    psis, seen = list(corpus()), 0
    assert len(psis) == count
    for psi in psis:
        want = closed_form(psi)
        seen += 2 * bool(want)
        for rule in ("minimal", "staircase"):
            assert elliptic(general_image(psi, rule)) == want, (str(psi), rule)
    assert seen == nonzero


def peel_multisets(image, rho, t, left):
    """One-sided Leibniz peel at doubled point t on atom multisets: each atom
    of rho that peels contributes once per copy, and an emptied atom drops."""
    def terms():
        for key, c in image.items():
            for atom, m in key:
                if atom.rho.name != rho.name or (new := peel(t, atom, left)) is None:
                    continue
                counts = Counter(dict(key))
                counts[atom] -= 1
                if new.rows:
                    counts[new] += 1
                yield frozenset((+counts).items()), c * m
    return _sum(terms())


def theta_chain(image, points, step_filter=lambda image: image):
    """The theta-peels at points, in order, on atom multisets; step_filter
    is applied to the start and after every theta-step."""
    image = step_filter(image)
    for rho, t in points:
        image = peel_multisets(peel_multisets(image, rho, t, True), rho, -t, False)
        image = step_filter(image)
    return image


def test_theta_chain_on_multisets_is_the_resolution():
    cases = 0
    for psi in one_label():
        for rule in ("minimal", "staircase"):
            psi_t, points = dominate(psi, rule=rule)
            start = commutative_image(resolve_param(psi_t).expr)
            want = general_image(psi, rule)
            assert theta_chain(start, points) == want, (str(psi), rule)
            assert theta_chain(start, points, elliptic) == elliptic(want), (str(psi), rule)
            cases += 1
    assert cases == 1300


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


def _residual(psi):
    """image(psi) minus the product of its blocks' images."""
    want = product(general_image(Parameter([b]), "minimal") for b in psi.blocks)
    return _sum([*general_image(psi, "minimal").items(), *((k, -c) for k, c in want.items())])


def test_residual_of_the_block_product_is_not_elliptic():
    multi, nonzero = 0, 0
    for psi in one_label():
        if len(psi) < 2:
            continue
        multi += 1
        diff = _residual(psi)
        assert not elliptic(diff), str(psi)
        if not diff:
            continue
        nonzero += 1
        assert sum(diff.values()) == 0, str(psi)
        for key, c in diff.items():
            if theta(key) == key:
                assert c % 2 == 0, str(psi)
            else:
                assert diff.get(theta(key)) == c, str(psi)
    assert (multi, nonzero) == (634, 37)


def test_smallest_residual():
    """{(rho,3,1), (rho,3,3)}: D = X + theta X - 2Y, with
    X = {[0..-2],[1..-1],[1..0],[2..-1]} and Y = {[0..-1],[1..-2],[1..0],[2..-1]}."""
    def multiset(*rows):
        return frozenset((Ladder(R, ((2 * x, 2 * y),)), 1) for x, y in rows)

    X = multiset((0, -2), (1, -1), (1, 0), (2, -1))
    Y = multiset((0, -1), (1, -2), (1, 0), (2, -1))
    assert theta(Y) == Y and theta(X) != X
    psi = Parameter([JordanBlock(R, 3, 1), JordanBlock(R, 3, 3)])
    assert _residual(psi) == {X: 1, theta(X): 1, Y: -2}
