"""The domination identity on untwisted Grothendieck classes.

Induction in the Grothendieck group of all GL_n is commutative (Zelevinsky,
Ann. Sci. ENS 1980), and there the class of a block with quad (A, B, zeta)
is Tadić's determinantal sum over S_k, k = A - B + 1 (Tadić 1995;
Lapid–Mínguez, Amer. J. Math. 2014): with rows indexed 0..k-1 from the
bottom, w in S_k contributes sgn(w) times the product of the segments

  row i = [zeta(B+i) .. -zeta(A-w(i))],  of length A + B + 1 + i - w(i).

A negative length kills the term, and an empty row drops out of it.  The
class of psi is the product of its block classes.  Then dominate(psi) =
(psi~, E) must satisfy

  Jac^theta_E(class psi~) == class psi

in the commutative ring, which is what this module checks.  The identity
is not asserted word by word: the word-level images depend on the factor
order of the induced product.  Of the 1080 one-label parameters with
2-3 blocks, a, b <= 6, n <= 20 and a nonempty "minimal" peel list, 163
differ there, so both sides are compared by commutative_image.

The only library calls besides the ones under test (dominate and
jac_theta_seq) are Ladder, canonical_word, the GrothExpr constructor,
induce and commutative_image: block data is read from (a, b) directly,
and nothing here calls the resolver.
"""

from itertools import combinations_with_replacement, permutations

import pytest

from multiseg import CuspidalLabel, GrothExpr, JordanBlock, Ladder, Parameter, induce
from multiseg.groth import canonical_word, commutative_image, jac_theta_seq
from multiseg.params import dominate

R = CuspidalLabel("rho")
S = CuspidalLabel("sig")


def _sign(w):
    return (-1) ** sum(w[i] > w[j] for i in range(len(w)) for j in range(i + 1, len(w)))


def block_class(block: JordanBlock) -> GrothExpr:
    """Tadić's determinantal sum of one block, in doubled coordinates."""
    a, b, rho = block.a, block.b, block.rho
    A2, B2, zeta = a + b - 2, abs(a - b), 1 if a >= b else -1
    k = (A2 - B2) // 2 + 1
    pairs = []
    for w in permutations(range(k)):
        rows = [(zeta * (B2 + 2 * i), -zeta * (A2 - 2 * w[i])) for i in range(k)]
        lengths = [(s - e) * zeta // 2 + 1 for s, e in rows]
        if min(lengths) < 0:
            continue
        word = tuple(Ladder(rho, (row,)) for row, n in zip(rows, lengths) if n)
        pairs.append((canonical_word(word), _sign(w)))
    return GrothExpr(pairs)


def param_class(psi: Parameter) -> GrothExpr:
    return induce([block_class(b) for b in psi.blocks])


def holds(psi: Parameter, rule: str) -> bool:
    psi_t, peel = dominate(psi, rule=rule)
    got = commutative_image(jac_theta_seq(peel, param_class(psi_t)))
    return got == commutative_image(param_class(psi))


def parameters(labels, max_n, max_blocks=3):
    """Every parameter of 2..max_blocks blocks over labels with n <= max_n."""
    shapes = [(rho, a, b) for rho in labels for a in range(1, max_n + 1)
              for b in range(1, max_n // a + 1)]
    for k in range(2, max_blocks + 1):
        for blocks in combinations_with_replacement(shapes, k):
            if sum(a * b * rho.d for rho, a, b in blocks) <= max_n:
                yield Parameter(JordanBlock(*bl) for bl in blocks)


@pytest.mark.parametrize("labels, max_n, rule, count", [
    ((R,), 14, "minimal", 457),
    ((R, S), 10, "minimal", 532),
    ((R,), 12, "staircase", 554),
    ((R, S), 7, "staircase", 393),
], ids=["minimal-1label", "minimal-2labels", "staircase-1label", "staircase-2labels"])
def test_scan(labels, max_n, rule, count):
    """Every parameter with 2-3 blocks, n <= max_n and a nonempty peel list."""
    failed, tried = [], 0
    for psi in parameters(labels, max_n):
        if dominate(psi, rule=rule)[1]:
            tried += 1
            if not holds(psi, rule):
                failed.append(str(psi))
    assert (tried, failed) == (count, [])


@pytest.mark.parametrize("psi", [
    Parameter([JordanBlock(R, 3, 1), JordanBlock(R, 3, 3)]),
    Parameter([JordanBlock(R, 3, 3)] * 2 + [JordanBlock(R, 2, 2)]),
], ids=str)
@pytest.mark.parametrize("rule", ["minimal", "staircase"])
def test_named_parameters(psi, rule):
    assert holds(psi, rule)


def test_a_short_peel_list_breaks_it():
    psi = Parameter([JordanBlock(R, 3, 1), JordanBlock(R, 3, 3)])
    psi_t, peel = dominate(psi)
    got = commutative_image(jac_theta_seq(peel[:-1], param_class(psi_t)))
    assert got != commutative_image(param_class(psi))


def test_elementary_block_is_its_tableau():
    # k = 1: the one row [zeta B .. -zeta A]
    assert block_class(JordanBlock(R, 1, 4)) == GrothExpr([((Ladder(R, ((-3, 3),)),), 1)])
    assert block_class(JordanBlock(R, 4, 1)) == GrothExpr([((Ladder(R, ((3, -3),)),), 1)])
