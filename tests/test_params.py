import random
from itertools import combinations_with_replacement

import pytest

from multiseg import (CuspidalLabel, JordanBlock, Parameter, Quad,
                      block_order_cmp, diag_restriction, dominate, from_quad,
                      imp_variants, in_Psi_H, is_discrete,
                      is_discrete_diagonal, is_elementary, psi_sharp,
                      reducibility_point, to_quad)

from multiseg.core import _half_str, _twice
from multiseg.params import _disjoint, _quad_sort_key

from conftest import random_parameter

R = CuspidalLabel("rho")
S = CuspidalLabel("sig")
ONE_GL1 = CuspidalLabel("one", 1, 1, 1)
ONE_GL1B = CuspidalLabel("oneb", 1, 1, 1)


def hi(text):
    """The point written as text or an int, doubled."""
    return _twice(str(text))


class TestQuadCoding:
    def test_examples(self):
        assert to_quad(JordanBlock(R, 3, 1)) == Quad(R, hi(1), hi(1), 1)
        assert to_quad(JordanBlock(R, 4, 1)) == Quad(R, hi("3/2"), hi("3/2"), 1)
        assert to_quad(JordanBlock(R, 1, 4)) == Quad(R, hi("3/2"), hi("3/2"), -1)

    def test_b_zero_normalized(self):
        assert Quad(R, hi(2), hi(0), -1).zeta == 1
        assert to_quad(JordanBlock(R, 3, 3)).zeta == 1

    def test_round_trip(self):
        for a in range(1, 7):
            for b in range(1, 7):
                bl = JordanBlock(R, a, b)
                assert from_quad(to_quad(bl)) == bl

    def test_from_quad_rejects_A_below_B(self):
        with pytest.raises(ValueError):
            Quad(R, hi(0), hi(1), 1)


class TestDiagRestriction:
    def test_clebsch_gordan(self):
        assert diag_restriction(Parameter([JordanBlock(R, 2, 2)])) == Parameter(
            [JordanBlock(R, 1, 1), JordanBlock(R, 3, 1)])

    def test_fixed_point(self):
        psi = Parameter([JordanBlock(R, 3, 1)])
        assert diag_restriction(psi) == psi

    def test_multiplicity(self):
        psi = Parameter([JordanBlock(R, 2, 1), JordanBlock(R, 1, 2)])
        assert diag_restriction(psi) == Parameter(
            [JordanBlock(R, 2, 1), JordanBlock(R, 2, 1)])

    def test_preserves_n(self):
        rng = random.Random(5)
        for _ in range(50):
            psi = random_parameter(rng, [R, S])
            assert diag_restriction(psi).n == psi.n

    def test_diagonal_predicate_via_restriction(self):
        rng = random.Random(6)
        for _ in range(80):
            psi = random_parameter(rng, [R, S], max_blocks=3, max_ab=4)
            assert is_discrete_diagonal(psi) == is_discrete(diag_restriction(psi))


class TestPredicates:
    def test_examples(self):
        assert not is_discrete_diagonal(
            Parameter([JordanBlock(R, 2, 1), JordanBlock(R, 1, 2)]))
        assert is_discrete_diagonal(
            Parameter([JordanBlock(R, 2, 1), JordanBlock(R, 4, 1)]))
        assert is_elementary(Parameter([JordanBlock(R, 3, 1)]))
        assert not is_elementary(Parameter([JordanBlock(R, 2, 2)]))
        assert not is_elementary(
            Parameter([JordanBlock(R, 3, 1), JordanBlock(R, 3, 1)]))

    def test_equal_blocks_fail_diagonal(self):
        assert not is_discrete_diagonal(
            Parameter([JordanBlock(R, 2, 1), JordanBlock(R, 2, 1)]))

    def test_different_labels_never_clash(self):
        assert is_discrete_diagonal(
            Parameter([JordanBlock(R, 2, 1), JordanBlock(S, 1, 2)]))


class TestBlockOrder:
    def test_zeta_tiebreak(self):
        qp = Quad(R, hi("1/2"), hi("1/2"), 1)
        qm = Quad(R, hi("1/2"), hi("1/2"), -1)
        assert block_order_cmp(qp, qm) == 1

    def test_A_wins(self):
        assert block_order_cmp(Quad(R, hi(2), hi(0), 1), Quad(R, hi(1), hi(1), 1)) == 1

    def test_B_wins(self):
        assert block_order_cmp(Quad(R, hi(1), hi(1), 1), Quad(R, hi(1), hi(0), 1)) == 1

    def test_incomparable(self):
        with pytest.raises(ValueError):
            block_order_cmp(Quad(R, hi(1), hi(1), 1), Quad(S, hi(1), hi(1), 1))
        with pytest.raises(ValueError):
            block_order_cmp(Quad(R, hi(1), hi(1), 1), Quad(R, hi("1/2"), hi("1/2"), 1))


def _cascade_cmp(q, qp):
    """block_order_cmp written out field by field: A, then B, then zeta=+
    when B > 0."""
    for x, y in ((q.A, qp.A), (q.B, qp.B)):
        if x != y:
            return 1 if x > y else -1
    if q.B > hi(0) and q.zeta != qp.zeta:
        return 1 if q.zeta == 1 else -1
    return 0


class TestBlockOrderOracle:
    def test_matches_cascade(self):
        for half in (0, 1):
            quads = [Quad(R, A2, B2, z)
                     for A2 in range(half, 7, 2) for B2 in range(half, A2 + 1, 2)
                     for z in (1, -1)]
            for q in quads:
                for qp in quads:
                    assert block_order_cmp(q, qp) == _cascade_cmp(q, qp), (q, qp)


class TestDominate:
    def test_worked_example(self):
        psi = Parameter([JordanBlock(R, 2, 1), JordanBlock(R, 1, 2)])
        tilde, peel = dominate(psi)
        assert tilde == Parameter([JordanBlock(R, 4, 1), JordanBlock(R, 1, 2)])
        assert peel == ((R, hi("3/2")),)

    def test_already_discrete(self):
        psi = Parameter([JordanBlock(R, 3, 1)])
        assert dominate(psi) == (psi, ())

    def test_shifted_integer_example(self):
        psi = Parameter([JordanBlock(R, 3, 1), JordanBlock(R, 3, 3)])
        tilde, peel = dominate(psi)
        assert tilde == Parameter([JordanBlock(R, 3, 1), JordanBlock(R, 7, 3)])
        assert [_half_str(t) for _, t in peel] == ["2", "3", "4", "1", "2", "3"]

    def _check_domination(self, psi, rule):
        tilde, peel = dominate(psi, rule)
        assert is_discrete_diagonal(tilde)
        old = sorted(psi.quads(), key=lambda q: (q.rho.name, q.B % 2, q.A, q.B, q.zeta))
        new = sorted(tilde.quads(), key=lambda q: (q.rho.name, q.B % 2, q.A, q.B, q.zeta))
        expected = 0
        for qo, qn in zip(old, new):
            assert qo.zeta == qn.zeta or qo.B == 0
            assert qo.A - qo.B == qn.A - qn.B
            assert qn.B >= qo.B
            expected += ((qn.B - qo.B) // 2) * ((qo.A - qo.B) // 2 + 1)
        assert len(peel) == expected
        assert dominate(tilde) == (tilde, ())

    def test_random_properties(self):
        rng = random.Random(11)
        for _ in range(100):
            psi = random_parameter(rng, [R, S], max_blocks=4, max_ab=6)
            self._check_domination(psi, "minimal")
            self._check_domination(psi, "staircase")


class TestPsiSharp:
    def test_examples(self):
        psi = Parameter([JordanBlock(R, 3, 1), JordanBlock(S, 1, 2)])
        assert psi_sharp(psi, R, 3) == Parameter(
            [JordanBlock(R, 1, 3), JordanBlock(S, 1, 2)])
        psi = Parameter([JordanBlock(R, 1, 2)])
        assert psi_sharp(psi, R, 3) == psi  # parity mismatch
        psi = Parameter([JordanBlock(R, 1, 1), JordanBlock(R, 3, 1)])
        assert psi_sharp(psi, R, 3) == Parameter(
            [JordanBlock(R, 1, 1), JordanBlock(R, 1, 3)])

    def test_involution(self):
        rng = random.Random(17)
        count = 0
        while count < 40:
            blocks = []
            for _ in range(rng.randint(1, 4)):
                lab = rng.choice([R, S])
                sup = rng.randint(1, 6)
                blocks.append(JordanBlock(lab, sup, 1) if rng.random() < 0.5
                              else JordanBlock(lab, 1, sup))
            psi = Parameter(blocks)
            if not is_elementary(psi):
                continue
            count += 1
            d = rng.randint(1, 7)
            assert psi_sharp(psi_sharp(psi, R, d), R, d) == psi

    def test_rejects_non_elementary(self):
        with pytest.raises(ValueError):
            psi_sharp(Parameter([JordanBlock(R, 2, 2)]), R, 2)


class TestImpVariants:
    def test_parity_filter(self):
        psi = Parameter([JordanBlock(R, 2, 1), JordanBlock(R, 1, 2)])
        psi2, psi1, psi_ii = imp_variants(psi)
        assert psi2 == Parameter([JordanBlock(R, 2, 1)])
        assert psi1 == Parameter([JordanBlock(R, 1, 2)])
        assert psi_ii == Parameter()

    def test_all_odd(self):
        psi = Parameter([JordanBlock(R, 3, 1)])
        psi2, psi1, psi_ii = imp_variants(psi)
        assert psi2 == Parameter([JordanBlock(R, 3, 1)])
        assert psi1 == Parameter([JordanBlock(R, 1, 1)])
        assert psi_ii == Parameter([JordanBlock(R, 1, 1)])

    def test_empty(self):
        assert imp_variants(Parameter()) == (Parameter(), Parameter(), Parameter())

    def test_multiplicities_preserved(self):
        psi = Parameter([JordanBlock(R, 3, 1)] * 3)
        psi2, _, _ = imp_variants(psi)
        assert len(psi2) == 3


class TestPsiH:
    def test_examples(self):
        assert in_Psi_H(Parameter([JordanBlock(ONE_GL1, 3, 1)]))
        assert in_Psi_H(Parameter([JordanBlock(ONE_GL1, 2, 1)]))
        assert not in_Psi_H(
            Parameter([JordanBlock(ONE_GL1, 1, 1), JordanBlock(ONE_GL1B, 1, 1)]))

    def test_chi_condition(self):
        neg = CuspidalLabel("neg", 1, 1, -1)
        # single block (1,1): eta condition holds for n=1; chi^(1*1) = -1 fails
        assert not in_Psi_H(Parameter([JordanBlock(neg, 1, 1)]))

    def test_unknown_eta_errors(self):
        unk = CuspidalLabel("unk", 1, None, 1)
        with pytest.raises(ValueError, match="parity unknown"):
            in_Psi_H(Parameter([JordanBlock(unk, 1, 1)]))


class TestReducibilityPoint:
    def test_a_max_case(self):
        phi = Parameter([JordanBlock(ONE_GL1, 3, 1), JordanBlock(ONE_GL1, 1, 1)])
        assert reducibility_point(phi, ONE_GL1) == hi(2)

    def test_empty_jord_half(self):
        eta_minus = CuspidalLabel("em", 1, -1, 1)
        phi = Parameter([JordanBlock(ONE_GL1, 2, 1)])  # n = 2, (-1)^(n+1) = -1
        assert reducibility_point(phi, eta_minus) == hi("1/2")

    def test_uncovered_case(self):
        eta_plus = CuspidalLabel("ep", 1, 1, 1)
        phi = Parameter([JordanBlock(ONE_GL1, 2, 1)])  # n = 2, eta has wrong parity
        with pytest.raises(ValueError, match="not covered"):
            reducibility_point(phi, eta_plus)

    def test_precondition(self):
        with pytest.raises(ValueError):
            reducibility_point(Parameter([JordanBlock(ONE_GL1, 2, 2)]), ONE_GL1)


def _reference_dominate(psi, rule="minimal"):
    """dominate with the coset correction written out on both shifts; kept
    as the reference for the shifts without it."""
    if rule not in ("minimal", "staircase"):
        raise ValueError(f"unknown domination rule {rule!r}")
    new_blocks = []
    peel = []
    by_rho = {}
    for q in psi.quads():
        by_rho.setdefault(q.rho.key, []).append(q)
    for key in sorted(by_rho):
        quads = sorted(by_rho[key], key=_quad_sort_key)
        used = {0: [], 1: []}
        for q in quads:
            fam = q.B % 2
            width = q.A - q.B
            cand = q.B
            if rule == "staircase":
                top = max((e for _, e in used[fam]), default=q.B - 2)
                cand = max(cand, top + 8 - (top + 8 - q.B) % 2)
            if any(not _disjoint((cand, cand + width), iv) for iv in used[fam]):
                top = max(e for _, e in used[fam])
                cand = top + 2 - (top + 2 - q.B) % 2
            used[fam].append((cand, cand + width))
            new_blocks.append(from_quad(Quad(q.rho, cand + width, cand, q.zeta)))
            for d in range(cand, q.B, -2):
                for k in range(0, width + 1, 2):
                    peel.append((q.rho, (d + k) * q.zeta))
    return Parameter(new_blocks), tuple(peel)


def _reference_psi_sharp(psi, rho, d):
    """psi_sharp with the J_{<=d} predicate written inline."""
    if not is_elementary(psi):
        raise ValueError("psi_sharp is defined for elementary parameters")
    out = []
    for b in psi:
        if b.rho == rho and max(b.a, b.b) <= d and (max(b.a, b.b) - d) % 2 == 0:
            out.append(JordanBlock(b.rho, b.b, b.a))
        else:
            out.append(b)
    return Parameter(out)


def _oracle_corpus():
    """1-3 blocks on one label and 1-2 blocks on two labels, 1 <= a, b <= 4."""
    one = [(R, a, b) for a in range(1, 5) for b in range(1, 5)]
    two = one + [(S, a, b) for a in range(1, 5) for b in range(1, 5)]
    for shapes, sizes in ((one, (1, 2, 3)), (two, (1, 2))):
        for k in sizes:
            for blocks in combinations_with_replacement(shapes, k):
                yield Parameter(JordanBlock(*blk) for blk in blocks)


class TestDominationOracle:
    def test_dominate_matches_reference(self):
        seen = 0
        for psi in _oracle_corpus():
            for rule in ("minimal", "staircase"):
                assert dominate(psi, rule) == _reference_dominate(psi, rule), (str(psi), rule)
            seen += 1
        assert seen == 968 + 560

    def test_psi_sharp_matches_reference(self):
        seen = 0
        for psi in _oracle_corpus():
            if not is_elementary(psi):
                continue
            for rho in (R, S):
                for d in range(1, 8):
                    assert psi_sharp(psi, rho, d) == _reference_psi_sharp(psi, rho, d), \
                        (str(psi), rho.name, d)
            seen += 1
        assert seen == 168
