import random

import pytest

from multiseg import (CuspidalLabel, IdentityError, JordanBlock, Parameter,
                      a_sign, beta_closed_form, beta_sign, eps_char,
                      eval_at_c2, eval_at_z, j_psi, r_ratio_sign,
                      theta_ratio_WU, z_sets, z_sign)
from multiseg.signs import BETA_CONVENTIONS

from conftest import random_parameter

R = CuspidalLabel("rho")
S = CuspidalLabel("sig")


def P(*abs_, rho=R):
    return Parameter([JordanBlock(rho, a, b) for a, b in abs_])


class TestZSets:
    @pytest.mark.parametrize("fn", [z_sign, eps_char])
    def test_unknown_pair_set_is_a_value_error(self, fn):
        with pytest.raises(ValueError, match="'W', 'U' or ''"):
            fn(P((2, 1), (1, 2)), "X")

    def test_guide_example(self):
        Z, ZW, ZU = z_sets(P((2, 1), (1, 2)))
        assert (len(Z), len(ZW), len(ZU)) == (2, 0, 2)

    def test_single_block_empty(self):
        Z, ZW, ZU = z_sets(P((4, 3)))
        assert Z == ZW == ZU == ()

    def test_negative_base_sum(self):
        Z, ZW, ZU = z_sets(P((2, 1), (1, 4)))
        assert (len(ZW), len(ZU)) == (2, 0)

    def test_gate_excludes_equal_blocks(self):
        Z, _, _ = z_sets(P((2, 1), (2, 1)))
        assert Z == ()

    def test_multiplicities_count(self):
        Z, _, ZU = z_sets(P((2, 1), (2, 1), (1, 2)))
        assert len(Z) == len(ZU) == 4

    def test_mirror_symmetry(self):
        rng = random.Random(2)
        for _ in range(150):
            psi = random_parameter(rng, [R, S])
            Z, ZW, ZU = z_sets(psi)
            for chunk in (Z, ZW, ZU):
                pairs = set(chunk)
                assert {(j, i) for i, j in pairs} == pairs
                assert len(chunk) % 2 == 0

    def test_exactly_one_even_b_per_pair(self):
        rng = random.Random(3)
        for _ in range(100):
            psi = random_parameter(rng, [R, S])
            Z, ZW, ZU = z_sets(psi)
            for chunk in (ZW, ZU):
                firsts_even = [
                    (i, j) for i, j in chunk if psi.blocks[i].b % 2 == 0
                ]
                assert 2 * len(firsts_even) == len(chunk)
            for i, j in Z:
                bs = (psi.blocks[i].b, psi.blocks[j].b)
                assert sorted(x % 2 for x in bs) == [0, 1]


class TestZSign:
    def test_guide_example(self):
        psi = P((2, 1), (1, 2))
        assert z_sign(psi, "U") == -1
        assert z_sign(psi, "W") == 1

    def test_single_block(self):
        for a in range(1, 6):
            for b in range(1, 6):
                psi = P((a, b))
                assert z_sign(psi, "W") == z_sign(psi, "U") == 1

    def test_W_example(self):
        psi = P((2, 1), (1, 4))
        assert z_sign(psi, "W") == -1
        assert z_sign(psi, "U") == 1

    def test_odd_pair_set_raises(self, monkeypatch):
        # a raise, not an assert, so that `python -O` keeps the check
        import multiseg.signs
        monkeypatch.setattr(multiseg.signs, "z_sets", lambda psi: ((), (), (None,)))
        with pytest.raises(IdentityError, match="Z_U has odd cardinality"):
            z_sign(P((2, 1), (1, 2)), "U")

    def test_empty_set_is_product(self):
        rng = random.Random(4)
        for _ in range(100):
            psi = random_parameter(rng, [R, S])
            assert z_sign(psi, "") == z_sign(psi, "W") * z_sign(psi, "U")


class TestEpsChar:
    def test_guide_example(self):
        psi = P((2, 1), (1, 2))
        sc = eps_char(psi, "U")
        assert sc == (-1, -1)
        assert eval_at_z(sc) == 1
        assert eval_at_c2(sc, psi) == -1 == z_sign(psi, "U")

    def test_single_block_trivial(self):
        sc = eps_char(P((3, 2)), "W")
        assert sc == (1,)

    def test_theorem_on_random_parameters(self):
        rng = random.Random(5)
        for _ in range(200):
            psi = random_parameter(rng, [R, S])
            for which in ("W", "U", ""):
                sc = eps_char(psi, which)
                assert eval_at_z(sc) == 1
                assert eval_at_c2(sc, psi) == z_sign(psi, which)


class TestASign:
    def test_examples(self):
        assert a_sign(P((2, 1), (1, 2))) == -1
        assert a_sign(P((3, 2))) == 1
        assert a_sign(Parameter([JordanBlock(R, 2, 1), JordanBlock(S, 1, 2)])) == 1


class TestThetaRatio:
    def test_guide_example(self):
        r = theta_ratio_WU(P((2, 1), (1, 2)))
        assert r["half_sum"] == r["a_chain"] == r["zW_zU"] == -1

    def test_single_block(self):
        r = theta_ratio_WU(P((5, 4)))
        assert r["ratio"] == 1 and r["consistent"]

    def test_mixed_example(self):
        r = theta_ratio_WU(P((2, 1), (1, 4)))
        assert r["half_sum"] == -1 and r["zW_zU"] == -1

    def test_identity_chain_on_random_parameters(self):
        rng = random.Random(7)
        for _ in range(200):
            psi = random_parameter(rng, [R, S])
            r = theta_ratio_WU(psi)
            assert r["half_sum"] == r["zW_zU"] == r["a_chain"], str(psi)


class TestRRatio:
    def test_examples(self):
        assert r_ratio_sign(JordanBlock(R, 2, 1), JordanBlock(R, 1, 2)) == -1
        assert r_ratio_sign(JordanBlock(R, 2, 1), JordanBlock(S, 1, 2)) == 1
        assert r_ratio_sign(JordanBlock(R, 1, 1), JordanBlock(R, 1, 1)) == -1


class TestBeta:
    def test_examples(self):
        assert j_psi(P((1, 3)), R, 3) == (3, 2)
        assert beta_sign(P((1, 3)), R, 3) == -1
        assert j_psi(P((1, 2)), R, 2) == (2, 1)
        assert beta_sign(P((1, 2)), R, 2) == 1
        psi = Parameter([JordanBlock(S, 1, 2)])
        assert j_psi(psi, R, 2) == (0, 0)
        assert beta_sign(psi, R, 2) == 1

    def test_non_elementary_rejected(self):
        with pytest.raises(ValueError):
            beta_sign(P((2, 2)), R, 2)

    def test_closed_form_matches_on_partial_parameters(self):
        # when some block stays outside J_{<=d} the ceil rounding with the
        # odd-d pair term reproduces the floor(j/2) sign
        psi = Parameter([JordanBlock(R, 1, 2), JordanBlock(S, 3, 1)])
        assert beta_closed_form(psi, R, 2, "ceil+pair-odd-d") == beta_sign(psi, R, 2)

    def test_known_full_case_divergence(self):
        # with every block in J_{<=d} the exported sign uses j0 - 1, which no
        # per-block product can see; this pins the documented counterexample
        psi = P((1, 1), (3, 1))
        assert beta_sign(psi, R, 3) == -1
        assert beta_closed_form(psi, R, 3, "floor+pair-odd-d") == 1

    def test_conventions_all_defined(self):
        psi = P((1, 2))
        for conv in BETA_CONVENTIONS:
            assert beta_closed_form(psi, R, 2, conv) in (1, -1)
