import contextlib
import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multiseg.signs
from multiseg import (CuspidalLabel, IdentityError, JordanBlock, Parameter,
                      a_sign, beta_closed_form, beta_sign, eps_char,
                      eval_at_c2, eval_at_z, imp_variants, j_psi,
                      r_ratio_sign, theta_ratio_WU, z_sets, z_sign)
from multiseg.cli import main
from multiseg.params import to_quad
from multiseg.signs import BETA_CONVENTIONS, _gate

from conftest import random_parameter

R = CuspidalLabel("rho")
S = CuspidalLabel("sig")


def P(*abs_, rho=R):
    return Parameter([JordanBlock(rho, a, b) for a, b in abs_])


# Reference walks over every ordered pair of block instances, one at a time;
# the sign layer counts pairs of distinct blocks instead and must agree.

def _reference_z_sets(psi):
    blocks = psi.blocks
    Z, ZW, ZU = [], [], []
    for i, b1 in enumerate(blocks):
        for j, b2 in enumerate(blocks):
            if i == j or b1.rho != b2.rho or not _gate(b1, b2):
                continue
            q1, q2 = to_quad(b1), to_quad(b2)
            s = q1.B * q1.zeta + q2.B * q2.zeta
            if s < 0:
                which = "W"
            elif s > 0:
                which = "U"
            elif q1.B == 0 and q2.B == 0:
                which = "U"
            else:
                which = "W" if (q1.A - q2.A) * q1.zeta < 0 else "U"
            Z.append((i, j))
            (ZW if which == "W" else ZU).append((i, j))
    return tuple(Z), tuple(ZW), tuple(ZU)


def _reference_a_sign(psi):
    blocks = psi.blocks
    total = 0
    for i, b1 in enumerate(blocks):
        for j, b2 in enumerate(blocks):
            if j <= i or b1.rho != b2.rho:
                continue
            total += min(b1.a, b2.a) * min(b1.b, b2.b)
    return 1 if total % 2 == 0 else -1


def _reference_half_sum(psi):
    blocks = psi.blocks
    twice = 0
    for i, b1 in enumerate(blocks):
        for j, b2 in enumerate(blocks):
            if i == j or b1.rho != b2.rho:
                continue
            twice += (
                min(b1.a, b2.a) * (1 + max(b1.a, b2.a))
                * min(b1.b, b2.b) * (1 + max(b1.b, b2.b))
            )
    assert twice % 2 == 0
    return 1 if (twice // 2) % 2 == 0 else -1


def _sign_of_half(pairs):
    return 1 if (len(pairs) // 2) % 2 == 0 else -1


def _character(psi, pairs):
    counts = [0] * len(psi.blocks)
    for i, _ in pairs:
        counts[i] += 1
    return tuple(1 if c % 2 == 0 else -1 for c in counts)


# 2 labels, at most 4 distinct blocks, each repeated 1-6 times
_CLASSES = st.lists(
    st.tuples(st.sampled_from([R, S]), st.integers(1, 6), st.integers(1, 6),
              st.integers(1, 6)),
    min_size=1, max_size=4, unique_by=lambda t: t[:3])


class TestCountedAgainstInstanceWalk:
    @settings(max_examples=300, deadline=None)
    @given(_CLASSES)
    def test_matches_reference(self, classes):
        psi = Parameter(JordanBlock(rho, a, b)
                        for rho, a, b, m in classes for _ in range(m))
        ref = _reference_z_sets(psi)
        assert z_sets(psi) == ref
        for which, pairs in zip(("", "W", "U"), ref):
            assert z_sign(psi, which) == _sign_of_half(pairs)
            assert eps_char(psi, which) == _character(psi, pairs)
        assert a_sign(psi) == _reference_a_sign(psi)
        r = theta_ratio_WU(psi)
        assert r["half_sum"] == _reference_half_sum(psi)
        assert r["a_chain"] == _reference_a_sign(psi) * math.prod(
            _reference_a_sign(v) for v in imp_variants(psi))
        assert r["zW_zU"] == _sign_of_half(ref[1]) * _sign_of_half(ref[2])


class TestPinnedRules:
    """Rules of the current code that the golden cases do not reach.  Each
    comes from this implementation, not from the paper."""

    def test_zero_sum_with_nonzero_bases_splits_by_A(self):
        """s = 0 with B = B' != 0: the pair goes to Z_W when (A - A')*zeta < 0
        (the current code's tie-break).  (rho,3,1) has (A,B,zeta) = (1,1,+)
        and (rho,4,6) has (4,1,-), so s = 0 and both orders land in Z_W;
        reading s = 0 as s > 0 would put them in Z_U."""
        Z, ZW, ZU = z_sets(P((3, 1), (4, 6)))
        assert ZW == Z == ((0, 1), (1, 0)) and ZU == ()

    def test_both_bases_zero_go_to_U(self):
        """s = 0 with B = B' = 0: the pair goes to Z_U (the current code's
        choice; zeta is normalized to + at B = 0)."""
        Z, ZW, ZU = z_sets(P((1, 1), (2, 2)))
        assert ZU == Z == ((0, 1), (1, 0)) and ZW == ()

    def test_a_sign_counts_distinct_instances_only(self):
        """a_sign's exponent runs over unordered pairs of distinct instances
        (the current code's convention): one (rho,3,1) has no pair, so the
        sign is +1; counting i = j would add ab = 3."""
        assert a_sign(P((3, 1))) == 1

    def test_eval_at_c2_reads_the_even_b_blocks(self):
        """eval_at_c2 multiplies the character over blocks with b even (the
        current code's reading of the second-factor involution)."""
        assert eval_at_c2((1, -1), P((1, 1), (1, 2))) == -1

    def test_r_ratio_sign_needs_one_label(self):
        """r_ratio_sign is +1 across labels, even when both minima are odd,
        and (-1)^(min(a)min(b)) on one label (the current code's rule)."""
        assert r_ratio_sign(JordanBlock(R, 1, 1), JordanBlock(S, 1, 1)) == 1
        assert r_ratio_sign(JordanBlock(R, 3, 3), JordanBlock(R, 3, 1)) == -1
        assert r_ratio_sign(JordanBlock(R, 2, 2), JordanBlock(R, 2, 3)) == 1

    def test_beta_closed_form_rounding(self):
        """beta_closed_form's rounding of ab/2 per block (a convention of the
        current code, kept for reconciliation): on (rho,2,1) with d = 2, the
        floor gives (2-1)//2 = 0 and the ceil 2//2 = 1."""
        psi = P((2, 1))
        assert beta_closed_form(psi, R, 2, "floor+pair-never") == 1
        assert beta_closed_form(psi, R, 2, "ceil+pair-never") == -1
        # odd ab: (3-1)//2 = 1
        assert beta_closed_form(P((3, 1)), R, 3, "floor+pair-never") == -1

    def test_beta_closed_form_pair_terms(self):
        """beta_closed_form's pair term t(t-1)/2 over the t blocks of J_{<=d}:
        always, only for odd d, or never (conventions of the current code).
        On {(rho,2,1),(rho,1,4)} with d = 4 the blocks give 0 + 1 and t = 2;
        on (rho,1,2) with d = 2 the ceil gives 1 and t = 1."""
        psi = P((2, 1), (1, 4))
        assert beta_closed_form(psi, R, 4, "floor+pair-always") == 1
        assert beta_closed_form(psi, R, 4, "floor+pair-odd-d") == -1
        assert beta_closed_form(psi, R, 4, "floor+pair-never") == -1
        assert beta_closed_form(P((1, 2)), R, 2, "ceil+pair-always") == -1

    def test_beta_sign_is_floor_of_half_j(self):
        """beta_sign is (-1)^floor(j/2) (the exported form in the current
        code): one (rho,1,5) with d = 5 has j = 4, one (rho,1,7) with d = 7
        has j = 6."""
        assert beta_sign(P((1, 5)), R, 5) == 1
        assert beta_sign(P((1, 7)), R, 7) == -1


def test_signs_on_many_copies_gates_once_per_pair_set(tmp_path, monkeypatch):
    """`signs` on 1000 copies of one block tests the parity gate once per
    z_sets call (9 per command), not once per ordered instance pair
    (8 991 000), and still prints one row per block instance."""
    path = tmp_path / "many.txt"
    path.write_text("cuspidal rho\nblock rho 2 1 x1000\n", encoding="utf-8")
    calls = []

    def counted(b1, b2):
        calls.append(None)
        return _gate(b1, b2)

    monkeypatch.setattr(multiseg.signs, "_gate", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["signs", str(path)]) == 0
    assert len(calls) <= 9
    rows = [line for line in out.getvalue().splitlines()
            if line.startswith("(rho,2,1)")]
    assert len(rows) == 1000


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
