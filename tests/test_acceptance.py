"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a PASS line on success; run with `pytest -s
tests/test_acceptance.py` to see the summary table.
"""

import random
import time

from multiseg import (CuspidalLabel, JordanBlock, Parameter, Quad,
                      beta_closed_form, beta_sign, distinguished_word,
                      eps_char, eval_at_c2, eval_at_z, gl_multisegment,
                      ladder_multisegment, mw_dual, resolve_block,
                      resolve_general, support, tableau_cols, theta_ratio_WU,
                      to_quad, total_size, verify_cancellation, z_sign)
from multiseg.params import from_quad
from multiseg.signs import BETA_CONVENTIONS, _j_le_d
from multiseg.wedges import (check_nilpotent, check_theta_sign,
                             subset_complex_homology)

from conftest import random_multisegment, random_parameter, random_small_parameter

R1 = CuspidalLabel("r1", 1, 1, 1)
R2 = CuspidalLabel("r2", 2, -1, 1)
RHO = CuspidalLabel("rho")


def corpus(seed=20240809, count=1000):
    rng = random.Random(seed)
    return [random_parameter(rng, [R1, R2], max_blocks=5, max_ab=8)
            for _ in range(count)]


def single_block_quads(max_A_twice=8):
    out = []
    for A2 in range(1, max_A_twice + 1):
        for B2 in range(A2 % 2, A2, 2):
            for zeta in (1, -1):
                if B2 == 0 and zeta == -1:
                    continue
                out.append(Quad(RHO, A2, B2, zeta))
    return out


def test_criterion_1_character_evaluations():
    t0 = time.time()
    for psi in corpus():
        for which in ("W", "U", ""):
            sc = eps_char(psi, which)
            assert eval_at_z(sc) == 1
            assert eval_at_c2(sc, psi) == z_sign(psi, which)
    dt = time.time() - t0
    assert dt < 5.0
    print(f"\nCRITERION 1 PASS  character evaluations on 1000 parameters ({dt:.2f}s)")


def test_criterion_2_ratio_consistency():
    t0 = time.time()
    for psi in corpus():
        r = theta_ratio_WU(psi)
        assert r["half_sum"] == r["zW_zU"]
        assert r["a_chain"] == r["zW_zU"]
    dt = time.time() - t0
    assert dt < 5.0
    print(f"CRITERION 2 PASS  half-sum = a-chain = z_W*z_U on the corpus ({dt:.2f}s)")


def test_criterion_3_single_block_trivial_signs():
    for a in range(1, 11):
        for b in range(1, 11):
            psi = Parameter([JordanBlock(R1, a, b)])
            assert z_sign(psi, "W") == 1
            assert z_sign(psi, "U") == 1
    print("CRITERION 3 PASS  single-block parameters have z_W = z_U = +1")


def test_criterion_4_cancellation_suite():
    t0 = time.time()
    for q in single_block_quads():
        report = verify_cancellation(Parameter([from_quad(q)]))
        assert report["all_vanish"], (str(q), report)
    dt = time.time() - t0
    assert dt < 10.0
    print(f"CRITERION 4 PASS  exact vanishing for all single-block quads "
          f"with A <= 4 ({dt:.2f}s)")


def test_criterion_5_two_term_closed_form():
    count = 0
    for q in single_block_quads():
        if q.A != q.B + 2:  # doubled: A = B+1
            continue
        count += 1
        expr = resolve_block(q)
        assert sorted(expr.terms.values()) == [-1, 1], str(q)
    assert count > 0
    print(f"CRITERION 5 PASS  A = B+1 expansions have exactly the terms +1, -1 "
          f"({count} quads)")


def test_criterion_6_worked_example():
    psi = Parameter([JordanBlock(RHO, 2, 1), JordanBlock(RHO, 1, 2)])
    from multiseg import dominate
    tilde, peel = dominate(psi)
    assert tilde == Parameter([JordanBlock(RHO, 4, 1), JordanBlock(RHO, 1, 2)])
    assert peel == ((RHO, 3),)  # the point 3/2, doubled
    res = resolve_general(psi)
    assert res.expr.terms.get(distinguished_word(psi)) == 1
    print("CRITERION 6 PASS  worked four-dimensional example: domination, "
          "peel point 3/2, unit coefficient")


def test_criterion_7_domination_rule_independence():
    t0 = time.time()
    rng = random.Random(424242)
    for _ in range(50):
        psi = random_small_parameter(rng, [R1, R2], max_n=12)
        e1 = resolve_general(psi, rule="minimal").expr
        e2 = resolve_general(psi, rule="staircase").expr
        assert e1 == e2, str(psi)
    print(f"CRITERION 7 PASS  two domination rules agree exactly on 50 "
          f"parameters ({time.time() - t0:.2f}s)")


def test_criterion_8_dual_involution():
    t0 = time.time()
    rng = random.Random(88)
    for _ in range(200):
        m = random_multisegment(rng, RHO, max_segments=20)
        d = mw_dual(m)
        assert mw_dual(d) == m
        assert support(d) == support(m)
    for a in range(1, 7):
        for b in range(1, 7):
            q = to_quad(JordanBlock(RHO, a, b))
            assert mw_dual(gl_multisegment((ladder_multisegment(q),))) == tableau_cols(q)
    dt = time.time() - t0
    assert dt < 5.0
    print(f"CRITERION 8 PASS  dual involution on 200 multisegments and the "
          f"rows/columns law for a,b <= 6 ({dt:.2f}s)")


def test_criterion_9_sign_skeleton():
    t0 = time.time()
    import itertools
    for n in range(2, 7):
        assert check_nilpotent(n)
        assert check_theta_sign(n)
    for size in range(1, 6):
        delta = set(range(1, size + 1))
        for dpm_len in range(size + 1):
            for dpm in itertools.combinations(sorted(delta), dpm_len):
                for dm_len in range(len(dpm) + 1):
                    for dm in itertools.combinations(dpm, dm_len):
                        ranks = subset_complex_homology(delta, dm, dpm)
                        nonzero = {j: r for j, r in ranks.items() if r}
                        if set(dm) == set(dpm):
                            assert nonzero == {len(delta) - len(dm): 1}
                        else:
                            assert nonzero == {}
    rng = random.Random(909)
    for _ in range(100):
        size = rng.randint(6, 8)
        delta = set(range(1, size + 1))
        dpm = {x for x in delta if rng.random() < 0.6}
        dm = {x for x in dpm if rng.random() < 0.5}
        ranks = subset_complex_homology(delta, dm, dpm)
        nonzero = {j: r for j, r in ranks.items() if r}
        if dm == dpm:
            assert nonzero == {len(delta) - len(dm): 1}
        else:
            assert nonzero == {}
    dt = time.time() - t0
    assert dt < 30.0
    print(f"CRITERION 9 PASS  nilpotency, reversal signs, and homology "
          f"dichotomy ({dt:.2f}s)")


def _elementary_corpus():
    from itertools import combinations_with_replacement, product
    shapes = []
    for sup in range(1, 7):
        shapes.append((sup, 1))
        if sup > 1:
            shapes.append((1, sup))
    out = []
    for k in (1, 2, 3):
        for combo in combinations_with_replacement(product([R1, R2], shapes), k):
            psi = Parameter([JordanBlock(rho, a, b) for rho, (a, b) in combo])
            from multiseg import is_elementary
            if is_elementary(psi):
                out.append(psi)
    return out


def test_criterion_10_beta_reconciliation_report():
    params = _elementary_corpus()
    stats = {conv: {"total": 0, "mismatch": 0, "partial_mismatch": 0}
             for conv in BETA_CONVENTIONS}
    for psi in params:
        for d in range(1, 8):
            want = beta_sign(psi, R1, d)
            partial = len(_j_le_d(psi, R1, d)) != len(psi.blocks)
            for conv in BETA_CONVENTIONS:
                s = stats[conv]
                s["total"] += 1
                if beta_closed_form(psi, R1, d, conv) != want:
                    s["mismatch"] += 1
                    if partial:
                        s["partial_mismatch"] += 1
    print("CRITERION 10 REPORT  closed-form reconciliation over "
          f"{len(params)} elementary parameters, d = 1..7:")
    for conv in BETA_CONVENTIONS:
        s = stats[conv]
        print(f"    {conv:<22} mismatches {s['mismatch']:>5} / {s['total']}"
              f"  (outside the all-blocks case: {s['partial_mismatch']})")
    exact = [c for c, s in stats.items() if s["mismatch"] == 0]
    best = min(stats, key=lambda c: stats[c]["mismatch"])
    assert stats[best]["partial_mismatch"] == 0, (
        "expected some convention to cover every partial case")
    print(f"    no convention matches everywhere: {not exact}; "
          f"closest is {best}, exact on all parameters with a block outside "
          "the flip range")


def test_criterion_11_degree_conservation():
    for q in single_block_quads():
        n = from_quad(q).size
        for w in resolve_block(q).terms:
            assert total_size(w) == n
    rng = random.Random(424242)
    for _ in range(50):
        psi = random_small_parameter(rng, [R1, R2], max_n=12)
        for rule in ("minimal", "staircase"):
            res = resolve_general(psi, rule=rule)
            assert all(total_size(w) == psi.n for w in res.expr.terms), str(psi)
    psi = Parameter([JordanBlock(RHO, 2, 1), JordanBlock(RHO, 1, 2)])
    res = resolve_general(psi)
    assert all(total_size(w) == 4 for w in res.expr.terms)
    print("CRITERION 11 PASS  every resolution term has the full degree")
