import random
from itertools import combinations_with_replacement

import pytest

import multiseg
from multiseg import (CuspidalLabel, GrothExpr, JordanBlock,
                      Ladder, Parameter, Quad, degree_conserved,
                      distinguished_word, induce, is_discrete_diagonal,
                      jac_left, jac_theta, jac_theta_seq, resolve_block,
                      ladder_multisegment, resolve_general, resolve_param,
                      to_quad, total_size, trunc_ladder, verify_cancellation)
from multiseg import cli, groth, parse_parameter_file, resolve
from multiseg.core import _half_str, _twice
from multiseg.groth import commutative_image
from multiseg.params import _quad_sort_key, dominate, from_quad

import conftest
from conftest import (iterated_jac_theta, random_small_parameter, reference_jac,
                      reference_jac_theta, signed_sum)

R = CuspidalLabel("rho")
S = CuspidalLabel("sig")
D2 = CuspidalLabel("tau", 2)


def hi(x):
    """The point x, written as text or an int, doubled."""
    return _twice(str(x))


def atom(s, e, rho=R):
    return Ladder(rho, ((hi(s), hi(e)),))


def row(s2, e2):
    """The segment [s2/2..e2/2] over R, from doubled bounds."""
    return Ladder(R, ((s2, e2),))


def all_quads(max_A2: int):
    for A2 in range(1, max_A2 + 1):
        for B2 in range(A2 % 2, A2, 2):
            for zeta in (1, -1):
                if B2 == 0 and zeta == -1:
                    continue
                yield Quad(R, A2, B2, zeta)


class TestResolveBlock:
    def test_closed_form_A_eq_B_plus_one(self):
        for q in all_quads(8):
            if q.A != q.B + 2:
                continue
            e = resolve_block(q)
            assert sorted(e.terms.values()) == [-1, 1], str(q)
            z, B = q.zeta, q.B
            plus = (row(B * z, -(B + 2) * z), row((B + 2) * z, -B * z))
            assert e.terms.get(tuple(plus)) == 1

    def test_instance_1_0(self):
        e = resolve_block(Quad(R, hi(1), hi(0), 1))
        assert e == signed_sum((1, atom(0, -1), atom(1, 0)), (-1, atom(1, -1), atom(0, 0)))

    def test_degree_conservation(self):
        for q in all_quads(8):
            n = from_quad(q).size
            for w in resolve_block(q).terms:
                assert total_size(w) == n, str(q)

    def test_requires_A_above_B(self):
        with pytest.raises(ValueError):
            resolve_block(Quad(R, hi(1), hi(1), 1))

    def test_matches_one_level_sum(self):
        # The paper's one-level sum written out on doubled ints, segment
        # atoms and trunc_ladder, independently of the resolver.
        for q in all_quads(10):
            A, B, z = q.A, q.B, q.zeta
            terms = []
            for C in range(B + 2, A + 1, 2):
                middle = (trunc_ladder(q, C),) if A >= B + 4 else ()
                terms.append(((-1) ** ((A - C) // 2), row(B * z, -C * z),
                              *middle, row(C * z, -B * z)))
            k = ((A - B) // 2 + 1) // 2
            terms.append(((-1) ** k, ladder_multisegment(Quad(R, A, B + 2, z)),
                          ladder_multisegment(Quad(R, B, B, z))))
            assert resolve_block(q) == signed_sum(*terms), str(q)


class TestCancellation:
    def test_suite_A_le_4(self):
        for q in all_quads(8):
            psi = Parameter([from_quad(q)])
            report = verify_cancellation(psi)
            assert report["all_vanish"], (str(q), report)

    def test_theta_peel_pairing_example(self):
        # the (A,B) = (3,0) case: the sign-paired terms cancel at C = 2, 3
        e = resolve_block(Quad(R, hi(3), hi(0), 1))
        for C in (2, 3):
            assert jac_theta(R, hi(C), e).is_zero

    def test_outside_support_trivial(self):
        e = resolve_block(Quad(R, hi(2), hi(0), 1))
        assert jac_left(R, hi(9), e).is_zero

    def test_discrete_diagonal_theta_cancellation(self):
        # At the fully recursed level the paired terms agree only as atom
        # multisets, so the cancellation is exact modulo full commutativity;
        # the canonical-word residual is reported, not hidden.
        psi = Parameter([JordanBlock(R, 5, 3), JordanBlock(R, 1, 1)])
        assert to_quad(JordanBlock(R, 5, 3)) == Quad(R, hi(3), hi(1), 1)
        expr = resolve_param(psi).expr
        assert commutative_image(jac_theta(R, hi(3), expr)) == {}
        report = verify_cancellation(psi)
        assert report["all_vanish_mod_commutative"]


class TestResolveParam:
    def test_elementary_base_case(self):
        psi = Parameter([JordanBlock(R, 3, 1), JordanBlock(R, 1, 6)])
        res = resolve_param(psi)
        assert res.expr == GrothExpr([(distinguished_word(psi), 1)])
        assert list(res.expr.terms.values()) == [1]

    def test_single_block_2_2(self):
        res = resolve_param(Parameter([JordanBlock(R, 2, 2)]))
        assert res.expr == signed_sum((1, atom(0, -1), atom(1, 0)),
                                      (-1, atom(1, -1), atom(0, 0)))

    def test_rejects_non_discrete_diagonal(self):
        with pytest.raises(ValueError):
            resolve_param(Parameter([JordanBlock(R, 2, 1), JordanBlock(R, 1, 2)]))

    def test_block_choice_equal_modulo_full_commutativity(self):
        # Exact canonical-word equality can fail between block choices (the
        # factor order around the recursion differs); the atom multisets of
        # the two expansions must still agree term by term.
        rng = random.Random(31)
        for _ in range(25):
            psi = random_small_parameter(rng, [R, S])
            from multiseg.params import dominate
            tilde, _ = dominate(psi)
            e1 = resolve_param(tilde, block_choice="largest").expr
            e2 = resolve_param(tilde, block_choice="smallest").expr
            assert commutative_image(e1) == commutative_image(e2), str(tilde)

    def test_trace_records_cases(self):
        res = resolve_param(Parameter([JordanBlock(R, 2, 2)]))
        assert any(step["case"] == "A=B+1" for step in res.trace)


class TestResolveGeneral:
    def test_worked_example(self):
        psi = Parameter([JordanBlock(R, 2, 1), JordanBlock(R, 1, 2)])
        res = resolve_general(psi)
        st2_sp2 = (atom("1/2", "-1/2"), atom("-1/2", "1/2"))
        assert res.expr.terms.get(tuple(st2_sp2)) == 1
        # here the pipeline collapses to the single distinguished term
        assert res.expr == GrothExpr([(st2_sp2, 1)])
        assert degree_conserved(res)

    def test_discrete_diagonal_passthrough(self):
        psi = Parameter([JordanBlock(R, 2, 1), JordanBlock(R, 4, 1)])
        assert resolve_general(psi).expr == resolve_param(psi).expr

    def test_rule_independence(self):
        rng = random.Random(44)
        for _ in range(25):
            psi = random_small_parameter(rng, [R, S, D2])
            e1 = resolve_general(psi, rule="minimal").expr
            e2 = resolve_general(psi, rule="staircase").expr
            assert e1 == e2, str(psi)

    def test_too_deep_is_refused_before_dominate(self, monkeypatch):
        # 500 blocks (2,2), Sum(A-B) = 500: far past the limit of 24, and
        # domination would first build a 499 000-point peel list
        def no_dominate(*args, **kwargs):
            pytest.fail("dominate ran on a resolution that is refused")

        monkeypatch.setattr(resolve, "dominate", no_dominate)
        psi = Parameter([JordanBlock(R, 2, 2)] * 500)
        with pytest.raises(ValueError, match=r"^resolution too deep: Sum\(A-B\) = 500 nested "
                                             "expansions exceed the limit of 24$"):
            resolve_general(psi)

    def test_distinguished_word_has_unit_coefficient(self):
        rng = random.Random(45)
        for _ in range(25):
            psi = random_small_parameter(rng, [R, S])
            res = resolve_general(psi)
            assert res.expr.terms.get(distinguished_word(psi)) == 1, str(psi)
            assert degree_conserved(res)

    def test_trace_mentions_domination(self):
        psi = Parameter([JordanBlock(R, 2, 1), JordanBlock(R, 1, 2)])
        res = resolve_general(psi)
        assert res.trace[0]["case"] == "dominate"
        assert res.trace[0]["peel"] == [["rho", "3/2"]]


class _Stop(Exception):
    """Raised by a patched step to end a resolution that passed the depth check."""


def _stop(*args, **kwargs):
    raise _Stop


def _deep_parameters(depth):
    """Two discrete-diagonal parameters with Sum(A-B) = depth: blocks
    (2+4j, 2) with A - B = 1 each, and one block (depth+1, depth+1)."""
    return [Parameter([JordanBlock(R, 2 + 4 * j, 2) for j in range(depth)]),
            Parameter([JordanBlock(R, depth + 1, depth + 1)])]


class TestDepthLimit:
    """Sum(A-B) = resolve.MAX_DEPTH = 24 passes both entry points' check, and
    25 is refused before any work.  The patched step stops a resolution
    that passed, which would otherwise build 2^24 words or more."""

    @pytest.mark.parametrize("entry, step", [(resolve_general, "dominate"),
                                             (resolve_param, "_expand")],
                             ids=["resolve_general", "resolve_param"])
    def test_boundary(self, entry, step, monkeypatch):
        monkeypatch.setattr(resolve, step, _stop)
        for psi in _deep_parameters(24):
            with pytest.raises(_Stop):
                entry(psi)
        for psi in _deep_parameters(25):
            with pytest.raises(ValueError, match=r"^resolution too deep: Sum\(A-B\) = 25 "
                                                 "nested expansions exceed the limit of 24$"):
                entry(psi)

    def test_verify_on_several_blocks(self, monkeypatch):
        # the largest block (97,3) has A = B+2, so verify resolves psi in full
        monkeypatch.setattr(resolve, "_expand", _stop)
        psi = Parameter([JordanBlock(R, 2 + 4 * j, 2) for j in range(23)]
                        + [JordanBlock(R, 97, 3)])
        with pytest.raises(ValueError, match=r"Sum\(A-B\) = 25 nested"):
            verify_cancellation(psi)


def _one_label_parameters(max_n):
    """Parameters over rho with 1-3 blocks, 1 <= a, b <= 4 and n <= max_n."""
    shapes = [(a, b) for a in range(1, 5) for b in range(1, 5)]
    for k in (1, 2, 3):
        for blocks in combinations_with_replacement(shapes, k):
            if sum(a * b for a, b in blocks) <= max_n:
                yield Parameter([JordanBlock(R, a, b) for a, b in blocks])


def _theta(image):
    """theta on a commutative image: every row [x..y] becomes [-y..-x]."""
    def flip(a):
        return Ladder(a.rho, tuple((-e, -s) for s, e in reversed(a.rows)))
    return {frozenset((flip(a), m) for a, m in key): c for key, c in image.items()}


class TestThetaSymmetry:
    """commutative_image(resolve_general(psi)) is fixed by theta.

    Catches a peel that is not two-sided: with jac_theta replaced by
    jac_left alone, 364 of the 468 minimal-rule parameters fail.  A mistake
    that is itself theta-symmetric passes, for example both peels at -x.
    """

    @pytest.mark.parametrize("rule, max_n, count",
                             [("minimal", 16, 468), ("staircase", 12, 278)])
    def test_invariant(self, rule, max_n, count):
        seen = 0
        for psi in _one_label_parameters(max_n):
            image = commutative_image(resolve_general(psi, rule=rule).expr)
            assert _theta(image) == image, str(psi)
            seen += 1
        assert seen == count


class TestVerifyCancellation:
    def test_report_shape(self):
        rep = verify_cancellation(Parameter([JordanBlock(R, 3, 3)]))
        kinds = {c["kind"] for c in rep["checks"]}
        assert kinds == {"jac_outside", "jac_xx", "jac_theta"}
        assert rep["all_vanish"]

    def test_elementary_input_rejected(self):
        with pytest.raises(ValueError):
            verify_cancellation(Parameter([JordanBlock(R, 3, 1)]))

    def test_no_applicable_check_is_refused(self):
        # several blocks, leading expandable block with A = B+1: no one-sided
        # check applies and the theta range ]B+1, A] is empty
        psi = Parameter([JordanBlock(R, 3, 2), JordanBlock(R, 1, 1)])
        with pytest.raises(ValueError, match="nothing to verify"):
            verify_cancellation(psi)


def _reference_expand(q, rest, sub):
    """The expansion step as an operator chain: one induce per C, peeled by
    the reference peel of conftest, the signed results summed as one pair
    list.  Kept as the reference for resolve._expand, so it takes and
    returns terms dicts as _expand does."""
    rho, A, B, z = q.rho, q.A, q.B, q.zeta
    middle = GrothExpr(sub(rest + ((Quad(rho, A, B + 4, z),) if A >= B + 4 else ())).items())
    pairs = []
    for C in range(B + 2, A + 1, 2):
        if C >= B + 4:
            middle = reference_jac_theta(rho, C * z, middle)
        left = GrothExpr([((Ladder(rho, ((B * z, -C * z),)),), 1)])
        right = GrothExpr([((Ladder(rho, ((C * z, -B * z),)),), 1)])
        sign = (-1) ** ((A - C) // 2)
        pairs += [(w, sign * c) for w, c in induce([left, middle, right]).terms.items()]
    closing = sub(rest + (Quad(rho, A, B + 2, z), Quad(rho, B, B, z)))
    sign = (-1) ** (((A - B) // 2 + 1) // 2)
    pairs += [(w, sign * c) for w, c in GrothExpr(closing.items()).terms.items()]
    return GrothExpr(pairs).terms


_SINGLE_BLOCKS = [Parameter([JordanBlock(R, a, b)]) for a in range(2, 8) for b in range(2, 8)]
_MULTI_BLOCKS = [
    Parameter([JordanBlock(R, 4, 3), JordanBlock(R, 6, 4)]),
    Parameter([JordanBlock(R, 5, 3), JordanBlock(R, 1, 1)]),
    Parameter([JordanBlock(R, 2, 1), JordanBlock(R, 4, 1)]),
    Parameter([JordanBlock(R, 3, 3), JordanBlock(S, 6, 6)]),
    Parameter([JordanBlock(R, 4, 3), JordanBlock(S, 2, 3), JordanBlock(S, 5, 1)]),
]


def _resolutions(psis):
    out = []
    for psi in psis:
        if len(psi) == 1:
            out.append(resolve_block(psi.quads()[0]))
        for choice in ("largest", "smallest"):
            res = resolve_param(psi, block_choice=choice)
            out.append((res.expr, res.trace))
    return out


class TestExpandOracle:
    def test_matches_operator_chain(self, monkeypatch):
        psis = _SINGLE_BLOCKS + _MULTI_BLOCKS
        for psi in _MULTI_BLOCKS:
            assert is_discrete_diagonal(psi), str(psi)
        got = _resolutions(psis)
        monkeypatch.setattr(resolve, "_expand", _reference_expand)
        want = _resolutions(psis)
        assert len(got) == len(want) == 36 * 3 + 5 * 2
        for g, w in zip(got, want):
            assert g == w



class _QuadMultiset(tuple):
    """Sorted quads with the one method is_discrete_diagonal reads."""

    def quads(self):
        return self


def _tree_visits(quads, pick):
    """resolve_param's recursion re-derived on quads alone: one (trace entry,
    sorted quad multiset, depth) per call, in call order.  Shares only
    _quad_sort_key with the package."""
    out = []

    def visit(quads, depth):
        key = _QuadMultiset(sorted(quads, key=_quad_sort_key))
        expandable = [q for q in key if q.A > q.B]
        if not expandable:
            out.append(({"case": "elementary", "blocks": list(map(str, key))}, key, depth))
            return
        q = pick(expandable, key=_quad_sort_key)
        rest = list(key)
        rest.remove(q)
        wide = q.A > q.B + 2
        out.append(({"case": "A>B+1" if wide else "A=B+1", "block": str(q)}, key, depth))
        visit(rest + ([Quad(q.rho, q.A, q.B + 4, q.zeta)] if wide else []), depth + 1)
        visit(rest + [Quad(q.rho, q.A, q.B + 2, q.zeta), Quad(q.rho, q.B, q.B, q.zeta)],
              depth + 1)

    visit(quads, 0)
    return out


def _tree_parameters(two_labels, max_ab, max_n):
    """1-3 blocks with 1 <= a, b <= max_ab and n <= max_n, over rho alone or
    split over rho and sig in every way that uses both; each
    non-discrete-diagonal one is replaced by its psi-tilde."""
    shapes = [(a, b) for a in range(1, max_ab + 1) for b in range(1, max_ab + 1)]
    for k in (1, 2, 3):
        for blocks in combinations_with_replacement(shapes, k):
            if sum(a * b for a, b in blocks) > max_n:
                continue
            for split in range(1, k) if two_labels else (k,):
                labels = [R] * split + [S] * (k - split)
                psi = Parameter([JordanBlock(r, a, b) for r, (a, b) in zip(labels, blocks)])
                yield psi if is_discrete_diagonal(psi) else dominate(psi)[0]


class TestResolverIsATree:
    """resolve_param keeps no memo because no call could hit one: no sorted
    quad multiset is visited twice, every visited one is discrete diagonal,
    and the depth is Sum(A-B).  The recursion is re-derived on quads and
    checked against resolve_param's trace entry for entry."""

    @staticmethod
    def _check(psis):
        seen = deepest = 0
        for psi in psis:
            depth = sum(q.A - q.B for q in psi.quads()) // 2
            keys = set()
            for choice, pick in (("largest", max), ("smallest", min)):
                visits = _tree_visits(psi.quads(), pick)
                assert [v[0] for v in visits] == resolve_param(psi, choice).trace, str(psi)
                assert len({v[1] for v in visits}) == len(visits), str(psi)
                assert max(v[2] for v in visits) == depth, str(psi)
                keys.update(v[1] for v in visits)
            assert all(map(is_discrete_diagonal, keys)), str(psi)
            seen += 1
            deepest = max(deepest, depth)
        return seen, deepest

    def test_one_label(self):
        assert self._check(_tree_parameters(False, 4, 20)) == (650, 4)

    def test_two_labels(self):
        assert self._check(_tree_parameters(True, 3, 20)) == (357, 4)

    def test_heavy_tilde(self):
        heavy = [Parameter([JordanBlock(R, 3, 3)] * 2 + [JordanBlock(R, 2, 2)]),
                 Parameter([JordanBlock(R, 4, 4)] * 2)]
        assert self._check(dominate(psi)[0] for psi in heavy) == (2, 6)


def _reference_report(psi, monkeypatch):
    """verify_cancellation's report rebuilt on the reference expansion and
    the reference peel of conftest, check by check in the same order."""
    quads = psi.quads()
    q, _ = resolve._leading(quads)
    rho, A, B, z = q.rho, q.A, q.B, q.zeta
    single = len(quads) == 1
    with monkeypatch.context() as m:
        m.setattr(resolve, "_expand", _reference_expand)
        expr = resolve_block(q) if single else resolve_param(psi).expr
    checks = []

    def check(kind, t, val, **extra):
        checks.append({"kind": kind, "x": _half_str(t), "vanishes": val.is_zero,
                       **extra, "residual": len(val.terms)})

    if single:
        inside = {x * z for x in range(B, A + 1, 2)}
        for t in range(-(A + 2), A + 3, 2):
            if t not in inside:
                check("jac_outside", t, reference_jac(True, rho, t, expr))
        for t in range(-A, A + 1, 2):
            once = reference_jac(True, rho, t, expr)
            check("jac_xx", t, reference_jac(True, rho, t, once))
    for c in range(B + 4, A + 1, 2):
        val = reference_jac_theta(rho, c * z, expr)
        check("jac_theta", c * z, val, vanishes_mod_commutative=not commutative_image(val))
    return {
        "quad": str(q), "single_block": single, "checks": checks,
        "all_vanish": all(ch["vanishes"] for ch in checks),
        "all_vanish_mod_commutative": all(
            ch.get("vanishes_mod_commutative", ch["vanishes"]) for ch in checks),
    }


class TestVerifyOracle:
    """The whole verify_cancellation report, which peels the expansion's
    positional terms, equals the report rebuilt on the reference peel."""

    def test_single_blocks(self, monkeypatch):
        psis = [Parameter([JordanBlock(R, a, b)]) for a in range(2, 9) for b in range(2, 9)]
        assert {q.zeta for psi in psis for q in psi.quads()} == {1, -1}
        for psi in psis:
            assert verify_cancellation(psi) == _reference_report(psi, monkeypatch), str(psi)

    def test_multi_blocks(self, monkeypatch):
        compared = 0
        for psi in _MULTI_BLOCKS:
            try:
                got = verify_cancellation(psi)
            except ValueError:
                continue
            assert got == _reference_report(psi, monkeypatch), str(psi)
            assert any(ch["kind"] == "jac_theta" for ch in got["checks"])
            compared += 1
        assert compared >= 3


class TestPipelinePeelsPositionally:
    """resolve_param and verify_cancellation peel each expression's terms
    dict positionally, through groth.peel_terms and theta_terms at doubled
    points: they never call the one-point operators jac_left, jac_right and
    jac_theta, which canonicalize after every point."""

    @staticmethod
    def _count_peels(monkeypatch, run):
        calls = []

        def counting(name, fn):
            def counted(*args):
                calls.append(name)
                return fn(*args)
            return counted

        for name in ("jac_left", "jac_right", "jac_theta"):
            orig = getattr(groth, name)
            for mod in (groth, resolve, cli, multiseg):
                if getattr(mod, name, None) is orig:
                    monkeypatch.setattr(mod, name, counting(name, orig))
        monkeypatch.setattr(conftest, "reference_jac",
                            counting("reference_jac", conftest.reference_jac))
        run()
        return calls

    def test_resolve_param(self, monkeypatch):
        psi = Parameter([JordanBlock(R, 8, 8)])
        assert self._count_peels(monkeypatch, lambda: resolve_param(psi)) == []

    @pytest.mark.parametrize("psi", [
        Parameter([JordanBlock(R, 3, 3)]),
        Parameter([JordanBlock(R, 6, 6)]),
        Parameter([JordanBlock(R, 3, 3), JordanBlock(S, 6, 6)]),
    ], ids=str)
    def test_verify_cancellation(self, monkeypatch, psi):
        assert self._count_peels(monkeypatch, lambda: verify_cancellation(psi)) == []

    def test_counter_sees_the_reference_expansion(self, monkeypatch):
        monkeypatch.setattr(resolve, "_expand", _reference_expand)
        psi = Parameter([JordanBlock(R, 8, 8)])
        assert self._count_peels(monkeypatch, lambda: resolve_param(psi))

    def test_counter_sees_the_public_operators(self, monkeypatch):
        e = resolve_block(Quad(R, 6, 0, 1))
        calls = self._count_peels(monkeypatch, lambda: (
            groth.jac_left(R, 4, e), groth.jac_right(R, 4, e), groth.jac_theta(R, 4, e)))
        assert calls == ["jac_left", "jac_right", "jac_theta"]


class TestOneCanonicalizationPerWord:
    """resolve_param and resolve_block stay on positional terms and
    canonicalize once, at their exit: groth.canonical_word runs exactly once
    per returned word."""

    @staticmethod
    def _check(monkeypatch, runs):
        calls = []
        orig = groth.canonical_word

        def counted(atoms):
            calls.append(None)
            return orig(atoms)

        for mod in (groth, resolve):
            if getattr(mod, "canonical_word", None) is orig:
                monkeypatch.setattr(mod, "canonical_word", counted)
        for run in runs:
            calls.clear()
            expr = run()
            assert len(calls) == len(expr.terms)

    def test_single_blocks(self, monkeypatch):
        runs = []
        for a in range(1, 9):
            for b in range(1, 9):
                psi = Parameter([JordanBlock(R, a, b)])
                for choice in ("largest", "smallest"):
                    runs.append(lambda psi=psi, c=choice: resolve_param(psi, block_choice=c).expr)
                q = psi.quads()[0]
                if q.A > q.B:
                    runs.append(lambda q=q: resolve_block(q))
        assert len(runs) == 64 * 2 + 49
        self._check(monkeypatch, runs)

    def test_multi_blocks(self, monkeypatch):
        runs = [lambda psi=psi: resolve_param(psi).expr for psi in _MULTI_BLOCKS]
        self._check(monkeypatch, runs)


class TestInternKeyedByLabelData:
    """Atoms are interned on the label's data, not its name alone: label
    names recur with another d across parameter files in one process."""

    def test_same_name_other_d(self):
        res = []
        for d in (1, 2):
            psi, _ = parse_parameter_file(f"cuspidal rho d={d}\nblock rho 3 3\n")
            res.append(resolve_param(psi))
        one, two = (distinguished_word(r.psi) for r in res)
        assert one and len(one) == len(two)
        for a, b in zip(one, two):
            assert a is not b and a.rows == b.rows and 2 * a.size == b.size
        assert all(map(degree_conserved, res))


def _two_label_parameters(max_n):
    """One or two blocks over rho with 1 <= a, b <= 3, plus one block over
    sig or tau (d = 2) with 1 <= a, b <= 3, and n <= max_n."""
    shapes = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    for k in (1, 2):
        for own in combinations_with_replacement(shapes, k):
            for label in (S, D2):
                for a, b in shapes:
                    psi = Parameter([JordanBlock(R, c, d) for c, d in own]
                                    + [JordanBlock(label, a, b)])
                    if psi.n <= max_n:
                        yield psi


class TestChainOracle:
    """jac_theta_seq, which runs the chain on positional words and
    canonicalizes once, equals iterated jac_theta on the domination chains:
    psi-tilde and the peel list come from dominate."""

    @staticmethod
    def _check(psis, rule="minimal"):
        seen = peeled = 0
        for psi in psis:
            psi_t, peel = dominate(psi, rule=rule)
            e = resolve_param(psi_t).expr
            assert jac_theta_seq(peel, e) == iterated_jac_theta(peel, e), str(psi)
            seen += 1
            peeled += bool(peel)
        return seen, peeled

    @pytest.mark.parametrize("rule, max_n, counts",
                             [("minimal", 16, (468, 338)), ("staircase", 12, (278, 278))])
    def test_one_label(self, rule, max_n, counts):
        assert self._check(_one_label_parameters(max_n), rule) == counts

    def test_two_labels(self):
        assert self._check(_two_label_parameters(10)) == (344, 121)

    def test_heavy_chain(self):
        psi = Parameter([JordanBlock(R, 3, 3), JordanBlock(R, 3, 3), JordanBlock(R, 2, 2)])
        assert self._check([psi]) == (1, 1)


class TestCanonicalWordGetsTuples:
    """Every canonical_word call in the pipeline gets a tuple, which the
    benchmark's tracer measures with len()."""

    @pytest.mark.parametrize("psi", [
        Parameter([JordanBlock(R, 3, 1), JordanBlock(R, 3, 3)]),
        Parameter([JordanBlock(R, 2, 2), JordanBlock(R, 3, 1), JordanBlock(S, 2, 3)]),
    ], ids=str)
    def test_resolve_general(self, monkeypatch, psi):
        kinds = []
        orig = groth.canonical_word

        def recording(atoms):
            kinds.append(type(atoms))
            return orig(atoms)

        for mod in (groth, resolve):
            monkeypatch.setattr(mod, "canonical_word", recording)
        assert dominate(psi)[1]
        resolve_general(psi)
        assert kinds and set(kinds) == {tuple}
