import copy
import pickle
import random
from itertools import combinations

import pytest

from multiseg import (CuspidalLabel, JordanBlock, Ladder, Quad, gl_multisegment,
                      ladder_multisegment, peel_left, peel_right, tableau_cols,
                      to_quad, trunc_ladder)
from multiseg.core import _twice
from multiseg.ladders import _is_ladder, peel

R = CuspidalLabel("rho")


def hi(x):
    """The point x, written as text or an int, doubled."""
    return _twice(str(x))


def quad(A, B, zeta=1):
    return Quad(R, hi(A), hi(B), zeta)


def seg(s, e):
    return Ladder(R, ((hi(s), hi(e)),))


def _points(segment):
    """The doubled points of a one-row ladder, from its row's bounds."""
    s, e = segment.rows[0]
    return range(min(s, e), max(s, e) + 1, 2)


def lad(*pairs):
    """Ladder of (start, end) rows given in ladder order (descending start)."""
    return Ladder(R, tuple((hi(s), hi(e)) for s, e in pairs))


class TestLadderMultisegment:
    def test_single_row(self):
        assert ladder_multisegment(quad(1, 1)).segments() == (seg(1, -1),)

    def test_two_rows_half_integral(self):
        got = ladder_multisegment(quad("3/2", "1/2"))
        assert set(got.segments()) == {seg("1/2", "-3/2"), seg("3/2", "-1/2")}
        # matches the (a,b) = (3,2) block
        assert to_quad(JordanBlock(R, 3, 2)) == quad("3/2", "1/2")

    def test_b_zero(self):
        got = ladder_multisegment(quad(1, 0))
        assert set(got.segments()) == {seg(0, -1), seg(1, 0)}

    def test_zero_quad(self):
        assert ladder_multisegment(quad(0, 0)).segments() == (seg(0, 0),)

    def test_negative_zeta_rows_ascend(self):
        got = ladder_multisegment(quad("3/2", "1/2", -1))
        assert set(got.segments()) == {seg("-1/2", "3/2"), seg("-3/2", "1/2")}

    def test_shape_and_support(self):
        for a in range(1, 6):
            for b in range(1, 6):
                q = to_quad(JordanBlock(R, a, b))
                L = ladder_multisegment(q)
                assert len(L.rows) == (q.A - q.B) // 2 + 1
                assert L.size == a * b
                assert all(abs(t) <= q.A for r in L.segments() for t in r.rows[0])

    def test_ladder_condition_enforced(self):
        with pytest.raises(ValueError):
            lad((1, 0), (1, -1))  # repeated start
        with pytest.raises(ValueError):
            lad((2, -2), (1, -1))  # nested rows: orders disagree


class TestAtomData:
    """size, key and hash against their definitions, for ladders built
    from doubled rows and from segments."""

    def test_random_ladders(self):
        rng = random.Random(5)
        for _ in range(2000):
            name, d = rng.choice([("rho", 1), ("tau", 3)])
            k = rng.randint(1, 4)
            off = rng.randint(0, 1)
            starts = sorted(rng.sample(range(-5, 6), k), reverse=True)
            ends = sorted(rng.sample(range(-5, 6), k), reverse=True)
            rows = tuple((2 * s + off, 2 * e + off) for s, e in zip(starts, ends))
            direct = Ladder(CuspidalLabel(name, d), rows)
            segs = [Ladder(CuspidalLabel(name, d), ((s, e),)) for s, e in rows]
            rng.shuffle(segs)
            built = Ladder(CuspidalLabel(name, d), tuple(sorted(
                (r.rows[0] for r in segs), reverse=True)))
            for L in (direct, built):
                assert L.size == sum(len(_points(s)) for s in segs) * d
                assert L.key == ((name, d, 0, 1), k > 1, rows)
            assert direct == built and hash(direct) == hash(built)


class TestInterning:
    """Equal ladders are one object however they are built, so equality is
    identity; the key is the label's name, d, eta and chi with the rows."""

    def test_equal_values_are_one_object(self):
        rows = ((6, -4), (4, -6))
        built = [Ladder(R, rows), Ladder(CuspidalLabel("rho"), rows),
                 lad((3, -2), (2, -3)),
                 ladder_multisegment(quad(3, 2)),
                 trunc_ladder(quad(3, 0), hi(1)),
                 peel(8, Ladder(R, ((8, -4), (4, -6))), True)]
        assert all(L is built[0] for L in built)
        one_row = [Ladder(R, ((2, -2),)), seg(1, -1),
                   lad((1, -1)), ladder_multisegment(quad(1, 1)),
                   peel(4, seg(2, -1), True),
                   peel(-4, seg(1, -2), False)]
        assert all(L is one_row[0] for L in one_row)
        assert trunc_ladder(quad(3, 0), hi(2)) is lad((3, -1), (1, -3))

    def test_label_data_and_rows_keep_atoms_apart(self):
        rows = ((2, 0),)
        atoms = [Ladder(R, rows), Ladder(CuspidalLabel("rho", 2), rows),
                 Ladder(CuspidalLabel("rho", 1, 1), rows),
                 Ladder(CuspidalLabel("rho", 1, 1, -1), rows),
                 Ladder(CuspidalLabel("sig"), rows), Ladder(R, ((0, 2),))]
        assert len(set(map(id, atoms))) == len(atoms)
        assert atoms[1].size == 2 * atoms[0].size

    def test_copies_are_the_interned_object(self):
        L = lad((3, -1), (1, -3))
        assert copy.copy(L) is L
        assert copy.deepcopy(L) is L
        assert copy.deepcopy((L, [L])) == (L, [L])
        assert pickle.loads(pickle.dumps(L)) is L

    def test_immutable(self):
        L = lad((1, 0))
        with pytest.raises(AttributeError):
            L.rows = ((4, 4),)
        assert L.rows == ((2, 0),)


class TestTableauCols:
    def test_single_row_gives_singletons(self):
        assert tableau_cols(quad(1, 1)) == gl_multisegment(
            [seg(1, 1), seg(0, 0), seg(-1, -1)])

    def test_two_row_case(self):
        assert tableau_cols(quad("3/2", "1/2")) == gl_multisegment(
            [seg("3/2", "1/2"), seg("1/2", "-1/2"), seg("-1/2", "-3/2")])


class TestPeels:
    def test_peel_full_segment(self):
        got = peel_left(hi("3/2"), lad(("3/2", "-3/2")))
        assert got.segments() == (seg("1/2", "-3/2"),)

    def test_peel_top_row_of_tableau(self):
        # the top row start zeta*B is the peelable point of a full tableau
        L = ladder_multisegment(quad("3/2", "1/2"))
        got = peel_left(hi("1/2"), L)
        assert got is not None
        assert set(got.segments()) == {seg("3/2", "-1/2"), seg("-1/2", "-3/2")}

    def test_peel_to_empty(self):
        got = peel_left(hi(0), lad((0, 0)))
        assert got is not None and got.segments() == ()

    def test_peel_missing_start(self):
        assert peel_left(hi(5), lad((1, 0))) is None

    def test_peel_breaking_ladder(self):
        # start collision with the next row kills the result
        L = ladder_multisegment(quad(2, 1))  # rows [1..-2], [2..-1]
        assert peel_left(hi(2), L) is None

    def test_full_tableau_peelable_exactly_at_zeta_B(self):
        for a in range(1, 6):
            for b in range(1, 6):
                q = to_quad(JordanBlock(R, a, b))
                L = ladder_multisegment(q)
                points = {t for r in L.segments() for t in _points(r)}
                for t in sorted(points | {min(points) - 2, max(points) + 2}):
                    got = peel_left(t, L)
                    if t == q.B * q.zeta:
                        assert got is not None, (a, b, t)
                    else:
                        assert got is None, (a, b, t)

    def test_peel_right_mirrors_left(self):
        L = ladder_multisegment(quad("3/2", "1/2"))
        got = peel_right(hi("-1/2"), L)
        assert got is not None
        assert set(got.segments()) == {seg("1/2", "-3/2"), seg("3/2", "1/2")}


def _resorting_peel(t, L, left):
    """The single-point peel (t doubled) as it was before the peeled row kept
    its index: peel the rows, sort them by descending start, then test the
    ladder condition."""
    for i, (s, e) in enumerate(L.rows):
        if (s if left else e) == t:
            break
    else:
        return None
    step = 2 if e > s else -2
    if s == e:
        row = ()
    elif left:
        row = ((s + step, e),)
    else:
        row = ((s, e - step),)
    out = tuple(sorted(L.rows[:i] + row + L.rows[i + 1:], reverse=True))
    return Ladder(L.rho, out) if _is_ladder(out) else None


class TestPeelOracle:
    """peel keeps the peeled row in place; the re-sorting peel is the
    reference.  Rows may lie in either coset of Z, one coset per row."""

    def test_matches_resorting_peel(self):
        pts = range(-4, 5)
        rows = sorted(((s, e) for s in pts for e in pts if (s - e) % 2 == 0),
                      reverse=True)
        ladders = [Ladder(R, rs) for k in (1, 2, 3)
                   for rs in combinations(rows, k) if _is_ladder(rs)]
        cases = 0
        for L in ladders:
            for t in range(-6, 7):
                for left in (True, False):
                    assert peel(t, L, left) == _resorting_peel(t, L, left), (L, t, left)
                    cases += 1
        assert cases == 36218


class TestTruncLadder:
    def test_worked_example(self):
        got = trunc_ladder(quad(3, 0), hi(2))
        assert set(got.segments()) == {seg(1, -3), seg(3, -1)}

    def test_no_removal_at_C_equal_B_plus_one(self):
        base = ladder_multisegment(quad(3, 2))
        assert trunc_ladder(quad(3, 0), hi(1)).rows == base.rows

    def test_C_equal_A_collapses(self):
        for A in range(2, 6):
            for B in range(0, A - 1):
                got = trunc_ladder(quad(A, B), hi(A))
                want = ladder_multisegment(quad(A - 1, B + 1))
                assert got.rows == want.rows, (A, B)
        got = trunc_ladder(quad("5/2", "1/2"), hi("5/2"))
        want = ladder_multisegment(quad("3/2", "3/2"))
        assert got.rows == want.rows

    def test_preconditions(self):
        with pytest.raises(ValueError):
            trunc_ladder(quad(1, 0), hi(1))  # base needs A >= B+2
        with pytest.raises(ValueError):
            trunc_ladder(quad(3, 0), hi(4))  # C outside ]B, A]

    def test_trunc_peelable_points(self):
        # Jac_x of the truncated tableau is supported at zeta(B+1) and
        # zeta(C+1) only, degenerating at the ends of the C range.
        for zeta in (1, -1):
            for A in range(2, 6):
                for B in range(0, A - 1):
                    if B == 0 and zeta == -1:
                        continue
                    q = quad(A, B, zeta)
                    for C in range(B + 1, A + 1):
                        L = trunc_ladder(q, hi(C))
                        pts = {t for r in L.segments() for t in _points(r)}
                        peelable = {
                            t for t in pts if peel_left(t, L) is not None
                        }
                        if C == B + 1:
                            want = {hi(B + 2) * zeta}
                        elif C == A:
                            want = {hi(B + 1) * zeta}
                        else:
                            want = {hi(B + 1) * zeta, hi(C + 1) * zeta}
                        assert peelable == want, (zeta, A, B, C)
