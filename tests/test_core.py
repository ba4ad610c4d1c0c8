import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiseg import (CuspidalLabel, JordanBlock, Ladder, Multisegment,
                      ladder_multisegment, mw_dual,
                      gl_multisegment, parse_multisegment, support,
                      tableau_cols, to_quad)
from multiseg import core
from multiseg.core import _dual_one_family, _half_str, _twice

from conftest import random_multisegment

RHO = CuspidalLabel("rho")


def seg(start, end, rho=RHO):
    return Ladder(rho, ((_twice(str(start)), _twice(str(end))),))


def ms(*pairs):
    return gl_multisegment([seg(s, e) for s, e in pairs])


class TestHalfInt:
    """The text of a half-integer x: `_twice` reads it as the int 2x and
    `_half_str` writes 2x back as `n` or `n/2`."""

    def test_parse_and_str(self):
        assert _twice("3/2") == 3 and _half_str(3) == "3/2"
        assert _twice("-1/2") == -1 and _half_str(-1) == "-1/2"
        assert _twice("2") == 4 and _half_str(4) == "2"
        assert _twice("-3") == -6 and _half_str(-6) == "-3"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            _twice("3/4")

    def test_error_names_the_text(self):
        with pytest.raises(ValueError) as exc:
            _twice("3/4")
        assert str(exc.value) == "not a half-integer: '3/4'"

    @given(st.integers(-10**6, 10**6))
    def test_round_trip(self, t):
        assert _twice(_half_str(t)) == t


class TestSegmentElements:
    def test_descending(self):
        assert support(gl_multisegment([seg(2, 0)])) == {
            (RHO, 4): 1, (RHO, 2): 1, (RHO, 0): 1}

    def test_ascending(self):
        assert support(gl_multisegment([seg("-1/2", "3/2")])) == {
            (RHO, -1): 1, (RHO, 1): 1, (RHO, 3): 1}

    def test_singleton(self):
        assert support(gl_multisegment([seg(1, 1)])) == {(RHO, 2): 1}

    def test_mixed_coset_rejected(self):
        with pytest.raises(ValueError):
            seg("1/2", 1)


class TestOneRowType:
    """A segment is the one-row ladder; the constructor and the text parser
    check the parity of every row, once, before a value is built."""

    @pytest.mark.parametrize("build", [
        lambda: parse_multisegment("{[1/2..0]rho}"),
        lambda: Ladder(RHO, ((1, 0),)),
        lambda: Ladder(RHO, ((4, 2), (1, 0))),
        lambda: Ladder(RHO, ((1, 0), (4, 2))),
    ], ids=["segment", "one-row", "two-row", "two-row-unordered"])
    def test_parity_checked_where_built(self, build):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == "segment bounds differ by a non-integer: [1/2..0]rho"
        assert not [key for key in core._interned.keys() if (1, 0) in key[-1]]

    def test_segment_is_the_one_row_ladder(self):
        s = seg(2, 0)
        assert s is Ladder(RHO, ((4, 0),))
        assert (s.rows, s.size) == (((4, 0),), 3)
        assert seg("-1/2", "3/2", CuspidalLabel("tau", 2)).size == 6

    def test_multisegment_reads_every_row(self):
        word = (Ladder(RHO, ((6, -4), (4, -6))), seg(0, 2), Ladder(RHO, ((3, -1), (1, -3))),
                Ladder(CuspidalLabel("tau", 2), ((2, 0), (0, -2))))
        rows = [(a.rho, s, e) for a in word for s, e in a.rows]
        assert len(rows) == 7
        assert gl_multisegment(word) == Multisegment(rows)
        assert gl_multisegment(word) == gl_multisegment(r for a in word for r in a.segments())


class TestSupport:
    def test_steinberg(self):
        sup = support(ms((2, 0)))
        assert sup == {(RHO, 4): 1, (RHO, 2): 1, (RHO, 0): 1}

    def test_empty(self):
        assert support(Multisegment()) == {}

    def test_multiplicity_kept(self):
        sup = support(ms((1, 0), (0, 0)))
        assert sup[(RHO, 0)] == 2
        assert sup[(RHO, 2)] == 1


class TestMultisegmentCanonical:
    def test_orientation_forgotten(self):
        assert ms((0, 2)) == ms((2, 0))

    def test_parse_round_trip(self):
        m = parse_multisegment("{[2..0]rho, [1..-1]rho}")
        assert m == ms((2, 0), (1, -1))
        assert parse_multisegment(str(m)) == m

    def test_unlabelled_segments_get_rho(self):
        m = parse_multisegment("{[1..0], [2..2]rho, [0..0]tau}")
        assert m == gl_multisegment([seg(1, 0), seg(2, 2),
                                     seg(0, 0, CuspidalLabel("tau"))])
        assert all(s.rho.d == 1 for s in m)

    def test_parse_rejects_bad_syntax(self):
        with pytest.raises(ValueError):
            parse_multisegment("{[2..0")
        with pytest.raises(ValueError):
            parse_multisegment("{[2..0]rho [1..1]rho}")

    @pytest.mark.parametrize("text, expected", [
        ("{[1..0]rho,}", "{[1..0]rho}"),
        ("{}", "{}"),
        ("{ }", "{}"),
        ("{,}", "error: bad segment syntax near: ','"),
        ("{[1..0]rho [2..1]rho}",
         "error: expected ',' between segments near: '[2..1]rho'"),
        ("{[1..0] rho , [2..1]}", "{[2..1]rho, [1..0]rho}"),
        ("{[1..0]rho,,[2..1]rho}", "error: bad segment syntax near: ',[2..1]rho'"),
        ("{[1.5..0]rho}", "error: bad segment syntax near: '[1.5..0]rho'"),
        ("{[1..0]rho}x", "error: multisegment must be enclosed in { }"),
        ("{ [1..0]rho , }", "{[1..0]rho}"),
        ("{[1/2..0]rho}", "error: segment bounds differ by a non-integer: [1/2..0]rho"),
        ("{[1/3..0]rho}", "error: not a half-integer: '1/3'"),
    ])
    def test_parse_separators_and_error_text(self, text, expected):
        try:
            got = str(parse_multisegment(text))
        except ValueError as exc:
            got = f"error: {exc}"
        assert got == expected


    def test_repeated_label_is_one_object(self):
        m = parse_multisegment("{[0..-1]rho, [1..1], [3..2]rho}")
        assert m.rows[0][0] is m.rows[-1][0]


_LABELS = (CuspidalLabel("rho"), CuspidalLabel("tau"))


@st.composite
def _raw_rows(draw):
    # (label, start2, end2) over one or two labels, both cosets, either
    # orientation; the tail repeats some rows verbatim
    labels = _LABELS[:draw(st.integers(1, 2))]
    raw = draw(st.lists(st.tuples(st.sampled_from(labels), st.integers(-6, 6),
                                  st.integers(0, 6), st.integers(0, 1), st.booleans()),
                        max_size=12))
    rows = []
    for rho, top, n, off, up in raw:
        s, e = 2 * top + off, 2 * (top - n) + off
        rows.append((rho, e, s) if up else (rho, s, e))
    return rows + rows[:draw(st.integers(0, 4))]


class TestRowConstructor:
    @settings(max_examples=200, deadline=None)
    @given(_raw_rows())
    @example([])
    def test_rows_and_segments_agree(self, rows):
        segs = [Ladder(rho, ((s, e),)) for rho, s, e in rows]
        by_segs = gl_multisegment(segs)
        by_rows = Multisegment(rows)
        assert by_rows == by_segs
        assert hash(by_rows) == hash(by_segs)
        assert str(by_rows) == str(by_segs)
        assert len(by_rows) == len(by_segs) == len(rows)
        # canonical order, derived from the one-row ladders alone:
        # descending, then a stable sort by (label, start descending, end
        # descending)
        canonical = tuple(sorted((Ladder(s.rho, ((max(s.rows[0]), min(s.rows[0])),))
                                  for s in segs),
                                 key=lambda s: (s.rho.name, -s.rows[0][0], -s.rows[0][1])))
        assert by_rows.segments == canonical
        assert tuple(by_rows) == canonical
        assert str(by_rows) == "{" + ", ".join(str(s) for s in canonical) + "}"
        assert parse_multisegment(str(by_rows)) == by_rows


class TestMultisegmentParity:
    """The row constructor refuses a row whose bounds differ by a
    non-integer with the message of Ladder, the row printed as given, so
    every multisegment that constructs has integral segments and the dual
    is an involution on it."""

    @pytest.mark.parametrize("row, text", [((1, 0), "[1/2..0]"), ((0, 1), "[0..1/2]"),
                                           ((-3, 4), "[-3/2..2]"), ((4, -3), "[2..-3/2]")])
    def test_odd_row_refused_in_either_orientation(self, row, text):
        with pytest.raises(ValueError) as by_ladder:
            Ladder(RHO, (row,))
        with pytest.raises(ValueError) as by_rows:
            Multisegment([(RHO, 4, 0), (RHO, *row)])
        want = f"segment bounds differ by a non-integer: {text}rho"
        assert str(by_rows.value) == str(by_ladder.value) == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_LABELS), st.integers(-8, 8),
                              st.integers(-8, 8)), max_size=10))
    @example([(RHO, 1, 0)])
    def test_dual_is_an_involution_on_every_multisegment(self, rows):
        try:
            m = Multisegment(rows)
        except ValueError:
            assert any((s - e) % 2 for _, s, e in rows)
            return
        d = mw_dual(m)
        assert support(d) == support(m)
        assert mw_dual(d) == m


# three labels of one name that differ in d or eta
_ONE_NAME = (CuspidalLabel("rho"), CuspidalLabel("rho", 2), CuspidalLabel("rho", 1, -1))


class TestLabelsOfOneName:
    """Labels of one name with different data are different labels, so a
    multisegment, a word's multisegment and the dual keep their rows
    apart."""

    def test_labels_compare_by_data(self):
        rho, rho2, rho_symp = _ONE_NAME
        assert rho == CuspidalLabel("rho", 1, None, 1)
        assert rho != rho2 and rho != rho_symp and rho2 != rho_symp
        assert CuspidalLabel("rho", chi=-1) != rho
        assert hash(rho) == hash(rho2)

    def test_multisegments_differ(self):
        rho, rho2, _ = _ONE_NAME
        a, b = seg(1, 0, rho), seg(1, 0, rho2)
        assert gl_multisegment([a]) != gl_multisegment([b])
        assert gl_multisegment((a,)) != gl_multisegment((b,))
        assert gl_multisegment([a, b]) == gl_multisegment([b, a])

    def test_mixed_dual_keeps_each_rows_d(self):
        rho, rho2, _ = _ONE_NAME
        low, high = [seg(1, 0, rho)], [seg(2, 1, rho2)]
        mixed = mw_dual(gl_multisegment(low + high))
        assert mixed == Multisegment(mw_dual(gl_multisegment(low)).rows
                                     + mw_dual(gl_multisegment(high)).rows)
        assert sorted((r.d, s, e) for r, s, e in mixed.rows) == [
            (1, 0, 0), (1, 2, 2), (2, 2, 2), (2, 4, 4)]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_ONE_NAME), st.integers(-5, 5),
                              st.integers(0, 4)), max_size=10))
    def test_dual_is_the_union_of_per_label_duals(self, raw):
        rows = [(rho, 2 * top, 2 * (top - n)) for rho, top, n in raw]
        per_label = [r for rho in _ONE_NAME for r in
                     mw_dual(Multisegment([x for x in rows if x[0] is rho])).rows]
        assert mw_dual(Multisegment(rows)) == Multisegment(per_label)
        assert Multisegment(rows) == Multisegment(rows[::-1])


class TestDual:
    def test_steinberg_to_speh(self):
        assert mw_dual(ms((2, 0))) == ms((0, 0), (1, 1), (2, 2))

    def test_two_row_ladder(self):
        # rows of the (a,b) = (3,2) tableau; dual must be its columns
        got = mw_dual(ms(("1/2", "-3/2"), ("3/2", "-1/2")))
        assert got == ms(("3/2", "1/2"), ("1/2", "-1/2"), ("-1/2", "-3/2"))

    def test_nested_segments(self):
        # nested pairs are unlinked, so the dual splits multiplicatively
        assert mw_dual(ms((2, 0), (1, 1))) == ms((2, 2), (1, 1), (1, 1), (0, 0))
        assert mw_dual(ms((1, 0), (0, 0))) == ms((1, 1), (0, 0), (0, 0))

    def test_rows_columns_law(self):
        for a in range(1, 7):
            for b in range(1, 7):
                q = to_quad(JordanBlock(RHO, a, b))
                rows = gl_multisegment((ladder_multisegment(q),))
                assert mw_dual(rows) == tableau_cols(q), (a, b)

    def test_involution_on_random_sample(self):
        rng = random.Random(99)
        for _ in range(60):
            m = random_multisegment(rng, RHO, max_segments=12)
            assert mw_dual(mw_dual(m)) == m

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                              st.booleans()), max_size=8))
    def test_involution_and_support_property(self, raw):
        segs = [
            Ladder(RHO, ((2 * s + off, 2 * e + off),))
            for s, e, half in raw
            for off in [1 if half else 0]
        ]
        m = gl_multisegment(segs)
        d = mw_dual(m)
        assert support(d) == support(m)
        assert mw_dual(d) == m

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["rho", "tau"]),
                              st.integers(-6, 6), st.integers(-6, 6),
                              st.booleans()), max_size=12))
    def test_contragredient_symmetry(self, raw):
        # reflecting every segment x -> -x commutes with the dual
        def reflect(m):
            return gl_multisegment(Ladder(s.rho, ((-s.rows[0][0], -s.rows[0][1]),)) for s in m)

        m = gl_multisegment(
            Ladder(CuspidalLabel(name), ((2 * s + half, 2 * e + half),))
            for name, s, e, half in raw
        )
        assert mw_dual(reflect(m)) == reflect(mw_dual(m))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1,
                    max_size=6),
           st.integers(2, 4), st.booleans())
    def test_additive_over_unlinked_supports(self, raw1, raw2, gap, half):
        # two families in one label and coset whose supports lie at distance
        # >= 2 share no linked pair, so the dual splits over the sum
        off = 1 if half else 0
        m1 = [seg_twice(2 * s + off, 2 * e + off) for s, e in raw1]
        top = max((max(s, e) for s, e in raw1), default=0)
        shift = top + gap
        m2 = [seg_twice(2 * (s + shift) + off, 2 * (e + shift) + off)
              for s, e in raw2]
        both = gl_multisegment(m1 + m2)
        split = gl_multisegment([*mw_dual(gl_multisegment(m1)), *mw_dual(gl_multisegment(m2))])
        assert mw_dual(both) == split


def seg_twice(s, e, rho=RHO):
    return Ladder(rho, ((s, e),))


def _scan_dual_one_family(segs: list[list[int]]) -> list[tuple[int, int]]:
    # Reference: the earlier chain extraction, which rescans the whole pool
    # at every chain step.
    pool = [[s, e] for s, e in segs]
    out: list[tuple[int, int]] = []
    while pool:
        locked: set[int] = set()
        x = max(s for s, _ in pool)
        cur = x
        prev_end: int | None = None
        while True:
            cands = [
                i
                for i, (s, e) in enumerate(pool)
                if i not in locked and s == cur and (prev_end is None or e < prev_end)
            ]
            if not cands:
                break
            i = max(cands, key=lambda i: pool[i][1])
            prev_end = pool[i][1]
            if pool[i][0] == pool[i][1]:
                pool.pop(i)
                locked = {j if j < i else j - 1 for j in locked}
            else:
                pool[i][0] -= 2
                locked.add(i)
            cur -= 2
        out.append((x, cur + 2))
    return out


def _scan_dual(m: Multisegment) -> Multisegment:
    families = {}
    for s in m:
        a, b = s.rows[0]
        families.setdefault((s.rho, a % 2), []).append([a, b])
    return gl_multisegment(
        Ladder(rho, ((a, b),))
        for (rho, _), rows in families.items()
        for a, b in _scan_dual_one_family(rows)
    )


@st.composite
def _family(draw):
    # one coset; a small span makes many rows share a start (bucket), and
    # the tail repeats some rows verbatim
    off = draw(st.integers(0, 1))
    span = draw(st.integers(2, 10))
    raw = draw(st.lists(st.tuples(st.integers(-span, span), st.integers(0, span)),
                        max_size=30))
    rows = [(2 * top + off, 2 * (top - n) + off) for top, n in raw]
    return rows + rows[:draw(st.integers(0, 10))]


class TestDualWalkAgainstScan:
    @settings(max_examples=400, deadline=None)
    @given(_family())
    def test_family_matches_scan(self, rows):
        assert sorted(_dual_one_family(rows)) == sorted(
            _scan_dual_one_family([list(r) for r in rows]))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_large_two_label_multisegments(self, seed):
        # 250 segments over two labels, mixed cosets and orientations
        rng = random.Random(seed)
        labels = [CuspidalLabel("rho"), CuspidalLabel("sigma")]
        span, maxlen = 12 + 4 * (seed % 3), 8 + 2 * (seed % 2)
        segs = []
        for _ in range(250):
            off = rng.randint(0, 1)
            top = rng.randint(-span, span)
            s, e = 2 * top + off, 2 * (top - rng.randint(0, maxlen)) + off
            if rng.random() < 0.5:
                s, e = e, s
            segs.append(Ladder(rng.choice(labels), ((s, e),)))
        m = gl_multisegment(segs)
        assert mw_dual(m) == _scan_dual(m)
