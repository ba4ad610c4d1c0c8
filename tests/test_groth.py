import random
from collections import Counter
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiseg import (CuspidalLabel, GrothExpr, JordanBlock, Ladder,
                      Parameter, dominate, gl_multisegment,
                      induce, is_discrete_diagonal, jac_left, jac_right, jac_theta,
                      jac_theta_seq, ladder_multisegment, parse_multisegment,
                      render_parameter_file, resolve_general, resolve_param,
                      total_size)
from multiseg.core import Multisegment, _twice
from multiseg.groth import (_commute, canonical_word, commutative_image, peel_terms,
                            theta_terms)
from multiseg.params import _quad_sort_key

from conftest import iterated_jac_theta, reference_jac, reference_jac_theta, signed_sum

R = CuspidalLabel("rho")
D2 = CuspidalLabel("tau", 2)


def hi(x):
    """The point x, written as text or an int, doubled."""
    return _twice(str(x))


def atom(s, e, rho=R):
    return Ladder(rho, ((hi(s), hi(e)),))


def word(*atoms):
    return GrothExpr([(atoms, 1)])


def combine(*scaled):
    """The sum of (k, expression) pairs, as one pair list through the
    constructor."""
    return GrothExpr((w, k * c) for k, e in scaled for w, c in e.terms.items())


class TestInduce:
    def test_zero_absorbs(self):
        assert induce([word(atom(1, 0)), GrothExpr()]).is_zero

    def test_coefficients_multiply(self):
        e = induce([signed_sum((2, atom(1, 1))), signed_sum((3, atom(5, 5)))])
        assert e == signed_sum((6, atom(1, 1), atom(5, 5)))

    def test_distributes(self):
        a, b, c = word(atom(0, 0)), word(atom(1, 1)), word(atom(5, 5))
        lhs = induce([combine((1, a), (-1, b)), c])
        assert lhs == combine((1, induce([a, c])), (-1, induce([b, c])))

    def test_sizes_add(self):
        e = induce([word(atom(1, 0)), word(atom(3, 3))])
        (w,) = e.terms
        assert total_size(w) == 3

    def test_empty_product_is_unit(self):
        assert induce([]) == GrothExpr([((), 1)])


class TestCanonicalWords:
    def test_unlinked_atoms_sort(self):
        assert word(atom(5, 5), atom(0, 0)) == word(atom(0, 0), atom(5, 5))

    def test_linked_atoms_keep_order(self):
        assert word(atom(1, 0), atom(0, 0)) != word(atom(0, 0), atom(1, 0))

    def test_adjacent_support_blocks_commutation(self):
        assert word(atom(1, 1), atom(2, 2)) != word(atom(2, 2), atom(1, 1))

    def test_different_labels_commute(self):
        assert word(atom(1, 0), atom(1, 0, D2)) == word(atom(1, 0, D2), atom(1, 0))

    def test_canonical_idempotent(self):
        rng = random.Random(3)
        for _ in range(100):
            atoms = tuple(
                atom(rng.randint(-4, 4), rng.randint(-4, 4))
                for _ in range(rng.randint(0, 5))
            )
            once = canonical_word(atoms)
            assert canonical_word(once) == once

    def test_induce_associative_up_to_canonical(self):
        a, c = word(atom(2, 0)), word(atom(-3, -3))
        b = signed_sum((1, atom(5, 4)), (-1, atom(7, 7)))
        assert induce([induce([a, b]), c]) == induce([a, induce([b, c])])

    def test_orientation_distinguishes_atoms(self):
        assert word(atom(1, -1)) != word(atom(-1, 1))

    def test_matches_brute_force_commutation_class(self):
        # Oracle: enumerate the whole commutation class by adjacent swaps,
        # deciding commutation from the printed rows alone, and take the
        # least word by atom sort key.
        rng = random.Random(11)
        for _ in range(3000):
            atoms = tuple(_random_atom(rng) for _ in range(rng.randint(1, 6)))
            pts = [_points(a.to_json()) for a in atoms]
            linked = [[pts[i][0] == pts[j][0] and any(
                abs(x - y) in (0, 2) for x in pts[i][1] for y in pts[j][1])
                for j in range(len(atoms))] for i in range(len(atoms))]
            start = tuple(range(len(atoms)))
            seen = {start}
            todo = [start]
            while todo:
                w = todo.pop()
                for k in range(len(w) - 1):
                    if linked[w[k]][w[k + 1]]:
                        continue
                    v = w[:k] + (w[k + 1], w[k]) + w[k + 2:]
                    if v not in seen:
                        seen.add(v)
                        todo.append(v)
            keys = [a.key for a in atoms]
            least = min(seen, key=lambda w: [keys[i] for i in w])
            assert canonical_word(atoms) == tuple(atoms[i] for i in least), atoms

    def test_long_words_stay_in_the_commutation_class(self):
        # Words of 7-10 atoms, too long to enumerate their class: check the
        # properties that pin a normal form of the trace monoid, with
        # linkage read from the printed rows alone.
        rng = random.Random(17)
        for _ in range(400):
            atoms = [_random_atom(rng) for _ in range(rng.randint(7, 10))]
            for _ in range(rng.randint(0, 2)):
                atoms.insert(rng.randint(0, len(atoms)),
                             Ladder(rng.choice([R, D2]), ()))
            atoms = tuple(atoms)
            out = canonical_word(atoms)
            nonempty = [a for a in atoms if a.rows]
            # (a) a permutation of the nonempty atoms
            assert Counter(out) == Counter(nonempty), atoms
            # (b) linked atoms keep their order; equal atoms are linked, so
            # matching each output atom to the first unused equal input atom
            # recovers the permutation
            pts = [_points(a.to_json()) for a in nonempty]
            linked = [[_linked(p, q) for q in pts] for p in pts]
            unused = list(range(len(nonempty)))
            pos = [0] * len(nonempty)
            for k, a in enumerate(out):
                i = next(i for i in unused if nonempty[i] == a)
                unused.remove(i)
                pos[i] = k
            for i in range(len(nonempty)):
                for j in range(i + 1, len(nonempty)):
                    if linked[i][j]:
                        assert pos[i] < pos[j], atoms
            # (c) unchanged by swaps of adjacent commuting atoms
            w = list(range(len(nonempty)))
            for _ in range(30):
                k = rng.randrange(len(w) - 1)
                if not linked[w[k]][w[k + 1]]:
                    w[k], w[k + 1] = w[k + 1], w[k]
            assert canonical_word(tuple(nonempty[i] for i in w)) == out, atoms
            # (d) idempotent
            assert canonical_word(out) == out


def _heap_canonical_word(atoms) -> tuple[Ladder, ...]:
    """Reference: the least topological order of the dependence graph (an
    edge j -> i for each linked pair j < i), by a Kahn sort on a heap."""
    word = [a for a in atoms if a.size > 0]
    after = [[] for _ in word]
    blockers = [0] * len(word)
    for i, a in enumerate(word):
        for j in range(i):
            if not _commute(word[j], a):
                after[j].append(i)
                blockers[i] += 1
    ready = [(a.key, i) for i, a in enumerate(word) if not blockers[i]]
    heapify(ready)
    out = []
    while ready:
        i = heappop(ready)[1]
        out.append(word[i])
        for j in after[i]:
            blockers[j] -= 1
            if not blockers[j]:
                heappush(ready, (word[j].key, j))
    return tuple(out)


@st.composite
def _ladders(draw):
    """Ladders of 0-3 rows (0: the empty ladder) over either label and
    either coset of Z; one row may run either way."""
    rho = draw(st.sampled_from([R, D2]))
    off = draw(st.integers(0, 1))
    k = draw(st.integers(0, 3))
    pts = st.sets(st.integers(-4, 4), min_size=k, max_size=k)
    starts = sorted(draw(pts), reverse=True)
    ends = sorted(draw(pts), reverse=True)
    return Ladder(rho, tuple((2 * s + off, 2 * e + off) for s, e in zip(starts, ends)))


class TestInsertionAgainstHeapSort:
    @settings(max_examples=600, deadline=None)
    @given(st.lists(_ladders(), max_size=14))
    def test_random_words(self, atoms):
        assert canonical_word(atoms) == _heap_canonical_word(atoms)

    def test_every_call_of_a_peel_chain(self, monkeypatch):
        # {(3,3)x2,(2,2)}: 21 domination peel points over thousands of words.
        import multiseg.groth as groth
        seen = set()

        def recording(atoms):
            seen.add(tuple(atoms))
            return canonical_word(atoms)

        monkeypatch.setattr(groth, "canonical_word", recording)
        psi = Parameter([JordanBlock(R, 3, 3), JordanBlock(R, 3, 3),
                         JordanBlock(R, 2, 2)])
        resolve_general(psi)
        assert len(seen) > 1000
        for atoms in seen:
            assert canonical_word(atoms) == _heap_canonical_word(atoms), atoms


class TestSortedTermsByRank:
    """sorted_terms compares words as tuples of per-atom ranks, from one
    sort of the distinct atoms; the reference compares the tuples of the
    atoms' keys."""

    @staticmethod
    def _by_keys(e):
        return sorted(e.terms.items(),
                      key=lambda wc: (total_size(wc[0]), tuple(a.key for a in wc[0])))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.lists(_ladders(), max_size=5),
                              st.integers(-3, 3).filter(bool)), max_size=8))
    def test_random_expressions(self, pairs):
        e = GrothExpr((canonical_word(tuple(w)), c) for w, c in pairs)
        assert e.sorted_terms() == self._by_keys(e)

    def test_heavy_resolution(self):
        psi = Parameter([JordanBlock(R, 3, 3), JordanBlock(R, 3, 3),
                         JordanBlock(R, 2, 2)])
        e = resolve_general(psi).expr
        assert len(e.terms) > 4000
        assert e.sorted_terms() == self._by_keys(e)


def _linked(p, q) -> bool:
    """Linkage of two (label, doubled points) pairs from _points."""
    return p[0] == q[0] and any(abs(x - y) in (0, 2) for x in p[1] for y in q[1])


class TestCommute:
    def test_matches_point_set_linkage(self):
        rng = random.Random(23)
        for _ in range(5000):
            a, b = _random_atom(rng), _random_atom(rng)
            want = not _linked(_points(a.to_json()), _points(b.to_json()))
            assert _commute(a, b) == want, (a, b)
            assert _commute(b, a) == want, (a, b)

    def test_canonical_word_tests_each_pair_once(self, monkeypatch):
        import multiseg.groth as groth
        calls = []
        monkeypatch.setattr(groth, "_commute",
                            lambda a, b: calls.append(1) or _commute(a, b))
        rng = random.Random(29)
        for _ in range(200):
            atoms = tuple(_random_atom(rng) for _ in range(rng.randint(0, 10)))
            calls.clear()
            groth.canonical_word(atoms)
            assert len(calls) <= len(atoms) * (len(atoms) - 1) // 2

    def test_canonical_input_costs_one_test_per_atom(self, monkeypatch):
        # A chain of atoms each linked to its left neighbour, with falling
        # sort keys: the only order of its class, so already canonical.
        import multiseg.groth as groth
        calls = []
        monkeypatch.setattr(groth, "_commute",
                            lambda a, b: calls.append(1) or _commute(a, b))
        for k in range(13):
            atoms = tuple(atom(12 - i, 12 - i) for i in range(k))
            calls.clear()
            assert groth.canonical_word(atoms) == atoms
            assert len(calls) == max(k - 1, 0)


class TestConstructorCanonicalizes:
    """GrothExpr canonicalizes every word it is given, so the words of one
    commutation class, in whatever order the caller wrote them, are one
    term."""

    def test_commuting_pair_cancels(self):
        x, y = Ladder(R, ((10, 10),)), Ladder(R, ((0, 0),))  # [5..5] and [0..0]
        e = GrothExpr([((x, y), 1), ((y, x), -1)])
        assert e.is_zero
        assert str(e) == "0"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ladders(), max_size=10), st.integers(0, 2**32))
    def test_shuffled_commuting_atoms_give_an_equal_expression(self, atoms, seed):
        # a random word of the class: repeatedly take any atom that no atom
        # still before it is linked to (linkage read from the JSON points)
        rng, rest, shuffled = random.Random(seed), list(atoms), []
        while rest:
            pts = [_points(a.to_json()) for a in rest]
            free = [i for i in range(len(rest))
                    if not any(_linked(pts[j], pts[i]) for j in range(i))]
            shuffled.append(rest.pop(rng.choice(free)))
        assert GrothExpr([(tuple(shuffled), 2)]) == GrothExpr([(tuple(atoms), 2)])
        assert GrothExpr([(tuple(shuffled), 1), (tuple(atoms), -1)]).is_zero


# three labels named rho that differ in d, or in eta and chi
_SHARED_NAME = (CuspidalLabel("rho"), CuspidalLabel("rho", 2), CuspidalLabel("rho", 1, 1, -1))


@st.composite
def _shared_name_cases(draw):
    """A random expression of short words of segments over the three labels
    named rho, and a point (label, t), t doubled: an end of one of its rows
    three times in four, else any point; the label is drawn apart from the
    point, so it often names a row of another label."""
    seg = st.builds(lambda rho, off, s, n: Ladder(rho, ((2 * s + off, 2 * (s - n) + off),)),
                    st.sampled_from(_SHARED_NAME), st.integers(0, 1), st.integers(-3, 3),
                    st.integers(-2, 2))
    words = draw(st.lists(st.lists(seg, min_size=1, max_size=3), max_size=3))
    e = GrothExpr((canonical_word(tuple(w)), draw(st.sampled_from([1, -1, 2]))) for w in words)
    ends = sorted({t for w in e.terms for a in w for row in a.rows for t in row})
    if ends and draw(st.integers(0, 3)):
        t = draw(st.sampled_from(ends))
    else:
        t = draw(st.integers(-7, 7))
    return e, draw(st.sampled_from(_SHARED_NAME)), t


class TestLabelsSharingAName:
    """Two labels with one name and different data are two cuspidal lines:
    commutation, the Jacquet peels and the print order read the label's
    full key, never its name alone."""

    RHO_D1, RHO_D2 = CuspidalLabel("rho", 1), CuspidalLabel("rho", 2)
    RHO_PLUS, RHO_MINUS = CuspidalLabel("rho", 1, 1), CuspidalLabel("rho", 1, -1)

    def test_atoms_over_different_labels_commute(self):
        x, y = atom(1, 0, self.RHO_D1), atom(2, 2, self.RHO_D2)
        assert _commute(x, y) and _commute(y, x)
        assert canonical_word((x, y)) == canonical_word((y, x))
        assert combine((1, word(x, y)), (-1, word(y, x))).is_zero

    def test_jac_left_peels_its_own_label_only(self):
        e = word(atom(2, 0, self.RHO_D2), atom(5, 5, self.RHO_D1))
        assert jac_left(self.RHO_D1, hi(2), e).is_zero
        assert jac_left(self.RHO_D2, hi(2), e) == word(atom(1, 0, self.RHO_D2),
                                                       atom(5, 5, self.RHO_D1))

    def test_print_order_ignores_insertion_order(self):
        a, b = atom(1, 0, self.RHO_PLUS), atom(1, 0, self.RHO_MINUS)
        one = GrothExpr([((a,), 1), ((b,), -1)])
        two = GrothExpr([((b,), -1), ((a,), 1)])
        assert one.sorted_terms() == two.sorted_terms()
        assert str(one) == str(two) == "-[1..0]rho +[1..0]rho"

    def _psi(self):
        """One (3,1) block on each of the two labels named rho."""
        return Parameter([JordanBlock(self.RHO_D2, 3, 1), JordanBlock(self.RHO_D1, 3, 1)])

    def test_blocks_sort_and_label_by_key(self):
        psi = self._psi()
        assert [b.rho for b in psi.blocks] == [self.RHO_D1, self.RHO_D2]
        assert psi.labels() == (self.RHO_D1, self.RHO_D2)
        q1, q2 = psi.quads()
        assert _quad_sort_key(q1) < _quad_sort_key(q2)

    def test_blocks_are_discrete_diagonal_and_resolve(self):
        psi = self._psi()
        assert is_discrete_diagonal(psi)
        want = word(atom(1, -1, self.RHO_D1), atom(1, -1, self.RHO_D2))
        assert resolve_param(psi).expr == want
        assert resolve_general(psi).expr == want

    def test_dominate_keeps_the_families_apart(self):
        psi = self._psi()
        assert dominate(psi) == (psi, ())
        # the staircase shifts every block, each label's as if it were alone
        alone = [dominate(Parameter([b]), "staircase") for b in psi.blocks]
        assert all(peel for _, peel in alone)
        assert dominate(psi, "staircase") == (
            Parameter(b for tilde, _ in alone for b in tilde.blocks),
            tuple(p for _, peel in alone for p in peel))

    def test_parameter_file_refuses_them(self):
        with pytest.raises(ValueError, match="two labels share the name 'rho'"):
            render_parameter_file(self._psi())

    @settings(max_examples=200, deadline=None)
    @given(_shared_name_cases())
    @example((word(atom(2, 0, RHO_D2), atom(5, 5, RHO_D1)), RHO_D1, hi(2)))
    def test_peels_against_the_reference(self, case):
        e, rho, t = case
        assert jac_left(rho, t, e) == reference_jac(True, rho, t, e)
        assert jac_right(rho, t, e) == reference_jac(False, rho, t, e)
        assert jac_theta(rho, t, e) == reference_jac_theta(rho, t, e)


def _random_atom(rng: random.Random):
    rho = rng.choice([R, D2])
    off = rng.randint(0, 1)
    if rng.random() < 0.5:
        return Ladder(rho, ((2 * rng.randint(-3, 3) + off, 2 * rng.randint(-3, 3) + off),))
    k = rng.randint(2, 3)
    starts = sorted(rng.sample(range(-4, 5), k), reverse=True)
    ends = sorted(rng.sample(range(-4, 5), k), reverse=True)
    return Ladder(rho, tuple((2 * s + off, 2 * e + off) for s, e in zip(starts, ends)))


def _points(j):
    """(label, doubled points) of an atom's JSON form.  Atoms of one label
    link when two of their points lie at distance 0 or 1; points of
    different cosets of Z never link."""
    rows = j["rows"] if "rows" in j else [[j["start"], j["end"]]]
    out = set()
    for s, e in rows:
        s, e = _twice(s), _twice(e)
        out.update(range(min(s, e), max(s, e) + 1, 2))
    return j["rho"], out


class TestJacquet:
    def test_left_peel(self):
        assert jac_left(R, hi(2), word(atom(2, 0))) == word(atom(1, 0))

    def test_left_miss(self):
        assert jac_left(R, hi(1), word(atom(2, 0))).is_zero

    def test_atom_vanishes_to_empty_word(self):
        assert jac_left(R, hi(0), word(atom(0, 0))) == GrothExpr([((), 1)])

    def test_worked_guide_example(self):
        st4, sp2 = atom("3/2", "-3/2"), atom("-1/2", "1/2")
        got = jac_theta(R, hi("3/2"), word(st4, sp2))
        assert got == word(atom("1/2", "-1/2"), sp2)

    def test_right_peel(self):
        assert jac_right(R, hi(0), word(atom(2, 0))) == word(atom(2, 1))
        assert jac_right(R, hi(2), word(atom(2, 0))).is_zero

    def test_theta_seq_applies_in_order(self):
        e = word(atom("3/2", "-3/2"))
        got = jac_theta_seq([(R, hi("3/2")), (R, hi("1/2"))], e)
        assert got == GrothExpr([((), 1)])
        assert jac_theta_seq([(R, hi("1/2")), (R, hi("3/2"))], e).is_zero

    def test_theta_on_zero(self):
        assert jac_theta(R, hi(1), GrothExpr()).is_zero

    def test_theta_matches_trunc_ladder(self):
        from multiseg import Quad, trunc_ladder
        q = Quad(R, hi(3), hi(0), 1)
        base = word(ladder_multisegment(Quad(R, hi(3), hi(2), 1)))
        got = jac_theta(R, hi(2), base)
        assert got == word(trunc_ladder(q, hi(2)))

    def test_size_drop(self):
        rng = random.Random(8)
        for _ in range(50):
            e = _random_expr(rng)
            for t in range(-6, 7):
                for out, drop in ((jac_left(R, t, e), 1), (jac_theta(R, t, e), 2)):
                    for w in out.terms:
                        assert total_size(w) % 1 == 0
                        # every surviving term lost exactly `drop` points
                        assert any(
                            total_size(v) - total_size(w) == drop for v in e.terms
                        )

    def test_support_drop(self):
        e = word(atom(2, 0), atom(1, 1))
        out = jac_left(R, hi(2), e)
        (w,) = out.terms
        from multiseg import support
        before = support(gl_multisegment(next(iter(e.terms))))
        after = support(gl_multisegment(w))
        assert before - after == {(R, hi(2)): 1}

    @settings(max_examples=120, deadline=None)
    @given(st.integers(-4, 4), st.integers(-4, 4), st.data())
    def test_commutation_rule(self, xt, yt, data):
        if abs(xt - yt) == 1:
            return
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        e = _random_expr(rng)
        x, y = 2 * xt, 2 * yt
        assert jac_left(R, x, jac_left(R, y, e)) == jac_left(R, y, jac_left(R, x, e))
        assert jac_theta(R, x, jac_theta(R, y, e)) == jac_theta(R, y, jac_theta(R, x, e))


def _random_expr(rng: random.Random) -> GrothExpr:
    terms = []
    for _ in range(rng.randint(1, 3)):
        atoms = [atom(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
        terms.append((rng.choice([1, -1, 2]), *atoms))
    return signed_sum(*terms)


class TestSizesAndSupports:
    def test_total_size_with_d(self):
        w = (atom(1, 0, D2),)
        assert total_size(w) == 4

    def test_worked_size(self):
        w = (atom("1/2", "-1/2"), atom("-1/2", "1/2"))
        assert total_size(w) == 4

    def test_empty_word(self):
        assert total_size(()) == 0
        assert gl_multisegment(()) == Multisegment()

    def test_gl_multisegment_of_ladder(self):
        from multiseg import Quad
        a = ladder_multisegment(Quad(R, hi(1), hi(1), 1))
        assert gl_multisegment((a,)) == parse_multisegment("{[1..-1]rho}")

    def test_json_is_sorted_and_stable(self):
        e = signed_sum((1, atom(1, 0)), (-2, atom(0, 0), atom(2, 2)))
        assert e.to_json() == e.to_json()
        # equal sizes, so the word starting at the smaller atom comes first
        assert [t["coeff"] for t in e.to_json()] == [-2, 1]


class TestCommutativeImage:
    def test_collapses_order(self):
        e1 = word(atom(1, 0), atom(0, 0))
        e2 = word(atom(0, 0), atom(1, 0))
        assert e1 != e2
        assert commutative_image(e1) == commutative_image(e2)

    def test_counts_multiplicity(self):
        a, b = atom(1, 0), atom(5, 5)
        e = signed_sum((1, a, b, a), (-1, a, b), (3, b, a, a))
        assert commutative_image(e) == {
            frozenset({(a, 2), (b, 1)}): 4, frozenset({(a, 1), (b, 1)}): -1}



def _random_ladder(rng: random.Random):
    """Full or truncated tableau of a random quad (A <= 5, either zeta)."""
    from multiseg import Quad, trunc_ladder
    zeta = rng.choice([1, -1])
    B2 = rng.randint(0, 6)
    A2 = B2 + 2 * rng.randint(0, 4)
    if B2 == 0 and zeta == -1:
        zeta = 1
    q = Quad(R, A2, B2, zeta)
    if A2 >= B2 + 4 and rng.random() < 0.6:
        return trunc_ladder(q, rng.randrange(B2 + 2, A2 + 1, 2))
    return ladder_multisegment(q)


class TestJacquetMatchesLadderPeel:
    """The word-level Jac_x of a one-factor word is the ladder peel."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6))
    def test_left_and_right(self, seed):
        from multiseg import peel_left, peel_right
        rng = random.Random(seed)
        L = _random_ladder(rng)
        for t in range(-12, 13):
            for jac, peel in ((jac_left, peel_left), (jac_right, peel_right)):
                got = jac(R, t, word(L))
                peeled = peel(t, L)
                want = GrothExpr() if peeled is None else word(peeled)
                assert got == want, (str(L), t, jac.__name__)


@st.composite
def _theta_segments(draw):
    """Segments [s..-s], which a run of theta-peels shrinks to the middle."""
    s = 2 * draw(st.integers(-4, 4)) + draw(st.integers(0, 1))
    return Ladder(draw(st.sampled_from([R, D2])), ((s, -s),))


@st.composite
def _chains(draw):
    """A random expression and 2-6 points along which jac_theta mostly keeps
    some term: each point is a row start, in the expression reached so far,
    whose theta-peel is nonzero, or one time in six any point.  The chain
    stops early when no row start is live."""
    atoms = st.one_of(_theta_segments(), _theta_segments(), _ladders())
    words = draw(st.lists(st.lists(atoms, max_size=4), min_size=1, max_size=4))
    e = GrothExpr((canonical_word(w), draw(st.sampled_from([1, -1, 2]))) for w in words)
    cur, points = e, []
    for _ in range(draw(st.integers(2, 6))):
        starts = {(a.rho, s) for w in cur.terms for a in w for s, _ in a.rows}
        live = sorted((p for p in starts if not jac_theta(*p, cur).is_zero),
                      key=lambda p: (p[0].name, p[1]))
        if not live:
            break
        if draw(st.integers(0, 5)):
            p = draw(st.sampled_from(live))
        else:
            p = (draw(st.sampled_from([R, D2])), draw(st.integers(-9, 9)))
        points.append(p)
        cur = jac_theta(*p, cur)
    return e, points


class TestThetaSeqChain:
    """jac_theta_seq runs a whole chain on positional words and canonicalizes
    once; iterated jac_theta is the reference."""

    def test_empty_points_or_zero_return_e(self):
        e = word(atom(1, 0))
        assert jac_theta_seq([], e) is e
        assert jac_theta_seq(iter(()), e) is e
        zero = GrothExpr()
        assert jac_theta_seq([(R, hi(1))], zero) is zero

    def test_nothing_peels(self):
        e = word(atom(1, -1), atom(5, 5))
        assert jac_theta_seq([(R, hi(3))], e).is_zero
        assert jac_theta_seq([(D2, hi(1))], e).is_zero

    def test_segment_emptied_mid_chain(self):
        # x = 1 empties [1..1] and [-1..-1]; the emptied atoms keep their
        # places and never peel again, not even at the last x = 1, while
        # [3..-3] is peeled down to [0..0]
        e = word(atom(1, 1), atom(-1, -1), atom(3, -3))
        points = [(R, hi(x)) for x in (1, 3, 2, 1)]
        got = jac_theta_seq(points, e)
        assert got == word(atom(0, 0)) == iterated_jac_theta(points, e)

    def test_same_atom_twice(self):
        a = atom(1, -1)
        e = word(a, a)
        want = signed_sum((1, atom(0, 0), a), (1, atom(0, -1), atom(1, 0)),
                          (1, atom(1, 0), atom(0, -1)), (1, a, atom(0, 0)))
        assert jac_theta_seq([(R, hi(1))], e) == want
        points = [(R, hi(1)), (R, hi(0))]
        assert jac_theta_seq(points, e) == iterated_jac_theta(points, e)

    def test_peel_onto_an_atom_already_held(self):
        held = atom(1, -2)
        # the peel at 2 turns [2..-2] into [1..-2], the atom already held
        e = signed_sum((1, atom(2, -2), atom(6, 6)), (-1, atom(9, 9), atom(2, -2)),
                       (2, held, atom(4, 4)))
        assert peel_terms(e.terms, R, 4, True)[(held, atom(6, 6))] == 1
        points = [(R, hi(2)), (R, hi(1))]
        got = jac_theta_seq(points, e)
        assert not got.is_zero
        assert got == iterated_jac_theta(points, e)

    def test_terms_cancel_partway(self):
        # after x = 1 the first two words both give [0..0][5..-5], but their
        # positional forms differ (the second keeps an emptied [-1..-1]), so
        # they cancel only when the chain canonicalizes at the end
        tail = atom(5, -5)
        cancelling = signed_sum((1, atom(1, -1), tail),
                                (-1, atom(1, 0), atom(-1, -1), tail))
        points = [(R, hi(1)), (R, hi(5))]
        assert jac_theta(R, hi(1), cancelling).is_zero
        assert jac_theta_seq(points, cancelling).is_zero
        e = combine((1, cancelling), (3, word(atom(1, -1), atom(3, 3), tail)))
        want = signed_sum((3, atom(0, 0), atom(3, 3), atom(4, -4)))
        assert jac_theta_seq(points, e) == want

    def test_points_as_generator(self):
        e = word(atom(3, -3), atom(-1, 1))
        points = [(R, hi(x)) for x in (3, 2, 1)]
        got = jac_theta_seq((p for p in points), e)
        assert not got.is_zero
        assert got == iterated_jac_theta(points, e)

    @settings(max_examples=300, deadline=None)
    @given(_chains())
    def test_random_chains(self, chain):
        e, points = chain
        assert jac_theta_seq(points, e) == iterated_jac_theta(points, e)


@st.composite
def _peel_cases(draw):
    """A random expression, possibly zero, and a point (rho, t), t doubled: an end of
    one of its rows, or one time in four any point.  Atoms are drawn from
    short segments (which a peel empties), theta segments and ladders."""
    short = st.builds(lambda s, rho: Ladder(rho, ((s, s),)),
                      st.integers(-6, 6), st.sampled_from([R, D2]))
    atoms = st.one_of(short, _theta_segments(), _ladders())
    words = draw(st.lists(st.lists(atoms, max_size=4), max_size=4))
    e = GrothExpr((canonical_word(tuple(w)), draw(st.sampled_from([1, -1, 2]))) for w in words)
    ends = sorted({(a.rho.name, t) for w in e.terms for a in w for row in a.rows for t in row})
    if ends and draw(st.integers(0, 3)):
        name, t = draw(st.sampled_from(ends))
        rho = R if name == R.name else D2
    else:
        rho, t = draw(st.sampled_from([R, D2])), draw(st.integers(-9, 9))
    return e, rho, t


# [1..1] and [-1..-1] are emptied at x = 1: by the left peel, the right
# peel and the two sides of the theta-peel
_EMPTIED = (word(atom(1, 1), atom(-1, -1), atom(5, 5)), R, hi(1))
# the peel at 2 turns [2..-2] into [1..-2], an atom already held
_HELD = (signed_sum((1, atom(2, -2), atom(6, 6)), (-1, atom(9, 9), atom(2, -2)),
                    (2, atom(1, -2), atom(4, 4))), R, hi(2))
# the left peel at 1 gives [0..0] with and without an emptied [1..1]
# before it: positional words that differ, cancelling once canonical
_CANCELLING = (signed_sum((1, atom(1, 1), atom(0, 0)), (-1, atom(1, 0))), R, hi(1))


class TestOnePointPeelsAgainstReference:
    """jac_left, jac_right and jac_theta, which peel positional words and
    canonicalize once, equal the reference peel of conftest, which
    canonicalizes every word it makes."""

    @settings(max_examples=300, deadline=None)
    @given(_peel_cases())
    @example((GrothExpr(), R, hi(1)))
    @example(_EMPTIED)
    @example(_HELD)
    @example(_CANCELLING)
    def test_random_expressions(self, case):
        e, rho, t = case
        assert jac_left(rho, t, e) == reference_jac(True, rho, t, e)
        assert jac_right(rho, t, e) == reference_jac(False, rho, t, e)
        assert jac_theta(rho, t, e) == reference_jac_theta(rho, t, e)

    def test_examples_reach_their_edge(self):
        e, rho, t = _EMPTIED
        for peeled in (peel_terms(e.terms, rho, t, True), peel_terms(e.terms, rho, t, False),
                       theta_terms(e.terms, rho, t)):
            assert any(not a.rows for w in peeled for a in w)
        assert jac_theta(rho, t, e) == word(atom(5, 5))
        e, rho, t = _HELD
        held = atom(1, -2)
        assert any(held in w for w in e.terms)
        assert any(held in w for w in peel_terms(e.terms, rho, t, True))
        assert not jac_theta(rho, t, e).is_zero
        e, rho, t = _CANCELLING
        assert len(peel_terms(e.terms, rho, t, True)) == 2
        assert jac_left(rho, t, e).is_zero
