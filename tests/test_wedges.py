import itertools
import random
from fractions import Fraction

import pytest

from multiseg import (Composition, CuspidalLabel, JordanBlock, Parameter,
                      check_nilpotent, check_subset_homology, check_theta_sign,
                      compositions, j_psi, subset_complex_homology, xi_sign)
from multiseg.wedges import _rank

R = CuspidalLabel("rho")
RD2 = CuspidalLabel("rho2", 2)


def theta(m):
    """theta reverses a composition."""
    return Composition(m.parts[::-1])


class TestXiSign:
    def test_examples(self):
        assert xi_sign(Composition((2, 1)), Composition((3,))) == 1
        assert xi_sign(Composition((1, 1, 1)), Composition((2, 1))) == -1
        assert xi_sign(Composition((1, 1, 1)), Composition((1, 2))) == 1

    def test_rejects_non_refinement(self):
        with pytest.raises(ValueError):
            xi_sign(Composition((1, 1, 1)), Composition((3,)))
        with pytest.raises(ValueError):
            xi_sign(Composition((2, 1)), Composition((1, 2)))

    def test_composition_bookkeeping(self):
        m = Composition((2, 3, 1))
        assert m.n == 6
        assert m.cuts() == frozenset({2, 5})
        assert m.delta() == frozenset({1, 3, 4})
        assert Composition.from_cuts(6, {2, 5}) == m

    def test_composition_count(self):
        assert sum(1 for _ in compositions(5)) == 2 ** 4


class TestNilpotency:
    def test_worked_instance(self):
        m = Composition((3,))
        m1, m2 = Composition((1, 2)), Composition((2, 1))
        big = Composition((1, 1, 1))
        total = (xi_sign(big, m1) * xi_sign(m1, m)
                 + xi_sign(big, m2) * xi_sign(m2, m))
        assert total == 0

    def test_sweep(self):
        for n in range(3, 7):
            assert check_nilpotent(n)


class TestThetaSign:
    def test_worked_instance(self):
        m, mp = Composition((2, 1)), Composition((1, 1, 1))
        j = len(m.parts) - 1
        assert (-1) ** (j // 2) * xi_sign(mp, m) == \
            (-1) ** ((j + 1) // 2) * xi_sign(theta(mp), theta(m))

    def test_small_case(self):
        assert check_theta_sign(2)

    def test_sweep(self):
        for n in range(2, 7):
            assert check_theta_sign(n)


class TestSubsetComplex:
    def test_exact_when_proper(self):
        ranks = subset_complex_homology({1, 2}, set(), {1})
        assert all(r == 0 for r in ranks.values())

    def test_single_term_when_equal(self):
        ranks = subset_complex_homology({1, 2, 3}, {2}, {2})
        assert ranks == {2: 1}

    def test_exhaustive_small(self):
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

    def test_random_larger(self):
        rng = random.Random(13)
        for _ in range(40):
            size = rng.randint(6, 8)
            delta = set(range(1, size + 1))
            dpm = {x for x in delta if rng.random() < 0.6}
            dm = {x for x in dpm if rng.random() < 0.5}
            if dm == dpm:
                continue
            ranks = subset_complex_homology(delta, dm, dpm)
            assert all(r == 0 for r in ranks.values())

    def test_precondition(self):
        with pytest.raises(ValueError):
            subset_complex_homology({1, 2}, {3}, {3})

    def test_check_subset_homology(self):
        assert all(check_subset_homology(size) for size in range(1, 6))

    def test_check_subset_homology_detects_wrong_rank(self, monkeypatch):
        import multiseg.wedges
        real = multiseg.wedges.subset_complex_homology

        def off_by_one(delta, dm, dpm):
            ranks = real(delta, dm, dpm)
            if set(dm) == set(dpm):
                j = len(set(delta)) - len(set(dm))
                ranks[j] += 1
            return ranks

        monkeypatch.setattr(multiseg.wedges, "subset_complex_homology", off_by_one)
        assert not check_subset_homology(3)


class TestCrossModuleDegree:
    def test_degree_matches_j(self):
        # elementary parameters with every block in J_{<=d}: the lone
        # homology degree of the associated one-line complex equals j
        cases = [
            (Parameter([JordanBlock(R, 3, 1), JordanBlock(R, 1, 1)]), R, 3),
            (Parameter([JordanBlock(R, 1, 5), JordanBlock(R, 3, 1)]), R, 5),
            (Parameter([JordanBlock(RD2, 2, 1)]), RD2, 2),
            (Parameter([JordanBlock(R, 1, 4), JordanBlock(R, 2, 1)]), R, 4),
        ]
        for psi, rho, d in cases:
            j0, j = j_psi(psi, rho, d)
            assert j == j0 - 1
            n = psi.n
            delta = frozenset(range(1, n))
            cuts = frozenset(
                k * rho.d for k in range(1, j0)
            )
            dm = delta - cuts
            ranks = subset_complex_homology(delta, dm, dm)
            assert ranks == {len(delta) - len(dm): 1}
            assert len(delta) - len(dm) == j


# References for the cut-set rewrite of the wedge checks: the homology and
# the two check loops as they were written on Compositions, kept verbatim
# except that the homology reads the wedge sign from _xi_rule below.

def _xi_rule(cuts, m):
    """(-1)^#{s in cuts : s > m}: moving e_m past the larger cuts."""
    return (-1) ** sum(1 for s in cuts if s > m)


def reference_subset_complex_homology(delta, dm, dpm):
    delta, dm, dpm = frozenset(delta), frozenset(dm), frozenset(dpm)
    if not (dm <= dpm <= delta):
        raise ValueError("need dm <= dpm <= delta")
    free = sorted(dpm - dm)
    degree = lambda X: len(delta) - len(X)  # noqa: E731
    layers = {}
    for r in range(len(free) + 1):
        for extra in itertools.combinations(free, r):
            X = dm | set(extra)
            layers.setdefault(degree(X), []).append(frozenset(X))
    index = {
        j: {X: i for i, X in enumerate(sorted(basis, key=sorted))}
        for j, basis in layers.items()
    }
    ranks = {}
    dims = {j: len(b) for j, b in layers.items()}
    boundary_rank = {}
    for j in sorted(layers):
        if j + 1 not in layers:
            boundary_rank[j] = 0
            continue
        rows = []
        for X in layers[j]:
            row = {}
            cuts = delta - X
            for m in sorted(X - dm):
                Y = X - {m}
                row[index[j + 1][Y]] = Fraction(_xi_rule(cuts, m))
            rows.append(row)
        boundary_rank[j] = _rank(rows)
    for j in sorted(layers):
        ranks[j] = dims[j] - boundary_rank[j] - boundary_rank.get(j - 1, 0)
    return ranks


def reference_check_nilpotent(n):
    for m in compositions(n):
        free = sorted(m.delta())
        for m1, m2 in itertools.combinations(free, 2):
            big = Composition.from_cuts(n, m.cuts() | {m1, m2})
            mid1 = Composition.from_cuts(n, m.cuts() | {m1})
            mid2 = Composition.from_cuts(n, m.cuts() | {m2})
            if (
                xi_sign(big, mid1) * xi_sign(mid1, m)
                + xi_sign(big, mid2) * xi_sign(mid2, m)
                != 0
            ):
                return False
    return True


def reference_check_theta_sign(n):
    for m in compositions(n):
        j = len(m.parts) - 1
        for new in sorted(m.delta()):
            mp = Composition.from_cuts(n, m.cuts() | {new})
            lhs = (-1) ** (j // 2) * xi_sign(mp, m)
            rhs = (-1) ** ((j + 1) // 2) * xi_sign(theta(mp), theta(m))
            if lhs != rhs:
                return False
    return True


class TestCutSetOracles:
    def test_homology_matches_reference(self):
        # every triple dm <= dpm <= delta = {1..size}, size <= 6: same
        # degrees, same ranks, same key order
        count = 0
        for size in range(7):
            delta = range(1, size + 1)
            for r in range(size + 1):
                for dpm in itertools.combinations(delta, r):
                    for q in range(r + 1):
                        for dm in itertools.combinations(dpm, q):
                            got = subset_complex_homology(delta, dm, dpm)
                            want = reference_subset_complex_homology(delta, dm, dpm)
                            assert list(got.items()) == list(want.items()), (dm, dpm)
                            count += 1
        assert count == 1093

    def test_checks_match_reference(self):
        for n in range(1, 10):
            assert check_nilpotent(n) is reference_check_nilpotent(n) is True
            assert check_theta_sign(n) is reference_check_theta_sign(n) is True

    def test_xi_sign_is_the_cut_rule(self):
        count = 0
        for n in range(1, 8):
            for m in compositions(n):
                for new in m.delta():
                    mp = Composition.from_cuts(n, m.cuts() | {new})
                    assert xi_sign(mp, m) == _xi_rule(m.cuts(), new)
                    count += 1
        assert count == sum((n - 1) * 2 ** (n - 2) for n in range(2, 8))

    @pytest.mark.parametrize("check", [check_nilpotent, check_theta_sign])
    def test_constant_sign_is_caught(self, check, monkeypatch):
        import multiseg.wedges
        assert check(3)
        monkeypatch.setattr(multiseg.wedges, "_xi_from_cuts", lambda cuts, m: 1)
        assert not check(3)
