"""Compositions of n, wedge-basis signs, and subset-complex homology.

A composition M of n is identified with its cut set S(M) inside {1..n-1};
Delta^M is the complement.  The wedge element e^M strings the cuts in
increasing order, and xi(M', M) compares e^{M'} with e^M ^ e_m for a
one-step refinement.  Homology ranks are exact (integer elimination).
"""

from __future__ import annotations

from itertools import combinations

from .core import Frozen


class Composition(Frozen):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if not parts or any(p < 1 for p in parts):
            raise ValueError(f"composition parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)

    def _astuple(self) -> tuple:
        return (self.parts,)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def cuts(self) -> frozenset[int]:
        out, acc = [], 0
        for p in self.parts[:-1]:
            acc += p
            out.append(acc)
        return frozenset(out)

    def delta(self) -> frozenset[int]:
        return frozenset(range(1, self.n)) - self.cuts()

    @staticmethod
    def from_cuts(n: int, cuts) -> "Composition":
        pts = sorted(cuts)
        if any(not 1 <= c <= n - 1 for c in pts):
            raise ValueError(f"cuts must lie in 1..{n - 1}")
        bounds = [0] + pts + [n]
        return Composition(tuple(b - a for a, b in zip(bounds, bounds[1:])))


def compositions(n: int):
    for r in range(n):
        for cuts in combinations(range(1, n), r):
            yield Composition.from_cuts(n, cuts)


def _xi_from_cuts(cuts: frozenset[int], m: int) -> int:
    return 1 if sum(1 for s in cuts if s > m) % 2 == 0 else -1


def xi_sign(mp: Composition, m: Composition) -> int:
    """Sign in e^{M'} = xi * e^M ^ e_m for a one-step refinement M' of M."""
    if mp.n != m.n:
        raise ValueError("compositions of different n")
    extra = mp.cuts() - m.cuts()
    if len(extra) != 1 or not m.cuts() <= mp.cuts():
        raise ValueError(f"{mp.parts} is not a one-step refinement of {m.parts}")
    (new,) = extra
    return _xi_from_cuts(m.cuts(), new)


def check_nilpotent(n: int) -> bool:
    """xi(M'',M'_1)xi(M'_1,M) + xi(M'',M'_2)xi(M'_2,M) = 0 for all 2-step chains,
    with M'_i = M + {m_i} and M'' = M + {m_1, m_2} as cut sets."""
    for m in compositions(n):
        cuts = m.cuts()
        for m1, m2 in combinations(sorted(m.delta()), 2):
            if (
                _xi_from_cuts(cuts | {m1}, m2) * _xi_from_cuts(cuts, m1)
                + _xi_from_cuts(cuts | {m2}, m1) * _xi_from_cuts(cuts, m2)
                != 0
            ):
                return False
    return True


def check_theta_sign(n: int) -> bool:
    """(-1)^[j/2] xi(M',M) = (-1)^[(j+1)/2] xi(theta M', theta M) with theta
    reversing compositions, so mapping a cut s to n - s, and j the number of cuts of M."""
    for m in compositions(n):
        cuts = m.cuts()
        j = len(cuts)
        flipped = frozenset(n - s for s in cuts)
        for new in m.delta():
            lhs = (-1) ** (j // 2) * _xi_from_cuts(cuts, new)
            rhs = (-1) ** ((j + 1) // 2) * _xi_from_cuts(flipped, n - new)
            if lhs != rhs:
                return False
    return True


def check_subset_homology(size: int) -> bool:
    """Homology dichotomy on delta = {1..size}: for all dm <= dpm <= delta the
    subset complex is exact when dm is proper in dpm, and otherwise has a
    single rank-1 group in degree |delta| - |dm|."""
    delta = range(1, size + 1)
    for dpm_size in range(size + 1):
        for dpm in combinations(delta, dpm_size):
            for dm_size in range(dpm_size + 1):
                for dm in combinations(dpm, dm_size):
                    ranks = subset_complex_homology(delta, dm, dpm)
                    nonzero = {j: r for j, r in ranks.items() if r != 0}
                    expected = {size - dm_size: 1} if dm == dpm else {}
                    if nonzero != expected:
                        return False
    return True


def _rank(rows: list[dict[int, int]]) -> int:
    # Fraction-free elimination on sparse rows: a row becomes a*row - b*pivot,
    # which over an integral domain keeps the rank it has over Q.
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row
                break
            piv = pivots[c]
            a, b = piv[c], row[c]
            row = {k: v for k in row.keys() | piv.keys()
                   if (v := a * row.get(k, 0) - b * piv.get(k, 0))}
    return len(pivots)


def subset_complex_homology(delta, dm, dpm) -> dict[int, int]:
    """Homology ranks of the complex whose degree-j term is spanned by the
    sets X with dm <= X <= dpm and |X| = |delta| - j, with differential
    X -> X - {m} weighted by the wedge sign.

    Exact everywhere when dm is proper in dpm; a single rank-1 group in
    degree |delta| - |dm| when dm = dpm.
    """
    delta, dm, dpm = frozenset(delta), frozenset(dm), frozenset(dpm)
    if not (dm <= dpm <= delta):
        raise ValueError("need dm <= dpm <= delta")
    free = sorted(dpm - dm)
    top = len(delta) - len(dm)
    # layers[r] spans degree top - r: the sets dm + r elements of free
    layers = [[dm | set(extra) for extra in combinations(free, r)]
              for r in range(len(free) + 1)]
    col = {X: i for layer in layers for i, X in enumerate(layer)}
    # rank[r]: rank of the differential from layers[r] to layers[r - 1]
    rank = {
        r: _rank([{col[X - {m}]: _xi_from_cuts(delta - X, m) for m in X - dm}
                  for X in layers[r]])
        for r in range(1, len(layers))
    }
    return {top - r: len(layers[r]) - rank.get(r, 0) - rank.get(r + 1, 0)
            for r in reversed(range(len(layers)))}
