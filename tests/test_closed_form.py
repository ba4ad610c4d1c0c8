"""A closed form for the resolution, as an independent oracle.

A block with quad (A, B, zeta) and A > B stands for a Speh representation,
and Tadić's determinantal formula writes its class as a signed sum over S_k
of products of segments, k = A - B + 1 (Tadić 1995; Lapid–Mínguez,
Amer. J. Math. 2014).  Its twisted version, which the resolver computes, is
a sum over the involutions u of S_k.  With w = w0.u (w0 the longest
element) and rows indexed 0..k-1 from the bottom:

- row i is the segment [zeta(B+i) .. zeta(w(i)-A)]; a row shorter than
  empty kills the term, and an empty row drops out of the word;
- the sign is (-1)^((l(w) + floor(k/2) - c2(u)) / 2), with l the inversion
  count and c2 the number of 2-cycles of u.

A parameter with several blocks sums over tuples of live involutions, one
per block (an elementary block, A = B, has its one row and sign +1); each
block's rows and sign follow the rule above, and a term's sign is the
product of its blocks' signs.  The word nests the rows.  Each block carries
its remaining rows and its current B:

- the next block to open is the one with rows left and A > B that max (for
  block_choice "largest") or min (for "smallest") picks by the key
  (name, A, B, zeta) of params._quad_sort_key;
- take its lowest remaining row r.  If u(r) = j is another row, the word is
  row r, then the word of the rest, then row j, and B rises by 2.  If
  u(r) = r, row r waits as the elementary quad (B, B), and B rises by 1;
- at the bottom, the waiting rows and each block's last row, as the quad
  (A, A), go in decreasing key order.

For one block this is: pairs nest outside in from the lowest row, and the
fixed rows go innermost in decreasing B+r.

The row and involution structure is the twisted Tadić formula.  The sign
rule (including that its exponent is even, which is asserted) and the
nesting rule are empirical: they reproduce resolve_param word for word on
every parameter below, under both block choices, but are not derived here
from the paper.

This module shares no code with multiseg.resolve: it builds words from
Ladder, canonical_word and the GrothExpr constructor only, and spells the
key of _quad_sort_key out.
"""

from functools import cache
from itertools import combinations_with_replacement, product
from math import prod

import pytest

from multiseg import CuspidalLabel, GrothExpr, JordanBlock, Ladder, Parameter, resolve_param
from multiseg.groth import canonical_word
from multiseg.params import is_discrete_diagonal

R = CuspidalLabel("rho")
S = CuspidalLabel("sigma")


def involutions(k):
    """Every involution of {0..k-1}, as a list u with u[u[i]] == i."""
    def extend(free):
        if not free:
            yield {}
            return
        r, rest = free[0], free[1:]
        for u in extend(rest):
            yield {r: r, **u}
        for j in rest:
            for u in extend([x for x in rest if x != j]):
                yield {r: j, j: r, **u}
    for u in extend(list(range(k))):
        yield [u[i] for i in range(k)]


@cache
def block_terms(q):
    """(sign, u, atoms) for each live involution u of the block q, atoms[i]
    being the segment of row i, or None when the row is empty."""
    rho, A2, B2, zeta = q.rho, q.A, q.B, q.zeta
    k = (A2 - B2) // 2 + 1
    terms = []
    for u in involutions(k):
        w = [k - 1 - u[i] for i in range(k)]
        length = sum(w[i] > w[j] for i in range(k) for j in range(i + 1, k))
        exponent = length + k // 2 - sum(u[i] > i for i in range(k))
        assert exponent % 2 == 0, (k, u)
        rows = [(B2 + 2 * i, 2 * w[i] - A2) for i in range(k)]
        if any(end > start + 2 for start, end in rows):
            continue  # shorter than empty
        atoms = [None if end == start + 2 else Ladder(rho, ((zeta * start, zeta * end),))
                 for start, end in rows]
        terms.append(((-1) ** (exponent // 2), u, atoms))
    return terms


def nested_word(quads, terms, pick):
    """The word of one term, one (u, atoms) per quad, by the nesting rule;
    pick (max or min) opens the blocks by the key (name, A2, B2, zeta)."""
    blocks = [([q.rho.name, q.A, q.B, q.zeta], u, atoms, list(range(len(u))))
              for q, (u, atoms) in zip(quads, terms)]
    lefts, rights, bottom = [], [], []
    while True:
        live = [b for b in blocks if b[0][1] > b[0][2]]  # A > B leaves two rows or more
        if not live:
            break
        key, u, atoms, rows = pick(live, key=lambda b: tuple(b[0]))
        name, _, B2, zeta = key
        r = rows.pop(0)
        if u[r] == r:
            bottom.append(((name, B2, B2, zeta), atoms[r]))
            key[2] += 2
        else:
            rows.remove(u[r])
            lefts.append(atoms[r])
            rights.append(atoms[u[r]])
            key[2] += 4
    bottom += [((name, A2, A2, zeta), atoms[r])
               for (name, A2, _, zeta), _, atoms, rows in blocks for r in rows]
    bottom.sort(key=lambda e: e[0], reverse=True)
    word = lefts + [a for _, a in bottom] + rights[::-1]
    return tuple(a for a in word if a is not None)


def closed_form(quads, pick=max) -> GrothExpr:
    """The sum over tuples of live involutions, one per block."""
    pairs = []
    for combo in product(*map(block_terms, quads)):
        sign = prod(c for c, _, _ in combo)
        word = nested_word(quads, [(u, atoms) for _, u, atoms in combo], pick)
        pairs.append((canonical_word(word), sign))
    return GrothExpr(pairs)


def discrete_diagonal(labels, n_max):
    """Every discrete-diagonal parameter with 1-3 blocks over labels, size
    at most n_max and a block with A > B, that is with min(a, b) >= 2."""
    blocks = [JordanBlock(r, a, b) for r in labels for a in range(1, n_max + 1)
              for b in range(1, n_max // a + 1) if a * b * r.d <= n_max]

    def grow(chosen, start, room):
        if any(min(b.a, b.b) >= 2 for b in chosen):
            psi = Parameter(chosen)
            if is_discrete_diagonal(psi):
                yield psi
        if len(chosen) < 3:
            for i in range(start, len(blocks)):
                if blocks[i].size <= room:
                    yield from grow(chosen + [blocks[i]], i, room - blocks[i].size)

    return grow([], 0, n_max)


def at_least_doubled(quads, expr):
    """Each of the Sum(A-B) nested expansions at least doubles the words,
    which is why resolve.MAX_DEPTH bounds the cost of a resolution."""
    depth = sum(q.A - q.B for q in quads) // 2
    return len(expr.terms) >= 2 ** depth


def test_involution_counts():
    assert [sum(1 for _ in involutions(k)) for k in range(1, 8)] == [1, 2, 4, 10, 26, 76, 232]


def test_single_blocks_word_for_word():
    count, signs = 0, set()
    for a in range(1, 10):
        for b in range(1, 10):
            psi = Parameter([JordanBlock(R, a, b)])
            (q,) = psi.quads()
            if q.A <= q.B:
                continue
            want = resolve_param(psi).expr
            assert closed_form([q]) == want, str(psi)
            assert at_least_doubled([q], want), str(psi)
            count += 1
            signs.add(q.zeta)
    assert (count, signs) == (64, {1, -1})


@pytest.mark.parametrize("labels, n_max, count", [([R], 20, 979), ([R, S], 14, 1659)],
                         ids=["one_label", "two_labels"])
def test_several_blocks_word_for_word(labels, n_max, count):
    psis = list(discrete_diagonal(labels, n_max))
    assert len(psis) == count
    assert max(len(psi.quads()) for psi in psis) == 3
    for psi in psis:
        quads = psi.quads()
        for choice, pick in (("largest", max), ("smallest", min)):
            want = resolve_param(psi, choice).expr
            assert closed_form(quads, pick) == want, (str(psi), choice)
            assert at_least_doubled(quads, want), str(psi)


@pytest.mark.parametrize("blocks, words", [([(2, 2), (7, 3), (13, 3)], 32),
                                           ([(4, 4), (12, 4)], 100)], ids=str)
def test_heavy_perfbench_psi_tilde(blocks, words):
    """The dominating parameters of the two heavy benchmark items."""
    psi = Parameter([JordanBlock(R, a, b) for a, b in blocks])
    for choice, pick in (("largest", max), ("smallest", min)):
        want = resolve_param(psi, choice).expr
        assert len(want.terms) == words
        assert closed_form(psi.quads(), pick) == want
