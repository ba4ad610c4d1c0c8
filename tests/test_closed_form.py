"""A closed form for the resolution of one block, as an independent oracle.

A block with quad (A, B, zeta) and A > B stands for a Speh representation,
and Tadić's determinantal formula writes its class as a signed sum over S_k
of products of segments, k = A - B + 1 (Tadić 1995; Lapid–Mínguez,
Amer. J. Math. 2014).  Its twisted version, which the resolver computes, is
a sum over the involutions u of S_k.  With w = w0.u (w0 the longest
element) and rows indexed 0..k-1 from the bottom:

- row i is the segment [zeta(B+i) .. zeta(w(i)-A)]; a row shorter than
  empty kills the term, and an empty row drops out of the word;
- the sign is (-1)^((l(w) + floor(k/2) - c2(u)) / 2), with l the inversion
  count and c2 the number of 2-cycles of u;
- the word nests the rows: take the lowest remaining row r.  If u(r) = j is
  another row, the word is row r, then the word of the remaining rows, then
  row j.  A fixed row waits, and the waiting rows go innermost, in
  decreasing B+r.

The row and involution structure is the twisted Tadić formula.  The sign
rule (including that its exponent is even, which is asserted) and the
nesting rule are empirical: they reproduce resolve_param word for word on
every single block below, but are not derived here from the paper.

This module shares no code with multiseg.resolve: it builds words from
Ladder, canonical_word and the GrothExpr constructor only.  Parameters with
several blocks are left for a later oracle.
"""

from multiseg import CuspidalLabel, GrothExpr, JordanBlock, Ladder, Parameter, resolve_param
from multiseg.groth import canonical_word

R = CuspidalLabel("rho")


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


def nested_rows(u):
    """The row indices of the term of u in word order (the nesting rule)."""
    def nest(left, waiting):
        if not left:
            return sorted(waiting, reverse=True)
        r, j = left[0], u[left[0]]
        if j == r:
            return nest(left[1:], waiting + [r])
        return [r] + nest([x for x in left[1:] if x != j], waiting) + [j]
    return nest(list(range(len(u))), [])


def closed_form(rho, A2, B2, zeta) -> GrothExpr:
    """The involution sum of the block with doubled A2 > B2."""
    k = (A2 - B2) // 2 + 1
    pairs = []
    for u in involutions(k):
        w = [k - 1 - u[i] for i in range(k)]
        length = sum(w[i] > w[j] for i in range(k) for j in range(i + 1, k))
        exponent = length + k // 2 - sum(u[i] > i for i in range(k))
        assert exponent % 2 == 0, (k, u)
        rows = [(B2 + 2 * i, 2 * w[i] - A2) for i in range(k)]
        if any(end > start + 2 for start, end in rows):
            continue  # shorter than empty
        word = tuple(Ladder(rho, ((zeta * rows[i][0], zeta * rows[i][1]),))
                     for i in nested_rows(u) if rows[i][1] != rows[i][0] + 2)
        pairs.append((canonical_word(word), (-1) ** (exponent // 2)))
    return GrothExpr(pairs)


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
            assert closed_form(R, q.A.twice, q.B.twice, q.zeta) == resolve_param(psi).expr, str(psi)
            count += 1
            signs.add(q.zeta)
    assert (count, signs) == (64, {1, -1})
