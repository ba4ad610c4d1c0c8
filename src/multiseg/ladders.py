"""Ladder multisegments: block tableaux, truncations, and single-point peels.

A ladder is a multisegment over one label whose rows have pairwise distinct
starts and pairwise distinct ends, with both orders agreeing.  Rows stay
oriented: the tableau of a quad has descending rows for zeta=+ and
ascending rows for zeta=-.  The same type, `core.Ladder`, is the factor of
a word in the formal group, and a segment is a one-row ladder.  Ladders are
hash-consed: each value is built and checked once while it is alive,
through a process-wide table of weak references in `core`, so every layer
compares atoms by identity and hashes them with the builtin hash.  This
module builds the ladders of a quad and peels them one point at a time.
"""

from __future__ import annotations

from .core import Ladder, Multisegment, _half_str, _is_ladder
from .params import Quad


def ladder_multisegment(q: Quad) -> Ladder:
    """Tableau of the quad: rows [zeta(B+k) .. -zeta(A-k)] for k = 0..A-B."""
    A, B, z = q.A, q.B, q.zeta
    rows = (((B + k) * z, -(A - k) * z) for k in range(0, A - B + 1, 2))
    return Ladder(q.rho, tuple(sorted(rows, reverse=True)))


def tableau_cols(q: Quad) -> Multisegment:
    """Column reading of the quad's tableau, as an (unoriented) multisegment."""
    A, B, z = q.A, q.B, q.zeta
    return Multisegment((q.rho, (B - 2 * m) * z, (A - 2 * m) * z)
                        for m in range((A + B) // 2 + 1))


def peel(t: int, lad: Ladder, left: bool) -> Ladder | None:
    """Single-point peel (t doubled): drop the first element of the row
    starting at t (left) or the last element of the row ending at t; an
    emptied ladder is Ladder(rho, ()).  None if no row starts (ends) at t or
    the result breaks the ladder condition.  The peeled row keeps its index:
    moving one end a step past a neighbour's end reverses the order of that
    end alone, which the ladder condition rejects whether or not the rows
    are re-sorted."""
    for i, (s, e) in enumerate(lad.rows):
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
    out = lad.rows[:i] + row + lad.rows[i + 1:]
    return Ladder(lad.rho, out) if _is_ladder(out) else None


def peel_left(t: int, lad: Ladder) -> Ladder | None:
    """Drop the first element of the unique row starting at t (t doubled);
    None if that kills the ladder condition or no row starts at t."""
    return peel(t, lad, True)


def peel_right(t: int, lad: Ladder) -> Ladder | None:
    """Mirror of peel_left: drop the last element of the unique row ending
    at t (t doubled)."""
    return peel(t, lad, False)


def trunc_ladder(q: Quad, C: int) -> Ladder:
    """Truncated tableau built on the base quad (A, B+2, zeta), C doubled.

    Realized operationally: starting from the full base tableau, peel
    zeta*x on the left and -zeta*x on the right for x = B+2, ..., C.
    C = B+1 returns the base tableau unchanged.
    """
    if q.A < q.B + 4:
        raise ValueError(f"trunc_ladder needs A >= B+2, got {q}")
    if not (q.B < C <= q.A):
        raise ValueError(f"C={_half_str(C)} outside ]B, A] for {q}")
    z, lad = q.zeta, ladder_multisegment(Quad(q.rho, q.A, q.B + 4, q.zeta))
    for t in range((q.B + 4) * z, C * z + z, 2 * z):
        nxt = peel(t, lad, True)
        lad = None if nxt is None else peel(-t, nxt, False)
        if lad is None:
            raise ValueError(f"theta-peel at {_half_str(t)} failed while truncating {q}")
    return lad
