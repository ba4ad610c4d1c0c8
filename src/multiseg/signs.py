"""Normalization signs: pair sets, their characters, and the ratio formulas.

All pair sets range over ordered pairs of distinct block instances of a
parameter (instances are addressed by index, so multiplicities count).
"""

from __future__ import annotations

import math

from .core import CuspidalLabel, IdentityError
from .params import Parameter, _j_le_d, imp_variants, is_elementary, to_quad


def _gate(b1, b2) -> bool:
    if b1.rho != b2.rho:
        return False
    return (
        max(b1.a, b2.a) % 2 == 0
        and min(b1.a, b2.a) % 2 == 1
        and max(b1.b, b2.b) % 2 == 0
        and min(b1.b, b2.b) % 2 == 1
    )


def z_sets(psi: Parameter):
    """(Z, Z_W, Z_U): ordered (i, j) index pairs of distinct instances passing
    the parity gate, split by the quadruple-form conditions."""
    blocks = psi.blocks
    Z, ZW, ZU = [], [], []
    for i, b1 in enumerate(blocks):
        for j, b2 in enumerate(blocks):
            if i == j or not _gate(b1, b2):
                continue
            q1, q2 = to_quad(b1), to_quad(b2)
            s = q1.B * q1.zeta + q2.B * q2.zeta
            if s < 0:
                which = "W"
            elif s > 0:
                which = "U"
            elif q1.B == 0 and q2.B == 0:
                which = "U"
            else:
                # s = 0 with B = B' != 0 forces zeta*zeta' = -1
                which = "W" if (q1.A - q2.A) * q1.zeta < 0 else "U"
            Z.append((i, j))
            (ZW if which == "W" else ZU).append((i, j))
    return tuple(Z), tuple(ZW), tuple(ZU)


def _pair_set(psi: Parameter, which: str):
    """The pair set Z_W, Z_U or Z named by `which` ("W", "U" or "")."""
    if which not in ("W", "U", ""):
        raise ValueError(f"pair set must be 'W', 'U' or '', not {which!r}")
    Z, ZW, ZU = z_sets(psi)
    return {"W": ZW, "U": ZU, "": Z}[which]


def z_sign(psi: Parameter, which: str) -> int:
    """(-1)^(|Z_?|/2); the pair sets always have even cardinality."""
    chosen = _pair_set(psi, which)
    if len(chosen) % 2:
        raise IdentityError(f"Z_{which or 'empty'} has odd cardinality {len(chosen)}")
    return 1 if (len(chosen) // 2) % 2 == 0 else -1


def eps_char(psi: Parameter, which: str) -> tuple[int, ...]:
    """The character of a pair set: block instance i gets the sign
    (-1)^(number of pairs (i, j) in the set)."""
    counts = [0] * len(psi.blocks)
    for i, _ in _pair_set(psi, which):
        counts[i] += 1
    return tuple(1 if c % 2 == 0 else -1 for c in counts)


def eval_at_z(chi: tuple[int, ...]) -> int:
    return math.prod(chi)


def eval_at_c2(chi: tuple[int, ...], psi: Parameter) -> int:
    return math.prod(v for v, b in zip(chi, psi.blocks) if b.b % 2 == 0)


def a_sign(psi: Parameter) -> int:
    """Sign with exponent sum of inf(a,a')inf(b,b') over unordered same-label
    pairs of distinct instances."""
    blocks = psi.blocks
    total = 0
    for i, b1 in enumerate(blocks):
        for j, b2 in enumerate(blocks):
            if j <= i or b1.rho != b2.rho:
                continue
            total += min(b1.a, b2.a) * min(b1.b, b2.b)
    return 1 if total % 2 == 0 else -1


def theta_ratio_WU(psi: Parameter) -> dict:
    """The Whittaker/unipotent normalization ratio, computed three ways.

    half_sum: the explicit half-sum exponent over ordered distinct pairs;
    a_chain: a(psi) a(psi1) a(psi2) a(psi_ii), pairs counted unordered;
    zW_zU:   z_W(psi) * z_U(psi).  The exported ratio is zW_zU.
    """
    blocks = psi.blocks
    twice = 0
    for i, b1 in enumerate(blocks):
        for j, b2 in enumerate(blocks):
            if i == j or b1.rho != b2.rho:
                continue
            twice += (
                min(b1.a, b2.a) * (1 + max(b1.a, b2.a))
                * min(b1.b, b2.b) * (1 + max(b1.b, b2.b))
            )
    if twice % 2:
        raise IdentityError(f"half-sum exponent {twice}/2 is not an integer")
    half_sum = 1 if (twice // 2) % 2 == 0 else -1
    psi2, psi1, psi_ii = imp_variants(psi)
    a_chain = a_sign(psi) * a_sign(psi1) * a_sign(psi2) * a_sign(psi_ii)
    zz = z_sign(psi, "W") * z_sign(psi, "U")
    return {
        "half_sum": half_sum,
        "a_chain": a_chain,
        "zW_zU": zz,
        "ratio": zz,
        "convention": "unordered-distinct",
        "consistent": half_sum == zz,
    }


def r_ratio_sign(bl, blp) -> int:
    """Sign of the two-block normalization-factor ratio at the origin."""
    if bl.rho != blp.rho:
        return 1
    return 1 if (min(bl.a, blp.a) * min(bl.b, blp.b)) % 2 == 0 else -1


def j_psi(psi: Parameter, rho: CuspidalLabel, d: int) -> tuple[int, int]:
    """(j0, j): j0 sums sup(a,b) over the J_{<=d} blocks; j drops by one
    exactly when every block lies in J_{<=d}."""
    idx = _j_le_d(psi, rho, d)
    j0 = sum(max(psi.blocks[i].a, psi.blocks[i].b) for i in idx)
    j = j0 - 1 if len(idx) == len(psi.blocks) else j0
    return j0, j


def beta_sign(psi: Parameter, rho: CuspidalLabel, d: int) -> int:
    """(-1)^floor(j/2); the exported form of the duality-complex sign."""
    if not is_elementary(psi):
        raise ValueError("beta_sign is defined for elementary parameters")
    _, j = j_psi(psi, rho, d)
    return 1 if (j // 2) % 2 == 0 else -1


BETA_CONVENTIONS = tuple(
    f"{rounding}+{pair}"
    for rounding in ("floor", "ceil")
    for pair in ("pair-always", "pair-odd-d", "pair-never")
)


def beta_closed_form(psi: Parameter, rho: CuspidalLabel, d: int,
                     convention: str) -> int:
    """Product form of the sign under an explicit rounding and pair-term
    convention; used only to reconcile against beta_sign."""
    if not is_elementary(psi):
        raise ValueError("beta_closed_form is defined for elementary parameters")
    if convention not in BETA_CONVENTIONS:
        raise ValueError(f"unknown beta convention {convention!r}")
    rounding, pair = convention.split("+")
    idx = _j_le_d(psi, rho, d)
    exp = 0
    for i in idx:
        b = psi.blocks[i]
        ab = b.a * b.b
        exp += (ab - 1) // 2 if rounding == "floor" else ab // 2
    t = len(idx)
    if pair == "pair-always" or (pair == "pair-odd-d" and d % 2 == 1):
        exp += t * (t - 1) // 2
    return 1 if exp % 2 == 0 else -1
