"""Jordan blocks, parameters, block predicates, and the domination construction."""

from __future__ import annotations

from .core import CuspidalLabel, Frozen, _half_str


class JordanBlock(Frozen):
    """Triple (rho, a, b); size a*b*d_rho."""

    __slots__ = ("rho", "a", "b")

    def __init__(self, rho: CuspidalLabel, a: int, b: int):
        if a < 1 or b < 1:
            raise ValueError(f"block ({rho.name},{a},{b}): a,b must be >= 1")
        put = object.__setattr__
        put(self, "rho", rho)
        put(self, "a", a)
        put(self, "b", b)

    def _astuple(self) -> tuple:
        return (self.rho, self.a, self.b)

    @property
    def size(self) -> int:
        return self.a * self.b * self.rho.d

    def __str__(self) -> str:
        return f"({self.rho.name},{self.a},{self.b})"


class Quad(Frozen):
    """Quadruple recoding (rho, A, B, zeta): A=(a+b)/2-1, B=|a-b|/2, zeta=sign(a-b).

    A and B are stored doubled, as a+b-2 and |a-b|; str() and the errors
    print them as half-integers.  A quad with B=0 is normalized to zeta=+1
    (the two signs give isomorphic data there).
    """

    __slots__ = ("rho", "A", "B", "zeta")

    def __init__(self, rho: CuspidalLabel, A: int, B: int, zeta: int):
        if zeta not in (1, -1):
            raise ValueError("zeta must be +1 or -1")
        if B < 0 or A < B:
            raise ValueError(f"need A >= B >= 0, got A={_half_str(A)}, B={_half_str(B)}")
        if (A - B) % 2:
            raise ValueError("A - B must be an integer")
        put = object.__setattr__
        put(self, "rho", rho)
        put(self, "A", A)
        put(self, "B", B)
        put(self, "zeta", 1 if B == 0 else zeta)

    def _astuple(self) -> tuple:
        return (self.rho, self.A, self.B, self.zeta)

    def __str__(self) -> str:
        sign = "+" if self.zeta == 1 else "-"
        return f"({self.rho.name},A={_half_str(self.A)},B={_half_str(self.B)},{sign})"


def to_quad(bl: JordanBlock) -> Quad:
    return Quad(bl.rho, bl.a + bl.b - 2, abs(bl.a - bl.b), 1 if bl.a >= bl.b else -1)


def from_quad(q: Quad) -> JordanBlock:
    hi = (q.A + q.B) // 2 + 1
    lo = (q.A - q.B) // 2 + 1
    if q.zeta == 1:
        return JordanBlock(q.rho, hi, lo)
    return JordanBlock(q.rho, lo, hi)


def block_order_cmp(q: Quad, qp: Quad) -> int:
    """Total order on same-label, same-integrality quads: A, then B, then zeta=+."""
    if q.rho != qp.rho:
        raise ValueError(f"quads {q} and {qp} have different labels; incomparable")
    if q.B % 2 != qp.B % 2:
        raise ValueError(f"quads {q} and {qp} lie in different integrality families")
    k, kp = _quad_sort_key(q), _quad_sort_key(qp)
    return (k > kp) - (k < kp)


def _quad_sort_key(q: Quad):
    # Deterministic order across labels and integrality families; within one
    # family it is block_order_cmp (B = 0 forces zeta = +1).
    return (q.rho.key, q.A, q.B, q.zeta)


class Parameter(Frozen):
    """Multiset of Jordan blocks with derived total size n.

    Blocks are stored as a sorted tuple; multiplicity is repetition, and an
    instance is addressed by its index.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks=()):
        blocks = tuple(sorted(blocks, key=lambda b: (b.rho.key, b.a, b.b)))
        object.__setattr__(self, "blocks", blocks)

    def _astuple(self) -> tuple:
        return (self.blocks,)

    @property
    def n(self) -> int:
        return sum(b.size for b in self.blocks)

    def labels(self) -> tuple[CuspidalLabel, ...]:
        """Every distinct label, in key order."""
        return tuple(dict.fromkeys(b.rho for b in self.blocks))

    def quads(self) -> tuple[Quad, ...]:
        return tuple(to_quad(b) for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __str__(self) -> str:
        return "{" + ", ".join(str(b) for b in self.blocks) + "}"

    __repr__ = __str__


def diag_restriction(psi: Parameter) -> Parameter:
    """Replace each (rho,a,b) by its Clebsch-Gordan pieces (rho,c,1)."""
    out = []
    for b in psi:
        for c in range(abs(b.a - b.b) + 1, b.a + b.b, 2):
            out.append(JordanBlock(b.rho, c, 1))
    return Parameter(out)


def is_elementary(psi: Parameter) -> bool:
    blocks = psi.blocks
    return len(set(blocks)) == len(blocks) and all(min(b.a, b.b) == 1 for b in blocks)


def is_discrete(psi: Parameter) -> bool:
    return len(set(psi.blocks)) == len(psi.blocks)


def _disjoint(i1: tuple[int, int], i2: tuple[int, int]) -> bool:
    return i1[1] < i2[0] or i2[1] < i1[0]


def is_discrete_diagonal(psi: Parameter) -> bool:
    """True iff all same-label, same-integrality [B,A] intervals are pairwise disjoint."""
    fams: dict[tuple, list[tuple[int, int]]] = {}
    for q in psi.quads():
        fams.setdefault((q.rho.key, q.B % 2), []).append((q.B, q.A))
    for ivs in fams.values():
        ivs.sort()
        for i1, i2 in zip(ivs, ivs[1:]):
            if not _disjoint(i1, i2):
                return False
    return True


def dominate(psi: Parameter, rule: str = "minimal"):
    """Discrete-diagonal dominating parameter plus the ordered peel list E.

    Per label the blocks are processed in increasing order; each block keeps
    its zeta and A-B and gets a new base point Bt >= B so that the shifted
    intervals [Bt, Bt+A-B] are pairwise disjoint within the family.

    rule="minimal": keep Bt=B when possible, else the least admissible shift.
    rule="staircase": shift every block well above the previously used region
    (a second valid domination, used to test choice-independence).

    E lists, per label in increasing block order, the peel points: for D
    running down from Bt to B+1, the ordered elements of [zeta*D,
    zeta*(D+A-B)].  Returns (psi_tilde, E) with E a tuple of (label, t), each
    point t doubled.
    """
    if rule not in ("minimal", "staircase"):
        raise ValueError(f"unknown domination rule {rule!r}")
    new_blocks = []
    peel: list[tuple[CuspidalLabel, int]] = []
    by_rho: dict[tuple, list[Quad]] = {}
    for q in psi.quads():
        by_rho.setdefault(q.rho.key, []).append(q)
    for key in sorted(by_rho):
        quads = sorted(by_rho[key], key=_quad_sort_key)
        # in one family every base point is = B mod 2 and every width is even
        used: dict[int, list[tuple[int, int]]] = {0: [], 1: []}
        for q in quads:
            fam = q.B % 2
            width = q.A - q.B
            cand = q.B
            if rule == "staircase":
                top = max((e for _, e in used[fam]), default=q.B - 2)
                cand = max(cand, top + 8)
            if any(not _disjoint((cand, cand + width), iv) for iv in used[fam]):
                top = max(e for _, e in used[fam])
                cand = top + 2
            used[fam].append((cand, cand + width))
            new_blocks.append(from_quad(Quad(q.rho, cand + width, cand, q.zeta)))
            for d in range(cand, q.B, -2):
                for k in range(0, width + 1, 2):
                    peel.append((q.rho, (d + k) * q.zeta))
    return Parameter(new_blocks), tuple(peel)


def _j_le_d(psi: Parameter, rho: CuspidalLabel, d: int) -> list[int]:
    """Indices of J_{<=d}: label rho, sup(a,b) <= d and sup(a,b) = d mod 2."""
    return [
        i
        for i, b in enumerate(psi.blocks)
        if b.rho == rho and max(b.a, b.b) <= d and (max(b.a, b.b) - d) % 2 == 0
    ]


def psi_sharp(psi: Parameter, rho: CuspidalLabel, d: int) -> Parameter:
    """Flip (a,b) on the blocks of J_{<=d}."""
    if not is_elementary(psi):
        raise ValueError("psi_sharp is defined for elementary parameters")
    flip = set(_j_le_d(psi, rho, d))
    return Parameter(JordanBlock(b.rho, b.b, b.a) if i in flip else b
                     for i, b in enumerate(psi.blocks))


def imp_variants(psi: Parameter):
    """The three parity reductions: (b odd -> (a,1)), (a odd -> (1,b)), (both odd -> (1,1))."""
    psi2 = Parameter(JordanBlock(b.rho, b.a, 1) for b in psi if b.b % 2 == 1)
    psi1 = Parameter(JordanBlock(b.rho, 1, b.b) for b in psi if b.a % 2 == 1)
    psi_ii = Parameter(
        JordanBlock(b.rho, 1, 1) for b in psi if b.a % 2 == 1 and b.b % 2 == 1
    )
    return psi2, psi1, psi_ii


def in_Psi_H(psi: Parameter) -> bool:
    """Parity membership: eta_rho*(-1)^(a+b) = (-1)^(n+1) per block and prod chi^(ab) = 1."""
    chi_prod = 1
    target = (-1) ** (psi.n + 1)
    for b in psi:
        if b.rho.eta is None:
            raise ValueError(f"label {b.rho.name}: parity unknown, cannot test membership")
        if b.rho.eta * (-1) ** (b.a + b.b) != target:
            return False
        chi_prod *= b.rho.chi ** (b.a * b.b)
    return chi_prod == 1


def reducibility_point(phi: Parameter, rho: CuspidalLabel) -> int:
    """The nonnegative reducibility point attached to a discrete tempered-coded
    phi, doubled."""
    if any(b.b != 1 for b in phi):
        raise ValueError("phi must be tempered-coded (all b = 1)")
    if not is_discrete(phi):
        raise ValueError("phi must be multiplicity-free")
    ours = [b.a for b in phi if b.rho == rho]
    if ours:
        return max(ours) + 1
    if rho.eta is None:
        raise ValueError(f"label {rho.name}: parity unknown")
    if rho.eta == (-1) ** (phi.n + 1):
        return 1
    raise ValueError("case not covered: no rho-blocks and eta has the wrong parity")
