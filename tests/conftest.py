import random

import pytest

from multiseg import CuspidalLabel, GrothExpr, JordanBlock, Ladder, Parameter, gl_multisegment
from multiseg.groth import canonical_word
from multiseg.ladders import peel


@pytest.fixture
def rho():
    return CuspidalLabel("rho")


@pytest.fixture
def labels():
    return {
        "r1": CuspidalLabel("r1", 1, 1, 1),
        "r2": CuspidalLabel("r2", 2, -1, 1),
    }


def random_parameter(rng: random.Random, labels, max_blocks=5, max_ab=8):
    blocks = [
        JordanBlock(rng.choice(labels), rng.randint(1, max_ab), rng.randint(1, max_ab))
        for _ in range(rng.randint(1, max_blocks))
    ]
    return Parameter(blocks)


def random_small_parameter(rng: random.Random, labels, max_n=12):
    while True:
        blocks = []
        for _ in range(rng.randint(1, 4)):
            r = rng.choice(labels)
            hi = 4 if r.d == 1 else 2
            blocks.append(JordanBlock(r, rng.randint(1, hi), rng.randint(1, hi)))
        psi = Parameter(blocks)
        if psi.n <= max_n:
            return psi


def random_multisegment(rng: random.Random, rho, max_segments=20, span=6):
    segs = []
    for _ in range(rng.randint(0, max_segments)):
        half = rng.random() < 0.5
        s = rng.randint(-span, span)
        e = rng.randint(-span, span)
        off = 1 if half else 0
        segs.append(Ladder(rho, ((2 * s + off, 2 * e + off),)))
    return gl_multisegment(segs)


def signed_sum(*terms):
    """One sum through the GrothExpr constructor, the way the pipeline
    builds an expression: each term is (coefficient, atom, ...)."""
    return GrothExpr((canonical_word(atoms), c) for c, *atoms in terms)


def reference_jac(left, rho, t, e):
    """Reference one-point peel, independent of the positional loop in
    multiseg.groth: the Leibniz sum of one-sided peels at rho||^(t/2), t
    doubled, over the factors of each canonical word, canonicalizing every
    word it makes.  Each distinct atom is peeled once per call; e's words
    keep every atom alive until the call returns, so id() is a sound key.
    An emptied atom has size 0, and canonical_word drops it."""
    peels = {}

    def peeled():
        for word, c in e.terms.items():
            for i, atom in enumerate(word):
                if atom.rho != rho:
                    continue
                key = id(atom)
                if key not in peels:
                    peels[key] = peel(t, atom, left)
                new = peels[key]
                if new is not None:
                    yield canonical_word(word[:i] + (new,) + word[i + 1:]), c

    return GrothExpr(peeled())


def reference_jac_theta(rho, t, e):
    """Reference two-sided peel, t doubled: reference_jac at t from the left,
    then at -t from the right.  Looks reference_jac up at call time, so a
    test can count its calls by patching this module."""
    return reference_jac(False, rho, -t, reference_jac(True, rho, t, e))


def iterated_jac_theta(points, e):
    """Reference for jac_theta_seq: one reference_jac_theta per point, each
    of which canonicalizes every word it makes."""
    for rho, t in points:
        e = reference_jac_theta(rho, t, e)
    return e
