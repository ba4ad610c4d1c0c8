import random

import pytest

from multiseg import (CuspidalLabel, HalfInt, JordanBlock, Multisegment, Parameter, Segment,
                      jac_theta)


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
        segs.append(
            Segment(rho, HalfInt(2 * s + off), HalfInt(2 * e + off))
        )
    return Multisegment(segs)


def iterated_jac_theta(points, e):
    """Reference for jac_theta_seq: one jac_theta per point, each of which
    canonicalizes every word it makes."""
    for rho, x in points:
        e = jac_theta(rho, x, e)
    return e
