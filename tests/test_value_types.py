"""The contract of the value classes: CuspidalLabel, JordanBlock, Quad,
Composition, Ladder, Parameter, Multisegment, GrothExpr and Resolution.

Each expected value (repr text, error message, hash, comparison result)
of CuspidalLabel, JordanBlock, Quad, Composition and Resolution was
recorded from their frozen-dataclass versions, so the plain classes that
replaced them must keep every one.  The Quad rows were re-recorded when its
A and B became doubled ints; its str and its error messages still print A
and B as half-integers.
"""

import copy
import pickle

import pytest

from multiseg import (CuspidalLabel, GrothExpr, JordanBlock, Ladder, Multisegment,
                      Parameter, resolve_general)
from multiseg.params import Quad
from multiseg.resolve import Resolution
from multiseg.wedges import Composition

R = CuspidalLabel("rho")
LABELS = [CuspidalLabel("rho"), CuspidalLabel("sig", 2, -1, 1), CuspidalLabel("tau", 1, 1, -1)]
SIG, TAU = LABELS[1:]
BLOCKS = (JordanBlock(R, 3, 2), JordanBlock(SIG, 1, 1))
ROWS = ((R, 3, -1), (R, 1, 1), (TAU, 0, -4))

# (value, its repr, its field tuple) for every class with Frozen's equality
# and hash; Parameter and Multisegment sort (and orient) what they are given
FROZEN = [
    (JordanBlock(R, 3, 2), "JordanBlock(rho=CuspidalLabel('rho'), a=3, b=2)", (R, 3, 2)),
    (Quad(R, 5, 1, -1), "Quad(rho=CuspidalLabel('rho'), A=5, B=1, zeta=-1)", (R, 5, 1, -1)),
    (Composition((2, 1)), "Composition(parts=(2, 1))", ((2, 1),)),
    (Parameter(BLOCKS[::-1]), "{(rho,3,2), (sig,1,1)}", (BLOCKS,)),
    (Multisegment([(TAU, -4, 0), (R, 1, 1), (R, -1, 3)]),
     "{[3/2..-1/2]rho, [1/2..1/2]rho, [0..-2]tau}", (ROWS,)),
]
IMMUTABLE = [v for v, _, _ in FROZEN] + LABELS + [
    Ladder(R, ((1, -1), (-1, -3))),
    GrothExpr([((Ladder(R, ((2, 0),)), Ladder(R, ((1, -1), (-1, -3)))), -2)]),
]


@pytest.mark.parametrize("value, text, fields", FROZEN, ids=lambda v: type(v).__name__)
def test_repr_eq_and_hash(value, text, fields):
    assert repr(value) == text
    assert hash(value) == hash(fields)
    assert value.__eq__(object()) is NotImplemented
    assert value != fields and value != "x" and value != 1
    assert value == type(value)(*fields)


def test_label_repr_eq_and_hash():
    assert [repr(rho) for rho in LABELS] == ["CuspidalLabel('rho')", "CuspidalLabel('sig')",
                                              "CuspidalLabel('tau')"]
    assert LABELS[1].key == ("sig", 2, -1, 1) and LABELS[0].key == ("rho", 1, 0, 1)
    assert all(hash(rho) == hash(rho.name) for rho in LABELS)
    assert LABELS[0].__eq__(object()) is False
    assert CuspidalLabel("rho", 1, 1) != CuspidalLabel("rho", 1, -1)


def test_quad_normalizes_zeta_at_b_zero():
    q = Quad(R, 4, 0, -1)
    assert q.zeta == 1 and q == Quad(R, 4, 0, 1)
    assert repr(q) == "Quad(rho=CuspidalLabel('rho'), A=4, B=0, zeta=1)"
    assert hash(q) == hash((R, 4, 0, 1))


def test_keywords_and_defaults():
    assert str(JordanBlock(R, a=2, b=3)) == "(rho,2,3)"
    assert str(Quad(rho=R, A=2, B=0, zeta=1)) == "(rho,A=1,B=0,+)"
    assert str(Quad(R, 5, 1, -1)) == "(rho,A=5/2,B=1/2,-)"
    assert Composition(parts=(1,)).parts == (1,)
    assert CuspidalLabel(name="x", d=2, eta=None, chi=-1).key == ("x", 2, 0, -1)


@pytest.mark.parametrize("value", IMMUTABLE, ids=lambda v: type(v).__name__)
def test_assignment_and_deletion_raise(value):
    for name in type(value).__slots__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.other = 1


def test_refused_deletion_leaves_the_interned_ladder_whole():
    rows = ((5, 1),)
    L = Ladder(R, rows)
    with pytest.raises(AttributeError, match="cannot delete field 'size'"):
        del L.size
    assert Ladder(R, rows) is L and L.size == 3


def test_ladder_keeps_object_identity_slots():
    assert Ladder.__eq__ is object.__eq__ and Ladder.__hash__ is object.__hash__
    L = Ladder(R, ((2, 0),))
    assert hash(L) == object.__hash__(L) and L.__eq__(Ladder(R, ((0, 2),))) is NotImplemented


def test_groth_expr_is_unhashable():
    with pytest.raises(TypeError, match="unhashable type: 'GrothExpr'"):
        hash(GrothExpr())
    assert GrothExpr().__eq__(object()) is NotImplemented


@pytest.mark.parametrize("value", IMMUTABLE, ids=lambda v: type(v).__name__)
def test_pickle_and_copy_round_trips(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
        assert all(getattr(twin, f) == getattr(value, f) for f in type(value).__slots__)


@pytest.mark.parametrize("make, message", [
    (lambda: JordanBlock(R, 0, 1), "block (rho,0,1): a,b must be >= 1"),
    (lambda: Quad(R, 2, 0, 0), "zeta must be +1 or -1"),
    (lambda: Quad(R, 2, 4, 1), "need A >= B >= 0, got A=1, B=2"),
    (lambda: Quad(R, 2, -2, 1), "need A >= B >= 0, got A=1, B=-1"),
    (lambda: Quad(R, 3, 0, 1), "A - B must be an integer"),
    (lambda: Composition(()), "composition parts must be positive: ()"),
    (lambda: Composition((1, 0)), "composition parts must be positive: (1, 0)"),
    (lambda: CuspidalLabel(""), "cuspidal label needs a nonempty name"),
    (lambda: CuspidalLabel("r", 0), "label r: d must be >= 1"),
    (lambda: CuspidalLabel("r", 1, 2), "label r: eta must be +1, -1 or unknown"),
    (lambda: CuspidalLabel("r", 1, 1, 0), "label r: chi must be +1 or -1"),
    (lambda: CuspidalLabel("r", 1, -1, -1), "label r: eta=-1 forces chi=+1"),
])
def test_constructor_errors(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: JordanBlock(R, 1), "JordanBlock.__init__() missing 1 required positional "
                                "argument: 'b'"),
    (lambda: Quad(R, 1, 1), "Quad.__init__() missing 1 required positional argument: "
                                  "'zeta'"),
    (lambda: Composition(), "Composition.__init__() missing 1 required positional argument: "
                            "'parts'"),
    (lambda: Resolution(), "Resolution.__init__() missing 2 required positional arguments: "
                           "'psi' and 'expr'"),
    (lambda: CuspidalLabel("x", key=1), "CuspidalLabel.__init__() got an unexpected keyword "
                                        "argument 'key'"),
])
def test_signature_errors(make, message):
    with pytest.raises(TypeError) as err:
        make()
    assert str(err.value) == message


class TestResolution:
    def test_fresh_default_trace(self):
        one, two = Resolution(Parameter(), GrothExpr()), Resolution(Parameter(), GrothExpr())
        assert one.trace == [] and one.trace is not two.trace
        one.trace.append({"case": "elementary"})
        assert two.trace == [] and Resolution(Parameter(), GrothExpr()).trace == []

    def test_repr_and_eq(self):
        psi = Parameter([JordanBlock(R, 1, 1)])
        res = Resolution(psi, GrothExpr(), [1])
        assert repr(res) == "Resolution(psi={(rho,1,1)}, expr=0, trace=[1])"
        assert repr(Resolution(Parameter(), GrothExpr())) == "Resolution(psi={}, expr=0, trace=[])"
        assert res == Resolution(psi, GrothExpr(), [1])
        assert res != Resolution(psi, GrothExpr()) and res != (psi, GrothExpr(), [1])
        assert res.__eq__(object()) is NotImplemented

    def test_mutable_and_unhashable(self):
        res = Resolution(Parameter(), GrothExpr())
        res.trace = [2]
        assert res.trace == [2]
        with pytest.raises(TypeError, match="unhashable type: 'Resolution'"):
            hash(res)

    def test_copies(self):
        res = resolve_general(Parameter([JordanBlock(R, 3, 3), JordanBlock(R, 2, 2)]))
        assert len(res.expr.terms) > 1 and res.trace
        twin = copy.copy(res)
        assert twin == res and twin.trace is res.trace
        for twin in (pickle.loads(pickle.dumps(res)), copy.deepcopy(res)):
            assert twin == res and twin.trace is not res.trace
            assert str(twin.expr) == str(res.expr)
