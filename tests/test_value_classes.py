"""The value classes keep the constructors, ``repr``, ``==`` and ``hash`` they
had as dataclasses: frozen ones hash their tuple of fields, mutable ones are
unhashable, and ``Log`` and ``Dlog`` are equal only to themselves.  The table
was recorded from the dataclass versions."""

import pytest

from ccsym.coeff import RingSpec, ring_new
from ccsym.errors import ParseError
from ccsym.forms import Dlog, Log
from ccsym.laurent import Window, decompose, from_terms
from ccsym.universal import PhiKey, phi_coefficients
from ccsym.witt import GhostVector, IndexSet, WittVector, ghost


def _samples():
    """name -> (instance, an equal twin built apart, an unequal instance)."""
    qe = ring_new(RingSpec("Q", nil=(("e", 2),)))
    f = from_terms(qe, 1, [((1,), 2), ((2,), qe.parse_coef("e"))])
    g = from_terms(qe, 1, [((1,), 2), ((3,), qe.parse_coef("e"))])
    w = WittVector(IndexSet((1, 2)), {1: f, 2: f})
    return {
        "RingSpec": (RingSpec("Z", ("u",), (("e", 2),), 3),
                     RingSpec(base="Z", free=("u",), nil=(("e", 2),), nil_total_cap=3),
                     RingSpec()),
        "Window": (Window((-1, 0), (2, 3)), Window.box([-1, 0], [2, 3]), Window.cube(2, 3)),
        "UnitDecomposition": (decompose(f), decompose(f), decompose(g)),
        "Log": (Log(f), Log(f), Log(g)),
        "Dlog": (Dlog(f), Dlog(f), Dlog(g)),
        "PhiKey": (PhiKey(2, (1, 2)), PhiKey(n=2, js=(1, 2)), PhiKey(2)),
        "UniversalSeries": (phi_coefficients(PhiKey(1, (1,)), 2, Window.cube(1, 1)),
                            phi_coefficients(PhiKey(1, (1,)), 2, Window.cube(1, 1)),
                            phi_coefficients(PhiKey(1, (1,)), 1, Window.cube(1, 1))),
        "IndexSet": (IndexSet((1, 2, 3, 6)), IndexSet.closure([6]), IndexSet((1,))),
        "WittVector": (w, WittVector(IndexSet((1, 2)), {1: f, 2: f}),
                       WittVector(IndexSet((1, 2)), {1: f, 2: g})),
        "GhostVector": (ghost(w), ghost(w), GhostVector(IndexSet((1,)), {1: f})),
    }


F = "2*t1^1 + 1*e^1*t1^2"
# name: (repr, == twin, hash): hash "fields" is the hash of the tuple of
# fields, "identity" object.__hash__, None unhashable, an int that int
TABLE = {
    "RingSpec": ("RingSpec(base='Z', free=('u',), nil=(('e', 2),), nil_total_cap=3)",
                 True, "fields"),
    "Window": ("Window(lo=(-1, 0), hi=(2, 3))", True, -7379653958621133126),
    "UnitDecomposition": ("UnitDecomposition(nu=(1,), c=2, v_plus=1 + 1/2*e^1*t1^1, "
                          "v_minus=1)", True, None),
    "Log": (f"Log(s={F})", False, "identity"),
    "Dlog": (f"Dlog(f={F})", False, "identity"),
    "PhiKey": ("PhiKey(n=2, js=(1, 2))", True, 2052210741967025740),
    "UniversalSeries": ("UniversalSeries(key=PhiKey(n=1, js=(1,)), degree=2, "
                        "window=Window(lo=(-1,), hi=(1,)), coeffs={(((1, (0,)), 1),): "
                        "Fraction(1, 1), (((1, (-1,)), 1), ((1, (1,)), 1)): Fraction(-1, 1)})",
                        True, None),
    "IndexSet": ("IndexSet(members=(1, 2, 3, 6))", True, -3753102222747237470),
    "WittVector": (f"WittVector(S=IndexSet(members=(1, 2)), coords={{1: {F}, 2: {F}}})",
                   True, None),
    "GhostVector": (f"GhostVector(S=IndexSet(members=(1, 2)), ghost={{1: {F}, "
                    "2: 4*t1^1 + (2*e^1 + 4)*t1^2 + 4*e^1*t1^3})", True, None),
}


@pytest.mark.parametrize("name", sorted(TABLE))
def test_value_class_keeps_its_dataclass_behaviour(name):
    a, twin, other = _samples()[name]
    text, equal, hashed = TABLE[name]
    assert repr(a) == text
    assert (a == twin, a != twin) == (equal, not equal)
    assert a == a and a != other and a != name and not a == name
    if hashed is None:
        with pytest.raises(TypeError):
            hash(a)
    elif hashed == "identity":
        assert hash(a) == object.__hash__(a)
    elif hashed == "fields":
        assert hash(a) == hash(twin) == hash(("Z", ("u",), (("e", 2),), 3))
    else:
        assert hash(a) == hash(twin) == hashed


def test_a_bad_value_is_refused_on_construction():
    # the checks the dataclasses ran in __post_init__
    for build in (lambda: Window((0,), (1, 1)), lambda: Window((2,), (1,)),
                  lambda: PhiKey(2, (2, 1)), lambda: PhiKey(0), lambda: IndexSet((2,)),
                  lambda: WittVector(IndexSet((1,)), {}),
                  lambda: GhostVector(IndexSet((1,)), {2: 0})):
        with pytest.raises(ParseError):
            build()
