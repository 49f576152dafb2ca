"""Each caller precondition has one check and one error kind, whatever the entry point.

A windowed series where exact input is required is a ``ParseError`` naming
the slot; an expansion over a generator that is not additively sharp is a
``NotSharpError``, whether it is reached through ``log``, ``exp`` or a
certified residue.
"""

import pytest

from ccsym.coeff import RingSpec, ring_new
from ccsym.errors import NotSharpError, ParseError, UnsupportedRingError
from ccsym.forms import Dlog, Log, certified_residue, dlog
from ccsym.laurent import (
    Window,
    _generator_parts,
    exp_sharp,
    from_terms,
    invert,
    log_sharp,
    t_var,
    valuation,
)
from ccsym.universal import PhiKey, evaluate_phi


@pytest.mark.parametrize("what, call", [
    ("valuation", valuation),
    ("valuation", invert),
    ("valuation", dlog),
    ("evaluate_phi", lambda g: evaluate_phi(PhiKey(1, (1,)), [g])),
], ids=["valuation", "invert", "dlog", "evaluate_phi"])
def test_windowed_input_is_a_parse_error(Qe, what, call):
    e = Qe.gen("e")
    windowed = from_terms(Qe, 1, [((0,), 1), ((1,), e)], Window.box((0,), (3,)))
    if what == "evaluate_phi":
        windowed = windowed - 1  # nilpotent coefficients, as evaluate_phi takes
    with pytest.raises(ParseError, match=f"^{what}: slot 1 is a windowed series"):
        call(windowed)


@pytest.mark.parametrize("call", [
    lambda s: log_sharp(s),
    lambda s: exp_sharp(s - 1),
    lambda s: certified_residue(Log(s), [Dlog(t_var(s.ring, 1, 1))]),
], ids=["log_sharp", "exp_sharp", "certified_residue"])
def test_non_sharp_generator_is_not_sharp(Q, call):
    s = t_var(Q, 1, 1) + 2  # constant 2: 1 + (1 + t) is not multiplicatively sharp
    with pytest.raises(NotSharpError):
        call(s)


def test_a_windowed_generator_is_judged_sharp_before_its_floor(Q):
    """``1 + t^-1`` has a unit at a lex-negative index and a negative floor:
    it is refused as not sharp, not as unexpandable over that floor."""
    g = from_terms(Q, 1, [((0,), 1), ((-1,), 1)], Window((-2,), (3,)))
    with pytest.raises(NotSharpError):
        _generator_parts(g)


def test_a_generator_over_a_disconnected_ring_is_refused():
    """Over Z/6 nilpotence is undecided, even for lex-positive terms only."""
    ring = ring_new(RingSpec(6))
    with pytest.raises(UnsupportedRingError):
        _generator_parts(t_var(ring, 1, 1))
