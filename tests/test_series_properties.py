"""Hypothesis properties of the series JSON format: exact and windowed round trips.

Skipped when Hypothesis is not installed; the engine itself needs only the
standard library.
"""

import json

import pytest

from ccsym.coeff import RingSpec, ring_new
from ccsym.laurent import Window, from_terms, invert, one, series_from_json, t_var

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

RINGS = [
    ring_new(RingSpec("Q", nil=(("e1", 2), ("e2", 3)))),
    ring_new(RingSpec(9, free=("u",), nil=(("e", 2),))),
]
CHECK = settings(max_examples=60, deadline=None)


def _coefs(ring):
    scalars = (st.fractions(-4, 4, max_denominator=3) if ring.base == "Q"
               else st.integers(-4, 4)).map(ring.from_scalar)
    gens = st.sampled_from([ring.one()] + [ring.gen(g) for g in ring.gens])
    return st.lists(st.tuples(scalars, gens), min_size=1, max_size=3).map(
        lambda ms: sum((a * g for a, g in ms), ring.zero()))


@st.composite
def series(draw):
    """An exact series, a windowed one from ``from_terms``, a windowed one
    from arithmetic on it (a sum, a product or a shift by an exact series),
    or an expansion certified only below its floor in ``t_1``: the inverse of
    ``1 + t_1`` up to a negative ``t_1`` exponent holds no term, and its
    floor lies above its ceiling there."""
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 2))
    idx = st.tuples(*[st.integers(-3, 3)] * n)
    exact = from_terms(ring, n, draw(st.lists(st.tuples(idx, _coefs(ring)), max_size=4)))
    kind = draw(st.sampled_from(["exact", "window", "sum", "product", "shift", "above"]))
    if kind == "exact":
        return ring, exact
    if kind == "above":
        hi = (draw(st.integers(-3, -1)),) + draw(idx)[1:]
        lo = tuple(x - 1 for x in hi)
        return ring, invert(one(ring, n) + t_var(ring, n, 1), Window(lo, hi))
    lo = draw(idx)
    hi = tuple(a + b for a, b in zip(lo, draw(st.tuples(*[st.integers(0, 4)] * n))))
    above = st.tuples(*[st.integers(0, 5)] * n).map(lambda d: tuple(a + b for a, b in zip(lo, d)))
    f = from_terms(ring, n, draw(st.lists(st.tuples(above, _coefs(ring)), max_size=4)),
                   Window(lo, hi))
    if kind == "sum":
        f = f + exact
    elif kind == "product":
        f = f * exact
    elif kind == "shift":
        f = f.shift(draw(idx))
    return ring, f


@CHECK
@given(series())
def test_series_json_round_trip(case):
    ring, f = case
    doc = json.loads(json.dumps(f.to_json()))
    assert series_from_json(ring, doc) == f
    window = doc["window"]
    assert (window is None) == f.is_exact()
    if window is not None:  # every emitted term lies inside its own window
        for t in doc["terms"]:
            assert all(lo <= x <= hi for lo, x, hi in zip(window["lo"], t["exp"], window["hi"]))
