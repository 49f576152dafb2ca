"""Hypothesis properties of ``Coef``: ring axioms, inverses, exp and log.

Skipped when Hypothesis is not installed; the engine itself needs only the
standard library.
"""

from fractions import Fraction

import pytest

from ccsym.coeff import RingSpec, ring_new

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

RINGS = {
    "Q[u; e1^2, e2^3]": ring_new(RingSpec("Q", free=("u",), nil=(("e1", 2), ("e2", 3)))),
    "Z[e^3]": ring_new(RingSpec("Z", nil=(("e", 3),))),
    "Z/9[e^2]": ring_new(RingSpec(9, nil=(("e", 2),))),
    "Z/8[u; e^2]": ring_new(RingSpec(8, free=("u",), nil=(("e", 2),))),
    "Q[x^4, y^4; deg <= 3]": ring_new(RingSpec("Q", nil=(("x", 4), ("y", 4)),
                                               nil_total_cap=3)),
}
RATIONAL = [name for name, ring in RINGS.items() if ring.has_rationals()]
CHECK = settings(max_examples=60, deadline=None)


def _scalars(ring):
    if ring.base == "Q":
        return st.fractions(min_value=-4, max_value=4, max_denominator=4)
    return st.integers(-6, 6)


def _exponents(ring):
    return st.tuples(*[st.integers(0, 2) for _ in range(ring.nfree)],
                     *[st.integers(0, d) for d in ring.nil_orders])


def elements(ring):
    return st.dictionaries(_exponents(ring), _scalars(ring), max_size=4).map(
        lambda raw: ring.make({e: ring.scalar(s) for e, s in raw.items()}))


def nilpotents(ring):
    """Terms of positive nil degree, plus scalar multiples of p over Z/p^k."""
    p = ring.mod_prime_power[0] if ring.mod_prime_power else 0

    def build(raw):
        terms = {e: ring.scalar(s if sum(e[ring.nfree:]) else p * s) for e, s in raw.items()}
        return ring.make(terms)

    return st.dictionaries(_exponents(ring), _scalars(ring), max_size=4).map(build)


def units(ring):
    if ring.base == "Q":
        c = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)
    elif ring.base == "Z":
        c = st.sampled_from([1, -1])
    else:
        p = ring.mod_prime_power[0]
        c = st.integers(1, ring.modulus - 1).filter(lambda s: s % p)
    return st.tuples(c, nilpotents(ring)).map(lambda cw: cw[1] + cw[0])


@pytest.mark.parametrize("name", RINGS)
def test_ring_axioms(name):
    ring = RINGS[name]

    @CHECK
    @given(st.tuples(elements(ring), elements(ring), elements(ring)))
    def check(abc):
        a, b, c = abc
        assert (a + b) + c == a + (b + c) and a + b == b + a
        assert (a * b) * c == a * (b * c) and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ring.zero() == a and a * ring.one() == a
        assert (a + (-a)).is_zero() and a - b == a + (-b)

    check()


@pytest.mark.parametrize("name", RINGS)
def test_inverse(name):
    ring = RINGS[name]

    @CHECK
    @given(units(ring))
    def check(x):
        assert x * x.inverse() == ring.one()

    check()


@pytest.mark.parametrize("name", RATIONAL)
def test_exp_is_a_homomorphism_and_log_undoes_it(name):
    ring = RINGS[name]

    @CHECK
    @given(st.tuples(nilpotents(ring), nilpotents(ring)))
    def check(ab):
        a, b = ab
        assert (a + b).exp() == a.exp() * b.exp()
        assert a.exp().log() == a
        assert (a * Fraction(1, 3)).exp() ** 3 == a.exp()

    check()
