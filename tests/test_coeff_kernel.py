"""The packed ``Coef`` kernel against a schoolbook reference.

The reference works on ``{exponent tuple: scalar}`` dicts, the shape of
``Coef.terms``: a product adds exponent vectors, and a monomial is zero once
some nil exponent reaches its order or the nil degree passes the cap.
sympy, when installed, is a second oracle over Q and Z.  Hypothesis drives
the random elements; without it those tests are skipped.
"""

import math
from fractions import Fraction

import pytest

from ccsym.coeff import RingSpec, exp_coefficient, log_coefficient, ring_new
from ccsym.errors import NotInvertibleError, UnsupportedRingError
from ccsym.laurent import from_terms

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

RINGS = {
    "Q[e1^2, e2^3]": ring_new(RingSpec("Q", nil=(("e1", 2), ("e2", 3)))),
    "Z[u; e^3]": ring_new(RingSpec("Z", free=("u",), nil=(("e", 3),))),
    "Z/9[e1^2, e2^2]": ring_new(RingSpec(9, nil=(("e1", 2), ("e2", 2)))),
    "Z/48[u; e^2]": ring_new(RingSpec(48, free=("u",), nil=(("e", 2),))),
    "Q[u, v; e^4]": ring_new(RingSpec("Q", free=("u", "v"), nil=(("e", 4),))),
    "Q[x^4, y^5; deg <= 3]": ring_new(RingSpec("Q", nil=(("x", 4), ("y", 5)),
                                               nil_total_cap=3)),
    "Q[a0..a12, all ^7; deg <= 6]": ring_new(RingSpec(
        "Q", nil=tuple((f"a{i}", 7) for i in range(13)), nil_total_cap=6)),
}
CHECK = settings(max_examples=50, deadline=None)


# -- the schoolbook reference ----------------------------------------------------

def ref_reduce(ring, raw):
    out = {}
    for exps, s in raw.items():
        nil = exps[ring.nfree:]
        if any(e >= d for e, d in zip(nil, ring.nil_orders)):
            continue
        if ring.nil_total_cap is not None and sum(nil) > ring.nil_total_cap:
            continue
        if ring.modulus is not None:
            s %= ring.modulus
        if s:
            out[exps] = s
    return out


def ref_add(ring, a, b):
    raw = dict(a)
    for e, s in b.items():
        raw[e] = raw.get(e, 0) + s
    return ref_reduce(ring, raw)


def ref_mul(ring, a, b):
    raw = {}
    for ea, sa in a.items():
        for eb, sb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            raw[e] = raw.get(e, 0) + sa * sb
    return ref_reduce(ring, raw)


def ref_str(ring, a):
    if not a:
        return "0"
    parts = []
    for exps in sorted(a, key=lambda e: (sum(e), e), reverse=True):
        factors = [str(a[exps])] + [f"{g}^{e}" for g, e in zip(ring.gens, exps) if e]
        parts.append("*".join(factors))
    return " + ".join(parts)


def ref_one(ring):
    return {(0,) * len(ring.gens): 1}


# -- random elements --------------------------------------------------------------

def _scalars(ring):
    if ring.base == "Q":
        return st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.integers(-60, 60)


def _exponents(ring):
    """Sparse exponent vectors: free exponents up to 3, nil exponents up to
    the order, so that some monomials are zero on arrival."""
    bounds = [3] * ring.nfree + list(ring.nil_orders)
    if not bounds:
        return st.just(())
    return st.dictionaries(st.integers(0, len(bounds) - 1), st.integers(1, max(bounds)),
                           max_size=3).map(
        lambda d: tuple(min(d.get(i, 0), bounds[i]) for i in range(len(bounds))))


def raw_elements(ring):
    return st.dictionaries(_exponents(ring), _scalars(ring), max_size=6)


def _scalar(ring, s):
    if ring.base == "Q":
        return Fraction(s)
    return s % ring.modulus if ring.modulus else s


def pairs(ring):
    """(element, reference dict) from one raw dict."""
    return raw_elements(ring).map(
        lambda raw: (ring.make(raw), ref_reduce(ring, {e: _scalar(ring, s)
                                                       for e, s in raw.items()})))


def _radical(m):
    rad, p, rest = 1, 2, m
    while rest > 1:
        if rest % p == 0:
            rad *= p
            while rest % p == 0:
                rest //= p
        p += 1
    return rad


def units(ring):
    """A unit constant plus terms of positive nil degree or nilpotent scalars."""
    rad = _radical(ring.modulus) if ring.modulus else 0
    if ring.base == "Q":
        c = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)
    elif ring.base == "Z":
        c = st.sampled_from([1, -1])
    else:
        c = st.integers(1, ring.modulus - 1).filter(lambda s: math.gcd(s, ring.modulus) == 1)

    def build(cw):
        c, raw = cw
        raw = {e: s if sum(e[ring.nfree:]) else rad * s for e, s in raw.items()}
        raw[(0,) * len(ring.gens)] = raw.get((0,) * len(ring.gens), 0) + c
        return ring.make(raw)

    return st.tuples(c, raw_elements(ring)).map(build)


# -- differential tests -------------------------------------------------------------

@pytest.mark.parametrize("name", RINGS)
def test_operations_match_the_reference(name):
    ring = RINGS[name]

    @CHECK
    @given(pairs(ring), pairs(ring))
    def check(ap, bp):
        (a, ra), (b, rb) = ap, bp
        assert a.terms == ra and b.terms == rb
        assert (a * b).terms == ref_mul(ring, ra, rb)
        assert (a + b).terms == ref_add(ring, ra, rb)
        # canonical forms: equal elements are equal structurally
        assert a * b == ring.make(ref_mul(ring, ra, rb)) == b * a
        assert a + b == ring.make(ref_add(ring, ra, rb)) == b + a
        assert hash(a * b) == hash(ring.make(ref_mul(ring, ra, rb)))
        assert (a + (-a)).is_zero() and (a + b) - b == a
        assert (-a).terms == ref_reduce(ring, {e: -s for e, s in ra.items()})
        assert (a - b).terms == ref_add(ring, ra, {e: -s for e, s in rb.items()})
        assert str(a) == ref_str(ring, ra)
        assert ring.parse_coef(str(a)) == a

    check()


@pytest.mark.parametrize("name", RINGS)
def test_inverse_matches_the_reference(name):
    ring = RINGS[name]

    @CHECK
    @given(units(ring))
    def check(x):
        assert ref_mul(ring, dict(x.terms), dict(x.inverse().terms)) == ref_one(ring)

    check()


@pytest.mark.parametrize("name", [n for n, r in RINGS.items() if r.base in ("Q", "Z")])
def test_product_matches_sympy(name):
    sympy = pytest.importorskip("sympy")
    ring = RINGS[name]
    gens = sympy.symbols(list(ring.gens))
    domain = sympy.QQ if ring.base == "Q" else sympy.ZZ

    def poly(terms):
        return sympy.Poly.from_dict({e: sympy.Rational(s.numerator, s.denominator)
                                     if ring.base == "Q" else s for e, s in terms.items()},
                                    *gens, domain=domain)

    def back(c):
        return Fraction(int(c.p), int(c.q)) if ring.base == "Q" else int(c)

    @CHECK
    @given(pairs(ring), pairs(ring))
    def check(ap, bp):
        (a, ra), (b, rb) = ap, bp
        product = poly(ra) * poly(rb)
        want = ref_reduce(ring, {e: back(c) for e, c in product.terms() if c})
        assert (a * b).terms == want

    check()


# -- the packed inverse against the geometric series ------------------------------------

INVERSE_RINGS = {
    "Q": ring_new(RingSpec("Q")),
    "Z": ring_new(RingSpec("Z")),
    "Z/8": ring_new(RingSpec(8)),
    "Z/9": ring_new(RingSpec(9)),
    "Z/27": ring_new(RingSpec(27)),
    "Q[u; e^3]": ring_new(RingSpec("Q", free=("u",), nil=(("e", 3),))),
    "Q[x^4, y^5; deg <= 3]": RINGS["Q[x^4, y^5; deg <= 3]"],
    "Z/9[u]": ring_new(RingSpec(9, free=("u",))),
    "Z/9[e^2]": ring_new(RingSpec(9, nil=(("e", 2),))),
}
# a bare scalar (nil index 1), a negative constant over Q, a unit whose
# nilpotent part dies only in a product (e^2 = 0 or 6u * 6u = 0 mod 9)
INVERSE_EXAMPLES = {
    "Q": ["-3/2"],
    "Z": ["-1"],
    "Q[u; e^3]": ["-2 + 3*u^1*e^1 + 1/2*e^2"],
    "Z/9[u]": ["6*u^1 + 1"],
    "Z/9[e^2]": ["3*e^1 + 1"],
}


def inverse_by_series(x):
    """The route ``Coef.inverse`` took before its packed pass: the geometric
    series of ``w = 1 - x * c0^-1`` summed with ``Coef`` products and sums,
    then scaled by ``c0^-1``."""
    ring = x.ring
    inv0 = ring.scalar(Fraction(1, x.constant_scalar()))
    w = ring.one() - x * inv0
    acc, p = ring.one(), w
    for _ in range(1, ring.nil_index):
        if not p:
            break
        acc = acc + p
        p = p * w
    assert not p
    return acc * inv0


def non_units(ring):
    """Any terms over a constant that is no unit of the base, hence no unit."""
    zero = (0,) * len(ring.gens)
    if ring.modulus is None:
        bad = [0] if ring.base == "Q" else [0, 2, -3]
    else:
        bad = [k for k in range(ring.modulus) if math.gcd(k, ring.modulus) != 1]

    def build(cw):
        c, raw = cw
        raw = {e: s for e, s in raw.items() if e != zero}
        raw[zero] = c
        return ring.make(raw)

    return st.tuples(st.sampled_from(bad), raw_elements(ring)).map(build)


@pytest.mark.parametrize("name", INVERSE_RINGS)
def test_packed_inverse_matches_the_geometric_series(name):
    ring = INVERSE_RINGS[name]

    def body(x):
        got = x.inverse()
        want = inverse_by_series(x)
        assert got == want and str(got) == str(want)
        assert x * got == ring.one()

    check = given(units(ring))(body)
    for text in INVERSE_EXAMPLES.get(name, []):
        check = hypothesis.example(ring.parse_coef(text))(check)
    CHECK(check)()

    @CHECK
    @given(non_units(ring))
    def refuse(x):
        with pytest.raises(NotInvertibleError):
            x.inverse()

    refuse()


def test_packed_inverse_examples():
    q = INVERSE_RINGS["Q"]
    assert q.nil_index == 1 and q.from_scalar(Fraction(-3, 2)).inverse() == Fraction(-2, 3)
    z9u = INVERSE_RINGS["Z/9[u]"]
    assert z9u.parse_coef("6*u + 1").inverse() == z9u.parse_coef("3*u + 1")
    z9e = INVERSE_RINGS["Z/9[e^2]"]
    assert z9e.parse_coef("3*e + 2").inverse() == z9e.parse_coef("6*e + 5")
    assert INVERSE_RINGS["Z"].from_scalar(-1).inverse() == -1


# -- the packed exp and log against the power sum ---------------------------------------

SERIES_RINGS = {
    "Q[e^4]": ring_new(RingSpec("Q", nil=(("e", 4),))),
    "Q[u; e^2, f^2]": ring_new(RingSpec("Q", free=("u",), nil=(("e", 2), ("f", 2)))),
    "Q[x^4, y^5; deg <= 3]": RINGS["Q[x^4, y^5; deg <= 3]"],
    "Q[a0..a12, all ^7; deg <= 6]": RINGS["Q[a0..a12, all ^7; deg <= 6]"],
}
# the first of each has a denominator above 1; each has a product that
# reaches the top nil degree the ring keeps
SERIES_EXAMPLES = {
    "Q[e^4]": ["1/2*e^1 + 2/3*e^2", "e^1 + e^3"],
    "Q[u; e^2, f^2]": ["1/2*u^2*e^1 + 3*u^1*f^1 + 1/3*e^1*f^1", "u^3*e^1 + f^1"],
    "Q[x^4, y^5; deg <= 3]": ["1/2*x^1 + 1/3*y^2 + x^1*y^1", "y^1 + 5/4*x^2"],
    "Q[a0..a12, all ^7; deg <= 6]": [
        "a0 + a1 + 1/2*a2^1*a3^1 + a4^5 + 3/5*a0^1*a1^1*a2^1*a3^1*a4^1",
        "1/6*a0 + a12 + a11^2 + 2*a5^1*a6^1*a7^1 + a1^4 + a2^1*a3^4",
    ],
}


def series_by_powers(w, coef_at):
    """``sum coef_at(i) * w^i`` summed with ``Coef`` products and sums, the
    route ``Coef.exp`` and ``Coef.log`` took before their packed pass."""
    ring = w.ring
    acc, p = ring.from_scalar(coef_at(0)), w
    for i in range(1, ring.nil_index):
        if not p:
            break
        acc = acc + p * coef_at(i)
        p = p * w
    assert not p
    return acc


def nilpotents(ring):
    """Terms of positive nil degree only, so every element is nilpotent."""
    return raw_elements(ring).map(
        lambda raw: ring.make({e: s for e, s in raw.items() if sum(e[ring.nfree:])}))


@pytest.mark.parametrize("name", SERIES_RINGS)
def test_packed_exp_and_log_match_the_power_sum(name):
    ring = SERIES_RINGS[name]

    def body(w):
        for got, want in ((w.exp(), series_by_powers(w, exp_coefficient)),
                          ((1 + w).log(), series_by_powers(w, log_coefficient))):
            assert got == want and str(got) == str(want)

    check = given(nilpotents(ring))(body)
    assert ring.parse_coef(SERIES_EXAMPLES[name][0]).den > 1
    for text in SERIES_EXAMPLES[name]:
        check = hypothesis.example(ring.parse_coef(text))(check)
    CHECK(check)()


# -- the terms view ----------------------------------------------------------------------

@pytest.mark.parametrize("name", RINGS)
def test_terms_view_contract(name):
    ring = RINGS[name]
    scalar_type = Fraction if ring.base == "Q" else int

    @CHECK
    @given(pairs(ring))
    def check(xp):
        x, _ = xp
        view = x.terms
        items = list(view.items())
        assert len(view) == len(items) == len(set(view))
        for exps, s in items:
            assert type(exps) is tuple and len(exps) == len(ring.gens)
            assert type(s) is scalar_type and s
            assert exps in view and view[exps] == s
        assert list(view.values()) == [s for _, s in items]
        assert ring.make(dict(view)) == x
        assert (-1,) * len(ring.gens) not in view and "e" not in view
        with pytest.raises(TypeError):
            view[(0,) * len(ring.gens)] = 1

    check()


@pytest.mark.parametrize("name", ["Q[e1^2, e2^3]", "Z[u; e^3]", "Z/9[e1^2, e2^2]"])
def test_scalar_product_matches_the_general_product(name):
    """``c * s`` for an int or ``Fraction`` scales the numerators; it equals
    ``c * ring.from_scalar(s)`` (canonical, a scalar that is zero in the ring
    giving zero) and refuses what ``from_scalar`` refuses, with its error."""
    ring = RINGS[name]

    @CHECK
    @given(pairs(ring), st.integers(-20, 20) | st.sampled_from([9, -18, 27])
           | st.fractions(-5, 5, max_denominator=6))
    def check(ap, s):
        a, _ = ap
        try:
            want = a * ring.from_scalar(s)
        except (UnsupportedRingError, NotInvertibleError) as exc:
            for scaled in (lambda: a * s, lambda: s * a):
                with pytest.raises(type(exc)):
                    scaled()
            return
        assert a * s == want == s * a
        f = from_terms(ring, 1, [((0,), a)])
        assert f * s == from_terms(ring, 1, [((0,), want)]) == s * f

    check()
    a = ring.make({(0,) * len(ring.gens): 2, (0,) * (len(ring.gens) - 1) + (1,): 1})
    assert a * 0 == ring.zero() == a * Fraction(0)
    if ring.modulus == 9:
        assert a * 9 == ring.zero() and a * 3 != ring.zero()
        assert a * Fraction(1, 2) == a * 5
        with pytest.raises(NotInvertibleError):
            a * Fraction(1, 3)
    if ring.base == "Z":
        with pytest.raises(UnsupportedRingError):
            a * Fraction(1, 2)


# -- free exponents ------------------------------------------------------------------------

def test_huge_free_exponent_is_refused():
    ring = ring_new(RingSpec("Q", free=("u", "v"), nil=(("e", 2),)))
    for text in ("u^65536", "2*v^" + str(10 ** 30), "u^40000*u^40000"):
        with pytest.raises(UnsupportedRingError):
            ring.parse_coef(text)
    with pytest.raises(UnsupportedRingError):
        ring.make({(0, 1 << 70, 0): 1})
    x = ring.parse_coef("u^40000 + e")
    with pytest.raises(UnsupportedRingError):
        x * x
    with pytest.raises(UnsupportedRingError):
        ring.gen("u") ** 70000
    # the field holds 65535, and its neighbours are untouched up to there
    y = ring.parse_coef("u^32767*v^65535")
    assert (y * ring.gen("u")).terms == {(32768, 65535, 0): 1}
    assert (y * y.ring.parse_coef("u^32768")).terms == {(65535, 65535, 0): 1}
    with pytest.raises(UnsupportedRingError):
        y * ring.gen("v")
    # nil exponents past the order are zero, however large
    assert ring.parse_coef("e^" + str(10 ** 30)).is_zero()


def test_huge_free_exponent_of_a_zero_monomial_is_dropped():
    # only live monomials must fit: u^80000*e^2 is zero over Q[u; e^2]
    ring = ring_new(RingSpec("Q", free=("u",), nil=(("e", 2),)))
    x = ring.parse_coef("u^40000*e")
    assert (1 + x) ** 2 == 1 + 2 * x
    assert (x * x).is_zero() and (x * ring.parse_coef("u^40000*e + 3")) == 3 * x
    assert x.exp() == 1 + x and (1 + x).log() == x
    assert ring.parse_coef("u^70000*e^2 + e").terms == {(0, 1): 1}
    assert ring.make({(1 << 70, 2): 5}).is_zero()
    capped = ring_new(RingSpec("Z", free=("u",), nil=(("e", 3), ("f", 3)), nil_total_cap=1))
    y = capped.parse_coef("u^40000*e + u^40000*f + 1")
    assert y * y == capped.parse_coef("2*u^40000*e + 2*u^40000*f + 1")


def test_negative_nil_total_cap_is_refused():
    # a negative cap would kill even the constant monomial
    with pytest.raises(UnsupportedRingError):
        ring_new(RingSpec("Q", nil=(("e", 2),), nil_total_cap=-1))
    assert ring_new(RingSpec("Q", nil=(("e", 2),), nil_total_cap=0)).gen("e").is_zero()
