"""The flat series product and the certified expansions against a schoolbook reference.

The reference works on ``{index tuple: Coef}`` term dicts with ``Coef`` ``*``
and ``+`` alone: a product adds the indices of every pair of terms, keeps the
pairs inside the box and sums their coefficient products.  Expansions sum
``c_i * g^i`` term by term, truncating each power only where no later factor
can bring a term back below the window's ceiling.  The kernel's private
helpers store indices as packed int keys: ``packed`` and ``decoded`` carry a
tuple-keyed dict there and back.  Hypothesis drives the random series;
without it these tests are skipped.
"""

import math
from fractions import Fraction

import pytest

from ccsym import laurent
from ccsym.coeff import (
    RingSpec,
    exp_coefficient,
    geometric_coefficient,
    log_coefficient,
    ring_new,
)
from ccsym.errors import UnsupportedRingError, WindowExceededError
from ccsym.laurent import (
    LaurentElt,
    Window,
    exp_sharp,
    from_terms,
    invert,
    log_sharp,
    product_coefficient,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
example, given, settings = hypothesis.example, hypothesis.given, hypothesis.settings

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
# Z/48 is not connected: nilpotence, and so every expansion, is undecided there
CONNECTED = [name for name, ring in RINGS.items() if ring.mod_prime_power or not ring.modulus]
RATIONAL = [name for name, ring in RINGS.items() if ring.base == "Q"]
CHECK = settings(max_examples=30, deadline=None)
PER_RING = settings(max_examples=15, deadline=None)


# -- random elements ---------------------------------------------------------------

def _scalars(ring):
    if ring.base == "Q":
        return st.fractions(-4, 4, max_denominator=4)
    return st.integers(-5, 5)


@st.composite
def _exponents(draw, ring, nilpotent=False):
    """A sparse exponent vector; with ``nilpotent``, of positive nil degree."""
    exps = [0] * len(ring.gens)
    for i in draw(st.lists(st.integers(0, len(ring.gens) - 1), max_size=3)):
        cap = 2 if i < ring.nfree else min(2, ring.nil_orders[i - ring.nfree] - 1)
        exps[i] = draw(st.integers(1, cap))
    if nilpotent and not any(exps[ring.nfree:]):
        exps[draw(st.integers(ring.nfree, len(ring.gens) - 1))] = 1
    return tuple(exps)


@st.composite
def coefs(draw, ring, nilpotent=False):
    """A ``Coef`` of up to three monomials; with ``nilpotent``, a nilpotent one
    (over Z/p^k also through multiples of p)."""
    raw = {}
    for _ in range(draw(st.integers(1, 3))):
        scalar = draw(_scalars(ring))
        exps = draw(_exponents(ring, nilpotent))
        if nilpotent and ring.mod_prime_power and draw(st.booleans()):
            scalar, exps = ring.mod_prime_power[0] * scalar, draw(_exponents(ring))
        raw[exps] = raw.get(exps, 0) + scalar
    return ring.make(raw)


def _indices(n, lo=-2, hi=2):
    return st.tuples(*[st.integers(lo, hi)] * n)


@st.composite
def term_dicts(draw, ring, n, size=4):
    return {l: c for l, c in draw(st.dictionaries(_indices(n), coefs(ring), max_size=size)).items()
            if c}


@st.composite
def series(draw, ring, n):
    """An exact series or a windowed one whose floor lies at or below its terms."""
    terms = draw(term_dicts(ring, n))
    if draw(st.booleans()):
        return from_terms(ring, n, terms.items())
    lo = tuple(min([l[j] for l in terms] + [draw(st.integers(-3, 1))]) for j in range(n))
    hi = tuple(max(a, draw(st.integers(-2, 4))) for a in lo)
    return from_terms(ring, n, terms.items(), Window(lo, hi))


@st.composite
def sharp_generators(draw, ring, n, constant=True, nilpotent=False):
    """An exact expansion generator: unit coefficients only at lex-positive,
    componentwise nonnegative indices, nilpotent ones elsewhere; with
    ``nilpotent``, nilpotent ones everywhere."""
    terms = {}
    for l in draw(st.lists(_indices(n, -1, 2), min_size=1, max_size=3, unique=True)):
        if l == (0,) * n and not constant:
            continue
        free = (not nilpotent and laurent.lex_positive(l) and min(l) >= 0
                and draw(st.booleans()))
        c = draw(coefs(ring, nilpotent=not free))
        if c:
            terms[l] = c
    return from_terms(ring, n, terms.items())


@st.composite
def ring_and_n(draw, names):
    return RINGS[draw(st.sampled_from(names))], draw(st.integers(1, 2))


class Replay:
    """The draws of a falsifying example, as ``@example(data=Replay(...))``.

    Each ``draw`` returns the next value.  Every run of a test replays from
    the first draw, since :func:`_replay_from_the_first_draw` rewinds each
    ``Replay`` before each test: a run that stops early cannot misalign the
    next.  The values carry their own ring: a test parametrized by ring runs
    the example under each of its names.
    """

    made = []

    def __init__(self, *draws):
        self.draws = draws
        self.rewind()
        Replay.made.append(self)

    def rewind(self):
        self._next = iter(self.draws)

    def draw(self, strategy, label=None):
        return next(self._next)

    def __repr__(self):
        return f"Replay{self.draws!r}"


@pytest.fixture(autouse=True)
def _replay_from_the_first_draw():
    """Each test, and so each parametrization, runs its explicit example once."""
    for replay in Replay.made:
        replay.rewind()


# Falsifying examples of mutants of the kernel, replayed before any random
# case so that such a regression reports at once instead of after shrinking.
_QE, _QUVE = RINGS["Q[e1^2, e2^3]"], RINGS["Q[u, v; e^4]"]
# the box test strict at hi in _flat_product drops t * 1 at hi = (1,)
BOX_AT_HI = Replay(1, {(1,): _QE.one()}, {(0,): _QE.one()}, (1,))
# _flat_product without its lower box test keeps e2^2 t^-2 of (e2 t^-1)^2 below lo = (-1,)
LOWER_CUT = Replay(1, from_terms(_QE, 1, [((-1,), _QE.gen("e2"))]), None, (-1,))
# the sum of _expand_series skipping l == hi loses 2*e1 at t^0 of 1 / (1 + e1/t + t)
SUM_AT_HI = Replay((_QE, 1), from_terms(_QE, 1, [((-1,), _QE.gen("e1")), ((1,), 1)]), (0,))
# each power of log(1 + e/t + e) cut one factor too low loses e^3/3 at t^0
_E = _QUVE.gen("e")
CEILING = Replay((_QUVE, 1), from_terms(_QUVE, 1, [((-1,), _E), ((0,), _E)]), False, (0,))
# the lower cut of g^i one factor too high loses e^3 t^3 / 3 of log(1 + e t) on [3, 3]
BAND = Replay((_QUVE, 1), from_terms(_QUVE, 1, [((1,), _E)]), (3,), (3,))


# -- the schoolbook reference ------------------------------------------------------------

def _le(l, m):
    return all(a <= b for a, b in zip(l, m))


def packed(terms):
    """A tuple-keyed term dict on the packed index keys the kernel reads."""
    return {laurent._pack(l): c for l, c in terms.items()}


def decoded(terms, n):
    """A term dict of the kernel, keyed by index tuples again."""
    return {laurent._decode(k, n): c for k, c in terms.items()}


def ref_mul_terms(a, b, hi, lo=None):
    out = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            l = tuple(x + y for x, y in zip(la, lb))
            if (hi is not None and not _le(l, hi)) or (lo is not None and not _le(lo, l)):
                continue
            out[l] = out[l] + ca * cb if l in out else ca * cb
    return {l: c for l, c in out.items() if c}


def ref_floor(x):
    if x.hi is not None:
        return x.floor
    return tuple(min(l[j] for l in x.terms) for j in range(x.n)) if x.terms else (0,) * x.n


def ref_hi(a, b):
    """Every index of the product that all splits of it certify."""
    bounds = [tuple(map(sum, zip(x.hi, ref_floor(y)))) for x, y in ((a, b), (b, a))
              if x.hi is not None]
    return tuple(min(b[j] for b in bounds) for j in range(a.n)) if bounds else None


def ref_expand(g, coeff_at, hi):
    """``sum coeff_at(i) * g^i`` on the indices ``<= hi`` (all of them when
    ``hi`` is None and ``g`` is nilpotent).  A power keeps its terms up to
    ``hi`` plus the depth to which at most ``nil_index - 1`` nilpotent factors
    can lower an index; no term above that comes back."""
    ring, n = g.ring, g.n
    top = None
    if hi is not None:
        depth = [max([0] + [-l[j] for l in g.terms]) for j in range(n)]
        top = tuple(h + (ring.nil_index - 1) * d for h, d in zip(hi, depth))
    acc, p = {}, {(0,) * n: ring.one()}
    for i in range(400):
        c = coeff_at(i)
        for l, v in p.items():
            acc[l] = acc[l] + v * c if l in acc else v * c
        p = ref_mul_terms(p, g.terms, top)
        if not p:
            break
    else:
        raise AssertionError("the reference expansion did not terminate")
    return {l: v for l, v in acc.items() if v}


def assert_certified(result, g, coeff_at):
    """``result`` equals ``sum coeff_at(i) * g^i`` wherever it is certified
    (everywhere when it is exact), and its floor lies below every term there."""
    hi = result.hi
    ref = ref_expand(g, coeff_at, hi)
    if hi is None:
        assert result.terms == ref
        return
    assert all(_le(l, hi) for l in result.terms)
    zero = result.ring.zero()
    for l in set(result.terms) | {l for l in ref if _le(l, hi)}:
        assert result.terms.get(l, zero) == ref.get(l, zero), l
        assert _le(result.floor, l)


# -- products --------------------------------------------------------------------------------

@pytest.mark.parametrize("name", RINGS)
@PER_RING
@example(data=BOX_AT_HI)
@given(data=st.data())
def test_mul_terms_matches_the_reference(name, data):
    ring, n = RINGS[name], data.draw(st.integers(1, 2))
    a, b = data.draw(term_dicts(ring, n)), data.draw(term_dicts(ring, n))
    hi = data.draw(st.none() | _indices(n, -3, 4))
    assert decoded(laurent._mul_terms(n, packed(a), packed(b), hi), n) == ref_mul_terms(a, b, hi)


@pytest.mark.parametrize("name", RINGS)
@PER_RING
@given(data=st.data())
def test_windowed_product_matches_the_reference(name, data):
    ring, n = RINGS[name], data.draw(st.integers(1, 2))
    a, b = data.draw(series(ring, n)), data.draw(series(ring, n))
    got = a * b
    if (a.hi is None and not a.terms) or (b.hi is None and not b.terms):
        assert got.is_zero()
        return
    hi = ref_hi(a, b)
    assert got.hi == hi
    assert got.terms == ref_mul_terms(a.terms, b.terms, hi)
    if hi is not None:
        assert got.floor == tuple(map(sum, zip(ref_floor(a), ref_floor(b))))


@pytest.mark.parametrize("name", RINGS)
@PER_RING
@given(data=st.data())
def test_product_coefficient_matches_the_reference(name, data):
    ring, n = RINGS[name], data.draw(st.integers(1, 2))
    a, b = data.draw(series(ring, n)), data.draw(series(ring, n))
    l = data.draw(_indices(n, -4, 4))
    empty = (a.hi is None and not a.terms) or (b.hi is None and not b.terms)
    hi = ref_hi(a, b)
    if not empty and hi is not None and not _le(l, hi):
        with pytest.raises(WindowExceededError):
            product_coefficient(a, b, l)
        return
    want = ref_mul_terms(a.terms, b.terms, l, l).get(l, ring.zero())
    assert product_coefficient(a, b, l) == want


# -- expansions ------------------------------------------------------------------------------

def _window(data, g):
    """No window when ``g`` is elementwise nilpotent (sometimes), else a small box."""
    if all(c.is_nilpotent() for c in g.terms.values()) and data.draw(st.booleans()):
        return None
    hi = data.draw(_indices(g.n, -1, 3))
    return Window(tuple(min(h, -1) for h in hi), hi)


@CHECK
@example(data=SUM_AT_HI)
@given(data=st.data())
def test_invert_matches_the_geometric_series(data):
    ring, n = data.draw(ring_and_n(CONNECTED))
    g = data.draw(sharp_generators(ring, n, constant=False))
    window = _window(data, g)
    assert_certified(invert(g + 1, window), g, lambda i: (-1) ** i)


@CHECK
@example(data=CEILING)
@given(data=st.data())
def test_log_and_exp_match_their_series(data):
    ring, n = data.draw(ring_and_n(RATIONAL))
    g = data.draw(sharp_generators(ring, n))
    window = _window(data, g)
    assert_certified(log_sharp(g + 1, window), g, log_coefficient)
    assert_certified(exp_sharp(g, window), g, exp_coefficient)


@CHECK
@given(data=st.data())
def test_a_nilpotent_generator_is_windowed_under_a_ceiling(data):
    """Under a ceiling, ``log`` and ``exp`` of a generator with no unit
    coefficient are windowed (the ceiling, the expansion floor) and agree
    with the exact expansion at every index below it; the inverse of the
    same generator stays exact."""
    ring, n = data.draw(ring_and_n(CONNECTED))
    g = data.draw(sharp_generators(ring, n, nilpotent=True))
    hi = data.draw(_indices(n, -3, 2))
    window = Window(tuple(min(h, -1) for h in hi), hi)
    pairs = [(log_sharp(g + 1, window), log_sharp(g + 1)),
             (exp_sharp(g, window), exp_sharp(g))] if ring.has_rationals() else []
    floor = laurent._generator_parts(g)[2]
    for got, want in pairs:
        assert (got.hi, got.floor) == (hi, floor)
        assert want.is_exact()
        assert got.terms == {l: c for l, c in want.terms.items() if _le(l, hi)}
    inv = invert(g + 1, window)
    assert inv.is_exact() and inv == invert(g + 1)


def test_a_term_above_the_ceiling_comes_back_to_it():
    """``log(1 + e/t + e t^2)`` over ``Q[e]/(e^4)`` has ``e^3`` at ``t^0``, from
    ``g^3``: ``3 e^3 = 3 * e t^2 * (e/t)^2``.  The powers ``g^1`` and ``g^2``
    must keep ``t^2`` and ``t^1``, above the ceiling, for the factors still to
    come."""
    ring = ring_new(RingSpec("Q", nil=(("e", 4),)))
    e = ring.gen("e")
    f = from_terms(ring, 1, [((0,), 1), ((-1,), e), ((2,), e)])
    got, want = log_sharp(f, Window((-3,), (0,))), log_sharp(f)
    assert (got.hi, got.floor) == ((0,), (-3,))
    assert got.coefficient((0,)) == e ** 3 == want.coefficient((0,))
    assert got.terms == {l: c for l, c in want.terms.items() if l <= (0,)}


@CHECK
@example(data=BAND)
@given(data=st.data())
def test_a_banded_expansion_holds_the_series_on_its_band(data):
    """Under a band, windowed ``log``, ``exp`` and inverse hold the terms of
    the unbanded expansion on ``[band, hi]`` and no others, under the same
    ceiling and floor; an inverse that terminates stays exact and unbanded."""
    ring, n = data.draw(ring_and_n(RATIONAL))
    g = data.draw(sharp_generators(ring, n, constant=False))
    hi = data.draw(_indices(n, -1, 3))
    band = data.draw(_indices(n, -4, 3))
    plain = Window(tuple(min(h, -1) for h in hi), hi)
    parts = laurent._generator_parts(g)
    for coeff_at, public in ((log_coefficient, lambda w: log_sharp(g + 1, w)),
                             (exp_coefficient, lambda w: exp_sharp(g, w)),
                             (geometric_coefficient, lambda w: invert(g + 1, w))):
        # an inverse that terminates is expanded with no ceiling, as _Sharp.inverse does
        ceiling = None if coeff_at is geometric_coefficient and not parts[0] else hi
        got = laurent._expand_series(g, coeff_at, ceiling, parts, band=band)
        want = public(plain)
        if want.is_exact():
            assert got == want
        else:
            assert (got.hi, got.floor) == (want.hi, want.floor)
            assert got.terms == {l: c for l, c in want.terms.items() if _le(band, l)}


@pytest.mark.parametrize("name", CONNECTED)
@PER_RING
@example(data=LOWER_CUT)
@given(data=st.data())
def test_carried_powers_are_canonical(name, data):
    """Each power the expansion carries is ``g^i`` on the box (``None``: an
    open side), over one denominator in lowest terms (residues mod m in
    ``[1, m)``), sorted by key, with no zero numerator and no empty index."""
    ring, n = RINGS[name], data.draw(st.integers(1, 2))
    g = data.draw(sharp_generators(ring, n))
    ring, n = g.ring, g.n  # a replayed example carries its own
    hi = data.draw(st.none() | _indices(n, 0, 3))
    lo = data.draw(st.none() | _indices(n, -3, 0))
    g_den, g_flat = laurent._flat(packed(g.terms))
    top = None if hi is None else laurent._hi_key(hi)
    bottom = None if lo is None else laurent._lo_key(lo)
    den, p = 1, {laurent._pack((0,) * n): [(ring._bias, 1)]}
    ref = {(0,) * n: ring.one()}
    for _ in range(6):
        den, p = laurent._carried(ring, laurent._flat_product(ring, n, p, g_flat, top, bottom),
                                  den * g_den)
        ref = ref_mul_terms(ref, g.terms, hi, lo)
        assert {l: ring._element(dict(xs), den) for l, xs in decoded(p, n).items()} == ref
        nums = [v for xs in p.values() for _, v in xs]
        assert all(xs and xs == sorted(xs) for xs in p.values())
        if ring.modulus:
            assert all(0 < v < ring.modulus for v in nums) and den == 1
        else:
            assert 0 not in nums and math.gcd(den, *nums) == 1


def test_a_carried_power_divides_out_its_gcd():
    """``((e1 + e2^2) / 2)^2 = 2 e1 e2^2 / 4`` is carried as ``e1 e2^2 / 2``."""
    ring = RINGS["Q[e1^2, e2^3]"]
    e1, e2 = ring.gen("e1"), ring.gen("e2")
    g = from_terms(ring, 1, [((1,), (e1 + e2 * e2) * Fraction(1, 2))])
    g_den, g_flat = laurent._flat(packed(g.terms))
    den, p = laurent._carried(ring, laurent._flat_product(ring, 1, g_flat, g_flat, None, None),
                              g_den * g_den)
    assert (den, p) == (2, {laurent._pack((2,)): [(ring._pack((1, 2)), 1)]})


def test_a_nilpotent_scalar_power_is_carried_as_zero():
    """Over Z/9, ``(3t)^2 = 9 t^2`` is zero: the exact expansion ends there."""
    ring = RINGS["Z/9[e1^2, e2^2]"]
    g = from_terms(ring, 1, [((1,), 3)])
    assert invert(g + 1) == from_terms(ring, 1, [((0,), 1), ((1,), 6)])


# -- free-generator overflow -----------------------------------------------------------------

def _huge(ring, nil=0):
    """``u^(2^15) * e^nil`` in ``Z[u; e^3]``: its square overflows u's field."""
    return ring.make({(1 << 15, nil): 1})


def test_free_overflow_raises_in_a_live_series_product():
    ring = RINGS["Z[u; e^3]"]
    a = from_terms(ring, 1, [((0,), _huge(ring)), ((1,), 1)])
    with pytest.raises(UnsupportedRingError):
        a * a
    with pytest.raises(UnsupportedRingError):
        product_coefficient(a, a, (0,))
    g = from_terms(ring, 1, [((1,), _huge(ring, nil=1))])
    with pytest.raises(UnsupportedRingError):
        invert(g + 1)  # g^2 = u^(2^16) e^2 t^2 is alive


def test_free_overflow_is_dropped_in_a_dead_series_product():
    """``e^2 * e^2`` is zero mod ``e^3``, whatever the free exponent."""
    ring = RINGS["Z[u; e^3]"]
    a = from_terms(ring, 1, [((0,), _huge(ring, nil=2))])
    assert (a * a).is_zero()
    assert product_coefficient(a, a, (0,)) == ring.zero()
    g = from_terms(ring, 1, [((1,), _huge(ring, nil=2))])
    assert invert(g + 1) == 1 - g
    assert isinstance(a * a, LaurentElt)


# -- sharp parts weighted by c^-i ----------------------------------------------------------

# The residue planner expands the sharp part S = g / c of g = c + h (c the
# constant term) from h, weighting h^i by c^-i, and never forms S.
WEIGHTED = {
    "Q[e1^2, e2^3]": RINGS["Q[e1^2, e2^3]"],
    "Q[e^3]": ring_new(RingSpec("Q", nil=(("e", 3),))),
    "Q[u; e^2, f^2]": ring_new(RingSpec("Q", free=("u",), nil=(("e", 2), ("f", 2)))),
    "Q[a..e ^4; deg <= 3]": ring_new(RingSpec(
        "Q", nil=tuple((x, 4) for x in "abcde"), nil_total_cap=3)),
}


_QE3 = WEIGHTED["Q[e^3]"]
_E3, _C = _QE3.gen("e"), _QE3.from_scalar(2) + _QE3.gen("e")
# the weight of h^i taken as c^-(i+1) scales log(1 + e t / (2 + e)) at t^1
SCALE_POWER = Replay(1, from_terms(_QE3, 1, [((1,), _E3)]), _C, (1,), (0,), (1,))
# a Dlog that drops its c^-1 reads res(log(1 + e/(2 + e) t^-1) dlog(1 + t/(2 + e)))
# without the 1 / (2 + e) of d(S)
DLOG_SCALE = Replay(from_terms(_QE3, 1, [((-1,), _E3)]), from_terms(_QE3, 1, [((1,), 1)]),
                    _C, _C, 0)


@st.composite
def weighted_constants(draw, ring):
    """A unit ``a0 + N`` with ``a0 != 1`` and ``N`` a nonzero nilpotent."""
    a0 = draw(st.sampled_from([2, -1, 3, Fraction(1, 2), Fraction(-3, 2)]))
    nil = draw(coefs(ring, nilpotent=True).filter(bool))
    return ring.from_scalar(a0) + nil


@pytest.mark.parametrize("name", WEIGHTED)
@PER_RING
@example(data=SCALE_POWER)
@given(data=st.data())
def test_weighted_expansions_match_the_normalized_ones(name, data):
    """``log`` of ``S = 1 + h/c`` and the inverse of ``g = c + h`` from the
    split record of ``g``, with the weights ``c^-i`` and ``c^-(i + 1)``,
    equal ``log S`` and ``c^-1 S^-1`` with ``S = (c + h) * c^-1`` formed and
    expanded from ``S - 1``: exact, windowed, and with a band, with the same
    ceiling and floor.  So do the public ``invert`` of ``t^nu (c + h)`` and
    the public ``dlog``, and the ``Dlog`` factor of the residue planner."""
    from ccsym.forms import Dlog, _Factor, d, dlog, dlog_monomial

    ring, n = WEIGHTED[name], data.draw(st.integers(1, 2))
    h = data.draw(sharp_generators(ring, n, constant=False))
    hypothesis.assume(h.terms)
    c = data.draw(weighted_constants(ring))
    ring, n = h.ring, h.n  # a replayed example carries its own
    scale = c.inverse()
    s = (h + c) * scale
    parts = laurent._generator_parts(h)
    assert parts == laurent._generator_parts(s - 1)
    hi = data.draw(_indices(n, -1, 3))
    window = Window(tuple(min(x, -1) for x in hi), hi)
    record = laurent._Sharp(h + c, c)

    def normalized(coeff_at, hi, band=None):
        # an inverse that terminates is expanded with no ceiling, as _Sharp.inverse does
        if coeff_at is geometric_coefficient and not parts[0]:
            hi = None
        return laurent._expand_series(s - 1, coeff_at, hi, parts, band=band)

    for band in (None, data.draw(_indices(n, -4, 3))):
        assert record.log(hi, band) == normalized(log_coefficient, hi, band)
        assert record.inverse(hi, band) == normalized(geometric_coefficient, hi, band) * scale
        factor = _Factor(Dlog(record))
        factor.need, factor.band = hi, band
        assert factor.form == d(s).scale(normalized(geometric_coefficient, hi, band))
    assert record.log(hi) == log_sharp(s, window)
    if not parts[0]:  # terminating: the inverse is exact, ceiling or not
        exact = record.inverse(hi)
        assert exact.is_exact() and exact == normalized(geometric_coefficient, None) * scale
    nu = data.draw(_indices(n, -2, 2))
    f = (h + c).shift(nu)
    for w in (None, window) if not parts[0] else (window,):
        shifted = None if w is None else laurent._add_idx(w.hi, nu)
        want = (normalized(geometric_coefficient, shifted) * scale).shift(tuple(-x for x in nu))
        assert invert(f, w) == want
        assert dlog(f, w) == dlog_monomial(ring, n, nu) + \
            d(s).scale(normalized(geometric_coefficient, None if w is None else w.hi))


@pytest.mark.parametrize("name", WEIGHTED)
@PER_RING
@example(data=DLOG_SCALE)
@given(data=st.data())
def test_weighted_residue_factors_match_the_normalized_ones(name, data):
    """``res(log(g_1 / c_1) dlog(t^nu g_2))``, planned from ``g_k - c_k``
    with the weights ``c_k^-i``, equals the residue of the normalized sharp
    parts ``S_k = g_k * c_k^-1``, with the log given as the split record of
    ``g_1`` and the dlog as ``t^nu g_2`` or as the record of ``g_2`` (the
    case ``nu = 0``); a ``Dlog`` that drops its ``c^-1`` is off by that
    unit."""
    from ccsym.forms import Dlog, Log, certified_residue

    ring = WEIGHTED[name]
    hs = [data.draw(sharp_generators(ring, 1, constant=False)) for _ in range(2)]
    cs = [data.draw(weighted_constants(ring)) for _ in range(2)]
    gs = [h + c for h, c in zip(hs, cs)]
    nu = data.draw(st.integers(-1, 1))
    f2 = gs[1].shift((nu,))
    sharp = [g * c.inverse() for g, c in zip(gs, cs)]
    want = certified_residue(Log(sharp[0]), [Dlog(sharp[1].shift((nu,)))])
    records = [laurent._Sharp(g, c) for g, c in zip(gs, cs)]
    assert certified_residue(Log(records[0]), [Dlog(f2)]) == want
    assert certified_residue(Log(records[0]), [Dlog(records[1])]) == \
        certified_residue(Log(sharp[0]), [Dlog(sharp[1])])


@pytest.mark.parametrize("name", CONNECTED)
@PER_RING
@given(data=st.data())
def test_the_unnormalized_generator_plans_as_the_sharp_part(name, data):
    """``_generator_parts(t^-nu f - c)`` equals ``_generator_parts(S - 1)``
    for ``f = t^nu * c * S``: unit and nilpotent terms and floor alike, or
    the same refusal.  ``S - 1`` is ``c^-1`` times ``t^-nu f - c`` term by
    term, and a unit factor keeps each term's lowest-graded part up to a
    unit (``laurent._nil_cost``)."""
    ring, n = RINGS[name], data.draw(st.integers(1, 2))
    h = data.draw(sharp_generators(ring, n, constant=False))
    if ring.base == "Q":
        a0 = data.draw(st.sampled_from([1, 2, -1, Fraction(1, 3)]))
    elif ring.modulus:
        a0 = data.draw(st.sampled_from([u for u in range(1, ring.modulus)
                                        if math.gcd(u, ring.modulus) == 1]))
    else:
        a0 = data.draw(st.sampled_from([1, -1]))
    c = ring.from_scalar(a0) + data.draw(coefs(ring, nilpotent=True))
    nu = data.draw(_indices(n, -2, 2))
    f = (h + c).shift(nu)

    def parts(g):
        try:
            return laurent._generator_parts(g)
        except Exception as exc:  # the same refusal on both sides
            return type(exc)

    got_nu, got_c, g = laurent._unit_split(f)
    assert (got_nu, got_c) == (nu, c)
    assert parts(g - c) == parts(laurent.coarse_split(f)[2] - 1)
