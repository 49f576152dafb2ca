import itertools
import json
import random
from fractions import Fraction

import pytest

from ccsym.coeff import RingSpec, ring_new
from ccsym.errors import (
    NotInvertibleError,
    NotSharpError,
    ParseError,
    StabilityExhaustedError,
    WindowExceededError,
)
from ccsym.laurent import (
    LaurentElt,
    Window,
    coarse_split,
    compose_series,
    decompose,
    exp_sharp,
    from_terms,
    invert,
    lex_key,
    log_sharp,
    monomial,
    one,
    series_from_json,
    stable_coefficient,
    t_var,
    valuation,
    window_from_json,
    zero,
)


# -- order ---------------------------------------------------------------------

def test_lex_order_matches_recursive_definition():
    def recursive_le(l, m):
        if not l:
            return True
        if l[-1] != m[-1]:
            return l[-1] < m[-1]
        return recursive_le(l[:-1], m[:-1])

    grid = list(itertools.product(range(-2, 3), repeat=2))
    for l in grid:
        for m in grid:
            le = lex_key(l) <= lex_key(m)
            assert le == recursive_le(l, m)
            # totality and translation invariance
            assert le or lex_key(m) <= lex_key(l)
            shift = (7, -5)
            moved = [lex_key(tuple(a + b for a, b in zip(x, shift))) for x in (l, m)]
            assert le == (moved[0] <= moved[1])


# -- constructors and arithmetic ----------------------------------------------------

def test_from_terms_examples(Qe):
    assert from_terms(Qe, 1, []).is_zero()
    assert from_terms(Qe, 1, [((0,), 1)]) == one(Qe, 1)
    e = Qe.gen("e")
    f = from_terms(Qe, 1, [((-1,), e), ((0,), Qe.one() + e), ((1,), 1)])
    g = from_terms(Qe, 1, [((-1,), e), ((0,), 1)]) * from_terms(Qe, 1, [((0,), 1), ((1,), 1)])
    assert f == g  # (e t^-1 + 1)(1 + t) = e t^-1 + (1+e) + t


def test_mul_examples(Q):
    t = t_var(Q, 1, 1)
    tinv = monomial(Q, 1, (-1,))
    assert t * tinv == one(Q, 1)
    r = ring_new(RingSpec("Q", free=("u",)))
    u = r.gen("u")
    f = from_terms(r, 1, [((0,), 1), ((1,), -u)])
    g = from_terms(r, 1, [((0,), 1), ((1,), u), ((2,), u ** 2), ((3,), u ** 3)],
                   Window.box((0,), (3,)))
    prod = f * g
    assert prod.hi == (3,)
    assert prod.terms == {(0,): r.one()}  # 1 - u^4 t^4 truncated to 1


def test_windowed_product_trust_shrinks(Q):
    g = from_terms(Q, 1, [((i,), 1) for i in range(5)], Window.box((0,), (4,)))
    shifted = g * monomial(Q, 1, (-3,))
    assert shifted.hi == (1,)
    assert shifted.coefficient((1,)) == Q.one()


# -- valuation -------------------------------------------------------------------

def test_valuation_examples(Q, Qe, Z):
    assert valuation(monomial(Q, 2, (2, -1))) == (2, -1)
    e = Qe.gen("e")
    f = from_terms(Qe, 1, [((-1,), e), ((0,), Qe.one() + e), ((1,), 1)])
    assert valuation(f) == (0,)
    with pytest.raises(NotInvertibleError):
        valuation(from_terms(Z, 1, [((0,), 2), ((1,), 1)]))
    with pytest.raises(NotInvertibleError):
        valuation(zero(Q, 1))


# -- decomposition ----------------------------------------------------------------

def test_decompose_paper_example(Qe):
    e = Qe.gen("e")
    f = from_terms(Qe, 1, [((-1,), e), ((0,), Qe.one() + e), ((1,), 1)])
    dec = decompose(f)
    assert dec.nu == (0,) and dec.c == Qe.one()
    assert dec.v_minus == from_terms(Qe, 1, [((0,), 1), ((-1,), e)])
    assert dec.v_plus == from_terms(Qe, 1, [((0,), 1), ((1,), 1)])
    assert dec.product() == f


def test_decompose_monomial(Q):
    dec = decompose(monomial(Q, 1, (2,), 5))
    assert dec.nu == (2,) and dec.c == Q.from_scalar(5)
    assert dec.v_plus == one(Q, 1) and dec.v_minus == one(Q, 1)


def test_decompose_product_form(Qe):
    e = Qe.gen("e")
    vm = (one(Qe, 1) + monomial(Qe, 1, (-1,), e)) * (one(Qe, 1) - monomial(Qe, 1, (-2,), e))
    vp = from_terms(Qe, 1, [((0,), 1), ((1,), 1), ((2,), 1)])
    f = vm * Qe.from_scalar(3) * vp
    dec = decompose(f)
    assert dec.c == Qe.from_scalar(3)
    assert dec.v_minus == vm and dec.v_plus == vp
    assert dec.product() == f


def test_decompose_is_canonical(tower):
    rng = random.Random(11)
    from ccsym.checks import random_invertible_series
    for n in (1, 2):
        for _ in range(15):
            f = random_invertible_series(rng, tower, n)
            dec = decompose(f)
            assert dec.product() == f
            again = decompose(dec.product())
            assert (again.nu, again.c, again.v_plus, again.v_minus) == \
                (dec.nu, dec.c, dec.v_plus, dec.v_minus)


def test_valuation_is_homomorphism(tower):
    rng = random.Random(12)
    from ccsym.checks import random_invertible_series
    for n in (1, 2):
        for _ in range(15):
            f = random_invertible_series(rng, tower, n)
            g = random_invertible_series(rng, tower, n)
            assert valuation(f * g) == tuple(a + b for a, b in zip(valuation(f), valuation(g)))


def test_decompose_infinite_v_minus_refused(tower):
    e2 = tower.gen("e2")
    f = from_terms(tower, 2, [((0, 0), 1), ((1, 0), -1), ((0, -1), e2)])
    with pytest.raises(StabilityExhaustedError):
        decompose(f)


# -- inversion ----------------------------------------------------------------------

def test_invert_examples(Q, Qe):
    assert invert(t_var(Q, 1, 1)) == monomial(Q, 1, (-1,))
    g = invert(from_terms(Q, 1, [((0,), 1), ((1,), -1)]), Window.box((0,), (4,)))
    for i in range(5):
        assert g.coefficient((i,)) == Q.one()
    e = Qe.gen("e")
    h = invert(from_terms(Qe, 1, [((0,), 1), ((-1,), e)]))
    assert h.hi is None
    assert h == from_terms(Qe, 1, [((0,), 1), ((-1,), -e)])


def test_invert_times_self_is_one(tower):
    rng = random.Random(13)
    from ccsym.checks import random_invertible_series
    for n in (1, 2):
        for _ in range(10):
            f = random_invertible_series(rng, tower, n)
            w = Window.cube(n, 4)
            inv = invert(f, w)
            prod = f * inv
            assert prod.coefficient((0,) * n) == tower.one()
            for l in list(prod.terms):
                if l != (0,) * n:
                    assert prod.terms[l].is_zero()


# -- sharp predicates ------------------------------------------------------------------

def test_sharp_examples(Q, Qe):
    assert (from_terms(Q, 1, [((0,), 1), ((1,), 1)]) - 1).is_sharp_add()
    e = Qe.gen("e")
    f = from_terms(Qe, 1, [((0,), Qe.one() + e), ((-1,), e), ((3,), 1)])
    assert (f - 1).is_sharp_add()
    assert not (from_terms(Q, 1, [((0,), 1), ((-1,), 2)]) - 1).is_sharp_add()
    assert from_terms(Qe, 1, [((0,), e), ((2,), 5)]).is_sharp_add()
    assert not from_terms(Q, 1, [((0,), 1)]).is_sharp_add()


def test_mult_sharp_group_closure(tower):
    rng = random.Random(14)
    from ccsym.checks import random_nilpotent_coef
    for _ in range(15):
        f = one(tower, 1) + monomial(tower, 1, (-1,), random_nilpotent_coef(rng, tower)) \
            + monomial(tower, 1, (0,), random_nilpotent_coef(rng, tower))
        g = one(tower, 1) + monomial(tower, 1, (-2,), random_nilpotent_coef(rng, tower)) \
            + monomial(tower, 1, (2,), rng.randint(-2, 2))
        assert (f - 1).is_sharp_add() and (g - 1).is_sharp_add()
        assert (f * g - 1).is_sharp_add()
        assert (invert(f) - 1).is_sharp_add()  # nilpotent tail inverts exactly


# -- log / exp / composition --------------------------------------------------------------

def test_log_exp_examples(Q, Qe):
    assert log_sharp(one(Q, 1)).is_zero()
    e = Qe.gen("e")
    f = from_terms(Qe, 1, [((0,), 1), ((-1,), e)])
    assert exp_sharp(log_sharp(f)) == f
    lg = log_sharp(from_terms(Q, 1, [((0,), 1), ((1,), 1)]), Window.box((-1,), (4,)))
    assert [lg.coefficient((i,)) for i in range(1, 5)] == \
        [Q.from_scalar(Fraction((-1) ** (i + 1), i)) for i in range(1, 5)]
    with pytest.raises(NotSharpError):
        log_sharp(from_terms(Q, 1, [((0,), 2)]))


def test_log_exp_round_trip_windowed(Q):
    f = from_terms(Q, 1, [((0,), 1), ((1,), 1), ((2,), -3)])
    w = Window.box((-1,), (6,))
    back = exp_sharp(log_sharp(f, w), w)
    for i in range(7):
        assert back.coefficient((i,)) == f.terms.get((i,), Q.zero())


def test_compose_series_examples(Qe, Q):
    e = Qe.gen("e")
    li2 = [Fraction(0)] + [Fraction(1, i * i) for i in range(1, 6)]
    f = monomial(Qe, 1, (1,), e)
    assert compose_series(li2, f) == f  # e^2 = 0 kills all higher terms
    log_coeffs = [Fraction(0)] + [Fraction((-1) ** (i + 1), i) for i in range(1, 8)]
    t = t_var(Q, 1, 1)
    got = compose_series(log_coeffs, t, Window.box((-1,), (3,)))
    assert [got.coefficient((i,)) for i in range(1, 4)] == \
        [Q.one(), Q.from_scalar(Fraction(-0.5)), Q.from_scalar(Fraction(1, 3))]


def _poly_compose(outer, inner, degree):
    """Formal composition of truncated power series coefficient lists."""
    out = [Fraction(0)] * (degree + 1)
    out[0] = outer[0]
    power = [Fraction(1)] + [Fraction(0)] * degree
    for k in range(1, len(outer)):
        nxt = [Fraction(0)] * (degree + 1)
        for i, a in enumerate(power):
            if a == 0:
                continue
            for j, b in enumerate(inner):
                if i + j <= degree and b != 0:
                    nxt[i + j] += a * b
        power = nxt
        for d in range(degree + 1):
            out[d] += outer[k] * power[d]
    return out


def test_compose_series_associativity(tower):
    rng = random.Random(15)
    from ccsym.checks import random_nilpotent_coef
    for _ in range(10):
        phi = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(5)]
        psi = [Fraction(0)] + [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        f = monomial(tower, 1, (1,), random_nilpotent_coef(rng, tower)) \
            + monomial(tower, 1, (-1,), random_nilpotent_coef(rng, tower))
        composed = _poly_compose(phi, psi, 8)
        lhs = compose_series(phi, compose_series(psi, f))
        rhs = compose_series(composed, f)
        assert lhs == rhs


# -- stability protocol ---------------------------------------------------------------------

def test_stable_coefficient_geometric(Q):
    f = from_terms(Q, 1, [((0,), 1), ((1,), -1)])
    assert stable_coefficient(lambda w: invert(f, w), (0,)) == Q.one()


def test_stable_coefficient_res_integrand(Qe):
    # coefficient of t^-1 in log(1+e t^-1) * (1+t)^{-1}: hand value +e
    e = Qe.gen("e")
    num = from_terms(Qe, 1, [((0,), 1), ((-1,), e)])
    den = from_terms(Qe, 1, [((0,), 1), ((1,), 1)])

    def build(w):
        return log_sharp(num, w) * invert(den, w)

    assert stable_coefficient(build, (-1,)) == e


def test_stable_coefficient_monomial_integrand(Q):
    f = monomial(Q, 2, (-1, -1))
    assert stable_coefficient(lambda w: f, (-1, -1)) == Q.one()


def test_stable_coefficient_lex_tail_exhausts(Q):
    f = from_terms(Q, 2, [((0, 0), 1), ((-1, 1), -1)])
    with pytest.raises(StabilityExhaustedError):
        stable_coefficient(lambda w: invert(f, w), (-1, -1))


def test_stable_coefficient_names_the_last_window_tried():
    tried = []

    def build(window):
        tried.append(window.hi)
        raise WindowExceededError("never certified")

    with pytest.raises(StabilityExhaustedError) as exc:
        stable_coefficient(build, (0,))
    assert tried[-1] == (128,)
    assert exc.value.detail.startswith("no window up to (128,) certified")


# -- serialization -----------------------------------------------------------------------------

def test_series_json_round_trip(tower):
    rng = random.Random(16)
    from ccsym.checks import random_invertible_series, random_laurent_poly
    for n in (1, 2):
        for _ in range(10):
            f = random_laurent_poly(rng, tower, n)
            assert series_from_json(tower, f.to_json()) == f
    g = invert(from_terms(tower, 1, [((0,), 1), ((1,), -1)]), Window.box((0,), (3,)))
    back = series_from_json(tower, g.to_json())
    assert back.terms == g.terms and back.hi == g.hi


def test_a_floor_above_the_ceiling_survives_the_json_round_trip(Q):
    # log(1 + t) certified up to t^-5 holds no term and has floor t^0; its
    # JSON window writes that floor as it is, not clamped to the ceiling
    f = log_sharp(from_terms(Q, 1, [((0,), 1), ((1,), 1)]), Window((-6,), (-5,)))
    assert (f.terms, f.hi, f.floor) == ({}, (-5,), (0,))
    doc = json.loads(json.dumps(f.to_json()))
    assert doc["window"] == {"lo": [0], "hi": [-5]}
    assert series_from_json(Q, doc) == f
    listed = dict(doc, terms=[{"exp": [0], "coef": "1"}])
    with pytest.raises(ParseError, match="bad window"):  # a term needs lo <= hi
        series_from_json(Q, listed)
    with pytest.raises(ParseError, match="bad window"):  # so does a request box
        window_from_json(doc["window"])


def test_windowed_term_below_its_floor_is_refused(Q):
    with pytest.raises(ParseError, match=r"\(0, -2\)"):
        from_terms(Q, 2, [((0, 0), 1), ((0, -2), 1)], Window.box((-1, -1), (2, 2)))


def test_equality_with_a_constant_keeps_its_answers_and_errors():
    """``s == c`` for an int, Fraction or Coef ``c`` answers, or raises, as
    comparing ``s`` with the exact constant series of ``c`` does; a scalar
    the ring cannot hold equals no series of it."""
    from ccsym.errors import EngineError, RingMismatchError, UnsupportedRingError

    Q, Z = ring_new(RingSpec("Q", nil=(("e", 2),))), ring_new(RingSpec("Z", nil=(("e", 2),)))
    Z9, other = ring_new(RingSpec(9)), ring_new(RingSpec("Q", nil=(("f", 2),)))
    unheld = []

    def by_series(s, c):
        try:
            other = s._coerce(c)
        except (UnsupportedRingError, NotInvertibleError):
            unheld.append((s.ring, c))
            return False
        return (s.ring == other.ring and s.n == other.n and s.terms == other.terms
                and s.hi == other.hi and s.floor == other.floor)

    def outcome(fn):
        try:
            return fn()
        except EngineError as exc:
            return type(exc)

    seen = []
    for ring in (Q, Z, Z9):
        e = ring.gen("e") if "e" in ring.gens else ring.from_scalar(3)
        win = Window.box((0,), (2,))
        cases = [zero(ring, 1), one(ring, 1), one(ring, 2), from_terms(ring, 1, [((0,), 2)]),
                 from_terms(ring, 1, [((0,), e)]), from_terms(ring, 1, [((1,), 1)]),
                 from_terms(ring, 1, [((0,), 1), ((1,), e)]), from_terms(ring, 1, [], win),
                 from_terms(ring, 1, [((0,), 1)], win)]
        values = [0, 1, 2, 9, -1, Fraction(1, 2), Fraction(1, 3), Fraction(4, 2), ring.one(),
                  ring.zero(), e, ring.from_scalar(2), other.one()]
        for s in cases:
            for c in values:
                want = outcome(lambda: by_series(s, c))
                assert outcome(lambda: s == c) == want, (ring, s, c)
                assert outcome(lambda: s != c) == (want if isinstance(want, type) else not want)
                seen.append(want)
    assert seen.count(True) >= 15 and RingMismatchError in seen
    assert {(Z, Fraction(1, 2)), (Z9, Fraction(1, 3))} <= set(unheld)


def test_a_window_of_other_than_n_entries_is_refused(Q):
    """A short window would certify only its first coordinates."""
    term = [{"exp": [-1, -1], "coef": "1"}]
    for window in ({"lo": [-3], "hi": [1]}, {"lo": [-3, -3], "hi": [1]},
                   {"lo": [-3, -3, -3], "hi": [1, 1, 1]}):
        for terms in (term, []):
            with pytest.raises(ParseError, match="lo and hi of 2 entries, got"):
                series_from_json(Q, {"n": 2, "terms": terms, "window": window})
    with pytest.raises(ParseError, match="got 1 and 1"):
        from_terms(Q, 2, [((-1, -1), 1)], Window((-3,), (1,)))
