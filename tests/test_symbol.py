import itertools
import random
from fractions import Fraction

import pytest

from ccsym import laurent
from ccsym.coeff import RingSpec, ring_new
from ccsym.errors import ParseError, StabilityExhaustedError, UnsupportedRingError
from ccsym.forms import dlog, wedge
from ccsym.laurent import from_terms, monomial, one, t_var, valuation, zero
from ccsym.symbol import (
    additive_symbol,
    cc,
    cc_eps_linearization,
    cc_eta_linearization,
    det_int,
    sgn_kh,
    sgn_vf,
    steinberg_det_check,
    tame_symbol,
)
from ccsym.checks import random_invertible_series, random_laurent_poly


# -- sign map ----------------------------------------------------------------------

def test_sgn_examples():
    assert sgn_vf((1,), (1,)) == 1
    assert sgn_vf((0,), (5,)) == 0
    assert sgn_vf((1, 0), (1, 0), (0, 1)) == 1
    assert sgn_kh((1,), (1,)) == 1
    assert sgn_kh((0,), (0,)) == 0


def test_sgn_zero_slot_vanishes():
    rng = random.Random(31)
    for n in (1, 2):
        for _ in range(20):
            rest = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
            assert sgn_vf((0,) * n, *rest) == 0


def test_sgn_agreement_exhaustive_n1():
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert sgn_vf((a,), (b,)) == sgn_kh((a,), (b,))


def test_sgn_agreement_sampled_n2():
    rng = random.Random(32)
    for _ in range(500):
        tup = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(3))
        assert sgn_vf(*tup) == sgn_kh(*tup)


def test_sgn_symmetric_and_repeat_rule():
    rng = random.Random(33)
    for n in (1, 2):
        for _ in range(60):
            tup = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n + 1)]
            base = sgn_vf(*tup)
            for i in range(n):
                swapped = list(tup)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                assert sgn_vf(*swapped) == base
    # sgn(l, l, r) = det(l, r) mod 2, exhaustively
    for l in range(-3, 4):
        assert sgn_vf((l,), (l,)) == l % 2
    for l in itertools.product(range(-2, 3), repeat=2):
        for r in itertools.product(range(-2, 3), repeat=2):
            assert sgn_vf(l, l, r) == det_int([l, r]) % 2


# -- additive symbol -----------------------------------------------------------------

def test_additive_symbol_examples(Q):
    for n in (1, 2, 3):
        assert additive_symbol([t_var(Q, n, j) for j in range(1, n + 1)]) == 1
    f0 = from_terms(Q, 2, [((0, 0), 1), ((1, 0), 2)])
    assert additive_symbol([f0, t_var(Q, 2, 2)]) == 0
    assert additive_symbol([monomial(Q, 1, (3,), 5)]) == 3


def test_steinberg_det_examples(Q):
    t1 = t_var(Q, 2, 1)
    rep = steinberg_det_check([t1, one(Q, 2) - t1])
    assert rep["ok"] and rep["det"] == 0
    half = monomial(Q, 2, (0, 0), Fraction(1, 2))
    assert steinberg_det_check([half, half])["ok"]
    tinv = monomial(Q, 2, (-1, 0))
    assert steinberg_det_check([tinv, one(Q, 2) - tinv])["ok"]
    with pytest.raises(ParseError):
        steinberg_det_check([t1, t1])


def test_steinberg_det_random(tower):
    rng = random.Random(34)
    from ccsym.errors import NotInvertibleError
    hits = 0
    while hits < 15:
        f = random_invertible_series(rng, tower, 2)
        comp = one(tower, 2) - f
        try:
            valuation(comp)
        except NotInvertibleError:
            continue
        hits += 1
        assert steinberg_det_check([f, comp])["ok"]


# -- the symbol: anchors and closed forms ----------------------------------------------

def test_cc_anchor_values(Q, Qe):
    t = t_var(Q, 1, 1)
    assert cc([t, t]) == Q.from_scalar(-1)
    for ring in (Q, Qe):
        for n in (1, 2, 3):
            ts = [t_var(ring, n, j) for j in range(1, n + 1)]
            for a in (ring.from_scalar(2), ring.from_scalar(-1)):
                assert cc([monomial(ring, n, (0,) * n, a)] + ts) == a
    e = Qe.gen("e")
    for n in (1, 2, 3):
        ts = [t_var(Qe, n, j) for j in range(1, n + 1)]
        assert cc([monomial(Qe, n, (0,) * n, Qe.one() + e)] + ts) == Qe.one() + e


def test_cc_closed_form_single(Quv):
    u, v = Quv.gen("u"), Quv.gen("v")
    f1 = from_terms(Quv, 1, [((0,), 1), ((1,), -u)])
    f2 = from_terms(Quv, 1, [((0,), 1), ((-1,), -v)])
    assert cc([f1, f2]) == Quv.one() - u * v
    f1 = from_terms(Quv, 1, [((0,), 1), ((2,), -(u * u))])
    f2 = from_terms(Quv, 1, [((0,), 1), ((-3,), -v)])
    assert cc([f1, f2]) == Quv.one() - u ** 6 * v ** 2


def test_cc_branch_overlap_consistency(Qe):
    # for f1 in 1 + Nil both the exp-res and the power formula apply and agree
    e = Qe.gen("e")
    c = Qe.one() + e
    t = t_var(Qe, 1, 1)
    by_power = c ** additive_symbol([t])
    by_res = (c.log() * Qe.one()).exp()  # res(log(c) dt/t) = log(c) * 1
    assert cc([monomial(Qe, 1, (0,), c), t]) == by_power == by_res


def test_cc_rejects_bad_input(Q, Z):
    t = t_var(Q, 1, 1)
    with pytest.raises(ParseError):
        cc([t])
    with pytest.raises(UnsupportedRingError):
        tz = t_var(Z, 1, 1)
        cc([one(Z, 1) + tz, tz])


def test_cc_formats_its_trace_only_on_request(tower, monkeypatch):
    # 2 (1 + e1 t) against t (1 + e2 t^-1): monomial, constant and sharp branches
    e1, e2 = tower.gen("e1"), tower.gen("e2")
    f = from_terms(tower, 1, [((0,), 2), ((1,), e1 * 2)])
    g = from_terms(tower, 1, [((1,), 1), ((0,), e2)])
    value, trace = cc([f, g], want_trace=True)
    assert trace == ["monomial: (-1)^0", "constant slot 1: (2)^1",
                     "sharp slots [1, 2]: exp(res) with res = -1*e1^1*e2^1"]

    def unprintable(self):
        raise AssertionError("a trace string was built")

    monkeypatch.setattr(type(e1), "__str__", unprintable)
    assert cc([f, g]) == value


def test_cc_over_integers_without_sharp_branch(Z):
    # constant/monomial branches need no rationals
    t = t_var(Z, 1, 1)
    assert cc([monomial(Z, 1, (0,), -1), t]) == Z.from_scalar(-1)
    assert cc([t, t]) == Z.from_scalar(-1)


# -- properties -----------------------------------------------------------------------

def test_cc_multilinear_antisymmetric_steinberg(tower):
    rng = random.Random(35)
    for n in (1, 2):
        for _ in range(8):
            f = random_invertible_series(rng, tower, n)
            g = random_invertible_series(rng, tower, n)
            rest = [random_invertible_series(rng, tower, n) for _ in range(n - 1)]
            assert cc([f * g, g] + rest) == cc([f, g] + rest) * cc([g, g] + rest)
            assert cc([f, g] + rest) * cc([g, f] + rest) == tower.one()
            assert cc([f, -f] + rest) == tower.one()


def test_residue_det_identity(tower):
    from ccsym.laurent import stable_coefficient
    rng = random.Random(36)
    for n in (1, 2):
        for _ in range(8):
            fs = [random_invertible_series(rng, tower, n) for _ in range(n)]
            dt = det_int([valuation(f) for f in fs])

            def build(w):
                form = dlog(fs[0], w)
                for f in fs[1:]:
                    form = wedge(form, dlog(f, w))
                top = form.comps.get(tuple(range(1, n + 1)))
                return top if top is not None else zero(tower, n)

            assert stable_coefficient(build, (-1,) * n) == tower.from_scalar(dt)


# -- tangent identities ------------------------------------------------------------------

def test_eps_linearization_examples(Q):
    t = t_var(Q, 1, 1)
    rep = cc_eps_linearization(one(Q, 1), [t])
    assert rep["ok"] and rep["residue"] == Q.one()
    rep = cc_eps_linearization(one(Q, 1), [one(Q, 1) + t])
    assert rep["ok"] and rep["residue"].is_zero()
    rep = cc_eps_linearization(monomial(Q, 1, (-1,)), [t])
    assert rep["ok"] and rep["residue"].is_zero()


def test_eps_linearization_random(tower):
    rng = random.Random(37)
    for n in (1, 2):
        for _ in range(6):
            g = random_laurent_poly(rng, tower, n)
            fs = [random_invertible_series(rng, tower, n) for _ in range(n)]
            assert cc_eps_linearization(g, fs)["ok"]


def test_eta_linearization_examples(Q):
    t = t_var(Q, 1, 1)
    rep = cc_eta_linearization([monomial(Q, 1, (-2,)), t])
    assert rep["ok"] and rep["residue"].is_zero()
    rep = cc_eta_linearization([monomial(Q, 1, (-1,)), t])
    assert rep["ok"] and rep["residue"] == Q.one()


def test_eta_linearization_random(tower):
    rng = random.Random(38)
    for n in (1, 2):
        for _ in range(6):
            gs = [random_laurent_poly(rng, tower, n) for _ in range(n + 1)]
            assert cc_eta_linearization(gs)["ok"]


# -- tame symbol -----------------------------------------------------------------------------

def test_tame_symbol_examples(Q):
    t = t_var(Q, 1, 1)
    assert tame_symbol(t, t) == Q.from_scalar(-1)
    assert tame_symbol(monomial(Q, 1, (0,), 5), t) == Q.from_scalar(5)
    assert tame_symbol(one(Q, 1) - t, t) == Q.one()
    f5 = ring_new(RingSpec(5))
    t5 = t_var(f5, 1, 1)
    assert tame_symbol(t5, t5) == f5.from_scalar(4)
    with pytest.raises(UnsupportedRingError):
        tame_symbol(t_var(ring_new(RingSpec(4)), 1, 1), t_var(ring_new(RingSpec(4)), 1, 1))


def test_tame_matches_cc_over_field(Q):
    rng = random.Random(39)
    for _ in range(20):
        f = random_invertible_series(rng, Q, 1)
        g = random_invertible_series(rng, Q, 1)
        assert tame_symbol(f, g) == cc([f, g])


def test_det_int_basics():
    assert det_int([(2,)]) == 2
    assert det_int([(1, 0), (0, 1)]) == 1
    assert det_int([(0, 1), (1, 0)]) == -1
    assert det_int([(1, 2, 3), (4, 5, 6), (7, 8, 9)]) == 0
    rng = random.Random(40)
    from math import prod
    for _ in range(20):
        m = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        ref = sum(sign * m[0][a] * m[1][b] * m[2][c]
                  for (a, b, c), sign in [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                                          ((2, 1, 0), -1), ((0, 2, 1), -1), ((1, 0, 2), -1)])
        assert det_int(m) == ref


def test_cc_repeated_slot_milnor_identity(tower):
    # the executable form of {f, f} = {-1, f}
    rng = random.Random(48)
    minus_one = monomial(tower, 1, (0,), -1)
    for _ in range(10):
        f = random_invertible_series(rng, tower, 1)
        assert cc([f, f]) == cc([minus_one, f])


def test_cc_constant_slot_reads_valuation(tower):
    # CC(a, g) = a^{nu(g)} for any unit a
    rng = random.Random(49)
    for _ in range(10):
        a = tower.from_scalar(rng.choice([2, 3, -1])) + tower.gen("e1") * rng.randint(-1, 1)
        g = random_invertible_series(rng, tower, 1)
        assert cc([monomial(tower, 1, (0,), a), g]) == a ** valuation(g)[0]


def test_cc_inverts_a_leading_coefficient_only_where_it_is_read(Qe, monkeypatch):
    # S = t^-nu f c^-1 is formed only for slots in an exp-res subset, and a
    # slot's c^-1 serves both S and a negative constant-slot exponent
    e, t = Qe.gen("e"), t_var(Qe, 1, 1)
    c = Qe.from_scalar(2) + e
    sharp = from_terms(Qe, 1, [((0,), c), ((1,), e)])  # 2 + e + e t
    c_inv = c.inverse()
    by_parts = cc([t, monomial(Qe, 1, (0,), c)]) * cc([t, sharp * c_inv])
    calls = []
    inverse = type(c).inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(type(c), "inverse", counted)
    assert cc([sharp, monomial(Qe, 1, (0,), Qe.from_scalar(3))]) == 1 and calls == []
    assert cc([t, monomial(Qe, 1, (0,), c)]) == c_inv and calls == [c]
    calls.clear()
    assert cc([t, sharp]) == by_parts and calls == [c]


def test_cc_inverts_no_leading_coefficient_for_a_positive_exponent(Qe, monkeypatch):
    # cc(2 + e, t) = (2 + e)^1, and cc(e/t + 2 + e + e t, t) over Q[e]/(e^3)
    # reads c^-1 only through the expansion of its sharp slot, whose t^0
    # needs the weight of h^2, not for the exponent 1 of c.  At e^2 = 0 the
    # log of e/t + 2 + e holds nothing at t^0 above its band, so it reads
    # no weight, and cc no c^-1 at all
    e, t = Qe.gen("e"), t_var(Qe, 1, 1)
    c = Qe.from_scalar(2) + e
    Qe3 = ring_new(RingSpec("Q", nil=(("e", 3),)))
    e3 = Qe3.gen("e")
    c3 = Qe3.from_scalar(2) + e3
    calls = []
    inverse = type(c).inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(type(c), "inverse", counted)
    assert cc([monomial(Qe, 1, (0,), c), t]) == c and calls == []
    assert cc([from_terms(Qe, 1, [((-1,), e), ((0,), c)]), t]) == c and calls == []
    sharp = from_terms(Qe3, 1, [((-1,), e3), ((0,), c3), ((1,), e3)])
    assert cc([sharp, t_var(Qe3, 1, 1)]) == c3 * (e3 * e3 * Fraction(-1, 4)).exp()
    assert calls == [c3]


def test_cc_splits_each_slot_once(Qe, monkeypatch):
    # cc(t + t^2, t + e): both slots are sharp with nu = 1, and the planner
    # expands from the split records cc hands over, so it finds no valuation
    e = Qe.gen("e")
    f1 = from_terms(Qe, 1, [((1,), 1), ((2,), 1)])
    f2 = from_terms(Qe, 1, [((1,), 1), ((0,), e)])
    calls = []
    valuation = laurent.valuation

    def counted(f):
        calls.append(f)
        return valuation(f)

    monkeypatch.setattr(laurent, "valuation", counted)
    assert str(cc([f1, f2])) == "1*e^1 + -1"
    assert calls == [f1, f2]


def test_cc_refuses_integral_bases_before_planning_a_slot():
    # no box window expands the slot 1 + t2/t1, but over Z the exp-res
    # branch is refused first, for want of rationals
    for base, kind in (("Z", UnsupportedRingError), ("Q", StabilityExhaustedError)):
        ring = ring_new(RingSpec(base))
        f = from_terms(ring, 2, [((0, 0), 1), ((-1, 1), 1)])
        with pytest.raises(kind):
            cc([f, t_var(ring, 2, 1), t_var(ring, 2, 2)])


def test_an_expanded_slot_shares_its_c_inverse_with_its_constant_exponent(monkeypatch):
    # cc(t, e/t + 2 + e + e t) over Q[e]/(e^3): slot 2 has the constant
    # exponent -1 and a live log, expanded from e/t + e t with the weights
    # (2 + e)^-i; both read the one c^-1
    ring = ring_new(RingSpec("Q", nil=(("e", 3),)))
    e, t = ring.gen("e"), t_var(ring, 1, 1)
    c = ring.from_scalar(2) + e
    f = from_terms(ring, 1, [((-1,), e), ((0,), c), ((1,), e)])
    calls = []
    inverse = type(c).inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(type(c), "inverse", counted)
    value, trace = cc([t, f], want_trace=True)
    assert calls == [c]
    assert str(value) == "1/4*e^2 + -1/4*e^1 + 1/2"
    assert trace[-1] == "sharp slots [2]: exp(-res) with res = -1/4*e^2"
