import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from ccsym.coeff import RingSpec, ring_new
from ccsym import universal
from ccsym.errors import InternalConsistencyError, NotSharpError, ParseError
from ccsym.laurent import Window, from_terms, one, t_var
from ccsym.symbol import cc
from ccsym.universal import (
    PhiKey,
    UniversalSeries,
    check_integrality,
    check_weight_zero,
    evaluate_phi,
    phi_coefficients,
)
from ccsym.checks import random_nilpotent_coef


def test_phi_key_validation():
    PhiKey(2, (1, 2))
    with pytest.raises(ParseError):
        PhiKey(2, (2, 1))
    with pytest.raises(ParseError):
        PhiKey(1, (2,))
    assert PhiKey(2, (2,)).p == 2


def test_phi_11_small_coefficients():
    # f = 1 + x_{-1} t^-1 + x_0 + x_1 t; by hand phi = 1 + x_0 - x_{-1} x_1 at D=2
    s = phi_coefficients(PhiKey(1, (1,)), 2, Window.box((-1,), (1,)))
    assert s.coefficient((((1, (0,)), 1),)) == 1
    assert s.coefficient((((1, (0,)), 2),)) == 0
    assert s.coefficient((((1, (-1,)), 1), ((1, (1,)), 1))) == -1
    assert len(s.coeffs) == 2


def test_phi_two_slot_matches_closed_form():
    s = phi_coefficients(PhiKey(1, ()), 2, Window.box((-1,), (1,)))
    # slot 1 at exponent +1 against slot 2 at -1: the 1-uv pattern gives -1
    assert s.coefficient((((1, (1,)), 1), ((2, (-1,)), 1))) == -1
    # and the transposed placement inverts the symbol: +1
    assert s.coefficient((((1, (-1,)), 1), ((2, (1,)), 1))) == 1


def _closed_form_phi_11(degree, radius):
    """``phi_{1,1} = exp(sum_k (-1)^(k-1)/k * sum_{|m|=k, sum l m_l = 0}
    k!/prod m_l! x^m)`` up to total degree ``degree``, over the exponents
    ``l`` in ``[-radius, radius]``: ``exp`` of the constant term of
    ``log(1 + sum_l x_l t^l)``.  Monomials are sorted ``(l, m_l)`` tuples;
    only ``Fraction`` and ``Counter`` arithmetic, none of the engine."""
    log = {}  # by degree: {monomial: coefficient}
    for k in range(1, degree + 1):
        log[k] = {}
        for ls in combinations_with_replacement(range(-radius, radius + 1), k):
            if sum(ls) == 0:
                m = Counter(ls)
                c = Fraction((-1) ** (k - 1), k) * math.factorial(k)
                for e in m.values():
                    c /= math.factorial(e)
                log[k][tuple(sorted(m.items()))] = c
    # exp by degree: d E_d = sum_k k L_k E_(d-k)
    exp = {0: {(): Fraction(1)}}
    for d in range(1, degree + 1):
        exp[d] = Counter()
        for k in range(1, d + 1):
            for a, ca in log[k].items():
                for b, cb in exp[d - k].items():
                    mono = tuple(sorted((Counter(dict(a)) + Counter(dict(b))).items()))
                    exp[d][mono] += Fraction(k, d) * ca * cb
    return {mono: c for d in range(1, degree + 1) for mono, c in exp[d].items() if c}


def test_phi_11_matches_its_closed_form():
    s = phi_coefficients(PhiKey(1, (1,)), 6, Window.box((-6,), (6,)))
    want = {tuple(((1, (l,)), e) for l, e in mono): c
            for mono, c in _closed_form_phi_11(6, 6).items()}
    assert len(s.coeffs) == 1042
    assert s.coeffs == want


def test_phi_reports():
    s = phi_coefficients(PhiKey(1, (1,)), 3, Window.box((-3,), (3,)))
    rep = check_integrality(s)
    assert rep["integral"] and rep["checked"] == len(s.coeffs) > 0
    rep = check_weight_zero(s)
    assert rep["weight_zero"]
    # corrupted series is detected
    bad = UniversalSeries(s.key, s.degree, s.window, dict(s.coeffs))
    mono = next(iter(bad.coeffs))
    bad.coeffs[mono] = Fraction(1, 2)
    assert not check_integrality(bad)["integral"]
    bad.coeffs[(((1, (1,)), 1),)] = Fraction(1)
    assert not check_weight_zero(bad)["weight_zero"]


def test_evaluate_phi_trivial_and_errors(Ze):
    e = Ze.gen("e")
    key = PhiKey(1, (1,))
    assert evaluate_phi(key, [from_terms(Ze, 1, [])]) == Ze.one()
    with pytest.raises(NotSharpError):
        evaluate_phi(key, [from_terms(Ze, 1, [((1,), 1)])])


def test_evaluate_phi_matches_cc_n1(Ze):
    e = Ze.gen("e")
    key = PhiKey(1, (1,))
    g = from_terms(Ze, 1, [((-1,), e)])
    val = evaluate_phi(key, [g])
    ring_q, embed = Ze.rationalized()
    ref = cc([one(ring_q, 1) + g.map_coefficients(ring_q, embed), t_var(ring_q, 1, 1)])
    assert embed(val) == ref


def test_evaluate_phi_matches_cc_n2(Ze):
    e = Ze.gen("e")
    key = PhiKey(2, (1, 2))
    ring_q, embed = Ze.rationalized()
    for g in (from_terms(Ze, 2, [((-1, -1), e)]),
              from_terms(Ze, 2, [((0, 0), e)]),
              from_terms(Ze, 2, [((-1, 0), e), ((1, -1), e)])):
        val = evaluate_phi(key, [g])
        ref = cc([one(ring_q, 2) + g.map_coefficients(ring_q, embed),
                  t_var(ring_q, 2, 1), t_var(ring_q, 2, 2)])
        assert embed(val) == ref, str(g)


def test_evaluate_phi_random_dual_path():
    ring = ring_new(RingSpec("Z", nil=(("e1", 2), ("e2", 3))))
    ring_q, embed = ring.rationalized()
    rng = random.Random(51)
    for n in (1, 2):
        for q in range(0, n + 1):
            key = PhiKey(n, tuple(range(n - q + 1, n + 1)))
            for _ in range(3):
                gs = []
                for _ in range(key.p):
                    pairs = []
                    for _ in range(rng.randint(1, 2)):
                        l = tuple(rng.randint(-2, 2) for _ in range(n))
                        pairs.append((l, random_nilpotent_coef(rng, ring)))
                    gs.append(from_terms(ring, n, pairs))
                val = evaluate_phi(key, gs)
                entries = [one(ring_q, n) + g.map_coefficients(ring_q, embed) for g in gs]
                entries += [t_var(ring_q, n, j) for j in key.js]
                assert embed(val) == cc(entries), (n, key.js, [str(g) for g in gs])


def _read_out_by_terms(value, pairs):
    """The read-out ``_phi_series`` made through ``Coef.terms`` before it read
    packed keys: decode each exponent tuple, sort, build the ``Fraction``."""
    by_gen = dict(enumerate(sorted(pairs)))
    coeffs = {}
    for exps, scalar in value.terms.items():
        if any(exps):
            mono = tuple(sorted((by_gen[idx], e) for idx, e in enumerate(exps) if e))
            coeffs[mono] = Fraction(scalar)
    return coeffs


def _recording_cc(monkeypatch, change=lambda value: value):
    """Route ``universal.cc`` through ``change`` and record what it returns."""
    values = []

    def recorded(entries):
        values.append(change(cc(entries)))
        return values[-1]

    monkeypatch.setattr(universal, "cc", recorded)
    return values


# n = 1 and 2, p = 1 to 3 slots, degrees 1 to 4, radius 1 to 2; the largest
# n = 2 boxes only at low degree, where the table stays small
READ_OUT_CASES = [(n, js, degree, radius)
                  for n, keys in ((1, [(1,), ()]), (2, [(1, 2), (1,), (2,), ()]))
                  for js in keys for degree in (1, 2, 3, 4) for radius in (1, 2)
                  if n == 1 or radius == 1 or degree <= 2]


@pytest.mark.parametrize("n, js, degree, radius", READ_OUT_CASES)
def test_packed_read_out_matches_the_terms_route(monkeypatch, n, js, degree, radius):
    values = _recording_cc(monkeypatch)
    key = PhiKey(n, js)
    s = phi_coefficients(key, degree, Window.cube(n, radius))
    box = product(range(-radius, radius + 1), repeat=n)
    pairs = [(i, l) for l in box for i in range(1, key.p + 1)]
    (value,) = values
    assert s.coeffs == _read_out_by_terms(value, pairs)
    for mono in s.coeffs:
        assert list(mono) == sorted(mono) and all(e > 0 for _, e in mono)


def test_packed_read_out_keeps_the_denominator(monkeypatch):
    # 1 + 4/3 (phi - 1): the constant numerator is the denominator 3
    key, window = PhiKey(1, (1,)), Window.cube(1, 2)
    s = phi_coefficients(key, 3, window)
    values = _recording_cc(monkeypatch, lambda v: 1 + (v - 1) * Fraction(4, 3))
    scaled = phi_coefficients(key, 3, window)
    assert values[0].den == 3
    assert scaled.coeffs == {mono: c * Fraction(4, 3) for mono, c in s.coeffs.items()}


@pytest.mark.parametrize("shift", [-1, 1, Fraction(1, 2)])
def test_phi_series_refuses_a_constant_term_other_than_one(monkeypatch, shift):
    # shift -1 leaves no constant key at all, which must not read as 1
    _recording_cc(monkeypatch, lambda v: v + shift)
    with pytest.raises(InternalConsistencyError):
        phi_coefficients(PhiKey(1, (1,)), 2, Window.cube(1, 1))


def test_phi_window_enlargement_stable():
    key = PhiKey(1, (1,))
    small = phi_coefficients(key, 3, Window.box((-2,), (2,)))
    large = phi_coefficients(key, 3, Window.box((-4,), (4,)))
    for mono, value in small.coeffs.items():
        assert large.coeffs.get(mono) == value


def test_evaluate_phi_modular_base_via_ring_map():
    # over Z/4 the coefficient 2 is nilpotent; functoriality under the map
    # Z[w]/(w^2) -> Z/4, w -> 2, gives an independent oracle
    z4 = ring_new(RingSpec(4))
    zw = ring_new(RingSpec("Z", nil=(("w", 2),)))
    key = PhiKey(1, (1,))
    g4 = from_terms(z4, 1, [((-1,), 2), ((1,), 2)])
    gw = from_terms(zw, 1, [((-1,), zw.gen("w")), ((1,), zw.gen("w"))])
    val4 = evaluate_phi(key, [g4])
    valw = evaluate_phi(key, [gw])
    # push w -> 2 into Z/4
    mapped = z4.zero()
    for exps, s in valw.terms.items():
        mapped = mapped + z4.from_scalar(int(s) * 2 ** exps[0])
    assert val4 == mapped


def test_phi_cache_is_bounded(Ze, monkeypatch):
    from ccsym import universal
    monkeypatch.setattr(universal, "_PHI_CACHE", {})
    e = Ze.gen("e")
    key = PhiKey(1, (1,))
    gs = [from_terms(Ze, 1, [((l,), e)]) for l in range(-70, 70)]
    assert len(gs) > universal._PHI_CACHE_SIZE >= 64
    first = [evaluate_phi(key, [g]) for g in gs]
    assert len(universal._PHI_CACHE) == universal._PHI_CACHE_SIZE
    # the evicted series are rebuilt and give the same values
    assert [evaluate_phi(key, [g]) for g in gs] == first
    assert len(universal._PHI_CACHE) == universal._PHI_CACHE_SIZE
    ring_q, embed = Ze.rationalized()
    for g, val in list(zip(gs, first))[::35]:
        ref = cc([one(ring_q, 1) + g.map_coefficients(ring_q, embed), t_var(ring_q, 1, 1)])
        assert embed(val) == ref
