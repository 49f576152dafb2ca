import random
from fractions import Fraction

import pytest

from ccsym.coeff import RingSpec, _prime_power, ring_new
from ccsym.errors import (
    InexactDivisionError,
    NotInvertibleError,
    ParseError,
    RingMismatchError,
    UnsupportedRingError,
)


def test_ring_new_basic():
    assert ring_new(RingSpec("Q")).nil_index == 1
    ze = ring_new(RingSpec("Z", nil=(("e", 2),)))
    assert ze.gens == ("e",)
    z4 = ring_new(RingSpec(4))
    assert z4.modulus == 4 and z4.mod_prime_power == (2, 2)


def test_ring_new_rejects_bad_specs():
    with pytest.raises(UnsupportedRingError):
        ring_new(RingSpec("Q", free=("a",), nil=(("a", 2),)))
    with pytest.raises(UnsupportedRingError):
        ring_new(RingSpec("Q", nil=(("e", 1),)))
    with pytest.raises(UnsupportedRingError):
        ring_new(RingSpec(1))


def test_arith_examples(Qe):
    e = Qe.gen("e")
    assert (e * e).is_zero()
    Q = ring_new(RingSpec("Q"))
    assert Q.from_scalar(Fraction(1, 2)) + Q.from_scalar(Fraction(1, 3)) \
        == Q.from_scalar(Fraction(5, 6))
    # eta^2 * eta^n = 0 for n = 1 in Z[eta]/(eta^{n+2})
    zeta = ring_new(RingSpec("Z", nil=(("h", 3),)))
    h = zeta.gen("h")
    assert (h ** 2 * h).is_zero()


def test_ring_mismatch_detected(Qe, Q):
    with pytest.raises(RingMismatchError):
        Qe.gen("e") + Q.one()


def test_nilpotent_and_order(Qe):
    e = Qe.gen("e")
    assert e.is_nilpotent()
    assert not (Qe.one() + e).is_nilpotent()
    z4 = ring_new(RingSpec(4))
    two = z4.from_scalar(2)
    assert two.is_nilpotent()
    z6 = ring_new(RingSpec(6))
    with pytest.raises(UnsupportedRingError):
        z6.from_scalar(2).is_nilpotent()


def test_invertibility_and_inverse(Qe, Z):
    e = Qe.gen("e")
    assert (Qe.one() + e).inverse() == Qe.one() - e
    assert ring_new(RingSpec("Q")).from_scalar(2).is_invertible()
    assert not Z.from_scalar(2).is_invertible()
    with pytest.raises(NotInvertibleError):
        Z.from_scalar(2).inverse()
    # inverse(1 - u*eps) in Q[u][eps]/(eps^3): multiply-back oracle and closed form
    r = ring_new(RingSpec("Q", free=("u",), nil=(("eps", 3),)))
    u, eps = r.gen("u"), r.gen("eps")
    x = r.one() - u * eps
    inv = x.inverse()
    assert x * inv == r.one()
    assert inv == r.one() + u * eps + u ** 2 * eps ** 2


def test_free_generators_not_invertible():
    r = ring_new(RingSpec("Q", free=("u",)))
    assert not r.gen("u").is_invertible()
    assert not (r.one() + r.gen("u")).is_invertible()


def test_nil_index_examples():
    assert ring_new(RingSpec("Q", nil=(("e", 2),))).nil_index == 2
    assert ring_new(RingSpec("Q")).nil_index == 1
    r = ring_new(RingSpec("Z", nil=(("e1", 2), ("e2", 3))))
    assert r.nil_index == 4
    # direct expansion: Nil^3 contains e1*e2^2 != 0, Nil^4 = 0
    x = r.gen("e1") * r.gen("e2") ** 2
    assert x and (x * r.gen("e1")).is_zero() and (x * r.gen("e2")).is_zero()
    assert ring_new(RingSpec(8)).nil_index == 3  # 2^3: p-contribution e-1 = 2


def test_nilpotent_power_vanishes_at_index(tower):
    rng = random.Random(0)
    for _ in range(20):
        x = tower.zero()
        for name, _ in tower.spec.nil:
            x = x + tower.gen(name) * rng.randint(-3, 3)
        assert x.is_nilpotent()
        assert (x ** tower.nil_index).is_zero()


def test_exp_log_examples(Qe):
    e = Qe.gen("e")
    assert Qe.zero().exp() == Qe.one()
    assert e.exp() == Qe.one() + e
    r = ring_new(RingSpec("Q", nil=(("e1", 3), ("e2", 3))))
    x = r.gen("e1") + r.gen("e2")
    assert x.exp().log() == x
    with pytest.raises(NotInvertibleError):
        Qe.one().exp()
    with pytest.raises(UnsupportedRingError):
        ring_new(RingSpec("Z", nil=(("e", 2),))).gen("e").exp()


def test_exp_log_mutually_inverse_random(tower):
    rng = random.Random(1)
    for _ in range(25):
        x = tower.zero()
        for name, _ in tower.spec.nil:
            x = x + tower.gen(name) * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert x.exp().log() == x
        assert (tower.one() + x).log().exp() == tower.one() + x


def _random_elt(rng, ring):
    x = ring.zero()
    for _ in range(rng.randint(0, 3)):
        exps = [0] * len(ring.gens)
        for i in range(len(ring.gens)):
            exps[i] = rng.randint(0, 2)
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if ring.base == "Q" \
            else rng.randint(-5, 5)
        x = x + ring.make({tuple(exps): ring.scalar(s)})
    return x


@pytest.mark.parametrize("spec", [
    RingSpec("Q", nil=(("e1", 2), ("e2", 3))),
    RingSpec("Z", free=("u",), nil=(("e", 2),)),
    RingSpec(9, nil=(("e", 2),)),
])
def test_ring_axioms_randomized(spec):
    ring = ring_new(spec)
    rng = random.Random(2)
    for _ in range(30):
        a, b, c = (_random_elt(rng, ring) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        assert a - a == ring.zero()


def test_inverse_times_self_random(tower):
    rng = random.Random(3)
    for _ in range(25):
        x = tower.from_scalar(rng.choice([1, -1, 2, Fraction(3, 2)])) + _random_nil(rng, tower)
        assert x.is_invertible()
        assert x * x.inverse() == tower.one()


def _random_nil(rng, ring):
    x = ring.zero()
    for name, _ in ring.spec.nil:
        x = x + ring.gen(name) * rng.randint(-3, 3)
    return x


def test_canonicalization_idempotent(tower):
    # re-normalizing the stored terms of any element changes nothing
    rng = random.Random(4)
    for _ in range(20):
        x = _random_elt(rng, tower)
        assert tower.make(dict(x.terms)) == x


def test_divide_by_int(Qe, Z):
    six = Z.from_scalar(6)
    q, ok = six.divide_by_int(3)
    assert q == Z.from_scalar(2) and ok
    with pytest.raises(InexactDivisionError):
        Z.from_scalar(1).divide_by_int(2)
    q, ok = ring_new(RingSpec("Q")).from_scalar(1).divide_by_int(2)
    assert q == Fraction(1, 2) and not ok


def test_string_round_trip(Quv, Qe):
    rng = random.Random(5)
    for ring in (Quv, Qe):
        for _ in range(25):
            x = _random_elt(rng, ring)
            assert ring.parse_coef(str(x)) == x
    assert str(Quv.zero()) == "0"
    s = str(Fraction(3, 2) * Quv.gen("u") ** 2 * Quv.gen("v") + Quv.one())
    assert s == "3/2*u^2*v^1 + 1"


def test_ring_spec_json_round_trip():
    for spec in (RingSpec("Q"), RingSpec("Z", free=("u",), nil=(("e", 2),)),
                 RingSpec(4, nil=(("h", 3),))):
        assert RingSpec.from_json(spec.to_json()) == spec


def test_extended_and_rationalized(Ze):
    ext, embed = Ze.extended((("h", 4),))
    e = embed(Ze.gen("e"))
    h = ext.gen("h")
    assert (e * h ** 3) and (e * e).is_zero() and (h ** 4).is_zero()
    qz, emb = Ze.rationalized()
    assert qz.base == "Q" and emb(Ze.from_scalar(3)) == qz.from_scalar(3)
    lifted, lift, drop = ring_new(RingSpec(4)).integer_lift()
    assert drop(lift(ring_new(RingSpec(4)).from_scalar(3)) * 3) == \
        ring_new(RingSpec(4)).from_scalar(1)


def _smallest_factors(limit):
    spf = list(range(limit))
    for p in range(2, int(limit ** 0.5) + 1):
        if spf[p] == p:
            for k in range(p * p, limit, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def test_prime_power_matches_trial_division():
    limit = 10 ** 5
    spf = _smallest_factors(limit)
    for m in range(2, limit):
        p, e, rest = spf[m], 0, m
        while rest % p == 0:
            rest //= p
            e += 1
        assert _prime_power(m) == ((p, e) if rest == 1 else None), m


def test_prime_power_large_moduli():
    assert _prime_power(10 ** 12 + 39) == (10 ** 12 + 39, 1)
    assert _prime_power(2 ** 61 - 1) == (2 ** 61 - 1, 1)
    assert _prime_power((10 ** 9 + 7) ** 2) == (10 ** 9 + 7, 2)
    assert _prime_power(3 ** 50) == (3, 50)
    assert _prime_power((10 ** 6 + 3) * (10 ** 6 + 33)) is None
    assert _prime_power((2 ** 31 - 1) * (10 ** 9 + 7)) is None
    with pytest.raises(UnsupportedRingError):
        ring_new(RingSpec(2 ** 89 - 1))
    with pytest.raises(UnsupportedRingError):  # a strong pseudoprime to all 13 bases
        ring_new(RingSpec(1287836182261 * 2575672364521))


def test_modular_nilpotence_matches_radical():
    for m in range(2, 200):
        ring = ring_new(RingSpec(m))
        rad = 1
        for q in range(2, m + 1):
            if m % q == 0 and all(q % r for r in range(2, q)):
                rad *= q
        for s in range(m):
            assert ring.scalar_is_nilpotent(s) == (s % rad == 0), (m, s)


def test_parse_rejects_negative_exponent():
    ring = ring_new(RingSpec("Q", free=("u",), nil=(("e", 2),)))
    for text in ("u^-1", "2*u^-2", "1 + e^-1"):
        with pytest.raises(ParseError):
            ring.parse_coef(text)
    assert ring.parse_coef("u^0") == ring.one()


def test_parse_refuses_scalars_str_does_not_write():
    # Fraction would read "1e10000000" as a 10-million-digit integer and
    # spend seconds building it; only [+-]digits(/digits) is a scalar
    q, z9 = ring_new(RingSpec("Q", nil=(("e", 2),))), ring_new(RingSpec(9))
    for ring in (q, z9):
        for text in ("1e10000000", "1.5", "2E3", "1_000", "0x10", "1/2/3", "- 1", "\u0661"):
            with pytest.raises(ParseError, match="bad scalar"):
                ring.parse_coef(text)
            with pytest.raises(ParseError, match="bad scalar"):
                ring.parse_coef(f"{text}*e^1" if ring is q else text)
    assert q.parse_coef("-3/2*e^1 + +2") == q.make({(1,): Fraction(-3, 2), (0,): 2})
    assert z9.parse_coef("-1") == z9.from_scalar(8)


def test_equality_with_a_scalar_the_ring_cannot_hold_is_false():
    from ccsym.laurent import one

    z, z9 = ring_new(RingSpec("Z", nil=(("e", 2),))), ring_new(RingSpec(9))
    for ring, scalar in ((z, Fraction(1, 2)), (z9, Fraction(1, 3)), (z9, Fraction(2, 3))):
        for x in (ring.one(), ring.zero(), one(ring, 1), one(ring, 2)):
            assert not x == scalar and x != scalar
    assert z9.one() * 2 == Fraction(2, 1) and z9.from_scalar(5) == Fraction(1, 2)


def test_inverse_over_composite_modulus():
    # 6 is nilpotent mod 48 only at the fourth power: the nil index must see that
    for m in (12, 48):
        ring = ring_new(RingSpec(m, free=("u",)))
        x = ring.parse_coef("6*u^1 + 1")
        assert x * x.inverse() == ring.one()
    assert ring.parse_coef("6*u^1 + 1").inverse() == \
        ring.parse_coef("24*u^3 + 36*u^2 + 42*u^1 + 1")


def test_power_sum_refuses_a_survivor_of_the_nil_index(Quv):
    from ccsym.coeff import _nil_series
    from ccsym.errors import InternalConsistencyError
    with pytest.raises(InternalConsistencyError):
        _nil_series(Quv.gen("u"), lambda i: 1)
