import random
from fractions import Fraction

import pytest

from ccsym.coeff import RingSpec, ring_new
from ccsym.errors import InexactDivisionError, ParseError
from ccsym.laurent import (
    LaurentElt,
    Window,
    from_terms,
    log_sharp,
    monomial,
    one,
    t_var,
    zero,
)
from ccsym.symbol import cc
from ccsym.witt import (
    GhostVector,
    IndexSet,
    WittVector,
    ghost,
    ghost_to_coords,
    project,
    upsilon,
    witt_add,
    witt_neg,
    witt_pair,
)
from ccsym.checks import random_invertible_series, random_laurent_poly


def test_index_set_validation():
    IndexSet((1, 2, 4))
    with pytest.raises(ParseError):
        IndexSet((2, 4))
    with pytest.raises(ParseError):
        IndexSet((1, 3, 4))
    assert IndexSet.closure([6]).members == (1, 2, 3, 6)


def test_ghost_examples(Q, Z):
    s1 = IndexSet((1,))
    a = Q.from_scalar(Fraction(2, 7))
    assert ghost(WittVector(s1, {1: a})).ghost[1] == a
    s12 = IndexSet((1, 2))
    w = WittVector(s12, {1: a, 2: Q.from_scalar(3)})
    g = ghost(w)
    assert g.ghost[2] == a * a + Q.from_scalar(6)
    s124 = IndexSet((1, 2, 4))
    w = WittVector(s124, {1: Z.one(), 2: Z.zero(), 4: Z.zero()})
    assert all(ghost(w).ghost[i] == Z.one() for i in (1, 2, 4))


def test_ghost_round_trip_over_Q(Q):
    rng = random.Random(41)
    s = IndexSet.closure(range(1, 7))
    for _ in range(25):
        w = WittVector(s, {i: Q.from_scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                           for i in s})
        back, _ = ghost_to_coords(ghost(w))
        assert back == w


def test_ghost_to_coords_integrality(Z):
    s12 = IndexSet((1, 2))
    a = Z.from_scalar(5)
    w, integral = ghost_to_coords(GhostVector(s12, {1: a, 2: a * a}))
    assert integral and w.coords == {1: a, 2: Z.zero()}
    with pytest.raises(InexactDivisionError):
        ghost_to_coords(GhostVector(s12, {1: Z.zero(), 2: Z.one()}))


def test_witt_add_examples(Z):
    s12 = IndexSet((1, 2))
    for a, b in [(3, 4), (-2, 7), (5, 5)]:
        wa = WittVector(s12, {1: Z.from_scalar(a), 2: Z.zero()})
        wb = WittVector(s12, {1: Z.from_scalar(b), 2: Z.zero()})
        out = witt_add(wa, wb)
        assert out.coords[1] == Z.from_scalar(a + b)
        assert out.coords[2] == Z.from_scalar(-a * b)
    w = WittVector(s12, {1: Z.from_scalar(2), 2: Z.from_scalar(-3)})
    zero_w = WittVector(s12, {1: Z.zero(), 2: Z.zero()})
    assert witt_add(w, zero_w) == w
    assert witt_add(w, witt_neg(w)) == zero_w


def test_witt_add_integral_over_Z_random(Ze):
    rng = random.Random(42)
    s = IndexSet.closure(range(1, 7))
    e = Ze.gen("e")
    for _ in range(25):
        w1 = WittVector(s, {i: Ze.from_scalar(rng.randint(-5, 5)) + e * rng.randint(-2, 2)
                            for i in s})
        w2 = WittVector(s, {i: Ze.from_scalar(rng.randint(-5, 5)) for i in s})
        witt_add(w1, w2)  # raises on any non-integral coordinate


def test_witt_add_and_neg_keep_denominators_over_Q(Q):
    """Over Q a sum or negative of coordinates with a denominator may need a
    larger one: ``(1/2, 0) + (1/2, 0) = (1, -1/4)`` and
    ``-(1/2, 0) = (-1/2, -1/4)`` in W_{1,2}(Q)."""
    s12 = IndexSet((1, 2))

    def vec(a, b):
        return WittVector(s12, {1: Q.from_scalar(a), 2: Q.from_scalar(b)})

    half = vec(Fraction(1, 2), 0)
    assert witt_add(half, half) == vec(1, Fraction(-1, 4))
    assert witt_neg(half) == vec(Fraction(-1, 2), Fraction(-1, 4))
    assert witt_add(half, witt_neg(half)) == vec(0, 0)


@pytest.mark.parametrize("m", [4, 8, 9])
def test_witt_add_and_neg_over_Z_mod_m_are_those_over_Z_reduced(m):
    """Over Z/m an index that is no unit cannot be divided by, yet Witt
    addition and negation have integer coefficients: each equals the same
    operation on integer lifts, reduced mod m."""
    zm, z = ring_new(RingSpec(m, nil=(("e", 2),))), ring_new(RingSpec("Z", nil=(("e", 2),)))
    s = IndexSet.closure(range(1, 7))
    rng = random.Random(m)

    def reduce(w):
        return WittVector(s, {i: zm.make(dict(c.terms)) for i, c in w.coords.items()})

    for _ in range(5):
        a, b = (WittVector(s, {i: z.make({(0,): rng.randint(-m, m), (1,): rng.randint(-m, m)})
                               for i in s}) for _ in range(2))
        total = witt_add(reduce(a), reduce(b))
        assert total == reduce(witt_add(a, b))
        assert witt_neg(reduce(b)) == reduce(witt_neg(b))
        assert witt_add(total, witt_neg(reduce(b))) == reduce(a)
    # series coordinates lift coefficient by coefficient
    t = t_var(zm, 1, 1)
    s12 = IndexSet((1, 2))
    g = WittVector(s12, {1: t + 1, 2: t * t})
    h = WittVector(s12, {1: t + 1, 2: zero(zm, 1)})
    assert witt_add(witt_add(g, h), witt_neg(h)) == g


def test_upsilon_examples(Q):
    s12 = IndexSet((1, 2))
    zero_w = WittVector(s12, {1: Q.zero(), 2: Q.zero()})
    assert upsilon(zero_w) == monomial(Q, 1, (0,))
    a = Q.from_scalar(7)
    w = WittVector(IndexSet((1,)), {1: a})
    assert upsilon(w) == from_terms(Q, 1, [((0,), 1), ((1,), -a)])


def test_upsilon_log_ghost_identity(Q):
    rng = random.Random(43)
    s = IndexSet.closure(range(1, 7))
    for _ in range(10):
        w = WittVector(s, {i: Q.from_scalar(rng.randint(-4, 4)) for i in s})
        g = ghost(w)
        lg = -log_sharp(upsilon(w), Window.box((0,), (6,)))
        for i in s:
            assert lg.coefficient((i,)) == g.ghost[i].divide_by_int(i)[0]


def test_upsilon_homomorphism(Q, Ze):
    rng = random.Random(44)
    s = IndexSet.closure(range(1, 7))
    for ring in (Q, Ze):
        for _ in range(10):
            extra = ring.gen("e") if ring.gens else ring.zero()
            w1 = WittVector(s, {i: ring.from_scalar(rng.randint(-3, 3)) + extra * rng.randint(-1, 1)
                                for i in s})
            w2 = WittVector(s, {i: ring.from_scalar(rng.randint(-3, 3)) for i in s})
            lhs = upsilon(witt_add(w1, w2), 6)
            rhs = upsilon(w1) * upsilon(w2)
            for i in range(7):
                assert lhs.coefficient((i,)) == rhs.coefficient((i,))


def test_witt_pair_constant_and_zero(Qe):
    t = t_var(Qe, 1, 1)
    s1 = IndexSet((1,))
    assert witt_pair([t], WittVector(s1, {1: zero(Qe, 1)})).coords[1].is_zero()
    assert witt_pair([t], WittVector(s1, {1: monomial(Qe, 1, (0,), 7)})).coords[1] \
        == Qe.from_scalar(7)


def test_witt_pair_with_t_reads_constant_ghosts(Qe):
    # (t | g] has ghost coordinates equal to the constant terms of g's ghosts
    rng = random.Random(45)
    s = IndexSet.closure(range(1, 5))
    t = t_var(Qe, 1, 1)
    for _ in range(8):
        g = WittVector(s, {i: from_terms(Qe, 1,
                                         [((k,), rng.randint(-3, 3)) for k in range(0, 3)])
                           for i in s})
        out = witt_pair([t], g)
        gg_in = ghost(g)
        gg_out = ghost(out)
        for i in s:
            assert gg_out.ghost[i] == gg_in.ghost[i].coefficient((0,))


def test_witt_pair_kernel_compatibility(Qe):
    # a vector vanishing on S pairs to zero on S
    s = IndexSet.closure(range(1, 5))
    t = t_var(Qe, 1, 1)
    g = WittVector(s, {i: zero(Qe, 1) for i in s})
    out = witt_pair([t * t], g)
    assert all(out.coords[i].is_zero() for i in s)


def test_witt_pair_projection_commutes(tower):
    rng = random.Random(46)
    s = IndexSet.closure(range(1, 7))
    sub = IndexSet((1, 2, 3))
    for _ in range(5):
        f = random_invertible_series(rng, tower, 1)
        g = WittVector(s, {i: random_laurent_poly(rng, tower, 1, bound=1) for i in s})
        full = witt_pair([f], g)
        assert project(full, sub) == witt_pair([f], project(g, sub))
    with pytest.raises(ParseError):
        project(WittVector(sub, {1: tower.zero(), 2: tower.zero(), 3: tower.zero()}),
                IndexSet((1, 2, 4)))


def test_witt_pair_bilinear(tower):
    rng = random.Random(47)
    s = IndexSet.closure(range(1, 5))
    for _ in range(6):
        f1 = random_invertible_series(rng, tower, 1)
        f2 = random_invertible_series(rng, tower, 1)
        g = WittVector(s, {i: random_laurent_poly(rng, tower, 1, bound=1) for i in s})
        h = WittVector(s, {i: random_laurent_poly(rng, tower, 1, bound=1) for i in s})
        assert witt_pair([f1 * f2], g) == \
            witt_add(witt_pair([f1], g), witt_pair([f2], g))
        assert witt_pair([f1], witt_add(g, h)) == \
            witt_add(witt_pair([f1], g), witt_pair([f1], h))


def test_witt_pair_over_modular_base():
    z9 = ring_new(RingSpec(9))
    t = t_var(z9, 1, 1)
    s = IndexSet((1, 2))
    g = WittVector(s, {1: from_terms(z9, 1, [((0,), 5)]), 2: from_terms(z9, 1, [((0,), 2)])})
    out = witt_pair([t], g)
    assert out.coords[1] == z9.from_scalar(5) and out.coords[2] == z9.from_scalar(2)


def _upsilon_x(unit, coords, x):
    """``Y_x(w) = prod_{i in S} (1 - w_i x^i)`` of coordinates ``{i: w_i}``
    already lifted to the ring of ``x``, multiplied out from ``unit``."""
    out = unit
    for i, w in coords.items():
        out = out * (unit - w * x ** i)
    return out


@pytest.mark.parametrize("n, nil_order, top, cases, seed",
                         [(1, 3, 4, 12, 4101), (2, 2, 3, 6, 4102)],
                         ids=["n1-e3-N4", "n2-e2-N3"])
def test_the_symbol_of_an_upsilon_slot_is_the_witt_pairing(n, nil_order, top, cases, seed):
    """The abstract's relation with the Witt pairing: over
    ``R' = R[x]/(x^(N+1))`` with ``S = {1..N}``,
    ``cc([Y_x(g), f_1, ..., f_n]) == Y_x(witt_pair([f_1, ..., f_n], g))``,
    since ``log Y_x(g) = -sum_m g(m) x^m / m`` for the ghost coordinates
    ``g(m)``.  The left side reads the ``Y_x`` slot through ``cc``'s split
    records, the right side each ``dlog f_i`` through ``witt_pair``'s
    ``Dlog(f)``, with no code between them but the residue batch."""
    ring = ring_new(RingSpec("Q", nil=(("e", nil_order),)))
    ext, embed = ring.extended((("x", top + 1),))
    x = ext.gen("x")
    s = IndexSet(tuple(range(1, top + 1)))
    rng = random.Random(seed)
    nontrivial = 0
    for _ in range(cases):
        fs = [random_invertible_series(rng, ring, n) for _ in range(n)]
        g = WittVector(s, {i: random_laurent_poly(rng, ring, n) for i in s})
        slot = _upsilon_x(one(ext, n), {i: v.map_coefficients(ext, embed)
                                        for i, v in g.coords.items()}, x)
        lhs = cc([slot] + [f.map_coefficients(ext, embed) for f in fs])
        pairing = witt_pair(fs, g)
        rhs = _upsilon_x(ext.one(), {i: embed(v) for i, v in pairing.coords.items()}, x)
        assert lhs == rhs, ([str(f) for f in fs], {i: str(v) for i, v in g.coords.items()})
        nontrivial += not lhs.is_one()
    assert nontrivial  # not every value is 1


@pytest.mark.parametrize("windowed", [False, True], ids=["exact", "windowed"])
def test_ghost_builds_each_power_from_the_previous_one(tower, windowed, monkeypatch):
    """Each ghost coordinate is ``sum_{d|i} d * w_d^(i/d)``; at S = {1..6} the
    powers ``w_1^2..w_1^6``, ``w_2^2``, ``w_2^3`` and ``w_3^2`` cost 8 series
    products, where raising each term to its power from 1 takes 33."""
    rng = random.Random(5)
    s = IndexSet.closure(range(1, 7))
    window = Window.box((-1,), (4,)) if windowed else None
    e1 = tower.gen("e1")
    coords = {i: from_terms(tower, 1, [((rng.randint(0, 2),), rng.randint(-3, 3) + e1)
                                       for _ in range(2)], window)
              for i in s}
    w = WittVector(s, coords)
    want = {}
    for i in s:
        for d in s:
            if i % d == 0:
                term = coords[d] ** (i // d) * d
                want[i] = term if i not in want else want[i] + term
    products = []
    real = LaurentElt.__mul__

    def counted(a, b):
        if isinstance(b, LaurentElt):
            products.append(1)
        return real(a, b)

    monkeypatch.setattr(LaurentElt, "__mul__", counted)
    got = ghost(w).ghost
    assert len(products) == 8
    for i in s:
        assert got[i] == want[i]
        assert (got[i].hi, got[i].floor) == (want[i].hi, want[i].floor)
