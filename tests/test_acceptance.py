"""Acceptance gate: one test per criterion, every tolerance exact equality.

Each test prints a single ``[PASS] criterion N`` line (visible under
``pytest -s`` or in the captured output of a failing run) and enforces the
stated runtime budget.  Run with::

    pytest -v -s tests/test_acceptance.py
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from ccsym.coeff import RingSpec, ring_new
from ccsym.errors import StabilityExhaustedError
from ccsym.forms import DiffForm, d, dlog, res
from ccsym.laurent import (
    Window,
    decompose,
    from_terms,
    invert,
    monomial,
    one,
    stable_coefficient,
    t_var,
    valuation,
)
from ccsym.symbol import (
    additive_symbol,
    cc,
    cc_eps_linearization,
    cc_eta_linearization,
    det_int,
    sgn_kh,
    sgn_vf,
    tame_symbol,
)
from ccsym.universal import PhiKey, check_integrality, check_weight_zero, phi_coefficients
from ccsym.witt import IndexSet, WittVector, ghost, ghost_to_coords, project, upsilon, \
    witt_add, witt_neg, witt_pair
from ccsym.universal import evaluate_phi
from ccsym.checks import (
    SUITES,
    random_invertible_series,
    random_laurent_poly,
    random_nilpotent_coef,
)

Q = ring_new(RingSpec("Q"))
QE = ring_new(RingSpec("Q", nil=(("e", 2),)))
TOWER = ring_new(RingSpec("Q", nil=(("e1", 2), ("e2", 3))))


class budget:
    def __init__(self, number, description, seconds):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        if exc_type is None:
            print(f"[PASS] criterion {self.number} ({elapsed:.2f}s/{self.seconds}s): "
                  f"{self.description}")
            assert elapsed < self.seconds, \
                f"criterion {self.number} exceeded its {self.seconds}s budget ({elapsed:.2f}s)"
        else:
            print(f"[FAIL] criterion {self.number} ({elapsed:.2f}s): {self.description}")
        return False


def test_criterion_01_anchor_values():
    with budget(1, "anchor values CC_1(t,t), CC_n(a,t..), nu_n(t..)", 1.0):
        t = t_var(Q, 1, 1)
        assert cc([t, t]) == Q.from_scalar(-1)
        e = QE.gen("e")
        for n in (1, 2, 3):
            ts = [t_var(QE, n, j) for j in range(1, n + 1)]
            for a in (QE.from_scalar(2), QE.from_scalar(-1), QE.one() + e):
                assert cc([monomial(QE, n, (0,) * n, a)] + ts) == a
            assert additive_symbol([t_var(Q, n, j) for j in range(1, n + 1)]) == 1


def test_criterion_02_closed_form_cc1():
    with budget(2, "closed-form CC_1(1-u t^i, 1-v t^j) sweep", 5.0):
        ring = ring_new(RingSpec("Q", free=("u",), nil=(("v", 5),)))
        u, v = ring.gen("u"), ring.gen("v")
        for i in (1, 2, 3):
            for j in (-1, -2, -3):
                f = from_terms(ring, 1, [((0,), 1), ((i,), -u)])
                g = from_terms(ring, 1, [((0,), 1), ((j,), -v)])
                gcd = math.gcd(i, -j)
                expected = (ring.one() - u ** (-j // gcd) * v ** (i // gcd)) ** gcd
                assert cc([f, g]) == expected, (i, j)
        # same sign in both directions: value 1
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                f = from_terms(ring, 1, [((0,), 1), ((i,), -u)])
                g = from_terms(ring, 1, [((0,), 1), ((j,), -v)])
                assert cc([f, g]) == ring.one()
        neg = ring_new(RingSpec("Q", nil=(("w", 5), ("v", 5))))
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                f = from_terms(neg, 1, [((0,), 1), ((-i,), -neg.gen("w"))])
                g = from_terms(neg, 1, [((0,), 1), ((-j,), -neg.gen("v"))])
                assert cc([f, g]) == neg.one()


def test_criterion_03_property_suites():
    with budget(3, "multilinearity/antisymmetry/Steinberg/{f,-f} suites, 50 trials", 120.0):
        for n in (1, 2):
            for name in ("multilinear", "antisymmetric", "steinberg", "neg_steinberg"):
                report = SUITES[name](TOWER, n=n, trials=50, seed=2024 + n)
                assert report["passed"] == 50 and not report["failures"], \
                    (name, n, report["failures"][:1])


def test_criterion_04_tangent_identities():
    with budget(4, "first-order (eps) and top-order (eta) tangent identities", 120.0):
        rng = random.Random(99)
        for n in (1, 2):
            for _ in range(30):
                g = random_laurent_poly(rng, TOWER, n)
                fs = [random_invertible_series(rng, TOWER, n) for _ in range(n)]
                assert cc_eps_linearization(g, fs)["ok"]
            for _ in range(30):
                gs = [random_laurent_poly(rng, TOWER, n) for _ in range(n + 1)]
                assert cc_eta_linearization(gs)["ok"]


def test_criterion_05_residue_determinant():
    with budget(5, "det(nu(f_i)) = res(dlog f_1 ^ ... ^ dlog f_n)", 60.0):
        for n in (1, 2):
            report = SUITES["residue_det"](TOWER, n=n, trials=30, seed=77)
            assert report["passed"] == 30 and not report["failures"]


def test_criterion_06_forms():
    with budget(6, "res(d eta) = 0, d^2 = 0, Leibniz", 30.0):
        rng = random.Random(66)
        for n in (1, 2):
            for _ in range(50):
                if n == 1:
                    eta = DiffForm.from_series(random_laurent_poly(rng, TOWER, 1))
                else:
                    eta = DiffForm._make(TOWER, 2, 1, {
                        (1,): random_laurent_poly(rng, TOWER, 2),
                        (2,): random_laurent_poly(rng, TOWER, 2)})
                assert res(d(eta)).is_zero()
        for _ in range(25):
            f = random_laurent_poly(rng, TOWER, 2)
            g = random_laurent_poly(rng, TOWER, 2)
            assert d(d(f)).comps == {}
            assert d(f * g) == d(g).scale(f) + d(f).scale(g)


def test_criterion_07_sgn_agreement():
    with budget(7, "sgn_vf = sgn_kh and the repeated-argument rule", 60.0):
        for a in range(-3, 4):
            for b in range(-3, 4):
                assert sgn_vf((a,), (b,)) == sgn_kh((a,), (b,))
            assert sgn_vf((a,), (a,)) == a % 2
        rng = random.Random(7)
        for _ in range(10000):
            tup = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(3))
            assert sgn_vf(*tup) == sgn_kh(*tup)
        for l in itertools.product(range(-2, 3), repeat=2):
            for r in itertools.product(range(-2, 3), repeat=2):
                assert sgn_vf(l, l, r) == det_int([l, r]) % 2


def test_criterion_08a_phi_11_degree_6():
    with budget(8, "phi_{1,1} to degree 6 on [-6,6]: integral, weight zero", 60.0):
        series = phi_coefficients(PhiKey(1, (1,)), 6, Window.box((-6,), (6,)))
        assert series.coeffs, "no coefficients computed"
        assert check_integrality(series)["integral"]
        assert check_weight_zero(series)["weight_zero"]


def test_criterion_08b_phi_212_degree_3():
    with budget(8, "phi_{2,1,2} to degree 3 on [-2,2]^2: integral, weight zero", 900.0):
        series = phi_coefficients(PhiKey(2, (1, 2)), 3, Window.box((-2, -2), (2, 2)))
        assert series.coeffs, "no coefficients computed"
        assert check_integrality(series)["integral"]
        assert check_weight_zero(series)["weight_zero"]


def test_criterion_09_integral_path_equivalence():
    with budget(9, "evaluate_phi agrees with cc over the rational extension", 300.0):
        ring = ring_new(RingSpec("Z", nil=(("e1", 2), ("e2", 3))))
        ring_q, embed = ring.rationalized()
        rng = random.Random(9)
        done = 0
        for n in (1, 2):
            for _ in range(30):
                q = rng.randint(0, n)
                key = PhiKey(n, tuple(range(n - q + 1, n + 1)))
                gs = []
                for _ in range(key.p):
                    pairs = [(tuple(rng.randint(-2, 2) for _ in range(n)),
                              random_nilpotent_coef(rng, ring))
                             for _ in range(rng.randint(1, 2))]
                    gs.append(from_terms(ring, n, pairs))
                val = evaluate_phi(key, gs)
                entries = [one(ring_q, n) + g.map_coefficients(ring_q, embed) for g in gs]
                entries += [t_var(ring_q, n, j) for j in key.js]
                assert embed(val) == cc(entries), (n, key.js)
                done += 1
        assert done == 60


def test_criterion_10_witt():
    with budget(10, "Witt: ghosts, integrality, Upsilon, bilinearity, projections", 60.0):
        rng = random.Random(10)
        s6 = IndexSet.closure(range(1, 7))
        # ghost round trips over Q
        for _ in range(25):
            w = WittVector(s6, {i: Q.from_scalar(Fraction(rng.randint(-9, 9),
                                                          rng.randint(1, 4)))
                                for i in s6})
            back, _ = ghost_to_coords(ghost(w))
            assert back == w
        # Witt addition integrality over Z on 50 random pairs
        Z = ring_new(RingSpec("Z"))
        for _ in range(50):
            w1 = WittVector(s6, {i: Z.from_scalar(rng.randint(-9, 9)) for i in s6})
            w2 = WittVector(s6, {i: Z.from_scalar(rng.randint(-9, 9)) for i in s6})
            total = witt_add(w1, w2)  # asserts integrality internally
            assert witt_add(total, witt_neg(w2)) == w1
        # Upsilon homomorphism to degree 6 over Q and over Z[e]
        ZE = ring_new(RingSpec("Z", nil=(("e", 2),)))
        for ring in (Q, ZE):
            for _ in range(10):
                extra = ring.gen("e") if ring.gens else ring.zero()
                w1 = WittVector(s6, {i: ring.from_scalar(rng.randint(-3, 3))
                                     + extra * rng.randint(-1, 1) for i in s6})
                w2 = WittVector(s6, {i: ring.from_scalar(rng.randint(-3, 3)) for i in s6})
                lhs = upsilon(witt_add(w1, w2), 6)
                rhs = upsilon(w1) * upsilon(w2)
                for k in range(7):
                    assert lhs.coefficient((k,)) == rhs.coefficient((k,))
        # pairing bilinearity, 20 trials, n = 1
        for _ in range(20):
            f1 = random_invertible_series(rng, TOWER, 1)
            f2 = random_invertible_series(rng, TOWER, 1)
            g = WittVector(s6, {i: random_laurent_poly(rng, TOWER, 1, bound=1) for i in s6})
            h = WittVector(s6, {i: random_laurent_poly(rng, TOWER, 1, bound=1) for i in s6})
            assert witt_pair([f1 * f2], g) == \
                witt_add(witt_pair([f1], g), witt_pair([f2], g))
            assert witt_pair([f1], witt_add(g, h)) == \
                witt_add(witt_pair([f1], g), witt_pair([f1], h))
        # projection compatibility
        sub = IndexSet((1, 2, 3))
        for _ in range(10):
            f = random_invertible_series(rng, TOWER, 1)
            g = WittVector(s6, {i: random_laurent_poly(rng, TOWER, 1, bound=1) for i in s6})
            assert project(witt_pair([f], g), sub) == witt_pair([f], project(g, sub))


def test_criterion_11_tame_consistency():
    with budget(11, "tame symbol equals the symbol over Q, n = 1", 60.0):
        rng = random.Random(11)
        for _ in range(50):
            f = random_invertible_series(rng, Q, 1)
            g = random_invertible_series(rng, Q, 1)
            assert tame_symbol(f, g) == cc([f, g])


def test_criterion_12_decomposition():
    with budget(12, "decomposition round trips and nu-additivity", 120.0):
        rng = random.Random(12)
        for n in (1, 2, 3):
            for _ in range(100):
                f = random_invertible_series(rng, TOWER, n)
                dec = decompose(f)
                assert dec.product() == f
                g = random_invertible_series(rng, TOWER, n)
                assert valuation(f * g) == \
                    tuple(a + b for a, b in zip(valuation(f), valuation(g)))


def test_criterion_13_negative_path():
    with budget(13, "lex-directed tail reports StabilityExhausted, never a value", 30.0):
        f = from_terms(Q, 2, [((0, 0), 1), ((-1, 1), -1)])
        with pytest.raises(StabilityExhaustedError):
            stable_coefficient(lambda w: invert(f, w), (-1, -1))
        # the same contract through the symbol layer
        with pytest.raises(StabilityExhaustedError):
            cc([f, t_var(Q, 2, 1), t_var(Q, 2, 2)])
