"""Seeded randomized verification suites for the structural identities.

Generators build invertible series from their unit-group factors, so every
sample is invertible by construction and stays inside the engine's orthant
contract: unit coefficients only sit at componentwise-nonnegative exponents,
mixed lex-directions carry nilpotent coefficients.  Every suite returns a
deterministic report ``{"name", "trials", "passed", "failures"}`` with the
offending payloads on failure.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .coeff import RingSpec, ring_new
from .errors import NotInvertibleError, ParseError
from .forms import Dlog, certified_residue
from .laurent import (
    Window,
    from_terms,
    lex_negative,
    lex_positive,
    monomial,
    one,
    valuation,
)
from .symbol import (
    cc,
    cc_eps_linearization,
    cc_eta_linearization,
    det_int,
    sgn_kh,
    sgn_vf,
)
from . import witt as witt_mod
from .universal import PhiKey, check_integrality, check_weight_zero, phi_coefficients


def default_ring():
    return ring_new(RingSpec("Q", nil=(("e1", 2), ("e2", 3))))


def random_nilpotent_coef(rng, ring):
    x = ring.zero()
    for name, _ in ring.spec.nil:
        if rng.random() < 0.7:
            x = x + ring.gen(name) * rng.randint(-2, 2)
    nil_names = [name for name, _ in ring.spec.nil]
    if len(nil_names) > 1 and rng.random() < 0.3:
        x = x + ring.gen(nil_names[0]) * ring.gen(nil_names[1]) * rng.randint(-1, 1)
    return x


def random_unit_coef(rng, ring):
    c = ring.from_scalar(rng.choice([1, 1, 2, -1, 3, Fraction(1, 2)]
                                    if ring.base == "Q" else [1, 1, -1]))
    return c + random_nilpotent_coef(rng, ring)


def random_invertible_series(rng, ring, n, nu_orthant=False):
    """A random unit of the series ring, built as t^nu * c * v_plus * v_minus.

    ``nu`` lies in [-1, 1]^n and the exponent of each factor in [-2, 2]^n.
    With ``nu_orthant`` the monomial exponent keeps a componentwise-uniform
    sign, so that 1 - f also stays inside the box-window (orthant) regime.
    """
    if nu_orthant:
        sign = rng.choice([1, -1])
        nu = tuple(sign * rng.randint(0, 1) for _ in range(n))
    else:
        nu = tuple(rng.randint(-1, 1) for _ in range(n))
    f = monomial(ring, n, nu, random_unit_coef(rng, ring))
    for _ in range(rng.randint(0, 2)):
        l = tuple(rng.randint(-2, 2) for _ in range(n))
        if lex_positive(l):
            if all(x >= 0 for x in l):
                coef = ring.from_scalar(rng.randint(-2, 2))
            else:
                coef = random_nilpotent_coef(rng, ring)
            f = f * (one(ring, n) + monomial(ring, n, l, coef))
    for _ in range(rng.randint(0, 2)):
        l = tuple(rng.randint(-2, 2) for _ in range(n))
        if lex_negative(l):
            f = f * (one(ring, n) + monomial(ring, n, l, random_nilpotent_coef(rng, ring)))
    return f


def random_laurent_poly(rng, ring, n, bound=2):
    """Up to three terms with exponents in [-bound, bound]^n."""
    pairs = []
    for _ in range(rng.randint(0, 3)):
        l = tuple(rng.randint(-bound, bound) for _ in range(n))
        c = ring.from_scalar(rng.randint(-3, 3)) + random_nilpotent_coef(rng, ring)
        pairs.append((l, c))
    return from_terms(ring, n, pairs)


def _report(name, trials, failures):
    return {"name": name, "trials": trials, "passed": trials - len(failures),
            "failures": failures}


def _run(name, trials, seed, body):
    rng = random.Random(seed)
    failures = []
    for k in range(trials):
        outcome = body(rng, k)
        if outcome is not None:
            failures.append({"trial": k, "detail": outcome})
    return _report(name, trials, failures)


def suite_multilinear(ring=None, n=1, trials=20, seed=0):
    ring = ring or default_ring()

    def body(rng, k):
        f = random_invertible_series(rng, ring, n)
        g = random_invertible_series(rng, ring, n)
        rest = [random_invertible_series(rng, ring, n) for _ in range(n)]
        lhs = cc([f * g] + rest)
        rhs = cc([f] + rest) * cc([g] + rest)
        if lhs != rhs:
            return {"f": str(f), "g": str(g), "rest": [str(x) for x in rest],
                    "lhs": str(lhs), "rhs": str(rhs)}
    return _run("multilinear", trials, seed, body)


def suite_antisymmetric(ring=None, n=1, trials=20, seed=0):
    if n < 1:
        raise ParseError(f"antisymmetric swaps two series, so n must be at least 1, got {n}")
    ring = ring or default_ring()

    def body(rng, k):
        fs = [random_invertible_series(rng, ring, n) for _ in range(n + 1)]
        swapped = [fs[1], fs[0]] + fs[2:]
        prod = cc(fs) * cc(swapped)
        if prod != ring.one():
            return {"tuple": [str(x) for x in fs], "product": str(prod)}
    return _run("antisymmetric", trials, seed, body)


def suite_steinberg(ring=None, n=1, trials=20, seed=0):
    """cc(f, 1-f, ...) = 1 whenever both arguments are invertible."""
    ring = ring or default_ring()

    def body(rng, k):
        for _ in range(60):
            f = random_invertible_series(rng, ring, n, nu_orthant=True)
            comp = one(ring, n) - f
            try:
                valuation(comp)
            except NotInvertibleError:
                continue
            rest = [random_invertible_series(rng, ring, n) for _ in range(n - 1)]
            val = cc([f, comp] + rest)
            if val != ring.one():
                return {"f": str(f), "rest": [str(x) for x in rest], "value": str(val)}
            return None
        return {"detail": "no invertible 1-f found"}
    return _run("steinberg", trials, seed, body)


def suite_neg_steinberg(ring=None, n=1, trials=20, seed=0):
    """cc(f, -f, ...) = 1."""
    ring = ring or default_ring()

    def body(rng, k):
        f = random_invertible_series(rng, ring, n)
        rest = [random_invertible_series(rng, ring, n) for _ in range(n - 1)]
        val = cc([f, -f] + rest)
        if val != ring.one():
            return {"f": str(f), "value": str(val)}
    return _run("neg_steinberg", trials, seed, body)


def suite_residue_det(ring=None, n=1, trials=20, seed=0):
    """det of the valuation vectors equals res(dlog f_1 ^ ... ^ dlog f_n)."""
    ring = ring or default_ring()

    def body(rng, k):
        fs = [random_invertible_series(rng, ring, n) for _ in range(n)]
        dt = det_int([valuation(f) for f in fs])
        r = certified_residue(one(ring, n), [Dlog(f) for f in fs])
        if r != ring.from_scalar(dt):
            return {"fs": [str(f) for f in fs], "det": dt, "res": str(r)}
    return _run("residue_det", trials, seed, body)


def suite_eps_identities(ring=None, n=1, trials=20, seed=0):
    ring = ring or ring_new(RingSpec("Q"))

    def body(rng, k):
        g = random_laurent_poly(rng, ring, n)
        fs = [random_invertible_series(rng, ring, n) for _ in range(n)]
        rep = cc_eps_linearization(g, fs)
        if not rep["ok"]:
            return {"g": str(g), "fs": [str(f) for f in fs],
                    "lhs": str(rep["lhs"]), "rhs": str(rep["rhs"])}
    return _run("eps_identities", trials, seed, body)


def suite_eta_identities(ring=None, n=1, trials=20, seed=0):
    ring = ring or ring_new(RingSpec("Q"))

    def body(rng, k):
        gs = [random_laurent_poly(rng, ring, n) for _ in range(n + 1)]
        rep = cc_eta_linearization(gs)
        if not rep["ok"]:
            return {"gs": [str(g) for g in gs],
                    "lhs": str(rep["lhs"]), "rhs": str(rep["rhs"])}
    return _run("eta_identities", trials, seed, body)


def suite_witt_bilinear(ring=None, n=1, trials=20, seed=0):
    ring = ring or ring_new(RingSpec("Q", nil=(("e1", 2),)))
    S = witt_mod.IndexSet.closure(range(1, 7))

    def body(rng, k):
        f1 = random_invertible_series(rng, ring, n)
        f2 = random_invertible_series(rng, ring, n)
        g = witt_mod.WittVector(S, {i: random_laurent_poly(rng, ring, n, bound=1)
                                    for i in S})
        h = witt_mod.WittVector(S, {i: random_laurent_poly(rng, ring, n, bound=1)
                                    for i in S})
        prod_pair = witt_mod.witt_pair([f1 * f2] + [f1] * (n - 1), g)
        split = witt_mod.witt_add(witt_mod.witt_pair([f1] * n, g),
                                  witt_mod.witt_pair([f2] + [f1] * (n - 1), g))
        if prod_pair != split:
            return {"slot": "multiplicative", "f1": str(f1), "f2": str(f2)}
        gh = witt_mod.witt_add(g, h)
        lhs = witt_mod.witt_pair([f1] * n, gh)
        rhs = witt_mod.witt_add(witt_mod.witt_pair([f1] * n, g),
                                witt_mod.witt_pair([f1] * n, h))
        if lhs != rhs:
            return {"slot": "additive", "f1": str(f1)}
    return _run("witt_bilinear", trials, seed, body)


def suite_phi_integrality(n=1, degree=4, radius=3):
    key = PhiKey(n, tuple(range(1, n + 1)))
    series = phi_coefficients(key, degree, Window.cube(n, radius))
    rep_i = check_integrality(series)
    rep_w = check_weight_zero(series)
    failures = []
    if not rep_i["integral"]:
        failures.append({"integrality": rep_i["violations"]})
    if not rep_w["weight_zero"]:
        failures.append({"weight": rep_w["violations"]})
    report = _report("phi_integrality", rep_i["checked"], failures)
    report["degree"] = degree
    return report


def suite_sgn_agreement(n=1, bound=3, samples=10000, seed=0):
    failures = []
    if n == 1:
        grid = [(a,) for a in range(-bound, bound + 1)]
        tuples = [(x, y) for x in grid for y in grid]
    else:
        rng = random.Random(seed)
        tuples = []
        for _ in range(samples):
            tuples.append(tuple(tuple(rng.randint(-bound, bound) for _ in range(n))
                                for _ in range(n + 1)))
    for tup in tuples:
        if sgn_vf(*tup) != sgn_kh(*tup):
            failures.append({"tuple": tup, "vf": sgn_vf(*tup), "kh": sgn_kh(*tup)})
    return _report("sgn_agreement", len(tuples), failures)


SUITES = {
    "multilinear": suite_multilinear,
    "antisymmetric": suite_antisymmetric,
    "steinberg": suite_steinberg,
    "neg_steinberg": suite_neg_steinberg,
    "residue_det": suite_residue_det,
    "eps_identities": suite_eps_identities,
    "eta_identities": suite_eta_identities,
    "witt_bilinear": suite_witt_bilinear,
    "phi_integrality": suite_phi_integrality,
    "sgn_agreement": suite_sgn_agreement,
}

