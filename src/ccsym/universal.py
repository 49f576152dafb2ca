"""The universal power series behind the symbol, over generic coefficients.

``phi_coefficients`` instruments the symbol with one nilpotent generator
``x_{i,l}`` of order D+1 (total degree capped at D) per generic slot ``i``
and exponent ``l`` in a finite window, evaluates

    CC_n(1 + sum x_{1,l} t^l, ..., 1 + sum x_{p,l} t^l, t_{j_1}, ..., t_{j_q})

over the rationals, and reads off the resulting polynomial.  The
coefficients are integers and every monomial has weight zero (the weight of
``x_{i,l}`` being ``l``); both facts are checkable reports here and the
integrality is what makes ``evaluate_phi`` a valid route to the symbol over
bases without rationals: substituting nilpotent Laurent-polynomial
coefficients into the series needs no denominators.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import RingSpec, Struct, ring_new
from .errors import InternalConsistencyError, NotSharpError, ParseError
from .laurent import Window, _decode, from_terms, require_exact, t_var
from .symbol import cc

__all__ = [
    "PhiKey", "UniversalSeries", "phi_coefficients", "check_integrality",
    "check_weight_zero", "evaluate_phi",
]


class PhiKey(Struct):
    """n and the strictly increasing tuple of variable-slot positions."""

    __slots__ = ("n", "js")

    def __init__(self, n: int, js: tuple = ()):
        checked = tuple(js)
        if list(checked) != sorted(set(checked)) or any(not 1 <= j <= n for j in checked):
            raise ParseError(f"bad branch positions {checked} for n={n}")
        if n < 1 or len(checked) > n:
            raise ParseError(f"bad key n={n}, js={checked}")
        self.n = n
        self.js = js

    @property
    def q(self):
        return len(self.js)

    @property
    def p(self):
        return self.n + 1 - self.q


class UniversalSeries(Struct):
    """Finitely many coefficients of the universal series.

    ``coeffs`` maps canonical monomials -- sorted tuples of
    ``((slot, exponent_vector), power)`` -- to exact rationals; the constant
    term is stored implicitly and equals one.
    """

    __slots__ = ("key", "degree", "window", "coeffs")
    __hash__ = None

    def __init__(self, key: PhiKey, degree: int, window: Window, coeffs: dict):
        self.key = key
        self.degree = degree
        self.window = window
        self.coeffs = coeffs

    def coefficient(self, monomial):
        monomial = tuple(sorted(((i, tuple(l)), e) for (i, l), e in monomial))
        return self.coeffs.get(monomial, Fraction(0))

    def sorted_items(self):
        return _by_degree(self.coeffs.items())

    def to_json(self):
        out = []
        for mono, value in self.sorted_items():
            out.append({"monomial": [[i, list(l), e] for (i, l), e in mono],
                        "value": str(value)})
        return out


def _by_degree(rows):
    """``rows`` (each led by a monomial) sorted by total degree, then monomial."""
    return sorted(rows, key=lambda row: (sum(e for _, e in row[0]), row[0]))


def _gen_name(i, l):
    return f"x{i}_" + "_".join(f"m{-v}" if v < 0 else str(v) for v in l)


def _phi_series(key: PhiKey, degree, pairs, window):
    """Instrumented evaluation over the slots in ``pairs`` (slot, exponent).

    The instrumentation ring has no free generators and one nil field per
    pair, in the order of the sorted ``pairs``.  So the value's packed keys
    decode field by field into monomials that are sorted already, and each
    coefficient is one ``Fraction`` of a numerator over the value's
    denominator.  The constant term must be exactly 1.
    """
    pairs = sorted(pairs)
    ring = ring_new(RingSpec("Q",
                             nil=tuple((_gen_name(i, l), degree + 1) for i, l in pairs),
                             nil_total_cap=degree))
    n = key.n
    entries = []
    for i in range(1, key.p + 1):
        terms = [((0,) * n, ring.one())]
        terms += [(l, ring.gen(_gen_name(slot, l))) for slot, l in pairs if slot == i]
        entries.append(from_terms(ring, n, terms))
    entries += [t_var(ring, n, j) for j in key.js]
    value = cc(entries)

    nums, den = value._mono, value.den
    if nums.get(ring._bias) != den:
        raise InternalConsistencyError(
            f"universal series has constant term {value.constant_scalar()}, not 1")
    fields = tuple(zip(pairs, ring._fields))
    coeffs = {}
    for k, v in nums.items():
        if k != ring._bias:
            coeffs[tuple([(pair, e) for pair, (shift, mask, b) in fields
                          if (e := ((k >> shift) & mask) - b)])] = Fraction(v, den)
    return UniversalSeries(key, degree, window, coeffs)


def phi_coefficients(key: PhiKey, degree: int, window: Window) -> UniversalSeries:
    """All coefficients of total degree <= ``degree`` over the exponent box."""
    if degree < 1:
        raise ParseError("degree bound must be >= 1")
    if len(window.lo) != key.n:
        raise ParseError("window dimension does not match n")
    box = [()]
    for lo_j, hi_j in zip(window.lo, window.hi):
        box = [l + (v,) for l in box for v in range(lo_j, hi_j + 1)]
    pairs = [(i, l) for i in range(1, key.p + 1) for l in box]
    return _phi_series(key, degree, pairs, window)


def check_integrality(series: UniversalSeries):
    violations = _by_degree([mono, str(value)] for mono, value in series.coeffs.items()
                            if value.denominator != 1)
    return {"integral": not violations, "violations": violations,
            "checked": len(series.coeffs)}


def _weight(mono, n):
    w = [0] * n
    for (_, l), e in mono:
        for j in range(n):
            w[j] += e * l[j]
    return tuple(w)


def check_weight_zero(series: UniversalSeries):
    n = series.key.n
    violations = _by_degree([mono, list(w)] for mono in series.coeffs
                            if any(w := _weight(mono, n)))
    return {"weight_zero": not violations, "violations": violations,
            "checked": len(series.coeffs)}


# evaluate_phi's universal series by (key, degree, exponent pairs), oldest first;
# at _PHI_CACHE_SIZE entries the oldest is evicted
_PHI_CACHE = {}
_PHI_CACHE_SIZE = 128


def evaluate_phi(key: PhiKey, gs):
    """CC_n(1+g_1, ..., 1+g_p, t_{j_1}, ...) through the universal series.

    Every ``g_i`` must be an exact Laurent polynomial with nilpotent
    coefficients; the needed degree and exponent support are finite, the
    series coefficients are integers, and the value is exact over any base.
    """
    gs = list(gs)
    if len(gs) != key.p:
        raise ParseError(f"need {key.p} nilpotent series for this key")
    ring, n = gs[0].ring, gs[0].n
    if n != key.n:
        raise ParseError("variable count does not match the key")
    require_exact(gs, "evaluate_phi")
    coefs = {}  # each coefficient of each g_i by (slot, exponent), as the series reads it
    for i, g in enumerate(gs, 1):
        for k, c in g._terms.items():
            l = _decode(k, n)
            if not c.is_nilpotent():
                raise NotSharpError(f"coefficient {c} at {l} is not nilpotent")
            coefs[(i, l)] = c
    degree = max(1, ring.nil_index - 1)
    pairs = tuple(sorted(coefs))
    cache_key = (key, degree, pairs)
    if cache_key not in _PHI_CACHE:
        if len(_PHI_CACHE) >= _PHI_CACHE_SIZE:
            del _PHI_CACHE[next(iter(_PHI_CACHE))]
        _PHI_CACHE[cache_key] = _phi_series(key, degree, pairs, None)
    series = _PHI_CACHE[cache_key]

    value = ring.one()
    for mono, coefficient in series.coeffs.items():
        if coefficient.denominator != 1:
            raise InternalConsistencyError(
                f"universal coefficient {coefficient} at {mono} is not integral")
        term = ring.from_scalar(int(coefficient))
        for pair, e in mono:
            term = term * coefs[pair] ** e
            if not term:
                break
        value = value + term
    return value
