"""Sparse exact arithmetic for iterated Laurent polynomials and windowed series.

Elements live in ``A((t_1))...((t_n))`` for a coefficient ring ``A`` from
:mod:`ccsym.coeff`.  The multi-index order is lexicographic with ``t_n`` most
significant.  An element is either *exact* (a genuine Laurent polynomial,
complete knowledge) or *windowed*: its stored coefficients are certified
correct for every index ``tau <= hi`` componentwise, and its true support is
certified to lie above ``floor`` componentwise.  All operations propagate
these certificates, so a coefficient read off a windowed element is exact or
raises; there is no silent truncation error.

Infinite expansions (geometric inverses, log, exp) are summed with a budget
derived from the nilpotency index of the coefficient ring and the requested
window.  Budgets exist only when every non-nilpotent monomial of the
expansion generator has componentwise-nonnegative exponent (the "orthant"
condition); generators with unit coefficients in mixed directions, such as
``1 - t1^-1*t2``, have lex-shaped tails that no box window can capture and
are rejected with a stability error.  Under a ceiling, each power of the
generator keeps only the indices from which the factors still to come can
return below it, so ``log`` and ``exp`` are windowed there even when the
series terminates by nilpotency; an inverse that terminates so stays exact.
An expansion that ``forms.certified_residues`` plans may also have a band
floor; a windowed sum is then cut from below as well, and is exact on the
band alone.  The split record of a unit ``g = c + h``, :class:`_Sharp`,
expands ``log(g / c)`` and ``1 / g`` from ``h``, without forming the sharp
part ``S = g / c``.

Indices are stored as packed int keys.  Each ``t_j`` has one field of
``_BITS`` value bits holding its exponent plus ``2**(_BITS - 1)``, with a
guard bit above it, and ``t_n`` sits in the top field, so int order is the
lex order.  An exponent lies in ``[INDEX_MIN, INDEX_MAX]``, that is
``[-2**16, 2**16 - 1]``.  The key of a product index is ``ka + kb - bias``,
and it has a guard bit set exactly when some coordinate left the range,
whether the field overflowed or borrowed.  With ``G`` every guard bit, the
box test ``l <= hi`` is ``((H | G) - k) & G == G`` for ``H`` the packed
``hi``, and ``lo <= l`` is ``((k | G) - L) & G == G``.  Bounds (``hi``,
``floor``, windows, work boxes and bands) stay index tuples and are packed
where they are tested, clamped one step past the key range, where no key
lies.  A constructor (:func:`from_terms`, :func:`monomial`,
:func:`series_from_json`) refuses an index outside the range with
``ParseError``; an index the engine makes there (a product, shift, power or
derivative) is refused with ``UnsupportedRingError``.  Keys are decoded
only at the edges: ``to_json``, ``__str__``, the plans of
:func:`_generator_parts` and ``terms``, a read-only ``{index tuple: Coef}``
decoded from ``_terms`` on each read for callers outside the engine, which
reads only the packed stores.

Products and expansions share one flat route: each operand's coefficients
become packed numerators over one denominator, every pair of terms inside
the box adds its product into one accumulator per key through
:func:`ccsym.coeff.mul_into`, and an expansion carries each power of its
generator in that form, reduced, to the next one.  ``Coef`` objects are built
only for the series returned.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

from .coeff import (
    Coef,
    Ring,
    Struct,
    exp_coefficient,
    geometric_coefficient,
    json_int,
    json_list,
    json_object,
    log_coefficient,
    mul_into,
)
from .errors import (
    InternalConsistencyError,
    NotInvertibleError,
    NotSharpError,
    ParseError,
    RingMismatchError,
    StabilityExhaustedError,
    UnsupportedRingError,
    WindowExceededError,
)

_EXPANSION_SANITY = 20000


# -- multi-index order and packed keys --------------------------------------------

def lex_key(l):
    """Sort key realizing the order: compare t_n first, then t_{n-1}, ..."""
    return tuple(reversed(l))


def lex_positive(l):
    return lex_key(l) > (0,) * len(l)


def lex_negative(l):
    return lex_key(l) < (0,) * len(l)


def _add_idx(l, m):
    return tuple(map(operator.add, l, m))


def _sub_idx(l, m):
    return tuple(map(operator.sub, l, m))


def _min_idx(l, m):
    return tuple(map(min, l, m))


def _le_idx(l, m):
    return all(map(operator.le, l, m))


def _unit_vector(n, j, value=1):
    """The index with ``value`` at ``t_j`` (1-based) and 0 elsewhere."""
    return tuple(value if i == j - 1 else 0 for i in range(n))


# The packed layout (module docstring): t_j's field holds its exponent plus
# _MID in _BITS value bits, below a guard bit _TOP; t_1 sits lowest.
_BITS = 17
_STEP = _BITS + 1
_TOP = 1 << _BITS
_MID = _TOP >> 1
_MASK = _TOP - 1
INDEX_MIN, INDEX_MAX = -_MID, _MID - 1


@lru_cache(maxsize=64)
def _layout(n):
    """``(bias, guard)`` of n fields: the key of index 0, and every guard bit."""
    ones = ((1 << (n * _STEP)) - 1) // ((1 << _STEP) - 1)
    return _MID * ones, _TOP * ones


# _pack and _decode are memoized: small series keep meeting the same few
# indices, and a cache hit costs a third of a pack or decode
@lru_cache(maxsize=1024)
def _pack(l):
    """The key of index ``l``, or None when a coordinate lies outside the key range."""
    k = 0
    for e in reversed(l):
        v = e + _MID
        if not 0 <= v < _TOP:
            return None
        k = k << _STEP | v
    return k


@lru_cache(maxsize=1024)
def _decode(k, n):
    """The index tuple of key ``k`` of a series in n variables."""
    return tuple([((k >> s) & _MASK) - _MID for s in range(0, n * _STEP, _STEP)])


def _hi_key(hi):
    """``H | G`` for a ceiling ``hi``: ``((H | G) - k) & G == G`` reads
    ``k <= hi``.  A coordinate past the key range is clamped one step beyond
    it, where the test still reads it exactly, since no key lies there."""
    k = 0
    for e in reversed(hi):
        k = k << _STEP | (min(max(e + _MID, -1), _MASK) + _TOP)
    return k


def _lo_key(lo):
    """``L`` for a floor ``lo``: ``((k | G) - L) & G == G`` reads ``lo <= k``;
    clamped as :func:`_hi_key` is."""
    k = 0
    for e in reversed(lo):
        k = k << _STEP | min(max(e + _MID, 0), _TOP)
    return k


def _delta(l):
    """The signed packed offset of a shift by ``l``: ``k + _delta(l)`` is the
    key of ``index(k) + l``, out of range exactly when it has a guard bit set,
    as long as every ``|l_j| < 2**_BITS``; past that no key stays in range."""
    d = 0
    for x in reversed(l):
        if not -_TOP < x < _TOP:
            _refuse_index_range()
        d = (d << _STEP) + x
    return d


def _refuse_index_range():
    """An index the engine made (a product, shift, power or derivative) that
    leaves the key range."""
    raise UnsupportedRingError(
        f"a series index leaves the range [{INDEX_MIN}, {INDEX_MAX}] of each coordinate")


def _key_of(l, n):
    """The key of an index given to a constructor, refused with ``ParseError``."""
    if len(l) != n:
        raise ParseError(f"index {l} does not have {n} entries")
    k = _pack(l)
    if k is None:
        raise ParseError(f"index {l} lies outside the range [{INDEX_MIN}, {INDEX_MAX}] "
                         "of each coordinate")
    return k


class Window(Struct):
    """A box ``[lo, hi]`` in Z^n; ``None`` in window positions means Exact."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if len(lo) != len(hi) or any(a > b for a, b in zip(lo, hi)):
            raise ParseError(f"bad window lo={lo} hi={hi}")
        self.lo = lo
        self.hi = hi

    @staticmethod
    def box(lo, hi):
        return Window(tuple(lo), tuple(hi))

    @staticmethod
    def cube(n, radius):
        return Window((-radius,) * n, (radius,) * n)


class LaurentElt:
    """A sparse iterated Laurent polynomial, exact or certified on a window.

    ``_terms`` maps packed index keys to nonzero ``Coef``; ``terms`` decodes
    it into a read-only ``{index tuple: Coef}`` on each read.  ``hi`` and
    ``floor`` are index tuples.
    """

    __slots__ = ("ring", "n", "_terms", "hi", "floor")

    def __init__(self, ring, n, terms, hi=None, floor=None):
        self.ring = ring
        self.n = n
        self._terms = terms
        self.hi = hi
        self.floor = floor

    @property
    def terms(self):
        """Read-only ``{index tuple: Coef}`` of the stored terms, in store
        order, decoded from ``_terms`` on each read."""
        n = self.n
        return MappingProxyType({_decode(k, n): c for k, c in self._terms.items()})

    # -- construction ---------------------------------------------------------

    @staticmethod
    def _make(ring, n, raw, hi=None, floor=None):
        """The nonzero terms of ``raw`` (packed keys) at ``<= hi``."""
        if hi is None:
            return LaurentElt(ring, n, {k: c for k, c in raw.items() if c})
        top, guard = _hi_key(hi), _layout(n)[1]
        return LaurentElt(ring, n, {k: c for k, c in raw.items()
                                    if c and (top - k) & guard == guard}, hi, floor)

    def is_exact(self):
        return self.hi is None

    def is_zero(self):
        return not self._terms and self.hi is None

    def __bool__(self):
        return bool(self._terms) or self.hi is not None

    def support_lo(self):
        """Componentwise minimum of the stored indices, None when there are none."""
        return self._support(min)

    def _support(self, bound):
        """``bound`` (``min`` or ``max``) of the stored indices, field by field."""
        keys = self._terms
        if len(keys) < 2:
            return _decode(next(iter(keys)), self.n) if keys else None
        return tuple(bound((k >> s) & _MASK for k in keys) - _MID
                     for s in range(0, self.n * _STEP, _STEP))

    def _floor(self):
        """Certified componentwise lower bound of the true support."""
        if self.hi is None:
            return self.support_lo()
        return self.floor

    # -- coefficient access ----------------------------------------------------

    def coefficient(self, l):
        l = tuple(l)
        if len(l) != self.n:
            raise ParseError(f"index {l} does not have {self.n} entries")
        _refuse_outside(l, self.hi)
        c = self._terms.get(_pack(l))  # no key lies outside the range
        return c if c is not None else self.ring.zero()

    def constant_coefficient(self):
        c = self._terms.get(_layout(self.n)[0])
        return c if c is not None else self.ring.zero()

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, LaurentElt):
            raise RingMismatchError(f"expected a series, got {other!r}")
        self.ring.compatible(other.ring)
        if self.n != other.n:
            raise RingMismatchError(f"variable count mismatch: {self.n} vs {other.n}")

    def _coerce(self, other):
        if isinstance(other, LaurentElt):
            self._check(other)
            return other
        if isinstance(other, Coef):
            self.ring.compatible(other.ring)
        elif isinstance(other, (int, Fraction)):
            other = self.ring.from_scalar(other)
        else:
            return NotImplemented
        return LaurentElt._make(self.ring, self.n, {_layout(self.n)[0]: other})

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        raw = dict(self._terms)
        for k, c in other._terms.items():
            cur = raw.get(k)
            raw[k] = c if cur is None else cur + c
        hi = _min_known(self.hi, other.hi)
        floor = None if hi is None else _min_known(self._floor(), other._floor())
        return LaurentElt._make(self.ring, self.n, raw, hi, floor)

    __radd__ = __add__

    def __neg__(self):
        return LaurentElt(self.ring, self.n, {k: -c for k, c in self._terms.items()},
                          self.hi, self.floor)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (Coef, int, Fraction)):
            if isinstance(other, Coef):
                c, scale = other, Coef.__mul__
            else:
                c, scale = self.ring.scalar(other), Coef._scaled
            if not c:
                return zero(self.ring, self.n)
            return LaurentElt._make(self.ring, self.n,
                                    {k: scale(v, c) for k, v in self._terms.items()},
                                    self.hi, self.floor)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return zero(self.ring, self.n)
        hi = _combine_hi_mul(self, other)
        floor = None if hi is None else _add_idx(self._floor(), other._floor())
        return LaurentElt(self.ring, self.n, _mul_terms(self.n, self._terms, other._terms, hi),
                          hi, floor)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise NotInvertibleError("negative powers need an explicit invert(...)")
        acc = one(self.ring, self.n)
        for _ in range(k):
            acc = acc * self
        return acc

    def shift(self, l):
        """Multiply by the monomial t^l."""
        l = tuple(l)
        hi = None if self.hi is None else _add_idx(self.hi, l)
        floor = None if self.floor is None else _add_idx(self.floor, l)
        offset = _delta(l) if self._terms else 0
        if not offset:  # the keys stay as they are
            return LaurentElt(self.ring, self.n, self._terms, hi, floor)
        guard = _layout(self.n)[1]
        terms = {}
        for k, c in self._terms.items():
            k += offset
            if k & guard:
                _refuse_index_range()
            terms[k] = c
        return LaurentElt(self.ring, self.n, terms, hi, floor)

    def partial(self, i):
        """d/dt_i, 1-based."""
        s = (i - 1) * _STEP
        guard = _layout(self.n)[1]
        raw = {}
        for k, c in self._terms.items():
            e = ((k >> s) & _MASK) - _MID
            if e == 0:
                continue
            k -= 1 << s
            if k & guard:
                _refuse_index_range()
            raw[k] = c * e
        e = _unit_vector(self.n, i)
        hi = None if self.hi is None else _sub_idx(self.hi, e)
        floor = None if self.floor is None else _sub_idx(self.floor, e)
        return LaurentElt._make(self.ring, self.n, raw, hi, floor)

    def map_coefficients(self, new_ring, fn):
        """``fn`` applied to each coefficient; a coefficient that ``fn`` sends
        to zero (a reduction mod m) is dropped."""
        mapped = ((k, fn(c)) for k, c in self._terms.items())
        return LaurentElt(new_ring, self.n, {k: c for k, c in mapped if c}, self.hi, self.floor)

    # -- predicates ---------------------------------------------------------------

    def is_sharp_add(self):
        """Constant and lex-negative coefficients nilpotent; positive part free.

        A windowed element is judged on its stored terms: the expansions that
        accept one (log, exp) certify the rest from its floor.
        """
        bias = _layout(self.n)[0]
        return all(c.is_nilpotent() for k, c in self._terms.items() if k <= bias)

    # -- comparison / display --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Coef)):
            # a constant: compare the constant term, without building a series
            if isinstance(other, Coef):
                self.ring.compatible(other.ring)
            c = self._terms.get(_layout(self.n)[0])
            if self.hi is not None or self.floor is not None or len(self._terms) > (c is not None):
                return False
            return (self.ring.zero() if c is None else c) == other  # Coef.__eq__ coerces
        if not isinstance(other, LaurentElt):
            return NotImplemented
        return (self.ring == other.ring and self.n == other.n and self._terms == other._terms
                and self.hi == other.hi and self.floor == other.floor)

    def _sorted_terms(self):
        """``(index tuple, Coef)`` in the order of the indices."""
        return [(_decode(k, self.n), self._terms[k]) for k in sorted(self._terms)]

    def __str__(self):
        if not self._terms:
            body = "0"
        else:
            parts = []
            for l, c in self._sorted_terms():
                mono = "*".join(f"t{j + 1}^{e}" for j, e in enumerate(l) if e)
                cs = str(c)
                if "+" in cs or " " in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}" if mono else cs)
            body = " + ".join(parts)
        if self.hi is not None:
            body += f" [hi={self.hi}]"
        return body

    __repr__ = __str__

    # -- serialization -------------------------------------------------------------

    def to_json(self):
        terms = [{"exp": list(l), "coef": str(c)} for l, c in self._sorted_terms()]
        window = None
        if self.hi is not None:
            # the floor as it is, also where it lies above the ceiling
            lo = self.floor if self.floor is not None else self.support_lo() or (0,) * self.n
            window = {"lo": list(lo), "hi": list(self.hi)}
        return {"n": self.n, "terms": terms, "window": window}


def _min_known(l, m):
    """Componentwise minimum, ``None`` standing for no bound."""
    return m if l is None else l if m is None else _min_idx(l, m)


def _combine_hi_mul(a, b):
    """Trust ceiling of a product: every contributing split must be covered."""
    # neither side is the exact zero, the one series without a floor
    bound_a = None if a.hi is None else _add_idx(a.hi, b._floor())
    bound_b = None if b.hi is None else _add_idx(b.hi, a._floor())
    return _min_known(bound_a, bound_b)


def _refuse_outside(l, hi):
    """Refuse to read index ``l`` of a value certified on ``{tau <= hi}``."""
    if hi is not None and not _le_idx(l, hi):
        raise WindowExceededError(
            f"coefficient at {l} lies outside the certified region (hi={hi})")


def _numerators(c, den):
    """The numerators of ``c`` over ``den`` (a multiple of ``c.den``), sorted by key."""
    if c.den == den:
        return sorted(c._mono.items())
    f = den // c.den
    return sorted((k, v * f) for k, v in c._mono.items())


def _flat(terms):
    """A term dict over one denominator: ``(den, {key: numerators sorted by key})``."""
    den = math.lcm(*[c.den for c in terms.values()])
    return den, {k: _numerators(c, den) for k, c in terms.items()}


def _flat_product(ring, n, a, b, hi, lo):
    """The product of flat term dicts in n variables on the box ``lo <= l <=
    hi``, given as the keys :func:`_hi_key` and :func:`_lo_key` make
    (``None``: open side), as ``{key: {coef key: numerator}}`` over the
    operands' two denominators multiplied.  A pair is one add and a guard
    test, then the box; an index that leaves the key range is refused."""
    bias, guard = _layout(n)
    acc = {}
    get = acc.get
    for ka, xa in a.items():
        ka -= bias
        for kb, xb in b.items():
            k = ka + kb
            if k & guard:
                _refuse_index_range()
            if (hi is not None and (hi - k) & guard != guard) or \
                    (lo is not None and ((k | guard) - lo) & guard != guard):
                continue
            out = get(k)
            if out is None:
                out = acc[k] = {}
            mul_into(ring, out, xa, xb)
    return acc


def _coefs(ring, acc, den):
    """The nonzero canonical ``Coef`` of each accumulator over ``den``,
    releasing each accumulator once it is converted."""
    out = {}
    for l in list(acc):
        c = ring._element(acc.pop(l), den)
        if c:
            out[l] = c
    return out


def _carried(ring, acc, den):
    """A power's accumulators over ``den`` as the flat operand of the next
    product: residues mod m, or the gcd with ``den`` divided out, zero
    numerators and empty indices dropped."""
    m = ring.modulus
    g = den
    for out in acc.values():
        if g == 1:
            break
        g = math.gcd(g, *out.values())
    power = {}
    for l in list(acc):
        out = acc.pop(l)
        if m is None:
            xs = sorted((k, v // g) for k, v in out.items() if v)
        else:
            xs = sorted((k, r) for k, v in out.items() if (r := v % m))
        if xs:
            power[l] = xs
    return den // g, power


def _mul_terms(n, a, b, hi):
    """Product of term dicts in n variables on ``l <= hi`` (``None``:
    everywhere), zeros dropped."""
    if not a or not b:
        return {}
    ring = next(iter(a.values())).ring
    da, fa = _flat(a)
    db, fb = _flat(b)
    top = None if hi is None else _hi_key(hi)
    return _coefs(ring, _flat_product(ring, n, fa, fb, top, None), da * db)


def product_coefficient(a: LaurentElt, b: LaurentElt, l):
    """The certified coefficient of ``a * b`` at ``l``, without forming the product."""
    l = tuple(l)
    if len(l) != a.n:
        raise ParseError(f"index {l} does not have {a.n} entries")
    if a.is_zero() or b.is_zero():
        return a.ring.zero()
    _refuse_outside(l, _combine_hi_mul(a, b))
    k = _pack(l)
    if k is None:
        _refuse_index_range()
    k += _layout(a.n)[0]  # b's key at l - la is k - ka; an index out of range is no key
    pairs = [(ca, cb) for ka, ca in a._terms.items()
             if (cb := b._terms.get(k - ka)) is not None]
    if not pairs:
        return a.ring.zero()
    da = math.lcm(*[ca.den for ca, _ in pairs])
    db = math.lcm(*[cb.den for _, cb in pairs])
    out = {}
    for ca, cb in pairs:
        mul_into(a.ring, out, _numerators(ca, da), _numerators(cb, db))
    return a.ring._element(out, da * db)


# -- constructors ---------------------------------------------------------------

def zero(ring, n):
    return LaurentElt(ring, n, {})


def one(ring, n):
    return LaurentElt(ring, n, {_layout(n)[0]: ring.one()})


def monomial(ring, n, l, coef=1):
    c = coef if isinstance(coef, Coef) else ring.from_scalar(coef)
    return LaurentElt._make(ring, n, {_key_of(tuple(l), n): c})


def t_var(ring, n, j):
    """The variable t_j, 1-based."""
    if not 1 <= j <= n:
        raise ParseError(f"t_{j} is not one of t_1..t_{n}")
    return monomial(ring, n, _unit_vector(n, j))


def from_terms(ring, n, pairs, window=None):
    """The series of ``(index, coefficient)`` pairs, exact or certified on
    ``window``; an index of other than n entries, or outside the key range,
    and a window that is not a box in n variables are parse errors."""
    raw = {}
    for l, c in pairs:
        k = _key_of(tuple(l), n)
        if not isinstance(c, Coef):
            c = ring.from_scalar(c)
        else:
            ring.compatible(c.ring)
        cur = raw.get(k)
        raw[k] = c if cur is None else cur + c
    if window is None:
        return LaurentElt._make(ring, n, raw)
    lo, hi = tuple(window.lo), tuple(window.hi)
    _refuse_window_length(lo, hi, n)
    floor, guard = _lo_key(lo), _layout(n)[1]
    for k in raw:
        if ((k | guard) - floor) & guard != guard:
            raise ParseError(f"term at index {_decode(k, n)} lies below the window floor {lo}")
    return LaurentElt._make(ring, n, raw, hi, lo)


def _refuse_window_length(lo, hi, n):
    """A window is a box in all n variables: a short one would certify
    only its first coordinates."""
    if len(lo) != n or len(hi) != n:
        raise ParseError(f"a window of a series in {n} variables has lo and hi of {n} "
                         f"entries, got {len(lo)} and {len(hi)}")


# -- valuation and decomposition ---------------------------------------------------

def require_exact(series, what):
    """Refuse windowed input where a caller must pass exact series: a
    ``ParseError`` that names the (1-based) slot of the first windowed one."""
    for slot, f in enumerate(series, 1):
        if not f.is_exact():
            raise ParseError(f"{what}: slot {slot} is a windowed series; "
                             "exact input is required")


def valuation(f: LaurentElt):
    """The lex-smallest index carrying an invertible coefficient.

    Exact invertible input required: every lex-smaller coefficient must be
    nilpotent.  This is the discrete component of the unit-group splitting.
    """
    require_exact((f,), "valuation")
    f.ring.requires_connected()
    if not f._terms:
        raise NotInvertibleError("the zero series is not invertible")
    for k in sorted(f._terms):
        c = f._terms[k]
        if c.is_invertible():
            return _decode(k, f.n)
        if not c.is_nilpotent():
            raise NotInvertibleError(
                f"coefficient {c} at {_decode(k, f.n)} is neither invertible nor nilpotent")
    raise NotInvertibleError("no invertible coefficient; not a unit")


def neg_part(f: LaurentElt):
    bias = _layout(f.n)[0]
    return LaurentElt(f.ring, f.n, {k: c for k, c in f._terms.items() if k < bias},
                      f.hi, f.floor)


class UnitDecomposition(Struct):
    """f = t^nu * c * v_plus * v_minus, the canonical unit-group splitting."""

    __slots__ = ("nu", "c", "v_plus", "v_minus")
    __hash__ = None

    def __init__(self, nu, c, v_plus, v_minus):
        self.nu = nu
        self.c = c
        self.v_plus = v_plus
        self.v_minus = v_minus

    def product(self):
        out = (self.v_plus * self.v_minus) * self.c
        return out.shift(self.nu)

    def to_json(self):
        return {"nu": list(self.nu), "c": str(self.c),
                "v_plus": self.v_plus.to_json(), "v_minus": self.v_minus.to_json()}


def _unit_split(f: LaurentElt):
    """``(nu, c, t^-nu * f)``: the split of :func:`coarse_split` before the
    division by ``c``, for callers that divide only when they read ``S``.
    ``S != 1`` exactly when ``t^-nu * f`` has more than one term."""
    nu = valuation(f)
    g = f.shift(tuple(-x for x in nu))
    return nu, g.constant_coefficient(), g


def coarse_split(f: LaurentElt):
    """f = t^nu * c * S with c the leading coefficient and S sharp, constant 1.

    This split is total on exact invertible input.  Inside the engine only
    the public ``forms.dlog`` forms ``S``; ``cc``, :func:`invert` and
    :func:`decompose` take ``g = t^-nu f`` from :func:`_unit_split` and
    never divide it by ``c``.  The finer lex-positive/lex-negative splitting
    lives in :func:`decompose`.
    """
    nu, c, g = _unit_split(f)
    return nu, c, g if c.is_one() else g * c.inverse()


_DIVISION_CAP = 20000


def _divide_neg_defect(d: LaurentElt, q: LaurentElt):
    """Largest delta with strictly negative support and delta * nonneg(q) = d
    up to a lex-nonnegative remainder; lex-minimum elimination.

    Every step clears the current lex-minimal term of the remainder and only
    introduces lex-greater ones, so the minimum climbs strictly; a remainder
    that keeps climbing below zero past the step cap signals a lex-negative
    factor with no polynomial description.
    """
    # the constant term of nonneg(q) clears r[lam] exactly; the others are lex-positive
    bias, guard = _layout(d.n)
    p_pos = [(k - bias, c) for k, c in q._terms.items() if k > bias]
    inv_cq = q.constant_coefficient().inverse()
    delta = {}
    r = dict(d._terms)
    for _ in range(_DIVISION_CAP):
        lam = min(r, default=None)
        if lam is None or lam >= bias:
            break
        coef = delta[lam] = r.pop(lam) * inv_cq
        for l, c in p_pos:
            m = lam + l
            if m & guard:
                _refuse_index_range()
            v = r.get(m, 0) - coef * c
            if v:
                r[m] = v
            else:
                r.pop(m, None)
    else:
        raise StabilityExhaustedError(
            "the lex-negative unit factor admits no polynomial description")
    return LaurentElt._make(d.ring, d.n, delta)


def decompose(f: LaurentElt) -> UnitDecomposition:
    """Split an exact invertible series into monomial, constant and unipotent parts.

    The lex-negative factor is peeled from ``g = t^-nu f`` by clearing the
    negative defect of ``q = g * v_minus^{-1}``, dividing it exactly by the
    nonnegative part; each pass pushes the defect twice as deep into the
    nilradical.  ``g`` is never divided by its constant: the lex-minimum
    elimination divides by the constant of ``q`` at every step, so a unit
    factor of ``q`` leaves ``delta`` as it is, and the constant of the last
    ``q`` is ``c``.  Inputs whose lex-negative factor is not a Laurent
    polynomial (possible once n >= 2) fail with a stability error rather
    than looping.
    """
    require_exact((f,), "decompose")
    nu, _, g = _unit_split(f)
    ring = f.ring
    unit = one(ring, f.n)
    v_minus = unit
    inv_v_minus = unit
    for _ in range(ring.nil_index.bit_length() + 3):
        q = g * inv_v_minus
        d = neg_part(q)
        if not d._terms:
            break
        delta = _divide_neg_defect(d, q)
        v_minus = v_minus * (unit + delta)
        inv_v_minus = inv_v_minus * invert(unit + delta)  # exact: delta is nilpotent
    else:
        raise InternalConsistencyError("lex-negative peeling did not terminate")
    c = q.constant_coefficient()
    if not c.is_invertible():
        raise InternalConsistencyError("constant of the nonnegative part is not a unit")
    return UnitDecomposition(nu, c, q * c.inverse(), v_minus)


# -- certified series expansion ------------------------------------------------------

def _generator_parts(g: LaurentElt):
    """Unit monomials, nilpotent monomials and expansion floor of a generator.

    The floor is a certified componentwise floor of every ``sum c_i g^i``,
    from ``g`` alone: unit monomials are componentwise nonnegative, so a term
    falls below zero in ``t_j`` only through a nonzero product of nilpotent
    coefficients whose exponents sum below zero; ``_nil_depth`` bounds how
    deep.  Nothing is expanded.  Raises for the generators no box window can
    expand, as the expansion itself would: ``NotSharpError`` unless ``g`` is
    additively sharp.
    """
    unit_idx, nil_idx, costs = [], [], {}
    bias = _layout(g.n)[0]
    for k, c in g._terms.items():
        l = _decode(k, g.n)
        if not c.is_nilpotent():
            if k <= bias:
                raise NotSharpError(f"expansion generator {g} is not additively sharp")
            unit_idx.append(l)
            continue
        nil_idx.append(l)
        if min(l) < 0:
            costs[l] = _nil_cost(g.ring, c)
    if g.hi is not None and any(x < 0 for x in g.floor):
        raise StabilityExhaustedError(
            "cannot expand over a windowed generator with negative support floor")
    if any(x < 0 for l in unit_idx for x in l):
        raise StabilityExhaustedError(
            "expansion generator has a unit coefficient in a mixed lex direction; "
            "its tail cannot be captured by any box window")
    floor = tuple(-_nil_depth(g.ring, [(-l[j], costs[l]) for l in costs if l[j] < 0])
                  for j in range(g.n))
    return unit_idx, nil_idx, floor


def _nil_cost(ring, c):
    """What a nilpotent ``c`` draws per factor on each budget of
    :func:`_nil_depth`: the least exponent of each nil generator over the
    monomials of ``c``, then their least nil degree.

    Both read the lowest-graded part of ``c`` only, so a unit factor ``u``
    leaves them as they are: reduction mod a nil generator (or mod the
    elements of positive nil degree) is a ring map onto the degree-0 part,
    so that part of ``u`` is a unit there, and multiplying by it is
    injective on each graded piece.  ``c * u`` and ``c`` thus have the same
    cost, and so a generator and its multiple by a unit the same floor.
    """
    nil = [ring._decode(k)[ring.nfree:] for k in c._mono]
    return ([min(e[k] for e in nil) for k in range(len(ring.nil_orders))]
            + [min(sum(e) for e in nil)])


def _nil_depth(ring, items):
    """Largest ``sum v`` over the nonzero products of nilpotent coefficients
    given as ``items``, pairs ``(v, cost)`` with ``v > 0`` and ``cost`` from
    :func:`_nil_cost` (repetition allowed).

    A nonzero product has at most ``nil_index - 1`` factors.  It also dies
    once the exponents of some nil generator add up to its order, or its nil
    degree passes the ring's cap: a budget that every factor draws on (at
    least its ``cost`` per factor) bounds the sum by ``budget * max(v / cost)``.
    """
    if not items:
        return 0
    best = (ring.nil_index - 1) * max(v for v, _ in items)
    budgets = [d - 1 for d in ring.nil_orders] + [ring._max_nildeg]
    for k, budget in enumerate(budgets):
        if all(cost[k] > 0 for _, cost in items):
            best = min(best, max(budget * v // cost[k] for v, cost in items))
    return best


def _expand_series(g: LaurentElt, coeff_at, hi, parts, band=None):
    """Sum of ``coeff_at(i) * g^i`` for i >= 0, certified on ``{tau <= hi}``.

    Non-nilpotent monomials of ``g`` must be lex-positive and componentwise
    nonnegative; their count inside any window is then bounded, nilpotent
    factors are bounded by the ring's nil index, and the partial products are
    evaluated on a padded work box that provably loses nothing below the
    ceiling.  The ceiling ``hi`` is an index tuple, or None for none: no
    expansion reads a window's ``lo``.  A generator with no unit coefficient
    terminates by nilpotency alone: without a ceiling its sum is exact,
    under one it is windowed with ``hi`` and the expansion floor.
    ``coeff_at(i)`` is a scalar or a ``Coef``; ``parts`` are
    ``_generator_parts(g)``, computed once by the caller.

    Under a ceiling, ``g^i`` is cut at the highest index from which the
    ``budget - i`` factors still to come can bring a term back to ``hi``:
    each lowers ``t_j`` by at most the deepest negative ``t_j`` exponent of
    a nilpotent term, and a nonzero product of them by at most the floor's
    depth, which the work box already allows.  ``c_i * g^i`` enters the sum
    only at ``<= hi``.  A windowed generator is accepted when its support
    floor is componentwise nonnegative (no unknown term can then re-enter
    the certified box); the result's ceiling shrinks to the generator's.

    With a ``band`` (only ``forms.certified_residues`` plans one), a windowed
    sum is also cut from below: ``g^i`` at the lowest index from which the
    factors still to come can bring a term back up to ``band`` (each raises
    ``t_j`` by at most the largest positive ``t_j`` exponent of a term of
    ``g``), and ``c_i * g^i`` enters the sum only on ``[band, hi]``.  Such a
    sum reads zero below the band, so it is no certified value outside its
    caller.  An exact sum stays unbanded.
    """
    ring = g.ring
    n = g.n
    bias, guard = _layout(n)
    unit_idx, nil_idx, work_lo = parts
    if g.hi is not None:
        hi = g.hi if hi is None else _min_idx(hi, g.hi)
    a_budget = ring.nil_index - 1
    terminating = not unit_idx and g.hi is None
    exact = terminating and hi is None
    if exact:
        budget, work_lo, band = a_budget, None, None
    elif hi is None:
        raise StabilityExhaustedError("infinite expansion requires a window")
    else:
        posnil = tuple(max((max(0, l[j]) for l in nil_idx), default=0) for j in range(n))
        posu = tuple(max((l[j] for l in unit_idx), default=0) for j in range(n))
        neg = tuple(max((max(0, -l[j]) for l in nil_idx), default=0) for j in range(n))
        pos = tuple(map(max, posnil, posu))
        # unit factors raise the index sum; without unit terms there are none
        b_budget = 0 if terminating else max(0, sum(hi) - sum(work_lo))
        budget = b_budget + a_budget
        work_hi = tuple(min(b_budget * posu[j] + a_budget * posnil[j], hi[j] - work_lo[j])
                        for j in range(n))
    if not terminating and budget > _EXPANSION_SANITY:
        raise StabilityExhaustedError(f"expansion budget {budget} exceeds the sanity bound")
    if band is not None:
        # the lower cut rises above work_lo once at most `near` factors are to come
        near = max((b - w - 1) // d if d else (budget if b > w else -1)
                   for w, b, d in zip(work_lo, band, pos))

    def scalar_at(i):
        c = coeff_at(i)
        return c if isinstance(c, Coef) else ring.from_scalar(c)

    g_den, g_flat = _flat(g._terms)
    acc_den, acc = 1, {}
    den, p = 1, {bias: [(ring._bias, 1)]}  # g^0
    # the boxes as packed bound keys (None: open side)
    top = None
    bottom = None if exact else _lo_key(work_lo)
    box = None if exact else _hi_key(hi)
    band_key = None if band is None else _lo_key(band)
    for i in range(budget + 1):
        if i:
            if not exact:
                top = _hi_key(_min_idx(work_hi, [h + (budget - i) * d for h, d in zip(hi, neg)]))
                if band is not None and budget - i <= near:
                    bottom = _lo_key(tuple(max(w, b - (budget - i) * d)
                                           for w, b, d in zip(work_lo, band, pos)))
            den, p = _carried(ring, _flat_product(ring, n, p, g_flat, top, bottom),
                              den * g_den)
            if not p:
                break
        s = scalar_at(i)
        if not s:
            continue
        # add s * p to acc over the lcm of their denominators; the numerators
        # of s are scaled to lcm / den, those of p are over den
        lcm = math.lcm(acc_den, s.den * den)
        if lcm != acc_den:
            f = lcm // acc_den
            for out in acc.values():
                for k in out:
                    out[k] *= f
            acc_den = lcm
        f = lcm // (s.den * den)
        xs = sorted((k, v * f) for k, v in s._mono.items())
        for k, xp in p.items():
            if exact or ((box - k) & guard == guard
                         and (band_key is None or ((k | guard) - band_key) & guard == guard)):
                mul_into(ring, acc.setdefault(k, {}), xp, xs)
    # every nilpotent product dies at the power nil_index
    if exact and _carried(ring, _flat_product(ring, n, p, g_flat, None, None), den * g_den)[1]:
        raise InternalConsistencyError(
            f"{g} survives the power {ring.nil_index}, the nil index of {ring}")
    return LaurentElt._make(ring, n, _coefs(ring, acc, acc_den), None if exact else hi,
                            work_lo)


class _Sharp:
    """The split record of a unit ``g = c + h`` with constant term ``c``:
    the one handle on its sharp part ``S = g / c``, which it never forms.

    ``c`` is a unit (for a log, up to a nilpotent).  The record names the
    two expansions of ``g`` the explicit formula reads, :meth:`log`
    (``log S``) and :meth:`inverse` (``1 / g``), both sums over the powers
    of ``h`` weighted by those of ``scale = c^-1``, computed on first read.
    ``S - 1`` is ``c^-1 h`` term by term, so both have the same support, the
    same unit and nilpotent terms and the same floor (``_nil_cost``):
    ``parts``, the ``_generator_parts`` of ``h``, plan ``S`` exactly.  The
    weights are chosen here, at construction: ``_Sharp(g, c)`` weights the
    powers of ``h``, ``_Sharp(S, 1)`` carries none.  ``symbol.cc`` makes one
    record per slot, from ``g = t^-nu f``, and hands it to the residues as
    ``Log(record)`` and ``Dlog(record)``; ``invert``, ``log_sharp``,
    ``forms.dlog`` and the residue planner make their own.
    """

    def __init__(self, g, c):
        self.g, self.c = g, c
        self.h = g - c
        self.parts = _generator_parts(self.h)

    @cached_property
    def scale(self):
        """``c^-1``, whose powers weight those of ``h``."""
        return self.c.inverse()

    def _weighted(self, coeff_at, shift):
        """``i -> coeff_at(i) * c^-(i + shift)``, each power of ``c^-1``
        formed once: the powers of ``h`` keep the small coefficients of
        ``g``, and each weight enters once, in the coefficient of its power."""
        if self.c.is_one():
            return coeff_at
        weights = [self.c.ring.one()]

        def weighted(i):
            while len(weights) <= i + shift:
                weights.append(weights[-1] * self.scale)
            return weights[i + shift] * coeff_at(i)

        return weighted

    def log(self, hi, band=None):
        """``log(g / c) = sum log_coefficient(i) * c^-i * h^i`` (see
        :func:`_expand_series`) up to the ceiling ``hi``: windowed under a
        ceiling, also where it terminates."""
        return _expand_series(self.h, self._weighted(log_coefficient, 0), hi,
                              self.parts, band)

    def inverse(self, hi, band=None):
        """``1 / g = sum (-1)^i * c^-(i + 1) * h^i`` up to the ceiling
        ``hi``: exact where it terminates by nilpotency, ceiling or not, so
        an exact ``h`` with no unit term is expanded with no ceiling."""
        if not self.parts[0] and self.h.hi is None:
            hi = None
        return _expand_series(self.h, self._weighted(geometric_coefficient, 1), hi,
                              self.parts, band)


def _ceiling(window):
    """The ceiling ``window.hi`` of a public expansion (None: no window)."""
    return None if window is None else tuple(window.hi)


def invert(f: LaurentElt, window: Window = None) -> LaurentElt:
    """Inverse of an exact invertible series, exact where possible.

    ``f = t^nu g``: the monomial factor inverts exactly, and ``1 / g`` is
    the inverse of ``g``'s split record, a geometric series exact whenever
    its generator is elementwise nilpotent, window or not, and otherwise
    under the certified window protocol.
    """
    nu, c, g = _unit_split(f)
    # a ceiling concerns the sharp part, whose monomial factor is 1
    hi = None if window is None else _add_idx(window.hi, nu)
    return _Sharp(g, c).inverse(hi).shift(tuple(-x for x in nu))


def log_sharp(f: LaurentElt, window: Window = None) -> LaurentElt:
    """``log f`` for multiplicatively sharp ``f``: ``sum_i log_coefficient(i) * (f - 1)^i``.

    Without a window the sum must terminate by nilpotency and is exact; with
    one it is certified up to ``window.hi``, above the expansion floor of
    ``f - 1``, also when it terminates.
    """
    if not f.ring.has_rationals():
        raise UnsupportedRingError("log needs rational coefficients")
    return _Sharp(f, f.ring.one()).log(_ceiling(window))


def exp_sharp(g: LaurentElt, window: Window = None) -> LaurentElt:
    if not g.ring.has_rationals():
        raise UnsupportedRingError("exp needs rational coefficients")
    return _expand_series(g, exp_coefficient, _ceiling(window), _generator_parts(g))


# -- the stability protocol -----------------------------------------------------------

def stable_coefficient(build, target):
    """Evaluate ``build(window)`` on growing windows until the target
    coefficient is certified, or fail loudly.

    ``build`` is called with the current window and must return a
    :class:`LaurentElt`.  The first window reaches at least 2, and one past
    the target, on each side.  A retry grows the ceiling by what the failed
    value's certificate lacks: a coordinate certified up to ``got_j`` below
    ``target_j`` grows from ``hi_j`` to ``max(2 * hi_j, hi_j + target_j -
    got_j)``, and its floor doubles; a coordinate already certified keeps its
    ceiling and its floor.  A ``build`` that raises ``WindowExceededError``
    itself leaves no certificate to read, and its whole window doubles.  No
    ceiling passes 64 times the first, no window is tried twice, and at most
    seven windows are tried.  Because every windowed value carries its own
    exactness certificate, a returned coefficient is provably correct; inputs
    whose expansions cannot converge in any box raise immediately.
    """
    target = tuple(target)
    lo = tuple(min(-2, t - 1) for t in target)
    hi = tuple(max(2, t + 1) for t in target)
    cap = tuple(64 * h for h in hi)
    tried = []
    for _ in range(7):
        window, value = Window(lo, hi), None
        try:
            value = build(window)
            return value.coefficient(target)
        except WindowExceededError as exc:
            last = exc
        if value is None:
            tried.append(f"hi={hi}")
            grown = [2 * h for h in hi]
        else:
            got = value.hi
            tried.append(f"hi={hi} certified to {got}")
            grown = [h if g >= t else max(2 * h, h + t - g)
                     for h, g, t in zip(hi, got, target)]
        grown = tuple(map(min, grown, cap))
        if grown == hi:
            break  # every coordinate that falls short is at the cap already
        # a ceiling may rest on the floor (a product's adds the other
        # factor's), so a coordinate that keeps its ceiling keeps its floor
        lo = tuple(x if g == h else 2 * x for x, g, h in zip(lo, grown, hi))
        hi = grown
    raise StabilityExhaustedError(
        f"no window up to {window.hi} certified the coefficient at {target} "
        f"({last.detail}); tried {', '.join(tried)}")


# -- serialization ---------------------------------------------------------------------

def series_from_json(ring: Ring, doc) -> LaurentElt:
    """A series document: ``n``, ``terms`` and an optional ``window``.

    A window is a request box, ``lo <= hi``, except for a series that lists
    no term: an engine-made floor may lie above the ceiling in some
    coordinate (``log_sharp(1 + t)`` certified up to ``t^-5`` has floor
    ``t^0``), and such a series reads back as written.
    """
    json_object(doc, "a series")
    try:
        n = json_int(doc["n"])
        pairs = [(tuple(json_int(x) for x in json_list(t["exp"], "exp")),
                  ring.parse_coef(t["coef"]))
                 for t in json_list(doc.get("terms", []), "terms")]
        window = doc.get("window")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad series document: {exc}") from exc
    win = None
    if window is not None:
        lo, hi = _box_from_json(window)
        _refuse_window_length(lo, hi, n)
        if not pairs:
            return LaurentElt(ring, n, {}, hi, lo)
        win = Window(lo, hi)
    return from_terms(ring, n, pairs, win)


def _box_from_json(doc):
    return tuple(json_int(x) for x in doc["lo"]), tuple(json_int(x) for x in doc["hi"])


def window_from_json(doc):
    return Window(*_box_from_json(doc))
