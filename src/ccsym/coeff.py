"""Exact arithmetic in coefficient rings ``Base[u_1,...,u_m][e_1,...,e_k]/(e_i^{d_i})``.

``Base`` is the integers, the rationals, or the integers mod ``m``.  Free
generators ``u_j`` are plain polynomial variables; nil generators ``e_i`` are
nilpotent of order ``d_i >= 2``.  Rings are immutable; elements carry their
ring and refuse mixed arithmetic.

Every element has one canonical form, so equality is structural:

* **Monomials are packed ints.**  Each ring lays out, from its spec alone,
  one bit field per generator (free ones first) and one for the total nil
  degree on top.  A field that dies at ``d`` (``d_i`` for ``e_i``, one past
  the largest nil degree for the top field) holds its exponent plus a bias
  ``2**v - d`` below a guard bit ``2**v``.  Keys are stored biased, so the
  key of a product is ``ka + kb - bias``, and it is zero in the ring exactly
  when that sum has a guard bit set: some ``e_i`` reached ``d_i`` or the nil
  degree passed ``nil_total_cap``.  A free field has no bias; its guard
  marks an exponent of ``2**16`` or more, which in a monomial that is not
  zero raises ``UnsupportedRingError`` rather than wrapping into the next
  field.
* **Scalars are int numerators** over one positive denominator ``den`` per
  element, ``gcd(den, numerators) == 1``.  ``den`` is 1 except over Q, and
  scalars mod ``m`` lie in ``[0, m)``.
* **``Coef.terms`` is the tuple-keyed shape** ``{exponent tuple: scalar}``
  (``Fraction`` over Q, ``int`` otherwise), a read-only mapping decoded
  from ``_mono`` on each read and never stored; ``Ring.make`` accepts the
  same shape.  It is an edge for callers: the engine reads ``_mono`` only.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    InexactDivisionError,
    InternalConsistencyError,
    NotInvertibleError,
    ParseError,
    RingMismatchError,
    UnsupportedRingError,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_SCALAR_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")
_FREE_BITS = 16  # value bits of a free generator's field: exponents below 2**16


class Struct:
    """Base of the value classes whose fields are their ``__slots__``, in
    order: ``Name(field=value, ...)`` as ``repr``, and ``==`` and ``hash``
    over the tuple of fields, between instances of one class.  A class whose
    fields may be mutable objects sets ``__hash__ = None``."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the tuple of fields, for one field too (a dataclass hashes that
        # tuple); an attrgetter reads it about as fast as generated code
        get = operator.attrgetter(*cls.__slots__)
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"


class RingSpec(Struct):
    """Presentation of a coefficient ring.

    ``base`` is ``"Q"``, ``"Z"`` or a modulus ``m >= 2``.  ``nil_total_cap``
    additionally kills every monomial of total nil-generator degree above the
    cap; it is used to realize degree-truncated quotients (the instrumentation
    rings of the universal-series module).
    """

    __slots__ = ("base", "free", "nil", "nil_total_cap")

    def __init__(self, base="Q", free=(), nil=(), nil_total_cap=None):
        self.base = base
        self.free = free
        self.nil = nil
        self.nil_total_cap = nil_total_cap

    def to_json(self):
        if self.base in ("Q", "Z"):
            base = self.base
        else:
            base = {"mod": self.base}
        out = {"base": base, "free": list(self.free), "nil": [[n, d] for n, d in self.nil]}
        if self.nil_total_cap is not None:
            out["nil_total_cap"] = self.nil_total_cap
        return out

    @staticmethod
    def from_json(doc):
        json_object(doc, "the ring")
        try:
            base = doc.get("base", "Q")
            if isinstance(base, dict):
                base = base["mod"]
            if base not in ("Q", "Z"):
                base = json_int(base)
            free = doc.get("free", [])
            if not isinstance(free, list) or not all(isinstance(x, str) for x in free):
                raise ParseError("free must be a list of generator names")
            nil = []
            for item in json_list(doc.get("nil", []), "nil"):
                name, order = json_list(item, "a nil generator")
                if not isinstance(name, str):
                    raise ParseError(f"a nil generator name must be a string, got {name!r}")
                nil.append((name, json_int(order)))
            cap = doc.get("nil_total_cap")
            cap = None if cap is None else json_int(cap)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad ring spec: {exc}") from exc
        return RingSpec(base=base, free=tuple(free), nil=tuple(nil), nil_total_cap=cap)


def json_int(value):
    """``int(value)`` for a request field, refusing what ``int`` would truncate:
    a JSON boolean or a non-integral number is a ``ParseError``."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ParseError(f"expected an integer, got {value!r}")
    return int(value)


def json_object(doc, what):
    """``doc`` if it is a JSON object; otherwise a ``ParseError`` naming ``what``."""
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def json_list(doc, what):
    """``doc`` if it is a JSON array; otherwise a ``ParseError`` naming ``what``."""
    if not isinstance(doc, list):
        raise ParseError(f"{what} must be a JSON array, got {type(doc).__name__}")
    return doc


# Miller-Rabin with the first 13 prime bases is deterministic below this
# bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86 (2017)); larger moduli are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p):
    if p < 2 or any(p % q == 0 for q in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x != 1 and all(pow(x, 1 << r, p) != p - 1 for r in range(s)):
            return False
    return True


def _prime_power(m):
    """Return (p, e) when m = p**e with p prime, else None."""
    if m >= _MR_BOUND:
        raise UnsupportedRingError(
            f"modulus {m} exceeds the range where primality is decided ({_MR_BOUND})")
    for e in range(1, m.bit_length()):
        # below the bound a float e-th root (e >= 2) lies far within 1/2 of the exact one
        p = m if e == 1 else round(m ** (1.0 / e))
        if p ** e == m and _is_prime(p):
            return p, e
    return None


class Ring:
    """Immutable handle for a coefficient ring, with cached structure data.

    The ring also fixes how its elements pack monomials (see the module
    docstring); the layout depends on the spec alone, so rings with equal
    specs pack alike and their elements mix freely.
    """

    __slots__ = (
        "spec",
        "base",
        "modulus",
        "mod_prime_power",
        "gens",
        "nfree",
        "nil_orders",
        "nil_total_cap",
        "_gen_index",
        "_zero",
        "_one",
        "nil_index",
        "_max_nildeg",
        "_fields",
        "_shifts",
        "_bias",
        "_guard",
        "_nil_guard",
        "_tshift",
        "_tbias",
        "_top",
    )

    def __init__(self, spec: RingSpec):
        names = tuple(spec.free) + tuple(n for n, _ in spec.nil)
        if len(set(names)) != len(names):
            raise UnsupportedRingError("generator names must be pairwise distinct")
        for name in names:
            if not _NAME_RE.match(name):
                raise UnsupportedRingError(f"bad generator name {name!r}")
        for name, d in spec.nil:
            if d < 2:
                raise UnsupportedRingError(f"nil order of {name!r} must be >= 2, got {d}")
        if spec.nil_total_cap is not None and spec.nil_total_cap < 0:
            raise UnsupportedRingError(f"nil_total_cap must be >= 0, got {spec.nil_total_cap}")
        if spec.base in ("Q", "Z"):
            self.base = spec.base
            self.modulus = None
            self.mod_prime_power = None
        else:
            m = int(spec.base)
            if m < 2:
                raise UnsupportedRingError(f"modulus must be >= 2, got {m}")
            self.base = "mod"
            self.modulus = m
            self.mod_prime_power = _prime_power(m)
        self.spec = spec
        self.gens = names
        self.nfree = len(spec.free)
        self.nil_orders = tuple(d for _, d in spec.nil)
        self.nil_total_cap = spec.nil_total_cap
        self._gen_index = {n: i for i, n in enumerate(names)}
        self._zero = None
        self._one = None
        max_nildeg = sum(d - 1 for d in self.nil_orders)
        if self.nil_total_cap is not None:
            max_nildeg = min(max_nildeg, self.nil_total_cap)
        self._max_nildeg = max_nildeg
        # a nilpotent element dies at the power nil_index: nil degrees past the
        # cap vanish, and a nilpotent scalar mod m dies at the largest exponent
        # of a prime in m (at most log2(m) when m is no prime power)
        k = 1 + max_nildeg
        if self.base == "mod":
            k += (self.mod_prime_power or (0, self.modulus.bit_length() - 1))[1] - 1
        self.nil_index = k
        # The packed layout (module docstring), lowest bits first.  A field
        # that dies at d has v value bits, 2**v >= d: two live exponents plus
        # the bias stay below 2**(v + 1), so no carry crosses into the next.
        fields = []
        shift = bias = guard = 0
        for d in [None] * self.nfree + list(self.nil_orders) + [max_nildeg + 1]:
            v = _FREE_BITS if d is None else (d - 1).bit_length()
            b = 0 if d is None else (1 << v) - d
            fields.append((shift, (1 << v) - 1, b))
            bias += b << shift
            guard |= 1 << (shift + v)
            shift += v + 1
        self._tshift, _, self._tbias = fields.pop()
        # a key whose top field reaches _top - t meets one of top field t in a dead product
        self._top = max_nildeg + 2 * self._tbias + 1
        self._fields = tuple(fields)
        self._shifts = tuple(shift for shift, _, _ in fields)
        self._bias = bias
        self._guard = guard
        self._nil_guard = guard - sum(1 << (s + _FREE_BITS) for s in self._shifts[:self.nfree])

    # -- scalar layer -------------------------------------------------------

    def scalar(self, value):
        if self.base == "Q":
            return value if type(value) is Fraction else Fraction(value)
        if self.base == "Z":
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise UnsupportedRingError(f"{value} is not an integer")
                value = value.numerator
            return int(value)
        if isinstance(value, Fraction):
            if value.denominator == 1:
                value = value.numerator
            else:
                inv = self._scalar_inverse_mod(value.denominator)
                value = value.numerator * inv
        return int(value) % self.modulus

    def _scalar_inverse_mod(self, s):
        try:
            return pow(int(s), -1, self.modulus)
        except ValueError:
            raise NotInvertibleError(f"{s} is not invertible mod {self.modulus}") from None

    def scalar_is_unit(self, s):
        if self.base == "Q":
            return s != 0
        if self.base == "Z":
            return s in (1, -1)
        return math.gcd(s, self.modulus) == 1

    def scalar_is_nilpotent(self, s):
        if self.base == "mod":
            return pow(s, self.modulus.bit_length(), self.modulus) == 0
        return s == 0

    def requires_connected(self):
        """Nilpotence/valuation decisions need a connected spectrum."""
        if self.base == "mod" and self.mod_prime_power is None:
            raise UnsupportedRingError(
                f"Z/{self.modulus} is not connected (modulus is not a prime power); "
                "nilpotence and valuation are undecided here"
            )

    def has_rationals(self):
        return self.base == "Q"

    # -- packed monomials ---------------------------------------------------

    def _pack(self, exps):
        """The key of an exponent vector, or None when the monomial is zero here."""
        if len(exps) != len(self.gens) or min(exps, default=0) < 0:
            raise ParseError(f"bad exponent vector {exps!r} for the generators {self.gens}")
        nil = exps[self.nfree:]
        nildeg = sum(nil)
        if nildeg > self._max_nildeg or any(map(operator.ge, nil, self.nil_orders)):
            return None
        if self.nfree and max(exps[:self.nfree]) >> _FREE_BITS:
            raise UnsupportedRingError(
                f"free generator exponent in {exps!r} exceeds {(1 << _FREE_BITS) - 1}")
        return self._bias + (nildeg << self._tshift) + \
            sum(map(operator.lshift, exps, self._shifts))

    def _decode(self, key):
        """The exponent vector of a live key."""
        return tuple([((key >> s) & mask) - b for s, mask, b in self._fields])

    def _element(self, out, den):
        """The canonical element of packed numerators over ``den``: scalars
        reduced mod m, zeros dropped, ``den`` coprime to the numerators."""
        if self.modulus is not None:
            m = self.modulus
            return Coef(self, {k: r for k, v in out.items() if (r := v % m)})
        return _lowest_terms(self, {k: v for k, v in out.items() if v}, den)

    # -- element layer ------------------------------------------------------

    def compatible(self, other):
        if self is other or self.spec == other.spec:
            return
        raise RingMismatchError(f"ring mismatch: {self.spec} vs {other.spec}")

    def make(self, raw_terms):
        """The element ``sum s * x^exps`` of ``{exponent tuple: scalar}``."""
        out = {}
        for exps, s in raw_terms.items():
            key = self._pack(exps)
            if key is not None:
                out[key] = self.scalar(s)
        if self.base != "Q":
            return self._element(out, 1)
        den = math.lcm(*(s.denominator for s in out.values()))
        return self._element({k: s.numerator * (den // s.denominator)
                              for k, s in out.items()}, den)

    def zero(self):
        if self._zero is None:
            self._zero = Coef(self, {})
        return self._zero

    def one(self):
        if self._one is None:
            self._one = Coef(self, {self._bias: 1})
        return self._one

    def from_scalar(self, value):
        s = self.scalar(value)
        if s == 0:
            return self.zero()
        if self.base == "Q":
            return Coef(self, {self._bias: s.numerator}, s.denominator)
        return Coef(self, {self._bias: s})

    def gen(self, name):
        try:
            i = self._gen_index[name]
        except KeyError:
            raise UnsupportedRingError(f"no generator named {name!r}") from None
        key = self._bias + (1 << self._shifts[i])
        if i >= self.nfree:
            if self._max_nildeg < 1:
                return self.zero()
            key += 1 << self._tshift
        return Coef(self, {key: 1})

    # -- derived rings ------------------------------------------------------

    def extended(self, extra_nil):
        """Adjoin further nil generators; returns (new ring, embedding)."""
        return self._over(self.spec.base, extra_nil)

    # The layout ignores the base, so the maps below keep every key.

    def rationalized(self):
        """Same generators over Q; returns (new ring, embedding)."""
        if self.base == "Q":
            return self, lambda x: x
        if self.base == "mod":
            raise UnsupportedRingError("cannot embed a modular ring into a Q-algebra")
        return self._over("Q")

    def integer_lift(self):
        """For a modular base: the same presentation over Z, with lift/reduce maps."""
        if self.base != "mod":
            raise UnsupportedRingError("integer_lift expects a modular base")
        new, lift = self._over("Z")

        def reduce(x):
            new.compatible(x.ring)
            return self._element(x._mono, 1)

        return new, lift, reduce

    def _over(self, base, extra_nil=()):
        """This presentation over ``base`` with ``extra_nil`` adjoined, and the
        embedding; the layout ignores the base, so only adjoining moves keys."""
        new = Ring(RingSpec(base, self.spec.free, self.spec.nil + tuple(extra_nil),
                            self.spec.nil_total_cap))
        pad = (0,) * len(extra_nil)

        def embed(x):
            self.compatible(x.ring)
            if not pad:
                return Coef(new, x._mono, x.den)
            return Coef(new, {new._pack(self._decode(k) + pad): v for k, v in x._mono.items()},
                        x.den)

        return new, embed

    # -- parsing ------------------------------------------------------------

    def parse_scalar(self, text):
        """The scalar of ``text``, written as ``str(Coef)`` writes it: an
        integer or ``a/b``.  Anything else, exponent and decimal notation
        among it, is refused before any integer is built."""
        text = text.strip()
        if not _SCALAR_RE.match(text):
            raise ParseError(f"bad scalar {text!r}: expected an integer or a/b")
        try:
            if self.base == "Q":
                return Fraction(text)
            return self.scalar(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar {text!r}: {exc}") from exc

    def parse_coef(self, text):
        """Inverse of ``str(coef)``; accepts e.g. ``"3/2*e^1*u^2 + 1"``."""
        if not isinstance(text, str):
            raise ParseError(f"a coefficient must be a string, got {type(text).__name__}")
        text = text.strip()
        if not text:
            raise ParseError("empty coefficient string")
        if text == "0":
            return self.zero()
        raw = {}
        for part in text.split(" + "):
            factors = part.strip().split("*")
            if not factors[0]:
                raise ParseError(f"bad term {part!r}")
            head = factors[0].strip()
            if _NAME_RE.match(head.split("^")[0]) and head.split("^")[0] in self._gen_index:
                scalar = self.scalar(1)
                gen_parts = factors
            else:
                scalar = self.parse_scalar(head)
                gen_parts = factors[1:]
            exps = [0] * len(self.gens)
            for g in gen_parts:
                g = g.strip()
                if "^" in g:
                    name, _, e = g.partition("^")
                    exp = int(e)
                    if exp < 0:
                        raise ParseError(f"negative exponent in {g!r}: generators are "
                                         "polynomial, not Laurent")
                else:
                    name, exp = g, 1
                if name not in self._gen_index:
                    raise ParseError(f"unknown generator {name!r}")
                exps[self._gen_index[name]] += exp
            key = tuple(exps)
            raw[key] = raw.get(key, 0) + scalar
        return self.make(raw)

    def __repr__(self):
        base = {"Q": "Q", "Z": "Z"}.get(self.base, f"Z/{self.modulus}")
        gens = list(self.spec.free) + [f"{n}^{d}=0" for n, d in self.spec.nil]
        return f"Ring({base}{'; ' + ', '.join(gens) if gens else ''})"

    def __eq__(self, other):
        return self is other or (isinstance(other, Ring) and self.spec == other.spec)

    def __hash__(self):
        return hash(self.spec)


def ring_new(spec: RingSpec) -> Ring:
    return Ring(spec)


def _lowest_terms(ring, out, den):
    """``Coef(ring, out, den)`` with ``den`` made coprime to the numerators."""
    if den != 1:
        g = math.gcd(den, *out.values())
        if g != 1:
            den //= g
            out = {k: v // g for k, v in out.items()}
    return Coef(ring, out, den)


def _refuse_free_overflow(ring, key):
    """A product key with a nil guard bit set is zero in the ring; one with
    only a free generator's guard set has an exponent that does not fit."""
    if not key & ring._nil_guard:
        raise UnsupportedRingError(
            f"a free generator exponent exceeds {(1 << _FREE_BITS) - 1} in a product over {ring}")


def mul_into(ring, out, xa, xb):
    """Add the product of two packed elements into ``out`` (``{key: numerator}``).

    ``xa`` and ``xb`` are ``(key, numerator)`` pairs; the longer one (``xa``
    on a tie) must be sorted by key, and the caller keeps the denominator.
    The nil degree is the top field, so sorted keys ascend by degree: each
    pair of the shorter side meets only the prefix of the longer whose degree
    keeps the product within the ring's maximum.  Dead keys are dropped, free
    overflow refused, and ``out`` may keep zero numerators.
    """
    if len(xa) < len(xb):
        xa, xb = xb, xa
    tshift, bias, guard, top = ring._tshift, ring._bias, ring._guard, ring._top
    get = out.get
    for kb, sb in xb:
        cut = bisect_left(xa, ((top - (kb >> tshift)) << tshift,))
        kb -= bias
        for ka, sa in xa[:cut]:
            k = ka + kb
            if k & guard:
                _refuse_free_overflow(ring, k)
                continue
            out[k] = get(k, 0) + sa * sb


class Coef:
    """A canonical element of a :class:`Ring`.

    ``_mono`` maps packed monomial keys to nonzero int numerators over the
    positive denominator ``den`` (1 except over Q), with
    ``gcd(den, numerators) == 1`` and scalars mod m in ``[0, m)``; ``terms``
    decodes the same element into tuple keys on each read, for callers
    outside the engine.  Instances are immutable; all operators return fresh
    canonical elements.
    """

    __slots__ = ("ring", "_mono", "den")

    def __init__(self, ring, mono, den=1):
        self.ring = ring
        self._mono = mono
        self.den = den

    @property
    def terms(self):
        """Read-only ``{exponent tuple: scalar}`` (free generators first, then
        nil generators; ``Fraction`` over Q, ``int`` otherwise), in store
        order.  It is decoded from ``_mono`` on each read."""
        decode, scalar = self.ring._decode, self._scalar
        return MappingProxyType({decode(k): scalar(v) for k, v in self._mono.items()})

    def _scalar(self, v):
        return Fraction(v, self.den) if self.ring.base == "Q" else v

    # -- basics -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Coef):
            if other.ring is not self.ring:
                self.ring.compatible(other.ring)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.from_scalar(other)
        return NotImplemented

    def is_zero(self):
        return not self._mono

    def is_one(self):
        return self == self.ring.one()

    def __bool__(self):
        return bool(self._mono)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = self.ring.from_scalar(other)
            except (UnsupportedRingError, NotInvertibleError):
                return False  # a scalar the ring cannot hold equals none of its elements
        if not isinstance(other, Coef):
            return NotImplemented
        return self.ring == other.ring and self.den == other.den and self._mono == other._mono

    def __hash__(self):
        return hash((self.ring, self.den, frozenset(self._mono.items())))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        """A sum of live monomials is live: only scalars are reduced."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        a, b, den = self._mono, other._mono, self.den
        if other.den != den:
            lcm = math.lcm(den, other.den)
            fa, fb = lcm // den, lcm // other.den
            out = {k: v * fa for k, v in a.items()}
            b = {k: v * fb for k, v in b.items()}
            den = lcm
        else:
            if len(a) < len(b):
                a, b = b, a
            out = dict(a)
        get = out.get
        m = ring.modulus
        for k, v in b.items():
            s = get(k, 0) + v
            if m is not None and s >= m:
                s -= m
            if s:
                out[k] = s
            else:
                del out[k]
        return _lowest_terms(ring, out, den)

    __radd__ = __add__

    def __neg__(self):
        m = self.ring.modulus
        if m is None:
            return Coef(self.ring, {k: -v for k, v in self._mono.items()}, self.den)
        return Coef(self.ring, {k: m - v for k, v in self._mono.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Coef or other.ring is not self.ring:
            if isinstance(other, (int, Fraction)):
                return self._scaled(self.ring.scalar(other))
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._mono, other._mono
        if len(a) < len(b):
            a, b = b, a
        out = {}
        mul_into(self.ring, out, sorted(a.items()), b.items())
        return self.ring._element(out, self.den * other.den)

    __rmul__ = __mul__

    def _scaled(self, s):
        """``self`` times the ring scalar ``s`` (see :meth:`Ring.scalar`):
        the numerators are scaled, with no product kernel."""
        ring = self.ring
        if not s:
            return ring.zero()
        if s == 1:
            return self
        if ring.base == "Q":
            num, den = s.numerator, self.den * s.denominator
        else:
            num, den = s, 1
        return ring._element({k: v * num for k, v in self._mono.items()}, den)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure queries ---------------------------------------------------

    def constant_scalar(self):
        return self._scalar(self._mono.get(self.ring._bias, 0))

    def is_nilpotent(self):
        ring = self.ring
        ring.requires_connected()
        tshift, tbias = ring._tshift, ring._tbias
        # a term of positive nil degree is nilpotent; the others need a nilpotent scalar
        return all(ring.scalar_is_nilpotent(v) for k, v in self._mono.items()
                   if k >> tshift == tbias)

    def is_invertible(self):
        ring = self.ring
        tshift, tbias = ring._tshift, ring._tbias
        unit_constant = False
        for k, v in self._mono.items():
            if k >> tshift != tbias:
                continue
            if k == ring._bias and ring.scalar_is_unit(v):
                unit_constant = True
            elif not ring.scalar_is_nilpotent(v):
                return False
        return unit_constant

    def inverse(self):
        """The inverse of a unit ``(a0 + A) / D``, ``a0`` its constant numerator
        and ``A`` the nilpotent rest: ``sum (-1)^i * D / a0^(i + 1) * A^i``,
        summed by :func:`_nil_series` over the numerators of ``A`` (each
        weight is a ring scalar: ``a0^-1`` is the inverse mod m over Z/m)."""
        if not self.is_invertible():
            raise NotInvertibleError(f"{self} is not invertible")
        ring, bias = self.ring, self.ring._bias
        a0, den = self._mono[bias], self.den
        rest = Coef(ring, {k: v for k, v in self._mono.items() if k != bias})
        return _nil_series(rest, lambda i: ring.scalar(Fraction((-1) ** i * den, a0 ** (i + 1))))

    # -- exp / log -----------------------------------------------------------

    def exp(self):
        if not self.ring.has_rationals():
            raise UnsupportedRingError("exp needs a ring containing the rationals")
        if not self.is_nilpotent():
            raise NotInvertibleError("exp needs a nilpotent argument")
        return _nil_series(self, exp_coefficient)

    def log(self):
        if not self.ring.has_rationals():
            raise UnsupportedRingError("log needs a ring containing the rationals")
        w = self - self.ring.one()
        if not w.is_nilpotent():
            raise NotInvertibleError("log needs an argument of the form 1 + nilpotent")
        return _nil_series(w, log_coefficient)

    def divide_by_int(self, k):
        """Return (self / k, integral) where ``integral`` records exactness
        without denominators.  Raises when the ring cannot hold the quotient."""
        if k == 0:
            raise ZeroDivisionError("division by zero")
        ring = self.ring
        if ring.base == "Q":
            # each term's numerator in lowest terms must be divisible by k
            den = self.den
            integral = all(v // math.gcd(v, den) % k == 0 for v in self._mono.values())
            return self * Fraction(1, k), integral
        if ring.base == "Z":
            if any(v % k for v in self._mono.values()):
                raise InexactDivisionError(f"{self} is not divisible by {k} over Z")
            return Coef(ring, {key: v // k for key, v in self._mono.items()}), True
        if math.gcd(k, ring.modulus) == 1:
            return self * ring.from_scalar(ring._scalar_inverse_mod(k)), True
        raise InexactDivisionError(f"cannot divide by {k} mod {ring.modulus}")

    # -- printing -------------------------------------------------------------

    def __str__(self):
        if not self._mono:
            return "0"
        ring = self.ring
        decode, den = ring._decode, self.den
        terms = sorted(((decode(k), v) for k, v in self._mono.items()),
                       key=lambda t: (sum(t[0]), t[0]), reverse=True)
        parts = []
        for exps, v in terms:
            g = math.gcd(v, den)
            factors = [str(v // g) if g == den else f"{v // g}/{den // g}"]
            for name, e in zip(ring.gens, exps):
                if e:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


def geometric_coefficient(i):
    """The coefficient of ``w^i`` in ``(1 + w)^-1``."""
    return -1 if i % 2 else 1


def log_coefficient(i):
    """The coefficient of ``w^i`` in ``log(1 + w)``."""
    return Fraction((-1) ** (i + 1), i) if i else 0


def exp_coefficient(i):
    """The coefficient of ``w^i`` in ``exp(w)``."""
    return Fraction(1, math.factorial(i))


def _nil_series(w, coef_at):
    """``sum coef_at(i) * w^i`` for a nilpotent ``w`` and rational (over Z/m:
    integer) ``coef_at(i)``, in one pass over packed numerators.

    The pass carries ``w^i`` flat and sorted over ``w.den^i`` (reduced mod m
    over Z/m) and the sum over one running denominator, and builds one
    element at the end.  Keys ascend by nil degree, so ``w^i`` meets only the
    prefix of ``w`` whose degree stays within the ring's maximum beside the
    lowest degree of ``w^i``; one ``bisect`` finds it.  Every nilpotent
    element dies at the power ``nil_index``, so the sum has fewer terms than
    that; a ``w`` still alive there is an internal fault.
    """
    ring = w.ring
    tshift, top, m = ring._tshift, ring._top, ring.modulus
    c = coef_at(0)
    acc, den = {ring._bias: c.numerator}, c.denominator
    ws = sorted(w._mono.items())
    p, pden = ws, w.den
    for i in range(1, ring.nil_index):
        if not p:
            break
        c = coef_at(i)
        q = c.denominator * pden
        lcm = math.lcm(den, q)
        if lcm != den:
            f = lcm // den
            acc = {k: v * f for k, v in acc.items()}
            den = lcm
        s = c.numerator * (den // q)
        get = acc.get
        for k, v in p:
            acc[k] = get(k, 0) + v * s
        out = {}
        mul_into(ring, out, p, ws[:bisect_left(ws, ((top - (p[0][0] >> tshift)) << tshift,))])
        if m is None:
            p = sorted((k, v) for k, v in out.items() if v)
        else:
            p = sorted((k, r) for k, v in out.items() if (r := v % m))
        pden *= w.den
    if p:
        raise InternalConsistencyError(
            f"{w} survives the power {ring.nil_index}, the nil index of {ring}")
    return ring._element(acc, den)
