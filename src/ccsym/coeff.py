"""Exact arithmetic in coefficient rings ``Base[u_1,...,u_m][e_1,...,e_k]/(e_i^{d_i})``.

``Base`` is the integers, the rationals, or the integers mod ``m``.  Free
generators ``u_j`` are plain polynomial variables; nil generators ``e_i`` are
nilpotent of order ``d_i >= 2``.  Every element is stored in a canonical
sparse form (exponent vector -> base scalar, fully reduced), so equality is
structural.

Rationals are ``fractions.Fraction`` in lowest terms, modular scalars live in
``[0, m)``.  Rings are immutable; elements carry their ring and refuse mixed
arithmetic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InexactDivisionError,
    InternalConsistencyError,
    NotInvertibleError,
    ParseError,
    RingMismatchError,
    UnsupportedRingError,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class RingSpec:
    """Presentation of a coefficient ring.

    ``base`` is ``"Q"``, ``"Z"`` or a modulus ``m >= 2``.  ``nil_total_cap``
    additionally kills every monomial of total nil-generator degree above the
    cap; it is used to realize degree-truncated quotients (the instrumentation
    rings of the universal-series module).
    """

    base: object = "Q"
    free: tuple = ()
    nil: tuple = ()
    nil_total_cap: object = None

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
        try:
            base = doc.get("base", "Q")
            if isinstance(base, dict):
                base = base["mod"]
            if base not in ("Q", "Z"):
                base = json_int(base)
            free = tuple(doc.get("free", ()))
            nil = tuple((str(n), json_int(d)) for n, d in doc.get("nil", ()))
            cap = doc.get("nil_total_cap")
            cap = None if cap is None else json_int(cap)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad ring spec: {exc}") from exc
        return RingSpec(base=base, free=free, nil=nil, nil_total_cap=cap)


def json_int(value):
    """``int(value)`` for a request field, refusing what ``int`` would truncate:
    a JSON boolean or a non-integral number is a ``ParseError``."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ParseError(f"expected an integer, got {value!r}")
    return int(value)


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
    """Immutable handle for a coefficient ring, with cached structure data."""

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

    # -- scalar layer -------------------------------------------------------

    def scalar(self, value):
        if self.base == "Q":
            return Fraction(value)
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

    def scalar_inverse(self, s):
        if self.base == "Q":
            if s == 0:
                raise NotInvertibleError("0 is not invertible")
            return 1 / Fraction(s)
        if self.base == "Z":
            if s in (1, -1):
                return s
            raise NotInvertibleError(f"{s} is not invertible over Z")
        return self._scalar_inverse_mod(s)

    def requires_connected(self):
        """Nilpotence/valuation decisions need a connected spectrum."""
        if self.base == "mod" and self.mod_prime_power is None:
            raise UnsupportedRingError(
                f"Z/{self.modulus} is not connected (modulus is not a prime power); "
                "nilpotence and valuation are undecided here"
            )

    def has_rationals(self):
        return self.base == "Q"

    # -- element layer ------------------------------------------------------

    def compatible(self, other):
        if self is other or self.spec == other.spec:
            return
        raise RingMismatchError(f"ring mismatch: {self.spec} vs {other.spec}")

    def _nildeg(self, exps):
        return sum(exps[self.nfree:])

    def _reduce_terms(self, raw):
        out = {}
        for exps, s in raw.items():
            dead = False
            for j, d in enumerate(self.nil_orders):
                if exps[self.nfree + j] >= d:
                    dead = True
                    break
            if dead:
                continue
            if self.nil_total_cap is not None and self._nildeg(exps) > self.nil_total_cap:
                continue
            if self.base == "mod":
                s = s % self.modulus
            if s == 0:
                continue
            out[exps] = s
        return out

    def make(self, raw_terms):
        return Coef(self, self._reduce_terms(raw_terms))

    def zero(self):
        if self._zero is None:
            self._zero = Coef(self, {})
        return self._zero

    def one(self):
        if self._one is None:
            self._one = Coef(self, {(0,) * len(self.gens): self.scalar(1)})
        return self._one

    def from_scalar(self, value):
        s = self.scalar(value)
        if s == 0:
            return self.zero()
        return Coef(self, {(0,) * len(self.gens): s})

    def gen(self, name):
        try:
            i = self._gen_index[name]
        except KeyError:
            raise UnsupportedRingError(f"no generator named {name!r}") from None
        exps = tuple(1 if j == i else 0 for j in range(len(self.gens)))
        return Coef(self, {exps: self.scalar(1)})

    # -- derived rings ------------------------------------------------------

    def extended(self, extra_nil):
        """Adjoin further nil generators; returns (new ring, embedding)."""
        new = Ring(RingSpec(self.spec.base, self.spec.free,
                            self.spec.nil + tuple(extra_nil), self.spec.nil_total_cap))
        pad = (0,) * len(extra_nil)

        def embed(x):
            self.compatible(x.ring)
            return Coef(new, {exps + pad: s for exps, s in x.terms.items()})

        return new, embed

    def rationalized(self):
        """Same generators over Q; returns (new ring, embedding)."""
        if self.base == "Q":
            return self, lambda x: x
        if self.base == "mod":
            raise UnsupportedRingError("cannot embed a modular ring into a Q-algebra")
        new = Ring(RingSpec("Q", self.spec.free, self.spec.nil, self.spec.nil_total_cap))

        def embed(x):
            self.compatible(x.ring)
            return Coef(new, {exps: Fraction(s) for exps, s in x.terms.items()})

        return new, embed

    def integer_lift(self):
        """For a modular base: the same presentation over Z, with lift/reduce maps."""
        if self.base != "mod":
            raise UnsupportedRingError("integer_lift expects a modular base")
        new = Ring(RingSpec("Z", self.spec.free, self.spec.nil, self.spec.nil_total_cap))

        def lift(x):
            self.compatible(x.ring)
            return Coef(new, dict(x.terms))

        def reduce(x):
            new.compatible(x.ring)
            return self.make({exps: s for exps, s in x.terms.items()})

        return new, lift, reduce

    # -- parsing ------------------------------------------------------------

    def parse_scalar(self, text):
        text = text.strip()
        try:
            if self.base == "Q":
                return Fraction(text)
            return self.scalar(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar {text!r}: {exc}") from exc

    def parse_coef(self, text):
        """Inverse of ``str(coef)``; accepts e.g. ``"3/2*e^1*u^2 + 1"``."""
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
        return isinstance(other, Ring) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)


def ring_new(spec: RingSpec) -> Ring:
    return Ring(spec)


class Coef:
    """A canonical element of a :class:`Ring`.

    Terms map full exponent vectors (free generators first, then nil
    generators) to base scalars.  Instances are immutable; all operators
    return fresh canonical elements.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- basics -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Coef):
            self.ring.compatible(other.ring)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.from_scalar(other)
        return NotImplemented

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self == self.ring.one()

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.from_scalar(other)
        if not isinstance(other, Coef):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, s in other.terms.items():
            out[exps] = out.get(exps, 0) + s
        return self.ring.make(out)

    __radd__ = __add__

    def __neg__(self):
        return Coef(self.ring, {e: self.ring.scalar(-s) if self.ring.base == "mod" else -s
                                for e, s in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        cap = ring._max_nildeg
        mine = {}
        for e, s in self.terms.items():
            mine.setdefault(ring._nildeg(e), []).append((e, s))
        theirs = {}
        for e, s in other.terms.items():
            theirs.setdefault(ring._nildeg(e), []).append((e, s))
        out = {}
        for da, aterms in mine.items():
            for db, bterms in theirs.items():
                if da + db > cap:
                    continue
                for ea, sa in aterms:
                    for eb, sb in bterms:
                        key = tuple(x + y for x, y in zip(ea, eb))
                        out[key] = out.get(key, 0) + sa * sb
        return ring.make(out)

    __rmul__ = __mul__

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
        return self.terms.get((0,) * len(self.ring.gens), self.ring.scalar(0))

    def is_nilpotent(self):
        self.ring.requires_connected()
        nfree = self.ring.nfree
        for exps, s in self.terms.items():
            if any(exps[nfree + j] > 0 for j in range(len(self.ring.nil_orders))):
                continue
            if not self.ring.scalar_is_nilpotent(s):
                return False
        return True

    def nil_order(self):
        if not self.is_nilpotent():
            raise NotInvertibleError(f"{self} is not nilpotent")
        if self.is_zero():
            return 1
        p = self
        e = 1
        while p:
            p = p * self
            e += 1
            if e > self.ring.nil_index + 1:
                raise UnsupportedRingError("nilpotency order exceeds the ring's nil index")
        return e

    def is_invertible(self):
        ring = self.ring
        nfree = ring.nfree
        unit_constant = False
        for exps, s in self.terms.items():
            if any(exps[nfree + j] > 0 for j in range(len(ring.nil_orders))):
                continue
            if all(e == 0 for e in exps):
                if ring.scalar_is_unit(s):
                    unit_constant = True
                elif not ring.scalar_is_nilpotent(s):
                    return False
            elif not ring.scalar_is_nilpotent(s):
                return False
        return unit_constant

    def inverse(self):
        if not self.is_invertible():
            raise NotInvertibleError(f"{self} is not invertible")
        inv0 = self.ring.scalar_inverse(self.constant_scalar())
        return _nil_series(self.ring.one() - self * inv0, lambda i: 1) * inv0

    # -- exp / log -----------------------------------------------------------

    def exp(self):
        if not self.ring.has_rationals():
            raise UnsupportedRingError("exp needs a ring containing the rationals")
        if not self.is_nilpotent():
            raise NotInvertibleError("exp needs a nilpotent argument")
        return _nil_series(self, lambda i: Fraction(1, math.factorial(i)))

    def log(self):
        if not self.ring.has_rationals():
            raise UnsupportedRingError("log needs a ring containing the rationals")
        w = self - self.ring.one()
        if not w.is_nilpotent():
            raise NotInvertibleError("log needs an argument of the form 1 + nilpotent")
        return _nil_series(w, lambda i: Fraction((-1) ** (i + 1), i) if i else 0)

    def divide_by_int(self, k):
        """Return (self / k, integral) where ``integral`` records exactness
        without denominators.  Raises when the ring cannot hold the quotient."""
        if k == 0:
            raise ZeroDivisionError("division by zero")
        ring = self.ring
        if ring.base == "Q":
            integral = all(s.numerator % k == 0 for s in self.terms.values())
            return self * Fraction(1, k), integral
        if ring.base == "Z":
            if any(s % k for s in self.terms.values()):
                raise InexactDivisionError(f"{self} is not divisible by {k} over Z")
            return Coef(ring, {e: s // k for e, s in self.terms.items()}), True
        if math.gcd(k, ring.modulus) == 1:
            return self * ring.from_scalar(ring._scalar_inverse_mod(k)), True
        raise InexactDivisionError(f"cannot divide by {k} mod {ring.modulus}")

    # -- printing -------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            s = self.terms[exps]
            factors = [str(s)]
            for name, e in zip(self.ring.gens, exps):
                if e:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


def _nil_series(w, coef_at):
    """``sum coef_at(i) * w^i`` for a nilpotent ``w`` and base scalars ``coef_at(i)``.

    Every nilpotent element dies at the power ``nil_index``, so the sum has
    fewer terms than that; a ``w`` still alive there is an internal fault.
    Unit coefficients cost no product.
    """
    ring = w.ring
    acc = ring.from_scalar(coef_at(0))
    p = w
    for i in range(1, ring.nil_index):
        if not p:
            return acc
        c = coef_at(i)
        acc = acc + (p if c == 1 else p * c)
        p = p * w
    if p:
        raise InternalConsistencyError(
            f"{w} survives the power {ring.nil_index}, the nil index of {ring}")
    return acc
