"""Witt vectors over divisor-closed index sets and the generalized Witt pairing.

Coordinates live either in a coefficient ring (plain Witt vectors) or in a
ring of iterated Laurent series (the pairing's right argument).  Addition is
computed through ghost coordinates ``w(i) = sum_{d|i} d w_d^{i/d}``; the
inverse passage divides by the index and certifies integrality, which over an
integral base is the classical integrality of Witt addition made executable.
Over Q a coordinate may carry a denominator, and the passage keeps it.  Over
Z/m an index need not be a unit, so addition, negation and the pairing lift
their coordinates to Z, compute there and reduce.

``witt_pair`` sends ``(f_1, ..., f_n | g]`` to the Witt vector over the
coefficient ring whose i-th ghost coordinate is
``res(g(i) dlog f_1 ^ ... ^ dlog f_n)``.
"""

from __future__ import annotations

import operator

from .coeff import Coef, Struct
from .errors import (
    InexactDivisionError,
    InternalConsistencyError,
    ParseError,
)
from .forms import Dlog, certified_residues
from .laurent import LaurentElt, monomial, require_exact

__all__ = [
    "IndexSet", "WittVector", "GhostVector", "ghost", "ghost_to_coords",
    "witt_add", "witt_neg", "upsilon", "witt_pair", "project",
]


def _divisors(i):
    return [d for d in range(1, i + 1) if i % d == 0]


class IndexSet(Struct):
    """A finite divisor-closed set of positive integers."""

    __slots__ = ("members",)

    def __init__(self, members: tuple):
        if members != tuple(sorted(set(members))) or any(i < 1 for i in members):
            raise ParseError(f"bad index set {members}")
        have = set(members)
        for i in members:
            for d in _divisors(i):
                if d not in have:
                    raise ParseError(f"{members} is not divisor-closed: {d} | {i} is missing")
        self.members = members

    @staticmethod
    def closure(seed):
        out = set()
        for i in seed:
            out.update(_divisors(i))
        return IndexSet(tuple(sorted(out)))

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, i):
        return i in self.members

    def __len__(self):
        return len(self.members)


class WittVector(Struct):
    __slots__ = ("S", "coords")
    __hash__ = None

    def __init__(self, S: IndexSet, coords: dict):
        if set(coords) != set(S.members):
            raise ParseError("coordinates do not match the index set")
        self.S = S
        self.coords = coords


class GhostVector(Struct):
    __slots__ = ("S", "ghost")
    __hash__ = None

    def __init__(self, S: IndexSet, ghost: dict):
        if set(ghost) != set(S.members):
            raise ParseError("ghost coordinates do not match the index set")
        self.S = S
        self.ghost = ghost


def _ghost_term(coords, powers, d, i):
    """``d * w_d^(i/d)``, each power of ``w_d`` carried in ``powers`` as the
    previous one times ``w_d``; ``d = 1`` is not scaled."""
    pw = powers.setdefault(d, [coords[d]])
    while len(pw) < i // d:
        pw.append(pw[-1] * coords[d])
    return pw[i // d - 1] if d == 1 else pw[i // d - 1] * d


def ghost(w: WittVector) -> GhostVector:
    powers = {}
    out = {}
    for i in w.S:
        acc = None
        for d in _divisors(i):
            term = _ghost_term(w.coords, powers, d, i)
            acc = term if acc is None else acc + term
        out[i] = acc
    return GhostVector(w.S, out)


def _divide(value, k):
    """value / k plus an integrality flag; Coef and series values."""
    if isinstance(value, Coef):
        return value.divide_by_int(k)
    if isinstance(value, LaurentElt):
        out = {}
        integral = True
        for key, c in value._terms.items():
            q, ok = c.divide_by_int(k)
            integral = integral and ok
            out[key] = q
        return LaurentElt._make(value.ring, value.n, out, value.hi, value.floor), integral
    raise ParseError(f"cannot divide {value!r}")


def ghost_to_coords(g: GhostVector):
    """Solve the triangular ghost system; returns (vector, all divisions integral).

    Over a base without rationals an inexact division raises; over the
    rationals the flag records whether the result needed new denominators.
    """
    coords, powers = {}, {}
    integral = True
    for i in sorted(g.S):
        acc = g.ghost[i]
        for d in _divisors(i):
            if d == i:
                continue
            acc = acc - _ghost_term(coords, powers, d, i)
        coords[i], ok = _divide(acc, i)
        integral = integral and ok
    return WittVector(g.S, coords), integral


def _integral_coords(S, ghosts, what):
    """Witt coordinates of ghost coordinates that ``what`` keeps integral
    over an integral base, where a division that is not exact raises."""
    try:
        return ghost_to_coords(GhostVector(S, ghosts))[0]
    except InexactDivisionError as exc:
        raise InternalConsistencyError(
            f"{what} produced a non-integral coordinate: {exc.detail}") from exc


def _through_Z(ring, op, *args):
    """``op(*args)`` computed over the lift of a modular ``ring`` to Z and
    reduced; each argument and the result is a Witt vector or a list of series."""
    lifted, lift, drop = ring.integer_lift()

    def move(x, to, fn):
        if isinstance(x, WittVector):
            return WittVector(x.S, {i: move(v, to, fn) for i, v in x.coords.items()})
        if isinstance(x, list):
            return [move(v, to, fn) for v in x]
        return fn(x) if isinstance(x, Coef) else x.map_coefficients(to, fn)

    return move(op(*(move(a, lifted, lift) for a in args)), ring, drop)


def _from_ghosts(what, op, *ws):
    """The Witt vector whose ghost coordinates are ``op`` of those of ``ws``;
    over a modular base it is computed over Z and reduced."""
    ring = next((x.ring for x in ws[0].coords.values()), None)
    if ring is not None and ring.base == "mod":
        return _through_Z(ring, lambda *vs: _from_ghosts(what, op, *vs), *ws)
    ghosts = [ghost(w).ghost for w in ws]
    return _integral_coords(ws[0].S, {i: op(*(g[i] for g in ghosts)) for i in ws[0].S}, what)


def witt_add(w: WittVector, v: WittVector) -> WittVector:
    if w.S != v.S:
        raise ParseError("index sets differ")
    return _from_ghosts("Witt addition", operator.add, w, v)


def witt_neg(w: WittVector) -> WittVector:
    return _from_ghosts("Witt negation", operator.neg, w)


def project(w: WittVector, sub: IndexSet) -> WittVector:
    if any(i not in w.S for i in sub):
        raise ParseError(f"{sub.members} is not a subset of {w.S.members}")
    return WittVector(sub, {i: w.coords[i] for i in sub})


def upsilon(w: WittVector, degree_bound=None) -> LaurentElt:
    """The product embedding w -> prod (1 - w_i x^i) into 1 + x A[[x]].

    Coordinates must be ring elements; the result is a polynomial in one
    variable x, truncated to ``degree_bound`` when given.
    """
    sample = w.coords[min(w.S)] if len(w.S) else None
    if sample is None or not isinstance(sample, Coef):
        raise ParseError("upsilon needs ring-valued coordinates")
    ring = sample.ring
    out = monomial(ring, 1, (0,))
    for i in sorted(w.S):
        out = out * (monomial(ring, 1, (0,)) - monomial(ring, 1, (i,), w.coords[i]))
    if degree_bound is not None:
        out = LaurentElt._make(ring, 1, out._terms, (degree_bound,), (0,))
    return out


def witt_pair(fs, g: WittVector):
    """The pairing (f_1, ..., f_n | g] as a Witt vector over the coefficients.

    The ``f_i`` must be exact; ``g`` has iterated-Laurent-series coordinates
    over the same ring, exact or windowed.  Ghost coordinates of the result
    are residues, read in one batch that expands each ``dlog f_i`` once;
    passage back to Witt coordinates must be integral over integral bases
    (lifting through the integers for modular ones), anything else is an
    internal fault.
    """
    fs = list(fs)
    if not fs:
        raise ParseError("the pairing needs at least one invertible series")
    ring, n = fs[0].ring, fs[0].n
    if len(fs) != n:
        raise ParseError(f"the pairing needs {n} series over {n} variables")
    require_exact(fs, "witt-pair")
    if ring.base == "mod":
        return _through_Z(ring, witt_pair, fs, g)

    gg = ghost(g)
    slots = [Dlog(f) for f in fs]
    residues = dict(zip(g.S, certified_residues([(gg.ghost[i], slots) for i in g.S])))
    return _integral_coords(g.S, residues, "Witt pairing")
