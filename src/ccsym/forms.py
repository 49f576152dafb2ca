"""Reduced differential forms over iterated Laurent series.

A degree-k form is a sparse map from strictly increasing index tuples
``(i_1 < ... < i_k)`` to series coefficients of ``dt_{i_1} ^ ... ^ dt_{i_k}``.
The module provides the de Rham differential, wedge products, ``dlog`` of an
invertible series, and the n-dimensional residue (the coefficient of
``t_1^-1 ... t_n^-1 dt_1 ^ ... ^ dt_n``), read either off a given form or,
through ``certified_residue``, off a wedge of ``log`` and ``dlog`` factors,
summand by summand.  A summand whose certified floors put it above the
residue is zero and is dropped unevaluated (a ``log`` has no constant term,
so its floor is its generator's wherever that is nonnegative).  Each other
summand is a chain of products that stops at the first partial product
holding no term, and a factor is expanded only when a chain reaches it:
once, on the band the residue reads, up to the ceiling the floors of the
other factors leave and down to the band floor their tops leave.  A banded
expansion is exact on its band only, so it stays inside
``certified_residues``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations

from .coeff import Ring, Struct, json_int, json_list, json_object
from .errors import (
    ParseError,
    RingMismatchError,
    StabilityExhaustedError,
    UnsupportedRingError,
)
from .laurent import (
    LaurentElt,
    Window,
    _Sharp,
    _add_idx,
    _ceiling,
    _le_idx,
    _min_idx,
    _sub_idx,
    _unit_split,
    _unit_vector,
    coarse_split,
    monomial,
    product_coefficient,
    series_from_json,
    zero,
)


class DiffForm:
    __slots__ = ("ring", "n", "degree", "comps")

    def __init__(self, ring, n, degree, comps):
        self.ring = ring
        self.n = n
        self.degree = degree
        self.comps = comps

    @staticmethod
    def _make(ring, n, degree, raw):
        comps = {idx: g for idx, g in raw.items() if g}
        return DiffForm(ring, n, degree, comps)

    @staticmethod
    def from_series(f: LaurentElt):
        return DiffForm._make(f.ring, f.n, 0, {(): f})

    def component(self, idx):
        idx = tuple(idx)
        return self.comps.get(idx, zero(self.ring, self.n))

    def _check(self, other):
        self.ring.compatible(other.ring)
        if self.n != other.n:
            raise RingMismatchError("variable count mismatch")

    def __add__(self, other):
        self._check(other)
        if self.degree != other.degree:
            raise RingMismatchError("cannot add forms of different degree")
        raw = dict(self.comps)
        for idx, g in other.comps.items():
            raw[idx] = raw[idx] + g if idx in raw else g
        return DiffForm._make(self.ring, self.n, self.degree, raw)

    def __neg__(self):
        return DiffForm(self.ring, self.n, self.degree,
                        {idx: -g for idx, g in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f):
        """Multiply by a series or coefficient (the module structure)."""
        return DiffForm._make(self.ring, self.n, self.degree,
                              {idx: g * f for idx, g in self.comps.items()})

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        return (self.ring == other.ring and self.n == other.n
                and self.degree == other.degree and self.comps == other.comps)

    def __str__(self):
        if not self.comps:
            return "0"
        parts = []
        for idx in sorted(self.comps):
            basis = "^".join(f"dt{i}" for i in idx) or "1"
            parts.append(f"({self.comps[idx]}) {basis}")
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self):
        return {"degree": self.degree,
                "components": [{"dt": list(idx), "series": g.to_json()}
                               for idx, g in sorted(self.comps.items())]}


def _merge_sign(a, b):
    """Shuffle sign merging two strictly increasing tuples; None on overlap."""
    if set(a) & set(b):
        return None, None
    sign = 0
    for x in a:
        sign += sum(1 for y in b if y < x)
    return (-1) ** sign, tuple(sorted(a + b))


def d(omega) -> DiffForm:
    """Exterior derivative; accepts a series (degree 0) or a form."""
    if isinstance(omega, LaurentElt):
        omega = DiffForm.from_series(omega)
    if omega.degree >= omega.n:
        raise ParseError(f"d on a degree-{omega.degree} form over {omega.n} variables")
    raw = {}
    for idx, g in omega.comps.items():
        for i in range(1, omega.n + 1):
            sign, merged = _merge_sign((i,), idx)
            if sign is None:
                continue
            part = g.partial(i)
            if not part:
                continue
            term = part if sign == 1 else -part
            raw[merged] = raw[merged] + term if merged in raw else term
    return DiffForm._make(omega.ring, omega.n, omega.degree + 1, raw)


def wedge(w1, w2) -> DiffForm:
    if isinstance(w1, LaurentElt):
        w1 = DiffForm.from_series(w1)
    if isinstance(w2, LaurentElt):
        w2 = DiffForm.from_series(w2)
    w1._check(w2)
    if w1.degree + w2.degree > w1.n:
        raise ParseError("wedge degree exceeds the number of variables")
    raw = {}
    for ia, ga in w1.comps.items():
        for ib, gb in w2.comps.items():
            sign, merged = _merge_sign(ia, ib)
            if sign is None:
                continue
            g = ga * gb
            if sign == -1:
                g = -g
            raw[merged] = raw[merged] + g if merged in raw else g
    return DiffForm._make(w1.ring, w1.n, w1.degree + w2.degree, raw)


def dlog_monomial(ring, n, nu) -> DiffForm:
    """The exact 1-form ``sum_j nu_j dt_j / t_j``: dlog of the monomial ``t^nu``."""
    return DiffForm._make(ring, n, 1, {
        (j,): monomial(ring, n, _unit_vector(n, j, -1), nu[j - 1])
        for j in range(1, n + 1) if nu[j - 1]})


def dlog(f: LaurentElt, window: Window = None) -> DiffForm:
    """d(f)/f as a degree-1 form, computed factorwise on the unit splitting.

    The monomial factor contributes the exact ``nu_j dt_j / t_j``; the
    constant drops out; the sharp factor ``S = 1 + h`` contributes
    ``d(h) * S^{-1}``, its inverse certified up to ``window.hi`` (exact when
    it terminates by nilpotency).  ``S`` is formed here, so its record is
    ``_Sharp(S, 1)``: no weights.
    """
    nu, _, s = coarse_split(f)
    out = dlog_monomial(f.ring, f.n, nu)
    if s != 1:
        sharp = _Sharp(s, f.ring.one())
        out = out + d(sharp.h).scale(sharp.inverse(_ceiling(window)))
    return out


def res(omega: DiffForm):
    """Residue of a top-degree form: the coefficient at (-1, ..., -1).

    On windowed components this reads a certified coefficient and raises a
    window error when the trust region does not cover the corner;
    ``certified_residue`` derives windows that do.
    """
    if omega.degree != omega.n:
        raise ParseError(f"residue needs a degree-{omega.n} form, got degree {omega.degree}")
    top = omega.comps.get(tuple(range(1, omega.n + 1)))
    if top is None:
        return omega.ring.zero()
    return top.coefficient((-1,) * omega.n)


# -- target-driven residues ------------------------------------------------------

class Log(Struct):
    """The 0-form ``log s`` of a multiplicatively sharp series ``s``, or,
    given a split record (``laurent._Sharp``), ``log S`` of its sharp part
    ``S = g / c``, which is never formed.  Equal only to itself."""

    __slots__ = ("s",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, s: LaurentElt | _Sharp):
        self.s = s


class Dlog(Struct):
    """The 1-form ``dlog f`` of an invertible series ``f``, or, given a split
    record (``laurent._Sharp``), ``dlog S = dlog g`` of its sharp part.
    Equal only to itself."""

    __slots__ = ("f",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, f: LaurentElt | _Sharp):
        self.f = f


def _max_idx(l, m):
    return m if l is None else tuple(map(max, l, m))


def _log_floor(g, low):
    """A floor of ``log(1 + g)`` at or above ``low``, the expansion floor of
    ``g``.  ``log`` has no constant term, so in a coordinate where every term
    of ``g`` (and, for a windowed ``g``, its floor) lies at ``m >= 0``, so does
    every ``g^i`` with ``i >= 1``: the floor there is ``m``, not 0."""
    m = g.support_lo()
    if g.hi is not None:
        m = _min_idx(m, g.floor) if m is not None else g.floor
    if m is None:
        return low
    return tuple(x if x >= 0 else lo for x, lo in zip(m, low))


def _sign(perm):
    """The sign of a permutation, by its inversions."""
    odd = sum(1 for i, x in enumerate(perm) for y in perm[i + 1:] if y < x) % 2
    return -1 if odd else 1


class _Factor:
    """One factor of a residue, described before anything is expanded.

    Each component ``idx`` (``()`` of a 0-form, ``(i,)`` for ``dt_i``) is a
    given part, ``given[idx]``, plus, where the factor's expansion sits
    (``idx in inner``), an exact multiplier times that expansion.  A series
    or form is all given parts; a ``Log`` is ``log S`` times 1; a ``Dlog`` is
    given the ``nu_j dt_j / t_j`` of :func:`dlog_monomial` and holds ``1 / g``
    times ``d_j h`` at each ``dt_j``.  The expansion is planned off the split
    record ``sharp`` (``laurent._Sharp``), whose ``expand`` (its ``log`` or
    ``inverse``) computes it in :attr:`form`: the record a ``Log`` or
    ``Dlog`` holds, ``_Sharp(s, 1)`` of a ``Log(s)``'s series, or the record
    of the ``t^-nu f`` a ``Dlog(f)`` splits off (none when its sharp part is
    1).  ``low`` is the expansion's floor (for a log, the tighter
    :func:`_log_floor`), and ``windowed`` whether it is windowed (and so cut
    at its band) or exact.  ``inner`` maps each component holding it to the
    floor and the top of the multiplier there; ``need`` gathers the ceiling
    it must reach and ``band`` the lowest index a read of it reaches.
    ``floors`` maps each nonzero component to its certified floor; ``his``
    are the ceilings of the windowed given parts.
    """

    def __init__(self, x):
        self.source, self.need, self.band, self.low, self.windowed = x, None, None, None, False
        given, inner, sharp = {}, {}, None
        if isinstance(x, Log):
            sharp = x.s if isinstance(x.s, _Sharp) else _Sharp(x.s, x.s.ring.one())
            of, self.degree, self.expand, self.windowed = sharp.g, 0, sharp.log, True
            self.low = _log_floor(sharp.h, sharp.parts[2])
            inner[()] = ((0,) * of.n,) * 2
        elif isinstance(x, Dlog):
            sharp, self.degree = x.f, 1
            if isinstance(sharp, _Sharp):
                of = sharp.g  # g = t^-nu f: valuation 0
            else:
                nu, c, of = _unit_split(sharp)  # split once, never divided by c
                given = dlog_monomial(of.ring, of.n, nu).comps
                sharp = _Sharp(of, c) if len(of._terms) > 1 else None  # S != 1
            if sharp is not None:
                unit, nil, self.low = sharp.parts
                self.expand, self.windowed = sharp.inverse, bool(unit)  # else it terminates
                for j in range(1, of.n + 1):  # the support of d_j h, off the terms of h
                    e = _unit_vector(of.n, j)
                    support = [_sub_idx(l, e) for l in unit + nil if l[j - 1]]
                    if support:
                        coords = list(zip(*support))
                        inner[(j,)] = (tuple(map(min, coords)), tuple(map(max, coords)))
        else:
            of = DiffForm.from_series(x) if isinstance(x, LaurentElt) else x
            self.degree, given = of.degree, of.comps
        self.ring, self.n, self.sharp, self.given, self.inner = of.ring, of.n, sharp, given, inner
        self.floors = {idx: part._floor() or (0,) * self.n for idx, part in given.items()}
        self.his = {idx: part.hi for idx, part in given.items() if part.hi is not None}
        for idx, (lo, _) in inner.items():
            lo = _add_idx(lo, self.low)
            self.floors[idx] = _min_idx(self.floors.get(idx, lo), lo)

    @property
    def ceiling(self):
        return self.need or self.low

    @cached_property
    def tops(self):
        """The top of each component's stored terms, read once ``need`` is
        fixed: that of its given part (the ceiling of a windowed one, else
        its support maximum), and where the expansion sits, the top of the
        multiplier plus the expansion's own.  That is its ceiling when it is
        windowed.  An inverse that terminates by nilpotency is exact, a sum
        of products of nilpotent terms; it enters only multiplied by
        ``d_j h``, whose coefficients are nilpotent too, so at most
        ``nil_index - 2`` of them survive."""
        tops = {idx: part.hi if part.hi is not None else part._support(max)
                for idx, part in self.given.items()}
        if self.inner:
            depth = self.ring.nil_index - 2  # a nilpotent term of h exists: nil_index >= 2
            reach = self.ceiling if self.windowed else tuple(
                depth * max((max(0, l[j]) for l in self.sharp.parts[1]), default=0)
                for j in range(self.n))
            for idx, (_, top) in self.inner.items():
                tops[idx] = _max_idx(tops.get(idx), _add_idx(top, reach))
        return tops

    @cached_property
    def form(self):
        """The factor as a form: each given part plus, where the expansion
        sits, the multiplier times the expansion, which the record computes
        from ``h`` up to its ceiling and banded: exact from ``band`` up only,
        so it never leaves here.  A windowed expansion carries the floor the
        planner read.  ``d_j h`` is formed here only."""
        comps = dict(self.given)
        if self.sharp is not None:
            band = self.band  # the expansion holds nothing below its floor: no cut there
            e = self.expand(self.ceiling, None if band and _le_idx(band, self.low) else band)
            if e.hi is not None:
                e = LaurentElt(self.ring, self.n, e._terms, e.hi, self.low)
            for idx in self.inner:  # the multiplier: 1 at (), d_j h at dt_j
                term = self.sharp.h.partial(*idx) * e if idx else e
                comps[idx] = comps[idx] + term if idx in comps else term
        return DiffForm._make(self.ring, self.n, self.degree, comps)


def _partial(chain, products):
    """The product of the components a chain of ``(factor, idx)`` names, in
    the direction the batch reads its chains, or None once a prefix of it
    holds no stored term; each prefix's product is formed once per batch, in
    ``products`` under that oriented prefix, and a factor is evaluated only
    when a prefix that holds a term reaches it."""
    p = None
    for k in range(1, len(chain) + 1):
        key = chain[:k]
        if key not in products:
            f, idx = chain[k - 1]
            b = f.form.comps.get(idx)
            if b is not None and k > 1:
                b = p * b
            products[key] = b if b is not None and b._terms else None
        p = products[key]
        if p is None:
            return None
    return p


def certified_residues(terms):
    """``res(g ^ w_1 ^ ... ^ w_n)`` for each ``(g, [w_1, ..., w_n])`` of a batch.

    ``g`` is a series or a ``Log``, each ``w_k`` a 1-form or a ``Dlog``.
    Series and forms are taken as given, exact or windowed; each ``Log`` and
    ``Dlog`` is expanded at most once for the whole batch (factors are shared
    by identity), on the band the target ``(-1, ..., -1)`` reads, by its
    split record (``laurent._Sharp``): the one it holds, as ``symbol.cc``
    hands each slot over, or one made for its series, which plans the factor
    and expands it from ``h = g - c``.  The residue is a signed sum of summands, one
    per permutation ``p`` of the components:
    ``sign(p) * [g * w_1[p_1] * ... * w_n[p_n]]`` at the target.

    1. floors: each factor's certified floor, from its generator alone; a
       log has no constant term, so its floor is its generator's where that
       is nonnegative.  A summand whose floors add up above the target in
       some coordinate is zero: it is dropped, and sets nothing below;
    2. ceilings: an expansion must reach the target minus the floors of the
       other factors, in every live summand it enters;
    3. bands: with every ceiling fixed, each component has a top (that of
       its given part, or the top of the multiplier plus the expansion's),
       and an expansion is read no lower than the target minus the tops of
       the other factors and of its multiplier, in every live summand it
       enters;
    4. lazy chains: each live summand is a chain of its components, multiplied
       prefix by prefix, each prefix once per batch, and read at the target
       only against its last factor; a chain stops at a prefix that holds no
       stored term, and a factor's expansion, at its own ceiling and a
       windowed one cut below its band, is evaluated only when a chain
       reaches it.  The batch reads every chain in the direction that forms
       fewer distinct prefixes, from the log component on a tie: the
       residues of one Witt pairing share their ``dlog`` end and run from
       there, forming each product of ``dlog`` components once for all.

    Below its band an expansion reads zero where its true coefficients are
    not, but no live summand can reach there; such a value lives only inside
    this routine.  The direction changes no value: a product's ceiling is at
    least ``min_k (hi_k + sum_{j != k} floor_j)`` however it is associated,
    so the target stays certified, and a term cut below its band meets the
    target in no association.  The ceilings cover the target by
    construction, so nothing is retried.  A windowed input that cannot reach
    the target raises ``StabilityExhaustedError`` before anything is
    expanded, in a dropped summand as in a live one.
    """
    factors, plans = {}, []
    for g, slots in terms:
        n = len(slots)
        target = (-1,) * n
        chosen = []
        for x, degree in [(g, 0)] + [(w, 1) for w in slots]:
            if id(x) not in factors:
                factors[id(x)] = _Factor(x)
            if factors[id(x)].degree != degree:
                raise ParseError(f"a residue factor of degree {factors[id(x)].degree} "
                                 f"where {degree} is due")
            chosen.append(factors[id(x)])
        if not slots or any(f.n != n for f in chosen):
            raise ParseError(f"a residue over {chosen[0].n} variables takes as many 1-forms")
        summands, reached = [], False
        for perm in permutations(range(1, n + 1)):
            idxs = [()] + [(i,) for i in perm]
            floors = [f.floors.get(idx) for f, idx in zip(chosen, idxs)]
            if None in floors:
                continue
            reached = True
            total = _sub_idx(target, map(sum, zip(*floors)))
            live = min(total) >= 0  # else the floors alone put the product above the target
            for f, idx, fl in zip(chosen, idxs, floors):
                need = _add_idx(total, fl)  # the target minus the other factors' floors
                if live and idx in f.inner:
                    f.need = _max_idx(f.need, _sub_idx(need, f.inner[idx][0]))
                if idx in f.his and not _le_idx(need, f.his[idx]):
                    raise StabilityExhaustedError(
                        f"a windowed factor certified up to {f.his[idx]} cannot reach "
                        f"the residue at {target}")
            if live:
                summands.append((_sign(perm), tuple(zip(chosen, idxs))))
        plans.append((chosen, summands, reached))

    for chosen, summands, _ in plans:
        if not any(f.windowed for f in chosen):
            continue
        target = (-1,) * chosen[0].n
        for _, chain in summands:
            tops = [f.tops[idx] for f, idx in chain]
            total = _sub_idx(target, map(sum, zip(*tops)))
            for (f, idx), top in zip(chain, tops):
                if f.windowed and idx in f.inner:
                    # the target minus the tops of the other factors and of
                    # what multiplies the expansion inside
                    band = _sub_idx(_add_idx(total, top), f.inner[idx][1])
                    f.band = band if f.band is None else _min_idx(f.band, band)

    def formed(step):  # the distinct products the chains form, read in that direction
        return len({chain[::step][:k] for _, summands, _ in plans
                    for _, chain in summands for k in range(2, len(chain))})

    step = 1 if formed(1) <= formed(-1) else -1
    out, products = [], {}
    for chosen, summands, reached in plans:
        ring = chosen[0].ring
        if reached and isinstance(chosen[0].source, Log) and not ring.has_rationals():
            raise UnsupportedRingError("log needs rational coefficients")
        target = (-1,) * chosen[0].n
        acc = ring.zero()
        for sign, chain in summands:
            chain = chain[::step]
            a = _partial(chain[:-1], products)
            if a is None:
                continue  # a zero: the last factor is evaluated only for a term
            f, idx = chain[-1]
            b = f.form.comps.get(idx)
            if b is not None:
                c = product_coefficient(a, b, target)
                acc = acc + c if sign == 1 else acc - c
        out.append(acc)
    return out


def certified_residue(g, slots):
    """``res(g ^ w_1 ^ ... ^ w_n)``; see :func:`certified_residues`."""
    return certified_residues([(g, slots)])[0]


def form_from_json(ring: Ring, n: int, doc) -> DiffForm:
    json_object(doc, "the form")
    try:
        degree = json_int(doc["degree"])
        comps = {}
        for item in json_list(doc.get("components", []), "components"):
            idx = tuple(json_int(i) for i in json_list(item["dt"], "dt"))
            if list(idx) != sorted(set(idx)) or any(not 1 <= i <= n for i in idx):
                raise ParseError(f"bad basis tuple {idx}")
            if len(idx) != degree:
                raise ParseError(f"basis tuple {idx} does not match degree {degree}")
            comps[idx] = series_from_json(ring, item["series"])
            if comps[idx].n != n:
                raise ParseError(f"component {idx} is a series in {comps[idx].n} "
                                 f"variables; the form has n = {n}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad form document: {exc}") from exc
    return DiffForm._make(ring, n, degree, comps)
