"""The explicit higher Contou-Carrere symbol and its relatives.

``cc`` evaluates the (n+1)-ary symbol on invertible iterated Laurent series
by splitting every slot as ``f = t^nu * c * S`` and combining three kinds of
elementary values:

* all slots monomial: a sign ``(-1)^sgn(l_1,...,l_{n+1})``;
* one slot a constant unit ``c``, the rest monomial: ``c^det(nu(...))``;
* a sharp slot present: ``exp res(log(f) dlog(g_2) ^ ... ^ dlog(g_{n+1}))``,
  with the residues read by ``forms.certified_residues`` (each log and
  inverse expanded once, up to the ceiling the residue needs) and checked
  nilpotent before exponentiating.

Each slot is split once, to ``nu``, ``c`` and ``g = t^-nu * f``.  The sharp
factor ``S = g * c^-1`` is never formed: a slot that some exp-res subset
reads gets one split record (``laurent._Sharp``: ``g``, ``c``, ``h = g - c``
and the generator parts of ``h``), and goes to the residues as
``Log(record)`` and ``Dlog(record)``, so the planner splits no slot again;
the record expands ``log S`` and ``1 / g`` from ``h`` with the weights
``c^-i``.  ``c^-1`` is computed at most once per slot, on its record, and
only where a negative constant-slot exponent or an expansion's weight reads
it.

The sign map comes in the Vostokov--Fesenko determinant form and the
Khovanskii product form; the additive symbol is the determinant of the
valuation vectors; the tame symbol is the classical one-dimensional closed
form over a field.
"""

from __future__ import annotations

import math

from .coeff import Coef
from .errors import InternalConsistencyError, ParseError, UnsupportedRingError
from .forms import Dlog, Log, certified_residue, certified_residues, d, dlog_monomial
from .laurent import LaurentElt, _Sharp, _unit_split, one, require_exact, valuation


# -- integer linear algebra ----------------------------------------------------

def det_int(vectors):
    """Exact determinant of a square integer matrix given as a list of vectors."""
    m = [list(v) for v in vectors]
    size = len(m)
    if any(len(r) != size for r in m):
        raise ParseError("determinant needs a square matrix")
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


def _check_sgn_args(vectors):
    vectors = [tuple(v) for v in vectors]
    n = len(vectors[0]) if vectors else 0
    if len(vectors) != n + 1 or any(len(v) != n for v in vectors):
        raise ParseError(f"sgn needs n+1 vectors in Z^n, got {vectors}")
    return vectors, n


def sgn_vf(*vectors):
    """Vostokov--Fesenko form: sum of determinants with a product column."""
    vectors, n = _check_sgn_args(vectors)
    total = 0
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            rest = [vectors[k] for k in range(n + 1) if k != i and k != j]
            prod_col = tuple(a * b for a, b in zip(vectors[i], vectors[j]))
            total += det_int(rest + [prod_col])
    return total % 2


def sgn_kh(*vectors):
    """Khovanskii form: dets with one vector omitted, summed and multiplied."""
    vectors, n = _check_sgn_args(vectors)
    dets = []
    for i in range(n + 1):
        dets.append(det_int([vectors[k] for k in range(n + 1) if k != i]) % 2)
    total = 1 + sum(dets)
    prod = 1
    for dt in dets:
        prod *= 1 + dt
    return (total + prod) % 2


# -- additive symbol --------------------------------------------------------------

def additive_symbol(entries):
    """det(nu(f_1), ..., nu(f_n)) for n invertible series in n variables."""
    entries = list(entries)
    if not entries:
        raise ParseError("additive symbol needs at least one series")
    n = entries[0].n
    if len(entries) != n:
        raise ParseError(f"additive symbol needs {n} series over {n} variables")
    require_exact(entries, "nu")
    return det_int([valuation(f) for f in entries])


def steinberg_det_check(entries):
    """For f_1 + f_2 = 1: the valuation determinant must vanish."""
    entries = list(entries)
    if len(entries) < 2:
        raise ParseError("need at least two series")
    s = entries[0] + entries[1]
    if s != one(s.ring, s.n):
        raise ParseError("precondition f_1 + f_2 = 1 fails")
    dt = additive_symbol(entries)
    return {"det": dt, "ok": dt == 0}


# -- the symbol -------------------------------------------------------------------

# Python's default limit on the digits of an int written as a string: no
# response can print a constant slot's power past it
_POWER_DIGITS = 4300


def cc(entries, want_trace=False):
    """The multilinear antisymmetric symbol of n+1 invertible series.

    Requires rational coefficients whenever a sharp (exp-res) branch
    contributes; purely monomial/constant inputs evaluate over any base.
    Constant powers whose scalars would pass ``_POWER_DIGITS`` digits are refused.
    No sharp factor ``S = t^-nu f c^-1`` is formed: a slot an exp-res subset
    reads enters the residues as the split record of ``t^-nu f`` and ``c``,
    as ``Log(record)`` and ``Dlog(record)``, and its ``c^-1`` is computed at
    most once, on the record, shared by a negative constant-slot exponent
    and the slot's expansions.
    """
    entries = list(entries)
    if not entries:
        raise ParseError("empty symbol tuple")
    ring, n = entries[0].ring, entries[0].n
    if len(entries) != n + 1:
        raise ParseError(f"the symbol over {n} variables takes {n + 1} series")
    for f in entries[1:]:
        entries[0]._check(f)
    require_exact(entries, "cc")
    splits = [_unit_split(f) for f in entries]
    nus = [nu for nu, _, _ in splits]
    idx = [i for i, (_, _, g) in enumerate(splits) if len(g._terms) > 1]  # S != 1
    subsets = []
    for mask in range(1, 1 << len(idx)):
        t_set = {idx[b] for b in range(len(idx)) if mask >> b & 1}
        if any(not any(nus[j]) for j in range(n + 1) if j not in t_set):
            continue
        subsets.append(t_set)
    if subsets and not ring.has_rationals():
        raise UnsupportedRingError(
            "exp-res branch needs rational coefficients; over integral bases "
            "use the universal integral series (ccsym.universal.evaluate_phi)")
    # the split record of each slot some subset reads; its c^-1 is computed
    # once, on first read, by a negative constant-slot exponent or an expansion
    sharps = {j: _Sharp(splits[j][2], splits[j][1]) for j in set().union(*subsets)}

    trace = [] if want_trace else None  # its strings are built only on request
    value, digits = ring.one(), 0

    s = sgn_vf(*nus)
    if s:
        value = value * ring.from_scalar(-1)
    if trace is not None and any(any(v) for v in nus):
        trace.append(f"monomial: (-1)^{s}")

    for i, (_, c, _) in enumerate(splits):
        if c.is_one():
            continue
        dt = det_int([nus[j] for j in range(n + 1) if j != i])
        if dt == 0:
            continue
        exponent = dt if i % 2 == 0 else -dt
        if ring.base != "mod":  # modular powers stay small, and those of +-1 add 0 digits
            p = c.constant_scalar()
            digits += abs(exponent) * math.log10(max(abs(p.numerator), p.denominator))
            if digits > _POWER_DIGITS:
                raise UnsupportedRingError(f"constant slot {i + 1}: ({c})^{exponent} takes the "
                                           f"constant powers past {_POWER_DIGITS} digits")
        if exponent > 0:
            value = value * c ** exponent
        else:
            value = value * (sharps[i].scale if i in sharps else c.inverse()) ** -exponent
        if trace is not None:
            trace.append(f"constant slot {i + 1}: ({c})^{exponent}")

    if subsets:
        total = _sharp_contribution(ring, n, nus, sharps, subsets, trace)
        if not total.is_nilpotent():
            raise InternalConsistencyError(
                f"residue {total} of the sharp branch is not nilpotent")
        value = value * total.exp()

    return (value, trace) if want_trace else value


def _sharp_contribution(ring, n, nus, sharps, subsets, trace):
    """Sum of the signed residues res(log S_k ^ ...), one per subset of sharp slots.

    A subset T with least slot k contributes the log of k's sharp factor,
    ``dlog S_j`` for the other slots j in T (``dlog(t^-nu f_j)``, the
    constant dropping out) and the monomial dlog of the slots outside T; all
    of them go to one certified evaluation, as ``Log(record)`` and
    ``Dlog(record)`` of the slot's record in ``sharps``.  A ``trace`` list,
    when given, gets one line per nonzero residue.
    """
    monomials = [dlog_monomial(ring, n, nu) for nu in nus]
    logs = {k: Log(sharps[k]) for k in {min(t_set) for t_set in subsets}}
    dlogs = {j: Dlog(sharp) for j, sharp in sharps.items()}
    terms = []
    for t_set in subsets:
        k = min(t_set)
        terms.append((logs[k], [dlogs[j] if j in t_set else monomials[j]
                                for j in range(n + 1) if j != k]))
    total = ring.zero()
    for t_set, r in zip(subsets, certified_residues(terms)):
        k = min(t_set)
        if r:
            if not r.is_nilpotent():
                raise InternalConsistencyError(
                    f"sharp-branch residue {r} is not nilpotent")
            if trace is not None:
                trace.append(f"sharp slots {sorted(x + 1 for x in t_set)}: "
                             f"exp({'-' if k % 2 else ''}res) with res = {r}")
        total = total + (r if k % 2 == 0 else -r)
    return total


# -- tangent identities -------------------------------------------------------------

def _adjoin(ring, base, order):
    """``ring[x]/(x^order)`` for a fresh name ``x``: (ring, embedding, x)."""
    k, name = 0, base
    while name in ring.gens:
        k += 1
        name = f"{base}{k}"
    ext, embed = ring.extended(((name, order),))
    return ext, embed, ext.gen(name)


def cc_eps_linearization(g: LaurentElt, entries):
    """Dual-path check of the first-order expansion in a square-zero variable.

    Left: the symbol of ``(1 + g*eps, f_1, ..., f_n)`` over the extended ring.
    Right: ``1 + res(g dlog f_1 ^ ... ^ dlog f_n) eps`` via the forms module.
    """
    entries = list(entries)
    ring, n = g.ring, g.n
    if len(entries) != n:
        raise ParseError(f"need {n} series besides g")
    ext, embed, eps = _adjoin(ring, "eps", 2)
    g_e = g.map_coefficients(ext, embed)
    fs_e = [f.map_coefficients(ext, embed) for f in entries]
    lhs = cc([one(ext, n) + g_e * eps] + fs_e)
    r = certified_residue(g, [Dlog(f) for f in entries])
    rhs = ext.one() + embed(r) * eps
    return {"lhs": lhs, "rhs": rhs, "residue": r, "ok": lhs == rhs}


def cc_eta_linearization(gs):
    """Dual-path check of the top-order expansion in a variable with eta^{n+2}=0.

    Left: the symbol of ``(1 + g_1 eta, ..., 1 + g_{n+1} eta)``.
    Right: ``1 + res(g_1 dg_2 ^ ... ^ dg_{n+1}) eta^{n+1}``, an exact residue.
    """
    gs = list(gs)
    ring, n = gs[0].ring, gs[0].n
    if len(gs) != n + 1:
        raise ParseError(f"need n+1 = {n + 1} series")
    ext, embed, eta = _adjoin(ring, "eta", n + 2)
    lifted = [one(ext, n) + g.map_coefficients(ext, embed) * eta for g in gs]
    lhs = cc(lifted)
    r = certified_residue(gs[0], [d(g) for g in gs[1:]])
    rhs = ext.one() + embed(r) * eta ** (n + 1)
    return {"lhs": lhs, "rhs": rhs, "residue": r, "ok": lhs == rhs}


# -- tame symbol -----------------------------------------------------------------------

def tame_symbol(f: LaurentElt, g: LaurentElt) -> Coef:
    """(-1)^{nu(f)nu(g)} (f^{nu(g)} / g^{nu(f)})(0) over a field, n = 1."""
    ring, n = f.ring, f.n
    if n != 1:
        raise ParseError("the tame symbol is one-dimensional")
    is_field = (ring.base == "Q" or (ring.base == "mod" and ring.mod_prime_power
                                     and ring.mod_prime_power[1] == 1))
    if not is_field or ring.gens:
        raise UnsupportedRingError("the tame symbol needs a field of coefficients")
    f._check(g)
    require_exact((f, g), "tame")
    a = valuation(f)[0]
    b = valuation(g)[0]
    lead_f = f.coefficient((a,))
    lead_g = g.coefficient((b,))
    sign = ring.from_scalar(-1 if (a * b) % 2 else 1)
    return sign * lead_f ** b * lead_g ** (-a)
