"""The four seeded workloads of the ccsym benchmark.

A workload turns a seed into one *pass*: a list of named operations, each a
zero-argument call into the engine.  The runner repeats the pass, times every
operation and hands the outputs of the first pass to ``check``, which compares
them with oracles that do not go through the call being timed.

Operations reach the engine through module attributes (``symbol.cc``, never a
name bound at import time), so the wrappers that the traced run installs see
every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from itertools import permutations

from ccsym import checks, cli, errors, forms, laurent, symbol, universal, witt
from ccsym.coeff import RingSpec, ring_new


class Op:
    """One timed call.

    ``slots`` are canonical strings of its inputs; ``prepare``, if given, runs
    untimed just before the call.
    """

    __slots__ = ("name", "fn", "slots", "prepare")

    def __init__(self, name, fn, slots=(), prepare=None):
        self.name = name
        self.fn = fn
        self.slots = tuple(slots)
        self.prepare = prepare


def rng_for(seed, label):
    """An independent, reproducible stream per (seed, label)."""
    return random.Random(f"{seed}/{label}")


def canon(value):
    """A string that is equal for equal outputs of any operation."""
    if isinstance(value, witt.WittVector):
        return repr(sorted((i, str(c)) for i, c in value.coords.items()))
    if isinstance(value, universal.UniversalSeries):
        return json.dumps(value.to_json())
    if isinstance(value, dict):
        return repr(sorted((k, canon(v)) for k, v in value.items()))
    return str(value)


def det(rows):
    """Integer determinant by the Leibniz formula (small n only)."""
    size = len(rows)
    total = 0
    for perm in permutations(range(size)):
        inversions = sum(1 for a in range(size) for b in range(a + 1, size)
                         if perm[a] > perm[b])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def basis_size(spec):
    """Number of monomials in the nil part of a ring presentation."""
    cap = spec.nil_total_cap
    counts = {0: 1}
    for _, order in spec.nil:
        nxt = {}
        for deg, c in counts.items():
            for e in range(order):
                if cap is None or deg + e <= cap:
                    nxt[deg + e] = nxt.get(deg + e, 0) + c
        counts = nxt
    return sum(counts.values())


def repeat_share(ops):
    """Share of input slots equal to a slot of an earlier operation."""
    seen = set()
    total = repeats = 0
    for op in ops:
        for slot in op.slots:
            total += 1
            repeats += slot in seen
        seen.update(op.slots)
    return repeats / total if total else 0.0


def tame_value(f, g):
    """The tame symbol (-1)^{ab} lead(f)^b / lead(g)^a over Q, n = 1."""
    a = min(f.terms)[0]
    b = min(g.terms)[0]
    lead_f = f.terms[(a,)].terms[()]
    lead_g = g.terms[(b,)].terms[()]
    sign = -1 if a * b % 2 else 1
    return sign * Fraction(lead_f) ** b / Fraction(lead_g) ** a


class Workload:
    """Base class: a seeded pass of operations plus its output check."""

    name = ""
    worst = ()
    roundtrip = ()

    def __init__(self, seed):
        self.seed = seed
        self.ops = []
        self.rings = {}
        self.build()

    def build(self):
        raise NotImplementedError

    def parts(self, label, core_seed, core, seeded):
        """(part, stream seed, size) of a fixed core stream and the run's own."""
        return (("core", core_seed, core),
                ("seed", rng_for(self.seed, label).randrange(2 ** 31), seeded))

    def reset(self):
        """Runs before every pass."""

    def warm_up(self):
        """Cheap calls that touch the same code paths, run during set-up."""

    def check(self, outs):
        """(op name, detail) for every output an oracle rejects."""
        raise NotImplementedError

    def describe(self):
        """Input properties: what share of the workload has each property."""
        return {"checks.input_repeat_share": repeat_share(self.ops),
                "symbol.sharp_branch_share": None,
                "universal.phi_cache_hit_ratio": None,
                "ring_basis_sizes": {k: basis_size(r.spec) for k, r in self.rings.items()}}


# -- symbol-suites ---------------------------------------------------------------

CC_CALLS = {"multilinear": 3, "antisymmetric": 2, "steinberg": 1, "neg_steinberg": 1}
SUITE_ORDER = ("multilinear", "antisymmetric", "steinberg", "neg_steinberg")


def record_cc(suite, ring, n, trials, seed):
    """The cc argument tuples a check suite issues, grouped by trial.

    The suite runs with ``checks.cc`` replaced by a recorder that returns 1,
    so every suite identity holds and no symbol is evaluated.
    """
    calls = []

    def recorder(entries, **_):
        calls.append(list(entries))
        return entries[0].ring.one()

    real = checks.cc
    checks.cc = recorder
    try:
        report = checks.SUITES[suite](ring, n=n, trials=trials, seed=seed)
    finally:
        checks.cc = real
    k = CC_CALLS[suite]
    if report["failures"] or len(calls) != trials * k:
        raise RuntimeError(f"{suite} n={n} seed={seed}: generator stream did not "
                           f"yield {trials} trials")
    return [calls[i:i + k] for i in range(0, len(calls), k)]


class SymbolSuites(Workload):
    """cc calls from the check generators, plus the named worst case.

    Trials come from the four symbol suites over Q[e1,e2]/(e1^2,e2^3) at
    n = 1, 2 and a slice at n = 3: a fixed core from the acceptance streams
    (seed 2024 + n, as criterion 3 draws them) and a part from streams derived
    from the run's seed.  A trial is admitted only when each of its tuples has
    at most TERM_CAP terms in total: above that, single calls take from
    seconds to minutes, which no fixed-length run can hold.  The heavy tail
    stays in every pass through the named worst case, trial 46 of multilinear
    n=2 seed 2026, regenerated from its generator stream.  The closed form of
    criterion 2 and the tame symbol over Q serve as independent oracles.
    """

    name = "symbol-suites"
    CORE = {1: 20, 2: 32, 3: 3}
    SEEDED = {1: 6, 2: 4, 3: 1}
    TERM_CAP = 10
    TAME = {"core": 20, "seed": 10}
    WORST = ("multilinear", 2, 2026, 46)
    roundtrip = (("cc_q_e", {
        "command": "cc", "ring": {"base": "Q", "nil": [["e", 2]]}, "n": 1,
        "tuple": [{"n": 1, "terms": [{"exp": [-1], "coef": "1*e^1"},
                                     {"exp": [0], "coef": "1*e^1 + 1"},
                                     {"exp": [1], "coef": "1"}]},
                  {"n": 1, "terms": [{"exp": [1], "coef": "1"}]}]}),)

    def build(self):
        tower = checks.default_ring()
        quv = ring_new(RingSpec("Q", free=("u",), nil=(("v", 5),)))
        q = ring_new(RingSpec("Q"))
        self.rings = {"tower": tower, "closed_form": quv, "Q": q}
        self.groups = []
        self.tuples = []
        self.expected = {}
        self.admitted = {}

        suite, n, seed, trial = self.WORST
        worst = record_cc(suite, tower, n, trial + 1, seed)[trial]
        prefix = f"worst/{suite}/n{n}/s{seed}/t{trial}"
        self._add_trial(prefix, suite, worst)
        self.worst = tuple(f"{prefix}/c{j}" for j in range(len(worst)))

        for n in (1, 2, 3):
            for suite in SUITE_ORDER:
                for part, stream, want in self.parts(f"{suite}/n{n}", 2024 + n,
                                                     self.CORE[n], self.SEEDED[n]):
                    trials = record_cc(suite, tower, n, want + want // 2 + 2, stream)
                    fits = [(k, t) for k, t in enumerate(trials)
                            if all(sum(len(f.terms) for f in tup) <= self.TERM_CAP
                                   for tup in t)]
                    self.admitted[f"{part}/{suite}/n{n}"] = [len(fits), len(trials)]
                    for k, t in fits[:want]:
                        self._add_trial(f"{part}/{suite}/n{n}/s{stream}/t{k}", suite, t)

        u, v = quv.gen("u"), quv.gen("v")
        for i in (1, 2, 3, 4):
            for j in (-4, -3, -2, -1, 1, 2, 3, 4):
                f = laurent.from_terms(quv, 1, [((0,), 1), ((i,), -u)])
                g = laurent.from_terms(quv, 1, [((0,), 1), ((j,), -v)])
                name = f"closed_form/i{i}/j{j}"
                self._add_cc(name, [f, g])
                self.expected[name] = self._closed_form(i, j)

        for part, stream, want in self.parts("tame", 11, self.TAME["core"], self.TAME["seed"]):
            r = random.Random(stream)
            for k in range(want):
                f = checks.random_invertible_series(r, q, 1)
                g = checks.random_invertible_series(r, q, 1)
                name = f"{part}/tame/s{stream}/{k}"
                self._add_cc(name, [f, g])
                self.expected[name] = {(): tame_value(f, g)}

    def _add_cc(self, name, entries):
        self.tuples.append(entries)
        self.ops.append(Op(name, lambda: symbol.cc(entries), [str(f) for f in entries]))

    def _add_trial(self, prefix, suite, tuples):
        names = [f"{prefix}/c{j}" for j in range(len(tuples))]
        for name, entries in zip(names, tuples):
            self._add_cc(name, entries)
        self.groups.append((suite, names))

    @staticmethod
    def _closed_form(i, j):
        """Terms of CC_1(1 - u t^i, 1 - v t^j) in Q[u][v]/(v^5), criterion 2.

        (1 - u^{-j/g} v^{i/g})^g with g = gcd(i, -j) when j < 0, else 1.
        """
        if j > 0:
            return {(0, 0): Fraction(1)}
        g = math.gcd(i, -j)
        a, b = -j // g, i // g
        return {(a * k, b * k): Fraction((-1) ** k * math.comb(g, k))
                for k in range(g + 1) if b * k < 5}

    def warm_up(self):
        ring = self.rings["tower"]
        t = laurent.t_var(ring, 1, 1)
        symbol.cc([t, t])

    def check(self, outs):
        bad = []
        for suite, names in self.groups:
            v = [outs[name] for name in names]
            one = v[0].ring.one()
            if suite == "multilinear":
                ok = v[0] == v[1] * v[2]
            elif suite == "antisymmetric":
                ok = v[0] * v[1] == one
            else:
                ok = v[0] == one
            if not ok:
                bad.append((names[0], f"{suite} identity fails: {[str(x) for x in v]}"))
        for name, terms in self.expected.items():
            if outs[name].terms != terms:
                bad.append((name, f"got {outs[name]}, oracle terms {terms}"))
        return bad

    def describe(self):
        out = super().describe()
        sharp = 0
        for entries in self.tuples:
            # cc takes its exp-res branch when some slot has a sharp factor other
            # than 1 and every slot of valuation zero has one.
            splits = [laurent.coarse_split(f) for f in entries]
            unit = {(0,) * entries[0].n: entries[0].ring.one()}
            sharp_slots = {i for i, (_, _, s) in enumerate(splits) if s.terms != unit}
            zero_nu = {i for i, (nu, _, _) in enumerate(splits) if not any(nu)}
            sharp += bool(sharp_slots) and zero_nu <= sharp_slots
        out["symbol.sharp_branch_share"] = sharp / len(self.tuples)
        out["term_cap"] = self.TERM_CAP
        out["trials_admitted_of_generated"] = self.admitted
        out["worst_case"] = "multilinear n=2 seed=2026 trial=46 (3 cc calls)"
        return out


# -- phi-tables ------------------------------------------------------------------

class PhiTables(Workload):
    """The two acceptance phi tables and batches of evaluate_phi calls.

    The tables use huge instrumentation rings with tiny series.  The batches
    run over Z[e1,e2]/(e1^2,e2^3), 60 calls each drawn as criterion 9 draws
    them, and are the only users of the phi cache, which is emptied before
    each batch as in a fresh process.  The core batches use fixed seeds, the
    first being criterion 9's own stream; the others come from the run's seed.
    Outside criterion 9's stream a batch has more n = 1 calls than n = 2 ones,
    so that the median call does not sit on the gap between the two.
    """

    name = "phi-tables"
    BATCH = {1: 36, 2: 24}   # calls at n = 1 and n = 2; criterion 9 draws 30 and 30
    CORE_BATCHES = 8
    SEEDED_BATCHES = 2
    TABLES = (("phi_1_1_deg6", (1, (1,)), 6, ((-6,), (6,))),
              ("phi_2_12_deg3", (2, (1, 2)), 3, ((-2, -2), (2, 2))))
    worst = ("phi_1_1_deg6",)
    roundtrip = (("phi_1_1_deg2", {"command": "phi", "n": 1, "j": [1], "degree": 2,
                                   "window": {"lo": [-1], "hi": [1]}}),)

    def build(self):
        ring = ring_new(RingSpec("Z", nil=(("e1", 2), ("e2", 3))))
        self.rings = {"Z_tower": ring}
        for name, (n, js), degree, (lo, hi) in self.TABLES:
            key = universal.PhiKey(n, js)
            window = laurent.Window.box(lo, hi)
            self.ops.append(Op(name, lambda a=(key, degree, window):
                               universal.phi_coefficients(*a), (name,)))
            box = math.prod(h - l + 1 for l, h in zip(lo, hi))
            gens = tuple((f"x{k}", degree + 1) for k in range(key.p * box))
            self.rings[name] = ring_new(RingSpec("Q", nil=gens, nil_total_cap=degree))
        streams = [("core", 9)]
        streams += [("core", f"phi/{b}") for b in range(1, self.CORE_BATCHES)]
        streams += [("seed", f"{self.seed}/phi/{b}") for b in range(self.SEEDED_BATCHES)]
        self.batches = []
        for part, stream in streams:
            r = random.Random(stream)
            split = {1: 30, 2: 30} if stream == 9 else self.BATCH
            batch = []
            for n in (1, 2):
                for _ in range(split[n]):
                    q = r.randint(0, n)
                    key = universal.PhiKey(n, tuple(range(n - q + 1, n + 1)))
                    gs = []
                    for _ in range(key.p):
                        pairs = [(tuple(r.randint(-2, 2) for _ in range(n)),
                                  checks.random_nilpotent_coef(r, ring))
                                 for _ in range(r.randint(1, 2))]
                        gs.append(laurent.from_terms(ring, n, pairs))
                    name = f"{part}/evaluate_phi/s{stream}/{len(batch)}/n{n}/q{q}"
                    batch.append((name, key, gs))
                    self.ops.append(Op(name, lambda a=(key, gs): universal.evaluate_phi(*a),
                                       [repr(key)] + [str(g) for g in gs],
                                       prepare=None if len(batch) > 1 else self.reset))
            self.batches.append(batch)

    def reset(self):
        cache = getattr(universal, "_PHI_CACHE", None)
        if cache is not None:
            cache.clear()

    def warm_up(self):
        ring = self.rings["Z_tower"]
        g = laurent.from_terms(ring, 1, [((1,), ring.gen("e1"))])
        universal.evaluate_phi(universal.PhiKey(1, (1,)), [g])
        self.reset()

    def check(self, outs):
        bad = []
        for name, (n, _), _, _ in self.TABLES:
            series = outs[name]
            if not series.coeffs:
                bad.append((name, "no coefficients"))
            for mono, value in series.coeffs.items():
                weight = [sum(e * l[j] for (_, l), e in mono) for j in range(n)]
                if value.denominator != 1 or any(weight):
                    bad.append((name, f"coefficient {value} at {mono}, weight {weight}"))
                    break
        ring_q, embed = self.rings["Z_tower"].rationalized()
        for name, key, gs in (call for batch in self.batches for call in batch):
            n = key.n
            entries = [laurent.one(ring_q, n) + g.map_coefficients(ring_q, embed) for g in gs]
            entries += [laurent.t_var(ring_q, n, j) for j in key.js]
            expected = symbol.cc(entries)
            if embed(outs[name]) != expected:
                bad.append((name, f"evaluate_phi {outs[name]} != cc {expected}"))
        return bad

    def describe(self):
        out = super().describe()
        hits = calls = 0
        for batch in self.batches:
            seen = set()
            for _, key, gs in batch:
                support = (key, tuple(sorted((i, l) for i, g in enumerate(gs)
                                             for l in g.terms)))
                hits += support in seen
                calls += 1
                seen.add(support)
        out["universal.phi_cache_hit_ratio"] = hits / calls
        return out


# -- witt-residues ---------------------------------------------------------------

def record_witt(ring, n, trials, seed):
    """The witt_pair calls of the bilinearity suite, six per trial."""
    calls = []

    def recorder(fs, g, max_doublings=6):
        calls.append((list(fs), g))
        return witt.WittVector(g.S, {i: ring.zero() for i in g.S})

    real = witt.witt_pair
    witt.witt_pair = recorder
    try:
        report = checks.suite_witt_bilinear(ring, n=n, trials=trials, seed=seed)
    finally:
        witt.witt_pair = real
    if report["failures"] or len(calls) != 6 * trials:
        raise RuntimeError(f"witt_bilinear n={n} seed={seed}: unexpected stream")
    return [calls[i:i + 6] for i in range(0, len(calls), 6)]


class WittResidues(Workload):
    """Residues through stable_coefficient with a caller's build.

    witt_pair at depth 6 from the bilinearity generator at n = 1 and 2 over
    Q[e1]/(e1^2), then residue_det and cc_eps_linearization at n = 2 over
    Q[e1,e2]/(e1^2,e2^3).  Each stream has a fixed core and a part from the
    run's seed, except n = 2 Witt trials: their cost swings tenfold with the
    seed, so they come from the fixed stream only.  An n = 2 trial is admitted
    only when f1 and f2 have at most TERM_CAP terms together; the named worst
    case is a fixed n = 2 trial.
    """

    name = "witt-residues"
    CORE = {1: 8, 2: 5, "residue_det": 20, "eps": 12}
    SEEDED = {1: 4, 2: 0, "residue_det": 10, "eps": 6}
    TERM_CAP = 5
    WORST = (2, 2026, 8)
    roundtrip = (("witt_pair_q_e", {
        "command": "witt-pair", "ring": {"base": "Q", "nil": [["e", 2]]}, "n": 1,
        "S": [1, 2], "f": [{"n": 1, "terms": [{"exp": [1], "coef": "1"}]}],
        "g": {"coords": {"1": {"n": 1, "terms": [{"exp": [0], "coef": "3"}]},
                         "2": {"n": 1, "terms": [{"exp": [0], "coef": "1*e^1"}]}}}}),)

    def build(self):
        wring = ring_new(RingSpec("Q", nil=(("e1", 2),)))
        tower = checks.default_ring()
        self.rings = {"witt": wring, "tower": tower}
        self.groups = []
        self.dets = {}
        self.eps = []
        self.admitted = {}

        n, seed, trial = self.WORST
        calls = record_witt(wring, n, trial + 1, seed)[trial]
        prefix = f"worst/bilinear/n{n}/s{seed}/t{trial}"
        self._add_trial(prefix, calls)
        self.worst = tuple(f"{prefix}/c{j}" for j in range(6))
        for n in (1, 2):
            for part, stream, want in self.parts(f"witt/n{n}", 2024 + n,
                                                 self.CORE[n], self.SEEDED[n]):
                if not want:
                    continue
                trials = record_witt(wring, n, want if n == 1 else want + want // 2 + 2,
                                     stream)
                fits = [(k, t) for k, t in enumerate(trials)
                        if n == 1 or len(t[1][0][0].terms) + len(t[2][0][0].terms)
                        <= self.TERM_CAP]
                fits = [(k, t) for k, t in fits if (n, stream, k) != self.WORST]
                self.admitted[f"{part}/bilinear/n{n}"] = [len(fits), len(trials)]
                for k, t in fits[:want]:
                    self._add_trial(f"{part}/bilinear/n{n}/s{stream}/t{k}", t)

        for part, stream, want in self.parts("residue_det", 77, self.CORE["residue_det"],
                                             self.SEEDED["residue_det"]):
            r = random.Random(stream)
            for k in range(want):
                fs = [checks.random_invertible_series(r, tower, 2) for _ in range(2)]
                name = f"{part}/residue_det/s{stream}/{k}"
                self.ops.append(Op(name, lambda fs=fs: laurent.stable_coefficient(
                    lambda w: self._top(fs, w, tower), (-1, -1)), [str(f) for f in fs]))
                self.dets[name] = det([laurent.valuation(f) for f in fs])

        for part, stream, want in self.parts("eps", 99, self.CORE["eps"], self.SEEDED["eps"]):
            r = random.Random(stream)
            for k in range(want):
                g = checks.random_laurent_poly(r, tower, 2)
                fs = [checks.random_invertible_series(r, tower, 2) for _ in range(2)]
                name = f"{part}/eps/s{stream}/{k}"
                self.eps.append(name)
                self.ops.append(Op(name, lambda a=(g, fs): symbol.cc_eps_linearization(*a),
                                   [str(g)] + [str(f) for f in fs]))

    @staticmethod
    def _top(fs, window, ring):
        """The caller-supplied build: dlog f_1 ^ dlog f_2, top component."""
        form = forms.dlog(fs[0], window)
        for f in fs[1:]:
            form = forms.wedge(form, forms.dlog(f, window))
        top = form.comps.get((1, 2))
        return top if top is not None else laurent.zero(ring, 2)

    def _add_trial(self, prefix, calls):
        names = []
        for j, (fs, g) in enumerate(calls):
            name = f"{prefix}/c{j}"
            names.append(name)
            self.ops.append(Op(name, lambda a=(fs, g): witt.witt_pair(*a),
                               [str(f) for f in fs] + [canon(g)]))
        self.groups.append(names)

    def warm_up(self):
        ring = self.rings["witt"]
        g = witt.WittVector(witt.IndexSet((1,)), {1: laurent.one(ring, 1)})
        witt.witt_pair([laurent.t_var(ring, 1, 1)], g)

    def check(self, outs):
        bad = []
        for names in self.groups:
            o = [outs[name] for name in names]
            if o[0] != witt.witt_add(o[1], o[2]):
                bad.append((names[0], "pairing is not multiplicative in f"))
            if o[3] != witt.witt_add(o[4], o[5]):
                bad.append((names[3], "pairing is not additive in g"))
        for name, dt in self.dets.items():
            want = {(0, 0): Fraction(dt)} if dt else {}
            if outs[name].terms != want:
                bad.append((name, f"residue {outs[name]} != det {dt}"))
        for name in self.eps:
            if not outs[name]["ok"]:
                bad.append((name, f"eps linearization {outs[name]['lhs']} != "
                                  f"{outs[name]['rhs']}"))
        return bad

    def describe(self):
        out = super().describe()
        out["term_cap"] = self.TERM_CAP
        out["trials_admitted_of_generated"] = self.admitted
        out["worst_case"] = "witt_bilinear n=2 seed=2026 trial=8 (6 witt_pair calls)"
        return out


# -- cli-corpus ------------------------------------------------------------------

ERROR_KINDS = frozenset(cls.kind for cls in vars(errors).values()
                        if isinstance(cls, type) and issubclass(cls, errors.EngineError))


def run_main(text):
    """ccsym.cli.main on one request, in process: (exit code, stdout)."""
    buf = io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main([])
    finally:
        sys.stdin = old
    return code, buf.getvalue()


def _mono_doc(n, exps_coefs):
    return {"n": n, "terms": [{"exp": list(l), "coef": c} for l, c in exps_coefs]}


BIG_PRIME = 10 ** 12 + 39

HOSTILE = {
    "bad_json": '{"command": "cc", "ring": ',
    "not_an_object": "[1, 2, 3]",
    "unknown_command": {"command": "bogus"},
    "missing_tuple": {"command": "cc", "ring": {"base": "Q"}, "n": 1},
    "zero_series": {"command": "cc", "ring": {"base": "Q"}, "n": 1,
                    "tuple": [_mono_doc(1, []), _mono_doc(1, [((1,), "1")])]},
    "z6_not_connected": {"command": "cc", "ring": {"base": {"mod": 6}}, "n": 1,
                         "tuple": [_mono_doc(1, [((0,), "1"), ((1,), "1")]),
                                   _mono_doc(1, [((1,), "1")])]},
    "prime_modulus_1e12_39": {"command": "cc", "ring": {"base": {"mod": BIG_PRIME}}, "n": 1,
                              "tuple": [_mono_doc(1, [((0,), "1"), ((1,), "1")]),
                                        _mono_doc(1, [((0,), "1"), ((-1,), "1")])]},
    "lex_directed_tail": {"command": "cc", "ring": {"base": "Q"}, "n": 2,
                          "tuple": [_mono_doc(2, [((0, 0), "1"), ((-1, 1), "-1")]),
                                    _mono_doc(2, [((1, 0), "1")]),
                                    _mono_doc(2, [((0, 1), "1")])]},
    "negative_gen_exponent": {"command": "cc", "ring": {"base": "Q", "free": ["u"]}, "n": 1,
                              "tuple": [_mono_doc(1, [((0,), "u^-1")]),
                                        _mono_doc(1, [((1,), "1")])]},
}


class CliCorpus(Workload):
    """Small JSON requests through ccsym.cli.main, plus hostile ones.

    Valid requests cover all eight commands over Q, Z and Z/p^k, each with an
    oracle on its response.  Hostile requests pass when they end with exit 1
    or 2, ``ok: false`` and an error kind of the engine; the kind itself is not
    pinned.  A sample also runs as a ``python -m ccsym.cli`` subprocess and
    must answer byte-identically.
    """

    name = "cli-corpus"
    worst = ("hostile/prime_modulus_1e12_39",)
    ROUNDTRIP_SAMPLE = 6
    prefix = ""

    def build(self):
        self.requests = {}
        self.oracles = {}
        q = ring_new(RingSpec("Q"))
        qe = ring_new(RingSpec("Q", nil=(("e", 2),)))
        ze = ring_new(RingSpec("Z", nil=(("e", 2),)))
        self.rings = {"Q": q, "Q_e": qe, "Z_e": ze}
        for part, r in (("core", random.Random("core/cli")),
                        ("seed", rng_for(self.seed, "cli"))):
            self.prefix = f"{part}/"
            self._build_part(r, part == "core", q, qe, ze)
        self.prefix = ""
        for n, js in ((1, [1]), (1, []), (2, [1, 2])):
            degree = 2 if n == 1 else 1
            self._add(f"core/phi/n{n}/j{''.join(map(str, js))}",
                      {"command": "phi", "n": n, "j": js, "degree": degree,
                       "window": {"lo": [-1] * n, "hi": [1] * n}}, self._phi_oracle(n))
        self._add("core/check/sgn_agreement/n1", {"command": "check",
                                                  "suite": "sgn_agreement", "n": 1},
                  self._suite_oracle(49))
        for name, doc in HOSTILE.items():
            self._add(f"hostile/{name}", doc, None)

        names = sorted(n for n in self.requests if n.startswith("seed/"))
        sample = rng_for(self.seed, "roundtrip").sample(names, self.ROUNDTRIP_SAMPLE)
        self.roundtrip = tuple((n, self.requests[n]) for n in sample + ["hostile/bad_json"])

    def _build_part(self, r, core, q, qe, ze):
        """Requests drawn from one stream: every command but phi, on three bases."""
        bases = (("Q", "Q"), ("Z", "Z"), ("Z9", {"mod": 9}))
        for k in range(3):
            f = checks.random_invertible_series(r, q, 1)
            g = checks.random_invertible_series(r, q, 1)
            self._add(f"cc/Q/tame_oracle/{k}", {"command": "cc", "ring": {"base": "Q"}, "n": 1,
                                                "tuple": [f.to_json(), g.to_json()]},
                      self._scalar_oracle(tame_value(f, g)))
        for k in range(3):
            f = checks.random_invertible_series(r, qe, 1)
            g = checks.random_invertible_series(r, qe, 1)
            self._add(f"cc/Q_e/{k}", {"command": "cc", "ring": {"base": "Q", "nil": [["e", 2]]},
                                      "n": 1, "tuple": [f.to_json(), g.to_json()]},
                      self._reparse_oracle("Q", [["e", 2]]))
        for label, base in bases:
            for k in range(3):
                self._add_constant_cc(r, label, base, k)
                self._add_nu(r, label, base, k)
                self._add_res(r, label, base, k)
            self._add_witt(r, label, base)
        for label, ring, doc in (("Q_e", qe, {"base": "Q", "nil": [["e", 2]]}),
                                 ("Z_e", ze, {"base": "Z", "nil": [["e", 2]]})):
            for n in (1, 2):
                f = checks.random_invertible_series(r, ring, n)
                self._add(f"decompose/{label}/n{n}", {"command": "decompose", "ring": doc,
                                                      "series": f.to_json()},
                          self._decompose_oracle(ring, f))
        for label, base, p in (("Q", "Q", None), ("Z7", {"mod": 7}, 7)):
            f = laurent.from_terms(q, 1, [((r.randint(-2, 2),), r.randint(1, 5)),
                                          ((3,), r.randint(-3, 3))])
            g = laurent.from_terms(q, 1, [((r.randint(-2, 2),), r.randint(1, 5)),
                                          ((3,), r.randint(-3, 3))])
            value = tame_value(f, g)
            if p is not None:
                value = value.numerator * pow(value.denominator, -1, p) % p
            self._add(f"tame/{label}", {"command": "tame", "ring": {"base": base},
                                        "tuple": [f.to_json(), g.to_json()]},
                      self._scalar_oracle(value))
        # A seeded symbol suite can draw a call that takes seconds; the seeded
        # part checks only suites whose cost does not depend on the seed.
        suites = (("steinberg", 1), ("residue_det", 1), ("neg_steinberg", 1)) if core else \
            (("residue_det", 1), ("eta_identities", 1))
        for suite, n in suites:
            trials = 3
            self._add(f"check/{suite}/n{n}", {"command": "check", "suite": suite, "n": n,
                                              "trials": trials, "seed": r.randrange(10 ** 6)},
                      self._suite_oracle(trials))
        if not core:
            samples = 300
            self._add("check/sgn_agreement/n2", {"command": "check", "suite": "sgn_agreement",
                                                 "n": 2, "samples": samples,
                                                 "seed": r.randrange(10 ** 6)},
                      self._suite_oracle(samples))

    def _add(self, name, doc, oracle):
        name = self.prefix + name
        text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True)
        self.requests[name] = text
        self.oracles[name] = oracle
        self.ops.append(Op(name, lambda t=text: run_main(t), (text,)))

    def _add_constant_cc(self, r, label, base, k):
        """cc(c t^a, t^b) with c = c0 + c1 e a unit: (-1)^{ab} c^b, no series needed."""
        mod = base["mod"] if isinstance(base, dict) else None
        units = [c for c in range(1, mod) if math.gcd(c, mod) == 1] if mod else [1, -1]
        c0, c1 = r.choice(units), r.randint(-3, 3)
        a, b = r.randint(-3, 3), r.randint(-3, 3)
        # (c0 + c1 e)^b = c0^b + b c0^(b-1) c1 e, since e^2 = 0
        sign = -1 if a * b % 2 else 1
        if mod:
            inv = pow(c0, -1, mod)
            p0 = pow(c0, b, mod) if b >= 0 else pow(inv, -b, mod)
            s0 = sign * p0 % mod
            s1 = sign * b * p0 * inv * c1 % mod
        else:
            p0 = Fraction(c0) ** b
            s0 = sign * p0
            s1 = sign * b * p0 / c0 * c1
        ring_doc = {"base": base, "nil": [["e", 2]]}
        coef = f"{c1}*e^1 + {c0}" if c1 else f"{c0}"
        doc = {"command": "cc", "ring": ring_doc, "n": 1,
               "tuple": [_mono_doc(1, [((a,), coef)]), _mono_doc(1, [((b,), "1")])]}
        want = {k: v for k, v in {(0,): s0, (1,): s1}.items() if v}
        self._add(f"cc/{label}_e/constant/{k}", doc, self._terms_oracle(ring_doc, want))

    def _add_nu(self, r, label, base, k):
        n = 2 + k
        vals = [tuple(r.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        tup = []
        for v in vals:
            tail = tuple(r.randint(0, 2) for _ in range(n - 1)) + (1,)
            tup.append(_mono_doc(n, [(v, "1"), (tuple(x + y for x, y in zip(v, tail)), "2")]))
        doc = {"command": "nu", "ring": {"base": base}, "n": n, "tuple": tup}
        want = det(vals)
        self._add(f"nu/{label}/n{n}", doc, lambda resp, want=want: resp["value"] == want)

    def _add_res(self, r, label, base, k):
        n = 1 + k
        exps = list({tuple(r.randint(-2, 1) for _ in range(n)) for _ in range(5)})
        coefs = [r.randint(1, 8) for _ in exps]
        top = tuple(range(1, n + 1))
        doc = {"command": "res", "ring": {"base": base}, "n": n,
               "form": {"degree": n, "components": [
                   {"dt": list(top), "series": _mono_doc(n, [(l, str(c)) for l, c in
                                                             zip(exps, coefs)])}]}}
        mod = base["mod"] if isinstance(base, dict) else None
        want = dict(zip(exps, coefs)).get((-1,) * n, 0)
        if mod:
            want %= mod
        self._add(f"res/{label}/n{n}", doc,
                  lambda resp, want=str(want): resp["value"] == want)

    def _add_witt(self, r, label, base):
        """Pairing with f = t sends constant Witt coordinates to themselves."""
        ring = ring_new(RingSpec.from_json({"base": base, "nil": [["e", 2]]}))
        mod = base["mod"] if isinstance(base, dict) else None
        coords = {}
        for i in (1, 2, 3, 6):
            c = ring.from_scalar(r.randint(1, 5) if mod else r.randint(-5, 5)) + \
                ring.gen("e") * r.randint(-2, 2)
            coords[str(i)] = str(c)
        doc = {"command": "witt-pair", "ring": {"base": base, "nil": [["e", 2]]}, "n": 1,
               "S": [1, 2, 3, 6], "f": [_mono_doc(1, [((1,), "1")])],
               "g": {"coords": {i: _mono_doc(1, [((0,), c)] if c != "0" else [])
                                for i, c in coords.items()}}}
        self._add(f"witt-pair/{label}_e", doc,
                  lambda resp, want=coords: resp["coords"] == want)

    @staticmethod
    def _scalar_oracle(value):
        return lambda resp: resp["value"] == str(value)

    @staticmethod
    def _terms_oracle(ring_doc, want):
        ring = ring_new(RingSpec.from_json(ring_doc))
        return lambda resp: ring.parse_coef(resp["value"]).terms == want

    @staticmethod
    def _reparse_oracle(base, nil):
        ring = ring_new(RingSpec(base, nil=tuple(map(tuple, nil))))
        return lambda resp: str(ring.parse_coef(resp["value"])) == resp["value"]

    @staticmethod
    def _decompose_oracle(ring, f):
        def oracle(resp):
            parts = [laurent.series_from_json(ring, resp[k]) for k in ("v_plus", "v_minus")]
            product = (parts[0] * parts[1] * ring.parse_coef(resp["c"])).shift(tuple(resp["nu"]))
            return product == f
        return oracle

    @staticmethod
    def _phi_oracle(n):
        def oracle(resp):
            for item in resp["coefficients"]:
                weight = [sum(e * l[j] for _, l, e in item["monomial"]) for j in range(n)]
                if Fraction(item["value"]).denominator != 1 or any(weight):
                    return False
            return bool(resp["coefficients"]) and resp["integral"] and resp["weight_zero"]
        return oracle

    @staticmethod
    def _suite_oracle(trials):
        return lambda resp: resp["ok_suite"] and resp["passed"] == resp["trials"] == trials

    def warm_up(self):
        run_main('{"command": "nu", "n": 1, "tuple": [{"n": 1, "terms": '
                 '[{"exp": [1], "coef": "1"}]}]}')

    def check(self, outs):
        bad = []
        for name, oracle in self.oracles.items():
            code, text = outs[name]
            try:
                resp = json.loads(text)
            except ValueError:
                bad.append((name, f"exit {code}, response is not JSON: {text!r}"))
                continue
            if oracle is None:
                kind = resp.get("error", {}).get("kind")
                if code not in (1, 2) or resp.get("ok") is not False or kind not in ERROR_KINDS:
                    bad.append((name, f"hostile request ended with exit {code}: {text.strip()}"))
            elif code != 0 or not resp.get("ok"):
                bad.append((name, f"exit {code}: {text.strip()}"))
            else:
                try:
                    ok = oracle(resp)
                except (KeyError, TypeError, ValueError, errors.EngineError) as exc:
                    ok, text = False, f"{text.strip()} ({exc!r})"
                if not ok:
                    bad.append((name, f"oracle rejects {text.strip()}"))
        return bad

    def responses(self, outs):
        """Every successful response, by request name: the byte-identity gate."""
        return {name: text for name, (code, text) in sorted(outs.items()) if code == 0}


WORKLOADS = {cls.name: cls for cls in (SymbolSuites, PhiTables, WittResidues, CliCorpus)}
