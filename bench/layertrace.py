"""Run-time tracing of ccsym's layers, installed by the benchmark alone.

``Tracer.install`` rebinds, in every ccsym module that holds them, the public
functions the modules call in one another, and wraps a few methods:
``LaurentElt.__mul__``, ``Ring.__init__`` (ring construction, including the
modulus factorisation) and ``Ring.parse_coef``.  Each wrapper records a span
``[name, start, end, parent, op, error, extra]`` in memory; the hot ``Coef``
operators only count.  Every exception propagates unchanged, because the
engine uses ``WindowExceededError`` as control flow.  ``uninstall`` restores
the original bindings, so the source tree is never touched.
"""

from __future__ import annotations

import json
from time import perf_counter

from ccsym import checks, cli, coeff, forms, laurent, symbol, universal, witt

MODULES = (cli, checks, universal, witt, symbol, forms, laurent, coeff)
LAYERS = ("cli", "universal", "witt", "symbol", "forms", "laurent", "coeff")

FUNCTIONS = {
    laurent: ("log_sharp", "invert", "coarse_split", "decompose", "stable_coefficient",
              "series_from_json"),
    forms: ("dlog", "wedge", "res", "d", "form_from_json"),
    symbol: ("cc", "cc_eps_linearization", "additive_symbol", "tame_symbol"),
    witt: ("witt_pair", "ghost", "ghost_to_coords", "witt_add"),
    universal: ("phi_coefficients", "evaluate_phi"),
    cli: ("main",),
}
METHODS = ((laurent.LaurentElt, "__mul__", "laurent.mul"),
           (coeff.Ring, "__init__", "coeff.ring_new"),
           (coeff.Ring, "parse_coef", "coeff.parse"))

NAME, START, END, PARENT, OP, ERROR, EXTRA = range(7)


def _layer(module):
    return module.__name__.rpartition(".")[2]


def _log_sharp_extra(args, kw, out):
    """(terms out, window ceiling); windows tell cc's attempts apart."""
    window = args[1] if len(args) > 1 else kw.get("window")
    return (len(out.terms) if out is not None else 0,
            None if window is None else tuple(window.hi))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = [0, 0, 0]  # Coef mul calls, mul term pairs, add calls
        self.attempts = []        # build() calls made by each stable_coefficient span
        self._saved = []

    def reset(self):
        """Start a new pass; spans and counts of the previous one are dropped."""
        self.spans = []
        self.counts[:] = (0, 0, 0)
        self.attempts = []

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name, fn, extra=None):
        tracer = self

        def wrapper(*args, **kw):
            spans, stack = tracer.spans, tracer.stack
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.op,
                   None, None]
            stack.append(len(spans))
            spans.append(rec)
            out = None
            try:
                out = fn(*args, **kw)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if extra is not None:
                    rec[EXTRA] = extra(args, kw, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _stable_coefficient(self, fn):
        tracer = self

        def counted(build, *args, **kw):
            slot = len(tracer.attempts)
            tracer.attempts.append(0)

            def build_counted(window):
                tracer.attempts[slot] += 1
                return build(window)

            return fn(build_counted, *args, **kw)

        return self._wrap("laurent.stable_coefficient", counted)

    def _count_mul(self, fn):
        counts = self.counts

        def wrapper(a, b):
            counts[0] += 1
            counts[1] += len(a.terms) * (len(b.terms) if isinstance(b, coeff.Coef) else 1)
            return fn(a, b)

        return wrapper

    def _count_add(self, fn):
        counts = self.counts

        def wrapper(a, b):
            counts[2] += 1
            return fn(a, b)

        return wrapper

    # -- install / uninstall -----------------------------------------------------

    def install(self):
        extras = {
            "laurent.log_sharp": _log_sharp_extra,
            "universal.phi_coefficients": lambda args, kw, out: out and len(out.coeffs),
            "cli.main": lambda args, kw, out: out,
            "coeff.ring_new": lambda args, kw, out: len(args[1].nil),
        }
        for owner, names in FUNCTIONS.items():
            for attr in names:
                name = f"{_layer(owner)}.{attr}"
                original = getattr(owner, attr)
                if attr == "stable_coefficient":
                    wrapped = self._stable_coefficient(original)
                else:
                    wrapped = self._wrap(name, original, extras.get(name))
                for module in MODULES:
                    if getattr(module, attr, None) is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapped)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, extras.get(name)))
        for attr in ("__mul__", "__rmul__"):
            original = coeff.Coef.__dict__[attr]
            self._saved.append((coeff.Coef, attr, original))
            setattr(coeff.Coef, attr, self._count_mul(original))
        for attr in ("__add__", "__radd__"):
            original = coeff.Coef.__dict__[attr]
            self._saved.append((coeff.Coef, attr, original))
            setattr(coeff.Coef, attr, self._count_add(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- per-layer metrics -------------------------------------------------------

    def metrics(self):
        """Per-layer figures of the spans and counts of one pass."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]

        def ancestor(i, name):
            p = spans[i][PARENT]
            while p >= 0:
                if spans[p][NAME] == name:
                    return p
                p = spans[p][PARENT]
            return -1

        calls, total, self_time = {}, {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(spans):
            name = s[NAME]
            dur = s[END] - s[START]
            own = dur - child[i]
            self_time[name] = self_time.get(name, 0.0) + own
            layer_self[name.partition(".")[0]] += own
            if ancestor(i, name) < 0:
                calls[name] = calls.get(name, 0) + 1
                total[name] = total.get(name, 0.0) + dur

        def by_name(name):
            return [i for i, s in enumerate(spans) if s[NAME] == name]

        log_in_cc = {}
        terms_out = 0
        for i in by_name("laurent.log_sharp"):
            terms, window = spans[i][EXTRA]
            terms_out += terms
            cc = ancestor(i, "symbol.cc")
            if cc >= 0:
                log_in_cc.setdefault(cc, set()).add(window)
        cc_calls = len(by_name("symbol.cc"))
        window_attempts = sum(len(w) for w in log_in_cc.values())

        pairs = len(by_name("witt.witt_pair"))
        dlog_in_pair = sum(1 for i in by_name("forms.dlog")
                           if ancestor(i, "witt.witt_pair") >= 0)
        evals = by_name("universal.evaluate_phi")
        misses = {ancestor(i, "universal.evaluate_phi") for i in by_name("symbol.cc")}
        gens = [s[EXTRA] for i, s in enumerate(spans) if s[NAME] == "coeff.ring_new"
                and (ancestor(i, "universal.phi_coefficients") >= 0
                     or ancestor(i, "universal.evaluate_phi") >= 0)]
        exits = [s[EXTRA] for s in spans if s[NAME] == "cli.main"]
        sc_calls = len(self.attempts)
        sc_attempts = sum(self.attempts)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "coeff.mul_calls": self.counts[0],
            "coeff.mul_pairs": self.counts[1],
            "coeff.add_calls": self.counts[2],
            "coeff.parse_s": total.get("coeff.parse", 0.0),
            "coeff.ring_new_s": total.get("coeff.ring_new", 0.0),
            "laurent.log_sharp_calls": calls.get("laurent.log_sharp", 0),
            "laurent.log_sharp_s": total.get("laurent.log_sharp", 0.0),
            "laurent.log_sharp_terms_out": terms_out,
            "laurent.invert_calls": calls.get("laurent.invert", 0),
            "laurent.invert_s": total.get("laurent.invert", 0.0),
            "laurent.mul_calls": calls.get("laurent.mul", 0),
            "laurent.mul_s": total.get("laurent.mul", 0.0),
            "laurent.coarse_split_s": total.get("laurent.coarse_split", 0.0),
            "laurent.decompose_s": total.get("laurent.decompose", 0.0),
            "laurent.stable_coefficient_calls": sc_calls,
            "laurent.window_attempts": sc_attempts,
            "laurent.window_useful_ratio": ratio(sc_calls, sc_attempts),
            "forms.dlog_calls": calls.get("forms.dlog", 0),
            "forms.dlog_s": total.get("forms.dlog", 0.0),
            "forms.wedge_calls": calls.get("forms.wedge", 0),
            "forms.wedge_s": total.get("forms.wedge", 0.0),
            "forms.res_calls": calls.get("forms.res", 0),
            "forms.res_window_exceeded": sum(1 for i in by_name("forms.res")
                                             if spans[i][ERROR] == "WindowExceededError"),
            "symbol.cc_calls": cc_calls,
            "symbol.cc_self_s": self_time.get("symbol.cc", 0.0),
            "symbol.window_attempts": window_attempts,
            "symbol.window_useful_ratio": ratio(len(log_in_cc), window_attempts),
            "symbol.sharp_branch_share": ratio(len(log_in_cc), cc_calls),
            "symbol.eps_linearization_s": total.get("symbol.cc_eps_linearization", 0.0),
            "witt.witt_pair_calls": calls.get("witt.witt_pair", 0),
            "witt.witt_pair_self_s": self_time.get("witt.witt_pair", 0.0),
            "witt.ghost_s": total.get("witt.ghost", 0.0),
            "witt.ghost_to_coords_s": total.get("witt.ghost_to_coords", 0.0),
            "witt.dlog_per_pair": ratio(dlog_in_pair, pairs),
            "universal.phi_coefficients_s": total.get("universal.phi_coefficients", 0.0),
            "universal.instrument_gens": max(gens, default=0),
            "universal.phi_coeffs_out": sum(s[EXTRA] or 0 for s in spans
                                            if s[NAME] == "universal.phi_coefficients"),
            "universal.evaluate_phi_calls": len(evals),
            "universal.evaluate_phi_s": total.get("universal.evaluate_phi", 0.0),
            "universal.phi_cache_hit_ratio": ratio(sum(1 for i in evals if i not in misses),
                                                   len(evals)),
            "cli.main_self_s": self_time.get("cli.main", 0.0),
            "cli.parse_s": total.get("laurent.series_from_json", 0.0)
                           + total.get("forms.form_from_json", 0.0),
            "cli.exit_0": exits.count(0),
            "cli.exit_1": exits.count(1),
            "cli.exit_2": exits.count(2),
        }
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        return out

    def dump(self, path):
        """Write the spans of the last pass, one JSON array per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT], s[OP], s[ERROR]])
                         + "\n")
