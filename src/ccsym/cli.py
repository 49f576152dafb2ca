"""JSON command-line front end.

Reads one request document from stdin (or ``--file``), dispatches on its
``command`` field and writes a single JSON response to stdout.  Exit codes:
0 on success, 1 on malformed input, 2 on domain errors (non-invertible
input, stability failures, unsupported rings) and on any other exception
the engine raises (``InternalConsistency``).  Rationals are serialized as
strings; responses are key-sorted so identical requests produce identical
bytes.  The argument parser is built once per process, and the ``witt``,
``universal`` and ``checks`` modules load only in the handlers that use them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .coeff import RingSpec, json_int, json_list, json_object, ring_new
from .errors import EngineError, ParseError
from .forms import form_from_json, res
from .laurent import Window, decompose, series_from_json, window_from_json
from .symbol import additive_symbol, cc, tame_symbol


def _ring_from(doc):
    return ring_new(RingSpec.from_json(doc.get("ring", {"base": "Q"})))


def _series_list(ring, docs, what):
    return [series_from_json(ring, doc) for doc in json_list(docs, what)]


def _cmd_cc(doc):
    ring = _ring_from(doc)
    entries = _series_list(ring, doc["tuple"], "tuple")
    value, trace = cc(entries, want_trace=True)
    return {"value": str(value), "branch_trace": trace}


def _cmd_nu(doc):
    ring = _ring_from(doc)
    entries = _series_list(ring, doc["tuple"], "tuple")
    return {"value": additive_symbol(entries)}


def _cmd_res(doc):
    ring = _ring_from(doc)
    n = json_int(doc["n"])
    form = form_from_json(ring, n, doc["form"])
    return {"value": str(res(form))}


def _cmd_decompose(doc):
    ring = _ring_from(doc)
    f = series_from_json(ring, doc["series"])
    dec = decompose(f)
    return dec.to_json()


def _cmd_tame(doc):
    ring = _ring_from(doc)
    entries = _series_list(ring, doc["tuple"], "tuple")
    if len(entries) != 2:
        raise ParseError(f"tame takes a tuple of two series, got {len(entries)}")
    f, g = entries
    return {"value": str(tame_symbol(f, g))}


def _cmd_witt_pair(doc):
    from .witt import IndexSet, WittVector, ghost, witt_pair

    ring = _ring_from(doc)
    fs = _series_list(ring, doc["f"], "f")
    index_set = IndexSet(tuple(sorted(json_int(i) for i in json_list(doc["S"], "S"))))
    coords = {json_int(i): series_from_json(ring, s)
              for i, s in json_object(doc["g"]["coords"], "g.coords").items()}
    vector = WittVector(index_set, coords)
    out = witt_pair(fs, vector)
    ghosts = ghost(out)
    integral = all(c.den == 1 for c in out.coords.values())
    return {"coords": {str(i): str(out.coords[i]) for i in out.S},
            "ghost": {str(i): str(ghosts.ghost[i]) for i in out.S},
            "integral": integral}


def _cmd_phi(doc):
    from .universal import PhiKey, check_integrality, check_weight_zero, phi_coefficients

    n = json_int(doc["n"])
    js = json_list(doc["j"], "j") if "j" in doc else range(1, n + 1)
    key = PhiKey(n, tuple(json_int(j) for j in js))
    degree = json_int(doc.get("degree", 4))
    win = doc.get("window")
    window = Window.cube(n, 3) if win is None else window_from_json(win)
    series = phi_coefficients(key, degree, window)
    return {"coefficients": series.to_json(),
            "integral": check_integrality(series)["integral"],
            "weight_zero": check_weight_zero(series)["weight_zero"]}


def _count(doc, key, default):
    value = json_int(doc.get(key, default))
    if value < 0:
        raise ParseError(f"{key} must not be negative, got {value}")
    return value


def _cmd_check(doc):
    from .checks import SUITES, default_ring  # the check suites load for this command only

    name = doc.get("suite")
    if name not in SUITES:
        raise ParseError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    seed = json_int(doc.get("seed", 0))
    trials = _count(doc, "trials", 20)
    n = _count(doc, "n", 1)
    if name == "phi_integrality":
        report = SUITES[name](n=n, degree=json_int(doc.get("degree", 4)),
                              radius=json_int(doc.get("radius", 3)))
    elif name == "sgn_agreement":
        report = SUITES[name](n=n, bound=_count(doc, "bound", 3),
                              samples=_count(doc, "samples", 10000), seed=seed)
    else:
        ring = _ring_from(doc) if "ring" in doc else default_ring()
        report = SUITES[name](ring, n=n, trials=trials, seed=seed)
    report["ok_suite"] = report["passed"] == report["trials"] and not report["failures"]
    return report


_COMMANDS = {
    "cc": _cmd_cc,
    "nu": _cmd_nu,
    "res": _cmd_res,
    "decompose": _cmd_decompose,
    "tame": _cmd_tame,
    "witt-pair": _cmd_witt_pair,
    "phi": _cmd_phi,
    "check": _cmd_check,
}


def _decode(raw):
    try:
        return json.loads(raw)
    except RecursionError:
        raise ParseError("the request is nested too deeply to decode") from None


def _emit(payload, pretty):
    text = json.dumps(payload, sort_keys=True, indent=2 if pretty else None)
    sys.stdout.write(text + "\n")


# built once per process: parse_args leaves the parser as it found it
_PARSER = argparse.ArgumentParser(
    prog="ccsym",
    description="exact higher Contou-Carrere symbols, residues and Witt pairings")
_PARSER.add_argument("--file", help="read the JSON request from a file instead of stdin")
_PARSER.add_argument("--json-pretty", action="store_true")


def main(argv=None):
    args = _PARSER.parse_args(argv)

    try:
        if args.file:
            with open(args.file) as handle:
                raw = handle.read()
        else:
            raw = sys.stdin.read()
        doc = _decode(raw)
        command = doc["command"]
        handler = _COMMANDS.get(command)
        if handler is None:
            raise ParseError(f"unknown command {command!r}; have {sorted(_COMMANDS)}")
        result = handler(doc)
    except (OSError, EngineError, KeyError, TypeError, ValueError) as exc:
        # unreadable or malformed input reads as a parse error (exit 1), domain errors exit 2
        engine = isinstance(exc, EngineError)
        kind = exc.kind if engine else "ParseError"
        detail = exc.detail if engine else str(exc)
    except Exception as exc:
        # any other exception is a fault of the engine; it still answers as JSON (exit 2)
        kind, detail = "InternalConsistency", f"{type(exc).__name__}: {exc}"
    else:
        payload = {"ok": True}
        payload.update(result)
        _emit(payload, args.json_pretty)
        return 0
    _emit({"ok": False, "error": {"kind": kind, "detail": detail}}, args.json_pretty)
    return 1 if kind == "ParseError" else 2


if __name__ == "__main__":
    sys.exit(main())
