import argparse
import copy
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ccsym
from ccsym.checks import SUITES
from ccsym.cli import main
from ccsym.coeff import RingSpec, ring_new
from ccsym.laurent import series_from_json


def run_raw(text, argv=()):
    """main on a request text: (exit code, the text written to stdout)."""
    buf = io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        from contextlib import redirect_stdout
        with redirect_stdout(buf):
            code = main(list(argv))
    finally:
        sys.stdin = old
    return code, buf.getvalue()


def run_cli(doc, argv=()):
    code, text = run_raw(json.dumps(doc), argv)
    return code, json.loads(text)


def series(n, terms, window=None):
    return {"n": n, "terms": [{"exp": list(e), "coef": c} for e, c in terms],
            "window": window}


def test_cc_example():
    t = series(1, [((1,), "1")])
    code, out = run_cli({"command": "cc", "ring": {"base": "Q"}, "n": 1, "tuple": [t, t]})
    assert code == 0 and out["ok"] and out["value"] == "-1"


def test_nu_example():
    code, out = run_cli({"command": "nu", "n": 2,
                         "tuple": [series(2, [((1, 0), "1")]), series(2, [((0, 1), "1")])]})
    assert code == 0 and out["value"] == 1


def test_res_command():
    doc = {"command": "res", "ring": {"base": "Q"}, "n": 2,
           "form": {"degree": 2, "components": [
               {"dt": [1, 2], "series": series(2, [((-1, -1), "1")])}]}}
    code, out = run_cli(doc)
    assert code == 0 and out["value"] == "1"


def test_decompose_command_round_trips():
    ring_doc = {"base": "Q", "nil": [["e", 2]]}
    f = series(1, [((-1,), "e"), ((0,), "1*e^1 + 1"), ((1,), "1")])
    code, out = run_cli({"command": "decompose", "ring": ring_doc, "series": f})
    assert code == 0 and out["nu"] == [0] and out["c"] == "1"
    ring = ring_new(RingSpec.from_json(ring_doc))
    v_minus = series_from_json(ring, out["v_minus"])
    v_plus = series_from_json(ring, out["v_plus"])
    product = v_minus * v_plus * ring.parse_coef(out["c"])
    assert product == series_from_json(ring, f)


def test_tame_command():
    t = series(1, [((1,), "1")])
    code, out = run_cli({"command": "tame", "ring": {"base": "Q"}, "tuple": [t, t]})
    assert code == 0 and out["value"] == "-1"


@pytest.mark.parametrize("count", [0, 1, 3])
def test_tame_refuses_a_tuple_of_other_than_two_series(count):
    t = series(1, [((1,), "1")])
    code, out = run_cli({"command": "tame", "ring": {"base": "Q"}, "tuple": [t] * count})
    assert code == 1 and out["error"] == {
        "kind": "ParseError", "detail": f"tame takes a tuple of two series, got {count}"}


def test_a_scalar_in_exponent_notation_is_refused_before_it_is_built():
    # "1e10000000" as a Fraction is a 10-million-digit integer: seconds of work
    for text in ("1e10000000", "1.5", "2E3"):
        doc = {"command": "cc", "ring": {"base": "Q"}, "n": 1,
               "tuple": [series(1, [((1,), text)]), series(1, [((1,), "1")])]}
        code, out = run_cli(doc)
        assert code == 1 and out["error"]["kind"] == "ParseError"
        assert repr(text) in out["error"]["detail"]


def test_witt_pair_command():
    doc = {"command": "witt-pair", "ring": {"base": "Q", "nil": [["e", 2]]}, "n": 1,
           "S": [1, 2],
           "f": [series(1, [((1,), "1")])],
           "g": {"coords": {"1": series(1, [((0,), "3")]),
                            "2": series(1, [((0,), "e")])}}}
    code, out = run_cli(doc)
    assert code == 0 and out["integral"] is True
    assert out["coords"] == {"1": "3", "2": "1*e^1"}
    assert out["ghost"]["2"] == "2*e^1 + 9"


def test_phi_command_sorted_and_flagged():
    code, out = run_cli({"command": "phi", "n": 1, "j": [1], "degree": 2,
                         "window": {"lo": [-1], "hi": [1]}})
    assert code == 0 and out["integral"] and out["weight_zero"]
    degrees = [sum(e for *_, e in item["monomial"]) for item in out["coefficients"]]
    assert degrees == sorted(degrees)


def test_check_command_deterministic():
    doc = {"command": "check", "suite": "steinberg", "n": 1, "seed": 7, "trials": 25}
    code1, out1 = run_cli(doc)
    code2, out2 = run_cli(doc)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1["passed"] == 25 and out1["ok_suite"]


def test_error_exit_codes():
    code, out = run_cli({"command": "bogus"})
    assert code == 1 and out["error"]["kind"] == "ParseError"
    code, out = run_cli({"command": "cc", "ring": {"base": "Q"}, "n": 1,
                         "tuple": [series(1, []), series(1, [((1,), "1")])]})
    assert code == 2 and out["error"]["kind"] == "NotInvertible"
    code, out = run_cli({"command": "cc", "ring": {"base": "Z"}, "n": 1,
                         "tuple": [series(1, [((0,), "1"), ((1,), "1")]),
                                   series(1, [((1,), "1")])]})
    assert code == 2 and out["error"]["kind"] == "UnsupportedRing"
    # lex-directed tail: stability refusal, never a value
    code, out = run_cli({"command": "cc", "ring": {"base": "Q"}, "n": 2,
                         "tuple": [series(2, [((0, 0), "1"), ((-1, 1), "1")]),
                                   series(2, [((1, 0), "1")]),
                                   series(2, [((0, 1), "1")])]})
    assert code == 2 and out["error"]["kind"] == "StabilityExhausted"


@pytest.mark.parametrize("command, slot", [("cc", 2), ("nu", 1), ("tame", 2), ("decompose", 1),
                                           ("witt-pair", 1)])
def test_windowed_input_is_a_parse_error_naming_the_slot(command, slot):
    exact = series(1, [((1,), "1")])
    windowed = series(1, [((0,), "1"), ((1,), "1")], window={"lo": [0], "hi": [3]})
    doc = {"command": command, "ring": {"base": "Q"}, "n": 1}
    if command == "decompose":
        doc["series"] = windowed
    elif command == "witt-pair":
        doc.update(S=[1], f=[windowed], g={"coords": {"1": exact}})
    else:
        doc["tuple"] = [exact, windowed][2 - slot:] if command == "nu" else [exact, windowed]
    code, out = run_cli(doc)
    assert code == 1 and out["error"]["kind"] == "ParseError"
    assert out["error"]["detail"].startswith(f"{command}: slot {slot} is a windowed series")


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000,
                                  '{"command": ' + "1" * 5000 + "}"],
                         ids=["nested_too_deep", "integer_too_long"])
def test_undecodable_document_is_a_parse_error(text):
    # json.loads raises RecursionError on the first, a plain ValueError on the second
    code, out = run_raw(text)
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False and doc["error"]["kind"] == "ParseError"


@pytest.mark.parametrize("text", ['{"command": "bogus"}', '{"command": "cc", "ring": '],
                         ids=["unknown_command", "bad_json"])
def test_json_pretty_indents_errors_raised_before_dispatch(text):
    code, out = run_raw(text, ["--json-pretty"])
    doc = json.loads(out)
    assert code == 1 and doc["error"]["kind"] == "ParseError"
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_negative_generator_exponent_is_a_parse_error():
    code, out = run_cli({"command": "cc", "ring": {"base": "Q", "free": ["u"]}, "n": 1,
                         "tuple": [series(1, [((0,), "u^-1")]), series(1, [((1,), "1")])]})
    assert code == 1 and out["error"]["kind"] == "ParseError"


def test_large_prime_modulus_ends_fast_with_unsupported_ring():
    doc = {"command": "cc", "ring": {"base": {"mod": 10 ** 12 + 39}}, "n": 1,
           "tuple": [series(1, [((0,), "1"), ((1,), "1")]),
                     series(1, [((0,), "1"), ((-1,), "1")])]}
    code, out = run_cli(doc)
    assert code == 2 and out["error"]["kind"] == "UnsupportedRing"
    doc["ring"] = {"base": {"mod": 2 ** 89 - 1}}
    code, out = run_cli(doc)
    assert code == 2 and out["error"]["kind"] == "UnsupportedRing"


def test_emitted_values_reparse():
    ring_doc = {"base": "Q", "nil": [["e", 2]]}
    f = series(1, [((-1,), "e"), ((0,), "1*e^1 + 1"), ((1,), "1")])
    code, out = run_cli({"command": "cc", "ring": ring_doc, "n": 1,
                         "tuple": [f, series(1, [((1,), "1")])]})
    assert code == 0
    ring = ring_new(RingSpec.from_json(ring_doc))
    assert str(ring.parse_coef(out["value"])) == out["value"]


def child_env():
    """The environment of a ``python -m ccsym.cli`` child: ``PYTHONPATH``
    starts with the directory holding the ``ccsym`` this process imported,
    then any entries it had, so the child runs the same package, installed
    or not (pytest's ``pythonpath`` reaches only pytest's own process)."""
    root = str(pathlib.Path(ccsym.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([root, rest] if rest else [root])}


def test_subprocess_entry(tmp_path):
    req = tmp_path / "req.json"
    t = series(1, [((1,), "1")])
    req.write_text(json.dumps({"command": "cc", "ring": {"base": "Q"}, "n": 1,
                               "tuple": [t, t]}))
    proc = subprocess.run([sys.executable, "-m", "ccsym.cli", "--file", str(req)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "-1"


def test_file_request_leaves_no_resource_warning(tmp_path):
    # -X dev reports a file left open as a ResourceWarning on stderr
    req = tmp_path / "req.json"
    t = series(1, [((1,), "1")])
    req.write_text(json.dumps({"command": "cc", "ring": {"base": "Q"}, "n": 1,
                               "tuple": [t, t]}))
    proc = subprocess.run([sys.executable, "-X", "dev", "-m", "ccsym.cli", "--file", str(req)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["value"] == "-1"


def test_windowed_term_below_its_floor_is_a_parse_error():
    below = series(1, [((-1,), "5")], window={"lo": [0], "hi": [3]})
    code, out = run_cli({"command": "res", "ring": {"base": "Q"}, "n": 1,
                         "form": {"degree": 1, "components": [{"dt": [1], "series": below}]}})
    assert code == 1 and out["error"]["kind"] == "ParseError"
    assert "(-1,)" in out["error"]["detail"]


def test_form_component_over_other_variable_count_is_a_parse_error():
    code, out = run_cli({"command": "res", "ring": {"base": "Q"}, "n": 2,
                         "form": {"degree": 2, "components": [
                             {"dt": [1, 2], "series": series(1, [((-1,), "5")])}]}})
    assert code == 1 and out["error"]["kind"] == "ParseError"


@pytest.mark.parametrize("suite, field", [("multilinear", "trials"), ("sgn_agreement", "samples"),
                                          ("sgn_agreement", "bound")])
def test_check_refuses_negative_counts(suite, field):
    code, out = run_cli({"command": "check", "suite": suite, field: -3})
    assert code == 1 and out["error"]["kind"] == "ParseError"
    assert field in out["error"]["detail"]


def _cc_doc(ring, f, g):
    return {"command": "cc", "ring": ring, "n": 1, "tuple": [f, g]}


def test_integral_fields_parse_as_before():
    code, out = run_cli(_cc_doc({"base": 9}, series(1, [((0,), "7")]), series(1, [((1,), "1")])))
    assert code == 0 and out["value"] == "7"
    code, out = run_cli(_cc_doc({"base": "Q", "nil": [["e", 2]]}, series(1, [((0,), "7")]),
                                series(1, [((1,), "1")])))
    assert code == 0 and out["value"] == "7"


def test_non_integral_modulus_is_a_parse_error():
    code, out = run_cli(_cc_doc({"base": 9.7}, series(1, [((0,), "7")]),
                                series(1, [((1,), "1")])))
    assert code == 1 and out["error"]["kind"] == "ParseError"


def test_non_integral_exponent_is_a_parse_error():
    code, out = run_cli(_cc_doc({"base": "Q"}, series(1, [((1.9,), "1")]),
                                series(1, [((1,), "1")])))
    assert code == 1 and out["error"]["kind"] == "ParseError"


def test_boolean_exponent_is_a_parse_error():
    code, out = run_cli(_cc_doc({"base": "Q"}, series(1, [((True,), "1")]),
                                series(1, [((1,), "1")])))
    assert code == 1 and out["error"]["kind"] == "ParseError"


def test_non_integral_nil_order_is_a_parse_error():
    code, out = run_cli(_cc_doc({"base": "Q", "nil": [["e", 2.5]]}, series(1, [((0,), "7")]),
                                series(1, [((1,), "1")])))
    assert code == 1 and out["error"]["kind"] == "ParseError"


def test_infinite_number_is_a_parse_error():
    # int(inf) raised OverflowError, which escaped the CLI as a traceback
    code, out = run_cli({"command": "phi", "n": 1, "degree": float("inf")})
    assert code == 1 and out["error"]["kind"] == "ParseError"


def test_dropped_flags_are_refused():
    t = series(1, [((1,), "1")])
    with pytest.raises(SystemExit):
        run_cli({"command": "cc", "ring": {"base": "Q"}, "n": 1, "tuple": [t, t]},
                ["--seed", "3"])


GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())
GOLDEN_BY_NAME = {case["name"]: case["request"] for case in GOLDEN}


def _json_paths(node, prefix=()):
    """Every path below ``node`` to an object member or array element."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def test_a_value_of_the_wrong_json_type_answers_json():
    """Each field of each golden request but ``command``, replaced by each of
    ``[]``, ``{}``, ``1``, ``"x"``, ``null``, ``true`` and ``-1``, ends in one
    JSON line: ``ok`` with exit 0 when the request is still valid (an unused
    or optional field), else a typed error with exit 1 or 2, never a
    traceback."""
    failures = []
    for case in GOLDEN:
        for path in _json_paths(case["request"]):
            if path == ("command",):
                continue
            for value in ([], {}, 1, "x", None, True, -1):
                doc = copy.deepcopy(case["request"])
                node = doc
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                try:
                    code, text = run_raw(json.dumps(doc))
                    out = json.loads(text)
                    assert text.count("\n") == 1
                    if code == 0:
                        assert out["ok"] is True
                    else:
                        assert code in (1, 2) and out["ok"] is False and out["error"]["kind"]
                except Exception as exc:  # a traceback too: collected, reported below
                    failures.append((case["name"], path, value, repr(exc)))
    assert not failures, f"{len(failures)} requests: {failures[:5]}"


@pytest.mark.parametrize("ring, detail", [
    ([], "the ring must be a JSON object"),
    ({"base": "Q", "free": "uv"}, "free must be a list of generator names"),
    ({"base": "Q", "free": [1]}, "free must be a list of generator names"),
], ids=["ring_list", "free_string", "free_number"])
def test_a_malformed_ring_is_a_parse_error(ring, detail):
    t = series(1, [((1,), "1")])
    code, out = run_cli({"command": "cc", "ring": ring, "n": 1, "tuple": [t, t]})
    assert code == 1 and out["error"]["kind"] == "ParseError"
    assert out["error"]["detail"].startswith(detail)


@pytest.mark.parametrize("field, value, detail", [
    ("series", [], "a series must be a JSON object"),
    ("coef", 1, "a coefficient must be a string"),
    ("coords", [], "g.coords must be a JSON object"),
], ids=["series", "coef", "coords"])
def test_a_malformed_document_names_it(field, value, detail):
    t = series(1, [((1,), "1")])
    doc = {"command": "witt-pair", "ring": {"base": "Q"}, "n": 1, "S": [1], "f": [t],
           "g": {"coords": {"1": t}}}
    if field == "series":
        doc["f"] = [value]
    elif field == "coef":
        t["terms"][0]["coef"] = value
    else:
        doc["g"]["coords"] = value
    code, out = run_cli(doc)
    assert code == 1 and out["error"]["kind"] == "ParseError"
    assert out["error"]["detail"].startswith(detail)


@pytest.mark.parametrize("field, detail", [
    ("components", "components must be a JSON array, got dict"),
    ("dt", "dt must be a JSON array, got dict"),
    ("terms", "terms must be a JSON array, got dict"),
    ("exp", "exp must be a JSON array, got dict"),
])
def test_an_array_given_as_an_object_is_a_parse_error(field, detail):
    t = series(2, [((1, 0), "1")])
    form = {"degree": 1, "components": [{"dt": [1], "series": t}]}
    if field == "components":
        form = {"degree": 2, "components": {}}
    elif field == "dt":
        form["components"][0]["dt"] = {}
    elif field == "terms":
        t["terms"] = {}
    else:
        t["terms"][0]["exp"] = {}
    code, out = run_cli({"command": "res", "ring": {"base": "Q"}, "n": 2, "form": form})
    assert code == 1 and out["error"]["kind"] == "ParseError"
    assert out["error"]["detail"] == detail


@pytest.mark.parametrize("nil, detail", [
    ([[1, 2]], "a nil generator name must be a string, got 1"),
    ({"e": 2}, "nil must be a JSON array, got dict"),
    (["e"], "a nil generator must be a JSON array, got str"),
], ids=["name_number", "nil_object", "generator_string"])
def test_a_malformed_nil_generator_is_a_parse_error(nil, detail):
    t = series(1, [((1,), "1")])
    code, out = run_cli({"command": "cc", "ring": {"base": "Q", "nil": nil}, "n": 1,
                         "tuple": [t, t]})
    assert code == 1 and out["error"]["kind"] == "ParseError"
    assert out["error"]["detail"] == detail


def _constant_power(k, constant="2", ring=None):
    """``cc(t1^k, t2^k, c)``: the constant slot's exponent is ``k^2``."""
    return {"command": "cc", "ring": ring or {"base": "Q"}, "n": 2,
            "tuple": [series(2, [((k, 0), "1")]), series(2, [((0, k), "1")]),
                      series(2, [((0, 0), constant)])]}


def test_a_constant_power_past_the_printable_digits_is_refused():
    # 2^10000 has 3011 digits; 2^14400 would have 4335, past the 4300 an int
    # prints with by default, and is refused before it is computed, where it
    # was computed and then failed to print as a ParseError with exit 1
    code, out = run_cli(_constant_power(100))
    assert code == 0 and len(out["value"]) == 3011
    code, out = run_cli(_constant_power(120))
    assert code == 2 and out["error"]["kind"] == "UnsupportedRing"
    assert out["error"]["detail"].startswith("constant slot 3: (2)^14400 ")


@pytest.mark.parametrize("ring, constant, value", [
    ({"base": "Q"}, "-1", "1"),
    ({"base": "Q", "nil": [["e", 2]]}, "-1 + e", "-360000*e^1 + 1"),
    ({"base": {"mod": 7}}, "3", "1"),
], ids=["minus_one", "minus_one_plus_nilpotent", "mod_7"])
def test_a_constant_of_bounded_powers_keeps_any_exponent(ring, constant, value):
    # (-1)^360000, (-1 + e)^360000 = 1 - 360000 e and 3^360000 = 1 mod 7
    code, out = run_cli(_constant_power(600, constant, ring))
    assert code == 0 and out["value"] == value


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_check_suite_passes_through_the_cli(suite, n):
    # the small sizes each suite takes: 3 trials, phi to degree 2 on the
    # radius-1 cube, 50 sign samples
    doc = {"command": "check", "suite": suite, "n": n, "trials": 3, "seed": 0,
           "degree": 2, "radius": 1, "samples": 50}
    code, out = run_cli(doc)
    assert code == 0 and out["ok_suite"], out


# the bytes the per-call parser wrote, recorded before it was built once per process
HELP = ("usage: ccsym [-h] [--file FILE] [--json-pretty]\n\n"
        "exact higher Contou-Carrere symbols, residues and Witt pairings\n\n"
        "options:\n"
        "  -h, --help     show this help message and exit\n"
        "  --file FILE    read the JSON request from a file instead of stdin\n"
        "  --json-pretty\n")
SEED_REFUSAL = ("usage: ccsym [-h] [--file FILE] [--json-pretty]\n"
                "ccsym: error: unrecognized arguments: --seed 3\n")


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    (["--help"], 0, HELP, ""),
    (["--seed", "3"], 2, "", SEED_REFUSAL),
], ids=["help", "seed_refusal"])
def test_the_parser_writes_the_recorded_bytes(monkeypatch, capsys, argv, code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    for _ in range(2):  # the parser is shared, so a second call must read the same
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == code
        assert capsys.readouterr() == (stdout, stderr)


def test_main_builds_no_parser_per_call(monkeypatch):
    run_cli({"command": "nu", "n": 1, "tuple": []})
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kw):
        built.append(args)
        real(self, *args, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    t = series(1, [((1,), "1")])
    for argv in ([], ["--json-pretty"]) * 3:
        code, _ = run_cli({"command": "cc", "n": 1, "tuple": [t, t]}, argv)
        assert code == 0
    assert built == []


def test_import_loads_only_what_every_command_needs():
    # witt and universal load in their own handlers, checks in the check
    # handler; the value classes are plain __slots__ classes, so dataclasses
    # (with inspect and ast) never loads
    code = ("import sys, ccsym.cli; print(sorted({'ccsym.checks', 'ccsym.witt', "
            "'ccsym.universal', 'dataclasses'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("name, field, value", [
    ("witt_pair_z9", "S", "12"), ("witt_pair_z9", "S", {"1": 5}),
    ("witt_pair_z9", "f", "x"), ("witt_pair_z9", "f", {"1": {"n": 1, "terms": []}}),
    ("phi_n2_j12", "j", "12"), ("phi_n2_j12", "j", {"1": 0, "2": 0}),
    ("cc_q_n1_t_t", "tuple", "ab"),
], ids=["S_string", "S_object", "f_string", "f_object", "j_string", "j_object", "tuple_string"])
def test_a_string_or_object_for_an_array_is_a_parse_error(name, field, value):
    # "12" was read as S = {1, 2} or j = (1, 2), and an object as its keys,
    # each answering ok
    code, out = run_cli(dict(GOLDEN_BY_NAME[name], **{field: value}))
    assert code == 1 and out["error"] == {
        "kind": "ParseError", "detail": f"{field} must be a JSON array, got {type(value).__name__}"}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_check_refuses_a_negative_n(suite):
    code, out = run_cli({"command": "check", "suite": suite, "n": -1})
    assert code == 1 and out["error"] == {"kind": "ParseError",
                                          "detail": "n must not be negative, got -1"}
