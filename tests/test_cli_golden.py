"""Golden CLI corpus: every response must match the recorded bytes exactly.

``data/cli_golden.json`` holds requests over all eight commands (sharp ``cc``
at n = 1 and 2, ``decompose``, a windowed ``res``, ``witt-pair`` over Z/9 at
n = 1 and over ``Q[e]/(e^2)`` and ``Z/9[e]/(e^2)`` at n = 2 with
S = {1..6}, ``phi``, ``check`` suites) and error cases, each with its argv, exit code and
the exact stdout the engine wrote when the corpus was recorded, among them
``phi`` at degree 3, ``cc`` over Z/9 and over ``Q[e]/(e^3)`` with a
non-scalar leading coefficient, a ``cc`` whose constant power would pass the
digits an int prints with, and malformed requests.  The CI smoke step
replays the whole corpus through ``python -S -m ccsym.cli`` subprocesses.
Engine refactors must leave every response byte-identical.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from ccsym.cli import main

CORPUS = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", CORPUS, ids=[c["name"] for c in CORPUS])
def test_golden_response(case):
    buf = io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(json.dumps(case["request"], sort_keys=True))
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(case["argv"]))
    finally:
        sys.stdin = old
    assert code == case["exit"]
    assert buf.getvalue() == case["stdout"]


def test_corpus_covers_every_command():
    from ccsym.cli import _COMMANDS
    assert {c["request"]["command"] for c in CORPUS} >= set(_COMMANDS)
