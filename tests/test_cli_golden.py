"""Golden CLI corpus: every response must match the recorded bytes exactly.

``data/cli_golden.json`` holds requests over all eight commands (sharp ``cc``
at n = 1 and 2, ``decompose``, a windowed ``res``, ``witt-pair`` over Z/9 at
n = 1 and over ``Q[e]/(e^2)`` and ``Z/9[e]/(e^2)`` at n = 2 with
S = {1..6}, ``phi``, ``check`` suites) and error cases, each with its argv, exit code and
the exact stdout the engine wrote when the corpus was recorded, among them
``phi`` at degree 3, ``cc`` over Z/9 and over ``Q[e]/(e^3)`` with a
non-scalar leading coefficient, a ``cc`` whose constant power would pass the
digits an int prints with, ``check antisymmetric`` at n = 0, and malformed
requests.  The CI smoke step replays the whole corpus through
``python -S -X dev -m ccsym.cli`` subprocesses, each of which must write
nothing to stderr.  Engine refactors must leave every response
byte-identical, and must give the same responses with ``Coef.terms`` and
``LaurentElt.terms`` unreadable.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from ccsym.cli import main
from ccsym.coeff import Coef
from ccsym.laurent import LaurentElt

CORPUS = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())


def replay(case):
    """``main`` on a corpus entry in process: (exit code, stdout)."""
    buf = io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(json.dumps(case["request"], sort_keys=True))
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(case["argv"]))
    finally:
        sys.stdin = old
    return code, buf.getvalue()


@pytest.mark.parametrize("case", CORPUS, ids=[c["name"] for c in CORPUS])
def test_golden_response(case):
    assert replay(case) == (case["exit"], case["stdout"])


def test_the_engine_never_reads_terms(monkeypatch):
    # terms is decoded on each read for callers outside the engine; the
    # engine reads the packed stores, so no response depends on terms
    def unreadable(self):
        raise AssertionError(f"the engine read {type(self).__name__}.terms")

    monkeypatch.setattr(Coef, "terms", property(unreadable))
    monkeypatch.setattr(LaurentElt, "terms", property(unreadable))
    assert [c["name"] for c in CORPUS if replay(c) != (c["exit"], c["stdout"])] == []


def test_corpus_covers_every_command():
    from ccsym.cli import _COMMANDS
    assert {c["request"]["command"] for c in CORPUS} >= set(_COMMANDS)
