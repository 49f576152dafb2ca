"""certified_residue: one evaluation, up to the ceiling the residue needs."""

import contextlib
import io
import json
import pathlib
import random
import sys

import pytest

from ccsym import forms, laurent, symbol
from ccsym.checks import (
    default_ring,
    random_invertible_series,
    random_laurent_poly,
    random_nilpotent_coef,
)
from ccsym.coeff import RingSpec, ring_new
from ccsym.cli import main
from ccsym.errors import ParseError, StabilityExhaustedError, UnsupportedRingError
from ccsym.forms import DiffForm, Dlog, Log, certified_residue, certified_residues, dlog, wedge
from ccsym.laurent import (
    LaurentElt,
    Window,
    from_terms,
    log_sharp,
    one,
    stable_coefficient,
    t_var,
    valuation,
    zero,
)
from ccsym.symbol import cc
from ccsym.witt import IndexSet, WittVector, ghost, witt_pair


def _build(g, fs):
    """The caller-supplied build of the stability protocol: g ^ dlog f_1 ^ ..."""
    n = len(fs)

    def build(window):
        form = DiffForm.from_series(g)
        for f in fs:
            form = wedge(form, dlog(f, window))
        top = form.comps.get(tuple(range(1, n + 1)))
        return top if top is not None else zero(g.ring, n)

    return build


def _at_unit_valuations(rng, ring, n):
    """n random invertible series, the j-th shifted to valuation e_j, so that
    res(g dlog f_1 ^ ... ^ dlog f_n) reads g's constant term at det 1."""
    fs = []
    for j in range(n):
        f = random_invertible_series(rng, ring, n)
        e = tuple(int(i == j) for i in range(n))
        fs.append(f.shift(tuple(a - b for a, b in zip(e, valuation(f)))))
    return fs


def _with_unit_constant(rng, ring, n, g):
    return g + one(ring, n) * (rng.randint(1, 3) + random_nilpotent_coef(rng, ring))


@pytest.mark.parametrize("n", [1, 2])
def test_matches_stable_coefficient_on_suite_streams(n):
    # the suites' streams, drawn so that their residues are mostly nonzero:
    # each f_j at valuation e_j and each g with a unit constant term
    tower = default_ring()
    witt_ring = ring_new(RingSpec("Q", nil=(("e1", 2),)))
    rng = random.Random(2300 + n)
    streams = {"residue_det": [], "eps": [], "witt": []}
    for _ in range(6):
        streams["residue_det"].append((one(tower, n), _at_unit_valuations(rng, tower, n)))
        g = _with_unit_constant(rng, tower, n, random_laurent_poly(rng, tower, n))
        streams["eps"].append((g, _at_unit_valuations(rng, tower, n)))
    for _ in range(3):
        fs = _at_unit_valuations(rng, witt_ring, n)
        S = IndexSet.closure(range(1, 5))
        w = WittVector(S, {i: _with_unit_constant(rng, witt_ring, n,
                                                  random_laurent_poly(rng, witt_ring, n, bound=1))
                           for i in S})
        streams["witt"] += [(gi, fs) for gi in ghost(w).ghost.values()]
    for name, cases in streams.items():
        nonzero = 0
        for g, fs in cases:
            expected = stable_coefficient(_build(g, fs), (-1,) * n)
            assert certified_residue(g, [Dlog(f) for f in fs]) == expected, (name, str(g), fs)
            nonzero += bool(expected)
        assert nonzero >= len(cases) - 1, (name, nonzero, len(cases))


WITT_RING = ring_new(RingSpec("Q", nil=(("e1", 2),)))


@pytest.mark.parametrize("n, top", [(2, 6), (3, 4)])
def test_each_witt_ghost_is_its_residue_read_in_one_batch(n, top):
    # witt_pair reads all |S| residues in one batch, whose chains share their
    # dlog end and are multiplied from there; every ghost coordinate must
    # still be res(g(i) dlog f_1 ^ ... ^ dlog f_n), built form by form.  Each
    # f_j has valuation e_j, and each w_i a unit constant term, so that the
    # residues are nonzero and most have a nilpotent part
    rng = random.Random(2400 + n)
    S = IndexSet.closure(range(1, top + 1))
    nilpotent = 0
    for _ in range(4):
        fs = _at_unit_valuations(rng, WITT_RING, n)
        w = WittVector(S, {i: _with_unit_constant(rng, WITT_RING, n,
                                                  random_laurent_poly(rng, WITT_RING, n, bound=1))
                           for i in S})
        got = ghost(witt_pair(fs, w)).ghost
        for i, g in ghost(w).ghost.items():
            expected = stable_coefficient(_build(g, fs), (-1,) * n)
            assert got[i] == expected, (n, i, str(g), [str(f) for f in fs])
            nilpotent += expected != WITT_RING.from_scalar(expected.constant_scalar())
    assert nilpotent >= 2 * top


def _golden_request(name):
    corpus = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
    return next(c["request"] for c in json.loads(corpus.read_text()) if c["name"] == name)


def test_a_witt_pairing_forms_one_chain_product_per_permutation(monkeypatch):
    # At n = 2 and S = {1..6}, multiplying each chain from g(i) forms up to
    # 12 products g(i) * dlog f_1[p] (10 on this request: g(1) is 0); from
    # the dlog end, the 2 products dlog f_2[q] * dlog f_1[p] serve every i
    formed = []
    real = LaurentElt.__mul__

    def counted(a, b):
        if sys._getframe(1).f_code is forms._partial.__code__:
            formed.append((a, b))
        return real(a, b)

    monkeypatch.setattr(LaurentElt, "__mul__", counted)
    request = _golden_request("witt_pair_qe_n2")
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request)))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([]) == 0
    assert json.loads(out.getvalue())["ok"] and 1 <= len(formed) <= 2


def test_log_factor_matches_hand_expansion(Qe):
    # res(log(1 + e t^-1) dlog(1 + t)) = e, as in the forms tests
    e = Qe.gen("e")
    s = from_terms(Qe, 1, [((0,), 1), ((-1,), e)])
    f = from_terms(Qe, 1, [((0,), 1), ((1,), 1)])
    assert certified_residue(Log(s), [Dlog(f)]) == e
    assert certified_residue(log_sharp(s), [Dlog(f)]) == e


def _trial_46():
    """The inputs of trial 46 of the multilinear suite, n = 2, seed 2026."""
    ring = default_ring()
    rng = random.Random(2026)
    for _ in range(47):
        f = random_invertible_series(rng, ring, 2)
        g = random_invertible_series(rng, ring, 2)
        rest = [random_invertible_series(rng, ring, 2) for _ in range(2)]
    return [[f * g] + rest, [f] + rest, [g] + rest]


def test_trial_46_keeps_value_and_trace():
    expected = [
        ("4*e2^2 + 4*e2^1 + 1", ["monomial: (-1)^0", "constant slot 2: (2*e2^1 + 1)^2"]),
        ("2*e2^1 + 1", ["monomial: (-1)^0", "constant slot 2: (2*e2^1 + 1)^1"]),
        ("2*e2^1 + 1", ["monomial: (-1)^0", "constant slot 2: (2*e2^1 + 1)^1"]),
    ]
    for entries, (value, trace) in zip(_trial_46(), expected):
        got, got_trace = cc(entries, want_trace=True)
        assert (str(got), got_trace) == (value, trace)


@pytest.fixture
def expansions(monkeypatch):
    """Every call of laurent._expand_series, as (generator, first coefficients).

    The coefficient of ``g^0`` tells a log (0) from an inverse (``c^-1``, a
    unit): a split record weights ``g^i`` by ``c^-i`` in a log and by
    ``c^-(i + 1)`` in an inverse."""
    calls = []
    real = laurent._expand_series

    def counted(g, coeff_at, *args, **kw):
        calls.append((str(g), tuple(coeff_at(i) for i in range(3))))
        return real(g, coeff_at, *args, **kw)

    monkeypatch.setattr(laurent, "_expand_series", counted)
    return calls


def test_each_log_and_inverse_is_expanded_once_per_cc(expansions):
    tower = default_ring()
    rng = random.Random(2026)
    tuples = _trial_46()
    for _ in range(12):
        tuples.append([random_invertible_series(rng, tower, 2) for _ in range(3)])
    most = 0
    for entries in tuples:
        expansions.clear()
        cc(entries)
        assert len(expansions) == len(set(expansions)), expansions
        most = max(most, len(expansions))
    assert most >= 3


def test_trial_46_expands_only_what_a_live_summand_reaches(expansions):
    # Expanding every factor of every summand took 3, 3 and 1 expansions.
    # Each call's floors leave one live summand, log(S_1) * dt_2/t_2 * ...,
    # and its first product holds no term, so one log is expanded and no
    # inverse
    counts = []
    for entries in _trial_46():
        expansions.clear()
        cc(entries)
        counts.append(["log" if coefs[0] == 0 else "inverse" for _, coefs in expansions])
    assert counts == [["log"], ["log"], ["log"]]


def test_each_log_expands_at_its_own_ceiling(Qe, monkeypatch):
    # cc(t (1 + t), t (1 + e/t)): log(1 + t) meets dlog(1 + e/t), whose floor
    # is t^-3, and needs t^2; log(1 + e/t) meets only dt/t and needs t^0
    e = Qe.gen("e")
    f1 = from_terms(Qe, 1, [((1,), 1), ((2,), 1)])
    f2 = from_terms(Qe, 1, [((1,), 1), ((0,), e)])
    made, ceilings = [], {}

    class Recorded(forms._Factor):
        def __init__(self, x):
            super().__init__(x)
            made.append(self)

    log = laurent._Sharp.log

    def recorded(sharp, hi, *args, **kw):
        ceilings[id(sharp)] = hi
        return log(sharp, hi, *args, **kw)

    monkeypatch.setattr(forms, "_Factor", Recorded)
    monkeypatch.setattr(laurent._Sharp, "log", recorded)
    value, trace = cc([f1, f2], want_trace=True)
    needs = {id(f.sharp): f.need for f in made if isinstance(f.source, Log)}
    assert ceilings == needs and sorted(needs.values()) == [(0,), (2,)]
    assert str(value) == "1*e^1 + -1"
    assert trace == ["monomial: (-1)^1", "sharp slots [1, 2]: exp(res) with res = -1*e^1"]


@pytest.fixture
def records(monkeypatch):
    """Every split record (``laurent._Sharp``) built, in order."""
    made = []
    init = laurent._Sharp.__init__

    def counted(self, g, c):
        made.append(self)
        init(self, g, c)

    monkeypatch.setattr(laurent._Sharp, "__init__", counted)
    return made


def test_cc_hands_its_records_to_the_residues(Qe, records, monkeypatch):
    # cc(1 + t, 1 + e/t): both slots are sharp with nu = 0, so the one
    # exp-res subset reads both; each gets one record, and the residues
    # plan from those, building none of their own
    e = Qe.gen("e")
    f1 = from_terms(Qe, 1, [((0,), 1), ((1,), 1)])
    f2 = from_terms(Qe, 1, [((0,), 1), ((-1,), e)])
    built = []
    real = symbol.certified_residues

    def watched(terms):
        before = len(records)
        out = real(terms)
        built.append(len(records) - before)
        return out

    monkeypatch.setattr(symbol, "certified_residues", watched)
    value = cc([f1, f2])
    assert [r.g for r in records] == [f1, f2] and built == [0]
    assert value == Qe.one() - e  # res(log(1 + t) dlog(1 + e/t)) = -e


def test_a_series_factor_builds_its_own_record(Qe, records):
    # Log(s) builds _Sharp(s, 1); Dlog(f) builds the record of t^-nu f and
    # its leading coefficient, or none when its sharp part is 1; a factor
    # given a record builds none
    e = Qe.gen("e")
    s = from_terms(Qe, 1, [((0,), 1), ((-1,), e)])
    f = from_terms(Qe, 1, [((1,), 2), ((2,), 1)])  # t (2 + t)
    forms._Factor(Log(s))
    assert len(records) == 1 and (records[0].g, records[0].c) == (s, Qe.one())
    forms._Factor(Dlog(f))
    assert len(records) == 2
    assert (records[1].g, records[1].c) == (f.shift((-1,)), Qe.from_scalar(2))
    forms._Factor(Dlog(from_terms(Qe, 1, [((1,), 3)])))  # 3t: S = 1
    forms._Factor(Log(records[0]))
    forms._Factor(Dlog(records[1]))
    assert len(records) == 2


def test_witt_coordinate_window_too_low_raises(Qe, expansions):
    S = IndexSet((1, 2))
    f = from_terms(Qe, 1, [((1,), 1), ((2,), 1)])  # t + t^2: dlog needs an inverse
    low = Window((-1,), (-1,))  # the residue reads g_1 at t^0
    g = WittVector(S, {1: from_terms(Qe, 1, [((0,), 3), ((1,), 1)], low),
                       2: from_terms(Qe, 1, [((0,), Qe.gen("e"))], low)})
    with pytest.raises(StabilityExhaustedError):
        witt_pair([f], g)
    assert expansions == []  # refused before anything was expanded
    # the same coordinates certified far enough pair to a value
    high = Window((0,), (4,))
    g = WittVector(S, {1: from_terms(Qe, 1, [((0,), 3), ((1,), 1)], high),
                       2: from_terms(Qe, 1, [((0,), Qe.gen("e"))], high)})
    exact = WittVector(S, {1: from_terms(Qe, 1, [((0,), 3), ((1,), 1)]),
                           2: from_terms(Qe, 1, [((0,), Qe.gen("e"))])})
    assert witt_pair([f], g) == witt_pair([f], exact)


def test_windowed_zero_form_below_target_raises(Q):
    g = from_terms(Q, 2, [((0, -1), 1)], Window((-1, -1), (0, -1)))
    with pytest.raises(StabilityExhaustedError):
        certified_residue(g, [Dlog(t_var(Q, 2, 1)), Dlog(t_var(Q, 2, 2))])


def test_a_windowed_factor_of_a_dropped_summand_is_still_checked(Q):
    # g's floor puts the one summand above the target in t_1, so it is
    # dropped unevaluated; g is still certified only up to t_2^-5, below the
    # t_2^0 the target asks of it, and that stays an error
    g = from_terms(Q, 2, [((1, -5), 1)], Window((1, -5), (1, -5)))
    with pytest.raises(StabilityExhaustedError):
        certified_residue(g, [Dlog(t_var(Q, 2, 1)), Dlog(t_var(Q, 2, 2))])


def test_a_log_without_rationals_is_refused_when_its_summands_are_dropped(Q, Ze):
    # res(log(1 + t^2) dt/t) = 0: the log's floor t^2 proves the one summand
    # zero, so nothing is expanded; over Z the log is still refused, as when it is
    def residue(ring):
        s = from_terms(ring, 1, [((0,), 1), ((2,), 1)])
        return certified_residue(Log(s), [Dlog(t_var(ring, 1, 1))])

    assert residue(Q) == Q.zero()
    with pytest.raises(UnsupportedRingError):
        residue(Ze)


def test_factor_degrees_are_checked(Q):
    t = t_var(Q, 1, 1)
    g = one(Q, 1)
    with pytest.raises(ParseError):
        certified_residue(Dlog(t), [Dlog(t)])
    with pytest.raises(ParseError):  # one object, once a 0-form and once a 1-form
        certified_residues([(g, [Dlog(t)]), (one(Q, 1), [g])])
