"""Planned residues against public expansions under windows the stability
protocol grows.

``certified_residues`` drops the summands its floors prove zero, expands each
``Log`` and ``Dlog`` factor only on the band its live summands read, and
evaluates a factor only when a chain of products reaches it.  The oracles
evaluate the same wedges, or single summands, from the public ``log_sharp``
and ``dlog``, unbanded, under the windows ``stable_coefficient`` grows, which
owe nothing to the planner.  Batches come from the seeded generators of
``ccsym.checks``; Hypothesis draws the seeds.  Without it these tests are
skipped.
"""

import math
import operator
import random
from functools import reduce
from itertools import permutations
from unittest import mock

import pytest

from ccsym import forms
from ccsym.checks import (
    default_ring,
    random_invertible_series,
    random_laurent_poly,
    random_nilpotent_coef,
)
from ccsym.forms import DiffForm, Dlog, Log, certified_residues, d, dlog, dlog_monomial, wedge
from ccsym.laurent import (
    LaurentElt,
    Window,
    _generator_parts,
    _le_idx,
    coarse_split,
    from_terms,
    log_sharp,
    one,
    stable_coefficient,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _unit(rng, ring, n, factors):
    """A product of random units: more terms, so fewer residues vanish."""
    return math.prod([random_invertible_series(rng, ring, n) for _ in range(factors)])


def _batch(rng, ring, n):
    """Up to three wedges drawing their factors from one shared pool: logs of
    sharp parts, exact and windowed series, ``Dlog`` factors, and given
    1-forms (monomial ``dlog`` and exact differentials)."""
    zeros = [Log(coarse_split(_unit(rng, ring, n, 3))[2]) for _ in range(2)]
    g = random_laurent_poly(rng, ring, n)
    zeros += [g, from_terms(ring, n, g.terms.items(), Window((-2,) * n, (40,) * n))]
    ones = [Dlog(_unit(rng, ring, n, 2)) for _ in range(3)]
    ones += [dlog_monomial(ring, n, tuple(rng.randint(-1, 1) for _ in range(n))),
             d(random_laurent_poly(rng, ring, n))]
    return [(rng.choice(zeros), [rng.choice(ones) for _ in range(n)])
            for _ in range(rng.randint(1, 3))]


def _sharp(rng, ring, n, lowest):
    """``1 +`` up to four terms at exponents in ``[lowest, 2]^n``; a term with
    a negative exponent gets a nilpotent coefficient, so the series is sharp."""
    pairs = [((0,) * n, 1)]
    for _ in range(rng.randint(0, 4)):
        l = tuple(rng.randint(lowest, 2) for _ in range(n))
        if any(l):
            c = random_nilpotent_coef(rng, ring)
            if min(l) >= 0 and rng.random() < 0.5:
                c = c + rng.choice([1, -1, 2])
            pairs.append((l, c))
    return from_terms(ring, n, pairs)


def _public(x, window):
    """A residue factor as a form, from unbanded public expansions under ``window``."""
    if isinstance(x, Log):
        return DiffForm.from_series(log_sharp(x.s, window))
    if isinstance(x, Dlog):
        return dlog(x.f, window)
    return DiffForm.from_series(x) if isinstance(x, LaurentElt) else x


def _top(g, slots):
    """The build of the stability protocol: the top component of the wedge."""
    n = len(slots)

    def build(window):
        form = _public(g, window)
        for w in slots:
            form = wedge(form, _public(w, window))
        return form.component(range(1, n + 1))

    return build


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
def test_banded_residues_match_unbanded_expansions(n, seed):
    batch = _batch(random.Random(seed), default_ring(), n)
    got = certified_residues(batch)
    want = [stable_coefficient(_top(g, slots), (-1,) * n) for g, slots in batch]
    assert got == want


def _recorded(batch):
    """``certified_residues`` of a batch, and its factors by the id of their source."""
    made = {}

    class Recorded(forms._Factor):
        def __init__(self, x):
            super().__init__(x)
            made[id(x)] = self

    with mock.patch.object(forms, "_Factor", Recorded):
        got = certified_residues(batch)
    return got, made


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
def test_a_summand_dropped_as_floor_dead_is_zero(n, seed):
    # the planner's rule, read off its own floors: a summand whose floors add
    # up above the target in some coordinate is dropped unevaluated.  A log
    # of a series in nonnegative powers has a floor at or above 0, so one
    # more wedge pairs one with the 1-forms of the last
    rng = random.Random(seed)
    batch = _batch(rng, default_ring(), n)
    batch.append((Log(_sharp(rng, default_ring(), n, 0)), batch[-1][1]))
    _, made = _recorded(batch)
    target = (-1,) * n
    for g, slots in batch:
        xs = [g] + slots
        for perm in permutations(range(1, n + 1)):
            idxs = [()] + [(i,) for i in perm]
            floors = [made[id(x)].floors.get(idx) for x, idx in zip(xs, idxs)]
            if None in floors or _le_idx(map(sum, zip(*floors)), target):
                continue  # a component that is zero, or a live summand

            def build(window, xs=xs, idxs=idxs):
                return reduce(operator.mul, [_public(x, window).component(idx)
                                             for x, idx in zip(xs, idxs)])

            assert not stable_coefficient(build, target), (perm, floors)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32), windowed=st.booleans())
def test_no_stored_log_term_lies_below_the_log_floor(n, seed, windowed):
    rng = random.Random(seed)
    ring = default_ring()
    s = _sharp(rng, ring, n, 0 if windowed else -1)
    if windowed:
        s = from_terms(ring, n, s.terms.items(),
                       Window((0,) * n, tuple(rng.randint(0, 3) for _ in range(n))))
    g = s - one(ring, n)
    low = _generator_parts(g)[2]
    floor = forms._log_floor(g, low)
    assert _le_idx(low, floor)
    assert forms._Factor(Log(s)).floors[()] == floor
    windows = [Window.cube(n, 2), Window.box((-1,) * n, tuple(rng.randint(0, 4) for _ in range(n)))]
    if s.hi is None and all(c.is_nilpotent() for c in g.terms.values()):
        windows.append(None)  # the log terminates and is exact
    for window in windows:
        log = log_sharp(s, window)
        assert all(_le_idx(floor, l) for l in log.terms), (str(s), floor, str(log))


def test_the_log_floor_is_its_generators_where_that_is_nonnegative(Qe):
    e = Qe.gen("e")
    s = from_terms(Qe, 2, [((0, 0), 1), ((1, 1), 1), ((2, 1), e), ((-1, 3), e)])
    g = s - one(Qe, 2)
    assert _generator_parts(g)[2] == (-1, 0)
    assert forms._log_floor(g, (-1, 0)) == (-1, 1)


def test_a_terminating_inverse_tops_out_one_nilpotent_factor_lower(Qe):
    # dlog(1 + e t) = e dt / (1 + e t): d(s) = e already spends the one
    # nilpotent factor e^2 = 0 allows, so the inverse adds nothing above t^0
    # and log(1 + t + e/t^2), floor t^-2, is read from t^-1 up
    e = Qe.gen("e")
    log = Log(from_terms(Qe, 1, [((0,), 1), ((1,), 1), ((-2,), e)]))
    inv = Dlog(from_terms(Qe, 1, [((0,), 1), ((1,), e)]))
    got, made = _recorded([(log, [inv])])
    assert made[id(inv)].tops == {(1,): (0,)}
    assert (made[id(log)].low, made[id(log)].band) == ((-2,), (-1,))
    assert got == [stable_coefficient(_top(log, [inv]), (-1,))]
