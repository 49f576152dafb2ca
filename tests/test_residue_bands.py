"""Banded residues against unbanded expansions at the same ceilings.

``certified_residues`` expands each ``Log`` and ``Dlog`` factor only on the
band its residue reads.  The oracle evaluates the same wedges from the
public ``log_sharp`` and ``dlog``, unbanded, at the ceilings the planner
chose, and reads the residue with ``res``.  Batches come from the seeded
generators of ``ccsym.checks``; Hypothesis draws the seeds.  Without it these
tests are skipped.
"""

import math
import random
from unittest import mock

import pytest

from ccsym import forms
from ccsym.checks import default_ring, random_invertible_series, random_laurent_poly
from ccsym.forms import DiffForm, Dlog, Log, certified_residues, d, dlog, dlog_monomial, res, wedge
from ccsym.laurent import Window, coarse_split, from_terms, log_sharp

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


def _unbanded(factor):
    """The factor as a form, from unbanded public expansions at its ceiling."""
    x = factor.source
    if factor.parts is None:
        return factor.form
    hi = factor.need or factor.low
    window = Window(tuple(map(min, factor.low, hi)), hi)
    if isinstance(x, Log):
        return DiffForm.from_series(log_sharp(x.s, window))
    return dlog(x.f, window)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
def test_banded_residues_match_unbanded_expansions(n, seed):
    batch = _batch(random.Random(seed), default_ring(), n)
    made = {}

    class Recorded(forms._Factor):
        def __init__(self, x):
            super().__init__(x)
            made[id(x)] = self

    with mock.patch.object(forms, "_Factor", Recorded):
        got = certified_residues(batch)
    want = []
    for g, slots in batch:
        form = _unbanded(made[id(g)])
        for w in slots:
            form = wedge(form, _unbanded(made[id(w)]))
        want.append(res(form))
    assert got == want
