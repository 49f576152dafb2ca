"""Two theorems on the symbol, checked as identities between its values.

* Reciprocity on the torus (Osipov and Zhu, J. Algebraic Geom. 25, 2016):
  for units ``f, g`` of ``A[t, t^-1]`` the symbols at ``t = 0`` and at
  ``t = infinity`` multiply to 1.  At infinity the local parameter is
  ``1 / t``, so there the symbol is ``cc(f*, g*)``, ``*`` negating every
  exponent.
* Change of variables (Gorchinskiy and Osipov, Funct. Anal. Appl. 50,
  2016): a matrix ``M`` of ``GL_2(Z)`` acting on the exponents takes
  ``cc(f_1, f_2, f_3)`` to its power ``det M``.

The units are ``a t^k (1 + N)``: ``a`` a nonzero rational, ``N`` a Laurent
polynomial with nilpotent coefficients, so that each stays a unit after any
change of exponents.  The rings are ``Q[e]/(e^3)`` and
``Q[e1, e2]/(e1^2, e2^3)``.  Hypothesis draws the seeds of each batch.  The
exp-res branch gives a value its nilpotent part; each batch must hold a share
of such values, so that no identity holds on the sign and the constant
powers alone.  Without Hypothesis these tests are skipped.
"""

import random
from fractions import Fraction

import pytest

from ccsym.checks import random_nilpotent_coef
from ccsym.coeff import RingSpec, ring_new
from ccsym.laurent import from_terms
from ccsym.symbol import cc, det_int

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

RINGS = {
    "e3": ring_new(RingSpec("Q", nil=(("e", 3),))),
    "e1e2": ring_new(RingSpec("Q", nil=(("e1", 2), ("e2", 3)))),
}
MATRICES = {
    "identity": ((1, 0), (0, 1)),
    "swap": ((0, 1), (1, 0)),
    "shear_12": ((1, 1), (0, 1)),
    "shear_21": ((1, 0), (1, 1)),
    "cat": ((2, 1), (1, 1)),
    "reflection": ((-1, 0), (0, 1)),
}
SEEDS = hypothesis.settings(max_examples=2, deadline=None, derandomize=True)


def _unit(rng, ring, n):
    """``a t^k (1 + N)``, ``k`` in ``[-1, 1]^n`` and ``N`` two or three terms
    at exponents in ``[-1, 1]^n``: with this few exponents, terms of the
    slots often meet at the residue."""
    a = rng.choice([1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])
    k = tuple(rng.randint(-1, 1) for _ in range(n))
    pairs = [((0,) * n, 1)]
    for _ in range(rng.randint(2, 3)):
        pairs.append((tuple(rng.randint(-1, 1) for _ in range(n)),
                      random_nilpotent_coef(rng, ring)))
    return from_terms(ring, n, pairs).shift(k) * a


def _mapped(f, matrix):
    """``f`` with each exponent ``l`` sent to ``matrix * l``."""
    return from_terms(f.ring, f.n, [(tuple(sum(m * x for m, x in zip(row, l)) for row in matrix),
                                     c) for l, c in f.terms.items()])


def _nilpotent_part(value):
    return value != value.ring.from_scalar(value.constant_scalar())


@pytest.mark.parametrize("name", RINGS)
@SEEDS
@hypothesis.given(seed=st.integers(0, 2 ** 32))
def test_reciprocity_on_the_torus(name, seed):
    ring, rng = RINGS[name], random.Random(seed)
    star = ((-1,),)
    nilpotent = 0
    for _ in range(40):
        f, g = _unit(rng, ring, 1), _unit(rng, ring, 1)
        value = cc([f, g])
        assert value * cc([_mapped(f, star), _mapped(g, star)]) == ring.one(), (str(f), str(g))
        nilpotent += _nilpotent_part(value)
    assert nilpotent >= 10


@pytest.mark.parametrize("matrix", MATRICES)
@pytest.mark.parametrize("name", RINGS)
@SEEDS
@hypothesis.given(seed=st.integers(0, 2 ** 32))
def test_change_of_variables(name, matrix, seed):
    ring, rng, m = RINGS[name], random.Random(seed), MATRICES[matrix]
    det = det_int(m)
    nilpotent = 0
    for _ in range(30):
        fs = [_unit(rng, ring, 2) for _ in range(3)]
        value = cc(fs)
        assert cc([_mapped(f, m) for f in fs]) == value ** det, [str(f) for f in fs]
        nilpotent += _nilpotent_part(value)
    assert nilpotent >= 5
