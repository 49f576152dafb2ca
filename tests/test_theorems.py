"""Two theorems on the symbol, checked as identities between its values.

* Reciprocity on the torus (Osipov and Zhu, J. Algebraic Geom. 25, 2016):
  for units ``f, g`` of ``A[t, t^-1]`` the symbols at ``t = 0`` and at
  ``t = infinity`` multiply to 1.  At infinity the local parameter is
  ``1 / t``, so there the symbol is ``cc(f*, g*)``, ``*`` negating every
  exponent.
* Change of variables (Gorchinskiy and Osipov, Funct. Anal. Appl. 50,
  2016): a matrix ``M`` of ``GL_n(Z)`` acting on the exponents takes
  ``cc(f_0, ..., f_n)`` to its power ``det M``, at n = 2 and n = 3.  The same
  paper's continuous automorphisms include the nilpotent substitutions
  ``t_i -> t_i (1 + x_i)``, ``x_i`` a Laurent polynomial with nilpotent
  coefficients, which leave the symbol unchanged; they are checked at n = 1
  and n = 2.

The units are ``a t^k (1 + N)``: ``a`` a nonzero rational, ``N`` a Laurent
polynomial with nilpotent coefficients, so that each stays a unit after any
change of exponents.  The rings are ``Q[e]/(e^3)`` and
``Q[e1, e2]/(e1^2, e2^3)``; at n = 3, where a case costs about 4 ms, only
the first.  Hypothesis draws the seeds of each batch.  The
exp-res branch gives a value its nilpotent part; each batch must hold a share
of such values, so that no identity holds on the sign and the constant
powers alone.  Without Hypothesis these tests are skipped.
"""

import random
from fractions import Fraction

import pytest

from ccsym.checks import random_nilpotent_coef
from ccsym.coeff import RingSpec, ring_new
from ccsym.laurent import from_terms, one
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
    "cycle": ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    "transposition": ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    "shear": ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    "cat_12": ((2, 1, 0), (1, 1, 0), (0, 0, 1)),
}
# by n: the cases of a batch, and how many of their values must have a
# nilpotent part (the fewest seen over 20 seeds)
BATCHES = {2: (30, 5), 3: (20, 3)}
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


@pytest.mark.parametrize("name, matrix", [(name, matrix) for matrix in MATRICES for name in RINGS
                                          if len(MATRICES[matrix]) == 2 or name == "e3"])
@SEEDS
@hypothesis.given(seed=st.integers(0, 2 ** 32))
def test_change_of_variables(name, matrix, seed):
    ring, rng, m = RINGS[name], random.Random(seed), MATRICES[matrix]
    n, det = len(m), det_int(m)
    size, least = BATCHES[n]
    nilpotent = 0
    for _ in range(size):
        fs = [_unit(rng, ring, n) for _ in range(n + 1)]
        value = cc(fs)
        assert cc([_mapped(f, m) for f in fs]) == value ** det, [str(f) for f in fs]
        nilpotent += _nilpotent_part(value)
    assert nilpotent >= least


def _substituted(f, xs):
    """``f`` with each ``t_i`` sent to ``t_i (1 + x_i)``: ``t^l`` goes to
    ``t^l`` times each ``(1 + x_i)^l_i``, the inverse of ``1 + x_i`` being the
    finite sum of the powers of ``-x_i``."""
    ring, n = f.ring, f.n
    ups, downs = [], []
    for x in xs:
        down, power = one(ring, n), one(ring, n)
        while power:
            power = -(power * x)
            down = down + power
        assert down * (one(ring, n) + x) == one(ring, n)
        ups.append(one(ring, n) + x)
        downs.append(down)
    out = from_terms(ring, n, [])
    for l, c in f.terms.items():
        term = from_terms(ring, n, [(l, c)])
        for up, down, k in zip(ups, downs, l):
            term = term * (up if k >= 0 else down) ** abs(k)
        out = out + term
    return out


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", RINGS)
@SEEDS
@hypothesis.given(seed=st.integers(0, 2 ** 32))
def test_a_nilpotent_substitution_keeps_the_symbol(name, n, seed):
    ring, rng = RINGS[name], random.Random(seed)
    nilpotent = changed = 0
    for _ in range(20):
        fs = [_unit(rng, ring, n) for _ in range(n + 1)]
        xs = [from_terms(ring, n, [(tuple(rng.randint(-1, 1) for _ in range(n)),
                                    random_nilpotent_coef(rng, ring)) for _ in range(2)])
              for _ in range(n)]
        value, gs = cc(fs), [_substituted(f, xs) for f in fs]
        assert cc(gs) == value, ([str(f) for f in fs], [str(x) for x in xs])
        nilpotent += _nilpotent_part(value)
        changed += gs != fs
    assert nilpotent >= 5 and changed >= 10
