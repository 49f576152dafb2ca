"""The packed index keys of a series, against the index tuples they stand for.

A key holds one biased field per ``t_j`` with a guard bit above it, ``t_n``
on top.  These properties check the codec on its own terms: the round trip,
the order, the product add and the box tests against ``lex_key``,
``_add_idx`` and ``_le_idx``, the refusal of every index that leaves the
range, and the tuple-keyed ``terms`` view that callers outside the engine
read.  Hypothesis drives them; without it they are skipped.
"""

import pytest

from ccsym import laurent
from ccsym.coeff import RingSpec, ring_new
from ccsym.errors import ParseError, UnsupportedRingError
from ccsym.laurent import (
    INDEX_MAX,
    INDEX_MIN,
    _add_idx,
    _decode,
    _hi_key,
    _layout,
    _le_idx,
    _lo_key,
    _pack,
    from_terms,
    lex_key,
    monomial,
    series_from_json,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
example, given, settings = hypothesis.example, hypothesis.given, hypothesis.settings

CHECK = settings(max_examples=200, deadline=None)
Q = ring_new(RingSpec("Q", nil=(("e", 2),)))

# every coordinate in the key range, its ends drawn often
coordinate = st.one_of(st.integers(INDEX_MIN, INDEX_MAX),
                       st.sampled_from([INDEX_MIN, INDEX_MIN + 1, -1, 0, 1,
                                        INDEX_MAX - 1, INDEX_MAX]))
# a bound may lie anywhere, past the key range too
bound = st.one_of(coordinate, st.integers(-(1 << 40), 1 << 40),
                  st.sampled_from([INDEX_MIN - 1, INDEX_MAX + 1]))


@st.composite
def indices(draw, n, element=coordinate):
    return tuple(draw(element) for _ in range(n))


@st.composite
def index_pairs(draw, element=coordinate):
    n = draw(st.integers(1, 3))
    return n, draw(indices(n, element)), draw(indices(n, element))


def in_range(l):
    return all(INDEX_MIN <= x <= INDEX_MAX for x in l)


# -- the codec ---------------------------------------------------------------------

@CHECK
@given(index_pairs())
def test_pack_and_decode_round_trip(case):
    n, l, _ = case
    k = _pack(l)
    assert k is not None and k >= 0 and not k & _layout(n)[1]
    assert _decode(k, n) == l


@CHECK
@given(index_pairs())
def test_int_order_is_lex_order(case):
    _, l, m = case
    assert (_pack(l) < _pack(m)) == (lex_key(l) < lex_key(m))
    assert (_pack(l) == _pack(m)) == (l == m)


@CHECK
@example((2, (INDEX_MAX, 0), (1, 0)))
@example((2, (0, INDEX_MIN), (0, -1)))
@example((3, (0, 0, INDEX_MAX), (0, 0, 1)))
@example((3, (INDEX_MIN, 5, 0), (-1, -5, 0)))
@given(index_pairs())
def test_the_packed_add_is_the_index_add_or_sets_a_guard_bit(case):
    """``ka + kb - bias`` is the key of ``la + lb`` when that lies in the
    range, and has a guard bit set exactly when it does not: a field that
    overflows or borrows, the top field and negative keys included."""
    n, la, lb = case
    bias, guard = _layout(n)
    k = _pack(la) + _pack(lb) - bias
    l = _add_idx(la, lb)
    assert bool(k & guard) == (not in_range(l))
    if in_range(l):
        assert k == _pack(l)


@CHECK
@given(st.data())
def test_the_box_tests_are_the_index_order(data):
    """``((H | G) - k) & G == G`` is ``l <= hi`` and ``((k | G) - L) & G == G``
    is ``lo <= l``, for bounds inside the key range and past it."""
    n = data.draw(st.integers(1, 3))
    l = data.draw(indices(n))
    hi, lo = data.draw(indices(n, bound)), data.draw(indices(n, bound))
    k, guard = _pack(l), _layout(n)[1]
    assert ((_hi_key(hi) - k) & guard == guard) == _le_idx(l, hi)
    assert (((k | guard) - _lo_key(lo)) & guard == guard) == _le_idx(lo, l)


# -- refusals ------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_engine_made_index_out_of_range_is_refused(n):
    """Each field, the top one included, overflowing in a product, a shift
    and a power, and borrowing in a product and a derivative."""
    for j in range(1, n + 1):
        top = monomial(Q, n, laurent._unit_vector(n, j, INDEX_MAX))
        bottom = monomial(Q, n, laurent._unit_vector(n, j, INDEX_MIN))
        up = monomial(Q, n, laurent._unit_vector(n, j, 1))
        down = monomial(Q, n, laurent._unit_vector(n, j, -1))
        for make in (lambda: top * up, lambda: bottom * down,
                     lambda: top.shift(laurent._unit_vector(n, j, 1)),
                     lambda: bottom.shift(laurent._unit_vector(n, j, -1)),
                     lambda: up.shift(laurent._unit_vector(n, j, 1 << 40)),
                     lambda: top ** 2, lambda: bottom.partial(j),
                     lambda: laurent.product_coefficient(
                         top, up, laurent._unit_vector(n, j, INDEX_MAX + 1))):
            with pytest.raises(UnsupportedRingError, match="leaves the range"):
                make()
        # in range up to the ends: no refusal
        assert (top * down).coefficient(laurent._unit_vector(n, j, INDEX_MAX - 1)) == Q.one()
        assert bottom.shift(laurent._unit_vector(n, j, 1)) == \
            monomial(Q, n, laurent._unit_vector(n, j, INDEX_MIN + 1))


@pytest.mark.parametrize("exp", [[INDEX_MAX + 1], [INDEX_MIN - 1], [10 ** 20], [0, -(10 ** 20)]])
def test_a_parsed_index_out_of_range_is_refused(exp):
    doc = {"n": len(exp), "terms": [{"exp": exp, "coef": "1"}]}
    with pytest.raises(ParseError, match=str(tuple(exp)).replace("(", r"\(").replace(")", r"\)")):
        series_from_json(Q, doc)
    with pytest.raises(ParseError, match="outside the range"):
        monomial(Q, len(exp), exp)


def test_the_range_ends_parse():
    for exp in ([INDEX_MIN], [INDEX_MAX], [INDEX_MAX, INDEX_MIN]):
        f = series_from_json(Q, {"n": len(exp), "terms": [{"exp": exp, "coef": "1"}]})
        assert f.to_json()["terms"] == [{"exp": exp, "coef": "1"}]


# -- the terms view ------------------------------------------------------------------

def test_the_terms_view_reads_as_a_tuple_keyed_dict():
    """The shapes read outside the engine: ``min(...)[0]``, ``[(a,)]``,
    ``len``, ``.items()``, ``.get``, ``== dict`` and ``!= dict``."""
    e = Q.gen("e")
    f = from_terms(Q, 1, [((2,), 3), ((-1,), e), ((0,), 1)])
    want = {(2,): Q.from_scalar(3), (-1,): e, (0,): Q.one()}
    assert min(f.terms)[0] == -1
    assert f.terms[(-1,)] == e and f.terms[(2,)] == Q.from_scalar(3)
    assert len(f.terms) == 3
    assert dict(f.terms.items()) == want and sorted(f.terms.items()) == sorted(want.items())
    assert f.terms.get((0,)) == Q.one() and f.terms.get((1,)) is None
    assert f.terms.get((10 ** 20,)) is None and f.terms.get((0, 0)) is None
    assert f.terms == want and not f.terms != want
    assert f.terms != {(0,): Q.one()} and not f.terms == {(0,): Q.one()}
    assert (0,) in f.terms and (1,) not in f.terms and ("x",) not in f.terms
    with pytest.raises(KeyError):
        f.terms[(1,)]
    g = from_terms(Q, 2, [((1, -1), 2), ((0, 0), 1)])
    assert list(g.terms) == [(1, -1), (0, 0)]  # in the order of construction
    assert g.terms == {(1, -1): Q.from_scalar(2), (0, 0): Q.one()}
