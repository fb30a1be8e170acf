"""The exact layer against the plain ``Fraction`` loops it replaced.

``convergent_iter``, ``even_contraction`` and ``series_to_cf`` run on integer
numerators and denominators and reduce a value once.  Each must give what
the straightforward ``Fraction`` recurrence gives, value for value.  A term
the library makes has one type rule: an ``int`` when its value is integral,
else a reduced ``Fraction``; a convergent's p, q and value, and a series
term of ``euler_series_expansion``, are ``Fraction`` values.  The reference
loops below are written out in ``Fraction`` arithmetic; the series one stops
only at a zero series term.
"""

import copy
import itertools
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contfrac.core import (
    ContinuedFraction,
    ContractionError,
    Convergent,
    PartialTerm,
    Poly,
    TermSpec,
    ZeroContinuantError,
    _exact,
    convergent_iter,
    equivalence_transform,
    euler_series_expansion,
    even_contraction,
)
from contfrac.riccati import RiccatiProblem, cf_from_riccati
from contfrac.series import SeriesSpec, ZeroPivotError, series_to_cf


def fraction_convergents(leading, terms):
    """(p_k, q_k) by the three-term recurrence in Fraction arithmetic."""
    p_prev, q_prev = F(1), F(0)
    p, q = leading, F(1)
    out = []
    for b, a in terms:
        p, p_prev = a * p + b * p_prev, p
        q, q_prev = a * q + b * q_prev, q
        out.append((p, q))
    return out


def fraction_contraction(terms):
    """Even-contraction terms, then the depth of its error or None."""
    it, out = iter(terms), []
    r, s = -1, 0
    for depth, (b_odd, a_odd) in enumerate(it, start=1):
        t_even = next(it, None)
        if t_even is None:
            out.append((-b_odd * r, a_odd + b_odd * s))
            return out, None
        b_even, a_even = t_even
        if a_even == 0:
            return out, depth
        out.append((-a_even * b_odd * r, a_even * a_odd + a_even * b_odd * s + b_even))
        r, s = F(b_even, a_even), F(1, a_even)
    return out, None


def fraction_series_terms(pairs):
    """Series-to-fraction terms, then the depth of the first zero series term or None."""
    n_prev1, d_prev1 = pairs[0]
    if not (n_prev1 and d_prev1):
        return [], 1
    out = [(n_prev1, d_prev1)]
    n_prev2 = 1
    for depth, (nk, dk) in enumerate(pairs[1:], 2):
        if not (nk and dk):
            return out, depth
        out.append((n_prev2 * nk * d_prev1 * d_prev1, n_prev1 * dk - nk * d_prev1))
        n_prev2, n_prev1, d_prev1 = n_prev1, nk, dk
    return out, None


def fraction_euler_series(terms):
    """Series terms t_j in Fraction arithmetic, then the index of a zero q_j or None."""
    out = []
    q_prev, q = F(0), F(1)
    prod = F(-1)
    for j, (b, a) in enumerate(terms, start=1):
        q_next = a * q + b * q_prev
        prod *= -b
        if q_next == 0:
            return out, j
        out.append(prod / (q * q_next))
        q_prev, q = q, q_next
    return out, None


def same(x, y):
    return x == y and type(x) is type(y)


def typed(x):
    """``x`` as the exact layer types a term: an int when integral, else a Fraction."""
    return x.numerator if x.denominator == 1 else x


def same_pairs(got, want):
    return len(got) == len(want) and all(same(gb, typed(wb)) and same(ga, typed(wa))
                                         for (gb, ga), (wb, wa) in zip(got, want))


# signed ints and non-unit-denominator Fractions, zero among both; small
# values make zero continuants and zero contracted denominators common
ints = st.integers(min_value=-4, max_value=4)
fractions = st.builds(F, st.integers(min_value=-9, max_value=9),
                      st.integers(min_value=2, max_value=6))
exact = st.one_of(ints, fractions, st.just(F(0)))
leadings = st.one_of(ints, fractions)
term_lists = st.lists(st.tuples(exact, exact), max_size=40)


def raw_cf(leading, terms):
    """A fraction whose stream yields ``terms`` with their types as drawn."""
    return ContinuedFraction(leading, lambda: itertools.starmap(PartialTerm, terms))


@settings(max_examples=300, deadline=None)
@given(leadings, term_lists)
def test_convergents_match_the_fraction_recurrence(leading, terms):
    got = list(convergent_iter(raw_cf(leading, terms)))
    want = fraction_convergents(leading, terms)
    assert len(got) == len(want)
    prod = F(1)
    prev = (leading, F(1))
    for k, (c, (p, q), (b, _)) in enumerate(zip(got, want, terms), start=1):
        assert c.index == k
        assert same(c.p, p) and same(c.q, q)
        assert c.defined == (q != 0)
        if q:
            assert same(c.value, p / q)
        else:
            with pytest.raises(ZeroContinuantError):
                c.value
        assert c == Convergent(k, p, q) and hash(c) == hash(Convergent(k, p, q))
        # determinant formula on the signed terms
        prod *= b
        assert c.p * prev[1] - prev[0] * c.q == (-1) ** (k + 1) * prod
        prev = (c.p, c.q)


# a zero a_{2k}, given as 0 and as Fraction(0), at depths 1 and 2
@settings(max_examples=300, deadline=None)
@given(leadings, term_lists)
@example(0, [(1, 1), (1, 0)])
@example(0, [(1, 1), (1, F(0))])
@example(1, [(1, 1), (-1, 2), (F(1, 2), 3), (2, 0), (1, 1)])
@example(1, [(1, 1), (-1, 2), (F(1, 2), 3), (2, F(0)), (1, 1)])
def test_even_contraction_matches_the_fraction_loop(leading, terms):
    want, depth = fraction_contraction(terms)
    got = []
    if depth is None:
        got = even_contraction(raw_cf(leading, terms)).take(len(terms) + 1)
    else:
        with pytest.raises(ContractionError) as exc_info:
            for t in even_contraction(raw_cf(leading, terms)).terms():
                got.append(t)
        assert exc_info.value.depth == depth
    assert same_pairs(got, want)


series_pairs = st.lists(st.tuples(exact, exact), min_size=2, max_size=30)


# a zero series numerator or denominator, given as 0 and as Fraction(0),
# first and later
@settings(max_examples=300, deadline=None)
@given(series_pairs)
@example([(0, 1), (1, 2)])
@example([(F(0), 1), (1, 2)])
@example([(1, 0), (1, 2)])
@example([(1, F(0)), (1, 2)])
@example([(1, 2), (F(1, 3), 3), (0, 4), (1, 5)])
@example([(1, 2), (F(1, 3), 3), (F(0), 4), (1, 5)])
@example([(1, 2), (F(1, 3), 3), (1, 0), (1, 5)])
@example([(1, 2), (F(1, 3), 3), (1, F(0)), (1, 5)])
def test_series_to_cf_matches_the_fraction_loop(pairs):
    want, depth = fraction_series_terms(pairs)
    got = []
    cf = series_to_cf(SeriesSpec(lambda: iter(pairs)))
    if depth is None:
        got = cf.take(len(pairs) + 1)
    else:
        with pytest.raises(ZeroPivotError) as exc_info:
            for t in cf.terms():
                got.append(t)
        assert exc_info.value.depth == depth
    assert same_pairs(got, want)
    # every convergent is defined and is its partial sum, zero pivots included
    sums = list(itertools.accumulate((-1) ** j * F(n) / d for j, (n, d) in enumerate(pairs[:len(got)])))
    assert [c.value for c in convergent_iter(raw_cf(F(0), got))] == sums


@settings(max_examples=300, deadline=None)
@given(leadings, term_lists, st.integers(min_value=1, max_value=45))
def test_euler_series_matches_the_fraction_loop(leading, terms, k):
    want, index = fraction_euler_series(terms[:k])
    if index is None:
        got = euler_series_expansion(raw_cf(leading, terms), k)
    else:
        with pytest.raises(ZeroContinuantError) as exc_info:
            euler_series_expansion(raw_cf(leading, terms), k)
        assert exc_info.value.index == index
        got = exc_info.value.partial
    assert len(got) == len(want) and all(same(x, y) for x, y in zip(got, want))


def drain(stream, limit=60):
    """Terms of ``stream`` up to ``limit``, or up to the error that ends it."""
    out = []
    try:
        for t in itertools.islice(stream, limit):
            out.append(t)
    except (ContractionError, ZeroPivotError):
        pass
    return out


def assert_one_type_rule(terms):
    for t in terms:
        assert all(same(x, typed(x)) for x in t), t


# integer polynomials (den 1) and rational ones in the term index
polys = st.builds(Poly, st.lists(ints, min_size=1, max_size=3).map(tuple),
                  st.integers(min_value=1, max_value=6))


scale_lists = st.lists(leadings.filter(bool), max_size=40)
riccati_problems = st.builds(RiccatiProblem, leadings, leadings, leadings.filter(bool),
                             st.fractions(min_value=-2, max_value=6, max_denominator=8)
                             .filter(lambda m: m > -2))


@settings(max_examples=300, deadline=None)
@given(leadings, term_lists, series_pairs, polys, polys, scale_lists, riccati_problems)
def test_every_exact_term_is_an_int_exactly_when_integral(leading, terms, pairs, b, a,
                                                          scales, problem):
    spec = TermSpec(leading, tuple(terms[:4]), b, a)  # head terms, then b(k) and a(k)
    for cf in (ContinuedFraction.from_pairs(leading, terms),
               ContinuedFraction.from_rule(leading, dict(enumerate(terms, 1)).get),
               ContinuedFraction.from_spec(spec),
               even_contraction(raw_cf(leading, terms)),
               series_to_cf(SeriesSpec(lambda: iter(pairs))),
               equivalence_transform(raw_cf(leading, terms), scales),
               cf_from_riccati(problem)):
        assert_one_type_rule(drain(cf.terms()))


# signed ints from one digit to past 2**200; a common factor g and, when
# integral is drawn, a numerator that den divides
wide_ints = st.one_of(st.integers(min_value=-9, max_value=9),
                      st.integers(min_value=-2 ** 260, max_value=2 ** 260))


@settings(max_examples=500, deadline=None)
@given(wide_ints, wide_ints.filter(bool), wide_ints.filter(bool), st.booleans())
@example(0, -1, 1, False)
@example(0, 5, -3, False)
@example(2 ** 201, -(2 ** 201), 1, False)
def test_exact_is_the_fraction_typed_as_a_term(n, d, g, integral):
    num, den = (n * d if integral else n) * g, d * g
    x, want = _exact(num, den), F(num, den)
    assert x == want
    if want.denominator == 1:
        assert type(x) is int
    else:
        assert type(x) is F
        assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
    term = typed(want)
    for y in (x, pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert same(y, term) and hash(y) == hash(want) and repr(y) == repr(term)
    assert same(x + F(1, 3), want + F(1, 3))


def test_integral_terms_are_ints_where_they_were_fractions():
    spec = TermSpec(0, ((F(6, 3), F(1, 2)),), Poly((1, 0), 2), Poly((3,)))  # b(k) = k/2, a(k) = 3
    for cf, want in [
        (ContinuedFraction.from_pairs(0, [(F(4), 2)]), [(4, 2)]),
        (series_to_cf(SeriesSpec.from_lists([1, 1, 1], [1, 2, 3])), [(1, 1), (1, 1), (4, 1)]),
        (even_contraction(ContinuedFraction.from_pairs(0, [(1, 1)] * 6)), [(1, 2), (-1, 3), (-1, 3)]),
        (ContinuedFraction.from_spec(spec), [(2, F(1, 2)), (1, 3), (F(3, 2), 3), (2, 3)]),
    ]:
        got = cf.take(len(want))
        assert got == want
        assert_one_type_rule(got)


def test_convergent_keeps_its_public_face():
    c = Convergent(3, F(7, 2), 5)
    assert (c.index, c.p, c.q, c.defined, c.value) == (3, F(7, 2), F(5), True, F(7, 10))
    assert repr(c) == "Convergent(index=3, p=Fraction(7, 2), q=Fraction(5, 1))"
    assert c != Convergent(4, F(7, 2), 5) and c != Convergent(3, F(7, 2), 6)
    with pytest.raises(AttributeError):
        c.p = F(1)
    with pytest.raises(AttributeError):
        c.index = 4
    with pytest.raises(ZeroContinuantError):
        Convergent(2, 1, 0).value
