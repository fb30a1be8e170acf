import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contfrac.core import (
    ContinuedFraction,
    convergent_sequence,
    euler_series_expansion,
    eval_float,
)
from contfrac.series import (
    GaussLemmaParams,
    SeriesSpec,
    ZeroPivotError,
    gauss_sum_check,
    series_to_cf,
)
from conftest import random_series_prefix


def test_alternating_harmonic_gives_log2_fraction():
    spec = SeriesSpec.from_lists([1, 1, 1, 1, 1], [1, 2, 3, 4, 5])
    cf = series_to_cf(spec)
    assert [(t.numerator, t.denominator) for t in cf.take(5)] == [
        (1, 1), (1, 1), (4, 1), (9, 1), (16, 1)]


def test_odd_denominators_give_brouncker_fraction():
    spec = SeriesSpec.from_lists([1, 1, 1, 1, 1], [1, 3, 5, 7, 9])
    cf = series_to_cf(spec)
    assert [(t.numerator, t.denominator) for t in cf.take(5)] == [
        (1, 1), (1, 2), (9, 2), (25, 2), (49, 2)]


def test_first_transform_step_general_prefix():
    # a=2, b=1, p=1, q=3: first partial numerator b p^2, first pivot a q - b p
    spec = SeriesSpec.from_lists([2, 1], [1, 3])
    cf = series_to_cf(spec)
    terms = cf.take(2)
    assert (terms[1].numerator, terms[1].denominator) == (1, 5)


def test_convergents_equal_partial_sums():
    spec = SeriesSpec.from_lists([3, 1, 4, 1, 5], [2, 7, 1, 8, 2])
    cf = series_to_cf(spec)
    assert [c.value for c in convergent_sequence(cf, 5)] == spec.partial_sums(5)


def test_zero_pivot_is_a_legal_term():
    # n0 d1 - n1 d0 = 1*2 - 1*2 = 0 is the partial denominator a_2; the
    # conversion goes on, and every convergent is its partial sum
    spec = SeriesSpec.from_lists([1, 1, 1], [2, 2, 3])
    cf = series_to_cf(spec)
    assert [(t.numerator, t.denominator) for t in cf.take(5)] == [(1, 2), (4, 0), (4, 1)]
    convergents = convergent_sequence(cf, 3)
    assert all(c.defined for c in convergents)
    assert [c.value for c in convergents] == spec.partial_sums(3) == [F(1, 2), 0, F(1, 3)]


def collect(cf):
    """Terms of ``cf`` up to its end or its ZeroPivotError, and that error."""
    collected = []
    try:
        for t in cf.terms():
            collected.append(t)
    except ZeroPivotError as exc:
        return collected, exc
    return collected, None


def test_zero_series_numerator_stops_the_transform():
    # series term 1 is 0/2: the fraction went on with convergents 1, 1,
    # undefined, undefined against the partial sums 1, 1, 4/3, 13/12
    collected, exc = collect(series_to_cf(SeriesSpec.from_lists([1, 0, 1, 1], [1, 2, 3, 4])))
    assert exc.depth == 2 and "zero series term" in str(exc)
    assert [(t.numerator, t.denominator) for t in collected] == [(1, 1)]


def test_zero_series_denominator_stops_evaluation():
    # series term 2 is 1/0; eval_float reported terminated-finite at 0.5
    spec = SeriesSpec.from_rules(lambda j: 1, lambda j: j - 2)
    with pytest.raises(ZeroPivotError) as exc_info:
        eval_float(series_to_cf(spec), 1e-6, 50)
    assert exc_info.value.depth == 3


def test_zero_first_series_term_stops_before_any_term():
    for nums, dens in (([0, 1], [1, 2]), ([1, 1], [0, 2])):
        collected, exc = collect(series_to_cf(SeriesSpec(lambda: iter(zip(nums, dens)))))
        assert collected == [] and exc.depth == 1


small_or_zero = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3,
                                                       max_denominator=4))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small_or_zero, small_or_zero), min_size=2, max_size=8))
def test_every_term_before_a_stop_has_its_partial_sum(pairs):
    spec = SeriesSpec(lambda: iter(pairs))
    collected, exc = collect(series_to_cf(spec))
    if exc is not None:
        assert exc.depth == len(collected) + 1
    else:
        assert len(collected) == len(pairs)
    if collected:
        convergents = convergent_sequence(ContinuedFraction.from_pairs(0, collected),
                                          len(collected))
        assert [c.value for c in convergents] == spec.partial_sums(len(collected))


def test_series_validation():
    with pytest.raises(ValueError):
        SeriesSpec.from_lists([], [])
    with pytest.raises(ValueError):
        SeriesSpec.from_lists([1, 2], [1])
    for zero in (0, F(0), "0/5", 0.0):
        with pytest.raises(ValueError, match="denominators must be nonzero"):
            SeriesSpec.from_lists([1, 2], [1, zero])
    with pytest.raises(ValueError):
        series_to_cf(SeriesSpec.from_lists([1], [1]))


def test_unbounded_series_rules():
    spec = SeriesSpec.from_rules(lambda j: 1, lambda j: 2 * j + 1)
    cf = series_to_cf(spec)
    assert [(t.numerator, t.denominator) for t in cf.take(4)] == [
        (1, 1), (1, 2), (9, 2), (25, 2)]


def test_log2_series_cf_converges_inside_bracket():
    spec = SeriesSpec.from_rules(lambda j: 1, lambda j: j + 1)
    rep = eval_float(series_to_cf(spec), 1e-5, 10 ** 6)
    assert rep.lower <= math.log(2) <= rep.upper
    assert rep.upper - rep.lower <= 1e-5


def test_round_trip_reproduces_partial_sums_exactly(rng):
    for _ in range(50):
        nums, dens = random_series_prefix(rng, 12)
        spec = SeriesSpec.from_lists(nums, dens)
        cf = series_to_cf(spec)
        expansion = euler_series_expansion(cf, 12)
        assert expansion == spec.terms(12)
        sums = []
        acc = F(0)
        for t in expansion:
            acc += t
            sums.append(acc)
        assert sums == spec.partial_sums(12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=F(1, 4), max_value=4), min_size=3, max_size=8),
       st.lists(st.fractions(min_value=F(1, 4), max_value=4), min_size=3, max_size=8))
def test_round_trip_property(nums, dens):
    # a zero pivot is a legal term: no draw is filtered out
    length = min(len(nums), len(dens))
    nums, dens = nums[:length], dens[:length]
    spec = SeriesSpec.from_lists(nums, dens)
    cf = series_to_cf(spec)
    assert euler_series_expansion(cf, length) == spec.terms(length)


# ------------------------------------------------------------ summation lemma

def test_gauss_lemma_closed_forms():
    partial, closed = gauss_sum_check(GaussLemmaParams(1, 2, 1), 2000)
    assert closed == pytest.approx(2.0, abs=1e-15)
    # tail is exactly 2/(n+1) here; the gap is algebraic, not small
    assert abs(partial - closed) == pytest.approx(2.0 / 2001.0, rel=1e-6)

    partial, closed = gauss_sum_check(GaussLemmaParams(1, 3, 2), 2000)
    assert closed == pytest.approx(1.5, abs=1e-15)
    assert abs(partial - closed) < 1e-3


def test_gauss_lemma_one_term_is_the_leading_one():
    assert gauss_sum_check(GaussLemmaParams(1, 2, 1), 1) == (1.0, 2.0)


def test_gauss_lemma_fast_decay_reaches_tight_gap():
    partial, closed = gauss_sum_check(GaussLemmaParams(1, 4, 1), 2000)
    assert abs(partial - closed) <= 1e-6


def test_gauss_lemma_small_p_limit():
    partial, closed = gauss_sum_check(GaussLemmaParams(1e-9, 2, 1), 50)
    assert partial == pytest.approx(1.0, abs=1e-8)
    assert closed == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("call, match", [
    (lambda: GaussLemmaParams(0, 2, 1), "p must be positive"),
    (lambda: gauss_sum_check(GaussLemmaParams(1, 2, 1), 0), "n_terms must be positive"),
], ids=["p-0", "n-terms-0"])
def test_gauss_lemma_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_gauss_lemma_rejects_q_not_greater_than_p():
    with pytest.raises(ValueError):
        GaussLemmaParams(2, 2, 1)
    with pytest.raises(ValueError):
        GaussLemmaParams(3, 2, 1)
    with pytest.raises(ValueError):
        GaussLemmaParams(1, 2, 0)
