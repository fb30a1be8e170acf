import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contfrac.core import (
    ContinuedFraction,
    EvalStatus,
    PositivityClass,
    ZeroContinuantError,
    ZeroDenominatorError,
    convergent_sequence,
    equivalence_transform,
    euler_series_expansion,
    eval_float,
    even_contraction,
    positivity_class,
)
from conftest import rand_fraction, random_positive_cf


def brouncker_cf():
    # 1/(1 + 1/(2 + 9/(2 + 25/(2 + ...))))
    return ContinuedFraction.from_rule(0, lambda k: (1, 1) if k == 1 else ((2 * k - 3) ** 2, 2))


def log2_cf():
    # 1/(1 + 1/(1 + 4/(1 + 9/(1 + ...))))
    return ContinuedFraction.from_rule(0, lambda k: (1, 1) if k == 1 else ((k - 1) ** 2, 1))


def e_cf():
    # 2 + 2/(2 + 3/(3 + 4/(4 + ...)))
    return ContinuedFraction.from_rule(2, lambda k: (2, 2) if k == 1 else (k + 1, k + 1))


# ------------------------------------------------------------ convergents

def test_brouncker_first_three_convergents():
    values = [c.value for c in convergent_sequence(brouncker_cf(), 3)]
    assert values == [F(1), F(2, 3), F(13, 15)]
    # cross-check: partial sums of 1 - 1/3 + 1/5
    assert values == [F(1), F(1) - F(1, 3), F(1) - F(1, 3) + F(1, 5)]


def test_log2_first_three_convergents():
    values = [c.value for c in convergent_sequence(log2_cf(), 3)]
    assert values == [F(1), F(1, 2), F(5, 6)]
    assert values[2] == F(1) - F(1, 2) + F(1, 3)


def test_finite_cf_final_convergent():
    cf = ContinuedFraction.from_pairs(0, [(1, 2), (3, 4)])
    seq = convergent_sequence(cf, 10)
    assert len(seq) == 2 and seq[-1].value == F(4, 11)
    rep = eval_float(cf, 1e-9, 100)
    assert rep.status is EvalStatus.TERMINATED_FINITE
    assert rep.value == pytest.approx(4 / 11, abs=1e-15)


def test_undefined_convergent_is_marked_and_recurrence_continues():
    # q_2 = a_2 q_1 + b_2 q_0 = 1 - 1 = 0
    cf = ContinuedFraction.from_pairs(0, [(1, 1), (-1, 1), (1, 1)])
    seq = convergent_sequence(cf, 3)
    assert not seq[1].defined
    with pytest.raises(ZeroContinuantError):
        seq[1].value
    assert seq[0].defined and seq[2].defined


def test_zero_partial_denominator_rejected():
    cf = ContinuedFraction.from_pairs(0, [(1, 0)])
    with pytest.raises(ZeroDenominatorError):
        cf.take(1)


def test_term_stream_is_deterministic():
    cf = brouncker_cf()
    assert cf.take(8) == cf.take(8)


# ------------------------------------------------------------ eval_float

def test_eval_brouncker_brackets_pi_quarter():
    rep = eval_float(brouncker_cf(), 1e-6, 10 ** 6)
    assert rep.status is EvalStatus.CONVERGED
    assert rep.lower <= math.pi / 4 <= rep.upper
    assert abs(rep.value - math.pi / 4) < 1e-6


def test_eval_e_cf_25_terms():
    rep = eval_float(e_cf(), 1e-15, 25)
    assert abs(rep.value - math.e) <= 1e-12


def test_eval_zero_numerator_terminates_immediately():
    cf = ContinuedFraction.from_rule(5, lambda k: (0, 1))
    rep = eval_float(cf, 1e-9, 100)
    assert rep.status is EvalStatus.TERMINATED_FINITE
    assert rep.value == 5.0 and rep.terms_used == 1


def test_eval_budget_exhausted_keeps_bracket():
    rep = eval_float(log2_cf(), 1e-15, 500)
    assert rep.status is EvalStatus.BUDGET_EXHAUSTED
    assert rep.lower is not None and rep.lower <= math.log(2) <= rep.upper


def test_eval_renormalization_survives_huge_continuants():
    # continuants overflow 1e308 after ~130 terms without rescaling
    rep = eval_float(brouncker_cf(), 1e-30, 2000)
    assert math.isfinite(rep.value)
    assert rep.lower <= math.pi / 4 <= rep.upper


def reference_convergents(leading, pairs):
    """Float convergents (None where q_k = 0), renormalised by max(abs(...)) alone."""
    p_prev, q_prev, p, q = 1.0, 0.0, float(leading), 1.0
    out = []
    for b, a in pairs:
        b, a = float(b), float(a)
        p, p_prev = a * p + b * p_prev, p
        q, q_prev = a * q + b * q_prev, q
        mag = max(abs(p), abs(q), abs(p_prev), abs(q_prev))
        scale = 2.0 ** -512 if mag > 2.0 ** 512 else 2.0 ** 512 if 0.0 < mag < 2.0 ** -512 else 1.0
        p, q, p_prev, q_prev = p * scale, q * scale, p_prev * scale, q_prev * scale
        out.append(p / q if q != 0.0 else None)
    return out


# runs of terms near 2^e, e in [-400, 400], push the continuants far past
# 2^512 or below 2^-512, so the kernel must rescale up or down every few terms
exponent_runs = st.integers(-400, 400).flatmap(lambda e: st.lists(
    st.tuples(st.integers(e - 50, e + 50), st.integers(e - 50, e + 50)), min_size=2, max_size=60))


@settings(max_examples=150, deadline=None)
@given(exponent_runs)
def test_eval_renormalises_in_both_directions_like_the_plain_test(exponents):
    pairs = [(F(2) ** eb, F(2) ** ea) for eb, ea in exponents]
    rep = eval_float(ContinuedFraction.from_pairs(1, pairs), 1e-300, len(pairs))
    defined = [v for v in reference_convergents(1, pairs[:rep.terms_used]) if v is not None]
    if len(defined) < 2:
        assert rep.lower is None
    else:
        assert (rep.lower, rep.upper) == (min(defined[-2:]), max(defined[-2:]))


def test_eval_divergent_flagged_for_oscillating_growth():
    # binomial-weight family at mu=3, nu=1: series terms grow linearly
    def rule(k):
        if k == 1:
            return (1, 1)
        if k == 2:
            return (3, -1)
        j = k - 2
        return (j * (3 + j) * (j + 1) ** 2, (2 * j + 1 - 3 * j) - 2)

    cf = ContinuedFraction.from_rule(0, rule)
    rep = eval_float(cf, 1e-10, 10 ** 5)
    assert rep.status is EvalStatus.DIVERGENT


def test_eval_skips_vanishing_continuants_projectively():
    # q_2 = 0 here; evaluation must skip that convergent and still settle on
    # the exact value of the finite fraction
    cf = ContinuedFraction.from_pairs(0, [(1, 1), (-1, 1), (1, 1), (1, 2)])
    exact = [c for c in convergent_sequence(cf, 4) if c.defined][-1].value
    rep = eval_float(cf, 1e-12, 100)
    assert rep.status is EvalStatus.TERMINATED_FINITE
    assert rep.value == pytest.approx(float(exact), abs=1e-15)


def test_eval_validates_arguments():
    with pytest.raises(ValueError):
        eval_float(log2_cf(), 0.0, 10)
    with pytest.raises(ValueError):
        eval_float(log2_cf(), 1e-6, 0)


# ------------------------------------------------------------ series expansion

def test_euler_series_log2():
    assert euler_series_expansion(log2_cf(), 3) == [F(1), F(-1, 2), F(1, 3)]


def test_euler_series_brouncker():
    assert euler_series_expansion(brouncker_cf(), 3) == [F(1), F(-1, 3), F(1, 5)]


def test_partial_sums_equal_convergents_exactly(rng):
    for _ in range(10):
        cf = random_positive_cf(rng, 12)
        terms = euler_series_expansion(cf, 12)
        sums = []
        acc = cf.leading
        for t in terms:
            acc += t
            sums.append(acc)
        assert sums == [c.value for c in convergent_sequence(cf, 12)]


def test_series_expansion_stops_at_zero_continuant():
    cf = ContinuedFraction.from_pairs(0, [(1, 1), (-1, 1), (1, 1)])
    with pytest.raises(ZeroContinuantError) as exc_info:
        euler_series_expansion(cf, 3)
    assert exc_info.value.index == 2
    assert exc_info.value.partial == [F(1)]


# ------------------------------------------------------------ even contraction

def test_even_contraction_log2_gives_even_partial_sums():
    values = [c.value for c in convergent_sequence(even_contraction(log2_cf()), 3)]
    assert values == [F(1, 2), F(7, 12), F(37, 60)]


def test_even_contraction_brouncker_matches_even_leibniz_sums():
    values = [c.value for c in convergent_sequence(even_contraction(brouncker_cf()), 3)]
    sums, acc, sign = [], F(0), 1
    for j in range(6):
        acc += F(sign, 2 * j + 1)
        sign = -sign
        if j % 2 == 1:
            sums.append(acc)
    assert values == sums


def test_even_contraction_matches_even_convergents_exactly(rng):
    for _ in range(8):
        cf = random_positive_cf(rng, 14)
        even = [c.value for c in convergent_sequence(cf, 14)][1::2]
        contracted = [c.value for c in convergent_sequence(even_contraction(cf), 7)]
        assert contracted == even


def test_even_contraction_finite_even_length_preserves_value():
    cf = ContinuedFraction.from_pairs(2, [(1, 2), (3, 4)])
    original = convergent_sequence(cf, 2)[-1].value
    contracted = convergent_sequence(even_contraction(cf), 5)
    assert contracted[-1].value == original


def test_even_contraction_finite_odd_length_preserves_value():
    cf = ContinuedFraction.from_pairs(0, [(1, 2), (3, 4), (5, 6)])
    original = convergent_sequence(cf, 3)[-1].value
    contracted = convergent_sequence(even_contraction(cf), 5)
    assert contracted[-1].value == original


# ------------------------------------------------------------ positivity

def test_positivity_brouncker_guaranteed():
    assert positivity_class(brouncker_cf(), 50) is PositivityClass.GUARANTEED_CONVERGENT


def test_positivity_lost_on_negative_entry():
    cf = ContinuedFraction.from_pairs(0, [(1, 1), (3, -1)])
    assert positivity_class(cf, 2) is PositivityClass.NOT_GUARANTEED


# ------------------------------------------------------------ equivalence

def test_equivalence_identity_scales():
    cf = brouncker_cf()
    same = equivalence_transform(cf, [1, 1, 1])
    assert same.take(6) == cf.take(6)


def test_equivalence_rejects_zero_scale():
    with pytest.raises(ValueError):
        equivalence_transform(brouncker_cf(), [1, 0])


def test_equivalence_preserves_convergents(rng):
    for _ in range(10):
        cf = random_positive_cf(rng, 10)
        scales = [rand_fraction(rng) for _ in range(10)]
        transformed = equivalence_transform(cf, scales)
        assert ([c.value for c in convergent_sequence(cf, 10)]
                == [c.value for c in convergent_sequence(transformed, 10)])


def test_equivalence_clears_nested_transform_form():
    # nested alternating-harmonic transform -> cleared form, via explicit scales
    a = b = c = d = F(1)
    p, q, r, s = F(1), F(2), F(3), F(4)
    nested = ContinuedFraction.from_pairs(0, [
        (a, p),
        (b / a, (a * q - b * p) / (a * p * p)),
        (c / b, (p * p * (b * r - c * q)) / (b * q * q)),
        (d / c, (q * q * (c * s - d * r)) / (c * p * p * r * r)),
    ])
    cleared = ContinuedFraction.from_pairs(0, [
        (a, p),
        (b * p * p, a * q - b * p),
        (a * c * q * q, b * r - c * q),
        (b * d * r * r, c * s - d * r),
    ])
    scales = []
    cur = F(1)
    for tn, tc in zip(nested.take(4), cleared.take(4)):
        scale = tc.denominator / tn.denominator
        scales.append(scale)
        cur = scale
    transformed = equivalence_transform(nested, scales)
    assert transformed.take(4) == cleared.take(4)
    assert ([cv.value for cv in convergent_sequence(cleared, 4)]
            == [cv.value for cv in convergent_sequence(nested, 4)])


# ------------------------------------------------------------ properties

@st.composite
def positive_cfs(draw):
    depth = draw(st.integers(min_value=2, max_value=8))
    def frac():
        return F(draw(st.integers(1, 9)), draw(st.integers(1, 6)))
    pairs = [(frac(), frac()) for _ in range(depth)]
    return ContinuedFraction.from_pairs(frac(), pairs)


@settings(max_examples=60, deadline=None)
@given(positive_cfs())
def test_determinant_identity(cf):
    seq = convergent_sequence(cf, 8)
    prod = F(1)
    prev_p, prev_q = cf.leading, F(1)
    for k, (conv, t) in enumerate(zip(seq, cf.terms()), start=1):
        prod *= t.numerator
        assert conv.p * prev_q - prev_p * conv.q == (-1) ** (k + 1) * prod
        prev_p, prev_q = conv.p, conv.q


@settings(max_examples=60, deadline=None)
@given(positive_cfs())
def test_positive_cf_convergents_interleave(cf):
    values = [c.value for c in convergent_sequence(cf, 8)]
    evens = values[1::2]   # indices 2, 4, ...
    odds = values[0::2]    # indices 1, 3, ...
    assert all(x < y for x, y in zip(evens, evens[1:]))
    assert all(x > y for x, y in zip(odds, odds[1:]))
    assert max(evens) < min(odds)


def test_determinant_identity_depth_30(rng):
    cf = random_positive_cf(rng, 30)
    seq = convergent_sequence(cf, 30)
    prod = F(1)
    prev_p, prev_q = cf.leading, F(1)
    for k, (conv, t) in enumerate(zip(seq, cf.terms()), start=1):
        prod *= t.numerator
        assert conv.p * prev_q - prev_p * conv.q == (-1) ** (k + 1) * prod
        prev_p, prev_q = conv.p, conv.q


def test_zero_continuant_error_partial_defaults_to_empty():
    assert ZeroContinuantError(4).partial == []


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), 0.0, -1e-6])
def test_eval_rejects_tolerance_that_is_not_finite_positive(tol):
    cf = ContinuedFraction.from_pairs(0, [(1, 1), (1, 2)])
    with pytest.raises(ValueError):
        eval_float(cf, tol, 10)
