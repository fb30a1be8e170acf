import itertools
import json
import math
import pathlib
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contfrac.catalog import make_cf
from contfrac.core import (
    ContinuedFraction,
    ContractionError,
    EvalStatus,
    EvalStop,
    PositivityClass,
    TermSpec,
    ZeroContinuantError,
    convergent_iter,
    convergent_sequence,
    equivalence_transform,
    euler_series_expansion,
    eval_float,
    even_contraction,
    positivity_class,
)
from conftest import rand_fraction, random_positive_cf
from test_termspec import generic

#: the first 10 even-contraction terms (or the error that ends them early) of
#: 200 seeded signed rational fractions of length 0-9 and of every catalog
#: family at the golden_terms.json points, recorded with the contraction that
#: wrote its first term, a one-term fraction and its depth counter as special
#: cases
GOLDEN_CONTRACTION = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_contraction.json").read_text())


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


def test_zero_partial_denominator_is_a_legal_term():
    # 0 + 1/(0 + 1/1): q_1 = 0 leaves v_1 undefined, and v_2 = 1
    cf = ContinuedFraction.from_pairs(0, [(1, 0), (1, 1)])
    assert cf.take(2) == [(1, 0), (1, 1)]
    seq = convergent_sequence(cf, 2)
    assert not seq[0].defined and seq[1].value == 1
    rep = eval_float(cf, 1e-9, 100)
    assert (rep.value, rep.terms_used, rep.status) == (1.0, 2, EvalStatus.TERMINATED_FINITE)


@pytest.mark.parametrize("source", ["pairs", "spec"])
def test_convergents_undefined_at_every_other_index_are_flagged_divergent(source):
    # 0 + 1/(0 + 1/(0 + ...)): q_k = 0 at odd k and v_k = 0 at even k, so the
    # approximants alternate between infinity and 0
    cf = (ContinuedFraction.from_pairs(0, [(1, 0)] * 100) if source == "pairs"
          else ContinuedFraction.from_spec(TermSpec(0, (), 1, 0)))
    rep = eval_float(cf, 1e-9, 100)
    assert (rep.value, rep.terms_used, rep.status) == (0.0, 24, EvalStatus.DIVERGENT)


def test_an_end_at_an_undefined_convergent_reports_what_a_budget_stop_does():
    # q_3 = 0 where positivity is lost; term 4 ends the fraction.  Ending
    # there and running out of budget there report the same value: the
    # estimate 3/4 made before term 3 from v_1 = 1 and v_2 = 1/2
    pairs = [(1, 1), (1, 1), (1, F(-1, 2))]
    ended = eval_float(ContinuedFraction.from_pairs(0, pairs + [(0, 1)]), 1e-9, 10)
    stopped = eval_float(ContinuedFraction.from_pairs(0, pairs), 1e-9, 3)
    assert (ended.value, ended.terms_used, ended.status) == (
        0.75, 4, EvalStatus.TERMINATED_FINITE)
    assert (stopped.value, stopped.status) == (0.75, EvalStatus.BUDGET_EXHAUSTED)


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


def plain_recurrence(leading, pairs):
    """(float convergent, or None where q_k = 0; whether the step rescaled)
    for each term, renormalised by max(abs(...)) alone."""
    p_prev, q_prev, p, q = 1.0, 0.0, float(leading), 1.0
    for b, a in pairs:
        b, a = float(b), float(a)
        p, p_prev = a * p + b * p_prev, p
        q, q_prev = a * q + b * q_prev, q
        mag = max(abs(p), abs(q), abs(p_prev), abs(q_prev))
        scale = 2.0 ** -512 if mag > 2.0 ** 512 else 2.0 ** 512 if 0.0 < mag < 2.0 ** -512 else 1.0
        p, q, p_prev, q_prev = p * scale, q * scale, p_prev * scale, q_prev * scale
        yield (p / q if q != 0.0 else None), scale != 1.0


def reference_convergents(leading, pairs):
    return [v for v, _ in plain_recurrence(leading, pairs)]


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


ZERO_NUMERATOR_PAIRS = ((1, 2), (3, 1), (0, 5), (1, 1))
F8_DIVERGENT = make_cf("F8", {"a": F(3, 4), "b": F(9, 4), "c": 2, "r": F(1, 2),
                              "p": F(5, 4), "q": F(15, 16)})


@pytest.mark.parametrize("forms, tol, n, stop, status", [
    ((make_cf("brouncker", {}), generic(make_cf("brouncker", {}))), 1e-4, 10 ** 6,
     EvalStop.BRACKET, EvalStatus.CONVERGED),
    ((make_cf("pi-half-b", {}), generic(make_cf("pi-half-b", {}))), 1e-4, 10 ** 6,
     EvalStop.DIFFERENCE, EvalStatus.CONVERGED),
    ((F8_DIVERGENT, generic(F8_DIVERGENT)), 1e-9, 10 ** 5,
     EvalStop.DIVERGENCE_WINDOW, EvalStatus.DIVERGENT),
    ((make_cf("log2", {}), generic(make_cf("log2", {}))), 1e-4, 16,
     EvalStop.BUDGET, EvalStatus.BUDGET_EXHAUSTED),
    ((ContinuedFraction.from_pairs(1, ZERO_NUMERATOR_PAIRS),
      ContinuedFraction.from_spec(TermSpec(1, ZERO_NUMERATOR_PAIRS[:3], 1, 1))), 1e-9, 100,
     EvalStop.ZERO_NUMERATOR, EvalStatus.TERMINATED_FINITE),
    # a TermSpec stream never ends, so this fraction has only the generic form
    ((ContinuedFraction.from_pairs(1, [(1, 2), (3, 1)]),), 1e-9, 100,
     EvalStop.STREAM_END, EvalStatus.TERMINATED_FINITE),
    # a budget no loop can reach, which itertools.islice refuses; a
    # denominator of 2^1100 sends the spec to its checked exact stream
    ((make_cf("brouncker", {}), brouncker_cf()), 1e-4, sys.maxsize + 1,
     EvalStop.BRACKET, EvalStatus.CONVERGED),
    ((ContinuedFraction.from_spec(TermSpec(0, (), F(3 ** 700, 2 ** 1100), 1)),
      ContinuedFraction.from_rule(0, lambda k: (F(3 ** 700, 2 ** 1100), 1))), 1e-4,
     sys.maxsize + 1, EvalStop.BRACKET, EvalStatus.CONVERGED),
], ids=["bracket", "difference", "divergence-window", "budget", "zero-numerator", "stream-end",
        "budget-above-maxsize", "budget-above-maxsize-exact-stream"])
def test_eval_reports_why_it_stopped(forms, tol, n, stop, status):
    reports = [eval_float(cf, tol, n) for cf in forms]
    assert (reports[0].stop, reports[0].status) == (stop, status)
    assert all(rep == reports[0] for rep in reports)


@settings(max_examples=150, deadline=None)
@given(exponent_runs, st.lists(st.booleans(), min_size=60, max_size=60))
def test_renorms_counts_the_rescalings_of_the_plain_test(exponents, negative):
    # the plain test rescales where max(|p|, |q|, |p_prev|, |q_prev|) leaves
    # [2^-512, 2^512]; both kernel loops decide the same, with signed terms too
    pairs = [(-F(2) ** eb if neg else F(2) ** eb, F(2) ** ea)
             for (eb, ea), neg in zip(exponents, negative)]
    rep = eval_float(ContinuedFraction.from_pairs(1, pairs), 1e-300, len(pairs))
    assert rep.renorms == sum(scaled for _, scaled in plain_recurrence(1, pairs[:rep.terms_used]))


@pytest.mark.parametrize("negative", [False, True], ids=["positive", "signed"])
@pytest.mark.parametrize("p_exp", [None, -520], ids=["p-in-range", "p-tiny"])
@pytest.mark.parametrize("e, renorms", [(512, 0), (513, 1), (-512, 0), (-513, 1)])
def test_rescaling_boundary_is_strict_in_both_loops(e, renorms, p_exp, negative):
    # leading 0 and the terms (+-2^t, 2^(e-1)), (2^(e-1), 1) leave the state
    # exactly at p, q, p_prev, q_prev = +-2^t, 2^e, +-2^t, 2^(e-1) after term
    # 2, with t = e - 1 or -520, so its largest magnitude is 2^e, and term 1's
    # is at most 2^512: 2^512 and 2^-512 are in range, one power of two past
    # is not.  A tiny p fails the loops' fast range tests, so the rescaling
    # decides.  A negative first numerator sends both terms through the
    # signed loop; the smallest tolerance keeps convergents 2^-1031 apart open
    h = F(2) ** (e - 1)
    b = F(2) ** (e - 1 if p_exp is None else p_exp)
    pairs = [(-b if negative else b, h), (h, 1)]
    rep = eval_float(ContinuedFraction.from_pairs(0, pairs), math.ulp(0.0), 10)
    plain = list(plain_recurrence(0, pairs))
    assert rep.stop is EvalStop.STREAM_END and rep.terms_used == 2
    assert rep.renorms == sum(scaled for _, scaled in plain) == renorms
    assert rep.value == plain[-1][0] == float((-b if negative else b) / (2 * h))


@pytest.mark.parametrize("pairs", [[(1, 0)], [(1, F(1, 2 ** 100))]], ids=["signed", "positive"])
def test_rescaling_counts_a_largest_p_prev(pairs):
    # leading 2^600 is p_prev after term 1 and the state's only magnitude
    # above 2^512 (p is 1 or 2^500), so p_prev alone makes the step rescale;
    # the value is the leading term (q = 0) or rounds to it
    rep = eval_float(ContinuedFraction.from_pairs(2 ** 600, pairs), 1e-300, 1)
    assert rep.renorms == sum(scaled for _, scaled in plain_recurrence(2 ** 600, pairs)) == 1
    assert rep.value == 2.0 ** 600


@pytest.mark.parametrize("expand", [convergent_sequence, euler_series_expansion])
def test_expansions_refuse_a_count_below_one(expand):
    with pytest.raises(ValueError, match="k must be positive"):
        expand(log2_cf(), 0)


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


def test_series_expansion_reads_only_k_terms():
    # term 2 cannot be made; one series term needs term 1 only
    cf = ContinuedFraction.from_rule(0, lambda k: (1, 1) if k == 1 else (1, F(1, 0)))
    assert euler_series_expansion(cf, 1) == [F(1)]


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


def test_even_contraction_of_empty_and_one_term_fractions():
    assert even_contraction(ContinuedFraction.from_pairs(3, [])).take(5) == []
    cf = ContinuedFraction.from_pairs(-1, [(F(2, 3), 5)])
    contracted = even_contraction(cf)
    assert contracted.leading == -1 and contracted.take(5) == [(F(2, 3), 5)]
    assert convergent_sequence(contracted, 5)[-1].value == convergent_sequence(cf, 1)[-1].value


def test_even_contraction_undefined_at_depth_1():
    # a_2 = 0
    with pytest.raises(ContractionError) as exc_info:
        even_contraction(ContinuedFraction.from_pairs(0, [(1, 1), (1, 0), (1, 1)])).take(3)
    assert exc_info.value.depth == 1


def test_even_contraction_undefined_at_a_later_depth_keeps_earlier_terms():
    # a_4 = 0 at depth 2
    it = even_contraction(ContinuedFraction.from_pairs(0, [(1, 1)] * 3 + [(-2, 0)])).terms()
    assert next(it) == (1, 2)
    with pytest.raises(ContractionError) as exc_info:
        next(it)
    assert exc_info.value.depth == 2


def _values(cf, k):
    return [c.value if c.defined else None for c in convergent_sequence(cf, k)]


def _closing_values(cf, n):
    """v_{min(2k, n)} for k = 1, 2, ...: what the contraction of an n-term
    fraction must reproduce."""
    values = _values(cf, n)
    return [values[min(2 * k, n) - 1] for k in range(1, (n + 1) // 2 + 1)]


@pytest.mark.parametrize("pairs", [
    [(1, 1), (-1, 1), (1, 1)],             # a_1 a_2 + b_2 = 0
    [(1, 1)] * 3 + [(-2, 1)],              # a_4 a_3 + a_4 b_3 / a_2 + b_4 = 0
    # the odd-tail close is (-2, 0); v_2, v_4, v_5 = 16/15, 71/66, 16/15
    [(-1, -2), (-1, 2), (F(1, 3), F(-2, 3)), (1, F(1, 2)), (1, -2)],
])
def test_even_contraction_keeps_a_zero_contracted_denominator(pairs):
    cf = ContinuedFraction.from_pairs(F(2, 3), pairs)
    contracted = even_contraction(cf)
    assert 0 in [t.denominator for t in contracted.terms()]
    assert _values(contracted, 10) == _closing_values(cf, len(pairs))


small_rationals = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 2, 3]))


@settings(max_examples=400, deadline=None)
@given(small_rationals, st.lists(st.tuples(small_rationals, small_rationals), max_size=10))
def test_even_contraction_matches_closing_convergents_projectively(leading, pairs):
    cf = ContinuedFraction.from_pairs(leading, pairs)
    n, got = len(pairs), []
    try:
        got.extend(convergent_iter(even_contraction(cf)))
    except ContractionError as exc:
        # the one step that divides: a_{2k} = 0 at depth k, the first such
        assert pairs[2 * exc.depth - 1][1] == 0
        assert all(a != 0 for _, a in pairs[1:2 * exc.depth - 1:2])
        assert len(got) == exc.depth - 1
    else:
        assert len(got) == (n + 1) // 2
    original = convergent_sequence(cf, n) if n else []
    for k, c in enumerate(got, 1):
        want = original[min(2 * k, n) - 1]
        assert c.p * want.q == want.p * c.q and (c.q == 0) == (want.q == 0)


def _golden_exact(text):
    # integral values as ints, the rest as Fractions: fractions that mix both
    return int(text) if "/" not in text else F(text)


def _contracted_or_error(cf):
    terms = []
    try:
        for t in itertools.islice(even_contraction(cf).terms(), 10):
            terms.append(t)
    except ContractionError as exc:
        return terms, ["ContractionError", exc.depth]
    return terms, None


@pytest.mark.parametrize("key", ["fractions", "families"])
def test_even_contraction_matches_golden_terms(key):
    for entry in GOLDEN_CONTRACTION[key]:
        if key == "fractions":
            cf = ContinuedFraction.from_pairs(
                F(entry["leading"]), [tuple(map(_golden_exact, p)) for p in entry["pairs"]])
        else:
            cf = make_cf(entry["family"], {k: F(v) for k, v in entry["params"].items()})
        terms, error = _contracted_or_error(cf)
        assert terms == [(F(b), F(a)) for b, a in entry["contracted"]], entry
        assert error == entry["error"], entry


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


def test_determinant_identity_depth_200(rng):
    # terms with denominators 1-6 grow the common scale of the integer
    # continuants at almost every step
    cf = random_positive_cf(rng, 200)
    assert sum(t.numerator.denominator > 1 or t.denominator.denominator > 1
               for t in cf.terms()) > 150
    seq = convergent_sequence(cf, 200)
    assert len(seq) == 200
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
