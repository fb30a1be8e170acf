import dataclasses
import functools
import json
import math
import pathlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contfrac.catalog import VerifyStatus
from contfrac.core import (ContinuedFraction, EvalStatus, EvalStop, convergent_iter,
                           convergent_sequence, equivalence_transform, eval_float)
from contfrac.riccati import (
    RiccatiDomainError,
    RiccatiProblem,
    cf_from_riccati,
    riccati_letters,
    solve_riccati,
    termination_depth,
    verify_riccati,
)
from test_exact_layer import assert_one_type_rule


GOLDEN_ODE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_ode.json").read_text())["cases"]

COT1 = 1.0 / math.tan(1.0)
COTH1 = 1.0 / math.tanh(1.0)


def test_cf_display_alternating_signs():
    cf = cf_from_riccati(RiccatiProblem(1, 0, 1, 0))
    assert cf.leading == 1
    assert [(t.numerator, t.denominator) for t in cf.take(4)] == [
        (1, -3), (1, 5), (1, -7), (1, 9)]


def test_cf_sign_propagation_all_positive_variant():
    # a = -1 makes every numerator -1; pushing the signs into the partial
    # denominators yields 1 + 1/(3 + 1/(5 + 1/(7 + ...)))
    cf = cf_from_riccati(RiccatiProblem(-1, 0, 1, 0))
    flipped = equivalence_transform(cf, [(-1) ** k for k in range(1, 9)])
    assert [(t.numerator, t.denominator) for t in flipped.take(4)] == [
        (1, 3), (1, 5), (1, 7), (1, 9)]


def test_terminating_presets():
    # numerator lists: b = -ac/(i(m+2)+1) kills depth 2i; b = ac/(i(m+2)) kills 2i-1
    for i in (1, 2, 3):
        for a, c, m in ((1, 1, 0), (2, 1, 1), (1, F(1, 2), F(1, 2))):
            ac = F(a) * F(c)
            step = F(m) + 2
            prob = RiccatiProblem(a, -ac / (i * step + 1), c, m)
            assert termination_depth(prob) == 2 * i
            assert len(cf_from_riccati(prob).take(100)) == 2 * i
            prob2 = RiccatiProblem(a, ac / (i * step), c, m)
            assert termination_depth(prob2) == 2 * i - 1
            assert len(cf_from_riccati(prob2).take(100)) == 2 * i - 1


def test_generic_problem_does_not_terminate():
    assert termination_depth(RiccatiProblem(1, F(1, 3), 1, 0)) is None


def formula_terms(problem, count):
    """The first ``count`` terms by the module docstring's formula, zero
    numerators included."""
    ac, step = problem.a * problem.c, problem.m + 2
    out = []
    for k in range(1, count + 1):
        j = k // 2
        num = ac + (j * step + 1) * problem.b if k % 2 else ac - j * step * problem.b
        out.append((num, (-1) ** k * (k * step + 1)))
    return out


def random_problem(rng):
    """A random problem; two in three with ac != 0 end, at depth 0-119."""
    a = F(rng.randint(-5, 5), rng.randint(1, 3))
    c = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
    m = F(rng.randint(-3, 12), 2)
    ac, step = a * c, m + 2
    kind, j = rng.randint(0, 2), rng.randint(1, 60)
    if kind == 0 and ac:
        b = -ac / ((j - 1) * step + 1)   # numerator 2j-1 vanishes
    elif kind == 1 and ac:
        b = ac / (j * step)              # numerator 2j vanishes
    else:
        b = F(rng.randint(-4, 4), rng.randint(1, 9))
    return RiccatiProblem(a, b, c, m)


def test_terms_and_termination_follow_the_docstring_formula(rng):
    ended = 0
    for _ in range(300):
        prob = random_problem(rng)
        want = formula_terms(prob, 130)
        stop = next((i for i, (num, _) in enumerate(want) if num == 0), None)
        got = cf_from_riccati(prob).take(130)
        assert got == want[:stop]
        assert_one_type_rule(got)
        assert termination_depth(prob) == stop
        ended += stop is not None
    assert ended > 100


def test_eval_float_reports_equal_those_on_the_formula_terms(rng):
    # int terms where a term is integral change no float: every field of
    # every report is the same as on the formula's terms up to a zero numerator
    for _ in range(100):
        prob = random_problem(rng)
        terms = formula_terms(prob, 200)
        stop = next((i for i, (num, _) in enumerate(terms) if num == 0), None)
        formula = ContinuedFraction.from_pairs(1, terms[:stop])
        for tol in (1e-6, 1e-12):
            got, want = eval_float(cf_from_riccati(prob), tol, 200), eval_float(formula, tol, 200)
            for field in dataclasses.fields(got):
                assert repr(getattr(got, field.name)) == repr(getattr(want, field.name)), prob


@pytest.mark.parametrize("a, b, depth", [
    (1, F(1, 600), 599), (1, F(-1, 601), 600),   # far past any fixed search bound
    (1, 0, None), (0, 0, 0), (0, F(1, 2), None),
])
def test_termination_depth_in_closed_form(a, b, depth):
    prob = RiccatiProblem(a, b, 1, 0)
    assert termination_depth(prob) == depth
    assert len(cf_from_riccati(prob).take(700)) == (700 if depth is None else depth)


def test_letters_match_explicit_closed_forms(rng):
    done = 0
    while done < 10:
        a = F(rng.randint(1, 5), rng.randint(1, 3))
        c = F(rng.randint(1, 5), rng.randint(1, 3))
        m = F(rng.randint(0, 6), 2)
        b = F(rng.randint(1, 4), 7)
        prob = RiccatiProblem(a, b, c, m)
        if termination_depth(prob) is not None:
            continue  # a vanishing numerator would zero a closed-form factor
        done += 1
        ac = a * c
        expected = [
            F(1) / c,
            (m + 3) * c / (ac + b),
            (2 * m + 5) * (ac + b) / (c * (ac - (m + 2) * b)),
            (3 * m + 7) * c * (ac - (m + 2) * b) / ((ac + b) * (ac + (m + 3) * b)),
            (4 * m + 9) * (ac + b) * (ac + (m + 3) * b)
            / (c * (ac - (m + 2) * b) * (ac - (2 * m + 4) * b)),
            (5 * m + 11) * c * (ac - (m + 2) * b) * (ac - (2 * m + 4) * b)
            / ((ac + b) * (ac + (m + 3) * b) * (ac + (2 * m + 5) * b)),
        ]
        assert riccati_letters(prob, 6) == expected


def test_letter_ladder_matches_main_fraction(rng):
    from contfrac.core import ContinuedFraction

    done = 0
    while done < 5:
        prob = RiccatiProblem(F(rng.randint(1, 4)), F(rng.randint(1, 3), 7),
                              F(rng.randint(1, 3)), F(rng.randint(0, 4), 2))
        if termination_depth(prob) is not None:
            continue
        done += 1
        letters = riccati_letters(prob, 7)
        pairs = []
        sign = -1
        for letter in letters[1:]:
            pairs.append((1, sign * letter))
            sign = -sign
        ladder = ContinuedFraction.from_pairs(letters[0], pairs)
        main = cf_from_riccati(prob)
        lv = [c.value * prob.c for c in convergent_sequence(ladder, 6)]
        mv = [c.value for c in convergent_sequence(main, 6)]
        assert lv == mv


def test_ode_cot_value():
    res = solve_riccati(RiccatiProblem(1, 0, 1, 0), 1e-9)
    assert abs(res.w_at_1 - COT1) < 1e-9
    assert res.est_error < 1e-9


def test_ode_coth_value():
    res = solve_riccati(RiccatiProblem(-1, 0, 1, 0), 1e-9)
    assert abs(res.w_at_1 - COTH1) < 1e-9


def test_ode_equilibrium_when_a_and_b_vanish():
    res = solve_riccati(RiccatiProblem(0, 0, 1, 0), 1e-10)
    assert abs(res.w_at_1 - 1.0) < 1e-10


def test_small_exponent_sums_more_terms_up_to_the_term_cap():
    # the ratio bound falls below 1/2 once (n+1)(m+2) > 1 here: m + 2 = 1/100
    # sums about a hundred terms, and m + 2 = 1e-6 is refused before the first
    problem = RiccatiProblem(-1, F(1, 3), 1, F(1, 100) - 2)
    rep = verify_riccati(problem, 2000, 1e-8)
    assert rep.passed and 100 <= rep.ode_steps <= 200
    with pytest.raises(RiccatiDomainError, match="more than 10000 terms"):
        solve_riccati(RiccatiProblem(-1, F(1, 3), 1, F(1, 10**6) - 2), 1e-8)


def test_verify_passes_at_m_plus_2_one_half():
    rep = verify_riccati(RiccatiProblem(1, 0, 1, F(-3, 2)), 300, 1e-6)
    assert rep.passed


def test_verify_cot_and_coth():
    rep = verify_riccati(RiccatiProblem(1, 0, 1, 0), 60, 1e-8)
    assert rep.passed and abs(rep.cf_value - COT1) < 1e-8
    rep = verify_riccati(RiccatiProblem(-1, 0, 1, 0), 60, 1e-8)
    assert rep.passed and abs(rep.cf_value - COTH1) < 1e-8


def test_verify_reports_the_ode_error_estimate():
    problem = RiccatiProblem(1, F(1, 3), 1, 0)
    rep = verify_riccati(problem, 80, 1e-8)
    assert rep.ode_est_error == solve_riccati(problem, 1e-8).est_error
    assert 0 < rep.ode_est_error < 1e-8


def test_verify_unit_drift_case():
    # a=-1, b=0, c=1, m=-1: fraction equivalent to 1 + 1/(2 + 1/(3 + 1/(4 + ...)))
    prob = RiccatiProblem(-1, 0, 1, -1)
    cf = cf_from_riccati(prob)
    flipped = equivalence_transform(cf, [(-1) ** k for k in range(1, 9)])
    assert [(t.numerator, t.denominator) for t in flipped.take(4)] == [
        (1, 2), (1, 3), (1, 4), (1, 5)]
    rep = verify_riccati(prob, 60, 1e-6)
    assert rep.passed


def test_verify_nonzero_linear_coefficient():
    # pins the reduced equation's x^(m+2) coupling of the linear term
    rep = verify_riccati(RiccatiProblem(1, F(1, 3), 1, 0), 80, 1e-8)
    assert rep.passed


def test_large_solution_is_compared_relative_to_its_size():
    # |w(1)| = 231: the series' bound is held to tol/4 * |w|, so the
    # comparison allows tol * |w|
    rep = verify_riccati(RiccatiProblem(-9, -10, -2, F(3, 2)), 80, 1e-8)
    assert rep.eval_status is EvalStatus.CONVERGED and rep.stop is EvalStop.DIFFERENCE
    assert rep.cf_value == pytest.approx(-230.98709872167765, rel=1e-15)
    assert rep.abs_error <= rep.allowed == 1e-8 * abs(rep.ode_value)
    assert rep.ode_est_error <= 1e-8 / 4 * abs(rep.ode_value)
    assert rep.passed


def test_a_spent_depth_budget_does_not_pass():
    # six terms leave this fraction within 2e-9 of the equation, but unsettled
    rep = verify_riccati(RiccatiProblem(F(-23, 4), 2, 3, F(17, 4)), 6, 1e-8)
    assert rep.abs_error <= 1e-8
    assert rep.eval_status is EvalStatus.BUDGET_EXHAUSTED and not rep.passed
    rep = verify_riccati(RiccatiProblem(F(-23, 4), 2, 3, F(17, 4)), 80, 1e-8)
    assert rep.eval_status is EvalStatus.CONVERGED and rep.passed


@pytest.mark.parametrize("abcm, depth, status", [
    ((1, 0, 1, 0), 60, VerifyStatus.PASS),
    ((F(-23, 4), 2, 3, F(17, 4)), 6, VerifyStatus.INCONCLUSIVE),
    ((F(33, 4), F(-17, 2), 1, F(-7, 4)), 2000, VerifyStatus.DIVERGENT),
])
def test_verify_riccati_status_is_the_catalog_verdict(abcm, depth, status):
    rep = verify_riccati(RiccatiProblem(*abcm), depth, 1e-8)
    assert rep.status is status
    assert rep.passed is (status is VerifyStatus.PASS)


@pytest.mark.parametrize("a, value", [(40, 152.79054353134), (100, 15.423510453570)],
                         ids=["a=40", "a=100"])
def test_verify_passes_across_a_movable_pole(a, value):
    # w = x u'/u has a pole at each zero of u in (0, 1); the series is summed
    # at x = 1 and never meets them
    rep = verify_riccati(RiccatiProblem(a, 0, 1, 0), 200, 1e-8)
    assert rep.passed and rep.cf_value == pytest.approx(value, abs=1e-10)
    assert abs(rep.ode_value - rep.cf_value) <= rep.ode_est_error + 1e-11 * abs(value)


@pytest.mark.parametrize("abcm", ["-15/2,57/4,3,-7/4", "11/4,8,-1,-3/2", "3,57/4,1,-3/2",
                                  "-3/4,29/4,-2,-7/4", "-15/2,41/4,1,-7/4", "-53/4,9/4,-1,-3/2"])
def test_verify_passes_where_large_terms_cancel(abcm):
    # series terms up to 1.7e4 to 1.2e12 cancel to a |D| of 4.6e-7 to 271:
    # the exact sum loses nothing to them
    rep = verify_riccati(RiccatiProblem(*(F(x) for x in abcm.split(","))), 80, 1e-8)
    assert rep.passed and rep.ode_est_error <= 1e-8 / 4 * max(1.0, abs(rep.ode_value))


def test_a_series_that_ends_with_d_zero_is_refused_at_its_end():
    # ac + b(1 + ns) = 4 - 2(1 + n) vanishes at n = 1, so c_2 = 0 and
    # D = c_0 + c_1 = 1 - 1 = 0: u = 1 - z, a pole at x = 1
    with pytest.raises(RiccatiDomainError, match="after 2 terms: D = u"):
        solve_riccati(RiccatiProblem(4, -2, 1, -1), 1e-8)


def test_domain_validation():
    with pytest.raises(RiccatiDomainError):
        RiccatiProblem(1, 0, 1, -3)
    with pytest.raises(ValueError):
        RiccatiProblem(1, 0, 0, 0)
    with pytest.raises(ValueError):
        solve_riccati(RiccatiProblem(1, 0, 1, 0), 0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-8])
def test_non_finite_or_negative_tolerance_rejected(tol):
    problem = RiccatiProblem(1, 0, 1, 0)
    with pytest.raises(ValueError):
        verify_riccati(problem, 80, tol)
    with pytest.raises(ValueError):
        solve_riccati(problem, tol)


@pytest.mark.parametrize("case", GOLDEN_ODE, ids=lambda e: "{a},{b},{c},{m}-{tol}".format(**e))
def test_ode_results_match_golden_file_exactly(case):
    # every float operation of the series is pinned: results compare by repr
    problem = RiccatiProblem(*(F(case[k]) for k in "abcm"))
    res = solve_riccati(problem, float(case["tol"]))
    assert (repr(res.w_at_1), res.steps, repr(res.est_error)) == (
        case["w_at_1"], case["steps"], case["est_error"])


@functools.cache
def fraction_limit(a, b, c, m):
    """The fraction's value from exact convergents: the last one of a fraction
    that ends, else the first float that three successive convergents share."""
    value, run = float(cf_from_riccati(RiccatiProblem(a, b, c, m)).leading), 0
    for conv in convergent_iter(cf_from_riccati(RiccatiProblem(a, b, c, m))):
        if not conv.defined:
            continue
        v = float(conv.value)
        run = run + 1 if v == value else 0
        value = v
        if run == 2:
            break
    return value


@pytest.mark.parametrize("case", [c for c in GOLDEN_ODE if "error" not in c],
                         ids=lambda e: "{a},{b},{c},{m}-{tol}".format(**e))
def test_golden_ode_value_is_within_tol_of_the_fraction_limit(case):
    limit = fraction_limit(*(F(case[k]) for k in "abcm"))
    assert abs(float(case["w_at_1"]) - limit) <= float(case["tol"])


def exact_series(problem):
    """D = u(1) and N = x u'(1) from the Frobenius series in exact rationals,
    summed past the point where the ratio bound (|ac+b|/d + |b|)/(1+d),
    d = (n+1)(m+2), falls below 1/2, until a term is below 1e-40 |D|."""
    ac, b, s = problem.a * problem.c, problem.b, problem.m + 2
    t, n, d_sum, n_sum = F(1), 0, F(1), F(1)
    while True:
        d = (n + 1) * s
        if (abs(ac + b) / d + abs(b)) / (1 + d) < F(1, 2) and abs(t) <= abs(d_sum) / 10**40:
            return d_sum, n_sum
        t *= -(ac + b * (1 + n * s)) / (d * (1 + d))
        n += 1
        d_sum += t
        n_sum += (1 + n * s) * t


rationals = st.fractions(min_value=-12, max_value=12, max_denominator=7)


@settings(max_examples=120, deadline=None)
@given(rationals, rationals, rationals.filter(bool),
       st.fractions(min_value=F(1, 8), max_value=6, max_denominator=8),
       st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]))
def test_series_value_matches_exact_series_within_its_bound(a, b, c, s, tol):
    # either w(1) lies within its bound of the exact sum in Fraction
    # arithmetic, or the problem is refused
    problem = RiccatiProblem(a, b, c, s - 2)
    try:
        res = solve_riccati(problem, tol)
    except RiccatiDomainError:
        return
    d_exact, n_exact = exact_series(problem)
    assert d_exact and abs(F(res.w_at_1) - n_exact / d_exact) <= F(res.est_error)
    assert res.est_error <= tol / 4 * max(1.0, abs(res.w_at_1))


def rk4_w_at_1(problem, h):
    """w(1) by classical fixed-step Runge-Kutta in tau = ln x on
    dw/dtau = w - w^2 - (ac + b w) x^s, s = m + 2, from the series' first two
    terms w = 1 - (ac + b) z/(1 + s) at z = x^s = 1e-6; a step near h."""
    ac, b, s = float(problem.a * problem.c), float(problem.b), float(problem.m + 2)
    z0 = 1e-6
    n = math.ceil(-math.log(z0) / s / h)
    h = -math.log(z0) / s / n
    w = 1.0 - (ac + b) * z0 / (1.0 + s)

    def f(k, w):  # at tau = (k - n) h
        return w - w * w - (ac + b * w) * math.exp(s * (k - n) * h)

    for k in range(n):
        k1 = f(k, w)
        k2 = f(k + 0.5, w + h / 2 * k1)
        k3 = f(k + 0.5, w + h / 2 * k2)
        k4 = f(k + 1, w + h * k3)
        w += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return w


def test_series_agrees_with_a_runge_kutta_integration(rng):
    # |ac| <= 2 and m + 2 in [1/2, 4] keep w free of poles on (0, 1], so the
    # equation can be integrated directly; RK4 at h = 1/128 is within 3e-10
    for _ in range(20):
        c = rng.choice([F(1, 2), F(1), F(3, 2), F(2)])
        a = rng.choice([a for a in (F(k, 8) for k in range(-8, 17)) if abs(a * c) <= 2])
        problem = RiccatiProblem(a, F(rng.randint(-4, 16), 8), c, F(rng.randint(-6, 8), 4))
        w = solve_riccati(problem, 1e-12).w_at_1
        assert abs(rk4_w_at_1(problem, 1 / 128) - w) <= 1e-9 * max(1.0, abs(w)), problem
