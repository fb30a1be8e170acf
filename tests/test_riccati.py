import functools
import json
import math
import pathlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contfrac.core import (EvalStatus, EvalStop, convergent_iter, convergent_sequence,
                           equivalence_transform)
from contfrac.riccati import (
    PoleEncounteredError,
    RiccatiDomainError,
    RiccatiProblem,
    _max_ratio,
    _series_seed,
    _start,
    cf_from_riccati,
    riccati_letters,
    solve_riccati,
    termination_depth,
    verify_riccati,
)


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
        assert all(type(x) is F for t in got for x in t)
        assert termination_depth(prob) == stop
        ended += stop is not None
    assert ended > 100


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


def test_ode_seed_invariant_under_x0_halving():
    tol = 1e-9
    r1 = solve_riccati(RiccatiProblem(1, 0, 1, 0), tol, x0=1e-3)
    r2 = solve_riccati(RiccatiProblem(1, 0, 1, 0), tol, x0=5e-4)
    assert abs(r1.w_at_1 - r2.w_at_1) <= 2 * tol


def test_explicit_x0_past_the_series_ratio_bound_is_rejected():
    # a = 100, m = 0: rho_0 = 100/6, so x0^2 rho_0 <= 1/4 needs x0 <= 0.1225
    problem = RiccatiProblem(100, 0, 1, 0)
    with pytest.raises(ValueError, match="ratio bound"):
        solve_riccati(problem, 1e-8, x0=0.2)
    assert solve_riccati(RiccatiProblem(1, 0, 1, 0), 1e-8, x0=0.5).x0 == 0.5


def test_default_start_point_is_reported():
    res = solve_riccati(RiccatiProblem(1, 0, 1, 0), 1e-8)
    assert res.x0 == 0.5 and abs(res.w_at_1 - COT1) < 1e-9
    # rho_0 = 100/6 pulls x0 below 1/2: x0^2 = 1/(4 rho_0)
    assert solve_riccati(RiccatiProblem(-100, 0, 1, 0), 1e-8).x0 == pytest.approx(
        math.sqrt(6 / 400), rel=1e-12)


def test_tiny_exponent_starts_in_log_space():
    # m + 2 = 1/100 puts x0 near 1e-243: the start is found as ln z, z = x0^s,
    # and a start past 1e4 units of ln x is refused
    problem = RiccatiProblem(-1, F(1, 3), 1, F(1, 100) - 2)
    rep = verify_riccati(problem, 2000, 1e-8)
    assert rep.passed and 0 < rep.ode_x0 < 1e-200
    with pytest.raises(RiccatiDomainError, match="ln x0"):
        solve_riccati(RiccatiProblem(-1, F(1, 3), 1, F(1, 10**6) - 2), 1e-8)


def test_ode_small_exponent_auto_shrinks_seed_point():
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
    # |w(1)| = 231: the integrator's steps are held to tol * |w|, so the ODE
    # is 5e-8 away, 2e-10 relative; an absolute test at 1e-8 would fail it
    rep = verify_riccati(RiccatiProblem(-9, -10, -2, F(3, 2)), 80, 1e-8)
    assert rep.eval_status is EvalStatus.CONVERGED and rep.stop is EvalStop.DIFFERENCE
    assert rep.cf_value == pytest.approx(-230.98709872167765, rel=1e-15)
    assert 1e-8 < rep.abs_error <= rep.allowed == 1e-8 * abs(rep.ode_value)
    assert rep.passed


def test_a_spent_depth_budget_does_not_pass():
    # six terms leave this fraction within 2e-9 of the equation, but unsettled
    rep = verify_riccati(RiccatiProblem(F(-23, 4), 2, 3, F(17, 4)), 6, 1e-8)
    assert rep.abs_error <= 1e-8
    assert rep.eval_status is EvalStatus.BUDGET_EXHAUSTED and not rep.passed
    rep = verify_riccati(RiccatiProblem(F(-23, 4), 2, 3, F(17, 4)), 80, 1e-8)
    assert rep.eval_status is EvalStatus.CONVERGED and rep.passed


def test_pole_detection():
    with pytest.raises(PoleEncounteredError):
        solve_riccati(RiccatiProblem(40, 0, 1, 0), 1e-8)


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


@pytest.mark.parametrize("case", GOLDEN_ODE,
                         ids=lambda e: "{a},{b},{c},{m}-{tol}".format(**e)
                         + (f"-x0={e['x0']}" if "x0" in e else ""))
def test_ode_results_match_golden_file_exactly(case):
    # every float operation of the integrator is pinned: results compare by repr
    problem = RiccatiProblem(*(F(case[k]) for k in "abcm"))
    x0 = float(case["x0"]) if "x0" in case else None
    if "error" in case:
        with pytest.raises(PoleEncounteredError) as info:
            solve_riccati(problem, float(case["tol"]), x0)
        assert str(info.value) == case["error"]
        return
    res = solve_riccati(problem, float(case["tol"]), x0)
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
                         ids=lambda e: "{a},{b},{c},{m}-{tol}".format(**e)
                         + (f"-x0={e['x0']}" if "x0" in e else ""))
def test_golden_ode_value_is_within_tol_of_the_fraction_limit(case):
    limit = fraction_limit(*(F(case[k]) for k in "abcm"))
    assert abs(float(case["w_at_1"]) - limit) <= float(case["tol"])


def exact_series(problem, z):
    """D = u(x0)/x0 and w(x0) from the Frobenius series in exact rationals,
    summed until its terms fall below 1e-40."""
    ac, b, s = problem.a * problem.c, problem.b, problem.m + 2
    t, n, d_sum, n_sum = F(1), 0, F(1), F(1)
    while t and abs(t) > F(1, 10**40):
        t *= -(ac + b * (1 + n * s)) / ((n + 1) * s * (1 + (n + 1) * s)) * z
        n += 1
        d_sum += t
        n_sum += (1 + n * s) * t
    return d_sum, n_sum / d_sum


rationals = st.fractions(min_value=-12, max_value=12, max_denominator=7)


@settings(max_examples=120, deadline=None)
@given(rationals, rationals, rationals.filter(bool),
       st.fractions(min_value=F(1, 8), max_value=6, max_denominator=8),
       st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]))
def test_series_seed_matches_exact_series_within_its_bound(a, b, c, s, tol):
    problem = RiccatiProblem(a, b, c, s - 2)
    ac, bf, sf = float(a * c), float(b), float(s)
    rho = _max_ratio(ac, bf, sf)
    tau0, z = _start(sf, rho)
    w, bound = _series_seed(ac, bf, sf, z, z * rho, tol)
    assert math.exp(tau0) <= 0.5 * (1 + 1e-15)
    d_exact, w_exact = exact_series(problem, F(z))
    assert d_exact >= F(2, 3)
    assert abs(F(w) - w_exact) <= F(bound)
    # a small part of the ODE's tol, down to the floor of float rounding
    assert bound <= max(tol / 100, 1e-13) * max(1.0, abs(w))
