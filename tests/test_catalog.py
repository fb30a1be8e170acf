import dataclasses
import json
import math
import pathlib
import re
from fractions import Fraction as F

import pytest

from contfrac import catalog, quadrature
from contfrac.catalog import (
    ConstraintViolation,
    IdentityCase,
    UnknownFamilyError,
    VerifyStatus,
    builtin_suite,
    chain_alpha,
    family_ids,
    make_cf,
    permutation_theorem_check,
    product_identity_check,
    reference_value,
    verify,
)
from contfrac.core import (ContinuedFractionError, EvalReport, EvalStatus, PositivityClass,
                           eval_float, positivity_class)
from contfrac.quadrature import beta, sqrt_kernel_integral


def terms_of(family, params, k):
    return [(t.numerator, t.denominator) for t in make_cf(family, params).take(k)]


# ------------------------------------------------------------ term displays

def test_f1_matches_brouncker_at_2_1():
    assert terms_of("F1", {"m": 2, "n": 1}, 4) == [(1, 1), (1, 2), (9, 2), (25, 2)]


def test_f1_cubic_denominator_display():
    # 1/(1 + 1/(3 + 16/(3 + 49/(3 + 100/(3 + ...)))))
    assert terms_of("F1", {"m": 3, "n": 1}, 5) == [
        (1, 1), (1, 3), (16, 3), (49, 3), (100, 3)]


def test_f1_unit_numerator_ladder_for_growing_exponents():
    # 1/(1 + 1/(m + (m+1)^2/(m + (2m+1)^2/(m + ...)))) for m = 4, 5, 6
    for m in (4, 5, 6):
        assert terms_of("F1", {"m": m, "n": 1}, 4) == [
            (1, 1), (1, m), ((m + 1) ** 2, m), ((2 * m + 1) ** 2, m)]


def test_reference_value_checks_constraints():
    with pytest.raises(ConstraintViolation):
        reference_value("F3", {"s": -1})


def test_f1_frac_display():
    assert terms_of("F1-frac", {"m": 3, "n": 2}, 5) == [
        (1, 1), (2, 3), (25, 3), (64, 3), (121, 3)]


def test_f2_general_term_at_mu1_nu2():
    m, n = 2, 1
    assert terms_of("F2", {"mu": 1, "nu": 2, "m": m, "n": n}, 6) == [
        (1, n),
        (n * n, 2 * m + n),
        (6 * (m + n) ** 2, 5 * m + n),
        (20 * (2 * m + n) ** 2, 8 * m + n),
        (42 * (3 * m + n) ** 2, 11 * m + n),
        (72 * (4 * m + n) ** 2, 14 * m + n)]


def test_f2_integer_exponent_displays():
    m, n = 3, 2
    assert terms_of("F2", {"mu": 2, "nu": 1, "m": m, "n": n}, 4) == [
        (1, n), (2 * n * n, m - n),
        (1 * 3 * (m + n) ** 2, m - n), (2 * 4 * (2 * m + n) ** 2, m - n)]
    assert terms_of("F2", {"mu": 3, "nu": 1, "m": m, "n": n}, 5) == [
        (1, n), (3 * n * n, m - 2 * n),
        (1 * 4 * (m + n) ** 2, -2 * n),
        (2 * 5 * (2 * m + n) ** 2, -m - 2 * n),
        (3 * 6 * (3 * m + n) ** 2, -2 * m - 2 * n)]


def test_f3_display():
    cf = make_cf("F3", {"s": 4})
    assert cf.leading == 4
    assert cf.take(4) == [(1, 8), (9, 8), (25, 8), (49, 8)]


def test_f4_forms_at_r_equal_2q():
    # signed main form: p - 2pq/(p+2q + p(p+2q)/(2q + (p+2q)(p+4q)/(2q + ...)))
    cf = make_cf("F4-25", {"p": 1, "q": 1, "r": 2})
    assert cf.leading == 1
    assert terms_of("F4-25", {"p": 1, "q": 1, "r": 2}, 4) == [
        (-2, 3), (1 * 3, 2), (3 * 5, 2), (5 * 7, 2)]
    # positive rearrangement: p/(1 + 2q/(p + p(p+2q)/(2q + ...)))
    assert terms_of("F4-25alt", {"p": 1, "q": 1, "r": 2}, 4) == [
        (1, 1), (2, 1), (1 * 3, 2), (3 * 5, 2)]
    # doubled denominators: p-q + q^2/(p+q + p^2/(4q + (p+2q)^2/(4q + ...)))
    cf26 = make_cf("F4-26", {"p": 1, "q": 1, "r": 2})
    assert cf26.leading == 0
    assert terms_of("F4-26", {"p": 1, "q": 1, "r": 2}, 4) == [
        (1, 2), (1, 4), (9, 4), (25, 4)]


def test_f4_26_half_q_display():
    cf = make_cf("F4-26", {"p": 1, "q": F(1, 2), "r": 1})
    assert cf.leading == F(1, 2)
    assert cf.take(4) == [(F(1, 4), F(3, 2)), (1, 2), (4, 2), (9, 2)]


def test_f4_27_display_and_sign():
    cf = make_cf("F4-27", {"p": 1, "q": F(1, 2), "r": 1})
    assert cf.leading == 1
    assert cf.take(4) == [(-1, 2), (2, 1), (6, 1), (12, 1)]
    assert positivity_class(cf, 4) is PositivityClass.NOT_GUARANTEED


def test_positivity_classification_of_signed_forms():
    # integer binomial exponents lose positivity (negative denominators)
    assert positivity_class(make_cf("F2", {"mu": 3, "nu": 1, "m": 1, "n": 1}), 6) \
        is PositivityClass.NOT_GUARANTEED
    # first interpolation form at r = 2q carries a negative first numerator
    assert positivity_class(make_cf("F4-25", {"p": 1, "q": 1, "r": 2}), 6) \
        is PositivityClass.NOT_GUARANTEED
    assert positivity_class(make_cf("brouncker", {}), 50) \
        is PositivityClass.GUARANTEED_CONVERGENT


def test_f7_display_is_brouncker_ladder():
    cf = make_cf("F7", {"q": 1, "r": 2, "s": 3})
    assert cf.leading == 3
    assert cf.take(4) == [(1, 6), (9, 6), (25, 6), (49, 6)]


def test_f8_display():
    a, b, c, r, p, q = 3, F(5, 2), 2, 1, 1, F(1, 2)
    g = a + b - c - r
    cf = make_cf("F8", {"a": a, "b": b, "c": c, "r": r, "p": p, "q": q})
    expected = [(p * g, a * p - b * q)]
    for j in range(1, 4):
        expected.append((p * q * (c + j * r) * (g + j * r),
                         (a + j * r) * p - (b + j * r) * q))
    assert cf.take(4) == expected


def test_f10_display():
    assert terms_of("F10", {"s": 2}, 4) == [(1, 2), (4, 2), (9, 2), (16, 2)]


def test_f11_display():
    assert terms_of("F11", {"a": 1, "alpha": 1, "b": 1, "beta": 1}, 4) == [
        (1, 1), (2, 2), (3, 3), (4, 4)]


def test_f12_display():
    assert terms_of("F12", {"a": 1, "alpha": 1, "b": 2}, 4) == [
        (1, 2), (2, 2), (3, 2), (4, 2)]


def test_fixed_family_displays():
    golden = make_cf("golden", {})
    assert golden.leading == 1
    assert golden.take(4) == [(1, 2), (4, 3), (9, 4), (16, 5)]
    ehalf = make_cf("e-euler", {})
    assert ehalf.leading == 2
    assert ehalf.take(4) == [(2, 2), (3, 3), (4, 4), (5, 5)]


# ------------------------------------------------------------ reference values

def test_f3_reference_at_s1_is_4_over_pi():
    assert abs(reference_value("F3", {"s": 1})[0] - 4.0 / math.pi) <= 1e-10


def test_f3_reference_at_s2_matches_quarter_kernel_ratio():
    # ratio of the two sqrt-kernel moments with exponent 4 under the root
    expected = sqrt_kernel_integral(1, 2) / sqrt_kernel_integral(3, 2)
    assert abs(reference_value("F3", {"s": 2})[0] - expected) <= 1e-9


def test_f1_reference_log2():
    assert abs(reference_value("F1", {"m": 1, "n": 1})[0] - math.log(2)) <= 1e-11


def test_f1_frac_is_n_scaled_integer_form():
    frac = reference_value("F1-frac", {"m": 3, "n": 2})[0]
    plain = reference_value("F1", {"m": 3, "n": 2})[0]
    assert abs(frac - 2 * plain) <= 1e-9


def test_f6_limit_value():
    ref = reference_value("F6", {"f": 2, "h": 1, "r": 1})[0]
    assert abs(ref - 1.0 / (2.0 * math.log(2.0) - 1.0)) <= 1e-11
    assert f"{ref:.5f}" == "2.58870"


def test_f6_limit_is_symmetric_in_f_and_h():
    # the fraction is symmetric, so both orientations of |f - h| = r must
    # give the same (limit-form) reference
    a = reference_value("F6", {"f": 2, "h": 1, "r": 1})[0]
    b = reference_value("F6", {"f": 1, "h": 2, "r": 1})[0]
    assert a == b
    rep = verify(IdentityCase("F6", {"f": F(1), "h": F(7, 4), "r": F(3, 4)}, 1e-5, 10 ** 6))
    assert rep.status is VerifyStatus.PASS


def test_f6_limit_agrees_with_two_sided_general_formula():
    # approaching |f - h| = r, the general two-moment expression must tend to
    # the limit form used on the manifold
    for f, h, r in ((3, 2, 1), (F(7, 4), 1, F(3, 4))):
        on_manifold = reference_value("F6", {"f": f, "h": h, "r": r})[0]
        eps = F(1, 100_000)
        near = reference_value("F6", {"f": f + eps, "h": h, "r": r})[0]
        assert abs(on_manifold - near) < 2e-4
        rep = verify(IdentityCase("F6", {"f": F(f), "h": F(h), "r": F(r)}, 1e-5, 10 ** 6))
        assert rep.status is VerifyStatus.PASS


def test_f4_reference_is_three_pi_quarter():
    ref = reference_value("F4-26", {"p": 4, "q": F(-1, 2), "r": 1})[0]
    assert abs(ref - 0.75 * math.pi) <= 1e-11


def test_f4_26_reference_two_over_pi():
    ref = reference_value("F4-26", {"p": 1, "q": F(1, 2), "r": 1})[0]
    assert abs(ref - 2.0 / math.pi) <= 1e-11


def test_f5_dual_references_agree():
    refs = reference_value("F5", {"f": 2, "h": F(7, 2), "r": 1})
    assert len(refs) == 2
    assert abs(refs[0] - refs[1]) <= 1e-9


def test_f5_equal_parameters_reference():
    ref = reference_value("F5", {"f": 1, "h": 1, "r": 1})[0]
    assert abs(ref - 1.0 / math.log(2.0)) <= 1e-11


def test_f10_reference_relation_to_log2():
    ref = reference_value("F10", {"s": 1})[0]
    assert abs(ref - (1.0 / math.log(2.0) - 1.0)) <= 1e-10


def test_f11_reference_one_over_e_minus_1():
    ref = reference_value("F11", {"a": 1, "alpha": 1, "b": 1, "beta": 1})[0]
    assert abs(ref - 1.0 / (math.e - 1.0)) <= 1e-10


# ------------------------------------------------------------ verify

def test_verify_f3_s2_passes():
    rep = verify(IdentityCase("F3", {"s": F(2)}, 1e-4, 10 ** 6))
    assert rep.status is VerifyStatus.PASS
    assert rep.lower <= rep.references[0] <= rep.upper


def test_verify_bracket_wider_than_tolerance_is_inconclusive():
    rep = verify(IdentityCase("brouncker", {}, 1e-8, 10))
    assert rep.status is VerifyStatus.INCONCLUSIVE and not rep.passed
    assert rep.eval_status is EvalStatus.BUDGET_EXHAUSTED
    assert rep.lower <= rep.references[0] <= rep.upper and rep.upper - rep.lower > 1e-8
    assert "above tolerance 1.0e-08" in rep.detail


def test_verify_budget_exhausted_without_bracket_is_inconclusive():
    # pi-half-b is signed: no bracket, and after 50 terms its value is
    # within 1e-4 of pi/2 only by the luck of where the budget fell
    rep = verify(IdentityCase("pi-half-b", {}, 1e-4, 50))
    assert rep.eval_status is EvalStatus.BUDGET_EXHAUSTED and rep.lower is None
    assert rep.abs_error <= 1e-4
    assert rep.status is VerifyStatus.INCONCLUSIVE and not rep.passed
    assert rep.detail == "term budget exhausted without a bracket"
    # a last value farther than tol shows no error either: both are true
    # identities stopped early
    far = [IdentityCase("pi-half-b", {}, 1e-6, 50),
           IdentityCase("F8", {"a": F(2), "b": F(1), "c": F(3, 2), "r": F(1), "p": F(1),
                               "q": F(-1, 2)}, 1e-9, 10)]
    for rep in map(verify, far):
        assert rep.eval_status is EvalStatus.BUDGET_EXHAUSTED and rep.lower is None
        assert rep.abs_error > rep.case.tolerance
        assert rep.status is VerifyStatus.INCONCLUSIVE
        assert rep.detail == "term budget exhausted without a bracket"


# one report per branch of catalog._verdict, in the order it tries them; each
# row that does not pass meets a later branch's condition too, so the order
# of the branches decides it
_CONVERGED, _SPENT = EvalStatus.CONVERGED, EvalStatus.BUDGET_EXHAUSTED


@pytest.mark.parametrize("rep, refs, tol, status, detail", [
    # divergence, though the value and bracket hold the references
    (EvalReport(1.0, 0.9, 1.1, 9, EvalStatus.DIVERGENT), (1.0, 5.0), 1.0,
     VerifyStatus.DIVERGENT, "oscillation without contraction"),
    # dual references that disagree, both outside a bracket narrower than tol
    (EvalReport(1.0, 0.95, 1.05, 9, _CONVERGED), (0.9, 1.1), 1.0,
     VerifyStatus.FAIL, "dual references disagree by 2.000e-01"),
    # a reference outside a bracket wider than tol
    (EvalReport(1.0, 0.9, 1.1, 9, _SPENT), (1.2,), 1e-6,
     VerifyStatus.FAIL, "reference outside bracket"),
    # a bracket wider than tol that holds the reference
    (EvalReport(1.0, 0.9, 1.1, 9, _SPENT), (1.0,), 1e-6,
     VerifyStatus.INCONCLUSIVE, "bracket width 2.000e-01 above tolerance 1.0e-06"),
    # a spent budget with no bracket, near the reference and far from it
    (EvalReport(1.0, None, None, 9, _SPENT), (1.0,), 1e-6,
     VerifyStatus.INCONCLUSIVE, "term budget exhausted without a bracket"),
    (EvalReport(1.0, None, None, 9, _SPENT), (2.0,), 1e-6,
     VerifyStatus.INCONCLUSIVE, "term budget exhausted without a bracket"),
    # a settled evaluation with no bracket, far from the reference and near it
    (EvalReport(1.0, None, None, 9, _CONVERGED), (1.5,), 0.25,
     VerifyStatus.FAIL, "absolute error above tolerance"),
    (EvalReport(1.0, None, None, 9, EvalStatus.TERMINATED_FINITE), (1.0,), 1e-6,
     VerifyStatus.PASS, ""),
    # a tolerance scaled past the distance, as verify_riccati passes tol * |w|
    (EvalReport(-231.0, None, None, 9, _CONVERGED), (-231.0002,), 1e-6 * 231.0002,
     VerifyStatus.PASS, ""),
    # a bracket within tol that holds the reference
    (EvalReport(1.0, 1.0 - 1e-9, 1.0 + 1e-9, 9, _CONVERGED), (1.0,), 1e-6,
     VerifyStatus.PASS, ""),
], ids=["divergent", "dual-disagreement", "outside-bracket", "wide-bracket", "spent-near",
        "spent-far", "settled-far", "settled-near", "scaled-tolerance", "narrow-bracket"])
def test_verdict_branches_in_order(rep, refs, tol, status, detail):
    assert catalog._verdict(rep, refs, tol) == (status, detail)


def test_verify_f2_mu3_is_divergent():
    rep = verify(IdentityCase("F2", {"mu": F(3), "nu": F(1), "m": F(1), "n": F(1)},
                              1e-6, 10 ** 5))
    assert rep.status is VerifyStatus.DIVERGENT


def test_verify_constraint_violation():
    rep = verify(IdentityCase("F8", {"a": F(1), "b": F(1), "c": F(3), "r": F(1),
                                     "p": F(1), "q": F(1, 2)}, 1e-6, 1000))
    assert rep.status is VerifyStatus.CONSTRAINT_VIOLATION
    assert "a + b - c - r > 0" in rep.detail


def test_verify_unknown_family_and_params():
    assert verify(IdentityCase("nope", {}, 1e-6, 10)).status is VerifyStatus.CONSTRAINT_VIOLATION
    rep = verify(IdentityCase("F3", {"zz": F(1)}, 1e-6, 10))
    assert rep.status is VerifyStatus.CONSTRAINT_VIOLATION
    assert "zz" in rep.detail


@pytest.mark.parametrize("family, params", [
    ("F3", {"s": F(10 ** 400)}),                                 # float(s) overflows
    ("F5", {"f": F(10 ** 300), "h": F(10 ** 300), "r": F(1)}),   # reference divides by zero
])
def test_verify_reports_float_overflow_as_undefined(family, params):
    rep = verify(IdentityCase(family, params, 1e-6, 1000))
    assert rep.status is VerifyStatus.UNDEFINED
    assert rep.detail


def test_verify_reports_underflowing_term_as_undefined():
    # a_k = 2s is a nonzero rational that rounds to 0.0
    rep = verify(IdentityCase("F3", {"s": F(1, 10 ** 400)}, 1e-6, 1000))
    assert rep.status is VerifyStatus.UNDEFINED
    assert "index 1" in rep.detail and rep.eval_status is None


def test_verify_passes_a_point_with_a_zero_partial_denominator():
    # a_1 = a p - b q = 0, so q_1 = 0; the later convergents are defined
    params = {"a": F(3, 2), "b": F(9, 4), "c": F(2), "r": F(1, 2), "p": F(3, 2), "q": F(1)}
    assert make_cf("F8", params).take(1)[0].denominator == 0
    rep = verify(IdentityCase("F8", params))
    assert rep.status is VerifyStatus.PASS and rep.eval_status is EvalStatus.CONVERGED
    assert rep.terms_used == 36 and rep.abs_error < 1e-4


def test_verify_flags_convergents_undefined_at_every_other_index_as_divergent():
    # every a_k is 0: q_k = 0 at odd k and v_k = 0 at even k, so the
    # approximants alternate between infinity and 0 and have no limit
    params = {n: F(2) for n in "abc"} | {n: F(1) for n in "rpq"}
    assert {t.denominator for t in make_cf("F8", params).take(8)} == {0}
    rep = verify(IdentityCase("F8", params))
    assert rep.status is VerifyStatus.DIVERGENT and rep.eval_status is EvalStatus.DIVERGENT
    assert rep.terms_used == 24 and rep.value == 0.0


def test_verify_fails_when_dual_references_disagree(monkeypatch):
    params = {"f": F(3, 2), "h": F(5, 2), "r": F(1)}
    v = reference_value("F5", params)[0]
    monkeypatch.setitem(catalog.FAMILIES, "F5", dataclasses.replace(
        catalog.FAMILIES["F5"], refs=lambda P: (v, v + 1e-6)))
    rep = verify(IdentityCase("F5", params))
    assert rep.status is VerifyStatus.FAIL
    assert rep.detail == "dual references disagree by 1.000e-06"


def test_verify_fails_when_the_reference_is_outside_the_bracket(monkeypatch):
    monkeypatch.setitem(catalog.FAMILIES, "brouncker", dataclasses.replace(
        catalog.FAMILIES["brouncker"], refs=lambda P: (0.7,)))
    rep = verify(IdentityCase("brouncker", {}))
    assert rep.lower is not None and not rep.lower <= 0.7 <= rep.upper
    assert rep.status is VerifyStatus.FAIL and rep.detail == "reference outside bracket"


def test_make_cf_rejects_unknown_family():
    with pytest.raises(UnknownFamilyError):
        make_cf("F99", {})


def test_make_cf_constraint_violation_names_predicate():
    with pytest.raises(ConstraintViolation) as exc_info:
        make_cf("F7", {"q": 5, "r": 1, "s": 1})
    assert "q < r + s" in str(exc_info.value)


# ------------------------------------------------------------ constraints

#: seeded and boundary points on a grid of small rationals, with the first
#: violated predicate (or null) as the constraint checks returned when the
#: checks were hand-written functions
GOLDEN_CONSTRAINTS = json.loads((pathlib.Path(__file__).parent / "data"
                                 / "golden_constraints.json").read_text())["points"]
#: the three predicates whose text became the Python syntax they are evaluated in
RENAMED_PREDICATES = {"p + 2q > 0": "p + 2*q > 0", "p + 2q - r > 0": "p + 2*q - r > 0",
                      "alpha^2 + alpha*beta*b > beta^2*a": "alpha**2 + alpha*beta*b > beta**2*a"}


@pytest.mark.parametrize("family", family_ids())
def test_constraint_checks_match_golden_points(family):
    points = [p for p in GOLDEN_CONSTRAINTS if p["family"] == family]
    fam = catalog.get_family(family)
    expected = [RENAMED_PREDICATES.get(p["result"], p["result"]) for p in points]
    got = [fam.check({k: F(v) for k, v in p["params"].items()}) for p in points]
    assert got == expected
    # every predicate is the first failure somewhere, and some point passes
    assert set(expected) == set(fam.constraints) | {None}


@pytest.mark.parametrize("family", family_ids())
def test_constraints_compile_and_name_only_family_parameters(family):
    fam = catalog.get_family(family)
    for text in fam.constraints:
        assert set(compile(text, family, "eval").co_names) <= set(fam.param_names), text


#: reference_value at every in-constraint point of golden_constraints.json
#: and at every builtin_suite() case, as the reference functions returned when
#: they took a parameter mapping and a quadrature target
GOLDEN_REFS = json.loads((pathlib.Path(__file__).parent / "data"
                          / "golden_refs.json").read_text())["points"]


@pytest.mark.parametrize("family", family_ids())
def test_references_match_golden_points(family):
    # relative 1e-10 leaves room for numpy's exp and log, whose last bit can
    # differ between CPUs; the quadrature target is 1e-11
    points = [p for p in GOLDEN_REFS if p["family"] == family]
    assert points
    for p in points:
        got = reference_value(family, {k: F(v) for k, v in p["params"].items()})
        assert len(got) == len(p["refs"]), p["params"]
        assert all(math.isclose(g, w, rel_tol=1e-10) for g, w in zip(got, p["refs"])), p["params"]


#: every builtin_suite() report, reference_value at 25 seeded draws of each
#: sampled family and at the fixed cases, and seeded permutation and
#: contiguous residuals, as repr strings: recorded when every moment had an
#: integrand call of its own, and every Poly operation reduced its result
GOLDEN_SUITE = json.loads((pathlib.Path(__file__).parent / "data"
                           / "golden_suite.json").read_text())


def _numpy_digest():
    """A digest of numpy's exp, expm1, log and log1p on fixed arrays.  The
    golden values above hold to the bit where it matches the recording."""
    import hashlib

    import numpy as np

    t = np.linspace(-700.0, 700.0, 20001)
    x = np.geomspace(1e-300, 1e300, 20001)
    y = np.linspace(-0.999, 2.0, 20001)
    parts = (np.exp(t), np.expm1(t / 100.0), np.log(x), np.log1p(y))
    return hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()


#: numpy's transcendental functions can differ in the last bit between CPUs
#: (see above), and the references carry that; elsewhere they are compared at
#: the relative 1e-10 of golden_refs.json, and everything else to the bit
_BITWISE = _numpy_digest() == GOLDEN_SUITE["numpy_digest"]


def _same_floats(got, want, abs_tol=0.0):
    if _BITWISE:
        return repr(got) == want
    want = eval(want, {"__builtins__": {}})
    if isinstance(want, float):
        got, want = [got], [want]
    return len(got) == len(want) and all(
        math.isclose(g, w, rel_tol=1e-10, abs_tol=abs_tol) for g, w in zip(got, want))


@pytest.mark.parametrize("entry", GOLDEN_SUITE["suite"],
                         ids=lambda e: ",".join([e["family"], *(f"{k}={v}" for k, v in e["params"].items())]))
def test_builtin_suite_reports_match_golden_reports(entry):
    case = IdentityCase(entry["family"], {k: F(v) for k, v in entry["params"].items()},
                        float(entry["tolerance"]), entry["max_terms"])
    assert case in builtin_suite()
    rep, want = verify(case), entry["report"]
    assert _same_floats(rep.references, want["references"])
    assert {"status": rep.status.value, "value": repr(rep.value), "lower": repr(rep.lower),
            "upper": repr(rep.upper), "terms_used": rep.terms_used,
            "references": want["references"], "stop": rep.stop.value,
            "renorms": rep.renorms} == want


@pytest.mark.parametrize("family", family_ids())
def test_references_match_golden_suite_draws(family):
    entries = [e for e in GOLDEN_SUITE["references"] if e["family"] == family]
    assert entries
    for e in entries:
        got = reference_value(family, {k: F(v) for k, v in e["params"].items()})
        assert _same_floats(got, e["refs"]), e["params"]


def test_oracle_checks_match_golden_residuals():
    for e in GOLDEN_SUITE["checks"]:
        fn = (permutation_theorem_check if e["kind"] == "permutation"
              else quadrature.contiguous_relation_check)
        # a residual is a difference of moments, so away from the recording
        # CPU it is compared absolutely
        assert _same_floats(fn(*e["args"]), e["value"], abs_tol=1e-9), e


def test_constraints_see_no_builtins():
    fam = catalog.IdentityFamily("X", ("s",), "", ("abs(s) > 0",), None, None)
    with pytest.raises(NameError):
        fam.check({"s": F(1)})


def test_builtin_suite_all_pass():
    reports = [verify(case) for case in builtin_suite()]
    bad = [r for r in reports if not r.passed]
    assert not bad, [(r.case.family, r.status, r.detail) for r in bad]


def test_random_in_constraint_draws_bracket_or_tolerance(rng):
    sampler = _family_samplers()
    for family, draw in sampler.items():
        for _ in range(10):
            params = draw(rng)
            case = IdentityCase(family, params, 1e-3, 150_000)
            rep = verify(case)
            # a slow draw may end its budget with a bracket wider than 1e-3
            # that still holds the references: that is inconclusive, not a pass
            assert rep.status is VerifyStatus.PASS or (
                rep.status is VerifyStatus.INCONCLUSIVE
                and rep.eval_status is EvalStatus.BUDGET_EXHAUSTED), (
                family, params, rep.status, rep.detail)
            if rep.lower is not None:
                assert rep.lower - 1e-9 <= rep.references[0] <= rep.upper + 1e-9


def _family_samplers():
    def quarters(rng, lo, hi):
        return F(rng.randint(int(lo * 4), int(hi * 4)), 4)

    def f1(rng):
        return {"m": quarters(rng, 1, 4), "n": quarters(rng, 0.5, 3)}

    def f2(rng):
        nu = quarters(rng, 1, 3)
        return {"mu": nu * F(rng.randint(2, 6), 4), "nu": nu,
                "m": quarters(rng, 0.5, 3), "n": quarters(rng, 0.5, 3)}

    def f3(rng):
        return {"s": quarters(rng, 0.5, 6)}

    def f4_25(rng):
        r = quarters(rng, 0.5, 2)
        return {"p": quarters(rng, 0.5, 3), "q": r + quarters(rng, 0.25, 2), "r": r}

    def f4_25alt(rng):
        q = quarters(rng, 0.25, 1.5)
        r = q + quarters(rng, 0.25, 1.5)
        p = quarters(rng, 0.5, 3)
        if p + 2 * q - r <= 0:
            p = r - 2 * q + quarters(rng, 0.5, 2)
        return {"p": p, "q": q, "r": r}

    def f4_26(rng):
        r = quarters(rng, 0.5, 2)
        return {"p": quarters(rng, 0.5, 3), "q": quarters(rng, 0.25, 4) * r / 4, "r": r}

    def f5(rng):
        r = quarters(rng, 0.75, 1.5)
        f_ = r * F(rng.randint(5, 9), 4)
        h = f_ + quarters(rng, 0.25, 1.25)
        return {"f": f_, "h": h, "r": r}

    def f6(rng):
        while True:
            r = quarters(rng, 0.75, 1.5)
            f_ = quarters(rng, 0.5, 2)
            h = quarters(rng, 0.5, 2)
            if abs(f_ - h) != r:   # the exact limit manifold has its own tests
                return {"f": f_, "h": h, "r": r}

    def f7(rng):
        r = quarters(rng, 0.75, 2)
        return {"q": r * F(rng.randint(1, 3), 4), "r": r,
                "s": quarters(rng, 0.75, 3)}

    def f8(rng):
        p = quarters(rng, 0.75, 2)
        q = p - quarters(rng, 0.5, 1.5)   # keep |p - q| away from 0
        if p + q <= 0:
            q = -p / 2 + F(1, 4)
        r = quarters(rng, 0.5, 2)
        c = quarters(rng, 0.5, 2.5)
        b = quarters(rng, 0.25, 1) + c - r if c + r > 1 else c
        if not c - b + r > 0:
            b = c + r - F(1, 2)
        a = c + r - b + quarters(rng, 0.5, 2)
        return {"a": a, "b": b, "c": c, "r": r, "p": p, "q": q}

    def f9(rng):
        c = quarters(rng, 0.5, 2)
        g = quarters(rng, 0.5, 2)
        r = quarters(rng, 0.5, 1.5)
        s = quarters(rng, 1, 4)
        if not c - g + r + s > 0:
            s = g - c - r + F(1, 2)
        return {"c": c, "g": g, "r": r, "s": s}

    def f10(rng):
        return {"s": quarters(rng, 0.75, 4)}

    def f11(rng):
        alpha = quarters(rng, 0.5, 2)
        beta_ = quarters(rng, 0.5, 1.25)
        b = quarters(rng, 0.5, 2)
        bound = (alpha * alpha + alpha * beta_ * b) / (beta_ * beta_)
        a = min(quarters(rng, 0.25, 2), bound * F(3, 4))
        return {"a": a, "alpha": alpha, "b": b, "beta": beta_}

    def f12(rng):
        return {"a": quarters(rng, 0.5, 2.5), "alpha": quarters(rng, 0.5, 2),
                "b": quarters(rng, 0.75, 2.5)}

    return {"F1": f1, "F1-frac": f1, "F2": f2, "F3": f3, "F4-25": f4_25,
            "F4-25alt": f4_25alt, "F4-26": f4_26, "F5": f5, "F6": f6,
            "F7": f7, "F8": f8, "F9": f9, "F10": f10, "F11": f11, "F12": f12}


# ------------------------------------------------------------ chain letters

def test_chain_reference_point_is_exact():
    # (m, n, s, kappa) = (3, 1, 1, 1): the fractions terminate immediately and
    # the letters are 3, 5, 7, ...
    alpha = chain_alpha(3, 1, 1, 1, 0, 1000)
    beta_ = chain_alpha(3, 1, 1, 1, 1, 1000)
    gamma = chain_alpha(3, 1, 1, 1, 2, 1000)
    assert (alpha, beta_, gamma) == (3.0, 5.0, 7.0)
    assert abs(alpha * beta_ - 3 * alpha - 1 * beta_ - 1) < 1e-8
    assert abs(beta_ * gamma - 4 * beta_ - 2 * gamma - 1) < 1e-8


def test_chain_bilinear_relations_generic_point():
    m, n, s, kap = F(3, 2), F(2), F(1, 2), F(1)
    alpha = chain_alpha(m, n, s, kap, 0, 60_000)
    beta_ = chain_alpha(m, n, s, kap, 1, 60_000)
    gamma = chain_alpha(m, n, s, kap, 2, 60_000)
    assert abs(alpha * beta_ - float(m) * alpha - float(n) * beta_ - 1) < 1e-8
    assert abs(beta_ * gamma - float(m + s) * beta_ - float(n + s) * gamma - 1) < 1e-8


def test_chain_relations_extend_to_higher_shifts():
    m, n, s, kap = F(3, 2), F(2), F(1, 2), F(1)
    gamma = chain_alpha(m, n, s, kap, 2, 60_000)
    delta = chain_alpha(m, n, s, kap, 3, 60_000)
    assert abs(gamma * delta - float(m + 2 * s) * gamma
               - float(n + 2 * s) * delta - float(kap)) < 1e-8


def test_chain_degenerate_s0_hits_quadratic_fixed_point():
    m, n, kap = 2.0, 1.5, 1.25
    root = ((m + n) + math.sqrt((m + n) ** 2 + 4 * kap)) / 2.0
    val = chain_alpha(2, F(3, 2), 0, F(5, 4), 0, 20_000)
    assert abs(val - root) < 1e-9
    assert abs(val * val - (m + n) * val - kap) < 1e-8


def test_chain_letter_with_a_spent_budget_raises():
    # at (1, 1, 1, 1) the letter still moves after 2,000 terms: returning the
    # value reported 1.8018 from a budget-exhausted evaluation
    with pytest.raises(ContinuedFractionError) as exc_info:
        chain_alpha(1, 1, 1, 1, 0, 2000)
    assert "budget-exhausted" in str(exc_info.value) and "2000 terms" in str(exc_info.value)


def test_chain_metadata_records_kappa_sign():
    # the first numerator carries +kappa: of its two sign readings, only
    # +kappa satisfies the bilinear relation; chain_alpha uses it
    m, n, s, kap = F(3, 2), F(2), F(1, 2), F(1)
    residuals = {}
    for sign in (1, -1):
        alpha, beta_ = (eval_float(catalog._chain_cf(m, n, s, kap, shift, sign),
                                   1e-11, 60_000).value for shift in (0, 1))
        residuals[sign] = abs(alpha * beta_ - float(m) * alpha - float(n) * beta_ - float(kap))
    assert residuals[1] < 1e-8
    assert residuals[-1] > 100 * residuals[1]
    assert chain_alpha(m, n, s, kap, 0, 60_000) == eval_float(
        catalog._chain_cf(m, n, s, kap, 0, 1), 1e-11, 60_000).value


# ------------------------------------------------------------ cross-identity checks

def test_product_identity_examples():
    assert product_identity_check(1, 2, 1) < 1e-9
    assert product_identity_check(1, 2, 2) < 1e-9


def test_product_identity_symmetric_point():
    # q = r/2: the product reduces to (s + r/2)^2
    assert product_identity_check(1.0, 2.0, 1.5) < 1e-9


def test_permutation_theorem_examples():
    assert permutation_theorem_check(3, 2.5, 2, 1, 1, 1) < 1e-8
    assert permutation_theorem_check(4, 3, 2.2, 2, 2, 1) < 1e-8
    # c = g: both orientations are identical expressions
    assert permutation_theorem_check(3, 2.0, 2, 1, 1, 1) < 1e-10


def test_permutation_theorem_validates_integrability():
    with pytest.raises(ValueError):
        permutation_theorem_check(1, 1, 3, 1, 1, 1)


@pytest.mark.parametrize("call, match", [
    (lambda: IdentityCase("log2", {}, 1e-4, 0), "max_terms must be positive"),
    (lambda: chain_alpha(3, 1, 1, 1, -1, 1000), "shift must be nonnegative"),
    # g = 1/2 and c - b + r = 1/2 hold, a - c = -1 does not
    (lambda: permutation_theorem_check(1, 2.5, 2, 1, 1, 1), "c-side integrability violated"),
], ids=["case-max-terms-0", "chain-shift-negative", "permutation-c-side"])
def test_catalog_refusals_name_their_cause(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["a", "b", "c", "r", "p", "q"])
def test_permutation_theorem_rejects_a_non_finite_argument_by_its_name(name, bad):
    # a NaN a used to pass the integrability checks and fail in the integrand
    # as "alpha must be finite"
    args = dict(a=3.0, b=2.5, c=2.0, r=1.0, p=1.0, q=0.5)
    args[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        permutation_theorem_check(**args)


#: families whose every reference is a Beta closed form or a constant
_CLOSED_FORM = {"F3", "F4-25", "F4-25alt", "F4-26", "F4-27", "F7", "log2", "brouncker",
                "e-euler", "log2-recip", "pi-half-a", "pi-half-b", "three-pi-quarter-a",
                "three-pi-quarter-b"}


def _quadrature_backed(case):
    P = case.params
    if case.family == "F6":  # quadrature only on its |f - h| = r limit
        return abs(P["f"] - P["h"]) == P["r"]
    return case.family not in _CLOSED_FORM


@pytest.mark.parametrize("case", builtin_suite(),
                         ids=lambda c: ",".join([c.family, *(f"{k}={v}" for k, v in c.params.items())]))
def test_every_quadrature_reference_reports_an_unconverged_integral(case, monkeypatch):
    # every integral, one row or several, runs the one loop de_rows
    original = quadrature.de_rows

    def unconverged(f, rows, domain="unit", *limits):  # stops at level 2, short of the target
        return original(f, rows, domain, 1e-300, 2)

    monkeypatch.setattr(quadrature, "de_rows", unconverged)
    report = verify(case)
    if _quadrature_backed(case):
        assert report.status is VerifyStatus.UNDEFINED, report
        assert re.fullmatch(r"reference evaluation failed: .* did not converge \(err=.*\)",
                            report.detail), report.detail
    else:
        assert report.status is VerifyStatus.PASS, report


def test_family_listing():
    ids = family_ids()
    assert "F1" in ids and "brouncker" in ids and "golden" in ids


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
def test_case_rejects_tolerance_that_is_not_finite_positive(tol):
    # a NaN tolerance used to pass every bracket check and report "pass"
    with pytest.raises(ValueError):
        IdentityCase("brouncker", {}, tol, 50)
