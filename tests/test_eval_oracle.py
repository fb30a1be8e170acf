"""The two-loop float kernel against the one-loop kernel it replaced.

``one_loop_eval_float`` below is ``core.eval_float`` as it stood before the
kernel became a positive loop and a signed loop, copied verbatim but for its
name.  It is a reference implementation and stays: on every fraction here
both kernels return the same value, lower, upper, terms_used and status, bit
for bit, or raise the same exception at the same index.  Each fraction is
evaluated with its ``TermSpec`` and in its generic form, and the two forms
give equal reports, ``stop`` and ``renorms`` included.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction as F
from typing import Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from contfrac.core import (
    _DIVERGENCE_WINDOW,
    _RENORM_LIMIT,
    _RENORM_SCALE,
    ContinuedFraction,
    ContinuedFractionError,
    EvalReport,
    EvalStatus,
    K,
    Poly,
    TermSpec,
    _checked_floats,
    _EndOfFraction,
    _estimate,
    _spec_chunks,
    check_tolerance,
    eval_float,
)
from test_core import exponent_runs


def one_loop_eval_float(cf: ContinuedFraction, tol: float, max_terms: int) -> EvalReport:
    """Evaluate in floating point with renormalised forward recurrences.

    Stopping rules, in order of preference:

    * all partial terms positive so far: consecutive convergents bracket the
      limit; stop once the bracket width is <= tol and report lower/upper.
    * otherwise: stop when |v_k - v_{k-1}| <= tol on two successive defined
      steps; no bracket is reported.  If the successive differences are
      non-contracting over a trailing window the evaluation is flagged
      divergent.

    A zero partial numerator terminates the fraction exactly; exhausting the
    term stream reports the final convergent.  A zero partial denominator is
    a legal term, which is not positive.  The recurrence continues through an
    undefined convergent (q_k = 0); on the signed path it counts as infinite,
    so the differences on both sides of it are neither small nor contracting,
    and the value reported is the last defined convergent.

    Float terms arrive in chunks: from ``_spec_chunks`` for a fraction with
    a ``TermSpec``, else from the exact stream one term at a time.  Both give
    ``float()`` of every exact term.  A term that overflows or underflows
    raises at its own index once the loop reaches it, and a zero numerator
    raises a private exception that this loop catches to report the fraction
    finite.
    """
    check_tolerance(tol)
    if max_terms < 1:
        raise ValueError("max_terms must be positive")

    lead = float(cf.leading)
    p_prev, q_prev = 1.0, 0.0
    p, q = lead, 1.0
    positive = True
    # the last two defined convergents (v_0 = leading does not count); only
    # v_prev is kept once a term is not positive
    v_pp: Optional[float] = None
    v_prev: Optional[float] = None
    value = lead                     # the estimate, kept only once a term is not positive
    # signed stopping: small_streak counts differences |v - v_prev| <= tol in
    # a row; d_last is the last difference above tol, and rising counts the
    # differences in a row since the last small one that did not shrink, so
    # rising >= _DIVERGENCE_WINDOW - 1 says the last _DIVERGENCE_WINDOW
    # differences never contracted
    small_streak = 0
    d_last: Optional[float] = None
    rising = 0
    big, small = _RENORM_LIMIT, _RENORM_SCALE
    nbig, nsmall, ntol = -big, -small, -tol  # negated once, not on every term

    if cf.spec is not None:
        source = _spec_chunks(cf.spec, max_terms)
    else:
        source = (_checked_floats(itertools.islice(cf.factory(), max_terms)),)
    k = 0
    try:
        for chunk in source:
            for b, a in chunk:
                k += 1
                if positive and (b <= 0.0 or a <= 0.0):
                    positive = False
                    value = _estimate(lead, v_pp, v_prev)[0]
                p, p_prev = a * p + b * p_prev, p
                q, q_prev = a * q + b * q_prev, q
                # with |p| in [small, big] and the rest within big, max(...) below
                # takes neither branch; testing that first skips five calls (NaN
                # fails every comparison here and gets the full test)
                if not ((small <= p <= big or nbig <= p <= nsmall) and nbig <= q <= big
                        and nbig <= p_prev <= big and nbig <= q_prev <= big):
                    mag = max(abs(p), abs(q), abs(p_prev), abs(q_prev))
                    if mag > big:
                        p *= small
                        q *= small
                        p_prev *= small
                        q_prev *= small
                    elif 0.0 < mag < small:
                        p *= big
                        q *= big
                        p_prev *= big
                        q_prev *= big
                if q == 0.0:
                    if positive:
                        continue  # undefined convergent, skip
                    # on the signed path an undefined convergent is infinite
                    # (Jones & Thron 1980, ch. 2), and so are the differences
                    # on both sides of it; value keeps the last defined one
                    v = math.inf
                else:
                    v = p / q
                    if positive:
                        # |v - v_prev| <= tol, which is the bracket width
                        if v_prev is not None and ntol <= v - v_prev <= tol:
                            return EvalReport(*_estimate(lead, v_prev, v), k, EvalStatus.CONVERGED)
                        v_pp, v_prev = v_prev, v
                        continue
                    value = v
                if v_prev is not None:
                    d = abs(v - v_prev)
                    if d <= tol:
                        small_streak += 1
                        d_last, rising = None, 0
                        if small_streak >= 2:
                            return EvalReport(v, None, None, k, EvalStatus.CONVERGED)
                    else:
                        small_streak = 0
                        if d_last is not None and d >= d_last * (1.0 - 1e-12):
                            rising += 1
                        else:
                            rising = 0
                        d_last = d
                        if rising >= _DIVERGENCE_WINDOW - 1 and k >= 2 * _DIVERGENCE_WINDOW:
                            return EvalReport(value, None, None, k, EvalStatus.DIVERGENT)
                v_prev = v
    except _EndOfFraction:  # term k + 1 has a zero numerator
        k += 1
    else:
        if k == max_terms:
            if positive:
                return EvalReport(*_estimate(lead, v_pp, v_prev), k, EvalStatus.BUDGET_EXHAUSTED)
            return EvalReport(value, None, None, k, EvalStatus.BUDGET_EXHAUSTED)
    if positive:  # a finite fraction is its last convergent
        value = lead if v_prev is None else v_prev
    return EvalReport(value, None, None, k, EvalStatus.TERMINATED_FINITE)


def outcome(kernel, cf, tol, n):
    """The repr of every report field, or the error's type and index."""
    try:
        rep = kernel(cf, tol, n)
    except (ContinuedFractionError, ArithmeticError) as exc:
        return type(exc).__name__, getattr(exc, "index", None)
    return tuple(repr(getattr(rep, f.name)) for f in dataclasses.fields(rep))


def assert_kernels_agree(spec, tol, n):
    cf = ContinuedFraction.from_spec(spec)
    forms = (cf, ContinuedFraction(cf.leading, cf.factory))
    got = [outcome(eval_float, form, tol, n) for form in forms]
    # value, lower, upper, terms_used and status; an error is two fields
    assert [o[:5] for o in got] == [outcome(one_loop_eval_float, form, tol, n)[:5]
                                    for form in forms]
    assert got[0] == got[1]  # stop and renorms too


tolerances = st.sampled_from([1e-3, 1e-8, 1e-300])
small_ints = st.integers(-3, 3)
heads = st.lists(st.tuples(small_ints, small_ints), max_size=4)


@st.composite
def sign_changes(draw):
    """(spec, budget): b(k) or a(k), or both, are positive up to k = t and
    negative from t + 1, with t at or next to an edge of the float64 chunks
    (the first numpy chunk holds polynomial terms 129-256, the last whole
    one here 2049-4096), after 0-2 positive head terms; the budget ends a
    few terms before t or up to 200 after.  b is quadratic and a constant
    before the flip, so the bracket closes slowly, as brouncker's does, and
    the evaluation reaches t."""
    t = draw(st.sampled_from([129, 256, 257, 4096])) + draw(st.integers(-2, 2))
    flip = (2 * t + 1) - 2 * K
    head = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=2))
    b = Poly(tuple(draw(st.lists(st.integers(1, 9), min_size=3, max_size=3))))
    a = Poly((draw(st.integers(1, 9)),))
    which = draw(st.sampled_from(["b", "a", "both"]))
    if which != "a":
        b = b * flip
    if which != "b":
        a = a * flip
    n = t + draw(st.integers(-3, 200))
    return TermSpec(draw(small_ints), tuple(head), b, a), n


@settings(max_examples=120, deadline=None)
@given(sign_changes(), st.sampled_from([1e-8, 1e-300]))
def test_a_sign_change_inside_a_chunk_matches_the_one_loop_kernel(spec_n, tol):
    spec, n = spec_n
    assert_kernels_agree(spec, tol, n)


@st.composite
def polys_with_roots(draw):
    """Small polynomials of any sign, some with a root at a small k, which is
    a zero numerator or a zero denominator there."""
    p = Poly(tuple(draw(st.lists(small_ints, min_size=1, max_size=3))))
    for root in draw(st.lists(st.integers(1, 40), max_size=1)):
        p = p * (K - root)
    return p


@settings(max_examples=300, deadline=None)
@given(small_ints, heads, polys_with_roots(), polys_with_roots(), tolerances,
       st.integers(1, 300))
@example(0, [(1, 1), (-1, 1), (1, 1), (1, 2)], 1, 1, 1e-12, 100)   # q_2 = 0
@example(0, [(1, 1), (1, 1), (-2, 1)], 1, 1, 1e-300, 3)   # q_3 = 0 where positivity is lost
@example(0, [(1, 1), (1, 1), (0, 0)], 1, 1, 1e-300, 3)    # a zero term ends a positive fraction
@example(1, [(1, 2), (3, 1)], K - 3, 1, 1e-9, 100)        # a zero numerator after the head
@example(1, [(1, 2), (3, 0)], 1, 1, 1e-9, 100)            # a zero denominator in the head
def test_mixed_signs_and_zero_terms_match_the_one_loop_kernel(leading, head, b, a, tol, n):
    assert_kernels_agree(TermSpec(leading, tuple(head), b, a), tol, n)


@settings(max_examples=150, deadline=None)
@given(exponent_runs, st.lists(st.booleans(), min_size=60, max_size=60), tolerances)
def test_rescaling_in_both_directions_matches_the_one_loop_kernel(exponents, negative, tol):
    # the terms of test_eval_renormalises_in_both_directions_like_the_plain_test,
    # some numerators negated, then b = a = 1
    head = tuple((-F(2) ** eb if neg else F(2) ** eb, F(2) ** ea)
                 for (eb, ea), neg in zip(exponents, negative))
    assert_kernels_agree(TermSpec(1, head, 1, 1), tol, len(head) + 2)


# magnitudes from 2^990 up to the largest float, and their reciprocals
huge = st.builds(lambda m, e, s: s * F(m) * F(2) ** e, st.integers(1, 2 ** 24),
                 st.integers(990, 999), st.sampled_from([1, -1]))
tiny = st.builds(lambda x: 1 / x, huge)


@settings(max_examples=200, deadline=None)
@given(st.one_of(huge, small_ints), st.lists(st.tuples(st.one_of(huge, tiny, small_ints),
                                                       st.one_of(huge, tiny, small_ints)),
                                             max_size=6),
       st.sampled_from([1, K, 10 ** 300 * K, 10 ** 307 * K * K]), tolerances,
       st.integers(1, 40))
# leading = p_prev at term 1 lies above 2^512, and the full range test
# rescales there: q_1 = 2^-600 underflows to 0, an undefined convergent
@example(F(2) ** 600, [(1, F(1, 2 ** 600)), (1, 1)], 1, 1e-300, 2)
# q_3 = 2^-100 q_2 + 2^-100 q_1 underflows to 0 with p_3 near 2^-99 and no
# rescaling: an undefined convergent on the positive path
@example(0, [(1, F(1, 2 ** 1000)), (F(1, 2 ** 1000), 1), (F(1, 2 ** 100), F(1, 2 ** 100))],
         1, 1e-300, 5)
def test_terms_near_the_float_limit_match_the_one_loop_kernel(leading, head, b, tol, n):
    # the state overflows to infinity or NaN, or a term overflows float64
    assert_kernels_agree(TermSpec(leading, tuple(head), b, 1), tol, n)
