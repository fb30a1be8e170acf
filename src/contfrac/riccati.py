"""Riccati equation <-> continued fraction correspondence.

The differential equation

    a x^m dx + b x^(m+1) y dx + c y^2 dx + dy = 0,        m + 2 > 0,

with the singular boundary behaviour c x y -> 1 as x -> 0, has a solution
whose value at x = 1 is the continued fraction

    c y(1) = 1 + (ac+b)/(-(m+3) + (ac-(m+2)b)/((2m+5) + (ac+(m+3)b)/(-(3m+7) + ...)))

Partial numerators alternate ac + (j(m+2)+1) b (odd positions) and
ac - j(m+2) b (even positions); partial denominators are (-1)^k (k m + 2k + 1).
When some partial numerator vanishes the fraction terminates and the equation
is solvable in closed form; the termination depth is predicted by b landing on
-ac/(i(m+2)+1) or ac/(i(m+2)).

``solve_riccati`` gives an independent value to compare against the
fraction.  The regularised variable w = c x y satisfies the ordinary equation

    x w' = w - w^2 - (a c + b w) x^(m+2),        w(0) = 1,

and w = x u'/u for the Frobenius series u of the linearised equation, which
is entire in x^(m+2).  Summed exactly, on integers, at x = 1, it gives w(1)
with a proven bound on its tails, across any movable pole of w in (0, 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .catalog import VerifyStatus, _verdict
from .core import (ContinuedFraction, EvalStatus, EvalStop, PartialTerm, _exact, as_fraction,
                   check_tolerance, eval_float)


class RiccatiDomainError(ValueError):
    """Problem outside the supported regime: the boundary condition at
    infinity, or a series at x = 1 that cannot be summed to the tolerance."""


@dataclass(frozen=True)
class RiccatiProblem:
    a: Fraction
    b: Fraction
    c: Fraction
    m: Fraction

    def __post_init__(self):
        for name in "abcm":
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.c == 0:
            raise ValueError("c must be nonzero")
        if not self.m + 2 > 0:
            raise RiccatiDomainError(
                "m + 2 <= 0 puts the boundary condition at infinity; unsupported")


def _integer_form(problem: RiccatiProblem) -> tuple[int, int, int, int, int]:
    """(A, B, p, q, L) with ac = A/L, b = B/L and m + 2 = p/q, where L is the
    least common denominator of ac and b."""
    ac, b, s = problem.a * problem.c, problem.b, problem.m + 2
    L = math.lcm(ac.denominator, b.denominator)
    return int(ac * L), int(b * L), s.numerator, s.denominator, L


def _terms(problem: RiccatiProblem) -> Iterator[PartialTerm]:
    """The terms of the module docstring's fraction up to the first zero
    numerator: three integer progressions, numerators over L q and
    denominators over q, each advanced by one addition per pair of terms."""
    A, B, p, q, L = _integer_form(problem)
    den, stride = L * q, p * B
    odd, even, mag = (A + B) * q, A * q - stride, p + q
    while odd:
        yield PartialTerm(_exact(odd, den), _exact(-mag, q))
        if not even:
            return
        yield PartialTerm(_exact(even, den), _exact(mag + p, q))
        odd, even, mag = odd + stride, even - stride, mag + 2 * p


def cf_from_riccati(problem: RiccatiProblem) -> ContinuedFraction:
    """Continued fraction for c y(1); terminates where a numerator vanishes."""
    return ContinuedFraction(Fraction(1), lambda: _terms(problem))


def termination_depth(problem: RiccatiProblem) -> Optional[int]:
    """Depth at which the fraction terminates (first zero numerator), if any.

    With b = 0 every numerator is ac.  Else numerator 2j+1 vanishes when
    j = -(A+B) q/(p B) is an integer >= 0 and numerator 2j when
    j = A q/(p B) is an integer >= 1; never both, which needs j + j' < 0.
    """
    A, B, p, q, _ = _integer_form(problem)
    if not B:
        return None if A else 0
    j, rest = divmod(-(A + B) * q, p * B)
    if not rest and j >= 0:
        return 2 * j
    j, rest = divmod(A * q, p * B)
    return 2 * j - 1 if not rest and j >= 1 else None


def riccati_letters(problem: RiccatiProblem, count: int) -> list[Fraction]:
    """Coefficients of the raw solution ladder y = L1/x + 1/(-L2 x^{-m-1} + ...).

    Built from the cascading product relations

        L1 = 1/c,   L_j L_{j+1} = d_j d_{j+1} / N_j   (d_0 = 1),

    where d_j = j m + 2j + 1 is the magnitude of the j-th partial
    denominator and N_j the j-th partial numerator of the x = 1 fraction.
    """
    if count < 1:
        raise ValueError("count must be positive")
    letters, d_prev = [Fraction(1) / problem.c], 1
    for num, den in itertools.islice(_terms(problem), count - 1):
        letters.append(d_prev * abs(den) / (num * letters[-1]))
        d_prev = abs(den)
    return letters


@dataclass(frozen=True)
class ODEResult:
    """w(1) from the equation's series summed at x = 1; the number of series
    terms summed; and a proven bound on the error of w(1): the tails, and the
    one rounding of the exact N/D."""

    w_at_1: float
    steps: int
    est_error: float


# Terms summed at most.  The ratio bound falls below 1/2 once (n+1)(m+2)
# passes a d of order 1 + |b| + sqrt|ac + b|; at d = 1, m + 2 = 1/100 sums
# about a hundred terms and m + 2 = 1e-6 is refused before the first.  The
# sums' integers grow by one ratio denominator a term, so the cost rises with
# the square of the count: at m + 2 = 1/9000, 9,001 terms take about 0.2 s
# and all 10,001 about 0.4 s (one Intel Xeon core, CPython 3.11).
_MAX_TERMS = 10_000


def _quotient(x: int, y: int) -> float:
    """x/y correctly rounded, or inf where it may not fit in a float (y = 0 too)."""
    return x / y if y and x.bit_length() - y.bit_length() < 1023 else math.inf


def solve_riccati(problem: RiccatiProblem, tol: float) -> ODEResult:
    """w(1) = c y(1) from the Frobenius series of the equation, with a proven
    error bound.

    With y = u'/(c u), u'' + b x^(m+1) u' + ac x^m u = 0 has
    u = sum c_n x^(1+ns), s = m + 2, c_0 = 1,
    c_(n+1) = -c_n (ac + b(1+ns)) / ((n+1) s (1+(n+1)s)), and w = x u'/u.
    u is entire in z = x^s, so w(1) = N/D with D = sum c_n and
    N = sum (1+ns) c_n, the poles of w at zeros of u on (0, 1) included.

    D and N are summed exactly, on integers over one scale.  With d = (n+1)s,
    |c_(k+1)/c_k| <= r = (|ac+b|/d + |b|)/(1+d) for every k >= n, and r falls
    with n.  Once r < 1/2 the tails of D and N past term n are at most
    |c_n| q' and |c_n| ((1+ns) q' + s q'/(1-r)), q' = r/(1-r); terms are
    added until these are below tol * 1e-4 relative to D and to
    max(|D|, |N|), or until c_(n+1) = 0 ends the series.  Then w is the sums'
    N/D rounded once, within (N's tail + |w| D's tail)/(|D| - D's tail) of
    the series' value before that rounding.

    ``steps`` is the number of terms summed and ``est_error`` that bound
    plus the rounding.  RiccatiDomainError refuses a ratio bound at or above
    1/2 past ``_MAX_TERMS`` terms, a D not separated from 0 by its tail (a
    pole at x = 1), a |w| past the float range, and a bound above
    tol/4 * max(1, |w|).
    """
    check_tolerance(tol)
    A, B, p, q, L = _integer_form(problem)
    # with h = q + np = q (1 + ns):
    # c_(n+1)/c_n = -(big_a + big_b h) / (big_c (n+1) (h+p)), all integers
    big_a, big_b, big_c = A * q * q, B * q, L * p
    head, abs_b, s = _quotient(abs(A + B), L), _quotient(abs(B), L), p / q
    # r < 1/2 once d passes the positive root of d^2 + (1 - 2|b|) d - 2|ac+b|
    d_half = (2.0 * abs_b - 1.0 + math.sqrt((1.0 - 2.0 * abs_b) ** 2 + 8.0 * head)) / 2.0
    if not d_half < _MAX_TERMS * s:
        raise RiccatiDomainError(
            f"the series' ratio bound stays above 1/2 until (n+1)(m+2) > {d_half:.3g}, "
            f"m + 2 = {s:.3g}: more than {_MAX_TERMS} terms")
    eps = tol * 1e-4
    t, dn, nn, h, n = 1, 1, q, q, 0     # c_n = t/S, D = dn/S, N = nn/(q S)
    rel, grow = math.inf, 0.0           # D's tail over |D|, N's over D's
    while True:
        num = big_a + big_b * h
        if not num:                     # c_(n+1) = 0: the sums are exact
            rel = 0.0
            break
        d = (n + 1) * s
        r = (head / d + abs_b) / (1.0 + d)
        if r < 0.5:
            rel = _quotient(abs(t), abs(dn)) * r / (1.0 - r)
            grow = _quotient(h, q) + s / (1.0 - r)
            if rel <= eps and rel * grow <= eps * max(1.0, abs(_quotient(nn, q * dn))):
                break
        if n == _MAX_TERMS:
            break
        den = big_c * (n + 1) * (h + p)
        n, h, t = n + 1, h + p, -t * num
        dn, nn = dn * den + t, nn * den + h * t
    w = _quotient(nn, q * dn)
    if rel < 1.0 and w != math.inf:
        bound = rel * (grow + abs(w)) / (1.0 - rel) + math.ulp(w) / 2
        if bound <= tol / 4 * max(1.0, abs(w)):
            return ODEResult(w, n + 1, bound)
    raise RiccatiDomainError(
        f"the series at x = 1 gives no value within tol/4 * max(1, |w|) after {n + 1} "
        "terms: " + (f"w = {w:.6g}, and the tail of D is up to {rel:.3g} |D|" if dn
                     else "D = u(1) = 0, a pole at x = 1"))


@dataclass(frozen=True)
class RiccatiReport:
    """The fraction against the equation's series.  ``status`` is
    ``catalog.verify``'s verdict, with ``ode_value`` the reference and
    ``allowed`` = tol * max(1, |ode|) the tolerance: the series is bounded to
    tol/4 * max(1, |w|) and the fraction evaluated to tol/4, so the comparison
    is absolute for |w| <= 1 and relative above.  A fraction cut off by the
    depth budget without a bracket is inconclusive, however close or far its
    last value.  ``abs_error`` is |cf - ode|, ``stop`` the evaluation's stop
    reason, ``ode_steps`` the series terms summed and ``ode_est_error`` the
    series' error bound."""

    cf_value: float
    ode_value: float
    abs_error: float
    allowed: float
    terms_used: int
    eval_status: EvalStatus
    stop: EvalStop
    ode_steps: int
    ode_est_error: float
    status: VerifyStatus
    terminated_depth: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.status is VerifyStatus.PASS


def verify_riccati(problem: RiccatiProblem, depth: int, tol: float) -> RiccatiReport:
    """Compare the fraction at x = 1 against the equation's series."""
    rep = eval_float(cf_from_riccati(problem), tol / 4.0, depth)
    ode = solve_riccati(problem, tol)
    allowed = tol * max(1.0, abs(ode.w_at_1))
    status, _ = _verdict(rep, (ode.w_at_1,), allowed)
    depth_term = (rep.terms_used if rep.status is EvalStatus.TERMINATED_FINITE else None)
    return RiccatiReport(rep.value, ode.w_at_1, abs(rep.value - ode.w_at_1), allowed,
                         rep.terms_used, rep.status, rep.stop, ode.steps, ode.est_error,
                         status, depth_term)
