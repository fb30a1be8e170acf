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

``solve_riccati`` integrates the regularised variable w = c x y, which
satisfies the ordinary equation

    x w' = w - w^2 - (a c + b w) x^(m+2),        w(0) = 1,

from a small x0 (first-order series seed) to x = 1 with an adaptive embedded
Runge-Kutta pair, giving an independent value to compare against the fraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .core import (ContinuedFraction, EvalStatus, PartialTerm, as_fraction, check_tolerance,
                   eval_float)


class RiccatiDomainError(ValueError):
    """Problem outside the supported regime (boundary condition at infinity)."""


class PoleEncounteredError(RuntimeError):
    """The regularised solution blew up before x = 1 (movable pole)."""


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


def _terms(problem: RiccatiProblem) -> Iterator[PartialTerm]:
    """The terms of the module docstring's fraction up to the first zero
    numerator: three progressions, each advanced by one exact addition."""
    ac, step = problem.a * problem.c, problem.m + 2
    stride = step * problem.b
    odd, even, mag = ac + problem.b, ac - stride, step + 1
    while odd:
        yield PartialTerm(odd, -mag)
        mag += step
        if not even:
            return
        yield PartialTerm(even, mag)
        mag += step
        odd += stride
        even -= stride


def cf_from_riccati(problem: RiccatiProblem) -> ContinuedFraction:
    """Continued fraction for c y(1); terminates where a numerator vanishes."""
    return ContinuedFraction(Fraction(1), lambda: _terms(problem))


def termination_depth(problem: RiccatiProblem) -> Optional[int]:
    """Depth at which the fraction terminates (first zero numerator), if any.

    With b = 0 every numerator is ac.  Else numerator 2j+1 vanishes when
    j = (-ac/b - 1)/(m+2) is an integer >= 0 and numerator 2j when
    j = ac/((m+2) b) is an integer >= 1; never both, which needs j + j' < 0.
    """
    ac, b, step = problem.a * problem.c, problem.b, problem.m + 2
    if not b:
        return None if ac else 0
    j = (-ac / b - 1) / step
    if j.denominator == 1 and j >= 0:
        return 2 * j.numerator
    j = ac / (step * b)
    return 2 * j.numerator - 1 if j.denominator == 1 and j >= 1 else None


def riccati_letters(problem: RiccatiProblem, count: int) -> list[Fraction]:
    """Coefficients of the raw solution ladder y = L1/x + 1/(-L2 x^{-m-1} + ...).

    Built from the cascading product relations

        L1 = 1/c,   L_j L_{j+1} = d_j d_{j+1} / N_j   (d_0 = 1),

    where d_j = j m + 2j + 1 is the magnitude of the j-th partial
    denominator and N_j the j-th partial numerator of the x = 1 fraction.
    The closed forms of the individual letters are checked against these
    products in the test suite.
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
    w_at_1: float
    steps: int
    est_error: float


# Cash-Karp 5(4) embedded pair.
_CK_C = (0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8)
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def _integrate_ck(f, t0: float, t1: float, y0: float, loc_tol: float) -> tuple[float, int, float]:
    """Adaptive Cash-Karp step loop; error-per-unit-step acceptance.

    One step is straight-line code over the tables above. Every weighted sum
    runs left to right over all six stages, zero weights included, so the
    float operations are fixed; ``sum()`` would not fix them, since it
    compensates float sums from Python 3.12 on.
    """
    _, c1, c2, c3, c4, c5 = _CK_C
    _, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \
        (a50, a51, a52, a53, a54) = _CK_A
    p0, p1, p2, p3, p4, p5 = _CK_B5
    q0, q1, q2, q3, q4, q5 = _CK_B4
    span = t1 - t0
    t, y = t0, y0
    h = span / 64.0
    steps = 0
    err_acc = 0.0
    h_min = 1e-13 * span
    while t < t1:
        if h > t1 - t:
            h = t1 - t
        k0 = f(t, y)
        k1 = f(t + c1 * h, y + h * (a10 * k0))
        k2 = f(t + c2 * h, y + h * (a20 * k0 + a21 * k1))
        k3 = f(t + c3 * h, y + h * (a30 * k0 + a31 * k1 + a32 * k2))
        k4 = f(t + c4 * h, y + h * (a40 * k0 + a41 * k1 + a42 * k2 + a43 * k3))
        k5 = f(t + c5 * h, y + h * (a50 * k0 + a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4))
        y5 = y + h * (p0 * k0 + p1 * k1 + p2 * k2 + p3 * k3 + p4 * k4 + p5 * k5)
        y4 = y + h * (q0 * k0 + q1 * k1 + q2 * k2 + q3 * k3 + q4 * k4 + q5 * k5)
        err = abs(y5 - y4)
        allowed = loc_tol * (h / span) * max(1.0, abs(y5))
        if not math.isfinite(err) or not math.isfinite(y5):
            h *= 0.25
            if h < h_min:
                raise PoleEncounteredError("step size underflow (non-finite state)")
            continue
        if err <= allowed:
            t += h
            y = y5
            steps += 1
            err_acc += err
            if abs(y) > 1e9:
                raise PoleEncounteredError("solution magnitude blew up")
        grow = 0.9 * (allowed / err) ** 0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, grow))
        if h < h_min:
            raise PoleEncounteredError("step size underflow (movable pole?)")
    return y, steps, err_acc


def solve_riccati(problem: RiccatiProblem, tol: float,
                  x0: Optional[float] = None) -> ODEResult:
    """Integrate the regularised equation to x = 1.

    In tau = log x the equation reads  dw/dtau = w - w^2 - (ac + b w) e^{(m+2) tau},
    started at x0 with the series seed w(x0) = 1 - (ac+b) x0^{m+2}/(m+3)
    (the leading correction of the fraction), local tolerance tol/10.
    The seed is certified by the x0-halving invariance test.
    """
    check_tolerance(tol)
    mp2 = float(problem.m) + 2.0
    ac = float(problem.a * problem.c)
    b = float(problem.b)
    if x0 is None:
        x0 = 1e-3
        if mp2 < 1.0:
            # keep the neglected second-order seed term ~ x0^{2(m+2)} below tol
            x0 = min(x0, (0.01 * tol) ** (1.0 / (2.0 * mp2)))
    if not 0 < x0 < 1:
        raise ValueError("x0 must lie in (0, 1)")
    w0 = 1.0 - (ac + b) * x0 ** mp2 / (mp2 + 1.0)

    def rhs(tau: float, w: float) -> float:
        return w - w * w - (ac + b * w) * math.exp(mp2 * tau)

    w1, steps, err = _integrate_ck(rhs, math.log(x0), 0.0, w0, tol / 10.0)
    return ODEResult(w1, steps, err)


@dataclass(frozen=True)
class RiccatiReport:
    """The fraction against the integrated equation.  ``passed`` needs both
    an evaluation that converged or ended finitely (``eval_status``) and an
    ``abs_error`` within the tolerance: a fraction cut off by the depth
    budget shows nothing, however close its last value is."""

    cf_value: float
    ode_value: float
    abs_error: float
    terms_used: int
    eval_status: EvalStatus
    ode_steps: int
    ode_est_error: float
    passed: bool
    terminated_depth: Optional[int] = None


def verify_riccati(problem: RiccatiProblem, depth: int, tol: float) -> RiccatiReport:
    """Compare the fraction at x = 1 against the integrated equation."""
    cf = cf_from_riccati(problem)
    rep = eval_float(cf, tol / 4.0, depth)
    ode = solve_riccati(problem, tol)
    err = abs(rep.value - ode.w_at_1)
    depth_term = (rep.terms_used if rep.status is EvalStatus.TERMINATED_FINITE else None)
    settled = rep.status in (EvalStatus.CONVERGED, EvalStatus.TERMINATED_FINITE)
    return RiccatiReport(rep.value, ode.w_at_1, err, rep.terms_used, rep.status, ode.steps,
                         ode.est_error, settled and err <= tol, depth_term)
