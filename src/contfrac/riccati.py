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

from x0 to x = 1 with an adaptive embedded Runge-Kutta pair, giving an
independent value to compare against the fraction.  At x0, w is the
Frobenius series of the linearised equation, summed in floats with a proven
bound on its tails and rounding; x0 <= 1/2 is as large as the series' ratio
test allows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .core import (ContinuedFraction, EvalStatus, EvalStop, PartialTerm, as_fraction,
                   check_tolerance, eval_float)


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
    """w(1); the accepted Cash-Karp steps from the start point ``x0``; and the
    seed's error bound plus the summed local error estimates."""

    w_at_1: float
    steps: int
    est_error: float
    x0: float


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
    h_min = 1e-12  # in ln x: near a pole the steps shrink below it before |w| > 1e9
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


# Cash-Karp takes a few steps per unit of ln x near w = 1, so a tiny m + 2,
# whose series starts at ln x0 ~ ln(m+2)/(m+2), is refused past this span.
_MAX_SPAN = 1e4


def _max_ratio(ac: float, b: float, s: float) -> float:
    """max over n >= 0 of rho_n = |ac + b(1+ns)| / ((n+1) s (1+(n+1)s)), the
    series' coefficient ratio |c_(n+1)/c_n|.

    With d = (n+1)s, rho_n <= (|ac+b|/d + |b|) / (1+d), which falls with n;
    the loop stops at the first n where that bound is no larger than the
    largest rho_k seen, so no later ratio can exceed it.
    """
    best, n, head = 0.0, 0, abs(ac + b)
    while True:
        d = (n + 1) * s
        if (head / d + abs(b)) / (1.0 + d) <= best:
            return best
        best = max(best, abs(ac + b * (1.0 + n * s)) / (d * (1.0 + d)))
        n += 1


def _start(s: float, rho: float) -> tuple[float, float]:
    """tau0 = ln x0 and z = x0^s at the default start point: the largest
    x0 <= 1/2 with z max rho_n <= 1/4, found as ln z so that a tiny s cannot
    underflow it."""
    log_z = -s * math.log(2.0)
    if rho > 0:
        log_z = min(log_z, -math.log(4.0 * rho))
    return log_z / s, math.exp(log_z)


_U = 2.0 ** -53  # unit roundoff of a float


def _series_seed(ac: float, b: float, s: float, z: float, r: float,
                 tol: float) -> tuple[float, float]:
    """w(x0) and a bound on its error, from the Frobenius series of
    ``solve_riccati`` summed in floats at z = x0^s.

    With t_n = c_n z^n, D = sum t_n and N = sum (1+ns) t_n, w = N/D.  Every
    term ratio |t_(k+1)/t_k| is at most r = z max rho_n <= 1/4, so past term
    n the tails of D and N are at most |t_n| q and
    |t_n| ((1+ns) q + s q/(1-r)), q = r/(1-r); terms are added until both
    are below tol * 1e-4.  The same bound gives D >= 1 - q >= 2/3, so the
    error of w is at most (dN + |w| dD)/(1 - q), where dN and dD add to the
    tails each term's propagated rounding error (20 roundings of the ratio's
    absolute-value form a step, which covers ac + b(1+ns) cancelling) and
    the rounding of the sums.
    """
    eps = tol * 1e-4
    q = r / (1.0 - r)
    t, e = 1.0, 0.0                 # t_n and a bound on its error
    d_sum = n_sum = d_abs = n_abs = 1.0
    d_err = n_err = 0.0
    g, n = 1.0, 0                   # g = 1 + ns
    while True:
        den = (n + 1) * s
        den *= 1.0 + den
        e = r * e + 20 * _U * (abs(ac) + abs(b) * g) / den * z * abs(t)
        t *= -(ac + b * g) / den * z
        e += _U * abs(t)
        n += 1
        g = 1.0 + n * s
        d_sum += t
        n_sum += g * t
        d_abs += abs(t)
        n_abs += g * abs(t)
        d_err += e
        n_err += g * e
        last = abs(t) + e
        d_tail = last * q
        n_tail = last * (g * q + s * q / (1.0 - r))
        if d_tail <= eps and n_tail <= eps:
            break
    w = n_sum / d_sum
    gamma = (n + 6) * _U            # the sums, and g rounded in each N term
    d_bound = d_tail + d_err + gamma * d_abs
    n_bound = n_tail + n_err + gamma * n_abs
    return w, (n_bound + abs(w) * d_bound) / (1.0 - q) + 2 * _U * abs(w)


def solve_riccati(problem: RiccatiProblem, tol: float,
                  x0: Optional[float] = None) -> ODEResult:
    """Integrate the regularised equation to x = 1.

    In tau = log x the equation reads  dw/dtau = w - w^2 - (ac + b w) e^{s tau},
    s = m + 2.  Near 0 it is started from the Frobenius series of the
    linearised equation (see ``_series_seed``): with y = u'/(c u),
    u'' + b x^(m+1) u' + ac x^m u = 0 has u = sum c_n x^(1+ns), c_0 = 1,
    c_(n+1) = -c_n (ac + b(1+ns)) / ((n+1) s (1+(n+1)s)), and w = x u'/u.
    The start point x0 is the largest x0 <= 1/2 with z = x0^s at most
    1/(4 max rho_n), so u(x0)/x0 >= 2/3 (no pole below x0) and the series'
    ratio test bounds its tails.  Cash-Karp then integrates from
    tau0 = ln z / s (a tiny s cannot underflow x0) to 0 at local tolerance
    tol/30.  An explicit ``x0`` in (0, 1) gets the same seed, and raises
    ValueError when its z breaks the ratio bound.  ``est_error`` is the
    seed's error bound plus the integrator's summed local error estimates.
    """
    check_tolerance(tol)
    s = float(problem.m) + 2.0
    ac = float(problem.a * problem.c)
    b = float(problem.b)
    rho = _max_ratio(ac, b, s)
    if x0 is None:
        tau0, z = _start(s, rho)
        if tau0 < -_MAX_SPAN:
            raise RiccatiDomainError(
                f"the series seed starts at ln x0 = {tau0:.3g} (m + 2 = {s:.3g}): "
                f"more than {_MAX_SPAN:g} units of ln x to integrate")
    else:
        if not 0 < x0 < 1:
            raise ValueError("x0 must lie in (0, 1)")
        z = x0 ** s
        if not z * rho <= 0.25:
            raise ValueError(f"x0 = {x0!r} is past the series' ratio bound: "
                             f"x0^(m+2) * max rho_n = {z * rho:.3g} > 1/4")
        tau0 = math.log(x0)
    w0, seed_error = _series_seed(ac, b, s, z, z * rho, tol)

    def rhs(tau: float, w: float) -> float:
        return w - w * w - (ac + b * w) * math.exp(s * tau)

    w1, steps, err = _integrate_ck(rhs, tau0, 0.0, w0, tol / 30.0)
    return ODEResult(w1, steps, seed_error + err, math.exp(tau0))


@dataclass(frozen=True)
class RiccatiReport:
    """The fraction against the integrated equation.  ``passed`` needs both
    an evaluation that converged or ended finitely (``eval_status``) and an
    ``abs_error`` = |cf - ode| within ``allowed`` = tol * max(1, |ode|): the
    integrator controls each step's error relative to max(1, |w|), so the
    comparison is absolute for |w| <= 1 and relative above.  A fraction cut
    off by the depth budget shows nothing, however close its last value is.
    ``stop`` is the evaluation's stop reason and ``ode_x0`` the point where
    the integration starts from the series seed."""

    cf_value: float
    ode_value: float
    abs_error: float
    allowed: float
    terms_used: int
    eval_status: EvalStatus
    stop: EvalStop
    ode_steps: int
    ode_x0: float
    ode_est_error: float
    passed: bool
    terminated_depth: Optional[int] = None


def verify_riccati(problem: RiccatiProblem, depth: int, tol: float) -> RiccatiReport:
    """Compare the fraction at x = 1 against the integrated equation."""
    cf = cf_from_riccati(problem)
    rep = eval_float(cf, tol / 4.0, depth)
    ode = solve_riccati(problem, tol)
    err = abs(rep.value - ode.w_at_1)
    allowed = tol * max(1.0, abs(ode.w_at_1))
    depth_term = (rep.terms_used if rep.status is EvalStatus.TERMINATED_FINITE else None)
    settled = rep.status in (EvalStatus.CONVERGED, EvalStatus.TERMINATED_FINITE)
    return RiccatiReport(rep.value, ode.w_at_1, err, allowed, rep.terms_used, rep.status,
                         rep.stop, ode.steps, ode.x0, ode.est_error,
                         settled and err <= allowed, depth_term)
