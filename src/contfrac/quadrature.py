"""Reference oracles: log-gamma, Beta closed forms, double-exponential quadrature.

The quadrature engine drives two variable transforms:

* tanh-sinh on (0, 1) for integrands with at worst algebraic endpoint
  singularities.  Integrands receive both the abscissa x and its exactly
  computed complement 1 - x, so factors like (1-x)^beta stay accurate all the
  way into the corner.
* exp-sinh on (0, inf) for integrands with (super)exponential decay.

Estimates are refined by halving the mesh until two successive levels agree
to the requested target, with a hard level cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np


class QuadratureError(Exception):
    """Quadrature failed to converge within the level cap."""


#: the accuracy every reference oracle asks of the quadrature
TARGET = 1e-11


# Lanczos approximation, g = 7, 9 terms (Godfrey's coefficient set, as
# tabulated by Boost.Math and Numerical Recipes 3rd ed.); ~15 significant
# digits on the positive real axis.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError("log_gamma requires x > 0")
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def beta(a: float, b: float) -> float:
    """Beta function B(a, b) for positive arguments."""
    if a <= 0 or b <= 0:
        raise ValueError("beta requires positive arguments")
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def sqrt_kernel_integral(pp: float, r: float) -> float:
    """Closed form of the square-root kernel moment.

    Integral over (0, 1) of y^(pp-1) (1 - y^(2r))^(-1/2) dy, which the
    substitution u = y^(2r) turns into B(pp/(2r), 1/2) / (2r).
    """
    if pp <= 0 or r <= 0:
        raise ValueError("sqrt_kernel_integral requires pp > 0 and r > 0")
    return beta(pp / (2.0 * r), 0.5) / (2.0 * r)


# --------------------------------------------------------------------------
# double-exponential nodes
# --------------------------------------------------------------------------

_LEVEL_CAP = 12
_HALF_PI = 0.5 * math.pi
# Trim where the transformed complement underflows; the double-exponential
# weight decay has long since drowned any algebraic endpoint singularity.
_T_MAX_UNIT = 6.1
_T_MAX_HALF = 6.8


def _level_grid(level: int, t_max: float) -> np.ndarray:
    h = 0.5 ** level
    if level == 0:
        return np.arange(0.0, t_max + h, h)
    return np.arange(h, t_max, 2.0 * h)  # odd multiples only: new nodes


@lru_cache(maxsize=None)
def _unit_nodes(level: int):
    """New tanh-sinh nodes at this refinement level: (x, 1-x, weight)."""
    ts = _level_grid(level, _T_MAX_UNIT)
    z = _HALF_PI * np.sinh(ts)
    em = np.exp(-2.0 * z)
    denom = 1.0 + em
    x_hi = 1.0 / denom          # node in [1/2, 1)
    x_lo = em / denom           # exact complement
    w = math.pi * np.cosh(ts) * em / (denom * denom)
    keep = (x_lo > 0.0) & (w > 0.0) & np.isfinite(w)
    ts, x_hi, x_lo, w = ts[keep], x_hi[keep], x_lo[keep], w[keep]
    pos = ts > 0  # mirror all but the symmetric t = 0 node
    x = np.concatenate([x_hi, x_lo[pos]])
    cx = np.concatenate([x_lo, x_hi[pos]])
    ww = np.concatenate([w, w[pos]])
    x.setflags(write=False)
    cx.setflags(write=False)
    ww.setflags(write=False)
    return x, cx, ww


@lru_cache(maxsize=None)
def _halfline_nodes(level: int):
    """New exp-sinh nodes at this refinement level: (x, weight)."""
    ts = _level_grid(level, _T_MAX_HALF)
    z = _HALF_PI * np.sinh(ts)
    coshes = _HALF_PI * np.cosh(ts)
    xp = np.exp(z)
    xm = np.exp(-z)
    pos = ts > 0
    x = np.concatenate([xp, xm[pos]])
    w = np.concatenate([xp * coshes, xm[pos] * coshes[pos]])
    keep = (x > 0.0) & np.isfinite(x) & (w > 0.0) & np.isfinite(w)
    x, w = x[keep], w[keep]
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    levels_used: int
    converged: bool


def de_integral(f: Callable, domain: str = "unit", target: float = TARGET,
                level_cap: int = _LEVEL_CAP) -> QuadratureResult:
    """Double-exponential quadrature.

    domain "unit": integral over (0, 1); ``f(x, one_minus_x)`` must accept
    numpy arrays.  domain "halfline": integral over (0, inf); ``f(x)``.
    Levels double the node density until successive estimates differ by at
    most ``target`` (absolutely, or relatively for large values).
    """
    if target <= 0:
        raise ValueError("target must be positive")
    if domain not in ("unit", "halfline"):
        raise ValueError("domain must be 'unit' or 'halfline'")
    total = 0.0
    prev = None
    err = math.inf
    with np.errstate(all="ignore"):
        for level in range(level_cap + 1):
            if domain == "unit":
                x, cx, w = _unit_nodes(level)
                vals = np.asarray(f(x, cx), dtype=float)
            else:
                x, w = _halfline_nodes(level)
                vals = np.asarray(f(x), dtype=float)
            contrib = vals * w
            piece = float(np.sum(np.where(np.isfinite(contrib), contrib, 0.0)))
            h = 0.5 ** level
            total = piece * h if level == 0 else 0.5 * total + piece * h
            if prev is not None and level >= 2:
                err = abs(total - prev)
                if err <= target * max(1.0, abs(total)):
                    return QuadratureResult(total, err, level, True)
            prev = total
    return QuadratureResult(total, err, level_cap, False)


def _stable_log(x: np.ndarray, cx: np.ndarray) -> np.ndarray:
    """log(x) computed from whichever of x, 1-x is known more accurately."""
    return np.where(cx < 0.5, np.log1p(-cx), np.log(np.maximum(x, np.finfo(float).tiny)))


@dataclass(frozen=True)
class PowerBinomialIntegrand:
    """x^(alpha-1) (1 - x^r)^beta (p + q x^r)^gamma_exp on (0, 1).

    Covers the square-root kernels (q = 0, beta = -1/2), the reciprocal
    kernels 1/(1+x^r) (gamma_exp = -1, p = q = 1) and the binomial-weight
    family.  alpha > 0 and beta > -1 keep both endpoints integrable; p and q
    must keep p + q x^r positive on (0, 1).
    """

    alpha: float
    r: float
    beta: float
    gamma_exp: float = 0.0
    p: float = 1.0
    q: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive (integrability at 0)")
        if self.r <= 0:
            raise ValueError("r must be positive")
        if self.beta <= -1:
            raise ValueError("beta must exceed -1 (integrability at 1)")
        if self.p <= 0 or self.p + self.q <= 0:
            raise ValueError("p + q x^r must stay positive on (0, 1)")

    def __call__(self, x: np.ndarray, cx: np.ndarray) -> np.ndarray:
        lx = _stable_log(x, cx)
        one_minus_xr = -np.expm1(self.r * lx)
        out = (self.alpha - 1.0) * lx + self.beta * np.log(one_minus_xr)
        if self.gamma_exp != 0.0:
            out = out + self.gamma_exp * np.log(self.p + self.q * np.exp(self.r * lx))
        return np.exp(out)

    def integral(self, target: float = TARGET) -> float:
        res = de_integral(self, "unit", target)
        if not res.converged:
            raise QuadratureError(
                f"power-binomial integral did not converge (err={res.error_estimate:.3e})")
        return res.value


def reciprocal_kernel_integral(h: float, r: float, target: float = TARGET) -> float:
    """Integral over (0, 1) of x^(h-1) / (1 + x^r) dx."""
    if h <= 0:
        raise ValueError("h must be positive")
    if r <= 0:
        raise ValueError("r must be positive")
    return PowerBinomialIntegrand(alpha=h, r=r, beta=0.0, gamma_exp=-1.0,
                                  p=1.0, q=1.0).integral(target)


def gaussian_tail_integral(e: float, alpha: float, b: float, target: float = TARGET) -> float:
    """Integral over (0, inf) of R^e exp(-(2 b R + R^2) / (2 alpha)) dR."""
    if e <= -1:
        raise ValueError("e must exceed -1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if b < 0:
        raise ValueError("b must be nonnegative")
    inv = 0.5 / alpha

    def f(x: np.ndarray) -> np.ndarray:
        return np.exp(e * np.log(x) - (2.0 * b * x + x * x) * inv)

    res = de_integral(f, "halfline", target)
    if not res.converged:
        raise QuadratureError(
            f"gaussian tail integral did not converge (err={res.error_estimate:.3e})")
    return res.value


def contiguous_relation_check(m: float, n: float, kappa_exp: float,
                              p: float, q: float, r: float,
                              nu_max: int, target: float = TARGET) -> list[float]:
    """Residuals of the three-term contiguous relation.

    With P = x^(m-1) (1-x^r)^n (p+q x^r)^kappa and R = x^r, the moments
    I_nu = integral of P R^nu satisfy

        (a + nu*alpha) I_nu = (b + nu*beta) I_{nu+1} + (c + nu*gamma) I_{nu+2}

    for the coefficient assignment alpha = p, beta = p - q, gamma = q,
    a = m p / r, c = m q / r + n q + (kappa+2) q,
    b = m (p-q)/r + (n+1) p - (kappa+1) q.  Returns |LHS - RHS| for
    nu = 0..nu_max, every moment evaluated by tanh-sinh quadrature.
    """
    if m <= 0 or n <= -1:
        raise ValueError("need m > 0 and n > -1 for integrability")
    if nu_max < 0:
        raise ValueError("nu_max must be nonnegative")
    alpha_c, beta_c, gamma_c = p, p - q, q
    a_c = m * p / r
    c_c = m * q / r + n * q + (kappa_exp + 2.0) * q
    b_c = m * (p - q) / r + (n + 1.0) * p - (kappa_exp + 1.0) * q
    moments = [
        PowerBinomialIntegrand(alpha=m + r * nu, r=r, beta=n,
                               gamma_exp=kappa_exp, p=p, q=q).integral(target)
        for nu in range(nu_max + 3)
    ]
    return [
        abs((a_c + nu * alpha_c) * moments[nu]
            - (b_c + nu * beta_c) * moments[nu + 1]
            - (c_c + nu * gamma_c) * moments[nu + 2])
        for nu in range(nu_max + 1)
    ]
