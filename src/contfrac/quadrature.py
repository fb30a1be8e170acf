"""Reference oracles: log-gamma, Beta closed forms, double-exponential quadrature.

ln Gamma is the C library's ``math.lgamma``; ``log_gamma`` adds only the
argument checks.  Every reference quadrature asks for the one accuracy
``TARGET`` and reads its result through ``QuadratureResult.checked``, which
returns the value or raises ``QuadratureError`` with the error estimate.

The quadrature engine drives two variable transforms:

* tanh-sinh on (0, 1) for integrands with at worst algebraic endpoint
  singularities.  Integrands receive both the abscissa x and its exactly
  computed complement 1 - x, so factors like (1-x)^beta stay accurate all the
  way into the corner.
* exp-sinh on (0, inf) for integrands with (super)exponential decay.

Estimates are refined by halving the mesh until two successive levels agree
to the accuracy asked for, with a hard level cap.  Every call needs levels 0-2
(the stopping test starts at level 2) and in practice reaches level 3, so
the nodes of levels 0-3 are joined into one cached array per domain and the
integrand is called once on them; each level then sums its own slice, as it
would its own call.  Levels 4 and up call the integrand once each.  The join
is exact because integrands are elementwise: each output depends only on its
own node.  The joined call runs inside ``np.errstate(all="ignore")`` like
every other level, so overflow or a log of 0 at a far node is masked, never
raised as a ``RuntimeWarning``.

log x of the unit nodes is computed once per node array, when the cached
per-level and joined arrays are built.  ``PowerBinomialIntegrand`` looks it
up by the identity of the array it is called on; any other array, even one
with equal values, gets a fresh computation.  Integrands keep the
``f(x, cx)`` / ``f(x)`` protocol.

numpy is imported inside each function that makes or reads node arrays, not
at module level: importing this module, or computing ``log_gamma``, ``beta``
and ``sqrt_kernel_integral``, does not load it; the first quadrature does.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

from .core import check_tolerance

if TYPE_CHECKING:
    import numpy as np


class QuadratureError(Exception):
    """Quadrature failed to converge within the level cap."""


#: the accuracy every reference oracle asks of the quadrature
TARGET = 1e-11


def _check_finite(**params: float) -> None:
    """Reject a NaN or infinite parameter with ``ValueError``: it would pass
    the sign checks below and give a silently wrong result."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    _check_finite(x=x)
    if x <= 0:
        raise ValueError("log_gamma requires x > 0")
    return math.lgamma(x)


def beta(a: float, b: float) -> float:
    """Beta function B(a, b) for positive arguments."""
    _check_finite(a=a, b=b)
    if a <= 0 or b <= 0:
        raise ValueError("beta requires positive arguments")
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def sqrt_kernel_integral(pp: float, r: float) -> float:
    """Closed form of the square-root kernel moment.

    Integral over (0, 1) of y^(pp-1) (1 - y^(2r))^(-1/2) dy, which the
    substitution u = y^(2r) turns into B(pp/(2r), 1/2) / (2r).
    """
    _check_finite(pp=pp, r=r)
    if pp <= 0 or r <= 0:
        raise ValueError("sqrt_kernel_integral requires pp > 0 and r > 0")
    return beta(pp / (2.0 * r), 0.5) / (2.0 * r)


# --------------------------------------------------------------------------
# double-exponential nodes
# --------------------------------------------------------------------------

_LEVEL_CAP = 12
_JOINED = 3  # levels 0.._JOINED share one integrand call
_HALF_PI = 0.5 * math.pi
# Trim where the transformed complement underflows; the double-exponential
# weight decay has long since drowned any algebraic endpoint singularity.
_T_MAX_UNIT = 6.1
_T_MAX_HALF = 6.8


def _stable_log(x: np.ndarray, cx: np.ndarray) -> np.ndarray:
    """log(x) computed from whichever of x, 1-x is known more accurately."""
    import numpy as np

    return np.where(cx < 0.5, np.log1p(-cx), np.log(np.maximum(x, np.finfo(float).tiny)))


# id(x) -> (x, cx, log x) for each cached unit node array.  The entry holds x
# itself, so no other array can take its id while the entry lives.
_NODE_LOGS: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _cache_log(x: np.ndarray, cx: np.ndarray) -> None:
    import numpy as np

    # np.where evaluates log1p(-cx) everywhere, and cx is 1.0 at the nodes nearest 0
    with np.errstate(divide="ignore"):
        lx = _stable_log(x, cx)
    lx.setflags(write=False)
    _NODE_LOGS[id(x)] = (x, cx, lx)


def _node_log(x: np.ndarray, cx: np.ndarray) -> np.ndarray:
    """``_stable_log(x, cx)``, looked up when (x, cx) is a cached unit node
    array pair and computed otherwise."""
    hit = _NODE_LOGS.get(id(x))
    if hit is not None and hit[1] is cx:
        return hit[2]
    return _stable_log(x, cx)


def _level_grid(level: int, t_max: float) -> np.ndarray:
    import numpy as np

    h = 0.5 ** level
    if level == 0:
        return np.arange(0.0, t_max + h, h)
    return np.arange(h, t_max, 2.0 * h)  # odd multiples only: new nodes


@lru_cache(maxsize=None)
def _unit_nodes(level: int):
    """New tanh-sinh nodes at this refinement level: (x, 1-x, weight)."""
    import numpy as np

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
    _cache_log(x, cx)
    return x, cx, ww


@lru_cache(maxsize=None)
def _halfline_nodes(level: int):
    """New exp-sinh nodes at this refinement level: (x, weight)."""
    import numpy as np

    ts = _level_grid(level, _T_MAX_HALF)
    z = _HALF_PI * np.sinh(ts)
    coshes = _HALF_PI * np.cosh(ts)
    with np.errstate(over="ignore"):  # the far nodes overflow; trimmed below
        xp = np.exp(z)
        w_hi = xp * coshes
    xm = np.exp(-z)
    pos = ts > 0
    x = np.concatenate([xp, xm[pos]])
    w = np.concatenate([w_hi, xm[pos] * coshes[pos]])
    keep = (x > 0.0) & np.isfinite(x) & (w > 0.0) & np.isfinite(w)
    x, w = x[keep], w[keep]
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _level_nodes(domain: str, level: int):
    return _unit_nodes(level) if domain == "unit" else _halfline_nodes(level)


@lru_cache(maxsize=None)
def _joined_nodes(domain: str):
    """Nodes of levels 0.._JOINED joined field by field, and the cuts:
    level k is ``[cuts[k]:cuts[k + 1]]`` of the joined arrays."""
    import numpy as np

    levels = [_level_nodes(domain, level) for level in range(_JOINED + 1)]
    fields = tuple(np.concatenate(field) for field in zip(*levels))
    for a in fields:
        a.setflags(write=False)
    if domain == "unit":
        _cache_log(*fields[:2])
    return fields, tuple(itertools.accumulate((len(nodes[0]) for nodes in levels), initial=0))


def _contributions(f: Callable, nodes) -> np.ndarray:
    """Weighted integrand values at the nodes, non-finite ones set to 0."""
    import numpy as np

    *args, w = nodes
    contrib = np.asarray(f(*args), dtype=float) * w  # a fresh array
    contrib[~np.isfinite(contrib)] = 0.0
    return contrib


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    levels_used: int
    converged: bool

    def checked(self, what: str) -> float:
        """The value, or ``QuadratureError`` naming ``what`` when the levels
        ran out before two successive estimates agreed."""
        if not self.converged:
            raise QuadratureError(f"{what} did not converge (err={self.error_estimate:.3e})")
        return self.value


def de_integral(f: Callable, domain: str = "unit", target: float = TARGET,
                level_cap: int = _LEVEL_CAP) -> QuadratureResult:
    """Double-exponential quadrature.

    domain "unit": integral over (0, 1); ``f(x, one_minus_x)`` must accept
    numpy arrays.  domain "halfline": integral over (0, inf); ``f(x)``.
    Levels double the node density until successive estimates differ by at
    most ``target`` (absolutely, or relatively for large values), from level
    2 up to ``level_cap``.  ``f`` must be elementwise (each output depends
    only on its own node; a scalar is fine): levels 0-3 are evaluated in one
    call on their joined nodes, inside ``np.errstate(all="ignore")``, and
    each later level in a call of its own.
    """
    import numpy as np

    check_tolerance(target, "target")
    if domain not in ("unit", "halfline"):
        raise ValueError("domain must be 'unit' or 'halfline'")
    if level_cap < 2:
        raise ValueError(f"level_cap must be at least 2, got {level_cap!r}")
    total = 0.0
    err = math.inf
    with np.errstate(all="ignore"):
        nodes, cuts = _joined_nodes(domain)
        joined = _contributions(f, nodes)
        for level in range(level_cap + 1):
            if level <= _JOINED:
                piece = float(np.add.reduce(joined[cuts[level]:cuts[level + 1]]))
            else:
                piece = float(np.add.reduce(_contributions(f, _level_nodes(domain, level))))
            h = 0.5 ** level
            total = 0.5 * total + piece * h
            if level >= 2:
                err = abs(total - prev)
                if err <= target * max(1.0, abs(total)):
                    return QuadratureResult(total, err, level, True)
            prev = total
    return QuadratureResult(total, err, level_cap, False)


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
        _check_finite(alpha=self.alpha, r=self.r, beta=self.beta,
                      gamma_exp=self.gamma_exp, p=self.p, q=self.q)
        if self.alpha <= 0:
            raise ValueError("alpha must be positive (integrability at 0)")
        if self.r <= 0:
            raise ValueError("r must be positive")
        if self.beta <= -1:
            raise ValueError("beta must exceed -1 (integrability at 1)")
        if self.p <= 0 or self.p + self.q <= 0:
            raise ValueError("p + q x^r must stay positive on (0, 1)")

    def __call__(self, x: np.ndarray, cx: np.ndarray) -> np.ndarray:
        import numpy as np

        lx = _node_log(x, cx)
        rlx = self.r * lx
        one_minus_xr = -np.expm1(rlx)
        out = (self.alpha - 1.0) * lx + self.beta * np.log(one_minus_xr)
        if self.gamma_exp != 0.0:
            out = out + self.gamma_exp * np.log(self.p + self.q * np.exp(rlx))
        return np.exp(out)

    def integral(self) -> float:
        return de_integral(self, "unit").checked("power-binomial integral")


def reciprocal_kernel_integral(h: float, r: float) -> float:
    """Integral over (0, 1) of x^(h-1) / (1 + x^r) dx."""
    _check_finite(h=h, r=r)
    if h <= 0:
        raise ValueError("h must be positive")
    if r <= 0:
        raise ValueError("r must be positive")
    return PowerBinomialIntegrand(alpha=h, r=r, beta=0.0, gamma_exp=-1.0,
                                  p=1.0, q=1.0).integral()


def gaussian_tail_integral(e: float, alpha: float, b: float) -> float:
    """Integral over (0, inf) of R^e exp(-(2 b R + R^2) / (2 alpha)) dR."""
    _check_finite(e=e, alpha=alpha, b=b)
    if e <= -1:
        raise ValueError("e must exceed -1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if b < 0:
        raise ValueError("b must be nonnegative")
    import numpy as np

    inv = 0.5 / alpha

    def f(x: np.ndarray) -> np.ndarray:
        return np.exp(e * np.log(x) - (2.0 * b * x + x * x) * inv)

    return de_integral(f, "halfline").checked("gaussian tail integral")


def contiguous_relation_check(m: float, n: float, kappa_exp: float,
                              p: float, q: float, r: float,
                              nu_max: int) -> list[float]:
    """Residuals of the three-term contiguous relation.

    With P = x^(m-1) (1-x^r)^n (p+q x^r)^kappa and R = x^r, the moments
    I_nu = integral of P R^nu satisfy

        (a + nu*alpha) I_nu = (b + nu*beta) I_{nu+1} + (c + nu*gamma) I_{nu+2}

    for the coefficient assignment alpha = p, beta = p - q, gamma = q,
    a = m p / r, c = m q / r + n q + (kappa+2) q,
    b = m (p-q)/r + (n+1) p - (kappa+1) q.  Returns |LHS - RHS| for
    nu = 0..nu_max, every moment evaluated by tanh-sinh quadrature.
    """
    _check_finite(m=m, n=n, kappa_exp=kappa_exp, p=p, q=q, r=r)
    if m <= 0 or n <= -1:
        raise ValueError("need m > 0 and n > -1 for integrability")
    if not isinstance(nu_max, numbers.Integral) or nu_max < 0:
        raise ValueError(f"nu_max must be a nonnegative integer, got {nu_max!r}")
    alpha_c, beta_c, gamma_c = p, p - q, q
    a_c = m * p / r
    c_c = m * q / r + n * q + (kappa_exp + 2.0) * q
    b_c = m * (p - q) / r + (n + 1.0) * p - (kappa_exp + 1.0) * q
    moments = [
        PowerBinomialIntegrand(alpha=m + r * nu, r=r, beta=n,
                               gamma_exp=kappa_exp, p=p, q=q).integral()
        for nu in range(nu_max + 3)
    ]
    return [
        abs((a_c + nu * alpha_c) * moments[nu]
            - (b_c + nu * beta_c) * moments[nu + 1]
            - (c_c + nu * gamma_c) * moments[nu + 2])
        for nu in range(nu_max + 1)
    ]
