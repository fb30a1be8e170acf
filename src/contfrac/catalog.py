"""Catalog of parameterized continued-fraction identity families.

Every family pairs a continued-fraction generator with one or two independent
reference evaluators (Beta-function closed forms, double-exponential
quadrature, or a fixed constant).  ``verify`` evaluates the fraction, which
stops on a bracket of consecutive convergents while every term read is
positive, and checks that each reference lies inside that bracket widened by
a slack of 1e-12 * max(1, |reference|): the float bracket is not a proven
enclosure.  Without a bracket, a settled evaluation must lie within the case
tolerance of each reference, and one whose term budget ran out is
``inconclusive``.

Each family is one ``_register`` entry: its parameter names, its constraints,
a ``TermSpec`` for the fraction and its reference function (README's table,
or ``contfrac eval --family list``, lists the families).  The constraints
are an ordered tuple of inequalities in Python syntax, such as
``("m > 0", "n > 0")``; a family's are compiled once into one expression
and evaluated on the exact parameters, in order, and the first that fails is
the predicate a ``ConstraintViolation`` names.  The spec and the reference
function take the parameters by name: the spec each as a constant ``Poly``,
so its arithmetic is on integers over one denominator and ``TermSpec``
reduces each part once, and the reference function as an exact
``Fraction``.  Every reference quadrature asks for the one accuracy
``quadrature.TARGET``, and one that does not reach it raises
``QuadratureError``, which ``verify`` reports as ``undefined``.

The power-binomial families F5, F8 and F9 are each one record function, from
the parameters to a ``MomentRatio``: the value leading + M(g+r)/M(g), times
q c' when scaled, with M(t) the integral of x^(t-1) (1 - x^r)^beta
(p + q x^r)^gamma over (0, 1).  On constant ``Poly`` parameters, Euler's
relation t p M(t) = A(t) M(t+r) + q (t + r(beta+gamma+2)) M(t+2r) turns the
record into the spec (``moment_ratio_spec``; an unscaled ratio keeps its
first term as a head term); on floats it gives the reference's two moments.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from types import CodeType
from typing import Callable, Mapping, Optional, Tuple

from .core import (
    K,
    ContinuedFraction,
    ContinuedFractionError,
    EvalReport,
    EvalStatus,
    EvalStop,
    Poly,
    Rational,
    TermSpec,
    as_fraction,
    check_tolerance,
    eval_float,
)
from .quadrature import (
    TARGET,
    PowerBinomialIntegrand,
    QuadratureError,
    _check_finite,
    de_integral,  # noqa: F401  (the benchmark's tracer wraps catalog.de_integral)
    exponential_beta_integrals,
    gaussian_tail_integrals,
    power_binomial_integrals,
    reciprocal_kernel_integral,
    sqrt_kernel_integral,
)

#: dual-reference families must agree this tightly (10 x quadrature target)
DUAL_AGREEMENT = 10.0 * TARGET


class ConstraintViolation(ValueError):
    """A parameter assignment violates a family constraint."""

    def __init__(self, family: str, predicate: str):
        self.family = family
        self.predicate = predicate
        super().__init__(f"{family}: constraint violated: {predicate}")


class UnknownFamilyError(KeyError):
    def __init__(self, family: str):
        self.family = family
        super().__init__(f"unknown identity family {family!r}")

    def __str__(self) -> str:  # KeyError.__str__ would wrap the message in repr quotes
        return self.args[0]


Params = Mapping[str, Fraction]


#: constraint globals: no builtins, so a constraint sees only the parameters
_NO_BUILTINS: dict = {"__builtins__": {}}


@dataclass(frozen=True)
class IdentityFamily:
    id: str
    param_names: Tuple[str, ...]
    describe: str
    constraints: Tuple[str, ...]
    build: Callable[[Params], ContinuedFraction]
    refs: Callable[[Params], Tuple[float, ...]]
    _compiled: CodeType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # one expression for all constraints: the index of the first that
        # fails, else -1; each is tested only when those before it hold
        first_failing = "".join(f"{i} if not ({text}) else "
                                for i, text in enumerate(self.constraints)) + "-1"
        object.__setattr__(self, "_compiled",
                           compile(first_failing, f"<{self.id} constraints>", "eval"))

    def check(self, P: Params) -> Optional[str]:
        """The first constraint ``P`` violates, or None.  Order matters: an
        earlier constraint guards a later one (F2's ``nu > 0`` before
        ``mu/nu <= 3``)."""
        i = eval(self._compiled, _NO_BUILTINS, P)
        return None if i < 0 else self.constraints[i]


# --------------------------------------------------------------------------
# family definitions
# --------------------------------------------------------------------------

def _f2_refs(mu: Fraction, nu: Fraction, m: Fraction, n: Fraction) -> Tuple[float, ...]:
    integrand = PowerBinomialIntegrand(alpha=float(n), r=float(m), beta=0.0,
                                       gamma_exp=-float(mu) / float(nu), p=1.0, q=1.0)
    return (integrand.integral(),)


def _f3_refs(s: Fraction) -> Tuple[float, ...]:
    s = float(s)
    return ((s + 1.0) * sqrt_kernel_integral(s + 3.0, 2.0) / sqrt_kernel_integral(s + 1.0, 2.0),)


def _f4_refs(p: Fraction, q: Fraction, r: Fraction) -> Tuple[float, ...]:
    p, q, r = float(p), float(q), float(r)
    return ((p + 2 * q - r) * sqrt_kernel_integral(p + 2 * q, r) / sqrt_kernel_integral(p, r),)


#: a power-binomial family at one point; see ``moment_ratio_spec``
MomentRatio = namedtuple("MomentRatio", "g r beta gamma p q leading scaled")


def moment_ratio_spec(m: MomentRatio) -> TermSpec:
    """The fraction ``leading`` + M(g+r)/M(g) of a record, times q c' when
    ``scaled``, with c' = g + r(beta+gamma+1) and M(t) the integral over
    (0, 1) of x^(t-1) (1 - x^r)^beta (p + q x^r)^gamma.

    Integrating d/dx [x^t (1 - x^r)^(beta+1) (p + q x^r)^(gamma+1)] over
    (0, 1), whose boundary terms vanish for t > 0 and beta > -1, gives

        t p M(t) = A(t) M(t+r) + q (t + r(beta+gamma+2)) M(t+2r),
        A(t) = t(p - q) + r(beta+1) p - r(gamma+1) q,

    so M(g+r)/M(g) = g p/(a_1 + b_2/(a_2 + ...)) with a_k = A(g + (k-1) r)
    and b_k = p q (g + (k-1) r)(c' + (k-1) r).  By Pincherle's theorem the
    fraction converges to the ratio exactly when M(g + k r) is the relation's
    minimal solution (Jones & Thron 1980, ch. 4; Gautschi, SIAM Review 9,
    1967).  b(1) = p q g c', so a scaled ratio takes every term from the
    polynomials, and an unscaled one keeps (g p, A(g)) as a head term."""
    g, r, p, q = m.g, m.r, m.p, m.q
    rb, rc = r * m.beta + r, r * m.gamma + r  # r(beta+1), r(gamma+1)
    d, w = p - q, rb * p - rc * q  # A(t) = t d + w
    t = g + (K - 1) * r
    head = [] if m.scaled else [(g * p, g * d + w)]
    return TermSpec(m.leading, head, p * q * t * (t + (rb + rc - r)), t * d + w)


def _moments(*records: MomentRatio) -> list[float]:
    """M(g+r) and M(g) of each record of floats, all rows of one quadrature pass."""
    return power_binomial_integrals([PowerBinomialIntegrand(t, m.r, m.beta, m.gamma, m.p, m.q)
                                     for m in records for t in (m.g + m.r, m.g)])


def _record_family(record: Callable[..., MomentRatio], combine: Callable[..., float]):
    """A family's spec and reference functions from its record function; the
    reference is ``combine(M(g+r), M(g), **params)`` at float parameters."""
    def refs(**P: Fraction) -> Tuple[float, ...]:
        P = {k: float(v) for k, v in P.items()}
        return (combine(*_moments(record(**P)), **P),)
    return lambda **P: moment_ratio_spec(record(**P)), refs


def _f5_record(f, h, r) -> MomentRatio:
    """r + h M(f+r)/M(f), weight (1 - x^r)^e (1 + x^r)^(e-1), e = (h - f)/(2r).
    The spec is symmetric in f and h; the moments need f <= h."""
    beta = (h - f) / (2 * r)
    return MomentRatio(f, r, beta, beta - 1, 1, 1, r, True)


def _f8_record(a, b, c, r, p, q) -> MomentRatio:
    """M(g+r)/M(g), g = a + b - c - r, beta = (c - b)/r, gamma = (c - a)/r."""
    return MomentRatio(a + b - c - r, r, (c - b) / r, (c - a) / r, p, q, 0, False)


def _f9_record(c, g, r, s) -> MomentRatio:
    """F8 at p = q = 1 and a, b = (c + g + r +- s)/2, scaled by c' = c."""
    u = c + g + r
    return MomentRatio(*_f8_record((u + s) / 2, (u - s) / 2, c, r, 1, 1)[:7], True)


def _sqrt_moment_ratio_value(f: float, h: float, r: float) -> float:
    """Two-moment expression for the equal-denominator product family."""
    kf = sqrt_kernel_integral(f + r, r)
    kh = sqrt_kernel_integral(h + r, r)
    return (h * (f - r) * kh - f * (h - r) * kf) / (f * kf - h * kh)


def _f5_refs(f: Fraction, h: Fraction, r: Fraction) -> Tuple[float, ...]:
    equal = f == h
    f, h, r = float(f), float(h), float(r)
    if equal:
        i = reciprocal_kernel_integral(h, r)
        return ((1.0 - (h - r) * i) / i,)
    lo, hi = min(f, h), max(f, h)
    top, bottom = _moments(_f5_record(lo, hi, r))
    return (_sqrt_moment_ratio_value(f, h, r), r + hi * top / bottom)


def _f6_refs(f: Fraction, h: Fraction, r: Fraction) -> Tuple[float, ...]:
    limit = abs(f - h) == r
    f, h, r = float(f), float(h), float(r)
    if limit:
        # the two-moment expression degenerates to 0/0 on |f - h| = r
        # (symmetric in f and h); take the limit along f, which closes to an
        # elementary form in t = integral of x^(lo-1)/(1+x^r)
        lo = min(f, h)
        t = reciprocal_kernel_integral(lo, r)
        return ((lo + 2.0 * lo * (r - lo) * t) / (-1.0 + 2.0 * lo * t),)
    kf = sqrt_kernel_integral(f, r)
    kh = sqrt_kernel_integral(h + r, r)
    num = 2.0 * (r - f) * (r - h) * kf - h * (f + h - 3.0 * r) * kh
    den = 2.0 * h * kh - (f + h - r) * kf
    return (num / den,)


def _f7_ref_value(q: float, r: float, s: float) -> float:
    return (q + s) * sqrt_kernel_integral(q + r + s, r) / sqrt_kernel_integral(r + s - q, r)


def _f10_refs(s: Fraction) -> Tuple[float, ...]:
    s = float(s)
    return (1.0 / (2.0 * reciprocal_kernel_integral(s + 1.0, 2.0)) - s,)


def _f11_refs(a: Fraction, alpha: Fraction, b: Fraction, beta: Fraction) -> Tuple[float, ...]:
    a, al, b, be = float(a), float(alpha), float(b), float(beta)
    edge = (al * al + al * be * b - al * be * be - be * be * a) / (al * be * be)
    top, bottom = exponential_beta_integrals([a / al, a / al - 1.0], al / (be * be), edge)
    return (al / be * top / bottom,)


def _f12_refs(a: Fraction, alpha: Fraction, b: Fraction) -> Tuple[float, ...]:
    a, al, b = float(a), float(alpha), float(b)
    e = a / al
    top, bottom = gaussian_tail_integrals([e, e - 1.0], al, b)
    return (top / bottom,)


def _golden_refs() -> Tuple[float, ...]:
    # golden's fraction is this record with leading 1, scaled by q c' = 1/p,
    # over Q(sqrt 5); its spec is written out below
    root5 = math.sqrt(5.0)
    p, q = (root5 + 1.0) / 2.0, (root5 - 1.0) / 2.0
    a, b = (1.0 + 3.0 * root5) / (2.0 * root5), (3.0 * root5 - 1.0) / (2.0 * root5)
    top, bottom = _moments(_f8_record(a, b, 1, 1, p, q))
    return (1.0 + top / bottom / p,)


FAMILIES: dict[str, IdentityFamily] = {}


def _lift(x: Fraction) -> Poly:
    """A Fraction parameter as the constant ``Poly`` a spec receives."""
    return Poly((x.numerator,), x.denominator)


def _register(fid: str, param_names: Tuple[str, ...], describe: str,
              constraints: Tuple[str, ...], spec: Callable[..., TermSpec],
              refs: Callable[..., Tuple[float, ...]]) -> None:
    """Add a family; ``spec`` and ``refs`` take its parameters as keyword
    arguments: ``spec`` each as a constant ``Poly``, ``refs`` as a ``Fraction``."""
    FAMILIES[fid] = IdentityFamily(
        fid, param_names, describe, constraints,
        lambda P: ContinuedFraction.from_spec(spec(**{k: _lift(v) for k, v in P.items()})),
        lambda P: refs(**P))


_F4_CONSTRAINTS = ("p > 0", "r > 0", "p + 2*q > 0")
_F5_CONSTRAINTS = ("f > 0", "h > 0", "r > 0")

# the spec table: TermSpec(leading, head terms, b(K), a(K)), K the 1-based
# term index; the polynomials give every term after the head terms

_register("F1", ("m", "n"), "x^(n-1)/(1+x^m) moment as an equal-denominator fraction",
          ("m > 0", "n > 0"), lambda m, n: TermSpec(0, [(1, n)], ((K - 2) * m + n) ** 2, m),
          lambda m, n: (reciprocal_kernel_integral(float(n), float(m)),))
_register("F1-frac", ("m", "n"), "fractional-exponent variant: dx/(1+x^(m/n))",
          ("m > 0", "n > 0"), lambda m, n: TermSpec(0, [(1, 1), (n, m)], ((K - 2) * m + n) ** 2, m),
          lambda m, n: (reciprocal_kernel_integral(1.0, float(m) / float(n)),))
# mu/nu >= 2 loses the positivity certificate; integer mu with nu=1
# oscillates divergently
_register("F2", ("mu", "nu", "m", "n"), "binomial weight x^(n-1)(1+x^m)^(-mu/nu)",
          ("m > 0", "n > 0", "mu > 0", "nu > 0", "mu/nu <= 3"),
          lambda mu, nu, m, n: TermSpec(
              0, [(1, n), (mu * n * n, nu * m + (nu - mu) * n)],
              (K - 2) * nu * (mu + (K - 2) * nu) * ((K - 2) * m + n) ** 2,
              ((2 * K - 3) * nu - (K - 2) * mu) * m + (nu - mu) * n),
          _f2_refs)
_register("F3", ("s",), "s + 1/(2s + 9/(2s + 25/(2s + ...)))",
          ("s > 0",), lambda s: TermSpec(s, [], (2 * K - 1) ** 2, 2 * s), _f3_refs)
_register("F4-25", ("p", "q", "r"), "interpolation form anchored at p (signed when q < r)",
          _F4_CONSTRAINTS,
          lambda p, q, r: TermSpec(p, [(2 * p * (q - r), p + r)],
                                   (p + 2 * q + (K - 3) * r) * (p + (K - 1) * r), r),
          _f4_refs)
_register("F4-25alt", ("p", "q", "r"), "all-positive rearrangement of F4-25 for r > q",
          _F4_CONSTRAINTS + ("r > q", "p + 2*q - r > 0"),
          lambda p, q, r: TermSpec(0, [(p, 1), (2 * (r - q), p + 2 * q - r)],
                                   (p + 2 * q + (K - 4) * r) * (p + (K - 2) * r), r),
          _f4_refs)
_register("F4-26", ("p", "q", "r"), "interpolation form with doubled partial denominators",
          _F4_CONSTRAINTS,
          lambda p, q, r: TermSpec(p + q - r, [(q * (r - q), p + q)],
                                   (p + (K - 2) * r) * (p + 2 * q + (K - 3) * r), 2 * r),
          _f4_refs)
_register("F4-27", ("p", "q", "r"), "signed interpolation form (first numerator negative)",
          _F4_CONSTRAINTS,
          lambda p, q, r: TermSpec(p + 2 * q - r, [(-2 * q * (p + 2 * q - r), p + 2 * q)],
                                   (p + (K - 2) * r) * (p + 2 * q + (K - 2) * r), r),
          _f4_refs)
_register("F5", ("f", "h", "r"), "r + fh/(r + (f+r)(h+r)/(r + ...)), dual references",
          _F5_CONSTRAINTS,
          lambda **P: moment_ratio_spec(_f5_record(**P)), _f5_refs)
_register("F6", ("f", "h", "r"), "2r + fh/(2r + ...); f = h + r handled as a limit",
          _F5_CONSTRAINTS,
          lambda f, h, r: TermSpec(2 * r, [], (f + (K - 1) * r) * (h + (K - 1) * r), 2 * r),
          _f6_refs)
_register("F7", ("q", "r", "s"), "s + q(r-q)/(2s + (r+q)(2r-q)/(2s + ...))",
          ("q > 0", "r > 0", "s > 0", "q < r + s"),
          lambda q, r, s: TermSpec(s, [], ((K - 1) * r + q) * (K * r - q), 2 * s),
          lambda q, r, s: (_f7_ref_value(float(q), float(r), float(s)),))
_register("F8", ("a", "b", "c", "r", "p", "q"), "master family with weight (p + q x^r)",
          ("r > 0", "p > 0", "p + q > 0", "a + b - c - r > 0", "c - b + r > 0"),
          *_record_family(_f8_record, lambda top, bottom, **P: top / bottom))
_register("F9", ("c", "g", "r", "s"), "p = q = 1 specialization: equal partial denominators",
          ("c > 0", "g > 0", "r > 0", "s > 0", "c - g + r + s > 0"),
          *_record_family(_f9_record, lambda top, bottom, c, **P: c * (top / bottom)))
_register("F10", ("s",), "1/(s + 4/(s + 9/(s + 16/...))) vs arctangent moment",
          ("s > 0",), lambda s: TermSpec(0, [], K * K, s), _f10_refs)
_register("F11", ("a", "alpha", "b", "beta"), "arithmetic numerators a, a+alpha, a+2 alpha, ...",
          ("a > 0", "alpha > 0", "b > 0", "beta > 0", "alpha**2 + alpha*beta*b > beta**2*a"),
          lambda a, alpha, b, beta: TermSpec(0, [], a + (K - 1) * alpha, b + (K - 1) * beta),
          _f11_refs)
_register("F12", ("a", "alpha", "b"), "beta = 0 limit of F11 (constant partial denominators)",
          ("a > 0", "alpha > 0", "b > 0"),
          lambda a, alpha, b: TermSpec(0, [], a + (K - 1) * alpha, b), _f12_refs)

# fixed cases: explicit term sequences with independently computed constants
_register("log2", (), "1/(1 + 1/(1 + 4/(1 + 9/(1 + ...)))) = log 2", (),
          lambda: TermSpec(0, [(1, 1)], (K - 1) ** 2, 1), lambda: (math.log(2.0),))
_register("brouncker", (), "1/(1 + 1/(2 + 9/(2 + 25/(2 + ...)))) = pi/4", (),
          lambda: TermSpec(0, [(1, 1)], (2 * K - 3) ** 2, 2), lambda: (math.pi / 4.0,))
_register("e-euler", (), "2 + 2/(2 + 3/(3 + 4/(4 + ...))) = e", (),
          lambda: TermSpec(2, [(2, 2)], K + 1, K + 1), lambda: (math.e,))
_register("log2-recip", (), "2 + 1*2/(2 + 2*3/(2 + 3*4/(2 + ...))) = 1/(2 log 2 - 1)",
          (), lambda: TermSpec(2, [], K * (K + 1), 2),
          lambda: (1.0 / (2.0 * math.log(2.0) - 1.0),))
_register("pi-half-a", (), "1 + 1/(1 + 1*2/(1 + 2*3/(1 + ...))) = pi/2", (),
          lambda: TermSpec(1, [(1, 1)], (K - 1) * K, 1), lambda: (math.pi / 2.0,))
_register("pi-half-b", (), "2 - 1/(2 + 1/(2 + 4/(2 + 9/(2 + ...)))) = pi/2 (signed)",
          (), lambda: TermSpec(2, [(-1, 2)], (K - 1) ** 2, 2), lambda: (math.pi / 2.0,))
_register("three-pi-quarter-a", (), "2 + 1/(2 + 1*3/(2 + 2*4/(2 + ...))) = 3 pi/4",
          (), lambda: TermSpec(2, [(1, 2)], (K - 1) * (K + 1), 2), lambda: (0.75 * math.pi,))
_register("three-pi-quarter-b", (), "1 + 3/(1 + 1*4/(1 + 2*5/(1 + ...))) = 3 pi/4",
          (), lambda: TermSpec(1, [(3, 1)], (K - 1) * (K + 2), 1), lambda: (0.75 * math.pi,))
# numeric-only verification; no closed form
_register("golden", (), "1 + 1/(2 + 4/(3 + 9/(4 + 16/(5 + ...)))), irrational-exponent preset",
          (), lambda: TermSpec(1, [], K * K, K + 1), _golden_refs)


def family_ids() -> list[str]:
    return list(FAMILIES.keys())


def get_family(family: str) -> IdentityFamily:
    try:
        return FAMILIES[family]
    except KeyError:
        raise UnknownFamilyError(family) from None


def normalize_params(family: str, params: Mapping[str, Rational]) -> dict[str, Fraction]:
    """Validate parameter names for a family and coerce values to Fraction."""
    fam = get_family(family)
    names = fam.param_names
    # equal counts and every name present: no name is unknown or missing
    if len(params) != len(names) or not all(name in params for name in names):
        unknown = sorted(set(params) - set(names))
        if unknown:
            raise ValueError(f"{family}: unknown parameter(s) {', '.join(unknown)}; "
                             f"expected {', '.join(names) or '(none)'}")
        missing = [name for name in names if name not in params]
        raise ValueError(f"{family}: missing parameter(s) {', '.join(missing)}")
    return {name: as_fraction(params[name]) for name in names}


def _resolve(family: str,
             params: Mapping[str, Rational]) -> Tuple[IdentityFamily, dict[str, Fraction]]:
    """The family and its normalised parameters, once the family's constraints hold.

    Raises ``UnknownFamilyError``, ``ValueError`` for unknown or missing
    parameter names, or ``ConstraintViolation``.
    """
    P = normalize_params(family, params)
    fam = FAMILIES[family]
    violated = fam.check(P)
    if violated:
        raise ConstraintViolation(family, violated)
    return fam, P


def make_cf(family: str, params: Mapping[str, Rational]) -> ContinuedFraction:
    """Continued fraction for a family at a parameter assignment.

    Raises ``ConstraintViolation`` if the assignment is rejected.
    """
    fam, P = _resolve(family, params)
    return fam.build(P)


def reference_value(family: str, params: Mapping[str, Rational]) -> Tuple[float, ...]:
    """Independent reference value(s) for a family (two for dual-reference ones)."""
    fam, P = _resolve(family, params)
    return fam.refs(P)


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

class VerifyStatus(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"   # bracket wider than tolerance, or none and budget spent
    DIVERGENT = "divergent"
    CONSTRAINT_VIOLATION = "constraint-violation"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class IdentityCase:
    family: str
    params: dict[str, Fraction] = field(default_factory=dict)
    tolerance: float = 1e-4
    max_terms: int = 400_000

    def __post_init__(self):
        check_tolerance(self.tolerance, "tolerance")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")


@dataclass(frozen=True)
class VerificationReport:
    case: IdentityCase
    status: VerifyStatus
    value: Optional[float] = None
    lower: Optional[float] = None
    upper: Optional[float] = None
    terms_used: int = 0
    references: Tuple[float, ...] = ()
    abs_error: Optional[float] = None
    eval_status: Optional[EvalStatus] = None
    detail: str = ""
    stop: Optional[EvalStop] = None
    renorms: int = 0

    @property
    def passed(self) -> bool:
        return self.status is VerifyStatus.PASS


def verify(case: IdentityCase) -> VerificationReport:
    """Evaluate a case's fraction and compare with its reference value(s).

    Pass criterion: every reference lies inside the reported bracket when one
    exists, otherwise |value - reference| <= tolerance.  Dual-reference
    families must additionally agree with each other to ``DUAL_AGREEMENT``.
    A bracket wider than the tolerance (the term budget ran out first) that
    holds every reference is ``INCONCLUSIVE``: it shows no error, nor the
    identity to the asked tolerance.  So is any evaluation whose budget ran
    out with no bracket, however far its last value is from a reference: the
    last difference says nothing of how far the limit is.
    """
    try:
        fam, P = _resolve(case.family, case.params)
    except (UnknownFamilyError, ValueError) as exc:
        detail = (f"constraint violated: {exc.predicate}"
                  if isinstance(exc, ConstraintViolation) else str(exc))
        return VerificationReport(case, VerifyStatus.CONSTRAINT_VIOLATION, detail=detail)
    try:
        refs = fam.refs(P)
    except (QuadratureError, ValueError, ArithmeticError) as exc:
        return VerificationReport(case, VerifyStatus.UNDEFINED,
                                  detail=f"reference evaluation failed: {exc}")
    try:
        rep = eval_float(fam.build(P), case.tolerance, case.max_terms)
    except (ContinuedFractionError, ArithmeticError) as exc:
        return VerificationReport(case, VerifyStatus.UNDEFINED, references=refs,
                                  detail=f"evaluation failed: {exc}")

    status, detail = _verdict(rep, refs, case.tolerance)
    return VerificationReport(case, status, rep.value, rep.lower, rep.upper, rep.terms_used,
                              refs, abs(rep.value - refs[0]), rep.status, detail, rep.stop,
                              rep.renorms)


def _verdict(rep: EvalReport, refs: Tuple[float, ...],
             tolerance: float) -> Tuple[VerifyStatus, str]:
    """Status and detail of an evaluation against its references: divergence,
    dual disagreement, the bracket, a spent budget, then the difference."""
    if rep.status is EvalStatus.DIVERGENT:
        return VerifyStatus.DIVERGENT, "oscillation without contraction"
    if len(refs) == 2 and abs(refs[0] - refs[1]) > DUAL_AGREEMENT:
        return VerifyStatus.FAIL, f"dual references disagree by {abs(refs[0] - refs[1]):.3e}"
    if rep.lower is not None:
        slack = 1e-12 * max(1.0, abs(refs[0]))
        if not all(rep.lower - slack <= ref <= rep.upper + slack for ref in refs):
            return VerifyStatus.FAIL, "reference outside bracket"
        if not rep.upper - rep.lower <= tolerance:
            return VerifyStatus.INCONCLUSIVE, (f"bracket width {rep.upper - rep.lower:.3e} "
                                               f"above tolerance {tolerance:.1e}")
    elif rep.status is EvalStatus.BUDGET_EXHAUSTED:
        return VerifyStatus.INCONCLUSIVE, "term budget exhausted without a bracket"
    elif not all(abs(rep.value - ref) <= tolerance for ref in refs):
        return VerifyStatus.FAIL, "absolute error above tolerance"
    return VerifyStatus.PASS, ""


# --------------------------------------------------------------------------
# cross-identity checks
# --------------------------------------------------------------------------

def _chain_cf(m: Fraction, n: Fraction, s: Fraction, kappa: Fraction,
              shift: int, kappa_sign: int) -> ContinuedFraction:
    m, n, s, kappa = _lift(m), _lift(n), _lift(s), _lift(kappa)
    lead = m + n + (2 * shift - 1) * s
    head = [(s * s - m * s + n * s - kappa, lead)] if kappa_sign < 0 else []
    return ContinuedFraction.from_spec(
        TermSpec(lead, head, K * K * s * s - K * m * s + K * n * s + kappa, lead))


def chain_alpha(m: Rational, n: Rational, s: Rational, kappa: Rational,
                shift: int, depth: int) -> float:
    """Evaluate the shift-th chain letter (shift 0, 1, 2 -> alpha, beta, gamma).

    The value is m + n + (2*shift - 1)s + K_1/(same + K_2/(same + ...)) with
    K_j = j^2 s^2 - j m s + j n s + kappa.  Consecutive letters satisfy

        L_j L_{j+1} - (m + j s) L_j - (n + j s) L_{j+1} - kappa = 0.

    The first numerator carries +kappa: the reading with -kappa there breaks
    that relation (residual about 1.9 at (m, n, s, kappa) = (3/2, 2, 1/2, 1),
    against 2e-13 for +kappa).

    Raises ``ContinuedFractionError``, naming the status and the terms used,
    unless the evaluation converged or the fraction terminated within
    ``depth`` terms.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    cf = _chain_cf(as_fraction(m), as_fraction(n), as_fraction(s), as_fraction(kappa),
                   shift, +1)
    rep = eval_float(cf, 1e-11, depth)
    if rep.status not in (EvalStatus.CONVERGED, EvalStatus.TERMINATED_FINITE):
        raise ContinuedFractionError(f"chain letter {shift} not evaluated: {rep.status.value} "
                                     f"after {rep.terms_used} terms")
    return rep.value


def product_identity_check(q: float, r: float, s: float) -> float:
    """|V(s) V(s+r) - (s+q)(s+r-q)| for the F7 reference values (oracle level)."""
    return abs(_f7_ref_value(q, r, s) * _f7_ref_value(q, r, s + r)
               - (s + q) * (s + r - q))


def permutation_theorem_check(a: float, b: float, c: float, r: float,
                              p: float, q: float) -> float:
    """Residual of the c <-> g permutation identity for the master family.

    Both orientations must be integrable: with g = a + b - c - r this needs
    g > 0, c - b + r > 0, c > 0 and a - c > 0.  Returns
    |c * I(g side ratio) - g * I(c side ratio)|, all four moments in one
    row-wise double-exponential quadrature pass.
    """
    _check_finite(a=a, b=b, c=c, r=r, p=p, q=q)
    g = a + b - c - r
    if g <= 0 or c - b + r <= 0:
        raise ValueError("g-side integrability violated")
    if c <= 0 or a - c <= 0:
        raise ValueError("c-side integrability violated")
    # the g side's two moments, then the c side's: c and g swapped, I(c+r) and I(c)
    i = _moments(_f8_record(a, b, c, r, p, q), _f8_record(a, b, g, r, p, q))
    return abs(c * (i[0] / i[1]) - g * (i[2] / i[3]))


# --------------------------------------------------------------------------
# built-in verification suite
# --------------------------------------------------------------------------

def builtin_suite() -> list[IdentityCase]:
    """Curated cases covering every family; all are expected to pass.

    Signed forms (no bracket certificate) carry a 10x wider tolerance, per
    the successive-difference stopping rule.
    """
    F = Fraction

    def case(family, params=None, **limits):  # IdentityCase's defaults otherwise
        return IdentityCase(family, {k: as_fraction(v) for k, v in (params or {}).items()},
                            **limits)

    return [
        case("log2", tolerance=1e-4),
        case("brouncker", tolerance=1e-4),
        case("e-euler", tolerance=1e-12, max_terms=60),
        case("log2-recip", tolerance=1e-6),
        case("pi-half-a", tolerance=1e-5),
        case("pi-half-b", tolerance=1e-4),          # signed: 10x base 1e-5
        case("three-pi-quarter-a", tolerance=1e-6),
        case("three-pi-quarter-b", tolerance=1e-4),
        case("golden", tolerance=1e-5),
        case("F1", {"m": 2, "n": 1}),
        case("F1", {"m": 3, "n": 2}),
        case("F1", {"m": 4, "n": 3}),
        case("F1-frac", {"m": 3, "n": 2}),
        case("F2", {"mu": 1, "nu": 2, "m": 2, "n": 1}, tolerance=1e-5),
        case("F2", {"mu": 1, "nu": 3, "m": 1, "n": 2}, tolerance=1e-5),
        case("F3", {"s": 1}),
        case("F3", {"s": 2}, tolerance=1e-6),
        case("F3", {"s": 3}, tolerance=1e-7),
        case("F3", {"s": F(11, 2)}, tolerance=1e-8),
        case("F4-25", {"p": 1, "q": 2, "r": 1}, tolerance=1e-4),
        case("F4-25alt", {"p": 1, "q": 1, "r": 2}, tolerance=1e-4),
        case("F4-25", {"p": 1, "q": 1, "r": 2}, tolerance=1e-3),   # signed main form
        case("F4-26", {"p": 1, "q": F(1, 2), "r": 1}, tolerance=1e-5),
        case("F4-27", {"p": 1, "q": F(1, 2), "r": 1}, tolerance=1e-3),  # signed
        case("F5", {"f": F(3, 2), "h": F(5, 2), "r": 1}),
        case("F5", {"f": F(3, 2), "h": F(3, 2), "r": 1}, tolerance=1e-4),
        case("F6", {"f": F(5, 2), "h": 1, "r": 1}, tolerance=1e-5),
        case("F6", {"f": 2, "h": 1, "r": 1}, tolerance=1e-6),      # limit f = h + r
        case("F7", {"q": 1, "r": 2, "s": 1}),
        case("F7", {"q": 1, "r": 2, "s": 2}, tolerance=1e-6),
        case("F7", {"q": F(1, 2), "r": 1, "s": F(3, 2)}, tolerance=1e-6),
        case("F8", {"a": 3, "b": F(5, 2), "c": 2, "r": 1, "p": 1, "q": F(1, 2)},
             tolerance=1e-9, max_terms=5000),
        case("F8", {"a": 2, "b": 1, "c": F(3, 2), "r": 1, "p": 1, "q": F(-1, 2)},
             tolerance=1e-9, max_terms=5000),
        case("F9", {"c": 1, "g": F(3, 2), "r": 1, "s": F(5, 2)}, tolerance=1e-6),
        case("F10", {"s": 1}),
        case("F10", {"s": 2}, tolerance=1e-6),
        case("F10", {"s": 3}, tolerance=1e-7),
        case("F11", {"a": 1, "alpha": 1, "b": 1, "beta": 1},
             tolerance=1e-10, max_terms=500),
        case("F11", {"a": 2, "alpha": 1, "b": F(3, 2), "beta": F(1, 2)},
             tolerance=1e-10, max_terms=500),
        case("F12", {"a": 1, "alpha": 1, "b": 1}, tolerance=1e-8, max_terms=100_000),
        case("F12", {"a": 2, "alpha": 1, "b": F(3, 2)}, tolerance=1e-8, max_terms=100_000),
    ]
