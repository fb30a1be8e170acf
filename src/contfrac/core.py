"""Exact continued-fraction arithmetic.

A continued fraction is a leading rational plus a lazily generated stream of
partial terms, written here as

    leading + b1/(a1 + b2/(a2 + b3/(a3 + ...)))

with b_k the partial numerators and a_k the partial denominators.  Terms are
exact ``fractions.Fraction`` values; nothing is rounded until ``eval_float``
is asked for a floating-point enclosure.

Convergents p_k/q_k follow the usual three-term recurrences

    p_k = a_k p_{k-1} + b_k p_{k-2},    q_k = a_k q_{k-1} + b_k q_{k-2}

seeded with p_{-1} = 1, q_{-1} = 0, p_0 = leading, q_0 = 1, so consecutive
convergents differ by (-1)^{k+1} (prod b_i) / (q_{k-1} q_k).  For fractions
whose entries are all positive, consecutive convergents bracket the limit;
``eval_float`` exploits that for rigorous stopping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

Rational = Union[int, str, float, Fraction]


class ContinuedFractionError(Exception):
    """Base class for continued-fraction evaluation errors."""


class ZeroDenominatorError(ContinuedFractionError):
    """A generated partial denominator was zero."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"partial denominator at index {index} is zero")


class TermUnderflowError(ContinuedFractionError):
    """A nonzero exact partial term rounded to 0.0 as a float."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"partial term at index {index} is nonzero but rounds to 0.0")


class ZeroContinuantError(ContinuedFractionError):
    """A denominator continuant q_k vanished where a defined value was required.

    ``partial`` holds whatever the failing operation produced before q_k.
    """

    def __init__(self, index: int, partial: Optional[list] = None):
        self.index = index
        self.partial = [] if partial is None else partial
        super().__init__(f"denominator continuant q_{index} is zero")


class ContractionError(ContinuedFractionError):
    """Even contraction is undefined at the reported depth."""

    def __init__(self, depth: int):
        self.depth = depth
        super().__init__(f"even contraction undefined at depth {depth}")


def as_fraction(value: Rational) -> Fraction:
    """Coerce ints, 'p/q' strings, floats (exactly) and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


Exact = Union[int, Fraction]


def _as_exact(value: Rational) -> Exact:
    # ints are exact rationals too; keeping them raw makes integer-parameter
    # term streams several times faster than all-Fraction streams.
    if isinstance(value, (int, Fraction)):
        return value
    return Fraction(value)


def _reduced(value: Rational) -> Exact:
    """Exact value, as a plain int when it is integral."""
    x = as_fraction(value)
    return x.numerator if x.denominator == 1 else x


class PartialTerm(NamedTuple):
    numerator: Exact
    denominator: Exact


def term(numerator: Rational, denominator: Rational) -> PartialTerm:
    return PartialTerm(_as_exact(numerator), _as_exact(denominator))


TermRule = Callable[[int], Optional[Tuple[Rational, Rational]]]


@dataclass(frozen=True)
class Poly:
    """Polynomial in the term index k with rational coefficients, kept as
    integer coefficients ``ints`` (highest degree first) over one positive
    denominator ``den``: the value is N(k)/den with N evaluated by Horner.
    Arithmetic with rationals and other ``Poly`` values lets a term rule be
    written as an expression in ``K``, e.g. ``(f + (K-1)*r) ** 2``."""

    ints: Tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        ints = self.ints
        while len(ints) > 1 and ints[0] == 0:
            ints = ints[1:]
        g = math.gcd(self.den, *ints)
        object.__setattr__(self, "ints", tuple(c // g for c in ints) if g > 1 else tuple(ints))
        object.__setattr__(self, "den", self.den // g)

    @staticmethod
    def lift(x: Union["Poly", Rational]) -> "Poly":
        if isinstance(x, Poly):
            return x
        if isinstance(x, int):
            return Poly((x,))
        x = as_fraction(x)
        return Poly((x.numerator,), x.denominator)

    def __add__(self, other):
        o = Poly.lift(other)
        a = [c * o.den for c in self.ints]
        b = [c * self.den for c in o.ints]
        n = max(len(a), len(b))
        a[:0] = [0] * (n - len(a))
        b[:0] = [0] * (n - len(b))
        return Poly(tuple(x + y for x, y in zip(a, b)), self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + Poly.lift(other) * -1

    def __rsub__(self, other):
        return self * -1 + other

    def __mul__(self, other):
        o = Poly.lift(other)
        out = [0] * (len(self.ints) + len(o.ints) - 1)
        for i, x in enumerate(self.ints):
            for j, y in enumerate(o.ints):
                out[i + j] += x * y
        return Poly(tuple(out), self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return math.prod([self] * n, start=Poly((1,)))


K = Poly((1, 0))


@dataclass(frozen=True)
class TermSpec:
    """A fraction as data: ``leading``, explicit ``head`` terms for
    k = 1..len(head), then b_k = b(k) and a_k = a(k) for every later k.

    ``exact_terms`` is the exact stream.  ``eval_float`` does not read it:
    it takes float terms from ``_spec_chunks``, which equal ``float()`` of
    the exact terms one for one."""

    leading: Fraction
    head: Tuple[PartialTerm, ...]
    b: Poly
    a: Poly

    def __post_init__(self):
        object.__setattr__(self, "leading", as_fraction(self.leading))
        object.__setattr__(self, "head", tuple(PartialTerm(_reduced(b), _reduced(a))
                                               for b, a in self.head))
        object.__setattr__(self, "b", Poly.lift(self.b))
        object.__setattr__(self, "a", Poly.lift(self.a))

    def exact_terms(self) -> Iterator[PartialTerm]:
        """The exact stream; a polynomial with ``den`` 1 gives plain ints."""
        yield from self.head
        nb, db, na, da = self.b.ints, self.b.den, self.a.ints, self.a.den
        for k in itertools.count(len(self.head) + 1):
            n = m = 0
            for c in nb:
                n = n * k + c
            for c in na:
                m = m * k + c
            yield PartialTerm(n if db == 1 else Fraction(n, db), m if da == 1 else Fraction(m, da))


# chunk sizes and the float64 exactness bound of _spec_chunks
_LAZY_TERMS = 128
_CHUNK_MAX = 4096
_F64_EXACT = 2 ** 53


class _EndOfFraction(Exception):
    """The term whose index is the argument has a zero partial numerator,
    which ends the fraction before it; ``eval_float`` catches this."""


def _zero_term(b: Rational, a: Rational, k: int):
    """Raise for term k, whose numerator or denominator is zero: a zero
    denominator leaves the fraction undefined, else the zero numerator ends it."""
    if a == 0:
        raise ZeroDenominatorError(k)
    raise _EndOfFraction(k)


def _checked_floats(pairs: Iterable[Tuple[Rational, Rational]]):
    """(float(b_k), float(a_k)) for a stream of exact terms numbered from 1,
    one at a time.  A zero term raises through ``_zero_term`` and a nonzero
    term that rounds to 0.0 raises ``TermUnderflowError``, each at the term's
    index once the consumer reaches it."""
    for k, (b, a) in enumerate(pairs, 1):
        if not (b and a):
            _zero_term(b, a, k)
        fb, fa = float(b), float(a)
        if fb == 0.0 or fa == 0.0:
            raise TermUnderflowError(k)
        yield fb, fa


def _lazy_floats(spec: TermSpec, k0: int, k1: int):
    """(b_k, a_k) as N_b(k)/D_b and N_a(k)/D_a for k0 <= k < k1, one term at
    a time; the first k with N_b(k) or N_a(k) zero raises through
    ``_zero_term``.  Int true division rounds correctly, so each value is
    float() of the exact term; one that overflows raises OverflowError at its
    own index."""
    nb, db, na, da = spec.b.ints, spec.b.den, spec.a.ints, spec.a.den
    for k in range(k0, k1):
        n = m = 0
        for c in nb:
            n = n * k + c
        for c in na:
            m = m * k + c
        if not (n and m):
            _zero_term(n, m, k)
        yield n / db, m / da


def _numpy_floats(poly: Poly, k0: int, k1: int) -> Optional[list]:
    """N(k)/D as floats for k0 <= k < k1, stopping before the first k with
    N(k) = 0, or None unless that is exact in float64: D <= 2**53 and
    sum |c_i| (k1-1)**i <= 2**53 keep every Horner intermediate an integer
    float64 holds exactly, and IEEE division rounds correctly."""
    ints, den = poly.ints, poly.den
    if den > _F64_EXACT or sum(abs(c) * (k1 - 1) ** i
                               for i, c in enumerate(reversed(ints))) > _F64_EXACT:
        return None
    if len(ints) == 1:
        return [ints[0] / den] * (k1 - k0) if ints[0] else []
    ks = np.arange(k0, k1, dtype=np.float64)
    n = ks * ints[0]
    for c in ints[1:-1]:
        n += c
        n *= ks
    n += ints[-1]
    if not n.all():
        n = n[:np.flatnonzero(n == 0.0)[0]]
    n /= den
    return n.tolist()


def _spec_chunks(spec: TermSpec, max_terms: int):
    """Float chunks of the first ``max_terms`` terms of ``spec``, equal term
    for term to ``_checked_floats(spec.exact_terms())`` with the same errors
    at the same indices.

    A chunk is an iterable of (b_k, a_k) float pairs for consecutive k, and
    a polynomial term is N(k)/D, the Horner value of an integer numerator
    polynomial over its fixed denominator.  Head terms come through
    ``_checked_floats``.  The first ``_LAZY_TERMS`` polynomial terms come one
    at a time from ``_lazy_floats`` in Python ints, whose true division
    rounds correctly, so a short evaluation makes no term it does not use.
    Each later chunk is as long as all terms before it, up to ``_CHUNK_MAX``,
    and ``_numpy_floats`` makes it at once in float64 when D <= 2**53 and
    sum |c_i| k_max**i <= 2**53 (coefficients c_i, last index k_max): every
    Horner intermediate is then an integer float64 holds, and IEEE division
    rounds correctly.  Otherwise, and for the rest of a numpy chunk from its
    first zero term on, terms come from ``_lazy_floats``.  Every source
    raises at a zero term's own index once the consumer reaches it
    (``_zero_term``).  A spec with D >= 2**1074, whose nonzero terms can
    round to 0.0, takes the checked exact stream instead.
    """
    if spec.b.den >> 1074 or spec.a.den >> 1074:
        # N(k)/D with N(k) != 0 can round to 0.0 only when D >= 2**1074:
        # take the exact stream, whose conversion checks every term
        yield _checked_floats(itertools.islice(spec.exact_terms(), max_terms))
        return
    if spec.head:
        yield _checked_floats(spec.head[:max_terms])
    k = len(spec.head) + 1
    while k <= max_terms:
        end = min(k + min(max(k - 1, _LAZY_TERMS), _CHUNK_MAX), max_terms + 1)
        bs = as_ = None
        if k - len(spec.head) > _LAZY_TERMS:
            bs, as_ = _numpy_floats(spec.b, k, end), _numpy_floats(spec.a, k, end)
        if bs is None or as_ is None:
            yield _lazy_floats(spec, k, end)
        else:
            n = min(len(bs), len(as_))
            yield zip(bs, as_)
            if k + n < end:
                yield _lazy_floats(spec, k + n, end)
        k = end


@dataclass(frozen=True)
class ContinuedFraction:
    """Leading rational plus a deterministic stream of partial terms.

    ``factory`` must return a fresh, equivalent iterator on every call, so
    requesting the first k terms twice always yields identical values.
    A fraction built ``from_spec`` also carries its ``TermSpec``, which lets
    ``eval_float`` compute float terms without the exact stream.
    """

    leading: Fraction
    factory: Callable[[], Iterator[PartialTerm]]
    spec: Optional[TermSpec] = None

    def terms(self) -> Iterator[PartialTerm]:
        """Iterate partial terms, rejecting zero partial denominators."""
        for index, t in enumerate(self.factory(), start=1):
            if t.denominator == 0:
                raise ZeroDenominatorError(index)
            yield t

    def take(self, k: int) -> list[PartialTerm]:
        return list(itertools.islice(self.terms(), k))

    @staticmethod
    def from_rule(leading: Rational, rule: TermRule) -> "ContinuedFraction":
        """Build from a 1-based rule; ``rule(k)`` returns (b_k, a_k) or None to stop."""

        def factory() -> Iterator[PartialTerm]:
            k = 1
            while True:
                pair = rule(k)
                if pair is None:
                    return
                yield term(pair[0], pair[1])
                k += 1

        return ContinuedFraction(as_fraction(leading), factory)

    @staticmethod
    def from_spec(spec: TermSpec) -> "ContinuedFraction":
        return ContinuedFraction(spec.leading, spec.exact_terms, spec)

    @staticmethod
    def from_pairs(leading: Rational, pairs: Iterable[Tuple[Rational, Rational]]) -> "ContinuedFraction":
        fixed = tuple(term(b, a) for b, a in pairs)
        return ContinuedFraction(as_fraction(leading), lambda: iter(fixed))


@dataclass(frozen=True)
class Convergent:
    """Exact convergent p/q at a given index; q may be zero (undefined value)."""

    index: int
    p: Fraction
    q: Fraction

    @property
    def defined(self) -> bool:
        return self.q != 0

    @property
    def value(self) -> Fraction:
        if self.q == 0:
            raise ZeroContinuantError(self.index)
        return self.p / self.q


def convergent_iter(cf: ContinuedFraction) -> Iterator[Convergent]:
    """Yield exact convergents for indices 1, 2, 3, ...

    Undefined convergents (q_k = 0) are yielded with q = 0 so callers can skip
    them; the recurrence itself continues unharmed.
    """
    p_prev, q_prev = Fraction(1), Fraction(0)
    p, q = cf.leading, Fraction(1)
    for k, t in enumerate(cf.terms(), start=1):
        p, p_prev = t.denominator * p + t.numerator * p_prev, p
        q, q_prev = t.denominator * q + t.numerator * q_prev, q
        yield Convergent(k, p, q)


def convergent_sequence(cf: ContinuedFraction, k: int) -> list[Convergent]:
    """First ``k`` exact convergents (fewer if the fraction is finite)."""
    if k < 1:
        raise ValueError("k must be positive")
    return list(itertools.islice(convergent_iter(cf), k))


def euler_series_expansion(cf: ContinuedFraction, k: int) -> list[Fraction]:
    """Expand into the equivalent alternating series.

    Returns the first ``k`` series terms t_j = (-1)^{j+1} (prod_{i<=j} b_i) /
    (q_{j-1} q_j); the leading term of the fraction is not included.  Partial
    sums of ``leading + t_1 + ... + t_j`` equal the convergents exactly.

    Raises ``ZeroContinuantError`` if some q_j vanishes before ``k`` terms are
    produced (the expansion stops at that point; terms already produced are
    attached to the exception).
    """
    if k < 1:
        raise ValueError("k must be positive")
    out: list[Fraction] = []
    q_prev, q = Fraction(0), Fraction(1)  # q_{-1}, q_0
    prod = Fraction(1)
    sign = 1
    for j, t in enumerate(cf.terms(), start=1):
        if j > k:
            break
        q_next = t.denominator * q + t.numerator * q_prev
        prod *= t.numerator
        if q_next == 0:
            raise ZeroContinuantError(j, out)
        out.append(sign * prod / (q * q_next))
        sign = -sign
        q_prev, q = q, q_next
    return out


def even_contraction(cf: ContinuedFraction) -> ContinuedFraction:
    """Fraction whose k-th convergent equals the 2k-th convergent of ``cf``.

    Derived from the convergent recurrence by eliminating the odd-indexed
    continuants:

        x_{2k+2} = (a_{2k+2} a_{2k+1} + a_{2k+2} b_{2k+1}/a_{2k} + b_{2k+2}) x_{2k}
                   - (a_{2k+2} b_{2k+1} b_{2k} / a_{2k}) x_{2k-2}

    The equality is exact (rational identity).  A finite fraction of odd
    length gets one closing term so the contracted value matches the original
    final convergent.
    """

    def factory() -> Iterator[PartialTerm]:
        it = cf.terms()
        t1 = next(it, None)
        if t1 is None:
            return
        t2 = next(it, None)
        if t2 is None:
            yield t1  # single term: v_1 is the final value, keep it
            return
        first_den = t1.denominator * t2.denominator + t2.numerator
        if first_den == 0:
            raise ContractionError(1)
        yield PartialTerm(t1.numerator * t2.denominator, first_den)
        b_even, a_even = as_fraction(t2.numerator), as_fraction(t2.denominator)
        depth = 2
        while True:
            t_odd = next(it, None)  # original index 2k+1
            if t_odd is None:
                return
            t_next = next(it, None)  # original index 2k+2
            if t_next is None:
                # odd tail: close so the last contracted convergent is v_{2k+1}
                yield PartialTerm(-(t_odd.numerator * b_even) / a_even,
                                  t_odd.denominator + t_odd.numerator / a_even)
                return
            den = (t_next.denominator * t_odd.denominator
                   + t_next.denominator * t_odd.numerator / a_even
                   + t_next.numerator)
            if den == 0:
                raise ContractionError(depth)
            yield PartialTerm(-(t_next.denominator * t_odd.numerator * b_even) / a_even,
                              den)
            b_even, a_even = as_fraction(t_next.numerator), as_fraction(t_next.denominator)
            depth += 1

    return ContinuedFraction(cf.leading, factory)


class PositivityClass(str, Enum):
    GUARANTEED_CONVERGENT = "guaranteed-convergent"
    NOT_GUARANTEED = "not-guaranteed"


def positivity_class(cf: ContinuedFraction, k: int) -> PositivityClass:
    """Guaranteed convergent iff the first k partial terms are all positive."""
    for t in cf.take(k):
        if t.numerator <= 0 or t.denominator <= 0:
            return PositivityClass.NOT_GUARANTEED
    return PositivityClass.GUARANTEED_CONVERGENT


def equivalence_transform(cf: ContinuedFraction, scales: Sequence[Rational]) -> ContinuedFraction:
    """Rescale partial terms without changing any convergent value.

    With c_0 = 1 and nonzero scales c_1, c_2, ...:  b'_k = c_{k-1} c_k b_k and
    a'_k = c_k a_k.  Scales beyond the given sequence default to 1.
    """
    factors = tuple(as_fraction(c) for c in scales)
    if any(c == 0 for c in factors):
        raise ValueError("equivalence scales must be nonzero")

    def factory() -> Iterator[PartialTerm]:
        prev = Fraction(1)
        for k, t in enumerate(cf.terms(), start=1):
            cur = factors[k - 1] if k <= len(factors) else Fraction(1)
            yield PartialTerm(prev * cur * t.numerator, cur * t.denominator)
            prev = cur

    return ContinuedFraction(cf.leading, factory)


class EvalStatus(str, Enum):
    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget-exhausted"
    DIVERGENT = "divergent-flagged"
    TERMINATED_FINITE = "terminated-finite"


@dataclass(frozen=True)
class EvalReport:
    """Floating-point evaluation outcome; lower/upper form a rigorous bracket
    only when every partial term seen was positive."""

    value: float
    lower: Optional[float]
    upper: Optional[float]
    terms_used: int
    status: EvalStatus


# Continuants grow geometrically; rescale all four recurrence state variables
# by a power of two whenever they leave [2^-512, 2^512].
_RENORM_LIMIT = 2.0 ** 512
_RENORM_SCALE = 2.0 ** -512
_DIVERGENCE_WINDOW = 12


def check_tolerance(tol: float, name: str = "tol") -> float:
    """Return ``tol``; reject every tolerance that is not a finite positive
    number (NaN too) with ``ValueError``."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be a finite positive number, got {tol!r}")
    return tol


def _estimate(lead: float, v_pp: Optional[float], v_prev: Optional[float]):
    """(value, lower, upper) from the last two defined convergents v_pp and
    v_prev of an all-positive fraction: the midpoint of their bracket, or the
    one convergent there is, or the leading term."""
    if v_pp is None:
        return (lead if v_prev is None else v_prev), None, None
    lo, hi = (v_pp, v_prev) if v_pp <= v_prev else (v_prev, v_pp)
    return 0.5 * (lo + hi), lo, hi


def eval_float(cf: ContinuedFraction, tol: float, max_terms: int) -> EvalReport:
    """Evaluate in floating point with renormalised forward recurrences.

    Stopping rules, in order of preference:

    * all partial terms positive so far: consecutive convergents bracket the
      limit; stop once the bracket width is <= tol and report lower/upper.
    * otherwise: stop when |v_k - v_{k-1}| <= tol on two successive defined
      steps; no bracket is reported.  If the successive differences are
      non-contracting over a trailing window the evaluation is flagged
      divergent.

    A zero partial numerator terminates the fraction exactly; exhausting the
    term stream reports the final convergent.  Undefined convergents
    (q_k = 0) are skipped and the recurrence continues.

    Float terms arrive in chunks: from ``_spec_chunks`` for a fraction with
    a ``TermSpec``, else from the exact stream one term at a time.  Both give
    ``float()`` of every exact term.  A term that is zero, overflows or
    underflows raises at its own index once the loop reaches it: a zero
    denominator raises ``ZeroDenominatorError``, and a zero numerator raises
    a private exception that this loop catches to report the fraction finite.
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
                    continue  # undefined convergent, skip
                v = p / q
                if positive:
                    # |v - v_prev| <= tol, which is the bracket width
                    if v_prev is not None and ntol <= v - v_prev <= tol:
                        return EvalReport(*_estimate(lead, v_prev, v), k, EvalStatus.CONVERGED)
                    v_pp = v_prev
                else:
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
                                return EvalReport(v, None, None, k, EvalStatus.DIVERGENT)
                v_prev = v
    except _EndOfFraction:  # term k + 1 has a zero numerator
        return EvalReport(lead if v_prev is None else v_prev, None, None, k + 1,
                          EvalStatus.TERMINATED_FINITE)

    if k < max_terms:
        return EvalReport(lead if v_prev is None else v_prev, None, None, k,
                          EvalStatus.TERMINATED_FINITE)
    if positive:
        return EvalReport(*_estimate(lead, v_pp, v_prev), k, EvalStatus.BUDGET_EXHAUSTED)
    return EvalReport(value, None, None, k, EvalStatus.BUDGET_EXHAUSTED)
