"""Exact continued-fraction arithmetic.

A continued fraction is a leading rational plus a lazily generated stream of
partial terms, written here as

    leading + b1/(a1 + b2/(a2 + b3/(a3 + ...)))

with b_k the partial numerators and a_k the partial denominators.  Terms are
exact: every term the library makes or reads is an ``int`` when its value is
integral, else one reduced ``fractions.Fraction``.  A term the library builds
from an integer numerator and denominator (``_exact``) costs one gcd: the
reduced Fraction is made directly, as ``Fraction._from_coprime_ints`` makes
one.  Nothing is rounded until ``eval_float`` is asked for a floating-point
enclosure.

Convergents p_k/q_k follow the usual three-term recurrences

    p_k = a_k p_{k-1} + b_k p_{k-2},    q_k = a_k q_{k-1} + b_k q_{k-2}

seeded with p_{-1} = 1, q_{-1} = 0, p_0 = leading, q_0 = 1, so consecutive
convergents differ by (-1)^{k+1} (prod b_i) / (q_{k-1} q_k).  For fractions
whose entries are all positive, consecutive convergents bracket the limit;
``eval_float`` exploits that for rigorous stopping.

numpy is imported in ``_numpy_floats`` alone, on the first float64 chunk:
an evaluation of a spec fraction past its first ``_LAZY_TERMS`` polynomial
terms.  Exact work and shorter evaluations never load it.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple, Union

Rational = Union[int, str, float, Fraction]


class ContinuedFractionError(Exception):
    """Base class for continued-fraction evaluation errors."""


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


def _exact(num: int, den: int) -> Exact:
    """num/den as an exact term: the int value when it is integral, else one
    reduced Fraction.  Requires den != 0; every caller passes a product of
    nonzero parts.

    The sign goes to the numerator and one ``math.gcd`` reduces the pair.
    The reduced Fraction is then built directly with its two slots set, as
    CPython's ``Fraction._from_coprime_ints`` does, which skips the type
    checks of the Python-level ``Fraction(num, den)``.
    """
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    if g == den:
        return num // g
    x = object.__new__(Fraction)
    x._numerator = num // g
    x._denominator = den // g
    return x


def _reduced(value: Rational) -> Exact:
    """``value`` as an exact term, typed as ``_exact`` types one; an int is
    kept as it is."""
    if type(value) is int:
        return value
    x = as_fraction(value)
    return x.numerator if x.denominator == 1 else x


class PartialTerm(NamedTuple):
    numerator: Exact
    denominator: Exact


def term(numerator: Rational, denominator: Rational) -> PartialTerm:
    return PartialTerm(_reduced(numerator), _reduced(denominator))


TermRule = Callable[[int], Optional[Tuple[Rational, Rational]]]


class Poly:
    """Polynomial in the term index k with rational coefficients, kept as
    integer coefficients ``ints`` (highest degree first) over one positive
    denominator ``den``: the value is N(k)/den with N evaluated by Horner.
    Arithmetic with rationals and other ``Poly`` values lets a term rule be
    written as an expression in ``K``, e.g. ``(f + (K-1)*r) ** 2``.

    Arithmetic keeps the integers it makes as they are: it strips no leading
    zero and takes no gcd.  ``normal()`` does both, and ``TermSpec`` applies
    it once to each polynomial it is given.  Two values are equal, and hash
    alike, when their normal forms are equal."""

    __slots__ = ("ints", "den")

    def __init__(self, ints: Tuple[int, ...], den: int = 1):
        self.ints = ints
        self.den = den

    @staticmethod
    def lift(x: Union["Poly", Rational]) -> "Poly":
        if isinstance(x, Poly):
            return x
        if isinstance(x, int):
            return Poly((x,))
        x = as_fraction(x)
        return Poly((x.numerator,), x.denominator)

    def normal(self) -> "Poly":
        """The same value with no leading zero coefficient (one zero stays)
        and ``den`` coprime to the coefficients."""
        ints = self.ints
        i = 0
        while i < len(ints) - 1 and ints[i] == 0:
            i += 1
        g = math.gcd(self.den, *ints[i:])
        return Poly(tuple(c // g for c in ints[i:]), self.den // g)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.normal(), other.normal()
        return a.ints == b.ints and a.den == b.den

    def __hash__(self):
        a = self.normal()
        return hash((a.ints, a.den))

    def __repr__(self):
        return f"Poly(ints={self.ints!r}, den={self.den!r})"

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Poly(tuple([-c for c in self.ints]), self.den)

    def _plus(self, other, sign: int) -> "Poly":
        """self + sign * other, over the product of the denominators (one of
        them when they are equal)."""
        a, den = self.ints, self.den
        if type(other) is int:
            return Poly((*a[:-1], a[-1] + sign * other * den), den)
        o = other if type(other) is Poly else Poly.lift(other)
        b, oden = o.ints, o.den
        if len(a) == 1 and len(b) == 1:
            if oden == den:
                return Poly((a[0] + sign * b[0],), den)
            return Poly((a[0] * oden + sign * b[0] * den,), den * oden)
        if oden != den:
            a, b, den = [c * oden for c in a], [c * den for c in b], den * oden
        if sign < 0:
            b = [-c for c in b]
        d = len(a) - len(b)
        if d < 0:
            a, b, d = b, a, -d
        return Poly((*a[:d], *map(operator.add, a[d:], b)), den)

    def __mul__(self, other):
        if type(other) is int:
            return Poly(tuple([c * other for c in self.ints]), self.den)
        o = other if type(other) is Poly else Poly.lift(other)
        a, b = self.ints, o.ints
        if len(a) == 1 and len(b) == 1:
            return Poly((a[0] * b[0],), self.den * o.den)
        if len(b) == 1:
            c = b[0]
            out = [x * c for x in a]
        elif len(a) == 1:
            c = a[0]
            out = [c * y for y in b]
        else:
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly(tuple(out), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational or constant ``Poly``."""
        o = Poly.lift(other).normal()
        (n,) = o.ints  # a constant
        if not n:
            raise ZeroDivisionError("Poly division by zero")
        s = o.den if n > 0 else -o.den  # the denominator stays positive
        return Poly(tuple([c * s for c in self.ints]), self.den * abs(n))

    def __pow__(self, n: int):
        if n < 1:
            return Poly((1,))
        out = self
        for _ in range(n - 1):
            out = out * self
        return out


K = Poly((1, 0))


def _constant(x: Union[Poly, Rational]) -> Exact:
    """A head or leading value as an exact term; a ``Poly`` must be constant."""
    if type(x) is not Poly:
        return _reduced(x)
    if len(x.ints) > 1:
        x = x.normal()
        if len(x.ints) > 1:
            raise ValueError(f"a head or leading value must be a constant, got {x!r}")
    return _exact(x.ints[0], x.den)


@dataclass(frozen=True)
class TermSpec:
    """A fraction as data: ``leading``, explicit ``head`` terms for
    k = 1..len(head), then b_k = b(k) and a_k = a(k) for every later k.
    The constructor normalises each part once: ``leading`` becomes a
    ``Fraction``, each head value an exact term (a ``Poly`` given there must
    be constant), and ``b`` and ``a`` their ``Poly.normal()`` forms.

    ``exact_terms`` is the exact stream.  ``eval_float`` does not read it:
    it takes float terms from ``_spec_chunks``, which equal ``float()`` of
    the exact terms one for one."""

    leading: Fraction
    head: Tuple[PartialTerm, ...]
    b: Poly
    a: Poly

    def __post_init__(self):
        object.__setattr__(self, "leading", as_fraction(_constant(self.leading)))
        object.__setattr__(self, "head", tuple(PartialTerm(_constant(b), _constant(a))
                                               for b, a in self.head))
        object.__setattr__(self, "b", Poly.lift(self.b).normal())
        object.__setattr__(self, "a", Poly.lift(self.a).normal())

    def exact_terms(self) -> Iterator[PartialTerm]:
        """The exact stream, each value an int when it is integral."""
        yield from self.head
        nb, db, na, da = self.b.ints, self.b.den, self.a.ints, self.a.den
        for k in itertools.count(len(self.head) + 1):
            n = m = 0
            for c in nb:
                n = n * k + c
            for c in na:
                m = m * k + c
            yield PartialTerm(n if db == 1 else _exact(n, db), m if da == 1 else _exact(m, da))


# chunk sizes and the float64 exactness bound of _spec_chunks
_LAZY_TERMS = 128
_CHUNK_MAX = 4096
_F64_EXACT = 2 ** 53


class _EndOfFraction(Exception):
    """The term whose index is the argument has a zero partial numerator,
    which ends the fraction before it; ``eval_float`` catches this."""


def _checked_floats(pairs: Iterable[Tuple[Rational, Rational]]):
    """(float(b_k), float(a_k)) for a stream of exact terms numbered from 1,
    one at a time.  A zero numerator raises ``_EndOfFraction`` and a nonzero
    term that rounds to 0.0 raises ``TermUnderflowError``, each at the term's
    index once the consumer reaches it; a zero denominator is 0.0."""
    for k, (b, a) in enumerate(pairs, 1):
        if not b:
            raise _EndOfFraction(k)
        fb, fa = float(b), float(a)
        if fb == 0.0 or (fa == 0.0 and a):
            raise TermUnderflowError(k)
        yield fb, fa


def _lazy_floats(spec: TermSpec, k0: int, k1: int):
    """(b_k, a_k) as N_b(k)/D_b and N_a(k)/D_a for k0 <= k < k1, one term at
    a time; the first k with N_b(k) zero raises ``_EndOfFraction``.  Int true
    division rounds correctly, so each value is float() of the exact term; one
    that overflows raises OverflowError at its own index."""
    nb, db, na, da = spec.b.ints, spec.b.den, spec.a.ints, spec.a.den
    for k in range(k0, k1):
        n = m = 0
        for c in nb:
            n = n * k + c
        for c in na:
            m = m * k + c
        if not n:
            raise _EndOfFraction(k)
        yield n / db, m / da


def _numpy_floats(poly: Poly, k0: int, k1: int) -> Optional[Tuple[list, int]]:
    """(N(k)/D as floats for k0 <= k < k1, the first of these k with
    N(k) = 0 or else k1), or None unless that is exact in float64:
    D <= 2**53 and sum |c_i| (k1-1)**i <= 2**53 keep every Horner
    intermediate an integer float64 holds exactly, and IEEE division rounds
    correctly."""
    ints, den = poly.ints, poly.den
    if den > _F64_EXACT or sum(abs(c) * (k1 - 1) ** i
                               for i, c in enumerate(reversed(ints))) > _F64_EXACT:
        return None
    if len(ints) == 1:
        return [ints[0] / den] * (k1 - k0), (k1 if ints[0] else k0)
    import numpy as np

    ks = np.arange(k0, k1, dtype=np.float64)
    n = ks * ints[0]
    for c in ints[1:-1]:
        n += c
        n *= ks
    n += ints[-1]
    zero = k1 if n.all() else k0 + int(np.flatnonzero(n == 0.0)[0])
    n /= den
    return n.tolist(), zero


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
    rounds correctly.  Otherwise terms come from ``_lazy_floats``.  A numpy
    chunk ends before the first zero numerator, and the next request for a
    chunk raises ``_EndOfFraction`` at its index, as every source does once
    the consumer reaches a zero numerator; a zero denominator is the term
    0.0.  A spec with D >= 2**1074, whose nonzero terms can round to 0.0,
    takes the checked exact stream instead.
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
        b = a = None
        if k - len(spec.head) > _LAZY_TERMS:
            b = _numpy_floats(spec.b, k, end)
            if b is not None:  # a only up to the first zero numerator, which ends the chunk
                a = _numpy_floats(spec.a, k, b[1])
        if a is None:
            yield _lazy_floats(spec, k, end)
        else:
            yield zip(b[0], a[0])
            if b[1] < end:
                raise _EndOfFraction(b[1])
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
        """Iterate partial terms.  A zero partial denominator is a legal
        term; only a zero continuant q_k leaves a convergent undefined."""
        return self.factory()

    def take(self, k: int) -> list[PartialTerm]:
        return list(itertools.islice(self.terms(), min(k, sys.maxsize)))

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


class Convergent:
    """Exact convergent p/q at a given index; q may be zero (undefined value).

    ``p`` and ``q`` are the continuants p_k and q_k as ``Fraction`` values,
    but what is stored is three integers P, Q and S > 0 with p = P/S and
    q = Q/S, as ``convergent_iter`` makes them.  Reading ``p``, ``q`` or
    ``value`` = P/Q reduces one fraction, which costs a gcd, and so does
    ``hash``; ``defined``, ``index`` and ``==`` cost none.  Two convergents
    are equal when their index, p and q are.  The public attributes are
    read-only.
    """

    __slots__ = ("_index", "_P", "_Q", "_S")

    def __init__(self, index: int, p: Rational, q: Rational):
        p, q = as_fraction(p), as_fraction(q)
        self._index, self._S = index, p.denominator * q.denominator
        self._P, self._Q = p.numerator * q.denominator, q.numerator * p.denominator

    @property
    def index(self) -> int:
        return self._index

    @property
    def p(self) -> Fraction:
        return Fraction(self._P, self._S)

    @property
    def q(self) -> Fraction:
        return Fraction(self._Q, self._S)

    @property
    def defined(self) -> bool:
        return self._Q != 0

    @property
    def value(self) -> Fraction:
        if self._Q == 0:
            raise ZeroContinuantError(self._index)
        return Fraction(self._P, self._Q)

    def __eq__(self, other):
        if not isinstance(other, Convergent):
            return NotImplemented
        return (self._index == other._index and self._P * other._S == other._P * self._S
                and self._Q * other._S == other._Q * self._S)

    def __hash__(self):
        return hash((self._index, self.p, self.q))

    def __repr__(self):
        return f"Convergent(index={self._index!r}, p={self.p!r}, q={self.q!r})"


def convergent_iter(cf: ContinuedFraction) -> Iterator[Convergent]:
    """Yield exact convergents for indices 1, 2, 3, ...

    Undefined convergents (q_k = 0) are yielded with q = 0 so callers can skip
    them; the recurrence itself continues unharmed.

    The recurrence runs on integers P, P', Q, Q' over one common scale S, so
    p_k = P/S and p_{k-1} = P'/S.  A term b = bn/bd, a = an/ad multiplies it
    through by z = ad bd: with x = an bd and y = bn ad,

        P, P' = x P + y P', z P    (Q, Q' likewise),    S = z S,

    and a term of two ints is the plain step with z = 1.  No gcd is taken;
    a ``Convergent`` reduces a value only when it is read.
    """
    new = object.__new__
    lead = cf.leading
    P, S = lead.numerator, lead.denominator
    P_prev, Q, Q_prev = S, S, 0
    for k, (b, a) in enumerate(cf.terms(), start=1):
        if type(b) is int and type(a) is int:
            P, P_prev = a * P + b * P_prev, P
            Q, Q_prev = a * Q + b * Q_prev, Q
        else:
            an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
            x, y, z = an * bd, bn * ad, ad * bd
            P, P_prev = x * P + y * P_prev, z * P
            Q, Q_prev = x * Q + y * Q_prev, z * Q
            S *= z
        c = new(Convergent)  # stores P, Q and S as they are: no gcd here
        c._index, c._P, c._Q, c._S = k, P, Q, S
        yield c


def convergent_sequence(cf: ContinuedFraction, k: int) -> list[Convergent]:
    """First ``k`` exact convergents (fewer if the fraction is finite)."""
    if k < 1:
        raise ValueError("k must be positive")
    return list(itertools.islice(convergent_iter(cf), min(k, sys.maxsize)))


def euler_series_expansion(cf: ContinuedFraction, k: int) -> list[Fraction]:
    """Expand into the equivalent alternating series.

    Returns the first ``k`` series terms t_j = v_j - v_{j-1}, read off the
    convergents of ``convergent_iter`` with v_0 = ``cf.leading``; the leading
    term itself is not included.  By the determinant formula
    t_j = (-1)^{j+1} (prod_{i<=j} b_i) / (q_{j-1} q_j), and partial sums of
    ``leading + t_1 + ... + t_j`` equal the convergents exactly.

    Raises ``ZeroContinuantError`` if some q_j vanishes before ``k`` terms are
    produced (the expansion stops at that point; terms already produced are
    attached to the exception).
    """
    if k < 1:
        raise ValueError("k must be positive")
    out: list[Fraction] = []
    v_prev = cf.leading
    for c in itertools.islice(convergent_iter(cf), min(k, sys.maxsize)):
        if not c.defined:
            raise ZeroContinuantError(c.index, out)
        v = c.value
        out.append(v - v_prev)
        v_prev = v
    return out


def even_contraction(cf: ContinuedFraction) -> ContinuedFraction:
    """Fraction whose k-th convergent equals the 2k-th convergent of ``cf``.

    Derived from the convergent recurrence by eliminating the odd-indexed
    continuants:

        x_{2k+2} = (a_{2k+2} a_{2k+1} + a_{2k+2} b_{2k+1}/a_{2k} + b_{2k+2}) x_{2k}
                   - (a_{2k+2} b_{2k+1} b_{2k} / a_{2k}) x_{2k-2}

    The equality is exact (rational identity).  The loop keeps r = b_{2k}/a_{2k}
    and s = 1/a_{2k} of the last even term, as integers over one denominator,
    and builds each contracted term from the integer numerators and
    denominators of the terms with ``_exact``: an int when it is integral,
    else one reduced ``Fraction``.  It seeds r = -1 and s = 0, which
    makes the first term (b_1 a_2, a_1 a_2 + b_2) an instance of the general
    one.  A finite fraction of odd length gets one closing term (-b r, a + b s)
    from its last term (b, a), so the contracted value matches the original
    final convergent; for a one-term fraction that term is (b_1, a_1).

    A contracted term may have a zero denominator, like any term.  The step
    divides by a_{2k} alone, so a zero a_{2k} raises ``ContractionError`` at
    depth k.
    """

    def factory() -> Iterator[PartialTerm]:
        it = cf.terms()
        rn, sn, d = -1, 0, 1  # r = rn/d and s = sn/d
        for depth, (b_odd, a_odd) in enumerate(it, start=1):  # original index 2k+1
            bon, bod = b_odd.numerator, b_odd.denominator
            aon, aod = a_odd.numerator, a_odd.denominator
            # u/w = a_{2k+1} + b_{2k+1} s
            u, w = aon * bod * d + bon * sn * aod, aod * bod * d
            t_even = next(it, None)  # original index 2k+2
            if t_even is None:
                # odd tail: close so the last contracted convergent is v_{2k+1}
                yield PartialTerm(_exact(-bon * rn, bod * d), _exact(u, w))
                return
            b_even, a_even = t_even
            ben, bed = b_even.numerator, b_even.denominator
            aen, aed = a_even.numerator, a_even.denominator
            if not aen:
                raise ContractionError(depth)
            yield PartialTerm(_exact(-aen * bon * rn, aed * bod * d),
                              _exact(aen * u * bed + ben * aed * w, aed * w * bed))
            rn, sn, d = ben * aed, aed * bed, bed * aen

    return ContinuedFraction(cf.leading, factory)


class PositivityClass(str, Enum):
    GUARANTEED_CONVERGENT = "guaranteed-convergent"
    NOT_GUARANTEED = "not-guaranteed"


def positivity_class(cf: ContinuedFraction, k: int) -> PositivityClass:
    """``GUARANTEED_CONVERGENT`` when the first k partial terms are all
    positive, else ``NOT_GUARANTEED``.

    Despite its name, the class describes those k terms alone: it proves
    nothing about the terms after them, so it is no convergence proof.  The
    name stays because callers read it.
    """
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
        prev = 1
        for t, cur in zip(cf.terms(), itertools.chain(factors, itertools.repeat(1))):
            yield term(prev * cur * t.numerator, cur * t.denominator)
            prev = cur

    return ContinuedFraction(cf.leading, factory)


class EvalStatus(str, Enum):
    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget-exhausted"
    DIVERGENT = "divergent-flagged"
    TERMINATED_FINITE = "terminated-finite"


class EvalStop(str, Enum):
    """Why ``eval_float`` stopped: the test that ended it, or the end of the
    terms it read."""

    BRACKET = "bracket"                      # all-positive bracket width <= tol
    DIFFERENCE = "difference"                # two signed differences <= tol
    DIVERGENCE_WINDOW = "divergence-window"  # differences never contracted
    BUDGET = "budget"                        # max_terms terms read
    ZERO_NUMERATOR = "zero-numerator"        # a zero b_k ended the fraction
    STREAM_END = "stream-end"                # a finite term stream ran out


@dataclass(frozen=True)
class EvalReport:
    """Floating-point evaluation outcome; lower/upper form a rigorous bracket
    only when every partial term seen was positive.  ``stop`` says why the
    evaluation stopped (None on a report not made by ``eval_float``) and
    ``renorms`` counts its rescalings of the recurrence state."""

    value: float
    lower: Optional[float]
    upper: Optional[float]
    terms_used: int
    status: EvalStatus
    stop: Optional[EvalStop] = None
    renorms: int = 0


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


def _rescaled(p: float, q: float, p_prev: float, q_prev: float, renorms: int):
    """(p, q, p_prev, q_prev, renorms) scaled by 2^-512 when their largest
    magnitude is above 2^512, or by 2^512 when it is below 2^-512 and not 0,
    with renorms counting the step; unchanged otherwise, NaN included."""
    mag = max(abs(p), abs(q), abs(p_prev), abs(q_prev))
    if mag > _RENORM_LIMIT:
        s = _RENORM_SCALE
    elif 0.0 < mag < _RENORM_SCALE:
        s = _RENORM_LIMIT
    else:
        return p, q, p_prev, q_prev, renorms
    return p * s, q * s, p_prev * s, q_prev * s, renorms + 1


def eval_float(cf: ContinuedFraction, tol: float, max_terms: int) -> EvalReport:
    """Evaluate in floating point with renormalised forward recurrences.

    Two loops run over one stream of float terms, and control passes from
    the first to the second at most once:

    * the positive loop, while every partial term is positive: consecutive
      convergents bracket the limit; stop once the bracket width is <= tol
      (``stop`` ``bracket``) and report lower/upper.
    * the signed loop, from the first term that is not positive to the end:
      stop when |v_k - v_{k-1}| <= tol on two successive defined steps
      (``difference``); no bracket is reported.  If the successive
      differences are non-contracting over a trailing window the evaluation
      is flagged divergent (``divergence-window``).

    Both loops make the same float operations and the same rescaling
    decisions, in ``_rescaled``; the positive loop only tests less, because
    its terms are positive.  A zero partial numerator terminates the
    fraction exactly (``zero-numerator``); running out of terms reports the
    final convergent (``stream-end``), or the bracket or estimate so far
    once ``max_terms`` terms are read (``budget``).  A zero partial
    denominator is a legal term, which is not positive.  The recurrence
    continues through an undefined convergent (q_k = 0); the positive loop
    skips it, and the signed loop counts it as infinite, so the differences
    on both sides of it are neither small nor contracting, and the value
    reported is the last defined convergent.  ``renorms`` counts the
    rescalings of p, q and their predecessors by 2^512 or 2^-512.

    Float terms arrive in chunks: from ``_spec_chunks`` for a fraction with
    a ``TermSpec``, else from the exact stream one term at a time.  Both give
    ``float()`` of every exact term.  A term that overflows or underflows
    raises at its own index once a loop reaches it, and a zero numerator
    raises a private exception that this function catches to report the
    fraction finite.
    """
    check_tolerance(tol)
    if max_terms < 1:
        raise ValueError("max_terms must be positive")
    max_terms = min(max_terms, sys.maxsize)  # no loop gets further; islice refuses more

    lead = float(cf.leading)
    p_prev, q_prev = 1.0, 0.0
    p, q = lead, 1.0
    # the last two defined convergents (v_0 = leading does not count); only
    # v_prev is kept in the signed loop
    v_pp: Optional[float] = None
    v_prev: Optional[float] = None
    big, small = _RENORM_LIMIT, _RENORM_SCALE
    nbig, nsmall, ntol = -big, -small, -tol  # negated once, not on every term
    # the positive loop's bound on q; -1.0, which no q meets, sends term 1 to
    # the full range test when |leading| > 2^512, since leading is p_prev there
    q_cap = big if nbig <= lead <= big else -1.0
    renorms = 0
    positive = True

    if cf.spec is not None:
        source = _spec_chunks(cf.spec, max_terms)
    else:  # an iterator, which the signed loop goes on reading where the positive loop left it
        source = iter((_checked_floats(itertools.islice(cf.factory(), max_terms)),))
    k = 0
    try:
        for chunk in source:
            for b, a in chunk:
                if b <= 0.0 or a <= 0.0:
                    positive = False
                    break
                k += 1
                p, p_prev = a * p + b * p_prev, p
                q, q_prev = a * q + b * q_prev, q
                # the signed loop's range test, less two pairs of comparisons:
                # p_prev and q_prev need none, because the step before left
                # them in [-2^512, 2^512] unless one is not finite (q_cap
                # covers term 1), and a and b are finite and nonzero, so a
                # non-finite p_prev or q_prev makes p or q non-finite, which
                # fails this test.  q >= 0 here, and q = 0 takes the full test
                if not ((small <= p <= big or nbig <= p <= nsmall) and 0.0 < q <= q_cap):
                    q_cap = big
                    p, q, p_prev, q_prev, renorms = _rescaled(p, q, p_prev, q_prev, renorms)
                    if q == 0.0:
                        continue  # undefined convergent, skip
                v = p / q
                # |v - v_prev| <= tol, which is the bracket width
                if v_prev is not None and ntol <= v - v_prev <= tol:
                    return EvalReport(*_estimate(lead, v_prev, v), k, EvalStatus.CONVERGED,
                                      EvalStop.BRACKET, renorms)
                v_pp, v_prev = v_prev, v
            if not positive:
                break
        if not positive:
            # (b, a) is the first term that is not positive; it and the rest
            # of its chunk start the signed loop
            value = _estimate(lead, v_pp, v_prev)[0]
            # signed stopping: small_streak counts differences |v - v_prev| <=
            # tol in a row; d_last is the last difference above tol, and
            # rising counts the differences in a row since the last small one
            # that did not shrink, so rising >= _DIVERGENCE_WINDOW - 1 says the
            # last _DIVERGENCE_WINDOW differences never contracted
            small_streak = 0
            d_last: Optional[float] = None
            rising = 0
            for chunk in itertools.chain((itertools.chain(((b, a),), chunk),), source):
                for b, a in chunk:
                    k += 1
                    p, p_prev = a * p + b * p_prev, p
                    q, q_prev = a * q + b * q_prev, q
                    # with |p| in [small, big] and the rest within big, max(...)
                    # below takes neither branch; testing that first skips five
                    # calls (NaN fails every comparison here and gets the full test)
                    if not ((small <= p <= big or nbig <= p <= nsmall) and nbig <= q <= big
                            and nbig <= p_prev <= big and nbig <= q_prev <= big):
                        p, q, p_prev, q_prev, renorms = _rescaled(p, q, p_prev, q_prev, renorms)
                    if q == 0.0:
                        # an undefined convergent is infinite (Jones & Thron
                        # 1980, ch. 2), and so are the differences on both
                        # sides of it; value keeps the last defined one
                        v = math.inf
                    else:
                        v = p / q
                        value = v
                    if v_prev is not None:
                        d = abs(v - v_prev)
                        if d <= tol:
                            small_streak += 1
                            d_last, rising = None, 0
                            if small_streak >= 2:
                                return EvalReport(v, None, None, k, EvalStatus.CONVERGED,
                                                  EvalStop.DIFFERENCE, renorms)
                        else:
                            small_streak = 0
                            if d_last is not None and d >= d_last * (1.0 - 1e-12):
                                rising += 1
                            else:
                                rising = 0
                            d_last = d
                            if rising >= _DIVERGENCE_WINDOW - 1 and k >= 2 * _DIVERGENCE_WINDOW:
                                return EvalReport(value, None, None, k, EvalStatus.DIVERGENT,
                                                  EvalStop.DIVERGENCE_WINDOW, renorms)
                    v_prev = v
    except _EndOfFraction:  # term k + 1 has a zero numerator
        k += 1
        stop = EvalStop.ZERO_NUMERATOR
    else:
        stop = EvalStop.BUDGET if k == max_terms else EvalStop.STREAM_END
    if stop is EvalStop.BUDGET:
        if positive:
            return EvalReport(*_estimate(lead, v_pp, v_prev), k, EvalStatus.BUDGET_EXHAUSTED,
                              stop, renorms)
        return EvalReport(value, None, None, k, EvalStatus.BUDGET_EXHAUSTED, stop, renorms)
    if positive:  # a finite fraction is its last convergent
        value = lead if v_prev is None else v_prev
    return EvalReport(value, None, None, k, EvalStatus.TERMINATED_FINITE, stop, renorms)
