"""Alternating series and their continued-fraction transforms.

``series_to_cf`` converts an alternating series

    n_0/d_0 - n_1/d_1 + n_2/d_2 - ...

into the continued fraction

    n_0 / (d_0 + n_1 d_0^2 / (n_0 d_1 - n_1 d_0 + n_0 n_2 d_1^2 / (n_1 d_2 - n_2 d_1 + ...)))

whose k-th convergent equals the k-th partial sum exactly.  The classical
examples: numerators all 1 with denominators 1,2,3,4,... gives the fraction
for log 2; denominators 1,3,5,7,... gives Brouncker's fraction for pi/4.

A ``SeriesSpec`` is one stream of exact pairs (n_j, d_j).  The transform reads
it once, in order: term k of the fraction needs pairs 0..k-1 only.  It works
on the integer numerators and denominators of n_j and d_j and makes each
partial term an int when it is integral, else one reduced ``Fraction``.  A
pivot n_{j-1} d_j - n_j d_{j-1} is a partial denominator and may be zero;
every continuant q_k is a product of series numerators and denominators (see
``series_to_cf``), so the transform stops only at the first zero n_j or d_j,
with ``ZeroPivotError``; the terms made before it stand as a partial result.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Tuple

from .core import ContinuedFraction, ContinuedFractionError, PartialTerm, Rational, _exact, as_fraction, term


class ZeroPivotError(ContinuedFractionError):
    """Term ``depth`` of the transform needs the series term n_j/d_j with
    j = depth - 1, and n_j or d_j is zero.  (A zero pivot
    n_{j-1} d_j - n_j d_{j-1} is only a zero partial denominator, which is a
    legal term; the name stays for compatibility.)"""

    def __init__(self, depth: int):
        self.depth = depth
        super().__init__(f"zero series term at depth {depth}; "
                         "conversion stops with a partial result")


@dataclass(frozen=True)
class SeriesSpec:
    """Alternating series: term j is (-1)^j * n_j / d_j.

    ``pairs`` is a factory returning a fresh iterator of the exact pairs
    (n_j, d_j), finite or unbounded.
    """

    pairs: Callable[[], Iterator[Tuple[Fraction, Fraction]]]

    @staticmethod
    def from_lists(nums: Sequence[Rational], dens: Sequence[Rational]) -> "SeriesSpec":
        if len(nums) != len(dens):
            raise ValueError("numerators and denominators must have equal length")
        if len(nums) == 0:
            raise ValueError("series must not be empty")
        nf = tuple(as_fraction(x) for x in nums)
        df = tuple(as_fraction(x) for x in dens)
        if not all(d.numerator for d in df):
            raise ValueError("series denominators must be nonzero")
        pairs = tuple(zip(nf, df))
        return SeriesSpec(lambda: iter(pairs))

    @staticmethod
    def from_rules(num_rule: Callable[[int], Rational],
                   den_rule: Callable[[int], Rational]) -> "SeriesSpec":
        """Unbounded series from 0-based term rules."""

        def pairs() -> Iterator[Tuple[Fraction, Fraction]]:
            for j in itertools.count():
                yield as_fraction(num_rule(j)), as_fraction(den_rule(j))

        return SeriesSpec(pairs)

    def terms(self, k: int) -> list[Fraction]:
        """First k signed terms."""
        return [n / d if j % 2 == 0 else -n / d
                for j, (n, d) in enumerate(itertools.islice(self.pairs(), min(k, sys.maxsize)))]

    def partial_sums(self, k: int) -> list[Fraction]:
        sums, acc = [], Fraction(0)
        for t in self.terms(k):
            acc += t
            sums.append(acc)
        return sums


def series_to_cf(series: SeriesSpec) -> ContinuedFraction:
    """Continued fraction whose convergents are the partial sums, exactly.

    Term 1 is (n_0, d_0), and term k >= 2 is

        b_k = n_{k-3} n_{k-1} d_{k-2}^2,    a_k = n_{k-2} d_{k-1} - n_{k-1} d_{k-2}

    with n_{-1} = 1.  The pivot a_k may be zero, like any partial
    denominator, because every continuant is

        q_k = (d_0 ... d_{k-1}) (n_0 ... n_{k-2})        (empty products are 1).

    Proof by induction: q_0 = 1 and q_1 = a_1 = d_0.  For k >= 2, with
    q_{k-1} and q_{k-2} of this form, b_k q_{k-2} = n_{k-1} d_{k-2} times
    D = (d_0 ... d_{k-2})(n_0 ... n_{k-3}) and a_k q_{k-1} = a_k D, so
    q_k = D (a_k + n_{k-1} d_{k-2}) = D n_{k-2} d_{k-1}.  Hence q_k != 0
    while no series term before it is zero.  With
    b_1 ... b_k = (n_0 ... n_{k-3})(n_0 ... n_{k-1})(d_0 ... d_{k-2})^2 the
    determinant formula gives p_k/q_k - p_{k-1}/q_{k-1} =
    (-1)^{k-1} n_{k-1}/d_{k-1}, the series term, and p_1/q_1 = n_0/d_0: every
    convergent is its partial sum.

    Requires at least two series terms.  A zero series term (n_j = 0 or
    d_j = 0) stops the conversion at depth j + 1 (``ZeroPivotError``);
    terms already generated stand as a partial result.  Each term is built
    from the integer numerators and denominators of n_j and d_j with
    ``_exact``: an int when it is integral, else one reduced ``Fraction``.
    """
    if len(list(itertools.islice(series.pairs(), 2))) < 2:
        raise ValueError("series_to_cf needs at least two series terms")

    def factory():
        it = series.pairs()
        n, d = next(it)
        # n_{k-3}, n_{k-2}, d_{k-2} as numerator and denominator;
        # n_{-1} = 1 makes term 2 an instance of the general term
        n3n, n3d = 1, 1
        n2n, n2d, d2n, d2d = n.numerator, n.denominator, d.numerator, d.denominator
        if not (n2n and d2n):
            raise ZeroPivotError(1)
        yield term(n, d)
        for depth, (n, d) in enumerate(it, 2):
            n1n, n1d, d1n, d1d = n.numerator, n.denominator, d.numerator, d.denominator
            if not (n1n and d1n):
                raise ZeroPivotError(depth)
            yield PartialTerm(_exact(n3n * n1n * d2n * d2n, n3d * n1d * d2d * d2d),
                              _exact(n2n * d1n * n1d * d2d - n1n * d2n * n2d * d1d,
                                     n2d * d1d * n1d * d2d))
            n3n, n3d = n2n, n2d
            n2n, n2d, d2n, d2d = n1n, n1d, d1n, d1d

    return ContinuedFraction(Fraction(0), factory)


@dataclass(frozen=True)
class GaussLemmaParams:
    """Parameters of the hypergeometric summation lemma: requires q > p > 0, s > 0."""

    p: float
    q: float
    s: float

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError("p must be positive")
        if not self.q > self.p:
            raise ValueError("lemma requires q > p")
        if not self.s > 0:
            raise ValueError("s must be positive")


def gauss_sum_check(params: GaussLemmaParams, n_terms: int) -> tuple[float, float]:
    """Partial sum of 1 + p/(q+s) + p(p+s)/((q+s)(q+2s)) + ... vs q/(q-p).

    Returns (partial sum over ``n_terms`` terms, closed form).  The tail decays
    like n^{-(q-p)/s}, so the gap shrinks only algebraically.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    p, q, s = params.p, params.q, params.s
    total = 0.0
    t = 1.0
    for k in range(n_terms):
        total += t
        t *= (p + k * s) / (q + (k + 1) * s)
    return total, q / (q - p)
