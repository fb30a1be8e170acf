"""Alternating series and their continued-fraction transforms.

``series_to_cf`` converts an alternating series

    n_0/d_0 - n_1/d_1 + n_2/d_2 - ...

into the continued fraction

    n_0 / (d_0 + n_1 d_0^2 / (n_0 d_1 - n_1 d_0 + n_0 n_2 d_1^2 / (n_1 d_2 - n_2 d_1 + ...)))

whose k-th convergent equals the k-th partial sum exactly.  The classical
examples: numerators all 1 with denominators 1,2,3,4,... gives the fraction
for log 2; denominators 1,3,5,7,... gives Brouncker's fraction for pi/4.

A ``SeriesSpec`` is one stream of exact pairs (n_j, d_j).  The transform reads
it once, in order: term k of the fraction needs pairs 0..k-1 only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Tuple

from .core import ContinuedFraction, ContinuedFractionError, Rational, as_fraction, term


class ZeroPivotError(ContinuedFractionError):
    """The transform divides by n_{k-1} d_k - n_k d_{k-1}; it vanished."""

    def __init__(self, depth: int):
        self.depth = depth
        super().__init__(f"zero pivot at depth {depth}; conversion stops with a partial result")


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
        if any(d == 0 for d in df):
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
                for j, (n, d) in enumerate(itertools.islice(self.pairs(), k))]

    def partial_sums(self, k: int) -> list[Fraction]:
        sums, acc = [], Fraction(0)
        for t in self.terms(k):
            acc += t
            sums.append(acc)
        return sums


def series_to_cf(series: SeriesSpec) -> ContinuedFraction:
    """Continued fraction whose convergents are the partial sums, exactly.

    Requires at least two series terms.  A zero pivot aborts the conversion
    at that depth (``ZeroPivotError``); terms already generated stand as a
    partial result.
    """
    if len(list(itertools.islice(series.pairs(), 2))) < 2:
        raise ValueError("series_to_cf needs at least two series terms")

    def factory():
        it = series.pairs()
        n_prev1, d_prev1 = next(it)
        yield term(n_prev1, d_prev1)
        # n_{-1} = 1 makes term 2 an instance of the general term
        n_prev2 = 1
        for depth, (nk, dk) in enumerate(it, 2):
            pivot = n_prev1 * dk - nk * d_prev1
            if pivot == 0:
                raise ZeroPivotError(depth)
            yield term(n_prev2 * nk * d_prev1 * d_prev1, pivot)
            n_prev2, n_prev1, d_prev1 = n_prev1, nk, dk

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
