"""Shared helpers: seeded random fraction/series generators used across tests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from contfrac.core import ContinuedFraction


def rand_fraction(rng: random.Random, lo: int = 1, hi: int = 9,
                  den_hi: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den_hi))


def random_positive_cf(rng: random.Random, depth: int) -> ContinuedFraction:
    """All-positive rational fraction of fixed depth (safe: no zero continuants)."""
    pairs = [(rand_fraction(rng), rand_fraction(rng)) for _ in range(depth)]
    return ContinuedFraction.from_pairs(rand_fraction(rng), pairs)


def random_series_prefix(rng: random.Random, length: int):
    """Series prefix of nonzero terms; a zero transform pivot
    n_{k-1} d_k - n_k d_{k-1} is a legal partial denominator and may occur."""
    nums = [rand_fraction(rng) for _ in range(length)]
    dens = [rand_fraction(rng) for _ in range(length)]
    return nums, dens


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
