"""Term specs: exact streams, the float kernel's two term sources, zero terms."""

import json
import pathlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contfrac import catalog
from contfrac.core import (
    K,
    ContinuedFraction,
    EvalStatus,
    Poly,
    TermSpec,
    TermUnderflowError,
    ZeroDenominatorError,
    eval_float,
)
from test_catalog import _family_samplers

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "golden_terms.json").read_text())


def generic(cf):
    """The same fraction without its spec: eval_float reads the exact stream."""
    return ContinuedFraction(cf.leading, cf.factory)


def outcome(cf, tol, n):
    try:
        return eval_float(cf, tol, n)
    except ZeroDenominatorError as exc:
        return ("zero denominator", exc.index)


def exact(pairs):
    return [(F(b), F(a)) for b, a in pairs]


# ------------------------------------------------------------ Poly

def test_poly_arithmetic_and_normal_form():
    assert (K - 1) ** 2 == Poly((1, -2, 1))
    assert (F(3, 2) + (K - 1)) * (F(5, 2) + (K - 1)) == Poly((4, 8, 3), 4)
    assert 2 * K - 2 * K == Poly((0,))
    assert (K * F(2, 4)).den == 2 and (K - 3) * -1 == 3 - K


# ------------------------------------------------------------ golden terms

def test_golden_file_covers_every_family():
    assert {e["family"] for e in GOLDEN["families"]} == set(catalog.family_ids())


@pytest.mark.parametrize("entry", GOLDEN["families"],
                         ids=lambda e: f"{e['family']}{e['params']}")
def test_family_spec_streams_reproduce_golden_terms(entry):
    params = {k: F(v) for k, v in entry["params"].items()}
    cf = catalog.make_cf(entry["family"], params)
    assert cf.spec is not None
    assert cf.leading == F(entry["leading"])
    assert exact(cf.take(12)) == exact(entry["terms"])
    if all(v.denominator == 1 for v in params.values()):
        assert all(type(x) is int for t in cf.take(12) for x in t)


@pytest.mark.parametrize("entry", GOLDEN["chain"],
                         ids=lambda e: f"{e['point']}-{e['shift']}{e['kappa_sign']:+d}")
def test_chain_spec_streams_reproduce_golden_terms(entry):
    cf = catalog._chain_cf(*(F(x) for x in entry["point"]), entry["shift"], entry["kappa_sign"])
    assert cf.leading == F(entry["leading"])
    assert exact(cf.take(12)) == exact(entry["terms"])


# ------------------------------------------------------------ bit-identical evaluation

@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_family_samplers())), st.randoms(use_true_random=False),
       st.sampled_from([1e-3, 1e-6, 1e-9, 1e-13]), st.integers(1, 1500))
def test_spec_and_generic_sources_give_equal_reports(family, rng, tol, n):
    cf = catalog.make_cf(family, _family_samplers()[family](rng))
    assert outcome(cf, tol, n) == outcome(generic(cf), tol, n)


@pytest.mark.parametrize("fid", [f for f in catalog.family_ids()
                                 if not catalog.get_family(f).param_names])
def test_fixed_cases_give_equal_reports(fid):
    cf = catalog.make_cf(fid, {})
    for tol, n in ((1e-4, 3000), (1e-12, 200), (1e-6, 1)):
        assert eval_float(cf, tol, n) == eval_float(generic(cf), tol, n)


# ------------------------------------------------------------ zero terms

F8_BASE = {"c": F(2), "r": F(1)}


@pytest.mark.parametrize("params, index", [
    ({"a": F(3, 2), "b": F(9, 4), "p": F(3, 2), "q": F(1)}, 1),   # head term, j = 0
    ({"a": F(1), "b": F(4), "p": F(2), "q": F(1), "c": F(7, 2)}, 3),  # polynomial part, j = 2
])
def test_zero_denominator_index_matches_generic_path(params, index):
    cf = catalog.make_cf("F8", {**F8_BASE, **params})
    for source in (cf, generic(cf)):
        with pytest.raises(ZeroDenominatorError) as exc_info:
            eval_float(source, 1e-9, 100)
        assert exc_info.value.index == index


@pytest.mark.parametrize("family, params, k", [
    ("F4-25", {"p": 1, "q": 2, "r": 2}, 1),            # head numerator 2p(q - r)
    ("F7", {"q": 2, "r": 1, "s": F(3, 2)}, 2),          # b(k) = ((k-1)r + q)(kr - q)
])
def test_zero_numerator_terminates_at_same_k(family, params, k):
    cf = catalog.make_cf(family, params)
    rep = eval_float(cf, 1e-9, 100)
    assert rep.status is EvalStatus.TERMINATED_FINITE and rep.terms_used == k
    assert rep == eval_float(generic(cf), 1e-9, 100)


# ------------------------------------------------------------ terms that round to 0.0

TINY = F(1, 2 ** 1100)   # nonzero, but below half the smallest subnormal float


@pytest.mark.parametrize("head, b, a, index", [
    (((TINY, 1),), 1, 1, 1),                        # head numerator
    (((1, 1),), 1, (K - 4) ** 2 + TINY, 4),         # polynomial denominator
    (((1, 1),), (K - 3) ** 2 + TINY, 1, 3),         # polynomial numerator
], ids=["head-numerator", "poly-denominator", "poly-numerator"])
def test_underflowing_term_raises_same_index_on_both_sources(head, b, a, index):
    cf = ContinuedFraction.from_spec(TermSpec(0, head, b, a))
    for source in (cf, generic(cf)):
        with pytest.raises(TermUnderflowError) as exc_info:
            eval_float(source, 1e-9, 100)
        assert exc_info.value.index == index
        assert f"index {index}" in str(exc_info.value)
