"""Term specs: exact streams, the float kernel's two term sources, zero terms."""

import itertools
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
    ContinuedFractionError,
    EvalReport,
    EvalStatus,
    Poly,
    TermSpec,
    TermUnderflowError,
    ZeroDenominatorError,
    _EndOfFraction,
    _checked_floats,
    _spec_chunks,
    eval_float,
)
from test_catalog import _family_samplers

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_terms.json").read_text())
# EvalReports recorded with the per-term float source, before float terms
# were made a chunk at a time: the 41 suite fractions at their tolerance and
# at budgets on both sides of chunk edges, signed and divergent points, zero
# numerators and denominators, underflow, overflow and large coefficients
GOLDEN_EVAL = json.loads((DATA / "golden_eval.json").read_text())["cases"]


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

def golden_poly(ints_den):
    ints, den = ints_den
    return Poly(tuple(int(c) for c in ints), int(den))


def golden_cf(entry):
    if "family" in entry:
        return catalog.make_cf(entry["family"], {k: F(v) for k, v in entry["params"].items()})
    s = entry["spec"]
    return ContinuedFraction.from_spec(TermSpec(
        F(s["leading"]), tuple((F(b), F(a)) for b, a in s["head"]),
        golden_poly(s["b"]), golden_poly(s["a"])))


def report_repr(cf, tol, n):
    try:
        rep = eval_float(cf, tol, n)
    except (ContinuedFractionError, ArithmeticError) as exc:
        return [type(exc).__name__, getattr(exc, "index", None)]
    return [repr(rep.value), repr(rep.lower), repr(rep.upper), rep.terms_used, rep.status.value]


@pytest.mark.parametrize("entry", GOLDEN_EVAL,
                         ids=lambda e: e.get("family", "spec") + f"-{e['tol']}")
def test_eval_reports_match_golden_file(entry):
    cf, tol = golden_cf(entry), float(entry["tol"])
    assert [report_repr(cf, tol, n) for n in entry["max_terms"]] == entry["reports"]
    for n, want in zip(entry["max_terms"], entry["reports"]):
        if want[-1] == "converged" and want[-2] > 5000:
            continue  # the exact stream is slow that far out
        assert report_repr(generic(cf), tol, n) == want


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


# ------------------------------------------------------------ the chunked float source

def flat(chunks):
    """Float pairs of a chunk stream, then how it ended: a zero numerator or
    an error with its index."""
    out = []
    try:
        for chunk in chunks:
            out.extend(chunk)
    except _EndOfFraction:
        out.append("zero numerator")
    except (ContinuedFractionError, ArithmeticError) as exc:
        out.append((type(exc).__name__, getattr(exc, "index", None)))
    return out


EDGES = [1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257]
coefficients = st.one_of(
    st.integers(-30, 30),
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([2 ** 53, 2 ** 53 + 1, -(2 ** 53), 2 ** 37, 2 ** 37 + 1, 2 ** 25, 10 ** 300]),
)
denominators = st.one_of(st.integers(1, 12), st.sampled_from([2 ** 53, 2 ** 53 + 1, 3 ** 40, 2 ** 1080]))


@st.composite
def polys(draw):
    p = Poly(tuple(draw(st.lists(coefficients, min_size=1, max_size=4))), draw(denominators))
    for root in draw(st.lists(st.sampled_from(EDGES), max_size=2)):  # zeros at chunk edges
        p = p * (K - root)
    return p


@st.composite
def specs(draw):
    head = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=3))
    return TermSpec(draw(st.integers(-2, 2)), tuple(head), draw(polys()), draw(polys()))


@settings(max_examples=300, deadline=None)
@given(specs(), st.integers(1, 600))
def test_chunked_floats_equal_the_exact_stream_term_for_term(spec, n):
    want = flat([_checked_floats(itertools.islice(spec.exact_terms(), n))])
    got = flat(_spec_chunks(spec, n))
    assert got == want
    assert [repr(x) for x in got] == [repr(x) for x in want]  # signs of zero too


@pytest.mark.parametrize("head, root, index", [
    (((0, 0),), 0, 1),     # head term
    ((), 3, 3),            # polynomial term made one at a time
    ((), 200, 200),        # polynomial term inside a numpy chunk
])
def test_a_term_with_both_parts_zero_raises_zero_denominator(head, root, index):
    spec = TermSpec(0, head, (K - root) ** 2, (K - root) ** 2)
    want = ("ZeroDenominatorError", index)
    assert flat(_spec_chunks(spec, 300))[-1] == want
    assert flat([_checked_floats(itertools.islice(spec.exact_terms(), 300))])[-1] == want


@pytest.mark.parametrize("j", [17, 129, 200, 500, 512, 1000])
def test_a_zero_denominator_raises_only_when_the_loop_reaches_it(j):
    # a_j = 0 in a slowly converging fraction: by the tolerance the
    # evaluation stops before j or reaches it.  For j = 500 and 512 it can
    # stop at k = 267-294, inside the chunk of indices 257-512 that was made
    # at once and holds j.  The generic source converts one term at a time.
    cf = ContinuedFraction.from_spec(TermSpec(0, (), (2 * K - 1) ** 2,
                                              (K - j) * (K - j) * F(2, j * j)))
    outcomes = [outcome(cf, tol, 5000) for tol in (1e-2, 9e-3, 8e-3, 7.5e-3, 7e-3, 3e-3)]
    assert outcomes == [outcome(generic(cf), tol, 5000)
                        for tol in (1e-2, 9e-3, 8e-3, 7.5e-3, 7e-3, 3e-3)]
    if j in (500, 512):
        assert ("zero denominator", j) in outcomes
        assert any(isinstance(o, EvalReport) and 256 < o.terms_used < j for o in outcomes)
