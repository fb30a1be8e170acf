"""Term specs: exact streams, the float kernel's two term sources, zero terms."""

import itertools
import json
import math
import pathlib
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contfrac import catalog
from contfrac.core import (
    K,
    ContinuedFraction,
    ContinuedFractionError,
    EvalStatus,
    Poly,
    TermSpec,
    TermUnderflowError,
    _EndOfFraction,
    _checked_floats,
    _spec_chunks,
    convergent_sequence,
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
# TermSpecs as catalog.make_cf built them when every Poly operation reduced
# its result: 25 seeded draws of each sampled family, the fixed cases and
# chain letters, each part as a repr or decimal string
GOLDEN_SPECS = json.loads((DATA / "golden_specs.json").read_text())


def generic(cf):
    """The same fraction without its spec: eval_float reads the exact stream."""
    return ContinuedFraction(cf.leading, cf.factory)


def exact(pairs):
    return [(F(b), F(a)) for b, a in pairs]


# ------------------------------------------------------------ Poly

def test_poly_arithmetic_and_normal_form():
    assert (K - 1) ** 2 == Poly((1, -2, 1))
    assert (K - 1) ** 0 == Poly((1,))
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


def spec_record(spec):
    return {"leading": repr(spec.leading),
            "head": [[repr(b), repr(a)] for b, a in spec.head],
            "b": [[str(c) for c in spec.b.ints], str(spec.b.den)],
            "a": [[str(c) for c in spec.a.ints], str(spec.a.den)]}


@pytest.mark.parametrize("family", catalog.family_ids())
def test_family_specs_match_golden_builds(family):
    entries = [e for e in GOLDEN_SPECS["families"] if e["family"] == family]
    assert entries
    for e in entries:
        spec = catalog.make_cf(family, {k: F(v) for k, v in e["params"].items()}).spec
        assert spec_record(spec) == e["spec"], e["params"]


def test_chain_specs_match_golden_builds():
    for e in GOLDEN_SPECS["chain"]:
        cf = catalog._chain_cf(*(F(x) for x in e["point"]), e["shift"], e["kappa_sign"])
        assert spec_record(cf.spec) == e["spec"], e


def test_poly_arithmetic_defers_normalisation_to_the_spec():
    p = (F(1, 2) * K + F(1, 2)) * 2 - K * 0
    assert (p.ints, p.den) == ((2, 2), 2) and p == K + 1 and p != K + 2
    assert hash(p) == hash(K + 1)
    spec = TermSpec(p - K, [(Poly((0, 3), 6), 2 * K - 2 * K + F(4, 6))], p, 2 * K - 2 * K)
    assert (spec.leading, spec.head) == (F(1), ((F(1, 2), F(2, 3)),))
    assert (spec.b.ints, spec.b.den, spec.a.ints, spec.a.den) == ((1, 1), 1, (0,), 1)
    assert type(spec.head[0][0]) is F and type(spec.leading) is F
    with pytest.raises(ValueError, match="constant"):
        TermSpec(K, [], 1, 1)


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


def test_golden_reports_past_a_zero_denominator_match_exact_convergents():
    # an unbracketed report is the last defined convergent at or before
    # terms_used; these reports were recorded when a zero partial
    # denominator still raised
    checked = 0
    for entry in GOLDEN_EVAL:
        cf = golden_cf(entry)
        reports = [r for r in entry["reports"] if len(r) == 5 and r[1] == "None"]
        n = max((r[3] for r in reports), default=0)
        zero = next((k for k, t in enumerate(cf.take(n), 1) if t.denominator == 0), None)
        if zero is None:
            continue
        convergents = convergent_sequence(cf, n)
        for value, _, _, used, _ in reports:
            if used < zero:
                continue
            last = next((c.value for c in reversed(convergents[:used]) if c.defined),
                        cf.leading)
            assert math.isclose(float(value), float(last), rel_tol=1e-12), (entry, used)
            checked += 1
    assert checked == 46


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_family_samplers())), st.randoms(use_true_random=False),
       st.sampled_from([1e-3, 1e-6, 1e-9, 1e-13]), st.integers(1, 1500))
def test_spec_and_generic_sources_give_equal_reports(family, rng, tol, n):
    cf = catalog.make_cf(family, _family_samplers()[family](rng))
    assert eval_float(cf, tol, n) == eval_float(generic(cf), tol, n)


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
    # a zero denominator is a legal term: both sources pass it
    cf = catalog.make_cf("F8", {**F8_BASE, **params})
    assert cf.take(index)[-1].denominator == 0
    rep = eval_float(cf, 1e-9, 100)
    assert rep.terms_used > index and rep == eval_float(generic(cf), 1e-9, 100)


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
def test_a_term_with_both_parts_zero_ends_the_fraction(head, root, index):
    spec = TermSpec(0, head, (K - root) ** 2, (K - root) ** 2)
    chunked = flat(_spec_chunks(spec, 300))
    assert chunked == flat([_checked_floats(itertools.islice(spec.exact_terms(), 300))])
    assert chunked[-1] == "zero numerator" and len(chunked) == index


def test_only_a_zero_numerator_cuts_a_numpy_chunk():
    # a_4200 = 0 lies inside the chunk of indices 4097-8192, which stays one
    # numpy chunk; b_3000 = 0 ends the chunk of indices 2049-4096 before it,
    # and the next request for a chunk raises at index 3000
    chunks = list(_spec_chunks(TermSpec(0, (), K * K, K - 4200), 8192))
    assert [type(c).__name__ for c in chunks] == ["generator"] + ["zip"] * 6
    assert [len(list(c)) for c in chunks] == [128, 128, 256, 512, 1024, 2048, 4096]
    chunks = _spec_chunks(TermSpec(0, (), (K - 3000) * K, K - 2500), 8192)
    assert [len(list(c)) for c in itertools.islice(chunks, 6)] == [128, 128, 256, 512, 1024, 951]
    with pytest.raises(_EndOfFraction) as info:
        next(chunks)
    assert info.value.args == (3000,)


@pytest.mark.parametrize("j", [17, 129, 200, 500, 512, 1000])
def test_a_zero_denominator_inside_a_chunk_gives_equal_reports(j):
    # a_j = 0 in a slowly converging fraction: by the tolerance the
    # evaluation stops before j or passes it.  For j = 500 and 512 it can
    # stop at k = 267-294, inside the chunk of indices 257-512 whose numpy
    # part ends before a_j.  The generic source converts one term at a time.
    cf = ContinuedFraction.from_spec(TermSpec(0, (), (2 * K - 1) ** 2,
                                              (K - j) * (K - j) * F(2, j * j)))
    tols = (1e-2, 9e-3, 8e-3, 7.5e-3, 7e-3, 3e-3)
    reports = [eval_float(cf, tol, 5000) for tol in tols]
    assert reports == [eval_float(generic(cf), tol, 5000) for tol in tols]
    if j in (500, 512):
        assert any(256 < r.terms_used < j for r in reports)
        assert any(r.terms_used > j for r in reports)


@st.composite
def integer_fractions_with_a_zero_denominator(draw):
    """(leading, pairs, budget) with at least one zero a_k."""
    pairs = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                          min_size=1, max_size=12))
    i = draw(st.integers(0, len(pairs) - 1))
    pairs[i] = (pairs[i][0], 0)
    return draw(st.integers(-3, 3)), pairs, draw(st.integers(1, len(pairs)))


@settings(max_examples=400, deadline=None)
@given(integer_fractions_with_a_zero_denominator(), st.sampled_from([1e-1, 1e-3, 1e-300]))
@example((0, [(1, 1), (1, 1), (0, 0)], 3), 1e-300)    # a zero term ends a positive fraction
@example((0, [(1, 1), (1, 1), (-2, 1)], 3), 1e-300)   # q_3 = 0 where positivity is lost
def test_zero_denominators_evaluate_through_the_continuants(fraction, tol):
    # continuants of at most 12 terms |x| <= 3 are integers below 2**53, so
    # every float convergent is float() of the exact one
    leading, pairs, n = fraction
    cf = ContinuedFraction.from_pairs(leading, pairs)
    rep = eval_float(cf, tol, n)
    spec = TermSpec(leading, tuple(pairs), 1, 1)
    assert eval_float(ContinuedFraction.from_spec(spec), tol, n) == rep
    defined = [(c.index, float(c.value))
               for c in convergent_sequence(cf, rep.terms_used) if c.defined]
    if rep.lower is not None:
        assert [rep.lower, rep.upper] == sorted(v for _, v in defined[-2:])
        return
    # unbracketed: the last defined convergent from the first term that is
    # not positive on, else the estimate made before that term; a zero
    # numerator ends the fraction and is not a term
    first = next((k for k, (b, a) in enumerate(pairs[:rep.terms_used], 1)
                  if b and (b < 0 or a <= 0)), 1)
    after = [v for k, v in defined if k >= first]
    before = [float(leading)] + [v for k, v in defined if k < first]
    want = after[-1] if after else 0.5 * sum(before[-2:]) if len(before) > 2 else before[-1]
    assert rep.value == want
