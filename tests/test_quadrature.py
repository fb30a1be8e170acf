import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contfrac import quadrature
from contfrac.quadrature import (
    PowerBinomialIntegrand,
    QuadratureError,
    QuadratureResult,
    beta,
    contiguous_relation_check,
    _halfline_nodes,
    _power_binomial_rows,
    _joined_nodes,
    _level_nodes,
    _unit_nodes,
    de_integral,
    de_rows,
    exponential_beta_integrals,
    gaussian_tail_integrals,
    power_binomial_integrals,
    reciprocal_kernel_integral,
    sqrt_kernel_integral,
)


# ------------------------------------------------------------ beta

def test_beta_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, abs=1e-13)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
    assert beta(2.0, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-13)
    with pytest.raises(ValueError):
        beta(0.0, 1.0)


def test_beta_symmetry(rng):
    for _ in range(25):
        a = rng.uniform(0.2, 8.0)
        b = rng.uniform(0.2, 8.0)
        assert abs(beta(a, b) - beta(b, a)) <= 1e-12 * beta(a, b)


def test_beta_arcsine_integral_cross_check():
    # B(1/2, 1/2) equals the arcsine integral of 1/sqrt(y(1-y))
    res = de_integral(lambda x, cx: 1.0 / np.sqrt(x * cx), "unit", 1e-12)
    assert res.converged
    assert res.value == pytest.approx(beta(0.5, 0.5), rel=1e-12)


# ------------------------------------------------------------ sqrt kernel

def test_sqrt_kernel_closed_values():
    assert sqrt_kernel_integral(1, 1) == pytest.approx(math.pi / 2, rel=1e-13)
    assert sqrt_kernel_integral(2, 1) == pytest.approx(1.0, rel=1e-13)
    assert sqrt_kernel_integral(3, 2) == pytest.approx(beta(0.75, 0.5) / 4.0, rel=1e-13)


def test_sqrt_kernel_against_quadrature():
    # the kernel has 1 - y^(2r), so the binomial integrand runs at 2r
    val = de_integral(PowerBinomialIntegrand(alpha=3, r=4, beta=-0.5), "unit", 1e-12).value
    assert abs(val - sqrt_kernel_integral(3, 2)) < 1e-10


def test_sqrt_kernel_random_draws_match_quadrature(rng):
    for _ in range(20):
        pp = rng.uniform(0.4, 5.0)
        r = rng.uniform(0.4, 3.0)
        de = PowerBinomialIntegrand(alpha=pp, r=2.0 * r, beta=-0.5).integral()
        assert abs(de - sqrt_kernel_integral(pp, r)) < 1e-9


# ------------------------------------------------------------ de_integral

def test_de_unit_smooth_integrands():
    assert de_integral(lambda x, cx: 1.0 / (1.0 + x), "unit", 1e-12).value == \
        pytest.approx(math.log(2.0), abs=1e-12)
    assert de_integral(lambda x, cx: 1.0 / (1.0 + x * x), "unit", 1e-12).value == \
        pytest.approx(math.pi / 4.0, abs=1e-12)


def test_de_unit_endpoint_singularity():
    res = de_integral(lambda x, cx: 1.0 / np.sqrt(cx * (1.0 + x)), "unit", 1e-12)
    assert res.converged
    assert res.value == pytest.approx(math.pi / 2.0, abs=1e-11)
    assert res.value == pytest.approx(sqrt_kernel_integral(1, 1), abs=1e-11)


def test_de_flags_divergent_integrand():
    res = de_integral(lambda x, cx: 1.0 / x, "unit", 1e-12)
    assert not res.converged


def test_checked_returns_a_converged_value_or_names_the_unconverged_one():
    assert QuadratureResult(0.5, 1e-13, 3, True).checked("moment") == 0.5
    with pytest.raises(QuadratureError, match=r"^moment did not converge \(err=2\.500e-03\)$"):
        QuadratureResult(0.5, 2.5e-3, 12, False).checked("moment")


def test_de_error_estimates_shrink_with_level_budget():
    f = PowerBinomialIntegrand(alpha=0.3, r=1.0, beta=-0.9)
    errs = [de_integral(f, "unit", 1e-30, level_cap=cap).error_estimate
            for cap in (3, 4, 5, 6, 7)]
    assert all(e2 <= e1 * 1.0000001 for e1, e2 in zip(errs, errs[1:]))


def test_de_rejects_bad_arguments():
    with pytest.raises(ValueError):
        de_integral(lambda x, cx: x, "unit", 0.0)
    with pytest.raises(ValueError):
        de_integral(lambda x: x, "diagonal", 1e-10)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, -1e-10])
def test_de_rejects_a_target_that_is_not_finite_positive(target):
    with pytest.raises(ValueError, match="finite positive"):
        de_integral(lambda x, cx: x, "unit", target)


@pytest.mark.parametrize("level_cap", [-1, 0, 1])
def test_de_rejects_a_level_cap_below_the_first_stopping_test(level_cap):
    # the stopping test compares levels 1 and 2, so a cap below 2 can never pass
    with pytest.raises(ValueError, match="level_cap"):
        de_integral(lambda x, cx: x, "unit", 1e-10, level_cap)


def _de_level_by_level(f, domain, target, level_cap):
    """de_integral as it was before levels 0-3 were joined: one integrand
    call per level."""
    total = 0.0
    err = math.inf
    with np.errstate(all="ignore"):
        for level in range(level_cap + 1):
            if domain == "unit":
                x, cx, w = _unit_nodes(level)
                vals = np.asarray(f(x, cx), dtype=float)
            else:
                x, w = _halfline_nodes(level)
                vals = np.asarray(f(x), dtype=float)
            contrib = vals * w
            piece = float(np.sum(np.where(np.isfinite(contrib), contrib, 0.0)))
            h = 0.5 ** level
            total = 0.5 * total + piece * h
            if level >= 2:
                err = abs(total - prev)
                if err <= target * max(1.0, abs(total)):
                    return QuadratureResult(total, err, level, True)
            prev = total
    return QuadratureResult(total, err, level_cap, False)


def _seeded_integrands(rng):
    """(f, domain) pairs: power-binomial, Gaussian-tail, F11-style
    exponential-Beta, scalar-returning and the divergent 1/x."""
    out = []
    for _ in range(12):
        out.append((PowerBinomialIntegrand(
            alpha=rng.uniform(0.05, 6.0), r=rng.uniform(0.2, 4.0), beta=rng.uniform(-0.95, 3.0),
            gamma_exp=rng.choice([0.0, rng.uniform(-2.0, 2.0)]),
            p=rng.uniform(0.5, 2.0), q=rng.uniform(-0.4, 2.0)), "unit"))
        e, inv, b = rng.uniform(-0.9, 4.0), 0.5 / rng.uniform(0.1, 5.0), rng.uniform(0.0, 3.0)
        out.append((lambda x, e=e, inv=inv, b=b:
                    np.exp(e * np.log(x) - (2.0 * b * x + x * x) * inv), "halfline"))
        k, u, ed = rng.uniform(-3.0, 3.0), rng.uniform(-0.9, 3.0), rng.uniform(-0.9, 3.0)
        out.append((lambda x, cx, k=k, u=u, ed=ed:
                    np.exp(k * x + u * np.log(x) + ed * np.log(cx)), "unit"))
    out.append((lambda x, cx: 2.5, "unit"))
    out.append((lambda x: 0.25, "halfline"))
    out.append((lambda x, cx: 1.0 / x, "unit"))
    return out


@pytest.mark.parametrize("level_cap", [2, 3, 4, 5, 6, 7])
def test_joined_levels_equal_level_by_level_evaluation(rng, level_cap):
    # == on every field: value, error_estimate, levels_used, converged
    for f, domain in _seeded_integrands(rng):
        for target in (1e-6, 1e-11, 1e-14):
            assert de_integral(f, domain, target, level_cap) == \
                _de_level_by_level(f, domain, target, level_cap), (f, domain, target)


@pytest.mark.parametrize("domain", ["unit", "halfline"])
@pytest.mark.parametrize("level_cap", [2, 3, 4, 6])
def test_joined_levels_take_one_integrand_call(domain, level_cap):
    # levels 0-4 on the unit interval and 0-5 on the half line
    joined = quadrature._JOINED[domain]
    seen = []

    def counted(x, *rest):
        seen.append(len(x))
        return np.exp(-x) / np.sqrt(x)

    for target in (1e-4, 1e-8, 1e-13):
        seen.clear()
        res = de_integral(counted, domain, target, level_cap)
        assert len(seen) == 1 + max(0, res.levels_used - joined)
        assert sum(seen) == sum(len(_level_nodes(domain, level)[0])
                                for level in range(max(res.levels_used, joined) + 1))


def _non_finite_at_the_ends(x, cx):
    """x, with NaN at the nodes nearest 0 and +inf at those nearest 1."""
    return np.where(x < 1e-3, np.nan, np.where(cx < 1e-3, np.inf, x))


# a writable array the integrand below hands back for the joined unit nodes
_JOINED_X, _JOINED_CX, _ = _joined_nodes("unit")[0]
_HELD = _non_finite_at_the_ends(_JOINED_X, _JOINED_CX)


def _returns_held(x, cx):
    return _HELD if x is _JOINED_X else _non_finite_at_the_ends(x, cx)


@pytest.mark.parametrize("level_cap", [2, 4, 6])
def test_masking_writes_only_into_its_own_product_array(level_cap):
    assert np.isnan(_HELD).any() and np.isinf(_HELD).any()
    held = _HELD.copy()
    cached = [_joined_nodes(domain)[0] for domain in ("unit", "halfline")]
    cached += [_level_nodes(domain, level) for domain in ("unit", "halfline")
               for level in range(level_cap + 1)]
    before = [[a.copy() for a in nodes] for nodes in cached]
    cases = [(_returns_held, "unit"), (lambda x, cx: x, "unit"), (lambda x: x, "halfline")]
    for f, domain in cases:
        for target in (1e-6, 1e-11, 1e-14):
            assert de_integral(f, domain, target, level_cap) == \
                _de_level_by_level(f, domain, target, level_cap), (f, domain, target)
    assert np.array_equal(_HELD, held, equal_nan=True)
    for nodes, copies in zip(cached, before):
        for a, copy in zip(nodes, copies):
            assert np.array_equal(a, copy)


# ------------------------------------------------------------ row-wise integrals

_TARGETS = st.sampled_from([1e-6, 1e-11, 1e-14])
_LEVEL_CAPS = st.sampled_from([2, 3, 4, 5, 6, 12])


@st.composite
def power_binomial_rows(draw):
    """1-5 integrands sharing r, p and q, with their own alpha, beta
    (sometimes 0, as the reciprocal kernels have it) and gamma_exp."""
    r, p = draw(st.floats(0.2, 4.0)), draw(st.floats(0.5, 2.0))
    q = draw(st.floats(-0.45, 2.0))
    exponents = st.tuples(st.floats(0.05, 6.0),
                          st.one_of(st.just(0.0), st.floats(-0.95, 3.0)),
                          st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    return [PowerBinomialIntegrand(alpha, r, b, g, p, q)
            for alpha, b, g in draw(st.lists(exponents, min_size=1, max_size=5))]


@settings(max_examples=150, deadline=None)
@given(power_binomial_rows(), _TARGETS, _LEVEL_CAPS)
def test_power_binomial_rows_equal_their_single_integrals(integrands, target, level_cap):
    # == on every field: value, error_estimate, levels_used, converged
    rows = de_rows(_power_binomial_rows(integrands), len(integrands), "unit", target, level_cap)
    assert rows == [de_integral(f, "unit", target, level_cap) for f in integrands]


def test_rows_stop_at_their_own_levels_and_take_their_own_exponents():
    # the c side of a permutation check has its own beta and gamma_exp, and
    # a zero beta skips that factor in its row alone
    integrands = [PowerBinomialIntegrand(2.5, 1.0, 0.5, -1.5, 1.0, 0.5),
                  PowerBinomialIntegrand(0.3, 1.0, -0.9, 0.0, 1.0, 0.5),
                  PowerBinomialIntegrand(4.0, 1.0, 0.0, 0.75, 1.0, 0.5)]
    rows = de_rows(_power_binomial_rows(integrands), 3)
    assert rows == [de_integral(f) for f in integrands]
    assert len({r.levels_used for r in rows}) > 1
    assert power_binomial_integrals(integrands) == [f.integral() for f in integrands]
    with pytest.raises(ValueError, match="share r, p and q"):
        power_binomial_integrals([integrands[0], PowerBinomialIntegrand(1.0, 2.0, 0.0)])


def test_de_rows_rejects_an_empty_row_set():
    with pytest.raises(ValueError, match="rows must be at least 1"):
        de_rows(lambda live, x, cx: x, 0)


#: elementwise integrands of both domains, some with NaN or inf at far nodes
#: and one that diverges (1/x), as (domain, one-row function)
_SINGLES = {
    "unit": [lambda x, cx: x, _non_finite_at_the_ends, lambda x, cx: 1.0 / x,
             lambda x, cx: 1.0 / np.sqrt(x * cx), lambda x, cx: np.log(x) * np.log(cx)],
    "halfline": [lambda x: np.exp(-x), lambda x: np.where(x > 1e3, np.inf, np.exp(-x * x)),
                 lambda x: np.exp(-x) * np.nan ** (x > 1e5), lambda x: 1.0 / (1.0 + x * x)],
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_SINGLES)), st.data(), _TARGETS, _LEVEL_CAPS)
def test_generic_rows_equal_their_single_integrals(domain, data, target, level_cap):
    picks = data.draw(st.lists(st.sampled_from(_SINGLES[domain]), min_size=1, max_size=5))

    def rows(live, *args):
        return np.stack([np.broadcast_to(picks[i](*args), args[0].shape) for i in live])

    assert de_rows(rows, len(picks), domain, target, level_cap) == \
        [de_integral(f, domain, target, level_cap) for f in picks]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-0.9, 4.0), min_size=1, max_size=5), st.floats(0.05, 1.0),
       st.floats(-3.0, 3.0), st.floats(-0.9, 3.0), _TARGETS, _LEVEL_CAPS)
def test_exponential_beta_rows_equal_their_single_integrals(us, k, u0, edge, target, level_cap):
    # F11's integrand: the moments differ in the exponent u of x only
    u = np.array(us)[:, None]

    def rows(live, x, cx):
        return np.exp(k * x + u[live] * np.log(x) + edge * np.log(cx))

    singles = [lambda x, cx, ui=ui: np.exp(k * x + ui * np.log(x) + edge * np.log(cx))
               for ui in us]
    assert de_rows(rows, len(us), "unit", target, level_cap) == \
        [de_integral(f, "unit", target, level_cap) for f in singles]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-0.9, 4.0), min_size=1, max_size=5), st.floats(0.1, 5.0),
       st.floats(0.0, 3.0))
def test_gaussian_tail_rows_equal_their_single_integrals(es, alpha, b):
    # F12's integrand, against its one-row closure
    inv = 0.5 / alpha
    singles = [de_integral(lambda x, e=e: np.exp(e * np.log(x) - (2.0 * b * x + x * x) * inv),
                           "halfline") for e in es]
    if all(s.converged for s in singles):
        assert gaussian_tail_integrals(es, alpha, b) == [s.value for s in singles]
    else:
        with pytest.raises(QuadratureError):
            gaussian_tail_integrals(es, alpha, b)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-0.9, 4.0), min_size=1, max_size=5), st.floats(-3.0, 3.0),
       st.floats(-0.95, 3.0))
def test_exponential_beta_integrals_equal_their_single_integrals(us, c, edge):
    # F11's integrand, against its one-row closure
    singles = [de_integral(lambda x, cx, u=u: np.exp(c * x + u * np.log(x) + edge * np.log(cx)))
               for u in us]
    if all(s.converged for s in singles):
        assert exponential_beta_integrals(us, c, edge) == [s.value for s in singles]
    else:
        with pytest.raises(QuadratureError):
            exponential_beta_integrals(us, c, edge)


def _power_binomials(rng):
    out = [PowerBinomialIntegrand(alpha=0.4, r=1.0, beta=-0.5),
           PowerBinomialIntegrand(alpha=2.5, r=0.3, beta=1.5, gamma_exp=-1.0, p=1.0, q=1.0)]
    for _ in range(6):
        out.append(PowerBinomialIntegrand(
            alpha=rng.uniform(0.05, 6.0), r=rng.uniform(0.2, 4.0), beta=rng.uniform(-0.95, 3.0),
            gamma_exp=rng.choice([0.0, rng.uniform(-2.0, 2.0)]),
            p=rng.uniform(0.5, 2.0), q=rng.uniform(-0.4, 2.0)))
    return out


@pytest.mark.parametrize("nodes", [f"level {level}" for level in range(13)] + ["joined"])
def test_cached_node_logs_equal_computed_ones(rng, monkeypatch, nodes):
    # the node log cache is keyed by array identity: the library's own node
    # arrays take the cached log, and any other array, even a read-only one
    # with equal values, computes it
    x, cx = (_joined_nodes("unit")[0] if nodes == "joined"
             else _unit_nodes(int(nodes.split()[1])))[:2]
    assert (cx < 0.5).any() and (cx >= 0.5).any()  # both _stable_log branches
    frozen = [x.copy(), cx.copy()]
    for a in frozen:
        a.setflags(write=False)
    stable_log = quadrature._stable_log
    computed = []

    def counted(*args):
        computed.append(args[0])
        return stable_log(*args)

    monkeypatch.setattr(quadrature, "_stable_log", counted)
    for f in _power_binomials(rng):
        with np.errstate(all="ignore"):
            cached = f(x, cx)
            assert not computed
            for copies in ([x.copy(), cx.copy()], frozen):
                assert np.array_equal(cached, f(*copies), equal_nan=True), (f, copies)
                assert computed.pop() is copies[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["alpha", "r", "beta", "gamma_exp", "p", "q"])
def test_power_binomial_integrand_rejects_non_finite_parameters(name, bad):
    params = dict(alpha=1.5, r=1.0, beta=0.5, gamma_exp=-1.0, p=1.0, q=1.0)
    params[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        PowerBinomialIntegrand(**params)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn, args", [
    (lambda e, alpha, b: gaussian_tail_integrals([e], alpha, b), (1.0, 1.0, 0.0)),
    (sqrt_kernel_integral, (1.0, 1.0)),
    (reciprocal_kernel_integral, (1.0, 1.0)),
    (beta, (1.0, 1.0)),
    (lambda u, c, edge: exponential_beta_integrals([u], c, edge), (1.0, 1.0, 0.0)),
], ids=["gaussian_tail_integral", "sqrt_kernel_integral", "reciprocal_kernel_integral",
        "beta", "exponential_beta_integrals"])
def test_oracles_reject_non_finite_arguments(fn, args, bad):
    for i in range(len(args)):
        with pytest.raises(ValueError, match="must be finite"):
            fn(*args[:i], bad, *args[i + 1:])


@pytest.mark.parametrize("call, match", [
    (lambda: sqrt_kernel_integral(0, 1), "requires pp > 0 and r > 0"),
    (lambda: PowerBinomialIntegrand(alpha=1.0, r=0.0, beta=0.0), "r must be positive"),
    # a non-integrable end of the exponential-Beta moments
    (lambda: exponential_beta_integrals([0.5, -1.0], 1.0, 0.0), "u must exceed -1"),
    (lambda: exponential_beta_integrals([0.5], 1.0, -1.0), "edge must exceed -1"),
], ids=["sqrt-kernel-pp-0", "power-binomial-r-0", "exponential-beta-u", "exponential-beta-edge"])
def test_oracles_refuse_an_argument_out_of_range(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# ------------------------------------------------------------ named kernels

def test_reciprocal_kernel_values():
    assert reciprocal_kernel_integral(1, 1) == pytest.approx(math.log(2), abs=1e-12)
    assert reciprocal_kernel_integral(1, 2) == pytest.approx(math.pi / 4, abs=1e-12)
    assert reciprocal_kernel_integral(2, 1) == pytest.approx(1 - math.log(2), abs=1e-12)
    with pytest.raises(ValueError):
        reciprocal_kernel_integral(0, 1)


def test_gaussian_tail_values():
    assert gaussian_tail_integrals([1], 1, 0)[0] == pytest.approx(1.0, abs=1e-12)
    assert gaussian_tail_integrals([0], 1, 0)[0] == pytest.approx(math.sqrt(math.pi / 2), abs=1e-12)


def test_gaussian_tail_with_drift_against_riemann_sum():
    xs = np.linspace(1e-9, 40.0, 2_000_001)
    brute = float(np.trapezoid(np.exp(-(2.0 * xs + xs * xs) / 2.0), xs))
    assert abs(gaussian_tail_integrals([0], 1, 1)[0] - brute) < 1e-8


def test_gaussian_tail_validation():
    with pytest.raises(ValueError):
        gaussian_tail_integrals([-1.0], 1, 0)
    with pytest.raises(ValueError):
        gaussian_tail_integrals([0], 0, 0)
    with pytest.raises(ValueError):
        gaussian_tail_integrals([0], 1, -0.5)


# ------------------------------------------------------------ contiguous relation

def test_contiguous_relation_basic_cases():
    assert max(contiguous_relation_check(2, 1, 0, 1, 1, 1, 5)) < 1e-8
    assert max(contiguous_relation_check(2, 1, 0, 1, 0, 1, 5)) < 1e-8   # q = 0 degenerate
    assert max(contiguous_relation_check(1, 0, 0, 1, 1, 2, 0)) < 1e-8


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["m", "n", "kappa_exp", "p", "q", "r"])
def test_contiguous_rejects_a_non_finite_argument_by_its_name(name, bad):
    # an infinite r used to reach the integrand as alpha = m + r*0 = nan
    args = dict(m=1.5, n=0.5, kappa_exp=0.5, p=1.0, q=0.5, r=1.0, nu_max=1)
    args[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        contiguous_relation_check(**args)


@pytest.mark.parametrize("nu_max", [1.5, 2.0, "3"])
def test_contiguous_rejects_a_non_integral_nu_max(nu_max):
    with pytest.raises(ValueError, match="nu_max must be a nonnegative integer"):
        contiguous_relation_check(1.5, 0.5, 0.5, 1, 0.5, 1, nu_max)


def test_contiguous_validates_integrability():
    with pytest.raises(ValueError):
        contiguous_relation_check(0, 0, 0, 1, 1, 1, 2)
    with pytest.raises(ValueError):
        contiguous_relation_check(1, -1, 0, 1, 1, 1, 2)


def test_power_binomial_integrand_validation():
    with pytest.raises(ValueError):
        PowerBinomialIntegrand(alpha=0, r=1, beta=0)
    with pytest.raises(ValueError):
        PowerBinomialIntegrand(alpha=1, r=1, beta=-1)
    with pytest.raises(ValueError):
        PowerBinomialIntegrand(alpha=1, r=1, beta=0, p=1, q=-1)
