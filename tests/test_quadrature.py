import math

import numpy as np
import pytest

from contfrac import quadrature
from contfrac.quadrature import (
    PowerBinomialIntegrand,
    QuadratureError,
    QuadratureResult,
    beta,
    contiguous_relation_check,
    _halfline_nodes,
    _joined_nodes,
    _level_nodes,
    _unit_nodes,
    de_integral,
    gaussian_tail_integral,
    log_gamma,
    reciprocal_kernel_integral,
    sqrt_kernel_integral,
)


# ------------------------------------------------------------ log-gamma / beta

def test_log_gamma_special_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)


def test_log_gamma_relative_accuracy_on_band():
    for x in np.linspace(0.5, 100.0, 397):
        ours = log_gamma(float(x))
        ref = math.lgamma(float(x))
        assert abs(ours - ref) <= 1e-13 * max(1.0, abs(ref))


def test_log_gamma_recursion():
    for x in (0.5, 1.3, 7.0, 42.0):
        assert abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x)) < 1e-12


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)


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
def test_levels_0_to_3_take_one_integrand_call(domain, level_cap):
    seen = []

    def counted(x, *rest):
        seen.append(len(x))
        return np.exp(-x) / np.sqrt(x)

    for target in (1e-4, 1e-8, 1e-13):
        seen.clear()
        res = de_integral(counted, domain, target, level_cap)
        assert len(seen) == 1 + max(0, res.levels_used - 3)
        assert sum(seen) == sum(len(_level_nodes(domain, level)[0])
                                for level in range(max(res.levels_used, 3) + 1))


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
    (gaussian_tail_integral, (1.0, 1.0, 0.0)),
    (sqrt_kernel_integral, (1.0, 1.0)),
    (reciprocal_kernel_integral, (1.0, 1.0)),
    (beta, (1.0, 1.0)),
    (log_gamma, (1.0,)),
], ids=["gaussian_tail_integral", "sqrt_kernel_integral", "reciprocal_kernel_integral",
        "beta", "log_gamma"])
def test_oracles_reject_non_finite_arguments(fn, args, bad):
    for i in range(len(args)):
        with pytest.raises(ValueError, match="must be finite"):
            fn(*args[:i], bad, *args[i + 1:])


# ------------------------------------------------------------ named kernels

def test_reciprocal_kernel_values():
    assert reciprocal_kernel_integral(1, 1) == pytest.approx(math.log(2), abs=1e-12)
    assert reciprocal_kernel_integral(1, 2) == pytest.approx(math.pi / 4, abs=1e-12)
    assert reciprocal_kernel_integral(2, 1) == pytest.approx(1 - math.log(2), abs=1e-12)
    with pytest.raises(ValueError):
        reciprocal_kernel_integral(0, 1)


def test_gaussian_tail_values():
    assert gaussian_tail_integral(1, 1, 0) == pytest.approx(1.0, abs=1e-12)
    assert gaussian_tail_integral(0, 1, 0) == pytest.approx(math.sqrt(math.pi / 2), abs=1e-12)


def test_gaussian_tail_with_drift_against_riemann_sum():
    xs = np.linspace(1e-9, 40.0, 2_000_001)
    brute = float(np.trapezoid(np.exp(-(2.0 * xs + xs * xs) / 2.0), xs))
    assert abs(gaussian_tail_integral(0, 1, 1) - brute) < 1e-8


def test_gaussian_tail_validation():
    with pytest.raises(ValueError):
        gaussian_tail_integral(-1.0, 1, 0)
    with pytest.raises(ValueError):
        gaussian_tail_integral(0, 0, 0)
    with pytest.raises(ValueError):
        gaussian_tail_integral(0, 1, -0.5)


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
