"""Seeded inputs, operations and correctness checks for the benchmark workloads.

Each workload is generated from its seed, written to a JSON file, and read
back from that file, so the program receives only the recorded inputs:

* ``suite``   the built-in verification suite in a seeded order, written as a
              ``contfrac verify --manifest`` file and loaded with the CLI's
              own ``load_manifest``;
* ``oracles`` verify / reference / permutation / contiguous / Riccati ops
              whose fractions converge quickly, so the oracles do the work;
* ``exact``   exact convergents, series-to-fraction conversions, even
              contractions and generic float evaluation of series fractions.

Every operation is checked by the benchmark itself, not by the program's
verdict alone (see ``check``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from contfrac import catalog, cli, core, quadrature, riccati, series

WORKLOADS = ("suite", "oracles", "exact")

#: allowance for a reference that sits on a bracket end (quadrature target)
REF_SLACK = 1e-11
#: independent oracles (closed forms, hypergeometric sums) must agree this well
ORACLE_RTOL = 1e-9
#: the acceptance suite's bound for the permutation and contiguous residuals
RESIDUAL_BOUND = 1e-8
#: float partial sums against the reported bracket of a series fraction
SERIES_RTOL = 1e-11
#: F8 draws whose partial denominators come closer to zero are replaced
F8_MIN_DENOMINATOR = Fraction(1, 4)

# op counts per pass at scale 1; a pass of each workload takes 2-3 s
ORACLE_MIX = {"verify": 800, "reference": 1000, "permutation": 150,
              "contiguous": 150, "riccati": 400}
EXACT_MIX = {"convergents": 24, "series_to_cf": 400, "contraction": 150,
             "series_eval": 60}


# --------------------------------------------------------------------------
# generators: in-constraint draws only
# --------------------------------------------------------------------------

def _q(rng: random.Random, lo: float, hi: float, den: int = 4) -> Fraction:
    return Fraction(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)


def _params(d: dict) -> dict:
    return {k: str(v) for k, v in d.items()}


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def f8_min_denominator(P: dict, max_terms: int) -> Fraction:
    """Smallest |(a + j r) p - (b + j r) q| over j < max_terms (linear in j)."""
    d0 = P["a"] * P["p"] - P["b"] * P["q"]
    slope = P["r"] * (P["p"] - P["q"])
    js = {0, max_terms - 1}
    if slope != 0:
        root = -d0 / slope
        js |= {j for j in (math.floor(root), math.ceil(root)) if 0 <= j < max_terms}
    return min(abs(d0 + j * slope) for j in js)


def series_has_zero_pivot(nums: list, dens: list) -> bool:
    """True when some transform pivot n_{k-1} d_k - n_k d_{k-1} is zero."""
    return any(nums[k - 1] * dens[k] == nums[k] * dens[k - 1] for k in range(1, len(nums)))


def _grid(lo: float, hi: float, i: int, n: int) -> Fraction:
    """The i-th of n quarter-rounded points from lo to hi: draws of a
    cost-setting parameter cover its range evenly whatever the seed."""
    return Fraction(round(4 * (lo + (hi - lo) * i / max(1, n - 1))), 4)


def _draw_verify(rng: random.Random, i: int, replaced: dict) -> dict:
    family = ("F3", "F8", "F11", "F12")[i % 4]
    if family == "F3":
        P, tol, cap = {"s": _q(rng, 3, 8)}, 1e-8, 100_000
    elif family == "F8":
        tol, cap = 1e-9, 5000
        while True:
            p = _q(rng, 0.75, 2)
            q = p * Fraction(rng.randint(1, 3), 4)      # 0 < q < p: no constant denominators
            r = _q(rng, 0.5, 2)
            c = _q(rng, 0.5, 2.5)
            b = _q(rng, 0.25, 1) + c - r if c + r > 1 else c
            if not c - b + r > 0:
                b = c + r - Fraction(1, 2)
            a = c + r - b + _q(rng, 0.5, 2)
            P = {"a": a, "b": b, "c": c, "r": r, "p": p, "q": q}
            # a zero partial denominator is undefined, and a near-zero one in
            # a signed fraction makes difference stopping settle on a wrong
            # value (a=3/4, b=9/4, c=2, r=1/2, p=5/4, q=15/16 at j = 7)
            if f8_min_denominator(P, cap) >= F8_MIN_DENOMINATOR:
                break
            replaced["F8_small_denominator"] += 1
    elif family == "F11":
        tol, cap = 1e-10, 500
        alpha, beta, b = _q(rng, 0.5, 2), _q(rng, 0.5, 1.25), _q(rng, 0.5, 2)
        bound = (alpha * alpha + alpha * beta * b) / (beta * beta)
        P = {"a": min(_q(rng, 0.25, 2), bound * Fraction(3, 4)), "alpha": alpha,
             "b": b, "beta": beta}
    else:
        P = {"a": _q(rng, 0.5, 2.5), "alpha": _q(rng, 0.5, 2), "b": _q(rng, 0.75, 2.5)}
        tol, cap = 1e-8, 100_000
    return {"kind": "verify", "family": family, "params": _params(P),
            "tolerance": tol, "max_terms": cap}


def _draw_reference(rng: random.Random, i: int) -> dict:
    family = ("F1", "F1-frac", "F2", "F5", "F9", "F10")[i % 6]
    if family in ("F1", "F1-frac"):
        P = {"m": _q(rng, 1, 4), "n": _q(rng, 0.5, 3)}
    elif family == "F2":
        nu = _q(rng, 1, 3)
        P = {"mu": nu * Fraction(rng.randint(2, 6), 4), "nu": nu,
             "m": _q(rng, 0.5, 3), "n": _q(rng, 0.5, 3)}
    elif family == "F5":
        r = _q(rng, 0.75, 1.5)
        f = r * Fraction(rng.randint(5, 9), 4)
        h = f if rng.random() < 0.25 else f + _q(rng, 0.25, 1.25)
        P = {"f": f, "h": h, "r": r}
    elif family == "F9":
        # s well above r: the fraction converges in under a few hundred terms
        P = {"c": _q(rng, 0.5, 2), "g": _q(rng, 0.5, 2), "r": _q(rng, 0.25, 0.75),
             "s": _q(rng, 2.5, 4)}
    else:
        P = {"s": _q(rng, 0.75, 4)}
    return {"kind": "reference", "family": family, "params": _params(P)}


def _draw_permutation(rng: random.Random) -> dict:
    r = float(_q(rng, 0.5, 1.5, 8))
    c = float(_q(rng, 0.75, 1.75, 8))
    a = c + float(_q(rng, 0.5, 1.5, 8))
    b_lo = max(0.25, c + r - a + 0.25)
    b = b_lo + (c + r - 0.25 - b_lo) * rng.randint(0, 8) / 8
    p = float(_q(rng, 0.75, 1.5, 8))
    q = -p / 3.0 + (4.0 * p / 3.0) * rng.randint(0, 8) / 8
    return {"kind": "permutation", "args": [a, b, c, r, p, q]}


def _draw_contiguous(rng: random.Random) -> dict:
    m = float(_q(rng, 0.5, 2.5, 8))
    n = float(_q(rng, -0.5, 2.0, 8))
    kappa = float(_q(rng, -1.0, 1.0, 8))
    p = float(_q(rng, 0.5, 2.0, 8))
    q = float(_q(rng, -p / 2.0 + 0.125, p, 8))
    r = float(_q(rng, 0.5, 2.0, 8))
    return {"kind": "contiguous", "args": [m, n, kappa, p, q, r], "nu_max": rng.randint(0, 2)}


def _draw_riccati(rng: random.Random) -> dict:
    # |ac| <= 2 with m in [-1, 2] keeps the regularised solution pole-free on
    # (0, 1]; a = 3, b = 3/7, c = 5, m = 0 (ac = 15) runs into a movable pole.
    while True:
        a, c = _q(rng, -1, 2), rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)))
        if abs(a * c) <= 2:
            break
    return {"kind": "riccati", "a": str(a), "b": str(_q(rng, -0.5, 2)), "c": str(c),
            "m": str(_q(rng, -1, 2)), "depth": 80, "tol": 1e-8}


def _positive_family(rng: random.Random, i: int) -> tuple[str, dict]:
    """A catalog fraction with all-positive terms and non-integer rationals."""
    family = ("F3", "F5", "F7", "F10", "F12")[i % 5]
    den = (3, 5, 6)[i // 5 % 3]
    if family in ("F3", "F10"):
        P = {"s": _q(rng, 0.5, 4, den)}
    elif family == "F5":
        P = {"f": _q(rng, 0.5, 3, den), "h": _q(rng, 0.5, 3, den), "r": _q(rng, 0.5, 2, den)}
    elif family == "F7":
        r = _q(rng, 0.75, 2, den)
        P = {"q": r * Fraction(rng.randint(1, 5), 6), "r": r, "s": _q(rng, 0.5, 3, den)}
    else:
        P = {"a": _q(rng, 0.5, 2.5, den), "alpha": _q(rng, 0.5, 2, den),
             "b": _q(rng, 0.75, 2.5, den)}
    return family, _params(P)


def _draw_series_lists(rng: random.Random, replaced: dict) -> dict:
    length = rng.randint(20, 60)
    while True:
        nums = [Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(length)]
        dens = [Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(length)]
        if not series_has_zero_pivot(nums, dens):
            break
        replaced["series_zero_pivot"] += 1
    return {"kind": "series_to_cf", "numerators": [str(x) for x in nums],
            "denominators": [str(x) for x in dens]}


def _draw_series_eval(rng: random.Random, i: int, n: int) -> dict:
    # constant numerator over an increasing quadratic: term magnitudes fall,
    # so every partial term of the fraction is positive and it brackets; the
    # leading coefficient sets the term count
    return {"kind": "series_eval", "numerator": str(_q(rng, 0.5, 2)),
            "denominator": [str(_grid(0.5, 2, i, n)), str(_q(rng, 0.25, 3)), str(_q(rng, 0.5, 3))],
            "tol": 1e-5, "max_terms": 100_000}


def generate(workload: str, seed: int, scale: float = 1.0) -> Any:
    """The workload's inputs as JSON data: a manifest for ``suite``, else
    ``{"ops": [...], "replaced": {...}}``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "suite":
        cases = catalog.builtin_suite()
        rng.shuffle(cases)
        cases = cases[:_scaled(len(cases), scale)]
        return [{"family": c.family, "params": _params(c.params),
                 "tolerance": c.tolerance, "max_terms": c.max_terms} for c in cases]
    replaced = {"F8_small_denominator": 0, "series_zero_pivot": 0}
    ops: list[dict] = []
    if workload == "oracles":
        draws = {"verify": lambda i, n: _draw_verify(rng, i, replaced),
                 "reference": lambda i, n: _draw_reference(rng, i),
                 "permutation": lambda i, n: _draw_permutation(rng),
                 "contiguous": lambda i, n: _draw_contiguous(rng),
                 "riccati": lambda i, n: _draw_riccati(rng)}
        mix = ORACLE_MIX
    elif workload == "exact":
        def convergents(i, n):
            family, P = _positive_family(rng, i)
            return {"kind": "convergents", "family": family, "params": P,
                    "depth": 200 + 600 * i // max(1, n - 1)}

        def contraction(i, n):
            family, P = _positive_family(rng, i)
            return {"kind": "contraction", "family": family, "params": P,
                    "k": rng.randint(20, 100)}

        draws = {"convergents": convergents,
                 "series_to_cf": lambda i, n: _draw_series_lists(rng, replaced),
                 "contraction": contraction,
                 "series_eval": lambda i, n: _draw_series_eval(rng, i, n)}
        mix = EXACT_MIX
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for kind, count in mix.items():
        n = _scaled(count, scale)
        ops.extend(draws[kind](i, n) for i in range(n))
    rng.shuffle(ops)
    return {"workload": workload, "seed": seed, "replaced": replaced, "ops": ops}


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def _fr(d: dict) -> dict:
    return {k: Fraction(v) for k, v in d.items()}


def _poly(coeffs: list, j: int) -> Fraction:
    out = Fraction(0)
    for c in coeffs:
        out = out * j + c
    return out


def _series_eval(num: Fraction, den: list, tol: float, max_terms: int) -> core.EvalReport:
    spec = series.SeriesSpec.from_rules(lambda j: num, lambda j: _poly(den, j))
    return core.eval_float(series.series_to_cf(spec), tol, max_terms)


@dataclass
class Op:
    """One timed call at a public entry point, plus what its check needs."""

    kind: str
    label: str
    call: Callable[[], Any]
    data: dict
    expected: Any = None       # lazily computed oracle value(s)
    digest: Optional[int] = None   # exact ops: digest of the first checked output

    def run(self) -> Any:
        return self.call()


def _label(family: str, params: dict) -> str:
    return family + ("(" + ",".join(f"{k}={v}" for k, v in params.items()) + ")" if params else "")


def prepare(kind: str, d: dict) -> Op:
    """Turn one recorded input into an operation (parsing is not timed)."""
    if kind == "verify":
        case = d if isinstance(d, catalog.IdentityCase) else catalog.IdentityCase(
            d["family"], _fr(d["params"]), d["tolerance"], d["max_terms"])
        return Op(kind, _label(case.family, {k: str(v) for k, v in case.params.items()}),
                  lambda: catalog.verify(case), {"case": case})
    if kind == "reference":
        family, P = d["family"], _fr(d["params"])
        return Op(kind, _label(family, d["params"]),
                  lambda: catalog.reference_value(family, P), {"family": family, "params": P})
    if kind == "permutation":
        args = tuple(d["args"])
        return Op(kind, f"perm{args}", lambda: catalog.permutation_theorem_check(*args), {})
    if kind == "contiguous":
        args, nu_max = tuple(d["args"]), d["nu_max"]
        return Op(kind, f"contig{args}/{nu_max}",
                  lambda: quadrature.contiguous_relation_check(*args, nu_max), {"nu_max": nu_max})
    if kind == "riccati":
        problem = riccati.RiccatiProblem(Fraction(d["a"]), Fraction(d["b"]),
                                         Fraction(d["c"]), Fraction(d["m"]))
        depth, tol = d["depth"], d["tol"]
        return Op(kind, f"riccati(a={d['a']},b={d['b']},c={d['c']},m={d['m']})",
                  lambda: riccati.verify_riccati(problem, depth, tol), {"tol": tol})
    if kind == "convergents":
        family, P, depth = d["family"], _fr(d["params"]), d["depth"]
        return Op(kind, _label(family, d["params"]) + f"@{depth}",
                  lambda: core.convergent_sequence(catalog.make_cf(family, P), depth),
                  {"family": family, "params": P, "depth": depth})
    if kind == "series_to_cf":
        nums = [Fraction(x) for x in d["numerators"]]
        dens = [Fraction(x) for x in d["denominators"]]
        n = len(nums)
        return Op(kind, f"series[{n}]",
                  lambda: series.series_to_cf(series.SeriesSpec.from_lists(nums, dens)).take(n),
                  {"nums": nums, "dens": dens})
    if kind == "contraction":
        family, P, k = d["family"], _fr(d["params"]), d["k"]
        return Op(kind, _label(family, d["params"]) + f"/2@{k}",
                  lambda: core.even_contraction(catalog.make_cf(family, P)).take(k),
                  {"family": family, "params": P, "k": k})
    if kind == "series_eval":
        num, den = Fraction(d["numerator"]), [Fraction(x) for x in d["denominator"]]
        tol, cap = d["tol"], d["max_terms"]
        return Op(kind, f"sum (-1)^j {num}/poly{tuple(map(str, den))}",
                  lambda: _series_eval(num, den, tol, cap),
                  {"num": num, "den": den, "tol": tol})
    raise ValueError(f"unknown op kind {kind!r}")


def write_inputs(data: Any, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)


def load_ops(workload: str, path) -> list[Op]:
    """Read recorded inputs back and prepare them; the suite goes through
    the CLI's manifest loader."""
    if workload == "suite":
        return [prepare("verify", case) for case in cli.load_manifest(str(path))]
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return [prepare(d["kind"], d) for d in data["ops"]]


# --------------------------------------------------------------------------
# independent oracles
# --------------------------------------------------------------------------

def binomial_moment(alpha: float, r: float, a: float) -> float:
    """Integral over (0, 1) of x^(alpha-1) (1 + x^r)^(-a) dx.

    With u = x^r this is (1/alpha) 2F1(a, alpha/r; alpha/r + 1; -1); the Pfaff
    transformation turns it into (1/alpha) 2^(-a) sum_k (a)_k / (alpha/r + 1)_k
    2^(-k), a positive series that converges like 2^(-k).
    """
    c = alpha / r + 1.0
    term = total = 1.0
    k = 0
    while term > 1e-18 * total:
        term *= (a + k) / ((c + k) * 2.0)
        total += term
        k += 1
    return total * 2.0 ** (-a) / alpha


def _sqrt_kernel(pp: float, r: float) -> float:
    """B(pp/(2r), 1/2) / (2r) from the C library's log-gamma."""
    z = pp / (2.0 * r)
    return math.exp(math.lgamma(z) + math.lgamma(0.5) - math.lgamma(z + 0.5)) / (2.0 * r)


_CONSTANTS = {
    "log2": math.log(2.0), "brouncker": math.pi / 4.0, "e-euler": math.e,
    "log2-recip": 1.0 / (2.0 * math.log(2.0) - 1.0), "pi-half-a": math.pi / 2.0,
    "pi-half-b": math.pi / 2.0, "three-pi-quarter-a": 0.75 * math.pi,
    "three-pi-quarter-b": 0.75 * math.pi,
}


def oracle_value(family: str, P: dict) -> Optional[float]:
    """The family's value computed without contfrac, where a closed form or a
    fast series exists; None otherwise."""
    if family in _CONSTANTS:
        return _CONSTANTS[family]
    x = {k: float(v) for k, v in P.items()}
    if family == "F1":
        return binomial_moment(x["n"], x["m"], 1.0)
    if family == "F1-frac":
        return binomial_moment(1.0, x["m"] / x["n"], 1.0)
    if family == "F2":
        return binomial_moment(x["n"], x["m"], x["mu"] / x["nu"])
    if family == "F3":
        s = x["s"]
        return (s + 1.0) * _sqrt_kernel(s + 3.0, 2.0) / _sqrt_kernel(s + 1.0, 2.0)
    if family == "F5":
        f, h, r = x["f"], x["h"], x["r"]
        if P["f"] == P["h"]:
            i = binomial_moment(h, r, 1.0)
            return (1.0 - (h - r) * i) / i
        kf, kh = _sqrt_kernel(f + r, r), _sqrt_kernel(h + r, r)
        return (h * (f - r) * kh - f * (h - r) * kf) / (f * kf - h * kh)
    if family == "F10":
        s = x["s"]
        return 1.0 / (2.0 * binomial_moment(s + 1.0, 2.0, 1.0)) - s
    return None


def _close(x: float, y: float, rtol: float) -> bool:
    return math.isfinite(x) and abs(x - y) <= rtol * max(1.0, abs(y))


# --------------------------------------------------------------------------
# checks: None when the output is right, else the reason
# --------------------------------------------------------------------------

def _check_verify(op: Op, rep) -> Optional[str]:
    case = op.data["case"]
    refs = rep.references
    if not refs or rep.value is None:
        return f"no value or reference ({rep.status.value}: {rep.detail})"
    if rep.lower is not None and rep.upper is not None:
        if not rep.upper - rep.lower <= case.tolerance:
            return (f"bracket width {rep.upper - rep.lower:.3e} above tolerance "
                    f"{case.tolerance:.1e} ({rep.eval_status.value})")
        for ref in refs:
            slack = REF_SLACK * max(1.0, abs(ref))
            if not rep.lower - slack <= ref <= rep.upper + slack:
                return f"reference {ref!r} outside [{rep.lower!r}, {rep.upper!r}]"
    else:
        for ref in refs:
            if not abs(rep.value - ref) <= case.tolerance:
                return f"|value - reference| = {abs(rep.value - ref):.3e} above tolerance"
    if op.expected is None:
        op.expected = oracle_value(case.family, case.params)
    if op.expected is not None and not all(_close(ref, op.expected, ORACLE_RTOL) for ref in refs):
        return f"references {refs} disagree with the independent value {op.expected!r}"
    if not rep.passed:
        return f"program verdict {rep.status.value} on a correct result"
    return None


def _check_reference(op: Op, refs) -> Optional[str]:
    family, P = op.data["family"], op.data["params"]
    if not refs:
        return "no reference value"
    if op.expected is None:
        value = oracle_value(family, P)
        if value is None:
            # no closed form: bracket the family's fast-converging fraction
            rep = core.eval_float(catalog.make_cf(family, P), 1e-10, 100_000)
            if rep.lower is None or rep.status is not core.EvalStatus.CONVERGED:
                return f"oracle fraction did not bracket ({rep.status.value})"
            value = (rep.lower, rep.upper)
        op.expected = value
    if isinstance(op.expected, tuple):
        lo, hi = op.expected
        for ref in refs:
            slack = REF_SLACK * max(1.0, abs(ref))
            if not lo - slack <= ref <= hi + slack:
                return f"reference {ref!r} outside the fraction's bracket [{lo!r}, {hi!r}]"
    elif not all(_close(ref, op.expected, ORACLE_RTOL) for ref in refs):
        return f"references {refs} disagree with the independent value {op.expected!r}"
    return None


def _check_residual(op: Op, residual) -> Optional[str]:
    values = residual if isinstance(residual, list) else [residual]
    if "nu_max" in op.data and len(values) != op.data["nu_max"] + 1:
        return f"{len(values)} residuals for nu_max = {op.data['nu_max']}"
    worst = max(values)
    if not (math.isfinite(worst) and worst <= RESIDUAL_BOUND):
        return f"residual {worst:.3e} above {RESIDUAL_BOUND:.0e}"
    return None


def _check_riccati(op: Op, rep) -> Optional[str]:
    tol = op.data["tol"]
    gap = abs(rep.cf_value - rep.ode_value)
    if not gap <= tol:
        return f"fraction and ODE differ by {gap:.3e} > {tol:.0e}"
    if not rep.passed:
        return "program verdict fail on a correct result"
    return None


def exact_convergents(leading, pairs) -> list[Fraction]:
    """Convergent values by the three-term recurrence, written out here."""
    p_prev, q_prev, p, q = 1, 0, leading, 1
    out = []
    for b, a in pairs:
        p, p_prev = a * p + b * p_prev, p
        q, q_prev = a * q + b * q_prev, q
        out.append(Fraction(p) / q)
    return out


def _check_convergents(op: Op, convs) -> Optional[str]:
    depth = op.data["depth"]
    if len(convs) != depth:
        return f"{len(convs)} convergents, {depth} asked"
    cf = catalog.make_cf(op.data["family"], op.data["params"])
    acc = cf.leading
    for c, t in zip(convs, core.euler_series_expansion(cf, depth)):
        acc += t
        if not c.defined or c.value != acc:
            return f"convergent {c.index} differs from the series partial sum"
    return None


def _check_series_to_cf(op: Op, terms) -> Optional[str]:
    nums, dens = op.data["nums"], op.data["dens"]
    if len(terms) != len(nums):
        return f"{len(terms)} terms for a {len(nums)}-term series"
    partial, sign = Fraction(0), 1
    for j, v in enumerate(exact_convergents(0, terms)):
        partial += sign * nums[j] / dens[j]
        sign = -sign
        if v != partial:
            return f"convergent {j + 1} differs from the partial sum"
    return None


def _check_contraction(op: Op, terms) -> Optional[str]:
    k = op.data["k"]
    if len(terms) != k:
        return f"{len(terms)} contracted terms, {k} asked"
    cf = catalog.make_cf(op.data["family"], op.data["params"])
    original = exact_convergents(cf.leading, cf.take(2 * k))
    for i, v in enumerate(exact_convergents(cf.leading, terms)):
        if v != original[2 * i + 1]:
            return f"contracted convergent {i + 1} differs from convergent {2 * i + 2}"
    return None


def _check_series_eval(op: Op, rep) -> Optional[str]:
    if rep.status is not core.EvalStatus.CONVERGED or rep.lower is None:
        return f"no converged bracket ({rep.status.value})"
    if not rep.upper - rep.lower <= op.data["tol"]:
        return "bracket wider than tolerance"
    k = rep.terms_used
    num, den = op.data["num"], op.data["den"]
    terms = [float(num / _poly(den, j)) * (-1) ** j for j in range(k)]
    lo, hi = sorted((math.fsum(terms[:-1]), math.fsum(terms)))
    if not (_close(rep.lower, lo, SERIES_RTOL) and _close(rep.upper, hi, SERIES_RTOL)):
        return f"bracket [{rep.lower!r}, {rep.upper!r}] is not partial sums {k - 1}, {k}"
    return None


_CHECKS = {"verify": _check_verify, "reference": _check_reference,
           "permutation": _check_residual, "contiguous": _check_residual,
           "riccati": _check_riccati, "convergents": _check_convergents,
           "series_to_cf": _check_series_to_cf, "contraction": _check_contraction,
           "series_eval": _check_series_eval}
_EXACT_KINDS = ("convergents", "series_to_cf", "contraction", "series_eval")


def _digest(kind: str, out) -> int:
    if kind == "convergents":
        return hash(tuple((c.p, c.q) for c in out))
    if kind == "series_eval":
        return hash((out.value, out.lower, out.upper, out.terms_used, out.status))
    return hash(tuple(out))


def check(op: Op, out) -> Optional[str]:
    """The benchmark's own verdict on one output.

    Exact outputs are checked in full the first time and compared by digest
    on later passes, since the same input must give the same output.
    """
    if op.kind in _EXACT_KINDS and op.digest is not None:
        return None if _digest(op.kind, out) == op.digest else "output differs from the checked first pass"
    reason = _CHECKS[op.kind](op, out)
    if reason is None and op.kind in _EXACT_KINDS:
        op.digest = _digest(op.kind, out)
    return reason


def span_counts(op: Op, out) -> dict:
    """Counts a traced op span carries: convergent bits and series terms."""
    if op.kind == "convergents":
        value = out[-1].value
        return {"bits": value.numerator.bit_length() + value.denominator.bit_length()}
    if op.kind == "series_to_cf":
        return {"terms": len(out)}
    if op.kind == "series_eval":
        return {"terms": out.terms_used}
    return {}
