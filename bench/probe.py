"""Set-up probe: a fresh interpreter imports contfrac and runs one small op
of each kind the workload uses, then prints ``ready``.

Run as ``python3 -I bench/probe.py <workload> <src-dir>``; the parent times
it from spawn to the ``ready`` line.  The benchmark process calls
``warm_up`` itself before its timed passes.
"""

from __future__ import annotations

import sys


def warm_up(workload: str) -> None:
    from fractions import Fraction as F

    from contfrac import catalog, core, quadrature, riccati, series

    if workload == "suite":
        from contfrac import cli  # noqa: F401  (the suite is read as a CLI manifest)
    if workload in ("suite", "oracles"):
        catalog.verify(catalog.IdentityCase("F2", {"mu": F(1), "nu": F(2), "m": F(2), "n": F(1)},
                                            1e-5, 400_000))
        catalog.verify(catalog.IdentityCase("F12", {"a": F(1), "alpha": F(1), "b": F(1)},
                                            1e-8, 100_000))
    if workload == "oracles":
        catalog.reference_value("F5", {"f": F(3, 2), "h": F(5, 2), "r": F(1)})
        catalog.permutation_theorem_check(3.0, 2.5, 2.0, 1.0, 1.0, 0.5)
        quadrature.contiguous_relation_check(1.5, 0.5, -0.5, 1.0, 0.5, 1.0, 1)
        riccati.verify_riccati(riccati.RiccatiProblem(1, 0, 1, 0), 80, 1e-8)
    if workload == "exact":
        cf = catalog.make_cf("F3", {"s": F(7, 3)})
        core.convergent_sequence(cf, 20)
        core.even_contraction(cf).take(10)
        spec = series.SeriesSpec.from_lists([1, 2, 3], [4, 9, 25])
        series.series_to_cf(spec).take(3)
        core.eval_float(series.series_to_cf(
            series.SeriesSpec.from_rules(lambda j: 1, lambda j: j * j + 1)), 1e-3, 1000)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[2])
    warm_up(sys.argv[1])
    print("ready", flush=True)
