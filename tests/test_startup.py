"""Exact and Riccati work never loads numpy, and the CLI loads no process
pool it does not start.  The test process has numpy loaded already, so the
check runs in a fresh isolated interpreter on this checkout's sources."""

import pathlib
import subprocess
import sys

import contfrac

SRC = str(pathlib.Path(contfrac.__file__).parents[1])

SCRIPT = """
import io, sys
from contextlib import redirect_stdout
from fractions import Fraction as F

sys.path.insert(0, sys.argv[1])
from contfrac import catalog, cli, core, quadrature, riccati, series

with redirect_stdout(io.StringIO()):
    assert cli.main(["convert", "series-to-cf", "--numerators", "1,1,1,1",
                     "--denominators", "1,3,5,7"]) == 0
    assert cli.main(["convert", "cf-to-series", "--family", "e-euler", "--depth", "40"]) == 0
    assert cli.main(["riccati", "--a", "1", "--b", "0", "--c", "1", "--m", "0"]) == 0
f3 = catalog.make_cf("F3", {"s": F(7, 3)})
core.convergent_sequence(f3, 200)
core.even_contraction(f3).take(50)
generic = series.series_to_cf(series.SeriesSpec.from_rules(lambda j: 1, lambda j: j * j + 1))
core.eval_float(generic, 1e-3, 1000)
assert catalog.verify(catalog.IdentityCase("e-euler", {}, 1e-12, 60)).passed
loaded = sorted({"numpy", "concurrent.futures.process"} & set(sys.modules))
assert not loaded, loaded

f2 = {"mu": F(1), "nu": F(2), "m": F(2), "n": F(1)}
assert catalog.verify(catalog.IdentityCase("F2", f2, 1e-5, 400_000)).passed
assert "numpy" in sys.modules
print("ok")
"""


def test_exact_and_riccati_work_loads_no_numpy():
    proc = subprocess.run([sys.executable, "-I", "-c", SCRIPT, SRC],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr
