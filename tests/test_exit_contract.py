"""The exit contract of ``voltmark full`` over the paper's experiment axes.

Any config ends in one of two ways: exit 0 or 4 with finite CSVs, or
exit 2 or 3 with a one-line message on stderr and no traceback.  The
property draws toy two-asset configs on an explicit grid of kernel
orders (roughness, with the Markovian edge alpha = 1) and correlations
(with the edges rho = -1, 0, 1), and the other per-asset parameters from
stated ranges.  Every run is in-process and at toy sizes.
"""

import contextlib
import io
import pathlib
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from voltmark import cli

ALPHAS = (0.55, 0.6, 0.75, 0.9, 1.0)
RHOS = (-1.0, -0.7, -0.3, 0.0, 0.5, 1.0)


def _asset_pair(strategy):
    return st.tuples(strategy, strategy)


def _ranged(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _config(alpha, rho, lam, nu, theta, c) -> str:
    def row(pair):
        return ", ".join(repr(float(v)) for v in pair)

    return f"""\
[model]
d = 2
alpha = {row(alpha)}
lam = {row(lam)}
nu = {row(nu)}
rho = {row(rho)}
theta = {row(theta)}
mu0 = 1.0, 1.5
c = {row(c)}
r = 0.02
x0 = 2.0

[grid]
T = 1.0
n = 20

[mc]
M = 20
seed = 3

[experiment]
m = 2.255
u = -0.05, -0.05
m_count = 2
frontier_horizons = 1.0
laplace_M = 20
stationarity_M = 20
output_dir = unused
"""


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(alpha=_asset_pair(st.sampled_from(ALPHAS)), rho=_asset_pair(st.sampled_from(RHOS)),
       lam=_asset_pair(_ranged(0.05, 5.0)), nu=_asset_pair(_ranged(0.0, 1.0)),
       theta=_asset_pair(_ranged(0.0, 0.5)), c=_asset_pair(_ranged(0.005, 0.5)))
def test_full_run_keeps_the_exit_contract(alpha, rho, lam, nu, theta, c):
    with tempfile.TemporaryDirectory() as tmp:
        config = pathlib.Path(tmp) / "toy.ini"
        config.write_text(_config(alpha, rho, lam, nu, theta, c), encoding="utf-8")
        out = pathlib.Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["full", "--config", str(config), "--out", str(out)])
        message = stderr.getvalue()
        assert "Traceback" not in message
        if code in (0, 4):
            csvs = sorted(out.glob("*.csv"))
            assert csvs
            for path in csvs:
                body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                assert np.all(np.isfinite(body)), path.name
        else:
            assert code in (2, 3)
            assert message.endswith("\n") and message.count("\n") == 1
