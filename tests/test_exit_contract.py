"""The exit contract of ``voltmark full`` over the paper's experiment axes.

Any config ends in one of two ways: exit 0 or 4 with finite CSVs and
that status in manifest.json, or exit 2 or 3 with a one-line message on
stderr and no traceback.  The property draws toy configs of d = 1, 2 or
3 assets, each on an explicit grid of kernel orders (roughness, with the
Markovian edge alpha = 1) and correlations (with the edges rho = -1, 0,
1), and the other per-asset parameters from stated ranges.  The grid
has 20 or 70 cells; 70 crosses a block boundary of the path engine and
has a far field.  Every run is in-process and at toy sizes.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voltmark import cli

ALPHAS = (0.55, 0.6, 0.75, 0.9, 1.0)
RHOS = (-1.0, -0.7, -0.3, 0.0, 0.5, 1.0)
MU0 = (1.0, 1.5, 2.0)


def _ranged(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _configs(draw) -> str:
    d = draw(st.sampled_from((1, 2, 3)))
    n = draw(st.sampled_from((20, 70)))   # 70 crosses a 64-cell block boundary

    def row(strategy):
        return ", ".join(repr(float(v)) for v in draw(st.lists(strategy, min_size=d, max_size=d)))

    return f"""\
[model]
d = {d}
alpha = {row(st.sampled_from(ALPHAS))}
lam = {row(_ranged(0.05, 5.0))}
nu = {row(_ranged(0.0, 1.0))}
rho = {row(st.sampled_from(RHOS))}
theta = {row(_ranged(0.0, 0.5))}
mu0 = {", ".join(map(str, MU0[:d]))}
c = {row(_ranged(0.005, 0.5))}
r = 0.02
x0 = 2.0

[grid]
T = 1.0
n = {n}

[mc]
M = 20
seed = 3

[experiment]
m = 2.255
u = {", ".join(["-0.05"] * d)}
m_count = 2
frontier_horizons = 1.0
laplace_M = 20
stationarity_M = 20
output_dir = unused
"""


def _bundled(old: str, new: str) -> str:
    """The bundled config at n = 20 with 20 paths per stream, old replaced by new."""
    text = (cli._DEFAULT_CONFIG.replace("n = 600", "n = 20").replace("M = 5000", "M = 20")
            .replace("stationarity_M = 10000", "stationarity_M = 20"))
    assert old in text
    return text.replace(old, new)


# one number each beyond the floats: the riskless level m0 (T), the
# stabilizer's limit (lam, small and large) and the frontier targets
DEGENERATE = {
    "T": _bundled("T = 1.0", "T = 1e300"),
    "lam-small": _bundled("lam = 0.2, 0.2", "lam = 1e-300, 0.2"),
    "lam-large": _bundled("lam = 0.2, 0.2", "lam = 1e300, 0.2"),
    "horizon": _bundled("frontier_horizons = 0.5, 1.0, 5.0", "frontier_horizons = 1e6"),
}


def _full(config_text: str, tmp: str) -> tuple:
    """(exit code, stderr, output directory) of ``voltmark full`` on config_text."""
    config = pathlib.Path(tmp) / "toy.ini"
    config.write_text(config_text, encoding="utf-8")
    out = pathlib.Path(tmp) / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["full", "--config", str(config), "--out", str(out)])
    return code, stderr.getvalue(), out


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(config_text=_configs())
@example(config_text=DEGENERATE["T"])
@example(config_text=DEGENERATE["lam-small"])
@example(config_text=DEGENERATE["lam-large"])
@example(config_text=DEGENERATE["horizon"])
def test_full_run_keeps_the_exit_contract(config_text):
    with tempfile.TemporaryDirectory() as tmp:
        code, message, out = _full(config_text, tmp)
        assert "Traceback" not in message
        if code in (0, 4):
            csvs = sorted(out.glob("*.csv"))
            assert csvs
            for path in csvs:
                body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                assert np.all(np.isfinite(body)), path.name
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            assert manifest["status"] == code
        else:
            assert code in (2, 3)
            assert message.endswith("\n") and message.count("\n") == 1


@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_config_fails_before_the_first_stage_writes(name, tmp_path):
    # the rule that refuses the number is applied up front, so the run
    # writes nothing and gives one config error line
    code, message, out = _full(DEGENERATE[name], str(tmp_path))
    assert code == 2 and message.startswith("config error: ") and message.count("\n") == 1
    assert list(out.iterdir()) == []
