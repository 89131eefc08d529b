"""CLI configuration validation, artifacts, and reproducibility."""

import ast
import dataclasses
import json
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import voltmark
from conftest import (
    child_env,
    child_peak_kib,
    folded_integrals,
    spoil_integrals,
    stationarity,
    stream,
    wealth_pairs,
)
from voltmark.cli import ConfigError, RunContext, _DEFAULT_CONFIG, load_config, main
from voltmark.model import Grid, bundled_model

TINY = """\
[model]
d = 1
alpha = 0.7
lam = 0.3
nu = 0.5
rho = -0.5
theta = 0.2
mu0 = 1.5
c = 0.02
r = 0.02
x0 = 2.0

[grid]
T = 1.0
n = 40

[mc]
M = 120
seed = 11

[experiment]
m = 2.1
u = -0.05
m_count = 2
frontier_horizons = 1.0
laplace_M = 120
stationarity_M = 120
output_dir = unused
"""


def _write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_default_config_matches_bundled_table():
    # the bundled config and bundled_model state one model
    cfg = load_config(_DEFAULT_CONFIG)
    model, bundled = RunContext.build(cfg).model, bundled_model(T=1.0)
    for f in dataclasses.fields(bundled):
        assert np.array_equal(getattr(model, f.name), getattr(bundled, f.name)), f.name
    assert cfg["m"] == 2.255
    assert cfg["n"] == 600


def test_missing_field_reports_path():
    with pytest.raises(ConfigError, match="model.alpha"):
        load_config("[model]\nd = 2\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="model.bogus"):
        load_config(TINY.replace("d = 1", "d = 1\nbogus = 1"))
    # the series term cap is no model input, so [riccati] left the schema
    with pytest.raises(ConfigError, match=r"unknown config section \[riccati\]"):
        load_config(TINY + "\n[riccati]\ntruncation_K = 120\n")


def test_saved_riccati_section_exit_code(tmp_path, capsys):
    # a config saved by an earlier print-config fails with one line
    path = _write(tmp_path, TINY + "\n[riccati]\ntruncation_K = 120\n")
    assert main(["stabilizer", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "config error: unknown config section [riccati]"


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="extra"):
        load_config(TINY + "\n[extra]\nx = 1\n")


def test_wrong_vector_length_rejected():
    bad = TINY.replace("alpha = 0.7", "alpha = 0.7, 0.9")
    with pytest.raises(ConfigError, match="model.alpha"):
        load_config(bad)


def test_wrong_u_length_exit_code(tmp_path, capsys):
    path = _write(tmp_path, TINY.replace("u = -0.05", "u = -0.05, -0.05"))
    assert main(["laplace", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "experiment.u" in err


def test_saved_n_boot_exit_code(tmp_path, capsys):
    # a config saved by an earlier print-config sets the bootstrap's
    # resample count, which no statistic reads any more
    path = _write(tmp_path, TINY.replace("seed = 11\n", "seed = 11\nn_boot = 1000\n"))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "config error: unknown config key mc.n_boot"


@pytest.mark.parametrize("command, old, new", [
    ("simulate", "M = 120", "M = -5"),
    ("frontier", "M = 120", "M = -5"),
    ("frontier", "M = 120", "M = 0"),
    ("wealth", "M = 120", "M = 1"),
    ("laplace", "laplace_M = 120", "laplace_M = -3"),
    ("full", "stationarity_M = 120", "stationarity_M = 1"),
])
def test_too_few_paths_exit_code(tmp_path, capsys, command, old, new):
    # a Monte Carlo spread needs two paths: a configuration error with
    # one line naming the key, not a traceback
    path = _write(tmp_path, TINY.replace(old, new))
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip()
    key = new.split(" = ")[0]
    assert len(err.splitlines()) == 1 and err.startswith("config error")
    assert f".{key}: expected >= 2 paths" in err


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_output_path_through_a_file_exit_code(tmp_path, capsys, below):
    # --out naming a file, or a path below one, is a configuration error
    # with one line, not a FileExistsError or NotADirectoryError traceback
    path = _write(tmp_path, TINY)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "o" if below else blocker
    assert main(["riccati", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("config error")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command, line, extra, message", [
    ("simulate", "seed = -5", [], "mc.seed: expected >= 0"),
    ("frontier", "seed = 11", ["--seed", "-5"], "--seed: expected >= 0"),
    ("laplace", "seed = 11", ["--seed", "-5"], "--seed: expected >= 0"),
    ("frontier", "m_count = -1", [], "experiment.m_count: expected >= 1"),
    ("frontier", "m_count = 0", [], "experiment.m_count: expected >= 1"),
], ids=["mc.seed", "--seed-frontier", "--seed-laplace", "m_count=-1", "m_count=0"])
def test_bad_seed_or_target_count_exit_code(tmp_path, capsys, command, line, extra, message):
    # a negative seed used to end in numpy's traceback, m_count = -1 in
    # np.linspace's, and m_count = 0 in exit 0 with a header-only CSV
    key = line.split(" = ")[0]
    path = _write(tmp_path, re.sub(rf"^{key} = .*$", line, TINY, flags=re.M))
    out = tmp_path / "o"
    assert main([command, "--config", path, "--out", str(out)] + extra) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("config error") and message in err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("M = abc", "mc.M: cannot parse 'abc' as an integer"),
    ("T = x", "grid.T: cannot parse 'x' as a number"),
    ("d = 2.5", "model.d: cannot parse '2.5' as an integer"),
], ids=["M", "T", "d"])
def test_malformed_scalar_exit_code(tmp_path, capsys, line, message):
    # configparser's getint/getfloat used to end these in a ValueError traceback
    key = line.split(" = ")[0]
    path = _write(tmp_path, re.sub(rf"^{key} = .*$", line, TINY, flags=re.M))
    assert main(["riccati", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {message}"


def test_laplace_positive_u_exit_code(tmp_path, capsys, started_streams):
    # u <= 0 is checked before any path is drawn: no stream is started
    cfg_text = re.sub(r"^u = .*$", "u = 0.01, -0.05", _two_assets(TINY), flags=re.M)
    out = tmp_path / "o"
    assert main(["laplace", "--config", _write(tmp_path, cfg_text), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("config error") and "u must be <= 0" in err
    assert not (out / "laplace_check.csv").exists()
    assert started_streams == []


def test_frontier_degenerate_market_exit_code(tmp_path, capsys, started_streams):
    # theta = 0 puts Gamma0 at e^(2rT), where no target above m0 is priced;
    # the frontier refuses its targets before any path is drawn
    cfg_text = re.sub(r"^theta = .*$", "theta = 0.0, 0.0", _two_assets(TINY), flags=re.M)
    out = tmp_path / "o"
    assert main(["frontier", "--config", _write(tmp_path, cfg_text), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("config error") and "degenerate" in err
    assert not (out / "frontier.csv").exists()
    assert started_streams == []


@pytest.mark.parametrize("line, message", [
    ("u = 0.05, -0.05", "u must be <= 0"),
    ("u = nan, -0.05", "u must be <= 0"),
    ("m = 1.5", "below the riskless level"),
    ("frontier_horizons = 0.5, 1.0, -5", "horizon T must be > 0"),
], ids=["u", "u-nan", "m", "horizon"])
def test_late_stage_config_error_writes_nothing(tmp_path, capsys, line, message):
    # full used to run every stage before the Laplace one refused u (or
    # blew up on a NaN in it, exit 3), the stages before the wealth one
    # before it refused m < m0, and the frontiers before the one at a
    # negative horizon, writing their CSVs
    key = line.split(" = ")[0]
    cfg_text = re.sub(rf"^{key} = .*$", line, _two_assets(TINY), flags=re.M)
    out = tmp_path / "o"
    assert main(["full", "--config", _write(tmp_path, cfg_text), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("config error") and message in err
    assert list(out.iterdir()) == []


def test_missing_field_exit_code(tmp_path):
    path = _write(tmp_path, "[model]\nd = 2\n")
    assert main(["riccati", "--config", path]) == 2


def test_riccati_zero_theta_writes_zero_csv(tmp_path):
    cfg = TINY.replace("theta = 0.2", "theta = 0.0")
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["riccati", "--config", path, "--out", str(out)]) == 0
    rows = (out / "riccati_psi.csv").read_text().splitlines()
    assert rows[0] == "t,psi1"
    psi = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.all(psi == 0.0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "riccati"
    assert len(manifest["config_sha256"]) == 64


def test_simulate_reproducible_and_dump(tmp_path):
    path = _write(tmp_path, TINY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", path, "--out", str(out1), "--dump-paths"]) == 0
    assert main(["simulate", "--config", path, "--out", str(out2), "--dump-paths"]) == 0
    for name in ("variance_stats_asset1.csv", "paths.bin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    with open(out1 / "paths.bin", "rb") as fh:
        hdr = np.fromfile(fh, dtype="<i8", count=3)
        T = np.fromfile(fh, dtype="<f8", count=1)
        V = np.fromfile(fh, dtype="<f8")
    assert list(hdr) == [120, 1, 40]
    assert T[0] == 1.0
    assert V.shape == (120 * 1 * 41,)


def test_dump_paths_is_path_asset_time_row_major(tmp_path, started_streams):
    # V is stored time-major; the dump, written block by block from the one
    # stream that the statistics fold, still holds the whole ensemble's
    # (path, asset, time)
    from voltmark.simulate import _CHUNK_PATHS, simulate_variance_paths

    M = _CHUNK_PATHS + 5
    cfg_text = _DEFAULT_CONFIG.replace("M = 5000", f"M = {M}").replace("n = 600", "n = 30")
    path = _write(tmp_path, cfg_text)
    out = tmp_path / "o"
    assert main(["simulate", "--config", path, "--out", str(out), "--dump-paths"]) == 0
    assert len(started_streams) == 1
    run = RunContext.build(load_config(cfg_text))
    ens = simulate_variance_paths(run.model, run.stabs, run.grid, M, run.cfg["seed"],
                                  initial="stationary", increments=False)
    assert ens.V.shape == (M, 2, 31) and not ens.V.flags.c_contiguous
    body = (out / "paths.bin").read_bytes()[32:]  # after the 3 int64 + 1 float64 header
    assert body == np.ascontiguousarray(ens.V).tobytes()


def _two_assets(cfg_text: str) -> str:
    """A config with TINY's sizes and two assets."""
    for key, value in (("d", "2"), ("alpha", "0.7, 0.9"), ("lam", "0.3, 0.2"),
                       ("nu", "0.5, 0.3"), ("rho", "-0.5, -0.6"), ("theta", "0.2, 0.1"),
                       ("mu0", "1.5, 1.0"), ("c", "0.02, 0.03"), ("u", "-0.05, -0.05")):
        cfg_text = re.sub(rf"^{key} = .*$", f"{key} = {value}", cfg_text, flags=re.M)
    return cfg_text


def test_each_statistic_folds_each_chunk_once(tmp_path, monkeypatch):
    # every statistic folds each of its chunks once: the stationarity
    # stage one per asset, the wealth stage X and each strategy, and the
    # frontier one per horizon for all of its targets
    from voltmark import montecarlo

    folds = []
    real = montecarlo.ColumnMoments.add

    def spy(self, x, *scratch):
        folds.append(np.shape(x))
        return real(self, x, *scratch)

    monkeypatch.setattr(montecarlo.ColumnMoments, "add", spy)
    path = _write(tmp_path, _DEFAULT_CONFIG.replace("M = 5000", "M = 60")
                  .replace("n = 600", "n = 20"))
    main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert folds == [(60, 21)] * 2

    folds.clear()
    cfg_text = _two_assets(TINY.replace("frontier_horizons = 1.0",
                                        "frontier_horizons = 0.5, 1.0, 5.0")
                           .replace("stationarity_M = 120", "stationarity_M = 90"))
    path = _write(tmp_path, cfg_text)
    assert main(["full", "--config", path, "--out", str(tmp_path / "full")]) in (0, 4)
    assert folds == [(90, 41)] * 2 + [(120, 41), (120, 40), (120, 40)] + [(120, 2)] * 3


def test_wealth_drops_its_paths_before_the_statistics(tmp_path, monkeypatch):
    # the wealth stage takes the paths block by block, never as a whole
    # ensemble: it folds each chunk's wealth and strategies per block of
    # steps while it steps that chunk, and lets the chunk go before the
    # next one; the maps of its stream (engine scratch, row store, wealth
    # buffers) are its largest arrays, and none of them is alive by the
    # time the statistics are taken
    from voltmark import markowitz, montecarlo, simulate

    chunks, refs, alive, whole = [], [], [], []
    real_stream = simulate.fold_stream
    real_add, real_stats = montecarlo.ColumnMoments.add, montecarlo.ColumnMoments.stats

    def stream_spy(model, stabs, grid, M, seed, folds, **kwargs):
        # a first fold of the stream's own sees each chunk and keeps no reference to it
        def record(chunk, lo, V, dB):
            if lo == 0:
                chunks.append(weakref.ref(chunk))

        record.increments = False
        return real_stream(model, stabs, grid, M, seed, [record, *folds], **kwargs)

    def mapped_spy(real):
        def wrapped(shape):
            arr = real(shape)
            refs.append(weakref.ref(arr))
            return arr
        return wrapped

    def add_spy(self, x, *scratch):
        alive.append(("add", [ref() is not None for ref in chunks]))
        return real_add(self, x, *scratch)

    def stats_spy(self):
        alive.append(("stats", [ref() is not None for ref in chunks + refs]))
        return real_stats(self)

    monkeypatch.setattr(simulate, "fold_stream", stream_spy)
    monkeypatch.setattr(simulate, "simulate_variance_paths", lambda *a, **k: whole.append(a))
    for module in (simulate, markowitz):
        monkeypatch.setattr(module, "_mapped", mapped_spy(module._mapped))
    monkeypatch.setattr(montecarlo.ColumnMoments, "add", add_spy)
    monkeypatch.setattr(montecarlo.ColumnMoments, "stats", stats_spy)
    two_chunks = f"M = {simulate._CHUNK_PATHS + 5}"
    path = _write(tmp_path, _two_assets(TINY).replace("M = 120", two_chunks))
    assert main(["wealth", "--config", path, "--out", str(tmp_path / "o")]) in (0, 4)
    # X and two strategies per chunk (one block of steps), then their
    # three statistics; the stream mapped each asset's 6 scratch and 2
    # factor buffers, the 2 row stores, the 2 fold buffers and a tile
    # buffer per path range
    assert len(refs) >= 2 * 8 + 2 + 2 + 1
    assert whole == [] and alive == ([("add", [True])] * 3 + [("add", [False, True])] * 3
                                     + [("stats", [False] * (2 + len(refs)))] * 3)


def test_v_only_stages_skip_the_increments(tmp_path, monkeypatch, started_streams):
    # the stationarity and Laplace stages read V alone, so the engine draws
    # them no Brownian increments; the wealth stage keeps them.  The
    # runners share the context's streams: the wealth stage's fold is new
    # on the Laplace stream, which has run, so it draws it again, and the
    # frontier reads the wealth stage's (A_T, B_T)
    from voltmark import cli, simulate

    whole, real = [], simulate.simulate_variance_paths
    monkeypatch.setattr(simulate, "simulate_variance_paths",
                        lambda *args, **kwargs: whole.append(args) or real(*args, **kwargs))
    run = RunContext.build(load_config(TINY))
    for runner in (cli.run_simulate, cli.run_laplace, cli.run_wealth, cli.run_frontier):
        runner(run, str(tmp_path))
    # every stage takes the paths block by block
    assert whole == []
    assert [started.increments for started in started_streams] == [False, False, True]


def test_manifest_records_thread_cap_and_chunk_size(tmp_path, monkeypatch):
    # the CSV bits depend on the BLAS thread cap, the paths per chunk and
    # the engine's bit generator
    from voltmark import simulate

    path = _write(tmp_path, TINY)
    for cap in (None, 3):
        monkeypatch.setattr(voltmark, "_blas_threads", cap)
        out = tmp_path / f"cap{cap}"
        assert main(["riccati", "--config", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blas_threads"] == cap
        assert manifest["chunk_paths"] == simulate._CHUNK_PATHS == 4096
        assert manifest["bit_generator"] == simulate._BIT_GENERATOR.__name__ == "SFC64"


def test_seed_override_changes_output(tmp_path):
    path = _write(tmp_path, TINY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out2), "--seed", "999"]) == 0
    a = (out1 / "variance_stats_asset1.csv").read_text()
    b = (out2 / "variance_stats_asset1.csv").read_text()
    assert a != b
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["parameters"]["seed"] == 999


def test_wealth_and_frontier_smoke(tmp_path):
    path = _write(tmp_path, TINY)
    out = tmp_path / "out"
    assert main(["wealth", "--config", path, "--out", str(out)]) == 0
    header = (out / "wealth_stats.csv").read_text().splitlines()[0]
    assert header.startswith("t,X_mean,X_ci_low,X_ci_high,alpha1_mean")
    assert main(["frontier", "--config", path, "--out", str(out)]) == 0
    rows = (out / "frontier.csv").read_text().splitlines()
    assert rows[0].startswith("m,sigma_theoretical,sigma_mc,mc_se")
    assert len(rows) == 3  # m_count = 2
    # mc_se is the delta-method SE of sigma_mc beside it, not v_mc_se
    tab = np.loadtxt(out / "frontier.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(tab[:, 3], tab[:, 6] / (2.0 * tab[:, 2]), rtol=1e-10)


def test_wealth_riskless_target_passes(tmp_path, capsys):
    # at m = m0 = x0 e^(rT) the optimal wealth is riskless: every path
    # ends where the Euler compounding (1 + r dt)^n does, 6.7e-7 below m0,
    # and the SE of E[X_T] collapses to rounding size.  The gate takes
    # equality to 1e-6 relative for a pass, with z = 0
    m0 = float(bundled_model(T=1.0).m0)
    path = _write(tmp_path, _DEFAULT_CONFIG.replace("m = 2.255", f"m = {m0!r}")
                  .replace("M = 5000", "M = 300"))
    assert main(["wealth", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert "(z=0.00)" in capsys.readouterr().out


def test_laplace_smoke(tmp_path):
    path = _write(tmp_path, TINY)
    out = tmp_path / "out"
    assert main(["laplace", "--config", path, "--out", str(out)]) == 0
    body = (out / "laplace_check.csv").read_text().splitlines()
    assert body[0] == "mc_value,mc_se,closed_form,z_score,beta"


def test_print_config_round_trips(capsys):
    assert main(["print-config"]) == 0
    text = capsys.readouterr().out
    assert load_config(text)["m"] == 2.255


def test_package_main_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "voltmark", "print-config"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == _DEFAULT_CONFIG


def test_threads_variable_reaches_blas():
    # the package applies VOLTMARK_THREADS on import, before numpy loads,
    # over the generic variables, and the path engine reads the cap back
    code = ("import os, voltmark.simulate as s; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), s._BLAS_THREADS)")
    env = dict(child_env(), OPENBLAS_NUM_THREADS="4")
    for value, expected in (("1", "1 1"), ("3", "3 3"), ("", "4 None")):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(env, VOLTMARK_THREADS=value))
        assert proc.returncode == 0 and proc.stdout.strip() == expected, proc.stderr


def _peak_mb(argv) -> float:
    """VmHWM of a child interpreter that runs ``main(argv)`` to exit 0, in MB."""
    _, after = child_peak_kib(
        "import contextlib, io\n"
        "from voltmark.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n", "", VOLTMARK_THREADS="1")
    return after / 1024


def _growth_from_one_to_four_chunks(tmp_path, command: str, n: int, extra=()) -> tuple:
    """Peaks of ``command`` on the bundled config at M = C and 4 C paths
    (C = ``_CHUNK_PATHS``) and n steps, with the budget the test holds
    their difference to: half of 3 C d (n+1) doubles, the V of the three
    chunks more."""
    from voltmark.simulate import _CHUNK_PATHS as C

    d = 2
    peak_mb = []
    for M in (C, 4 * C):
        cfg_text = _DEFAULT_CONFIG.replace("M = 5000", f"M = {M}").replace("n = 600", f"n = {n}")
        for old, new in extra:
            cfg_text = cfg_text.replace(old, new)
        path = _write(tmp_path, cfg_text, name=f"cfg{M}.ini")
        peak_mb.append(_peak_mb([command, "--config", path, "--out", str(tmp_path / f"o{M}")]))
    return peak_mb, 3 * C * d * (n + 1) * 8 / 2**20 / 2


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
def test_frontier_memory_does_not_grow_with_paths(tmp_path):
    # frontier keeps (A_T, B_T) per path and drops each chunk of paths, so
    # three more chunks must add far less than holding their paths would:
    # 3 C d (n+1) doubles for V alone, and about as much again for dB
    peak_mb, budget_mb = _growth_from_one_to_four_chunks(
        tmp_path, "frontier", 200, [("m_count = 8", "m_count = 2")])
    assert peak_mb[1] - peak_mb[0] < budget_mb, peak_mb


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
def test_wealth_holds_no_chunk_of_wealth_paths(tmp_path):
    # wealth folds X and the strategies per block of steps, in buffers of
    # one block mapped once per stream, so on one chunk it may peak above
    # frontier, which keeps only (A_T, B_T), by far less than that chunk's
    # X and alpha: C (n+1) + C d n doubles
    from voltmark.simulate import _CHUNK_PATHS as C

    d, n = 2, 600
    path = _write(tmp_path, _DEFAULT_CONFIG.replace("M = 5000", f"M = {C}")
                  .replace("m_count = 8", "m_count = 2"))
    wealth, frontier = (_peak_mb([command, "--config", path, "--out", str(tmp_path / command)])
                        for command in ("wealth", "frontier"))
    assert wealth - frontier < (C * (n + 1) + C * d * n) * 8 / 2**20 / 2, (wealth, frontier)


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
def test_dump_holds_no_paths_beside_the_file(tmp_path):
    # --dump-paths writes each block of the stream that simulate folds into
    # the file's mapped body, so on the bundled config its peak may exceed
    # simulate's by that body's pages and 5 MB more: no chunk of V, nor a
    # path-major copy of one, is held on the side
    cfg = load_config(_DEFAULT_CONFIG)
    plain, dump = (_peak_mb(["simulate", "--out", str(tmp_path / name), *flag])
                   for name, flag in (("plain", []), ("dump", ["--dump-paths"])))
    body_mb = 8 * cfg["M"] * cfg["d"] * (cfg["n"] + 1) / 2**20
    assert dump - plain <= body_mb + 5, (plain, dump, body_mb)


@pytest.mark.parametrize("cpus", [1, 2])
def test_wealth_stats_keep_the_bits_of_whole_paths(tmp_path, monkeypatch, cpus):
    # the block fold writes the bytes of whole-path arrays folded chunk by
    # chunk, on one worker or two: n = 150 leaves a last block of 22 steps,
    # and M = C + 5 a second chunk
    from oracles import whole_path_wealth_stats
    from voltmark import cli, simulate

    monkeypatch.setattr(simulate, "_BLAS_THREADS", 1)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
    M = simulate._CHUNK_PATHS + 5
    cfg_text = _DEFAULT_CONFIG.replace("M = 5000", f"M = {M}").replace("n = 600", "n = 150")
    out = tmp_path / "o"
    assert main(["wealth", "--config", _write(tmp_path, cfg_text), "--out", str(out)]) in (0, 4)
    run = RunContext.build(load_config(cfg_text))
    xstats, astats = whole_path_wealth_stats(run.model, run.stabs, run.grid, M,
                                             run.cfg["seed"], run.cfg["m"])
    cols = [run.grid.times, xstats.mean, xstats.ci_low, xstats.ci_high]
    header = ["t", "X_mean", "X_ci_low", "X_ci_high"]
    for i, st in enumerate(astats):
        cols += [np.append(col, col[-1]) for col in (st.mean, st.ci_low, st.ci_high)]
        header += [f"alpha{i + 1}_mean", f"alpha{i + 1}_ci_low", f"alpha{i + 1}_ci_high"]
    cli.write_csv(str(tmp_path / "oracle.csv"), header, zip(*cols))
    assert (out / "wealth_stats.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", [150, 65])
def test_block_folds_keep_the_bits_of_whole_chunks(tmp_path, monkeypatch, n, cpus):
    # the stationarity, frontier and Laplace stages fold the block stream,
    # and write the bytes of the same statistics over whole chunks, on one
    # worker or two: n = 150 leaves a last block of 22 cells, n = 65 one
    # of a single cell, and M = C + 5 a second chunk
    from oracles import whole_chunk_integrals, whole_chunk_terminal, whole_chunk_variance_stats
    from voltmark import cli, markowitz, montecarlo, riccati, simulate

    monkeypatch.setattr(simulate, "_BLAS_THREADS", 1)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
    M = simulate._CHUNK_PATHS + 5      # mc.M and laplace_M
    cfg_text = (_DEFAULT_CONFIG.replace("M = 5000", f"M = {M}").replace("n = 600", f"n = {n}")
                .replace("m_count = 8", "m_count = 2"))
    path, out, ref = _write(tmp_path, cfg_text), tmp_path / "o", tmp_path / "ref"
    for command in ("simulate", "frontier", "laplace"):
        assert main([command, "--config", path, "--out", str(out)]) in (0, 4)
    run = RunContext.build(load_config(cfg_text))
    model, stabs, grid, seed = run.model, run.stabs, run.grid, run.cfg["seed"]
    ref.mkdir()
    for i, st in enumerate(whole_chunk_variance_stats(model, stabs, grid, M, seed)):
        cli.write_csv(str(ref / f"variance_stats_asset{i + 1}.csv"),
                      ["t", "mean", "variance", "ci_low", "ci_high"],
                      zip(grid.times, st.mean, st.variance, st.ci_low, st.ci_high))
    points = montecarlo.frontier_report(model, stabs, grid, montecarlo.frontier_m_grid(model, 2),
                                        lambda: whole_chunk_terminal(model, stabs, grid, M, seed))
    cli.write_csv(str(ref / "frontier.csv"),
                  ["m", "sigma_theoretical", "sigma_mc", "mc_se", "v_theory", "v_mc", "v_mc_se"],
                  [(p.m, p.sigma_theory, p.sigma_mc, p.sigma_mc_se, p.v_theory, p.v_mc, p.v_mc_se)
                   for p in points])
    rep = markowitz.laplace_report(model, stabs, run.cfg["u"], grid,
                                   whole_chunk_integrals(model, stabs, grid, M, seed))
    cli.write_csv(str(ref / "laplace_check.csv"),
                  ["mc_value", "mc_se", "closed_form", "z_score", "beta"],
                  [(rep.mc_value, rep.mc_se, rep.closed_form, rep.z_score, rep.beta)])
    names = sorted(p.name for p in ref.iterdir())
    assert len(names) == 4
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    # and below the CSVs' 12 digits, bit for bit: the statistics, each
    # chunk's (A_T, B_T) and its Laplace time integrals
    fixed = dict(initial="fixed")
    folded = stationarity(stream(model, stabs, grid, M, seed), model)
    for got, want in zip(folded.stats, whole_chunk_variance_stats(model, stabs, grid, M, seed)):
        for name in ("mean", "variance", "mean_se", "var_se"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    sol = riccati.solve_riccati_adams(model, stabs, grid.n)
    pairs = wealth_pairs(model, sol, stabs, stream(model, stabs, grid, M, seed, **fixed))
    for got, want in zip(pairs, whole_chunk_terminal(model, stabs, grid, M, seed), strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    totals = folded_integrals(stream(model, stabs, grid, M, seed, **fixed))
    for got, want in zip(totals, whole_chunk_integrals(model, stabs, grid, M, seed), strict=True):
        assert np.array_equal(got, want)


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
def test_stationarity_memory_does_not_grow_with_paths(tmp_path):
    # simulate folds each chunk's V into per-time moments and drops it,
    # so three more chunks must add far less than their V
    peak_mb, budget_mb = _growth_from_one_to_four_chunks(tmp_path, "simulate", 100)
    assert peak_mb[1] - peak_mb[0] < budget_mb, peak_mb


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
@pytest.mark.parametrize("command, arrays", [("frontier", 2), ("wealth", 2), ("simulate", 1)])
def test_block_stream_memory_does_not_grow_with_steps(tmp_path, command, arrays):
    # no stage holds a chunk's V or dB: from n = 200 to 800 steps on one
    # chunk, the peak may grow by less than a quarter of what a chunk's
    # arrays would add, 8 d C 600 bytes for V and as many for dB.  The
    # engine keeps the far field's history, k rows per path of each asset
    # for each finished 64-cell block, as whole chunks did; it grows about
    # 27 % as fast as V, so without dB (simulate) the quarter is that of V
    # and the history together, the growth of a whole chunk of V
    from voltmark.kernels import fractional_kernel
    from voltmark.simulate import _BLOCK, _CHUNK_PATHS as C, build_gaussian_factor

    cfg = load_config(_DEFAULT_CONFIG)
    d = cfg["d"]

    def history_rows(n):
        return sum((n - 1) // _BLOCK * build_gaussian_factor(
            fractional_kernel(a), Grid(cfg["T"], n)).far_rank for a in cfg["alpha"])

    rows = arrays * d * 600 + (history_rows(800) - history_rows(200) if arrays == 1 else 0)
    peak_mb = []
    for n in (200, 800):
        path = _write(tmp_path, _DEFAULT_CONFIG.replace("M = 5000", f"M = {C}")
                      .replace("n = 600", f"n = {n}").replace("m_count = 8", "m_count = 2"),
                      name=f"cfg{n}.ini")
        peak_mb.append(_peak_mb([command, "--config", path, "--out", str(tmp_path / f"o{n}")]))
    assert peak_mb[1] - peak_mb[0] < 8 * C * rows / 2**20 / 4, (peak_mb, rows)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "voltmark.cli", "print-config"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert "[model]" in proc.stdout


def test_import_loads_no_quadrature():
    # the package is numpy-only: kernels computes Gamma and the Gauss
    # rules itself, so importing the command line loads no scipy module
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, voltmark.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=child_env(), check=True)
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    # scipy is a test-only dependency: no module of the package imports
    # it, at the top or inside a function
    importers = set()
    for path in Path(voltmark.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.name)
    assert importers == set()


def test_full_runs_without_scipy(tmp_path):
    # a child that cannot import scipy runs every stage of full; this
    # also catches an import inside a function, which importing misses
    path = _write(tmp_path, TINY)
    out = tmp_path / "out"
    code = ("import sys; sys.modules['scipy'] = None; from voltmark import cli; "
            f"sys.exit(cli.main(['full', '--config', {path!r}, '--out', {str(out)!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode in (0, 4), proc.stderr
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == 6
    for csv in csvs:
        assert np.all(np.isfinite(np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2))), csv.name
    assert "scipy" not in json.loads((out / "manifest.json").read_text())


def test_src_keeps_only_the_listed_caches():
    # a per-process cache keeps state between calls, so src/ holds only
    # those whose traffic was measured: riccati's solve memo (see its
    # comment) and the rules that depend on constants alone.  A cache
    # added anywhere, as a decorator or a call, must be listed here
    names = {"lru_cache", "cache", "cached_property"}
    decorated, uses = set(), 0
    for path in Path(voltmark.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            uses += (isinstance(node, ast.Name) and node.id in names) or \
                (isinstance(node, ast.Attribute) and node.attr in names)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(dec, "id", getattr(dec, "attr", None)) in names:
                        decorated.add(f"{path.stem}.{node.name}")
    assert decorated == {"riccati._solve_memo", "kernels._legendre_rule", "kernels._jacobi_rule",
                         "kernels._parabola_nodes", "stabilizer._graded_rule"}
    assert uses == len(decorated)


def test_full_mode_smoke(tmp_path):
    # wiring check at toy sizes; the statistical gates may legitimately
    # trip at M = 120, so only exit codes 0/4 are acceptable
    path = _write(tmp_path, TINY)
    out = tmp_path / "out"
    code = main(["full", "--config", path, "--out", str(out)])
    assert code in (0, 4)
    for name in ("stabilizer_asset1.csv", "riccati_psi.csv", "wealth_stats.csv",
                 "frontier_T1.csv", "laplace_check.csv", "manifest.json"):
        assert (out / name).exists()


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
def test_manifest_records_each_stage(tmp_path, capsys):
    # one record per stage in run order, each with a finite wall time and
    # the peak resident set at its end, which never falls; a lone command
    # is one stage of its own name.  Stdout stays the stages' summary
    path = _write(tmp_path, TINY.replace("frontier_horizons = 1.0", "frontier_horizons = 0.5, 1.0"))
    assert main(["full", "--config", path, "--out", str(tmp_path / "full")]) in (0, 4)
    assert "wall_s" not in capsys.readouterr().out
    stages = json.loads((tmp_path / "full" / "manifest.json").read_text())["stages"]
    assert [st["name"] for st in stages] == ["stabilizer", "riccati", "stationarity", "wealth",
                                             "frontier_T0.5", "frontier_T1", "laplace"]
    for st in stages:
        assert sorted(st) == ["name", "vmhwm_mb", "wall_s"]
        assert np.isfinite(st["wall_s"]) and st["wall_s"] >= 0.0
        assert np.isfinite(st["vmhwm_mb"]) and st["vmhwm_mb"] > 0.0
    peaks = [st["vmhwm_mb"] for st in stages]
    assert peaks == sorted(peaks)
    assert main(["laplace", "--config", path, "--out", str(tmp_path / "alone")]) in (0, 4)
    alone = json.loads((tmp_path / "alone" / "manifest.json").read_text())["stages"]
    assert [st["name"] for st in alone] == ["laplace"]


def test_full_stages_share_one_context(tmp_path, monkeypatch):
    # full builds the stabilizers once and solves each Riccati system
    # once, each simulated stream builds its own d factors, and every
    # stage writes what the standalone command writes
    from voltmark import model, riccati, simulate

    builds, solves, factors = [], [], []
    real_build, real_solve = model.build_stabilizer, riccati._solve_adams
    real_factor = simulate.build_gaussian_factor

    def build_spy(*args, **kwargs):
        builds.append(args)
        return real_build(*args, **kwargs)

    def solve_spy(mdl, stabs, n, forcing):
        solves.append((mdl.T, n, forcing))
        return real_solve(mdl, stabs, n, forcing)

    def factor_spy(spec, grid):
        factors.append((spec.alpha, grid))
        return real_factor(spec, grid)

    monkeypatch.setattr(model, "build_stabilizer", build_spy)
    monkeypatch.setattr(riccati, "_solve_adams", solve_spy)
    monkeypatch.setattr(simulate, "build_gaussian_factor", factor_spy)
    riccati._solve_memo.cache_clear()
    # two assets, a horizon besides the config one, and a stationarity
    # path count different from mc.M
    cfg_text = _two_assets(TINY.replace("frontier_horizons = 1.0", "frontier_horizons = 0.5, 1.0")
                           .replace("stationarity_M = 120", "stationarity_M = 90"))
    path = _write(tmp_path, cfg_text)
    full = tmp_path / "full"
    assert main(["full", "--config", path, "--out", str(full)]) in (0, 4)
    assert len(builds) == 2
    # psi at T = 1 and 0.5 on the path grid and at Gamma0's three levels
    # 600, 1200 and 2400, and the Laplace system
    assert len(solves) == len(set(solves)) == 9, solves
    # both kernels for each stream: stationarity and wealth on the T = 1
    # grid, the frontier on the T = 0.5 one; the T = 1 frontier and the
    # Laplace check (laplace_M = M) read the wealth stage's chunks
    one, half = Grid(1.0, 40), Grid(0.5, 40)
    assert factors == [(0.7, one), (0.9, one)] * 2 + [(0.7, half), (0.9, half)], factors

    alone = tmp_path / "alone"
    station = _write(tmp_path, re.sub(r"^M = .*$", "M = 90", cfg_text, flags=re.M),
                     name="station.ini")
    for command, config in (("stabilizer", path), ("riccati", path), ("simulate", station),
                            ("wealth", path), ("frontier", path), ("laplace", path)):
        assert main([command, "--config", config, "--out", str(alone)]) in (0, 4)
    names = sorted(p.name for p in alone.glob("*.csv"))
    assert len(names) == 8
    for name in names:
        ref = "frontier_T1.csv" if name == "frontier.csv" else name
        assert (alone / name).read_bytes() == (full / ref).read_bytes(), name


_C = 4096  # simulate._CHUNK_PATHS, asserted in the test


@pytest.mark.parametrize("sizes, horizons, fixed_chunks", [
    # wealth chunks {C, 5} with increments, and laplace_M != M, so the
    # Laplace stage draws its own V-only stream {C, C, 3} from chunk 0;
    # the T = 1 frontier reads the wealth stage's (A_T, B_T)
    ((_C + 5, 2 * _C + 3), "0.5, 1.0",
     [(True, 0, _C), (True, 1, 5), (False, 0, _C), (False, 1, _C), (False, 2, 3)]),
    # one short chunk each, of different sizes
    ((120, 130), "0.5, 1.0", [(True, 0, 120), (False, 0, 130)]),
    # no frontier at the config horizon
    ((_C + 5, 130), "0.5", [(True, 0, _C), (True, 1, 5), (False, 0, 130)]),
], ids=["shared", "laplace-apart", "no-config-horizon"])
def test_full_simulates_no_chunk_twice(tmp_path, sizes, horizons, fixed_chunks,
                                      started_streams):
    # full's wealth chunks feed the T = 1 frontier, and no stream simulates
    # a chunk twice; every stage still writes the standalone command's bytes
    from voltmark import simulate

    assert simulate._CHUNK_PATHS == _C
    M, laplace_M = sizes
    cfg_text = _two_assets(re.sub(r"^M = 120$", f"M = {M}", TINY, flags=re.M)
                           .replace("n = 40", "n = 20")
                           .replace("laplace_M = 120", f"laplace_M = {laplace_M}")
                           .replace("frontier_horizons = 1.0", f"frontier_horizons = {horizons}"))
    path = _write(tmp_path, cfg_text)
    full, alone = tmp_path / "full", tmp_path / "alone"
    assert main(["full", "--config", path, "--out", str(full)]) in (0, 4)
    simulated = [(s.grid, s.initial, s.increments, c, m)
                 for s in started_streams for c, m in enumerate(s.sizes)]
    assert len(simulated) == len(set(simulated)), simulated
    grid = RunContext.build(load_config(cfg_text)).grid
    assert [(inc, c, m) for g, initial, inc, c, m in simulated
            if g == grid and initial == "fixed"] == fixed_chunks
    for command in ("wealth", "frontier", "laplace"):
        assert main([command, "--config", path, "--out", str(alone)]) in (0, 4)
    pairs = [("wealth_stats.csv", "wealth_stats.csv"), ("laplace_check.csv", "laplace_check.csv")]
    if "1.0" in horizons:
        pairs.append(("frontier.csv", "frontier_T1.csv"))
    for name, ref in pairs:
        assert (alone / name).read_bytes() == (full / ref).read_bytes(), name


def test_bundled_full_simulates_no_laplace_chunk(tmp_path, started_streams):
    # the bundled laplace_M equals mc.M, so the Laplace stage takes the
    # time integrals of every chunk from the wealth stage and starts no stream:
    # 3 stationarity chunks, 2 wealth chunks and 2 for each of the
    # frontiers at T = 0.5 and 5.  The path counts alone decide the
    # chunks, so the bundled config runs on a coarse grid here
    path = _write(tmp_path, _DEFAULT_CONFIG.replace("n = 600", "n = 20"))
    assert main(["full", "--config", path, "--out", str(tmp_path / "o")]) in (0, 4)
    calls = [(s.grid.T, s.initial, s.increments, s.sizes) for s in started_streams]
    assert calls == [(1.0, "stationary", False, [4096, 4096, 1808]),
                     (1.0, "fixed", True, [4096, 904]),
                     (0.5, "fixed", True, [4096, 904]),
                     (5.0, "fixed", True, [4096, 904])]
    assert sum(len(sizes) for *_, sizes in calls) == 9


def test_bundled_full_laplace_stage_asks_the_engine_nothing(tmp_path, monkeypatch):
    # with the bundled laplace_M = mc.M the Laplace stage neither opens a
    # stream of chunks nor builds a Gaussian factor
    from voltmark import cli, simulate

    calls, stages = [], []

    def spy(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append((name, stages[-1] if stages else None))
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    real_laplace = cli.run_laplace

    def laplace_stage(*args, **kwargs):
        stages.append("laplace")
        return real_laplace(*args, **kwargs)

    spy(simulate, "fold_stream")
    spy(simulate, "simulate_variance_paths")
    spy(simulate, "build_gaussian_factor")
    monkeypatch.setattr(cli, "run_laplace", laplace_stage)
    path = _write(tmp_path, _DEFAULT_CONFIG.replace("n = 600", "n = 20"))
    assert main(["full", "--config", path, "--out", str(tmp_path / "o")]) in (0, 4)
    assert stages == ["laplace"]
    assert [name for name, stage in calls if stage == "laplace"] == []
    # the earlier stages' 4 streams, each with a factor per asset
    assert sorted(calls) == [("build_gaussian_factor", None)] * 8 + \
        [("fold_stream", None)] * 4, calls


def test_full_steps_each_wealth_chunk_once(tmp_path, monkeypatch):
    # the wealth stage's recursion gives the T = 1 frontier its (A_T, B_T):
    # one _step_factors pass per path range of each block of each wealth
    # chunk (one block at n = 20), and no other wealth fold is made; its
    # reader adds no pass, and no whole paths are simulated.  Two
    # workers split the C-path chunk in two ranges; the 5-path chunk is
    # one range of one 64-path block
    from voltmark import markowitz, simulate

    passes, folds, whole = [], [], []
    real_steps, real_init = markowitz._step_factors, markowitz._Wealth.__init__

    def steps_spy(model, V, dB, coef, dt, paths, flat):
        passes.append((dB.shape[2], paths.start, paths.stop))
        return real_steps(model, V, dB, coef, dt, paths, flat)

    def init_spy(self, *args):
        folds.append(type(self).__name__)
        real_init(self, *args)

    monkeypatch.setattr(markowitz, "_step_factors", steps_spy)
    monkeypatch.setattr(markowitz, "simulate_wealth", lambda *args: whole.append(args))
    monkeypatch.setattr(markowitz._Wealth, "__init__", init_spy)
    monkeypatch.setattr(simulate, "_BLAS_THREADS", 1)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
    C = simulate._CHUNK_PATHS
    cfg_text = re.sub(r"^M = 120$", f"M = {C + 5}", TINY, flags=re.M).replace("n = 40", "n = 20")
    path = _write(tmp_path, cfg_text)
    assert main(["full", "--config", path, "--out", str(tmp_path / "o")]) in (0, 4)
    assert sorted(passes) == [(5, 0, 64), (C, 0, C // 2), (C, C // 2, C)]
    assert folds == ["_WealthMoments"] and whole == []


def test_stabilizer_residual_above_tolerance_exit_code(tmp_path, capsys):
    # lam = 5 moves the series/limit switch to t = 0.83 < T = 1, where the
    # jump to the limit leaves a residual of about 1e-2
    path = _write(tmp_path, _DEFAULT_CONFIG.replace("lam = 0.2, 0.2", "lam = 5.0, 0.2"))
    out = tmp_path / "o"
    assert main(["stabilizer", "--config", path, "--out", str(out)]) == 4
    res = np.loadtxt(out / "stabilizer_asset1.csv", delimiter=",", skiprows=1)[:, 2]
    assert res.max() > 1e-3
    assert "asset 1: max residual" in capsys.readouterr().out


def test_full_markovian_edge(tmp_path):
    # alpha = 1 (K = 1) runs end to end with the exact constant stabilizer
    path = _write(tmp_path, TINY.replace("alpha = 0.7", "alpha = 1.0"))
    out = tmp_path / "out"
    assert main(["full", "--config", path, "--out", str(out)]) in (0, 4)
    for name in ("stabilizer_asset1.csv", "riccati_psi.csv", "variance_stats_asset1.csv",
                 "wealth_stats.csv", "frontier_T1.csv", "laplace_check.csv"):
        tab = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
        assert tab.size and np.all(np.isfinite(tab)), name
    stab = np.loadtxt(out / "stabilizer_asset1.csv", delimiter=",", skiprows=1)
    assert np.max(stab[:, 2]) <= 1e-12


def test_numerical_failure_exit_code(tmp_path):
    # blow-up regime: 1 - 2 rho^2 < 0 with large theta and vol-of-vol
    cfg = (TINY.replace("theta = 0.2", "theta = 5.0")
               .replace("rho = -0.5", "rho = -0.75")
               .replace("nu = 0.5", "nu = 2.0")
               .replace("lam = 0.3", "lam = 0.1")
               .replace("T = 1.0", "T = 5.0"))
    path = _write(tmp_path, cfg)
    assert main(["riccati", "--config", path, "--out", str(tmp_path / "o")]) == 3


def test_riccati_infinite_theta_is_numerical_failure(tmp_path, capsys):
    # theta = 1e200 is finite but theta^2 overflows: psi turns NaN in the
    # first Adams step, which the blow-up guard must catch
    path = _write(tmp_path, TINY.replace("theta = 0.2", "theta = 1e200"))
    out = tmp_path / "o"
    assert main(["riccati", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure")
    assert not (out / "riccati_psi.csv").exists()


def test_blowup_stderr_is_one_line(tmp_path):
    # numpy's RuntimeWarnings reach a real stderr but not capsys (pytest's
    # warnings plugin takes them), so run the CLI in a child process
    path = _write(tmp_path, TINY.replace("theta = 0.2", "theta = 1e200"))
    proc = subprocess.run(
        [sys.executable, "-m", "voltmark.cli", "riccati", "--config", path,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure"), proc.stderr


@pytest.mark.parametrize("key, old, new", [
    ("r", "r = 0.02", "r = nan"),
    ("x0", "x0 = 2.0", "x0 = inf"),
    ("T", "T = 1.0", "T = inf"),
    ("nu", "nu = 0.5", "nu = nan"),
    ("mu0", "mu0 = 1.5", "mu0 = inf"),
])
def test_non_finite_parameter_exit_code(tmp_path, capsys, key, old, new):
    path = _write(tmp_path, TINY.replace(old, new))
    assert main(["wealth", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("config error") and key in err


@pytest.mark.parametrize("command", ["wealth", "full"])
def test_huge_target_exit_code(tmp_path, capsys, command):
    # V(m) at m = 1e300 overflows the floats; its Python-float square used
    # to end in an OverflowError traceback.  At m = inf and nan too, the
    # rule needs no Gamma0, so full refuses them before its first stage
    # writes a CSV
    for m in ("1e300", "inf", "nan"):
        path = _write(tmp_path, TINY.replace("m = 2.1", f"m = {m}"))
        out = tmp_path / f"o_{m}"
        assert main([command, "--config", path, "--out", str(out)]) == 2, m
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith("config error"), m
        assert f"target mean m = {float(m)}" in err
        assert not list(out.glob("*.csv")), m


@pytest.mark.parametrize("command", ["simulate", "full"])
def test_zero_vol_of_vol_passes_quietly(tmp_path, command):
    # with nu = 0 every path is V = x_inf, so every Monte Carlo SE is 0
    # or of rounding size; the gates then ask for equality, without a
    # division by zero.  A child process, so that numpy RuntimeWarnings
    # would reach stderr
    path = _write(tmp_path, TINY.replace("nu = 0.5", "nu = 0"))
    proc = subprocess.run(
        [sys.executable, "-m", "voltmark.cli", command, "--config", path,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert "passed=True" in proc.stdout and "passed=False" not in proc.stdout
    if command == "full":
        # the Laplace check passes on equality alone: its z reads 0, not
        # the gap over a rounding-size SE
        z = np.loadtxt(tmp_path / "o" / "laplace_check.csv", delimiter=",", skiprows=1)[3]
        assert z == 0.0 and "z=0.00 passed=True" in proc.stdout


def test_non_finite_laplace_sample_exit_code(tmp_path, capsys, monkeypatch):
    # one infinite exponent ends the Laplace check as a numerical failure
    # in one line, with no CSV, instead of a NaN row and exit 4
    spoil_integrals(monkeypatch, np.inf)
    out = tmp_path / "o"
    assert main(["laplace", "--config", _write(tmp_path, TINY), "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["numerical failure: Laplace samples is not finite"]
    assert not (out / "laplace_check.csv").exists()


def test_non_finite_covariance_exit_code(tmp_path, capsys, nan_covariance):
    # the factor's check fails on a NaN in the covariance, and the CLI
    # reports it as a numerical failure in one line
    path = _write(tmp_path, TINY)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: spectral factor"), lines


@pytest.mark.parametrize("cfg_text", [
    # nu^2 overflows: the stationary V0 draw is +inf for asset 1
    _DEFAULT_CONFIG.replace("nu = 0.40, 0.32", "nu = 1e200, 0.32")
    .replace("M = 5000", "M = 200").replace("n = 600", "n = 50"),
    # V stays finite, but its square overflows in the sample variance
    _DEFAULT_CONFIG.replace("nu = 0.40, 0.32", "nu = 1e150, 0.32")
    .replace("M = 5000", "M = 200").replace("n = 600", "n = 50"),
], ids=["initial", "statistics"])
def test_non_finite_variance_exit_code(tmp_path, cfg_text):
    # a child process, so that numpy RuntimeWarnings would reach stderr
    path = _write(tmp_path, cfg_text)
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "voltmark.cli", "simulate", "--config", path, "--out", str(out)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure"), proc.stderr
    assert "not finite" in lines[0]
    assert not (out / "variance_stats_asset1.csv").exists()
