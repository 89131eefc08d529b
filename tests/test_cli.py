"""CLI configuration validation, artifacts, and reproducibility."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import voltmark
from voltmark.cli import ConfigError, _DEFAULT_CONFIG, load_config, main

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
n_boot = 150

[riccati]
truncation_K = 120

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


def _child_env():
    """Environment for a child interpreter that imports this voltmark."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(voltmark.__file__)), os.environ.get("PYTHONPATH", "")]))


def test_default_config_matches_bundled_table():
    cfg = load_config(_DEFAULT_CONFIG)
    assert cfg["d"] == 2
    assert cfg["alpha"] == [0.6, 0.9]
    assert cfg["c"] == [0.01, 0.03]
    assert cfg["mu0"] == [2.0, 1.0]
    assert cfg["lam"] == [0.2, 0.2]
    assert cfg["rho"] == [-0.7, -0.55]
    assert cfg["theta"] == [0.1, 0.12]
    assert cfg["nu"] == [0.40, 0.32]
    assert cfg["r"] == 0.02
    assert cfg["x0"] == 2.0
    assert cfg["m"] == 2.255
    assert cfg["n"] == 600


def test_missing_field_reports_path():
    with pytest.raises(ConfigError, match="model.alpha"):
        load_config("[model]\nd = 2\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="model.bogus"):
        load_config(TINY.replace("d = 1", "d = 1\nbogus = 1"))
    # nothing read riccati.oracle_refinement, so it left the schema
    with pytest.raises(ConfigError, match="unknown config key riccati.oracle_refinement"):
        load_config(TINY.replace("truncation_K = 120", "truncation_K = 120\noracle_refinement = 8"))


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


def test_zero_n_boot_exit_code(tmp_path, capsys):
    path = _write(tmp_path, TINY.replace("n_boot = 150", "n_boot = 0"))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "mc.n_boot" in err


def test_one_n_boot_exit_code(tmp_path, capsys):
    # one resample gives no bootstrap standard error: a configuration
    # error, not a numerical failure
    path = _write(tmp_path, TINY.replace("n_boot = 150", "n_boot = 1"))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "mc.n_boot: expected >= 2" in err


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


def test_dump_paths_is_path_asset_time_row_major(tmp_path):
    # V is stored time-major; the dump still writes (path, asset, time)
    from voltmark.cli import _simulate

    cfg_text = _DEFAULT_CONFIG.replace("M = 5000", "M = 70").replace("n = 600", "n = 30")
    path = _write(tmp_path, cfg_text)
    out = tmp_path / "o"
    assert main(["simulate", "--config", path, "--out", str(out), "--dump-paths"]) == 0
    *_, ens = _simulate(load_config(cfg_text), 70, "stationary")
    assert ens.V.shape == (70, 2, 31) and not ens.V.flags.c_contiguous
    body = (out / "paths.bin").read_bytes()[32:]  # after the 3 int64 + 1 float64 header
    assert body == np.ascontiguousarray(ens.V).tobytes()


def test_simulate_computes_each_bootstrap_once(tmp_path, monkeypatch):
    # the stationarity check reuses the statistics behind the CSVs
    from voltmark import montecarlo

    calls = []
    real = montecarlo.ensemble_stats

    def counting(*args, **kwargs):
        calls.append(args[3] if len(args) > 3 else kwargs.get("seed"))
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ensemble_stats", counting)
    path = _write(tmp_path, _DEFAULT_CONFIG.replace("M = 5000", "M = 60")
                  .replace("n = 600", "n = 20").replace("n_boot = 1000", "n_boot = 50"))
    main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert calls == [7041, 7042]


def test_v_only_stages_skip_the_increments(tmp_path, monkeypatch):
    # the stationarity and Laplace stages read V alone, so they ask the
    # engine for no Brownian increments; the wealth and frontier stages
    # keep them.  Laplace and frontier take the paths chunk by chunk
    from voltmark import cli, markowitz, montecarlo, simulate

    requested = []

    def spy(real):
        def wrapped(*args, **kwargs):
            requested.append((real.__name__, kwargs.get("increments", True)))
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(simulate, "simulate_variance_paths",
                        spy(simulate.simulate_variance_paths))
    chunks = spy(simulate.simulate_variance_chunks)
    monkeypatch.setattr(markowitz, "simulate_variance_chunks", chunks)
    monkeypatch.setattr(montecarlo, "simulate_variance_chunks", chunks)
    cfg = load_config(TINY)
    for runner in (cli.run_simulate, cli.run_laplace, cli.run_wealth, cli.run_frontier):
        runner(cfg, str(tmp_path))
    assert requested == [("simulate_variance_paths", False), ("simulate_variance_chunks", False),
                         ("simulate_variance_paths", True), ("simulate_variance_chunks", True)]


def test_manifest_records_thread_cap_and_chunk_size(tmp_path, monkeypatch):
    # the CSV bits depend on the BLAS thread cap and the paths per chunk
    from voltmark import simulate

    path = _write(tmp_path, TINY)
    for cap in (None, 3):
        monkeypatch.setattr(voltmark, "_blas_threads", cap)
        out = tmp_path / f"cap{cap}"
        assert main(["riccati", "--config", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blas_threads"] == cap
        assert manifest["chunk_paths"] == simulate._CHUNK_PATHS == 4096


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


def test_laplace_smoke(tmp_path):
    path = _write(tmp_path, TINY)
    out = tmp_path / "out"
    assert main(["laplace", "--config", path, "--out", str(out)]) == 0
    body = (out / "laplace_check.csv").read_text().splitlines()
    assert body[0] == "mc_value,mc_se,closed_form,z_score"


def test_print_config_round_trips(capsys):
    assert main(["print-config"]) == 0
    text = capsys.readouterr().out
    assert load_config(text)["m"] == 2.255


def test_package_main_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "voltmark", "print-config"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == _DEFAULT_CONFIG


def test_threads_variable_reaches_blas():
    # the package applies VOLTMARK_THREADS on import, before numpy loads,
    # over the generic variables, and the path engine reads the cap back
    code = ("import os, voltmark.simulate as s; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), s._BLAS_THREADS)")
    env = dict(_child_env(), OPENBLAS_NUM_THREADS="4")
    for value, expected in (("1", "1 1"), ("3", "3 3"), ("", "4 None")):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(env, VOLTMARK_THREADS=value))
        assert proc.returncode == 0 and proc.stdout.strip() == expected, proc.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_frontier_memory_does_not_grow_with_paths(tmp_path):
    # frontier keeps (A_T, B_T) per path and drops each chunk of paths, so
    # three more chunks must add far less than holding their paths would:
    # 3 C d (n+1) doubles for V alone, as much again for dW and for dWperp
    from voltmark.simulate import _CHUNK_PATHS as C

    n, d = 200, 2
    peak_mb = []
    for M in (C, 4 * C):
        path = _write(tmp_path, _DEFAULT_CONFIG.replace("M = 5000", f"M = {M}")
                      .replace("n = 600", f"n = {n}").replace("n_boot = 1000", "n_boot = 20")
                      .replace("m_count = 8", "m_count = 2"), name=f"cfg{M}.ini")
        proc = subprocess.Popen(
            [sys.executable, "-m", "voltmark", "frontier", "--config", path,
             "--out", str(tmp_path / f"o{M}")],
            stdout=subprocess.DEVNULL, env=dict(_child_env(), VOLTMARK_THREADS="1"))
        _, status, usage = os.wait4(proc.pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        peak_mb.append(usage.ru_maxrss / 1024)
    extra_v_mb = 3 * C * d * (n + 1) * 8 / 2**20
    assert peak_mb[1] - peak_mb[0] < extra_v_mb / 2, peak_mb


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "voltmark.cli", "print-config"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert "[model]" in proc.stdout


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
        capture_output=True, text=True, env=_child_env(),
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


@pytest.mark.parametrize("cfg_text", [
    # nu^2 overflows: the stationary V0 draw is +inf for asset 1
    _DEFAULT_CONFIG.replace("nu = 0.40, 0.32", "nu = 1e200, 0.32")
    .replace("M = 5000", "M = 200").replace("n = 600", "n = 50"),
    # V stays finite, but its square overflows in the bootstrap variance
    _DEFAULT_CONFIG.replace("nu = 0.40, 0.32", "nu = 1e150, 0.32")
    .replace("M = 5000", "M = 200").replace("n = 600", "n = 50"),
], ids=["initial", "statistics"])
def test_non_finite_variance_exit_code(tmp_path, cfg_text):
    # a child process, so that numpy RuntimeWarnings would reach stderr
    path = _write(tmp_path, cfg_text)
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "voltmark.cli", "simulate", "--config", path, "--out", str(out)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure"), proc.stderr
    assert "not finite" in lines[0]
    assert not (out / "variance_stats_asset1.csv").exists()
