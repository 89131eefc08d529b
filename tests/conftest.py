"""Shared fixtures: the two-asset rough market and its solved objects.

Heavy artifacts (stabilizers, Riccati solutions, path ensembles) are
session-scoped so the acceptance module and the unit tests reuse them.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import voltmark
from oracles import oracle_volterra_picard
from voltmark import simulate
from voltmark.model import Grid, MarketModel, bundled_model
from voltmark.riccati import solve_riccati_adams
from voltmark.simulate import simulate_variance_paths


@pytest.fixture(scope="session")
def model_t1():
    return bundled_model(T=1.0)


@pytest.fixture(scope="session")
def stabs_t1(model_t1):
    return model_t1.build_stabilizers()


@pytest.fixture(scope="session")
def riccati_600(model_t1, stabs_t1):
    return solve_riccati_adams(model_t1, stabs_t1, 600)


@pytest.fixture(scope="session")
def picard_4800(model_t1, stabs_t1):
    return oracle_volterra_picard(model_t1, stabs_t1, 4800)


@pytest.fixture(scope="session")
def grid_600():
    return Grid(1.0, 600)


@pytest.fixture(scope="session")
def ensemble_5000_fixed(model_t1, stabs_t1, grid_600):
    """Fixed-V0 ensemble backing the wealth and frontier acceptance runs."""
    return simulate_variance_paths(model_t1, stabs_t1, grid_600, 5000, seed=20240,
                                   initial="fixed")


@pytest.fixture(scope="session")
def ensemble_10000_stationary(model_t1, stabs_t1, grid_600):
    """Stationary ensemble for the fake-stationarity diagnostics."""
    return simulate_variance_paths(model_t1, stabs_t1, grid_600, 10000, seed=31415)


def small_model(**overrides):
    """One-asset configuration for cheap targeted tests."""
    params = dict(
        d=1, alpha=[0.7], lam=[0.3], nu=[0.5], rho=[-0.5], theta=[0.2],
        mu0=[1.5], c=[0.02], r=0.02, x0=2.0, T=1.0,
    )
    params.update(overrides)
    return MarketModel(**params)


def child_env():
    """Environment for a child interpreter that imports this voltmark."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(voltmark.__file__)), os.environ.get("PYTHONPATH", "")]))


def child_peak_kib(setup: str, code: str, **env) -> tuple[int, int]:
    """(VmHWM after setup, VmHWM after code) of a fresh interpreter that runs
    setup, then code, with ``child_env()`` and env added, in KiB.

    Each child reads its own VmHWM, the peak of its own memory: Linux
    keeps ru_maxrss across exec, so there a child of pytest would start
    at pytest's peak."""
    peak = ("with open('/proc/self/status') as status:\n"
            "    print(next(int(line.split()[1]) for line in status "
            "if line.startswith('VmHWM')))\n")
    proc = subprocess.run([sys.executable, "-c", setup + peak + code + peak],
                          capture_output=True, text=True, env=dict(child_env(), **env), check=True)
    before, after = map(int, proc.stdout.split()[-2:])
    return before, after


@pytest.fixture
def nan_covariance(monkeypatch):
    """Cell covariances with one NaN in the thin terms, at lag 5 of the exact
    diagonal."""
    real = simulate._thin_form

    def nan_terms(spec, grid):
        G, H, diag, c_seg = real(spec, grid)
        diag[5] = np.nan
        return G, H, diag, c_seg

    monkeypatch.setattr(simulate, "_thin_form", nan_terms)
