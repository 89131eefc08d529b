"""Shared fixtures: the two-asset rough market and its solved objects.

Heavy artifacts (stabilizers, Riccati solutions, path ensembles) are
session-scoped so the acceptance module and the unit tests reuse them.
"""

import dataclasses
import functools
import os
import subprocess
import sys

import numpy as np
import pytest

import voltmark
from oracles import oracle_volterra_picard
from voltmark import markowitz, montecarlo, simulate
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


def stream(model, stabs, grid, M, seed, **kwargs):
    """A block stream of ``simulate.fold_stream`` to fold: stream(folds) draws it."""
    return functools.partial(simulate.fold_stream, model, stabs, grid, M, seed, **kwargs)


def paths_of(source) -> tuple:
    """(model, grid, M) of source (``fold``): M counts every ensemble's paths."""
    if callable(source):
        model, _, grid, M = source.args[:4]
        return model, grid, M
    return source[0].model, source[0].grid, sum(ensemble.M for ensemble in source)


def fold(source, folds) -> None:
    """Run the folds, made for ``paths_of(source)``, over source: a
    ``stream``, or PathEnsembles, each folded whole after the ones before
    it, so that its first path has the index of their path count."""
    if callable(source):
        source(folds)
        return
    offset = 0
    for ensemble in source:
        ensemble.fold([_shifted(each, offset) for each in folds])
        offset += ensemble.M


def _shifted(fold, offset: int):
    """fold, handed each block offset paths further on."""
    def shifted(first, lo, V, dB):
        fold(offset + first, lo, V, dB)

    shifted.increments = fold.increments
    return shifted


def folded_integrals(source) -> np.ndarray:
    """The (d, M) time integrals of V that the Laplace fold
    (``markowitz._TimeIntegrals``) folds over every block of source (``fold``)."""
    model, grid, M = paths_of(source)
    integrals = markowitz._TimeIntegrals(model, None, grid, M)
    fold(source, [integrals])
    return integrals.total


def spoil_integrals(monkeypatch, value: float) -> None:
    """Make the Laplace fold (``markowitz._TimeIntegrals``) end every block
    with value as asset 1's integral of path 7."""
    real = markowitz._TimeIntegrals.__call__

    def spoiled(self, first, lo, V, dB):
        real(self, first, lo, V, dB)
        self.total[0, 7] = value

    monkeypatch.setattr(markowitz._TimeIntegrals, "__call__", spoiled)


def terminal_wealth(model, solution, stabs, source, xi_star=None, read=None) -> tuple:
    """(A_T, B_T), each (M,), from the wealth fold (``markowitz._Wealth``)
    on psi ``solution`` over every block of source (``fold``); with
    xi_star, read(lo, tile, X, alpha) takes each tile's wealth and
    strategy over each block, views that the next tile overwrites."""
    _, grid, M = paths_of(source)
    wealth = markowitz._Wealth(model, stabs, grid, M, xi_star, solution)
    if read is not None:
        wealth.read = read
    fold(source, [wealth])
    return wealth.A_T, wealth.B_T


def stationarity(source, model):
    """``montecarlo.stationarity_report`` of the stationarity fold
    (``montecarlo._VarianceMoments``) over every block of source (``fold``)."""
    _, grid, M = paths_of(source)
    moments = montecarlo._VarianceMoments(model, None, grid, M)
    fold(source, [moments])
    return montecarlo.stationarity_report(model, moments.stats())


@pytest.fixture
def pool_sizes(monkeypatch) -> list:
    """The max_workers of every ThreadPoolExecutor that simulate starts."""
    sizes = []
    real_pool = simulate.ThreadPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", recording_pool)
    return sizes


@dataclasses.dataclass
class Started:
    """A stream that ``simulate.fold_stream`` draws: its grid, M and
    initial mode, whether it drew the increments, and its chunks' sizes."""

    grid: Grid
    M: int
    initial: str
    increments: bool | None = None
    sizes: list = dataclasses.field(default_factory=list)


@pytest.fixture
def started_streams(monkeypatch) -> list:
    """A ``Started`` for every stream that the engine starts
    (``simulate.fold_stream``), which a last fold of its own fills in
    from the blocks it is handed."""
    streams = []
    real = simulate.fold_stream

    def spy(model, stabs, grid, M, seed, folds, *, initial="stationary"):
        started = Started(grid, M, initial)
        streams.append(started)

        def record(first, lo, V, dB):
            if lo == 0:
                started.increments = dB is not None
                started.sizes.append(V.shape[-1])

        record.increments = False
        real(model, stabs, grid, M, seed, [*folds, record], initial=initial)

    monkeypatch.setattr(simulate, "fold_stream", spy)
    return streams


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
