"""The path engine's fixed chunks of paths and the consumers that fold them.

Path counts sit on the chunk edges: one short of a chunk, exactly one,
one over, and two chunks plus a remainder.  The grid is small, but has
more than one block of cells, so the far-field flush runs in every chunk.
"""

import numpy as np
import pytest

from voltmark import markowitz, simulate
from voltmark.kernels import ParameterError
from voltmark.markowitz import affine_wealth_terminal, laplace_affine_check
from voltmark.model import Grid
from voltmark.riccati import solve_riccati_adams
from voltmark.simulate import (
    _CHUNK_PATHS as C,
    simulate_variance_chunks,
    simulate_variance_paths,
)

EDGES = [C - 1, C, C + 1, 2 * C + 3]
GRID = Grid(1.0, 70)
SEED = 404


def _paths(model, stabs, M, **kwargs):
    return simulate_variance_paths(model, stabs, GRID, M, SEED, **kwargs)


def _chunks(model, stabs, M, **kwargs):
    return list(simulate_variance_chunks(model, stabs, GRID, M, SEED, **kwargs))


@pytest.mark.parametrize("M", [C + 1, 2 * C + 3])
def test_first_chunk_does_not_depend_on_M(model_t1, stabs_t1, M):
    ref = _paths(model_t1, stabs_t1, C)
    ens = _paths(model_t1, stabs_t1, M)
    assert ens.V.shape == (M, 2, GRID.n + 1)
    assert np.array_equal(ens.V[:C], ref.V)
    assert np.array_equal(ens.dW[:C], ref.dW)
    assert np.array_equal(ens.dWperp[:C], ref.dWperp)


@pytest.mark.parametrize("M", EDGES)
def test_chunks_are_the_columns_of_the_whole_ensemble(model_t1, stabs_t1, M):
    # the materialized ensemble is the chunks side by side, and a V-only
    # chunk has the full chunk's V
    whole = _paths(model_t1, stabs_t1, M)
    full = _chunks(model_t1, stabs_t1, M)
    v_only = _chunks(model_t1, stabs_t1, M, increments=False)
    assert [ch.M for ch in full] == [len(range(M)[c0:c0 + C]) for c0 in range(0, M, C)]
    for c, (ch, vo) in enumerate(zip(full, v_only)):
        paths = slice(c * C, c * C + ch.M)
        assert np.array_equal(ch.V, whole.V[paths])
        assert np.array_equal(ch.dW, whole.dW[paths])
        assert np.array_equal(ch.dWperp, whole.dWperp[paths])
        assert vo.dW is None and vo.dWperp is None
        assert np.array_equal(vo.V, ch.V)


@pytest.mark.parametrize("M", EDGES)
def test_fused_laplace_equals_materialized(model_t1, stabs_t1, M):
    u = [-0.05, -0.05]
    fused = laplace_affine_check(model_t1, stabs_t1, u, GRID, M, SEED)
    whole = _paths(model_t1, stabs_t1, M, initial="fixed", increments=False)
    given = laplace_affine_check(model_t1, stabs_t1, u, GRID, M, SEED, ensemble=whole)
    assert fused.mc_value == given.mc_value and fused.mc_se == given.mc_se
    # the samples themselves, against one pass over the whole V
    samples = np.concatenate([markowitz._laplace_samples(ch.V, GRID.dt, np.array(u))
                              for ch in _chunks(model_t1, stabs_t1, M,
                                                initial="fixed", increments=False)])
    direct = markowitz._laplace_samples(whole.V, GRID.dt, np.array(u))
    assert np.max(np.abs(samples - direct)) <= 1e-15 * np.max(direct)


@pytest.mark.parametrize("M", EDGES)
def test_fused_terminal_wealth_equals_materialized(model_t1, stabs_t1, M):
    sol = solve_riccati_adams(model_t1, stabs_t1, GRID.n)
    whole = _paths(model_t1, stabs_t1, M, initial="fixed")
    A, B = affine_wealth_terminal(model_t1, whole, sol, stabs_t1)
    parts = [affine_wealth_terminal(model_t1, ch, sol, stabs_t1)
             for ch in _chunks(model_t1, stabs_t1, M, initial="fixed")]
    assert np.max(np.abs(np.concatenate([a for a, _ in parts]) - A)) <= 1e-12 * np.max(np.abs(A))
    assert np.max(np.abs(np.concatenate([b for _, b in parts]) - B)) <= 1e-12 * np.max(np.abs(B))


def test_chunks_do_not_depend_on_the_thread_count(model_t1, stabs_t1, monkeypatch):
    M = 2 * C + 3
    monkeypatch.setattr(simulate, "_BLAS_THREADS", 1)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 1)
    one = _paths(model_t1, stabs_t1, M)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
    pool_sizes = []
    real_pool = simulate.ThreadPoolExecutor

    def recording_pool(max_workers):
        pool_sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", recording_pool)
    two = _paths(model_t1, stabs_t1, M)
    assert pool_sizes == [2, 2, 2]          # one pool per chunk
    assert np.array_equal(one.V, two.V)
    assert np.array_equal(one.dW, two.dW)
    assert np.array_equal(one.dWperp, two.dWperp)


def test_chunk_streams_are_successive_spawn_groups(model_t1, stabs_t1):
    # chunk c draws V0 and then, in place, dWperp = sqrt(dt) N(0, 1) from
    # child 0 of the c-th spawn(1 + d) group of SeedSequence(seed)
    M = C + 300
    ens = _paths(model_t1, stabs_t1, M)
    seq = np.random.SeedSequence(SEED)
    for c0 in (0, C):
        m = min(C, M - c0)
        rng = np.random.default_rng(seq.spawn(3)[0])
        V0 = simulate.sample_initial_variance(model_t1, m, rng)
        assert np.array_equal(ens.V[c0:c0 + m, :, 0], V0)
        assert np.array_equal(ens.dWperp[c0:c0 + m],
                              np.sqrt(GRID.dt) * rng.standard_normal((m, 2, GRID.n)))


@pytest.mark.parametrize("M", [0, -5])
def test_engine_rejects_empty_path_count(model_t1, stabs_t1, M):
    with pytest.raises(ParameterError, match="M must be >= 1"):
        simulate_variance_paths(model_t1, stabs_t1, GRID, M, SEED)
    with pytest.raises(ParameterError, match="M must be >= 1"):
        simulate_variance_chunks(model_t1, stabs_t1, GRID, M, SEED)   # before the first chunk
