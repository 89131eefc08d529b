"""The path engine's fixed chunks of paths and the consumers that fold them.

Path counts sit on the chunk edges: one short of a chunk, exactly one,
one over, and two chunks plus a remainder.  The grid is small, but has
more than one block of cells, so the far-field flush runs in every chunk.
"""

import itertools
import weakref

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
    # the exponents themselves, against one pass over the whole V
    exponents = np.concatenate([markowitz._laplace_exponents(ch.V, GRID.dt, np.array(u))
                                for ch in _chunks(model_t1, stabs_t1, M,
                                                  initial="fixed", increments=False)])
    direct = markowitz._laplace_exponents(whole.V, GRID.dt, np.array(u))
    assert np.max(np.abs(exponents - direct)) <= 1e-15 * np.max(np.abs(direct))


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
    # child 0 of the c-th spawn(1 + d) group of SeedSequence(seed), through
    # the engine's bit generator
    M = C + 300
    ens = _paths(model_t1, stabs_t1, M)
    seq = np.random.SeedSequence(SEED)
    for c0 in (0, C):
        m = min(C, M - c0)
        rng = np.random.Generator(simulate._BIT_GENERATOR(seq.spawn(3)[0]))
        V0 = simulate.sample_initial_variance(model_t1, m, rng)
        assert np.array_equal(ens.V[c0:c0 + m, :, 0], V0)
        assert np.array_equal(ens.dWperp[c0:c0 + m],
                              np.sqrt(GRID.dt) * rng.standard_normal((m, 2, GRID.n)))


@pytest.mark.parametrize("M, other, shared", [
    (5000, 20000, 1), (120, 120, 1), (120, 130, 0), (C + 5, 2 * C + 3, 1),
    (C, 2 * C, 1), (2 * C, 2 * C, 2), (C + 5, C + 5, 2), (C + 5, C + 6, 1),
])
def test_common_chunks_are_those_of_equal_size(model_t1, stabs_t1, M, other, shared):
    # chunk c of two fixed-start streams on one grid and seed holds the
    # same paths when it has the same size in both, so the leading chunks
    # of one size agree bit for bit; the V-only stream (full's Laplace
    # ensemble) against the one with increments (its wealth ensemble)
    def leading(n, increments):
        return list(itertools.islice(simulate_variance_chunks(
            model_t1, stabs_t1, GRID, n, SEED, initial="fixed", increments=increments),
            shared + 1))

    mine, theirs = leading(M, False), leading(other, True)
    for a, b in zip(mine[:shared], theirs[:shared]):
        assert a.M == b.M and np.array_equal(a.V, b.V)
    assert shared in (len(mine), len(theirs)) or mine[shared].M != theirs[shared].M


def test_shared_pass_leaves_before_the_frontier_and_laplace(tmp_path, monkeypatch):
    # full's wealth stage hands the T = 1 frontier its (A_T, B_T) and the
    # Laplace check (laplace_M = M) the exponents of its chunks, but none of
    # its chunks: they are gone when those stages start
    from voltmark import cli, montecarlo

    refs, seen = [], []
    real_chunks = simulate.simulate_variance_chunks

    def chunks_spy(*args, **kwargs):
        for chunk in real_chunks(*args, **kwargs):
            if chunk.dW is not None:
                refs.extend(weakref.ref(obj) for obj in (chunk, chunk.V.base, chunk.dW.base,
                                                         chunk.dWperp))
            yield chunk
            del chunk

    def stage_spy(real, shared_kw):
        def wrapped(*args, **kwargs):
            seen.append((real.__name__, kwargs[shared_kw] is not None and len(kwargs[shared_kw]),
                         len(refs), [ref() is not None for ref in refs]))
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(simulate, "simulate_variance_chunks", chunks_spy)
    monkeypatch.setattr(montecarlo, "frontier_experiment",
                        stage_spy(montecarlo.frontier_experiment, "terminal"))
    monkeypatch.setattr(markowitz, "laplace_affine_check",
                        stage_spy(markowitz.laplace_affine_check, "exponents"))
    # mc.M and laplace_M, both 5000 in the bundled config
    cfg_text = (cli._DEFAULT_CONFIG.replace("M = 5000", f"M = {C + 5}")
                .replace("n = 600", "n = 20")
                .replace("frontier_horizons = 0.5, 1.0, 5.0", "frontier_horizons = 1.0")
                .replace("stationarity_M = 10000", "stationarity_M = 100"))
    path = tmp_path / "cfg.ini"
    path.write_text(cfg_text)
    assert cli.main(["full", "--config", str(path), "--out", str(tmp_path / "o")]) in (0, 4)
    # the wealth stage's two chunks (M = C + 5); the frontier gets their
    # (A_T, B_T) pairs, the Laplace check their exponents
    assert seen == [("frontier_experiment", 2, 8, [False] * 8),
                    ("laplace_affine_check", 2, 8, [False] * 8)]


@pytest.mark.parametrize("M", [0, -5])
def test_engine_rejects_empty_path_count(model_t1, stabs_t1, M):
    with pytest.raises(ParameterError, match="M must be >= 1"):
        simulate_variance_paths(model_t1, stabs_t1, GRID, M, SEED)
    with pytest.raises(ParameterError, match="M must be >= 1"):
        simulate_variance_chunks(model_t1, stabs_t1, GRID, M, SEED)   # before the first chunk


def test_short_last_chunk_fits_the_scratch(model_t1, stabs_t1, monkeypatch):
    # with a small far-field budget a full chunk splits each flush into
    # 640-path ranges, while a last chunk of 1279 paths runs as one
    # range, wider than any of a full chunk's; its scratch must hold it
    unsplit = _paths(model_t1, stabs_t1, C + 1279)
    monkeypatch.setattr(simulate, "_FAR_CELLS", 1 << 12)
    assert simulate._path_bounds(GRID.n - 64, C)[:2] == [0, 640]
    assert simulate._path_bounds(GRID.n - 64, 1279) == [0, 1279]
    split = _paths(model_t1, stabs_t1, C + 1279)
    last = _chunks(model_t1, stabs_t1, C + 1279)[-1]
    assert np.array_equal(last.V, split.V[C:])
    assert np.max(np.abs(split.V - unsplit.V)) <= 1e-12 * np.max(np.abs(unsplit.V))


def test_scratch_leaves_before_a_consumer(model_t1, stabs_t1, monkeypatch):
    # each asset's job maps the scratch of its chunk, and a chunk handed
    # to a consumer no longer holds any of it
    made = []
    real = simulate._asset_scratch

    def spy(*args):
        buffers = real(*args)
        made.append([weakref.ref(buf) for buf in buffers])
        return buffers

    monkeypatch.setattr(simulate, "_asset_scratch", spy)
    for _ in simulate_variance_chunks(model_t1, stabs_t1, GRID, 2 * C + 3, SEED):
        assert made and all(ref() is None for refs in made for ref in refs)
    assert len(made) == 3 * model_t1.d


def test_dropped_chunk_frees_its_arrays(model_t1, stabs_t1):
    # the generator, suspended at its yield, holds none of a chunk's
    # arrays, so a consumer that drops the chunk frees them before the
    # next chunk is asked for
    chunks = simulate_variance_chunks(model_t1, stabs_t1, GRID, 10, SEED)
    chunk = next(chunks)
    refs = [weakref.ref(a) for a in (chunk.V.base, chunk.dW.base, chunk.dWperp)]
    del chunk
    assert all(ref() is None for ref in refs)
    chunks.close()
