"""The path engine's fixed chunks of paths, their blocks, and the consumers that fold them.

Path counts sit on the chunk edges: one short of a chunk, exactly one,
one over, and two chunks plus a remainder.  The grid is small, but has
more than one block of cells, so the far field runs in every chunk.
"""

import ast
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import folded_integrals, stream, terminal_wealth
from oracles import assembled_chunks, dense_variance_paths
import voltmark
from voltmark import markowitz, montecarlo, simulate
from voltmark.kernels import ParameterError
from voltmark.markowitz import laplace_affine_check
from voltmark.model import Grid, MarketModel
from voltmark.riccati import solve_riccati_adams
from voltmark.simulate import (
    _CHUNK_PATHS as C,
    NonFiniteError,
    fold_stream,
    simulate_variance_paths,
)

EDGES = [C - 1, C, C + 1, 2 * C + 3]
GRID = Grid(1.0, 70)
SEED = 404


def _paths(model, stabs, M, **kwargs):
    return simulate_variance_paths(model, stabs, GRID, M, SEED, **kwargs)


def _chunks(model, stabs, M, **kwargs):
    return list(assembled_chunks(model, stabs, GRID, M, SEED, **kwargs))


@pytest.mark.parametrize("M", [C + 1, 2 * C + 3])
def test_first_chunk_does_not_depend_on_M(model_t1, stabs_t1, M):
    ref = _paths(model_t1, stabs_t1, C)
    ens = _paths(model_t1, stabs_t1, M)
    assert ens.V.shape == (M, 2, GRID.n + 1)
    assert np.array_equal(ens.V[:C], ref.V)
    assert np.array_equal(ens.dB[:C], ref.dB)


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
        assert np.array_equal(ch.dB, whole.dB[paths])
        assert vo.dB is None
        assert np.array_equal(vo.V, ch.V)


@pytest.mark.parametrize("M", EDGES)
def test_fused_laplace_equals_materialized(model_t1, stabs_t1, M):
    # the stream's (d, M) time integrals are each chunk's, folded on its
    # own, at the chunk's offset, bit for bit; a pass over the whole V
    # gives the same check, and the exponents to rounding
    u = [-0.05, -0.05]
    fused = laplace_affine_check(model_t1, stabs_t1, u, GRID, M, SEED)
    whole = _paths(model_t1, stabs_t1, M, initial="fixed", increments=False)
    given = laplace_affine_check(model_t1, stabs_t1, u, GRID, M, SEED, ensemble=whole)
    assert fused.mc_value == given.mc_value and fused.mc_se == given.mc_se
    total = folded_integrals(stream(model_t1, stabs_t1, GRID, M, SEED, initial="fixed"))
    chunks = _chunks(model_t1, stabs_t1, M, initial="fixed", increments=False)
    assert total.shape == (2, M)
    assert np.array_equal(total, folded_integrals(chunks))
    exponents, direct = total.T @ np.asarray(u), folded_integrals([whole]).T @ np.asarray(u)
    assert np.max(np.abs(exponents - direct)) <= 1e-15 * np.max(np.abs(direct))


@pytest.mark.parametrize("M", EDGES)
def test_fused_terminal_wealth_equals_materialized(model_t1, stabs_t1, M):
    # the stream's (A_T, B_T), each (M,), are each chunk's, folded on its
    # own, at the chunk's offset, bit for bit, and the whole ensemble's
    # to rounding
    sol = solve_riccati_adams(model_t1, stabs_t1, GRID.n)
    A, B = terminal_wealth(model_t1, sol, stabs_t1,
                           stream(model_t1, stabs_t1, GRID, M, SEED, initial="fixed"))
    parts = terminal_wealth(model_t1, sol, stabs_t1,
                            _chunks(model_t1, stabs_t1, M, initial="fixed"))
    assert A.shape == B.shape == (M,)
    assert np.array_equal(A, parts[0]) and np.array_equal(B, parts[1])
    whole_A, whole_B = terminal_wealth(model_t1, sol, stabs_t1,
                                       [_paths(model_t1, stabs_t1, M, initial="fixed")])
    assert np.max(np.abs(A - whole_A)) <= 1e-12 * np.max(np.abs(whole_A))
    assert np.max(np.abs(B - whole_B)) <= 1e-12 * np.max(np.abs(whole_B))


def test_chunks_do_not_depend_on_the_thread_count(model_t1, stabs_t1, monkeypatch, pool_sizes):
    M = 2 * C + 3
    monkeypatch.setattr(simulate, "_BLAS_THREADS", 1)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 1)
    one = _paths(model_t1, stabs_t1, M)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
    two = _paths(model_t1, stabs_t1, M)
    assert pool_sizes == [2]                # one pool per stream, CPUs // BLAS threads
    assert np.array_equal(one.V, two.V)
    assert np.array_equal(one.dB, two.dB)


def test_chunk_streams_are_successive_spawn_groups(model_t1, stabs_t1):
    # chunk c draws V0 from child 0 of the c-th spawn(1 + d) group of
    # SeedSequence(seed), and asset i its W-perp normals N from the first
    # child that child 1 + i spawns, each through the engine's bit
    # generator; at rho = 0 the asset increments are dB = -sqrt(dt) N
    M = C + 300
    rho0 = MarketModel(d=2, alpha=model_t1.alpha, lam=model_t1.lam, nu=model_t1.nu,
                       rho=0.0, theta=model_t1.theta, mu0=model_t1.mu0, c=model_t1.c,
                       r=model_t1.r, x0=model_t1.x0, T=model_t1.T)
    ens = _paths(rho0, stabs_t1, M)
    seq = np.random.SeedSequence(SEED)
    for c0 in (0, C):
        m = min(C, M - c0)
        children = seq.spawn(3)
        rng = np.random.Generator(simulate._BIT_GENERATOR(children[0]))
        V0 = simulate.sample_initial_variance(model_t1, m, rng)
        assert np.array_equal(ens.V[c0:c0 + m, :, 0], V0)
        for i in range(2):
            perp = np.random.Generator(simulate._BIT_GENERATOR(children[1 + i].spawn(1)[0]))
            assert np.array_equal(ens.dB[c0:c0 + m, i],
                                  -(np.sqrt(GRID.dt) * perp.standard_normal((GRID.n, m))).T)


@pytest.mark.parametrize("M, other, shared", [
    (5000, 20000, 1), (120, 120, 1), (120, 130, 0), (C + 5, 2 * C + 3, 1),
    (C, 2 * C, 1), (2 * C, 2 * C, 2), (C + 5, C + 5, 2), (C + 5, C + 6, 1),
])
def test_common_chunks_are_those_of_equal_size(model_t1, stabs_t1, M, other, shared):
    # chunk c, paths [c C, (c+1) C), of two fixed-start streams on one
    # grid and seed holds the same paths when it has the same size in
    # both, so the leading chunks of one size agree bit for bit; the
    # V-only stream (full's Laplace ensemble) against the one with
    # increments (its wealth ensemble)
    mine = _paths(model_t1, stabs_t1, M, initial="fixed", increments=False).V
    theirs = _paths(model_t1, stabs_t1, other, initial="fixed").V
    for c in range(shared):
        paths = slice(c * C, (c + 1) * C)
        assert len(mine[paths]) == len(theirs[paths])
        assert np.array_equal(mine[paths], theirs[paths])
    after = slice(shared * C, (shared + 1) * C)
    assert min(M, other) <= shared * C or len(mine[after]) != len(theirs[after])


def test_shared_pass_leaves_before_the_frontier_and_laplace(tmp_path, monkeypatch):
    # full's wealth stage hands the T = 1 frontier its (A_T, B_T) and the
    # Laplace check (laplace_M = M) the time integrals of its chunks, but none of
    # the maps that its stream made (engine scratch, row store, tile
    # buffers): they are gone when those stages start
    from voltmark import cli, montecarlo

    refs, seen, in_wealth = [], [], []

    def mapped_spy(real):
        def wrapped(shape):
            arr = real(shape)
            if in_wealth:
                refs.append(weakref.ref(arr))
            return arr
        return wrapped

    def wealth_spy(real):
        def wrapped(*args, **kwargs):
            in_wealth.append(True)
            try:
                return real(*args, **kwargs)
            finally:
                in_wealth.clear()
        return wrapped

    def report_spy(real):
        def wrapped(*args):
            # the last argument gives the wealth fold or holds the integrals
            paths = len(args[-1]().A_T) if callable(args[-1]) else args[-1].shape[1]
            seen.append((real.__name__, paths, [ref() is not None for ref in refs]))
            return real(*args)
        return wrapped

    for module in (simulate, markowitz):
        monkeypatch.setattr(module, "_mapped", mapped_spy(module._mapped))
    monkeypatch.setattr(cli, "run_wealth", wealth_spy(cli.run_wealth))
    monkeypatch.setattr(montecarlo, "frontier_report", report_spy(montecarlo.frontier_report))
    monkeypatch.setattr(markowitz, "laplace_report", report_spy(markowitz.laplace_report))
    # mc.M and laplace_M, both 5000 in the bundled config
    cfg_text = (cli._DEFAULT_CONFIG.replace("M = 5000", f"M = {C + 5}")
                .replace("n = 600", "n = 20")
                .replace("frontier_horizons = 0.5, 1.0, 5.0", "frontier_horizons = 1.0")
                .replace("stationarity_M = 10000", "stationarity_M = 100"))
    path = tmp_path / "cfg.ini"
    path.write_text(cfg_text)
    assert cli.main(["full", "--config", str(path), "--out", str(tmp_path / "o")]) in (0, 4)
    # the wealth stage's stream of two chunks (M = C + 5); the frontier
    # gets its (A_T, B_T), the Laplace check its time integrals.  The
    # stream maps each asset's 6 scratch and 2 factor buffers, the 2 row
    # stores and the wealth fold's tile buffer of each chunk
    assert len(refs) >= 2 * 8 + 2 + 2
    assert seen == [("frontier_report", C + 5, [False] * len(refs)),
                    ("laplace_report", C + 5, [False] * len(refs))]


@pytest.mark.parametrize("M", [0, -5])
def test_engine_rejects_empty_path_count(model_t1, stabs_t1, M):
    with pytest.raises(ParameterError, match="M must be >= 1"):
        simulate_variance_paths(model_t1, stabs_t1, GRID, M, SEED)
    with pytest.raises(ParameterError, match="M must be >= 1"):
        fold_stream(model_t1, stabs_t1, GRID, M, SEED, [])   # before the first chunk


def test_short_last_chunk_fits_the_scratch(model_t1, stabs_t1):
    # a last chunk of 1279 paths takes views of the first chunk's maps,
    # equals the ensemble's tail, and agrees with the dense reference to
    # rounding
    ens = _paths(model_t1, stabs_t1, C + 1279)
    last = _chunks(model_t1, stabs_t1, C + 1279)[-1]
    assert np.array_equal(last.V, ens.V[C:])
    dense, _ = dense_variance_paths(model_t1, stabs_t1, GRID, C + 1279, SEED)
    assert np.max(np.abs(ens.V - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_scratch_leaves_before_a_consumer(model_t1, stabs_t1, monkeypatch):
    # each asset's engine maps its scratch once per stream, sized by the
    # first chunk; every chunk's scratch and row store are views of those
    # maps, and they leave with the stream, before its consumer goes on
    made, stores = [], []
    real_scratch, real_fit = simulate._asset_scratch, simulate._fit

    def scratch_spy(*args):
        buffers = real_scratch(*args)
        made.append(buffers)
        return buffers

    def fit_spy(buf, m):
        view = real_fit(buf, m)
        stores.append((buf, view))
        return view

    monkeypatch.setattr(simulate, "_asset_scratch", scratch_spy)
    monkeypatch.setattr(simulate, "_fit", fit_spy)
    sizes = []

    def check(first, lo, V, dB):
        if lo == 0:
            sizes.append(V.shape[-1])
            assert len(made) == model_t1.d
            assert all(buf.shape[-1] == C for buffers in made for buf in buffers)

    check.increments = True
    fold_stream(model_t1, stabs_t1, GRID, 2 * C + 3, SEED, [check])
    assert sizes == [C, C, 3]
    # 6 scratch views per asset and 2 row stores per chunk, each a view of its map
    assert len(stores) == 3 * (6 * model_t1.d + 2)
    assert all(np.shares_memory(buf, view) and view.flags.c_contiguous and view.shape[-1] == m
               for (buf, view), m in zip(stores, np.repeat(sizes, 6 * model_t1.d + 2)))
    refs = [weakref.ref(buf) for buffers in made for buf in buffers]
    made.clear()
    stores.clear()
    assert all(ref() is None for ref in refs)


class _Rows:
    """A fold that keeps a copy of every block's V; increments says whether it reads dB."""

    def __init__(self, model, stabs, grid, M, increments):
        self.increments, self.V = increments, []

    def __call__(self, first, lo, V, dB):
        self.V.append(V.copy())


def test_streams_draw_each_stream_once_for_its_folds(model_t1, stabs_t1, started_streams):
    # the folds waiting on a stream are drawn together, with the increments
    # only when one of them reads them; asking again returns the fold made
    # first and draws nothing, and a fold made on a stream that has run
    # gets a fresh draw, whose V is the same bit for bit
    def increments():
        return [started.increments for started in started_streams]

    streams = simulate.Streams(SEED)
    stream = (model_t1, stabs_t1, GRID, C + 5, "fixed")
    first = streams.fold(*stream, _Rows, False)
    integrals = streams.fold(*stream, markowitz._TimeIntegrals)
    assert increments() == []
    assert streams.result(*stream, _Rows, False) is first and increments() == [False]
    assert streams.result(*stream, markowitz._TimeIntegrals) is integrals
    assert increments() == [False]
    assert integrals.total.shape == (2, C + 5)
    again = streams.result(*stream, _Rows, True)        # other args: a fold of its own
    assert again is not first and increments() == [False, True]
    assert streams.result(*stream, _Rows) is first      # no args: the first of its kind
    assert increments() == [False, True] and len(first.V) == len(again.V) == 4
    for a, b in zip(first.V, again.V, strict=True):
        assert np.array_equal(a, b)


class _Failing:
    """A fold that raises in the second block of cells."""

    increments = False

    def __init__(self, *stream):
        pass

    def __call__(self, first, lo, V, dB):
        if lo >= 64:
            raise NonFiniteError("spoiled block")


def test_a_failing_fold_leaves_no_pool_threads(model_t1, stabs_t1, monkeypatch):
    # an error raised in a fold closes the stream's pool as it propagates:
    # no worker outlives the call while the caller still holds the error
    monkeypatch.setattr(simulate, "_pool_size", lambda: 2)
    before = threading.active_count()
    with pytest.raises(NonFiniteError, match="spoiled block") as caught:
        simulate.Streams(SEED).result(model_t1, stabs_t1, GRID, C + 5, "fixed", _Failing)
    assert caught.value.__traceback__ is not None
    assert threading.active_count() == before


def test_a_finished_stream_keeps_only_the_results_of_its_folds(model_t1, stabs_t1, monkeypatch):
    # Streams keeps the folds of a stream that has run, for the stages that
    # read their results, but none of the maps that the stream or its folds
    # made (engine scratch, row store, tile buffers)
    refs = []

    def mapped_spy(real):
        def wrapped(shape):
            arr = real(shape)
            refs.append(weakref.ref(arr))
            return arr
        return wrapped

    for module in (simulate, markowitz):
        monkeypatch.setattr(module, "_mapped", mapped_spy(module._mapped))
    streams = simulate.Streams(SEED)
    fixed = (model_t1, stabs_t1, GRID, C + 5, "fixed")
    integrals = streams.fold(*fixed, markowitz._TimeIntegrals)
    wealth = streams.result(*fixed, montecarlo._WealthMoments, 3.0)
    moments = streams.result(model_t1, stabs_t1, GRID, C + 5, "stationary",
                             montecarlo._VarianceMoments)
    # each asset's 6 scratch and 2 factor buffers and the 2 row stores per
    # stream, and the tile buffer of each wealth chunk
    assert len(refs) >= 2 * (2 * 8 + 2) + 2
    assert [ref() for ref in refs] == [None] * len(refs)
    assert wealth.A_T.shape == wealth.B_T.shape == (C + 5,)
    assert integrals.total.shape == (2, C + 5)
    assert [len(st.mean) for st in wealth.moments.stats() + moments.stats()] == [71, 70, 70, 71, 71]


def test_one_driver_draws_and_folds_the_streams():
    # src/ draws a block stream only in Streams and in
    # simulate_variance_paths (which the benchmark reads), and folds a
    # whole ensemble (its one-argument fold) only in simulate_wealth and
    # laplace_affine_check; src/ has no generator but two context
    # managers, the engine's pool and the CLI's stage timer, since the
    # engine calls every fold on each block and each fold steps that block
    # itself.  Memory is mapped (``simulate._mapped``) only by simulate's
    # engine, factor and stream, and by the wealth recursion's tiles.
    # Every fold, a class with an ``increments`` attribute or a function
    # given one, takes (first, lo, V, dB); the chunk size is read only by
    # simulate and the manifest, and no chunk object is left
    streams, ensembles, generators, maps = set(), set(), set(), set()
    folds, chunk_size = {}, set()
    for path in Path(voltmark.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "PathChunk" not in text, path.name
        for top in ast.parse(text).body:
            where = f"{path.stem}.{getattr(top, 'name', '')}"
            if isinstance(top, ast.ClassDef) and any(
                    isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None)
                    == "increments" for node in top.body):
                [call] = [node for node in top.body
                          if isinstance(node, ast.FunctionDef) and node.name == "__call__"]
                folds[where] = [arg.arg for arg in call.args.args[1:]]
            given = {target.value.id for node in ast.walk(top) if isinstance(node, ast.Assign)
                     for target in node.targets if isinstance(target, ast.Attribute)
                     and target.attr == "increments" and isinstance(target.value, ast.Name)}
            for node in ast.walk(top):
                if isinstance(node, ast.FunctionDef) and node.name in given:
                    folds[f"{where}.{node.name}"] = [arg.arg for arg in node.args.args]
                if getattr(node, "id", getattr(node, "attr", None)) == "_CHUNK_PATHS" \
                        and isinstance(node, (ast.Name, ast.Attribute)):
                    chunk_size.add(where)
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name == "fold_stream":
                        streams.add(where)
                    if name == "_mapped":
                        maps.add(where)
                    if name == "fold" and isinstance(node.func, ast.Attribute) \
                            and len(node.args) == 1:
                        ensembles.add(where)
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    generators.add(where)
    assert streams == {"simulate.Streams", "simulate.simulate_variance_paths"}
    assert ensembles == {"markowitz.simulate_wealth", "markowitz.laplace_affine_check"}
    assert generators == {"simulate._workers", "cli._Stages"}
    assert {where for where in maps if not where.startswith("simulate.")} == {"markowitz._Wealth"}
    assert {"markowitz._Wealth", "markowitz._TimeIntegrals", "montecarlo._VarianceMoments",
            "cli._Dump", "simulate.simulate_variance_paths.copy"} <= set(folds)
    assert {where: args for where, args in folds.items()
            if args != ["first", "lo", "V", "dB"]} == {}
    assert {where for where in chunk_size if not where.startswith("simulate.")} == \
        {"cli.write_manifest"}
