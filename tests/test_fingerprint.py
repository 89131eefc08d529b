"""The output fingerprint of ``voltmark full --seed 7041`` and of two two-chunk dumps.

``fingerprint.json`` holds, for each of full's CSVs, its stdout and the
``paths.bin`` of ``simulate --dump-paths`` on the bundled config at n = 30
and M = ``_CHUNK_PATHS`` + 5 (two chunks), the file's sha256 and a summary
of its parsed values, plus the environment it was taken in: numpy, its
BLAS, the machine and numpy's SIMD targets, on which the last bits
depend.  It holds the same for ``full`` at the Markovian edge alpha = 1
(``ALPHA1``, a small grid and few paths), its names prefixed
``alpha1_``, and for a two-chunk dump at that alpha (``ALPHA1_DUMP``,
n = 130): on chunk-sized path counts the layout of the alpha = 1
asset's rank-1 factor picks numpy's matmul route, which moves bits that
no CSV shows.  Every command runs in a child with VOLTMARK_THREADS=1.

In the recorded environment every file must hash the same, so a change
of one unit in the last digit of one CSV cell fails.  Elsewhere only the
summaries are compared, each value to ``RTOL`` of max(1, |value|), a
relative tolerance that the rounding of another BLAS or numpy stays far
below and that any change of the paths' draws or arithmetic exceeds.
The summaries are compared in every environment.

An announced stream or value change rewrites the file, by

    PYTHONPATH=src python tests/test_fingerprint.py

and lists every file whose hash moved.
"""

import hashlib
import io
import json
import pathlib
import platform
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from conftest import child_env
from voltmark import cli, simulate

FINGERPRINT = pathlib.Path(__file__).with_name("fingerprint.json")
RTOL = 1e-6
SEED = 7041
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# the bundled config's changes for the alpha = 1 run
ALPHA1 = {"alpha": "1.0, 0.9", "n": "40", "M": "200", "laplace_M": "200",
          "stationarity_M": "200"}
ALPHA1_DUMP = {"alpha": "1.0, 0.9", "n": "130", "M": str(simulate._CHUNK_PATHS + 5)}


def environment() -> dict:
    """What the bits depend on besides the code, config, seed and thread count."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine(), "simd": config["SIMD Extensions"]["found"]}


def _voltmark(*args: str) -> str:
    return subprocess.run([sys.executable, "-m", "voltmark", *args], capture_output=True,
                          text=True, env=dict(child_env(), VOLTMARK_THREADS="1"),
                          check=True).stdout


def _config(path: pathlib.Path, changes: dict) -> str:
    """Write the bundled config with each key's value replaced to path."""
    text = cli._DEFAULT_CONFIG
    for key, value in changes.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1, key
    path.write_text(text, encoding="utf-8")
    return str(path)


def _full(out: pathlib.Path, *args: str) -> dict[str, bytes]:
    """full --seed SEED's CSVs and stdout, made in out."""
    stdout = _voltmark("full", "--seed", str(SEED), "--out", str(out), *args)
    files = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    files["stdout"] = stdout.encode()
    return files


def outputs(tmp: pathlib.Path) -> dict[str, bytes]:
    """Each fingerprinted output by name, made under tmp."""
    files = _full(tmp / "full")
    alpha1 = _full(tmp / "alpha1", "--config", _config(tmp / "alpha1.ini", ALPHA1))
    files.update((f"alpha1_{name}", data) for name, data in alpha1.items())
    dumps = {"paths.bin": {"n": "30", "M": str(simulate._CHUNK_PATHS + 5)},
             "alpha1_paths.bin": ALPHA1_DUMP}
    for name, changes in dumps.items():
        out = tmp / name.replace(".", "_")
        config = _config(tmp / f"{out.name}.ini", changes)
        _voltmark("simulate", "--config", config, "--out", str(out), "--dump-paths")
        files[name] = (out / "paths.bin").read_bytes()
    return files


def summary(name: str, data: bytes) -> list:
    """The parsed values of an output, summarized: stdout's numbers in order;
    per column of a CSV, and per asset of the dump (after its header M, d, n,
    T), the minimum, maximum, mean, first and last value."""
    if name.endswith("stdout"):
        return [float(token) for token in _NUMBER.findall(data.decode())]
    if name.endswith("paths.bin"):
        M, d, n = (int(v) for v in np.frombuffer(data, "<i8", count=3))
        header = [M, d, n, float(np.frombuffer(data, "<f8", count=1, offset=24)[0])]
        body = np.frombuffer(data, "<f8", offset=32).reshape(M, d, n + 1)
        columns = body.transpose(0, 2, 1).reshape(-1, d)
    else:
        header = []
        columns = np.loadtxt(io.StringIO(data.decode()), delimiter=",", skiprows=1, ndmin=2)
    rows = [columns.min(0), columns.max(0), columns.mean(0), columns[0], columns[-1]]
    return header + np.stack(rows).tolist()


def _close(got, want) -> bool:
    got, want = (np.asarray(v, dtype=float) for v in (got, want))
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= RTOL * np.maximum(1.0, np.abs(want))))


def _flat(values: list) -> list:
    return [x for v in values for x in (v if isinstance(v, list) else [v])]


def mismatches(files: dict[str, bytes], recorded: dict) -> list[str]:
    """The outputs that miss their record: by hash in the recorded
    environment, by summary in every environment."""
    exact = recorded["environment"] == environment()
    return [name for name, data in files.items()
            if (exact and hashlib.sha256(data).hexdigest() != recorded["files"][name]["sha256"])
            or not _close(_flat(summary(name, data)), _flat(recorded["files"][name]["values"]))]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("fingerprint"))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FINGERPRINT.read_text(encoding="utf-8"))


def test_full_and_dump_keep_their_fingerprint(files, recorded):
    assert sorted(files) == sorted(recorded["files"])
    assert mismatches(files, recorded) == []


def _moved(data: bytes, factor: float) -> bytes:
    """A one-row CSV with its first value multiplied by factor."""
    header, row = data.decode().splitlines()
    first, rest = row.split(",", 1)
    return f"{header}\n{float(first) * factor:.12g},{rest}\n".encode()


def test_another_environment_compares_the_summaries(files, recorded, monkeypatch):
    # elsewhere no hash is compared: a value moved well inside RTOL passes
    # (its hash differs), one moved beyond RTOL fails
    monkeypatch.setitem(globals(), "environment", lambda: {})
    name = "laplace_check.csv"
    assert mismatches(files, recorded) == []
    assert mismatches(dict(files, **{name: _moved(files[name], 1.0 + 0.1 * RTOL)}),
                      recorded) == []
    assert mismatches(dict(files, **{name: _moved(files[name], 1.0 + 10.0 * RTOL)}),
                      recorded) == [name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        made = outputs(pathlib.Path(tmp))
    text = json.dumps({
        "environment": environment(),
        "files": {name: {"sha256": hashlib.sha256(data).hexdigest(),
                         "values": summary(name, data)} for name, data in made.items()},
    }, indent=1)
    # one line per list of numbers
    text = re.sub(r"\[\s+([^][]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    FINGERPRINT.write_text(text + "\n", encoding="utf-8")
