"""The output fingerprint of ``voltmark full --seed 7041`` and of a two-chunk dump.

``fingerprint.json`` holds, for each of full's CSVs, its stdout and the
``paths.bin`` of ``simulate --dump-paths`` on the bundled config at n = 30
and M = ``_CHUNK_PATHS`` + 5 (two chunks), the file's sha256 and a summary
of its parsed values, plus the environment it was taken in: numpy, its
BLAS, the machine and numpy's SIMD targets, on which the last bits
depend.  Both commands run in a child with VOLTMARK_THREADS=1.

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

from conftest import child_env
from voltmark import cli, simulate

FINGERPRINT = pathlib.Path(__file__).with_name("fingerprint.json")
RTOL = 1e-6
SEED = 7041
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


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


def outputs(tmp: pathlib.Path) -> dict[str, bytes]:
    """Each fingerprinted output by name, made under tmp."""
    stdout = _voltmark("full", "--seed", str(SEED), "--out", str(tmp / "full"))
    files = {path.name: path.read_bytes() for path in sorted((tmp / "full").glob("*.csv"))}
    files["stdout"] = stdout.encode()
    config = tmp / "dump.ini"
    config.write_text(cli._DEFAULT_CONFIG.replace("\nn = 600\n", "\nn = 30\n").replace(
        "\nM = 5000\n", f"\nM = {simulate._CHUNK_PATHS + 5}\n"), encoding="utf-8")
    _voltmark("simulate", "--config", str(config), "--out", str(tmp / "dump"), "--dump-paths")
    files["paths.bin"] = (tmp / "dump" / "paths.bin").read_bytes()
    return files


def summary(name: str, data: bytes) -> list:
    """The parsed values of an output, summarized: stdout's numbers in order;
    per column of a CSV, and per asset of the dump (after its header M, d, n,
    T), the minimum, maximum, mean, first and last value."""
    if name == "stdout":
        return [float(token) for token in _NUMBER.findall(data.decode())]
    if name == "paths.bin":
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


def test_full_and_dump_keep_their_fingerprint(tmp_path):
    recorded = json.loads(FINGERPRINT.read_text(encoding="utf-8"))
    files = outputs(tmp_path)
    assert sorted(files) == sorted(recorded["files"])
    exact = recorded["environment"] == environment()
    for name, data in files.items():
        want = recorded["files"][name]
        if exact:
            assert hashlib.sha256(data).hexdigest() == want["sha256"], name
        assert _close(_flat(summary(name, data)), _flat(want["values"])), name


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
