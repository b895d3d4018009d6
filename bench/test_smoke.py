"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root with ``python -m pytest bench/test_smoke.py``.
Each workload runs untraced and traced; every metric named in
``BENCHMARK.json`` must be reported, no output may fail its checks, and both
runs must simulate byte-identical outputs.  A known program defect that the
workloads do not reach is shown by an expected failure (strict).
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402  (needs the paths above)

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = BENCH.parent):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(done):
    assert done.returncode == 0, done.stderr
    *_, info, result = done.stdout.splitlines()
    return json.loads(info)["info"], json.loads(result)


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def _runs(workload: str):
    """Untraced and traced tiny runs of ``workload``: ``((info, result), ...)``."""
    return _result(_run(workload, 0)), _result(_run(workload, 1))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_tiny(workload):
    (info0, plain), (info1, traced) = _runs(workload)
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for result in (plain, traced):
        assert result["attempted"] >= 1
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    # Every workload draws random numbers, so the traced run must see draws.
    assert traced["metrics"]["rng.values"]["value"] > 0
    assert info0["digest"] == info1["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_failed_outputs(workload):
    for _, result in _runs(workload):
        assert result["failed"] == 0 and result["correct"]


@pytest.mark.xfail(strict=True, reason=workloads.SLOT_FILL_DEFECT)
def test_message_filling_every_slot(tmp_path):
    # session-large's checks on a message with more groups than the sender
    # memory returns slots for; passes once the defect is fixed.
    wl = workloads.SessionLarge(7, True, tmp_path)
    inp = wl.overfill(wl.make_input(0))
    assert wl.check(inp, wl.run(inp)) == []


def test_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
