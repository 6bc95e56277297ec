"""Smoke tests of the benchmark itself (tiny sizes, about a minute).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_runs = {}


def smoke(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    """Run the benchmark at smoke size; returns (exit code, stdout lines)."""
    key = (workload, trace, seed, cwd, script)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--trace", str(trace), "--smoke"],
            cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
        )
        _runs[key] = (proc.returncode, proc.stdout.splitlines(), proc.stderr)
    return _runs[key]


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == ["train-32", "register-64"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= SPEC["run_seconds"] <= 60


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train-32", "register-64"])
def test_smoke_run_emits_exactly_the_listed_metrics(workload, trace):
    rc, lines, err = smoke(workload, trace)
    assert rc == 0, err
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"nproc", "python", "numpy", "scipy", "blas", "blas_threads", "seed"} <= set(env)
    assert env["seed"] == 3


def test_traced_run_covers_its_calls_and_counts_tape_records_exactly():
    for workload in ("train-32", "register-64"):
        metrics = json.loads(smoke(workload, 1)[1][-1])["metrics"]
        assert metrics["trace.coverage_pct"]["value"] >= 90.0, workload
    # same shapes, another seed: the tape must record the same ops
    first = json.loads(smoke("train-32", 1)[1][-1])["metrics"]["tensor.tape_records"]["value"]
    again = json.loads(smoke("train-32", 1, seed=4)[1][-1])["metrics"]["tensor.tape_records"]["value"]
    assert first == again > 0


def test_seed_turns_the_same_phantoms(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", [str(HERE), str(ROOT / "src")] + sys.path)
    import numpy as np
    import workloads
    from nestreg.volio import volume_from_file

    def volumes(seed, name):
        paths = workloads.write_pairs(tmp_path / name, 8, seed, 32, 2, synth_ms=[])
        return [volume_from_file(p).values.data for pair in paths for p in pair]

    first, again, other = volumes(1, "a"), volumes(1, "b"), volumes(2, "c")
    assert workloads.orientation(1, 32) != workloads.orientation(2, 32)
    assert all(np.array_equal(x, y) for x, y in zip(first, again))
    # another seed: other inputs, made by the same synthesis
    assert not all(np.array_equal(x, y) for x, y in zip(first, other))
    assert all(np.array_equal(np.sort(x, None), np.sort(y, None)) for x, y in zip(first, other))


def test_failed_check_is_counted_and_exits_nonzero(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(HERE), str(ROOT / "src")] + sys.path)
    import run
    import workloads

    monkeypatch.setattr(workloads.TrainWorkload, "check", lambda self, i, payload: ["forced failure"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run.main(["--workload", "train-32", "--seed", "3", "--seconds", "0", "--smoke"])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1


def test_traced_run_below_the_coverage_gate_fails(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(HERE), str(ROOT / "src")] + sys.path)
    import run

    monkeypatch.setattr(run, "MIN_COVERAGE_PCT", 100.1)  # no call can reach it
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run.main(["--workload", "train-32", "--seed", "3", "--seconds", "0", "--trace", "1", "--smoke"])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False and result["failed"] == 0
    assert "trace coverage" in err.getvalue()


def test_run_without_the_engine_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines, _ = smoke("train-32", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)
