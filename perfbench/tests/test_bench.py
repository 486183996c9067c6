"""Reference rules, metric names and preflight of the benchmark command."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import refcheck
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent.parent


def _report(argv: str) -> str:
    import contextlib
    import io

    from sqlab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv.split()) == 0
    return buf.getvalue()


def test_error_columns_use_the_runner_tolerance():
    text = _report("gauss-check --q-max 20")
    ref = json.loads(text)
    ref["rows"][3][1] = 0.0  # the stored error value is not compared
    assert refcheck.compare(text, ref, same_seed=True) == []
    worse = json.loads(text)
    worse["rows"][3][1] = 2e-10  # above the runner's tol=1e-10
    assert refcheck.compare(json.dumps(worse), ref, same_seed=True)


def test_float_columns_match_to_their_tolerance():
    text = _report("improving-ratio --n 16 --trials 3")
    ref = json.loads(text)
    ref["rows"][0][2] *= 1 + 1e-13
    assert refcheck.compare(text, ref, same_seed=True) == []
    ref["rows"][0][2] *= 1 + 1e-10
    assert refcheck.compare(text, ref, same_seed=True)


def test_seeded_columns_only_checked_finite_for_other_seeds():
    text = _report("improving-ratio --n 16 --trials 3 --seed 1")
    ref = json.loads(_report("improving-ratio --n 16 --trials 3 --seed 0"))
    assert refcheck.compare(text, ref, same_seed=False) == []
    assert refcheck.compare(text, ref, same_seed=True)


def test_argmax_accepts_a_tie_and_rejects_a_lower_value():
    text = _report("lowpass-scan --j 16 --x-max 300")
    got = json.loads(text)
    ref = copy.deepcopy(got)
    ref["rows"][0][1] += 1  # another argument with the same maximum
    assert refcheck.compare(text, ref, same_seed=True) == []
    lower = copy.deepcopy(got)
    lower["rows"][0][1] = 1  # S_16(1) is below the maximum
    assert refcheck.compare(json.dumps(lower), got, same_seed=True)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert all(m["unit"] == tracer.UNITS[m["name"]] for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_operation_has_a_reference():
    for name in workloads.WORKLOADS:
        refs = run.load_refs(name)
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            for op in workloads.ops(name, seed):
                assert ("any" in refs[op.op_id]) != op.seeded
                assert str(seed) in refs[op.op_id] or not op.seeded


def test_low_memory_is_refused(monkeypatch):
    monkeypatch.setattr(run, "mem_available_mb", lambda: 100.0)
    with pytest.raises(run.BenchError, match="MemAvailable"):
        run.main(["--workload", "lowpass"])


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lowpass", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert len(proc.stderr.strip().splitlines()) == 1
