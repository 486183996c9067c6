"""sqlab benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload {highlow,lowpass,arcs}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; sqlab is imported from ``src/``.
Each round runs the workload's operations back to back in a fresh worker
process (``worker.py``); rounds repeat until ``--seconds`` have passed (at
least one).  Every operation's report is checked against the reference
stored in ``refs/``.

``--trace 0`` prints the end-to-end metrics, medians over the rounds:
``setup_s`` (spawn until ``sqlab`` is imported; also sampled by set-up-only
processes), ``wall_s`` (the operations of one round) and ``peak_rss_mb``
(``ru_maxrss`` of the round's process).  ``--trace 1`` runs one untraced
and two traced rounds and prints the per-layer metrics; every count must be
equal between the two traced rounds.

Workers run with PYTHONHASHSEED=0 and without address-space randomisation
(``personality(ADDR_NO_RANDOMIZE)``, this process tree only): with both
fixed, heap layout and so ``ru_maxrss`` repeat exactly run to run.

The last line of stdout is the result JSON; lines before it describe the
environment and each round.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]  # src: the argmax oracles in refcheck

import refcheck  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
ROUND_TIMEOUT_S = 150
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
ADDR_NO_RANDOMIZE = 0x0040000


class BenchError(Exception):
    """The benchmark cannot run here; the message is one line."""


def _personality():
    """libc personality(), or None where it is not available."""
    try:
        fn = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_ulong], ctypes.c_int
    return fn


_PERSONALITY = _personality()


def _no_aslr() -> None:
    """Run in the child before exec: turn off address randomisation for it."""
    current = _PERSONALITY(0xFFFFFFFF)
    if current != -1:
        _PERSONALITY(current | ADDR_NO_RANDOMIZE)


def mem_available_mb() -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("MemAvailable missing from /proc/meminfo")


def environment(seed: int) -> dict:
    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_available_mb": round(mem_available_mb(), 1),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "aslr_off": _PERSONALITY is not None,
    }


def run_worker(args: list[str]) -> tuple[dict, float]:
    """Spawn one worker; returns its JSON line and its set-up time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        preexec_fn=_no_aslr if _PERSONALITY else None,
    )
    try:
        out, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    return result, result["ready"] - spawned


def load_refs(workload: str) -> dict:
    with open(HERE / "refs" / f"{workload}.json") as fh:
        return json.load(fh)


def check_round(result: dict, workload: str, seed: int, refs: dict) -> dict[str, list[str]]:
    """Failed operations of a round (raised, exited non-zero or disagreed
    with the reference), each with its problems."""
    ops = {op.op_id: op for op in workloads.ops(workload, seed)}
    failed: dict[str, list[str]] = {}
    expected = (ROOT / "src" / "sqlab" / "cli.py").resolve()
    if Path(result["sqlab_file"]).resolve() != expected:
        failed["import"] = [f"sqlab imported from {result['sqlab_file']}, not {expected}"]
    for item in result["ops"]:
        op = ops[item["id"]]
        if item["status"] != "ok":
            failed[op.op_id] = [item["status"]]
            continue
        per_seed = refs[op.op_id]
        key = str(seed) if op.seeded else "any"
        same_seed = key in per_seed
        ref = per_seed[key] if same_seed else per_seed[str(workloads.DEFAULT_SEED)]
        mismatches = refcheck.compare(item["text"], ref, same_seed)
        if mismatches:
            failed[op.op_id] = mismatches
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sqlab benchmark (closed loop, one client)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "sqlab" / "cli.py").is_file():
        raise BenchError(f"no sqlab source under {ROOT / 'src'}; run from a source checkout")
    have = mem_available_mb()
    if have < workloads.LARGEST_PEAK_MB:
        raise BenchError(
            f"MemAvailable is {have:.0f} MB, below the {workloads.LARGEST_PEAK_MB} MB peak of the largest workload"
        )
    refs = load_refs(args.workload)
    print(json.dumps({"environment": environment(args.seed)}), flush=True)

    run_worker(["--setup-only"])  # untimed: writes bytecode caches once
    setups = [run_worker(["--setup-only"])[1] for _ in range(SETUP_PROBES)]
    # fixed-width seed: the worker's argv, and so its heap layout, does not
    # change size with the seed
    base = ["--workload", args.workload, "--seed", f"{args.seed:020d}"]
    rounds: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    failed = 0
    for mode in round_modes(bool(args.trace), args.seconds):
        extra = []
        if mode == "traced":
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            extra = ["--trace-file", str(out_dir / f"trace-{args.workload}.npz")]
        result, setup = run_worker(base + extra)
        (traced if mode == "traced" else rounds).append(result)
        setups.append(setup)
        round_failed = check_round(result, args.workload, args.seed, refs)
        failed += len(round_failed)
        problems += [f"{op_id}: {p}" for op_id, ps in round_failed.items() for p in ps]
        print(json.dumps({
            "round": len(rounds) + len(traced), "mode": mode, "setup_s": setup,
            "wall_s": result["wall_s"], "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "ops": {op["id"]: round(op["seconds"], 4) for op in result["ops"]},
            "failed": sorted(round_failed),
        }), flush=True)

    attempted = sum(len(r["ops"]) for r in rounds + traced)
    if args.trace:
        import tracer

        metrics = _trace_metrics(rounds, traced, tracer)
        mismatches = metrics["trace.count_mismatches"]["value"]
        if mismatches:
            problems.append(f"{mismatches} counts differ between the two traced rounds")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_kb"] / 1024.0 for r in rounds), "unit": "MB"},
        }
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print(json.dumps({"fail_frac": failed / attempted, "rounds": len(rounds) + len(traced)}), flush=True)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics,
    }), flush=True)
    return 0


def round_modes(trace: bool, seconds: float):
    """Untraced rounds until ``seconds`` have passed, at least one; or, for
    the traced run, one untraced round and two traced ones."""
    if trace:
        yield from ("plain", "traced", "traced")
        return
    start = time.perf_counter()
    yield "plain"
    while time.perf_counter() - start < seconds:
        yield "plain"


def _trace_metrics(rounds: list[dict], traced: list[dict], tracer) -> dict:
    """Per-layer metrics: times are the median of the two traced rounds,
    counts those of the first, which must equal the second's."""
    first, second = (t["layers"] for t in traced)
    values = {name: statistics.median([first[name], second[name]]) for name in first}
    values.update({name: first[name] for name in tracer.COUNTS})
    values["trace.overhead_s"] = statistics.median(t["wall_s"] for t in traced) - rounds[0]["wall_s"]
    values["trace.count_mismatches"] = sum(first[n] != second[n] for n in tracer.COUNTS)
    return {name: {"value": values[name], "unit": tracer.UNITS[name]} for name in tracer.PER_LAYER}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
