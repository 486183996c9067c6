"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace-file F.npz]
    python3 perfbench/worker.py --setup-only

Prints one JSON line: ``ready`` is the ``perf_counter`` reading (a
system-wide monotonic clock) once ``sqlab`` is imported, so the parent can
take the set-up time from its own reading at spawn; ``ops`` holds each
operation's status, time and rendered report; ``wall_s`` is the time of all
operations back to back; ``peak_rss_kb`` is this process's ``ru_maxrss``.
With ``--trace-file`` the sqlab layers are wrapped while the operations run
and the per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_op(op, state, cli, libops) -> dict:
    """Run one operation; a raise or a non-zero exit is a failed status."""
    t0 = time.perf_counter()
    try:
        if op.kind == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(op.args))
            status, text = ("ok" if rc == 0 else f"exit code {rc}"), buf.getvalue()
        else:
            fn_name, kwargs = op.args
            report = getattr(libops, fn_name)(state, **kwargs)
            status, text = "ok", json.dumps(report, sort_keys=True, indent=2) + "\n"
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        status, text = f"raised {type(exc).__name__}: {exc}", ""
    return {"id": op.op_id, "status": status, "seconds": time.perf_counter() - t0, "text": text}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from sqlab import cli  # what every `sqlab` invocation imports

    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}), flush=True)
        return 0

    import libops
    import workloads

    ops = workloads.ops(args.workload, args.seed)
    state = libops.RoundState()
    tracer = None
    if args.trace_file:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.calibrate()
        tracer.install()
    results = []
    t0 = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            token = tracer.begin_op(i) if tracer else None
            try:
                results.append(_run_op(op, state, cli, libops))
            finally:
                if tracer:
                    tracer.end_op(token)
    finally:
        wall = time.perf_counter() - t0
        if tracer:
            tracer.remove()
    out = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "sqlab_file": sys.modules["sqlab.cli"].__file__,
        "ops": results,
    }
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer)
        out["child_cost_s"] = tracer.child_cost_s
        tracer.save(args.trace_file)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
