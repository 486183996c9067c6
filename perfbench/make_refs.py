"""Store every operation's report as the reference for the check.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs one untraced round per workload at the default and the held-out seed
and writes ``refs/<workload>.json``: seeded operations keep one report per
seed, the others one report under "any" (both seeds must agree on it).
Run it only at a commit whose outputs are the ones to keep.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main(names: list[str]) -> int:
    for name in names or workloads.WORKLOADS:
        refs: dict[str, dict] = {}
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            result, _ = run.run_worker(["--workload", name, "--seed", str(seed)])
            seeded = {op.op_id: op.seeded for op in workloads.ops(name, seed)}
            for item in result["ops"]:
                if item["status"] != "ok":
                    raise SystemExit(f"{name} seed {seed}: {item['id']} {item['status']}")
                report = json.loads(item["text"])
                key = str(seed) if seeded[item["id"]] else "any"
                kept = refs.setdefault(item["id"], {})
                if key in kept and kept[key] != report:
                    raise SystemExit(f"{name}: {item['id']} differs between seeds")
                kept[key] = report
        path = run.HERE / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
