"""Run every workload untraced and traced, and check that tracing changes no result.

    python3 perfbench/suite.py

Each workload runs once with ``--trace 0``, printing every end-to-end
metric by name and unit, and once with ``--trace 1``, printing every
per-layer metric and the tracing overhead; both with seed 1 and the
``run_seconds`` of BENCHMARK.json, as a benchmark run gets them.  Every input must then have the same verdict and
the same trace digest in both runs, and inside the traced run its traced
contraction must match its untraced one.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

SEED = 1


def outcomes(workload, seed, seconds, trace):
    cmd = [
        sys.executable,
        str(run.HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    subprocess.run(cmd, check=True)
    path = run.OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))["outcomes"]


def main():
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    run.import_program()
    import workloads

    bad = 0
    for name in workloads.WORKLOADS:
        plain = outcomes(name, SEED, seconds, 0)
        traced = outcomes(name, SEED, seconds, 1)
        diffs = []
        for item_id, first in sorted(plain.items()):
            other = traced.get(item_id, {})
            seen = (other.get("exit"), other.get("digest"), other.get("traced_digest"))
            if seen != (first["exit"], first["digest"], first["digest"]):
                diffs.append(item_id)
        if set(traced) != set(plain):
            diffs.append("input set")
        verdict = "identical" if not diffs else "DIFFERENT: " + ", ".join(diffs)
        print(f"tracing check, {name}: {len(plain)} inputs, verdicts and trace bytes {verdict}", flush=True)
        bad += bool(diffs)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
