"""Print the change per metric name between two benchmark results.

    python3 perfbench/compare.py OLD NEW

Each argument is a result file written to ``perfbench-out/`` or a saved
standard output of ``run.py``, whose last line is the result object.  The
direction of each change is judged by the ``better`` field of
BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path):
    text = Path(path).read_text(encoding="utf-8").strip()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = json.loads(text.splitlines()[-1])
    return doc, {**doc.get("end_to_end", {}), **doc["metrics"]}


def better_of():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    (old_doc, old), (new_doc, new) = load(argv[0]), load(argv[1])
    better = better_of()
    for key in ("correct", "attempted", "failed"):
        print(f"{key:48s} {old_doc[key]!s:>14} {new_doc[key]!s:>14}")
    for name in [*old, *(n for n in new if n not in old)]:
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            print(f"{name:48s} {'-' if a is None else a['value']:>14} {'-' if b is None else b['value']:>14}")
            continue
        x, y, unit = a["value"], b["value"], b["unit"]
        if x == y:
            change, verdict = "0.0%", "same"
        elif x == 0:
            change, verdict = "n/a", "changed"
        else:
            change = f"{(y - x) / abs(x):+.1%}"
            lower = better.get(name) == "lower"
            verdict = "better" if (y < x) == lower else "worse"
        print(f"{name:48s} {x:14.6g} {y:14.6g} {unit:6s} {change:>8} {verdict}")


if __name__ == "__main__":
    main()
