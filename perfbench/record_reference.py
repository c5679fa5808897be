"""Record reference.json: each input's digest, trace digest and exit code.

    python3 perfbench/record_reference.py

Run it on the commit whose traces are the reference (it was first run on
the commit that introduced the benchmark).  ``engine.trace_drift`` counts
the inputs whose trace bytes differ from these digests, so re-record only
when a change of picks is intended, and say so.
"""

from __future__ import annotations

import json

import run


def main():
    run.import_program()
    import oracle
    import workloads
    from gridtopo import engine

    reference = {}
    for make in (workloads.curve_items, workloads.box_items, workloads.polycube_items):
        for item in make():
            result = engine.contract(item.payload)
            data, doc = workloads.contraction_bytes(result)
            reference[item.id] = {
                "input": oracle.cells_digest(item.cells),
                "trace": oracle.digest(data),
                "exit": result.exit_code,
            }
            print(item.id, reference[item.id]["exit"], oracle.check_tree(doc) or "ok", flush=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(reference)} inputs to {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
