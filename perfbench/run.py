"""Closed-loop gridtopo benchmark: one client, one manifold at a time.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 21 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run makes whole passes over the workload's input pool, each pass in an
order drawn from the seed, and times every contraction (or audit) end to
end, each time on a fresh input.  An input's time is the lower quartile
of its passes (the fastest of three), scaled to a reference CPU speed by
``Clock``.  Set-up is repeated through the run and reported
as its median.  Each output is checked against the independent oracles in
``oracle.py`` outside the timed region.  With ``--trace 1`` every input
runs untraced and then traced; the per-layer metrics come from the traced
runs, and the gap between the two wall times is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with every input's verdict, trace digest and raw time, is written to
``perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"


def import_program():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import gridtopo
    except ImportError as err:
        sys.exit(f"perfbench: cannot import gridtopo from {src}: {err}")
    if Path(gridtopo.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: gridtopo imported from {gridtopo.__file__}, not from {src}")


class HeapPeak:
    """The most Python heap blocks a piece of work holds above its start.

    ``sys.getallocatedblocks()`` is read at the start of every garbage
    collection (a fixed point in the program's allocation sequence, so the
    reading repeats run to run), every SAMPLE_S of CPU time (from a
    profiling-timer signal) and once the work has returned.  Unlike
    ``ru_maxrss`` it leaves out the ~64 MB that importing numpy and scipy
    takes before any work starts.
    """

    SAMPLE_S = 0.001

    def __init__(self):
        self.base = self.peak = 0
        signal.signal(signal.SIGPROF, lambda _signum, _frame: self.sample())

    def _on_gc(self, phase, _info):
        if phase == "start":
            self.sample()

    def sample(self):
        self.peak = max(self.peak, sys.getallocatedblocks())

    def start(self):
        self.base = self.peak = sys.getallocatedblocks()
        gc.callbacks.append(self._on_gc)
        signal.setitimer(signal.ITIMER_PROF, self.SAMPLE_S, self.SAMPLE_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        gc.callbacks.remove(self._on_gc)
        self.sample()
        return self.peak - self.base


class Clock:
    """Times work in seconds at a reference CPU speed.

    On the 2-core VM the benchmark was defined on, the CPU speed swings by
    20% and more over seconds to minutes (see README.md), far more than a
    change under test should be allowed to hide in.  A fixed pure-Python probe from ``oracle.py`` reads the
    speed between pieces of work and every SAMPLE_S seconds during one
    (from a timer signal).  A piece's time, less the time spent in probes,
    is scaled by REF_PROBE_S over the median probe time within WINDOW_S
    of it.  The probe is benchmark code, so no change to gridtopo can
    move it.
    """

    REF_PROBE_S = 1.1e-3  # the probe's typical time on the seed commit's 2-core VM
    SAMPLE_S = 0.03
    WINDOW_S = 0.25
    PROBE = oracle.boundary_of_solid([((x, y, z), (0, 1, 2)) for x in range(2) for y in range(2) for z in range(1)])

    def __init__(self):
        self.probe_at = []  # when each probe ran, ascending
        self.probes = []  # how long it took
        self.pieces = []  # (start, end, raw seconds) of each timed piece
        self._probing_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def probe(self):
        """One probe, with the collector off, so that garbage left by the
        program under test cannot slow it; returns the seconds it took."""
        gc.disable()
        t0 = time.perf_counter()
        oracle.is_closed_manifold(self.PROBE)
        oracle.euler_characteristic(self.PROBE)
        t1 = time.perf_counter()
        gc.enable()
        self.probe_at.append(t0)
        self.probes.append(t1 - t0)
        return t1 - t0

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        self.probe()
        self._probing_s += time.perf_counter() - t0

    def start(self):
        self.probe()
        self._probing_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)
        return time.perf_counter()

    def stop(self, t0):
        """Raw seconds of the piece started at t0; ``scaled`` gives the
        scaled time once the run is over and the probes after it are in."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        raw = t1 - t0 - self._probing_s
        self.pieces.append((t0, t1, raw))
        self.probe()
        return len(self.pieces) - 1

    def scaled(self, piece):
        t0, t1, raw = self.pieces[piece]
        lo = bisect.bisect_left(self.probe_at, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.probe_at, t1 + self.WINDOW_S)
        return raw * self.REF_PROBE_S / statistics.median(self.probes[lo:hi])


def lower_quartile(values):
    """The value at rank (r - 1) // 4 of r sorted runs: the fastest when
    r <= 4, about p25 when r is large (audit's 105 pieces of 3 ms, whose
    fastest is set by noise in the scaling more than by the program)."""
    xs = sorted(values)
    return xs[(len(xs) - 1) // 4]


def tail(values):
    """(value, percentile, samples) at the highest whole percentile with at
    least ten samples beyond it.  Below p75 that is no tail (with 21
    samples it is p52), so under 40 samples the maximum is reported as p100."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 74, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return xs[rank - 1], p, n
    return xs[-1], 100, n


class Checker:
    """Judges each output against the oracles and the reference digests."""

    def __init__(self, items, reference):
        self.reference = reference
        self.verified = {}  # trace digest -> oracle verdict, so each trace is replayed once
        self.outcomes = {}  # input id -> first outcome seen
        self.failures = Counter()  # failure kind -> count
        self.drift = set()
        self.expect_sphere = {}
        for it in items:
            ref = reference.get(it.source or it.id)
            if ref is None or ref["input"] != oracle.cells_digest(it.cells):
                sys.exit(f"perfbench: input {it.id} differs from reference.json; the input pool changed")
            m = len(it.cells[0][1])
            self.expect_sphere[it.id] = m == 1 or oracle.euler_characteristic(it.cells) == 2

    def _verify(self, digest, doc):
        """(replay failure or None, whether a sphere verdict would hold)."""
        if digest not in self.verified:
            self.verified[digest] = (oracle.check_tree(doc), oracle.sphere_verdict_holds(doc))
        return self.verified[digest]

    def contraction(self, item, result, error):
        import workloads

        if error is not None:
            return "exception", None, None, None
        data, doc = workloads.contraction_bytes(result)
        digest = oracle.digest(data)
        exit_code = result.exit_code
        reason, sphere_holds = self._verify(digest, doc)
        if reason:
            return reason, digest, exit_code, doc
        if exit_code == 0:
            if not (self.expect_sphere[item.id] and sphere_holds):
                return "false_sphere", digest, exit_code, doc
        elif self.expect_sphere[item.id]:
            return "wrong_verdict", digest, exit_code, doc
        return None, digest, exit_code, doc

    def audit(self, item, out, error):
        from gridtopo.errors import ReplayMismatch

        digest = oracle.digest(item.payload)
        doc = json.loads(item.payload)
        statuses = oracle.terminal_statuses(doc)
        exit_code = {"irreducible_sphere": 0, "obstruction": 2}.get(statuses[0], 3)
        if error is not None:
            kind = "replay" if isinstance(error, ReplayMismatch) else "exception"
        else:
            again, all_valid, frames, states = out
            kind = (
                self._verify(digest, doc)[0]
                or (not all_valid and "invalid_state")
                or (again != item.payload and "reserialise")
                or (frames != states and "render")
                or (exit_code != 0 and self.expect_sphere[item.id] and "wrong_verdict")
                or None
            )
        return kind, digest, exit_code, None

    def known_defect(self, item, kind, exit_code):
        """Whether a failure is one the reference commit already had: a
        sphere given the same non-zero exit as recorded there (ROADMAP
        item 2's false obstruction).  It still counts in `failed` and
        `ok_frac`; every other failure makes the run incorrect."""
        ref_exit = self.reference[item.source or item.id]["exit"]
        return kind == "wrong_verdict" and exit_code != 0 and exit_code == ref_exit

    def record(self, item, kind, digest, exit_code, traced):
        first = self.outcomes.setdefault(item.id, {"exit": exit_code, "digest": digest, "failure": kind})
        if digest is not None and first["digest"] is not None and digest != first["digest"]:
            kind = kind or ("traced_differs" if traced else "nondeterministic")
        if traced:
            first.setdefault("traced_digest", digest)
        ref = self.reference[item.source or item.id]
        if digest is not None and digest != ref["trace"]:
            self.drift.add(item.id)
        if kind:
            self.failures[kind] += 1
        return kind


def layer_metrics(tracer, drift, steps, passes):
    """Per-layer metrics, per traced pass over the pool; `steps` counts the
    step kinds, and the split-tree nodes, of the traced contractions."""
    metrics = {}
    totals = tracer.totals()
    for name, (calls, self_s, failed) in totals.items():
        metrics[f"{name}.calls"] = (calls / passes, "count")
        metrics[f"{name}.self_s"] = (self_s / passes, "s")
        metrics[f"{name}.failed"] = (failed / passes, "count")
    metrics["engine.replacements"] = (steps["replace"] / passes, "count")
    metrics["engine.splits"] = (steps["split"] / passes, "count")
    metrics["engine.flips"] = (steps["move"] / passes, "count")
    metrics["engine.nodes"] = (steps["node"] / passes, "count")
    applied = steps["replace"] + steps["split"]
    fillings = totals["curviness.replacement_filling"][0]
    metrics["curviness.fillings_per_applied"] = (fillings / applied if applied else 0.0, "ratio")
    fits, _, fit_failed = totals["curviness.fit_region"]
    metrics["curviness.fit_ok_frac"] = ((fits - fit_failed) / fits if fits else 0.0, "ratio")
    metrics["filling.min_filling.budget_exceeded"] = (tracer.budget_exceeded / passes, "count")
    metrics["engine.trace_drift"] = (drift, "count")
    return metrics


def count_steps(doc, into):
    for d in (doc, *doc.get("children", {}).values()):
        into["node"] += 1
        into.update(s["kind"] for s in d["steps"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    frames_dir = OUT / f"frames-{args.workload}-{args.seed}"

    # Set-up runs once before the first pass and again at even steps
    # through the run, so that its median spans the run's CPU-speed swings.
    setup_pieces = []
    heap = HeapPeak()
    clock = Clock()

    def build():
        gc.collect()
        t0 = clock.start()
        built = wl.make_items()
        setup_pieces.append(clock.stop(t0))
        return built

    items = build()
    checker = Checker(items, reference)
    if wl.name == "audit":
        run_one, check = workloads.Audit(frames_dir), checker.audit
    else:
        run_one, check = workloads.contract_one, checker.contraction

    rng = random.Random(args.seed)
    passes = max(1, round(args.seconds / wl.nominal_pass_s))
    total = passes * len(items)
    setups_due = [j * total // wl.setup_reps for j in range(1, wl.setup_reps)]
    tracer = Tracer() if args.trace else None
    gc.collect()
    gc.freeze()

    pieces = {False: {}, True: {}}  # input index -> its timed pieces, untraced and traced
    heap_growth = []  # heap blocks each untraced piece held above its start, at peak
    traced_steps = Counter()
    attempted = failed = done = 0
    sound = True
    # A traced run times each input untraced and then traced, back to back,
    # so that the overhead is measured at the same CPU speed.
    modes = (False, True) if tracer else (False,)
    for _ in range(passes):
        for i in rng.sample(range(len(items)), len(items)):
            while setups_due and setups_due[0] <= done:
                setups_due.pop(0)
                build()
            done += 1
            item = items[i]
            for traced in modes:
                # A new input per run, so that no run starts with the
                # caches an earlier run filled on its input, and no garbage
                # of an earlier run for the collector to find.
                fresh = workloads.fresh_input(item)
                gc.collect()
                if traced:
                    tracer.item = i
                    tracer.install()
                else:
                    heap.start()
                t0 = clock.start()
                try:
                    out, error = run_one(fresh), None
                except Exception as err:  # a crash is an outcome to count, not to stop on
                    out, error = None, err
                piece = clock.stop(t0)
                if traced:
                    tracer.uninstall()
                else:
                    heap_growth.append(heap.stop())
                pieces[traced].setdefault(i, []).append(piece)
                del fresh
                kind, digest, exit_code, doc = check(item, out, error)
                kind = checker.record(item, kind, digest, exit_code, traced)
                attempted += 1
                if kind:
                    failed += 1
                    sound &= checker.known_defect(item, kind, exit_code)
                if traced and doc is not None:
                    count_steps(doc, traced_steps)
                del out, doc  # hold one result at a time
    shutil.rmtree(frames_dir, ignore_errors=True)

    # Each input's time is the lower quartile of its runs; raw times are
    # kept alongside.  The tail is taken over every untraced run.
    per_input = {t: {i: lower_quartile(map(clock.scaled, ps)) for i, ps in by.items()} for t, by in pieces.items()}
    per_input_raw = {t: {i: lower_quartile(clock.pieces[p][2] for p in ps) for i, ps in by.items()} for t, by in pieces.items()}
    setup_times = [clock.scaled(p) for p in setup_pieces]

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = list(per_input[False].values())
    tail_s, tail_pct, tail_n = tail([clock.scaled(p) for ps in pieces[False].values() for p in ps])
    wall_s = sum(times)
    summary = {
        "wall_s": (wall_s, "s"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdict_tail_s": (tail_s, "s"),
        "ok_frac": (1 - failed / attempted, "ratio"),
        "peak_heap_blocks": (max(heap_growth), "blocks"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    print(f"workload={wl.name} seed={args.seed} inputs={len(items)} passes={passes} trace={args.trace}")
    print(f"verdict_tail_s is p{tail_pct} of {tail_n} runs; peak_rss_mb={peak_rss_mb:.1f} (ru_maxrss, imports included)")
    print(f"raw wall_s={sum(per_input_raw[False].values()):.4f} probe median={statistics.median(clock.probes) * 1e3:.4f} ms")
    print(f"failed={failed} attempted={attempted} failed_frac={failed / attempted:.4f} kinds={dict(checker.failures)}")
    print(f"engine.trace_drift={len(checker.drift)} inputs {sorted(checker.drift)}")

    if tracer:
        metrics = layer_metrics(tracer, len(checker.drift), traced_steps, passes)
        overhead = sum(per_input[True].values()) / wall_s - 1
        metrics["tracing.overhead_frac"] = (overhead, "ratio")
        print(f"tracing overhead {overhead:+.1%} over untraced wall_s; {tracer.spans} spans, {tracer.bindings} bindings")
        silent = [n for n in wl.predicted if tracer.totals()[n][0] == 0]
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path, [it.id for it in items])
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        if silent:
            sys.exit(f"perfbench: predicted spans recorded no calls on {wl.name}: {silent}")
    else:
        metrics = summary
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")

    result = {
        "correct": sound,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(
        result,
        workload=wl.name,
        seed=args.seed,
        trace=args.trace,
        passes=passes,
        end_to_end={k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        verdict_tail={"percentile": tail_pct, "samples": tail_n},
        peak_rss_mb=peak_rss_mb,
        failure_kinds=checker.failures,
        setup_times=setup_times,
        input_times={items[i].id: t for i, t in sorted(per_input[False].items())},
        input_raw_times={items[i].id: t for i, t in sorted(per_input_raw[False].items())},
        raw_wall_s=sum(per_input_raw[False].values()),
        probe_median_s=statistics.median(clock.probes),
        outcomes=checker.outcomes,
        drift=sorted(checker.drift),
    )
    result_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
