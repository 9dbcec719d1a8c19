"""somlogic benchmark: one workload, one process, one closed-loop caller.

    python3 bench/run.py --workload verify-wide --seed 1 --seconds 30 --trace 0

Imports somlogic from ``src/`` of the checkout this file sits in, sets the
workload up several times (the median is ``setup_s``), runs whole rounds of
ops for ``--seconds``, then checks every answer apart from the timing.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` sets up once
under the span recorder, alternates untraced and traced rounds, reports the
per-layer metrics plus the tracing overhead, and writes the spans and the
per-layer self times to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUPS = 5          # set-ups per run at least, and
SETUP_SECONDS = 1.0  # at least this long in all, so short set-ups repeat more


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["verify-wide", "query-deep", "trace-replay"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` and ``tests`` (for the oracles) first on the
    path and make sure somlogic really comes from there."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import somlogic

    where = Path(somlogic.__file__).resolve().parent
    if where != ROOT / "src" / "somlogic":
        raise ImportError(f"somlogic was imported from {where}, not from {ROOT / 'src'}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    import harness
    import tracing
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        rec = tracing.Recorder() if args.trace else None
        setups = harness.OpTimer()
        if rec:
            with tracing.installed(rec):
                wl.setup()
        while not rec and not setups.failed and (
                setups.attempted < SETUPS or sum(setups.wall) < SETUP_SECONDS):
            setups(wl.setup)
        if setups.failed:
            print(f"error: set-up failed: {setups.errors[0]}", file=sys.stderr)
            return 1
        setups.calibrate()  # the timing after the last set-up
        wl.warm_up()
        t0 = perf_counter()
        plain, traced = harness.measure(wl, args.seconds, rec)
        t1 = perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        op_alloc_mb = wl.alloc_peak_mb() if rec is None else None
        problems = wl.check()
        print(f"{args.workload} seed {args.seed}: {setups.attempted} set-ups, "
              f"ops {t1 - t0:.1f} s, memory probe and checks {perf_counter() - t1:.1f} s; "
              f"wall clock {json.dumps(plain.wall_summary())}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timers = [t for t in (plain, traced) if t is not None]
    attempted = sum(t.attempted for t in timers)
    failed = sum(t.failed for t in timers)
    for t in timers:
        for err in sorted(set(t.errors)):
            print(f"failed op: {err}", file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if rec is None:
        s = plain.summary()
        metrics = {
            "setup_s": (statistics.median(setups.latencies()), "s"),
            "ops_per_s": (s["ops_per_s"], "1/s"),
            "op_p50_ms": (s["op_p50_ms"], "ms"),
            "op_p90_ms": (s["op_p90_ms"], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "op_alloc_mb": (op_alloc_mb, "MB"),
        }
    else:
        n_ops = len(traced.wall)
        metrics = tracing.layer_metrics(rec, n_ops, traced.speed())
        p, t = plain.summary(), traced.summary()
        metrics["tracing.untraced_ops_per_s"] = (p["ops_per_s"], "1/s")
        metrics["tracing.traced_ops_per_s"] = (t["ops_per_s"], "1/s")
        metrics["tracing.overhead_pct"] = (100.0 * (p["ops_per_s"] / t["ops_per_s"] - 1.0), "%")
        stem = OUT / f"{args.workload}-seed{args.seed}"
        rec.write_spans(f"{stem}-spans.csv")
        with open(f"{stem}-layers.json", "w", encoding="utf-8") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed,
                "traced_ops": n_ops, "untraced_ops": len(plain.wall),
                "speed_factor": traced.speed(),
                "untraced": p, "traced": t,
                "metrics": {k: v for k, (v, _u) in metrics.items()},
                "self_times": tracing.self_time_table(rec, n_ops),
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
