"""Time training and the `verify` stages on the S, M, L and XL rungs of
the scale ladder and on the dense-overlap rungs O and O16.

Each rung is rebuilt from the recipe in ROADMAP.md's baseline: k Gaussian
clusters labelled C0.. with centres from default_rng(0).uniform(0, s,
(k, d)), std 1.5, sample seed 1, on an r x r map from
init_map(r, r, d, 0, feature_range(data)) trained with TrainConfig(epochs=E).
The centre spread s is 20 on S, M, L and XL, where the clusters lie apart,
and 3 on O and O16, where they overlap so densely that almost every
conjunction in the concept pool has its own extension.  XL is L with 600
stimuli per cluster on a 30 x 30 map trained for 2 epochs, and O16 is O
with 16 clusters.
The script prints, per rung, in milliseconds, the time of the one train
call that builds the rung's map, the mean revision step of one one-epoch
run_trace over the rung's data (its time divided by its steps; not on XL,
whose one-epoch trace is 9600 steps), and the median of three calls of
quantization_error on the rung's data and trained map (train makes E of
them, one per epoch for its log, so train less E of them is what its
presentations cost), build_model, the parse alone of the rung's saved
model.json (``orjson.loads`` on its bytes, read once beforehand) and
load_model of it, so that the split between parse and derivation shows,
build_preferential, verify_order_axioms, verify_klm, minima over the whole
domain (T(Top), with its strict-order guard), and
`somlogic verify` and `somlogic check "T(Top) <= C0"` run in-process on the
saved model.json (stdout captured).  It also prints the tracemalloc peak in
MB of one revise step on the trace's last state (not on XL), of one call
each of load_model, build_preferential, verify_order_axioms, verify_klm and
minima over the whole domain, and the max RSS in MB of one `somlogic
verify` run, read from its own resource usage (``os.wait4``) by the fresh
interpreter that spawns it.
The revise step is timed in a fresh child process too, since its speed
follows what the process ran and freed before it (glibc's dynamic mmap
and trim thresholds).  Run it from the repository root as

    PYTHONPATH=src python scripts/ladder.py

The child runs ``scripts/ladder.py --revise-step RUNG``, which prints only
that rung's mean revision step in milliseconds and the tracemalloc peak
in MB of one more step on the trace's last state, which holds the trace's
kernel workspace.
"""

import contextlib
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import orjson

from somlogic import (
    TrainConfig,
    build_model,
    build_preferential,
    derive_specificity,
    feature_range,
    gaussian_clusters,
    init_map,
    load_model,
    minima,
    quantization_error,
    revise,
    run_trace,
    save_model,
    train,
    verify_klm,
    verify_order_axioms,
)
from somlogic.cli import main as cli_main

# name: (clusters k, stimuli per cluster, map side r, dimension d, epochs E,
#        centre spread s)
RUNGS = {
    "S": (3, 20, 6, 2, 50, 20),
    "M": (8, 50, 12, 4, 20, 20),
    "L": (16, 60, 20, 8, 10, 20),
    "O": (12, 60, 20, 8, 10, 3),
    "O16": (16, 60, 20, 8, 10, 3),
    "XL": (16, 600, 30, 8, 2, 20),
}
# Rungs whose one-epoch trace is too long to time.
NO_REVISE = {"XL"}


def median_ms(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def peak_mb(fn):
    """The most memory one call of ``fn`` holds allocated at one time."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


STAGES = (
    "train, one call",
    "quantization_error, one call",
    "revise, mean step over one epoch",
    "build_model",
    "model.json parse (orjson.loads)",
    "load_model, one call",
    "build_preferential",
    "verify_order_axioms",
    "verify_klm",
    "minima, whole domain",
    "CLI `verify`, in-process",
    'CLI `check "T(Top) <= C0"`, in-process',
)
PEAKS = (
    "revise, one step on a revised state", "load_model", "build_preferential",
    "verify_order_axioms", "verify_klm", "minima, whole domain",
)


# Run by a fresh interpreter: spawn the CLI with the given arguments,
# stdout to /dev/null, and print its exit code and max RSS in kB.
_RSS_PROBE = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "somlogic", *sys.argv[1:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_max_rss_mb(argv):
    """The max RSS of one run of the CLI with ``argv``, from the run's own
    resource usage.  The run is spawned by a fresh interpreter, not by this
    process: Linux carries a process's memory high-water mark across exec,
    so a run spawned from here would read this process's own peak whenever
    that is the larger."""
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE, *argv],
                         check=True, capture_output=True, text=True)
    code, kb = map(int, out.stdout.split())
    if code != 0:
        raise RuntimeError(f"somlogic {' '.join(argv)} failed")
    return kb / 1024  # kB on Linux


def rung_data(name):
    """The stimuli of rung ``name``."""
    k, per_cluster, _, dim, _, spread = RUNGS[name]
    centres = np.random.default_rng(0).uniform(0, spread, (k, dim))
    return gaussian_clusters(centres.tolist(), [f"C{i}" for i in range(k)], per_cluster, 1.5, 1)


def revise_step(name):
    """The mean step of one one-epoch run_trace over the data of rung
    ``name`` (its time divided by its steps) in ms, and the peak memory of
    one more step on its last state in MB."""
    side = RUNGS[name][2]
    data = rung_data(name)
    cfg = TrainConfig(epochs=1)
    t0 = time.perf_counter()
    state, steps = run_trace(data, cfg, side, side)
    step_ms = 1000 * (time.perf_counter() - t0) / len(steps)
    return step_ms, peak_mb(lambda: revise(state, data[0], cfg.lr_end, cfg.radius_end))


def child_revise_step(name):
    """``revise_step(name)`` in a fresh child process."""
    out = subprocess.run(
        [sys.executable, __file__, "--revise-step", name],
        check=True,
        capture_output=True,
        text=True,
    )
    return tuple(map(float, out.stdout.split()))


def rung_times(name, tmp):
    """The rung's element count, the median time of each of STAGES and the
    peak memory of each of PEAKS (None for the revise step on a rung of
    NO_REVISE), and the max RSS of a CLI `verify` run."""
    _, _, side, dim, epochs, _ = RUNGS[name]
    data = rung_data(name)
    som0 = init_map(side, side, dim, 0, feature_range(data))
    t0 = time.perf_counter()
    som, _ = train(som0, data, TrainConfig(epochs=epochs))
    train_ms = 1000 * (time.perf_counter() - t0)
    step_ms, step_peak = (None, None) if name in NO_REVISE else child_revise_step(name)
    model = build_model(som, data)
    path = os.path.join(tmp, "model.json")
    save_model(path, model)
    with open(path, "rb") as fh:
        text = fh.read()
    rel = derive_specificity(model)
    pref = build_preferential(model, rel)

    def cli(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main([*argv, "--model", path])

    domain = np.ones(len(model.element_ids), dtype=bool)
    return len(model.element_ids), [
        train_ms,
        median_ms(lambda: quantization_error(som, data)),
        step_ms,
        median_ms(lambda: build_model(som, data)),
        median_ms(lambda: orjson.loads(text)),
        median_ms(lambda: load_model(path)),
        median_ms(lambda: build_preferential(model, rel)),
        median_ms(lambda: verify_order_axioms(pref)),
        median_ms(lambda: verify_klm(pref)),
        median_ms(lambda: minima(model, rel, domain)),
        median_ms(lambda: cli("verify")),
        median_ms(lambda: cli("check", "--query", "T(Top) <= C0")),
    ], [
        step_peak,
        peak_mb(lambda: load_model(path)),
        peak_mb(lambda: build_preferential(model, rel)),
        peak_mb(lambda: verify_order_axioms(pref)),
        peak_mb(lambda: verify_klm(pref)),
        peak_mb(lambda: minima(model, rel, domain)),
    ], child_max_rss_mb(["verify", "--model", path])


def main() -> None:
    if sys.argv[1:2] == ["--revise-step"]:
        print(*revise_step(sys.argv[2]))
        return
    with tempfile.TemporaryDirectory() as tmp:
        results = {name: rung_times(name, tmp) for name in RUNGS}
    print("| stage (ms, median of 3 unless one call) | " + " | ".join(results) + " |")
    print("|---|" + "---:|" * len(results))
    print("| elements | " + " | ".join(str(n) for n, *_ in results.values()) + " |")
    for i, stage in enumerate(STAGES):
        cells = ["–" if t[i] is None else f"{t[i]:.1f}" for _, t, _, _ in results.values()]
        print(f"| {stage} | " + " | ".join(cells) + " |")
    for i, stage in enumerate(PEAKS):
        cells = ["–" if peaks[i] is None else f"{peaks[i]:.3f}"
                 for _, _, peaks, _ in results.values()]
        print(f"| {stage}, tracemalloc peak (MB) | " + " | ".join(cells) + " |")
    cells = [f"{rss:.0f}" for *_, rss in results.values()]
    print("| CLI `verify`, max RSS (MB) | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
