"""Time training and the `verify` stages on the S, M, L and XL rungs of
the scale ladder and on the dense-overlap rung O.

Each rung is rebuilt from the recipe in ROADMAP.md's baseline: k Gaussian
clusters labelled C0.. with centres from default_rng(0).uniform(0, s,
(k, d)), std 1.5, sample seed 1, on an r x r map from
init_map(r, r, d, 0, feature_range(data)) trained with TrainConfig(epochs=E).
The centre spread s is 20 on S, M, L and XL, where the clusters lie apart,
and 3 on O, where they overlap so densely that almost every conjunction in
the concept pool has its own extension.  XL is L with 600 stimuli per
cluster on a 30 x 30 map trained for 2 epochs.
The script prints, per rung, in milliseconds, the time of the one train
call that builds the rung's map, the mean revision step of one one-epoch
run_trace over the rung's data (its time divided by its steps; not on XL,
whose one-epoch trace is 9600 steps), and the median of three calls of
quantization_error on the rung's data and trained map (train makes E of
them, one per epoch for its log, so train less E of them is what its
presentations cost), build_model, load_model of the rung's saved
model.json, build_preferential, verify_order_axioms, verify_klm, minima
over the whole domain (T(Top), with its strict-order guard), and
`somlogic verify` and `somlogic check "T(Top) <= C0"` run in-process on the
saved model.json (stdout captured).  It also prints the tracemalloc peak in
MB of one call each of build_preferential, verify_order_axioms and minima
over the whole domain, and the max RSS in MB of one `somlogic verify` run
in a child process, read from its own resource usage (``os.wait4``).
The revise step is timed in a fresh child process too, since its speed
follows what the process ran and freed before it (glibc's dynamic mmap
and trim thresholds).  Run it from the repository root as

    PYTHONPATH=src python scripts/ladder.py

The child runs ``scripts/ladder.py --revise-step RUNG``, which prints only
that rung's mean revision step in milliseconds.
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
    "load_model, one call",
    "build_preferential",
    "verify_order_axioms",
    "verify_klm",
    "minima, whole domain",
    "CLI `verify`, in-process",
    'CLI `check "T(Top) <= C0"`, in-process',
)
PEAKS = ("build_preferential", "verify_order_axioms", "minima, whole domain")


def child_max_rss_mb(argv):
    """The max RSS of one run of the CLI with ``argv`` in a child process,
    from the child's own resource usage; stdout goes to /dev/null."""
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, "-m", "somlogic", *argv],
        os.environ,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"somlogic {' '.join(argv)} failed")
    return usage.ru_maxrss / 1024  # kB on Linux


def rung_data(name):
    """The stimuli of rung ``name``."""
    k, per_cluster, _, dim, _, spread = RUNGS[name]
    centres = np.random.default_rng(0).uniform(0, spread, (k, dim))
    return gaussian_clusters(centres.tolist(), [f"C{i}" for i in range(k)], per_cluster, 1.5, 1)


def revise_step_ms(name):
    """The mean step of one one-epoch run_trace over the data of rung
    ``name``: its time divided by its steps."""
    side = RUNGS[name][2]
    data = rung_data(name)
    t0 = time.perf_counter()
    _, steps = run_trace(data, TrainConfig(epochs=1), side, side)
    return 1000 * (time.perf_counter() - t0) / len(steps)


def child_revise_step_ms(name):
    """``revise_step_ms(name)`` in a fresh child process."""
    out = subprocess.run(
        [sys.executable, __file__, "--revise-step", name],
        check=True,
        capture_output=True,
        text=True,
    )
    return float(out.stdout)


def rung_times(name, tmp):
    """The rung's element count, the median time of each of STAGES (None
    for the revise step on a rung of NO_REVISE), the peak memory of each
    of PEAKS and the max RSS of a CLI `verify` run."""
    _, _, side, dim, epochs, _ = RUNGS[name]
    data = rung_data(name)
    som0 = init_map(side, side, dim, 0, feature_range(data))
    t0 = time.perf_counter()
    som, _ = train(som0, data, TrainConfig(epochs=epochs))
    train_ms = 1000 * (time.perf_counter() - t0)
    step_ms = None if name in NO_REVISE else child_revise_step_ms(name)
    model = build_model(som, data)
    path = os.path.join(tmp, "model.json")
    save_model(path, model)
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
        median_ms(lambda: load_model(path)),
        median_ms(lambda: build_preferential(model, rel)),
        median_ms(lambda: verify_order_axioms(pref)),
        median_ms(lambda: verify_klm(pref)),
        median_ms(lambda: minima(model, rel, domain)),
        median_ms(lambda: cli("verify")),
        median_ms(lambda: cli("check", "--query", "T(Top) <= C0")),
    ], [
        peak_mb(lambda: build_preferential(model, rel)),
        peak_mb(lambda: verify_order_axioms(pref)),
        peak_mb(lambda: minima(model, rel, domain)),
    ], child_max_rss_mb(["verify", "--model", path])


def main() -> None:
    if sys.argv[1:2] == ["--revise-step"]:
        print(revise_step_ms(sys.argv[2]))
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
        cells = [f"{peaks[i]:.2f}" for _, _, peaks, _ in results.values()]
        print(f"| {stage}, tracemalloc peak (MB) | " + " | ".join(cells) + " |")
    cells = [f"{rss:.0f}" for *_, rss in results.values()]
    print("| CLI `verify`, max RSS (MB) | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
