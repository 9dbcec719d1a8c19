"""Time the `verify` stages on the S, M and L rungs of the scale ladder and
on the dense-overlap rung O.

Each rung is rebuilt from the recipe in ROADMAP.md's baseline: k Gaussian
clusters labelled C0.. with centres from default_rng(0).uniform(0, s,
(k, d)), std 1.5, sample seed 1, on an r x r map from
init_map(r, r, d, 0, feature_range(data)) trained with TrainConfig(epochs=E).
The centre spread s is 20 on S, M and L, where the clusters lie apart, and
3 on O, where they overlap so densely that almost every conjunction in the
concept pool has its own extension.
The script prints, per rung, the median of three calls in milliseconds of
build_model, build_preferential, verify_order_axioms, verify_klm, and
`somlogic verify` run in-process on the saved model.json (stdout captured).
It takes no options; run it from the repository root as

    PYTHONPATH=src python scripts/ladder.py
"""

import contextlib
import io
import os
import statistics
import tempfile
import time

import numpy as np

from somlogic import (
    TrainConfig,
    build_model,
    build_preferential,
    derive_specificity,
    feature_range,
    gaussian_clusters,
    init_map,
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
}


def median_ms(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


STAGES = (
    "build_model",
    "build_preferential",
    "verify_order_axioms",
    "verify_klm",
    "CLI `verify`, in-process",
)


def rung_times(k, per_cluster, side, dim, epochs, spread, tmp):
    """The rung's element count and the median time of each of STAGES."""
    centres = np.random.default_rng(0).uniform(0, spread, (k, dim))
    data = gaussian_clusters(centres.tolist(), [f"C{i}" for i in range(k)], per_cluster, 1.5, 1)
    som0 = init_map(side, side, dim, 0, feature_range(data))
    som, _ = train(som0, data, TrainConfig(epochs=epochs))
    model = build_model(som, data)
    path = os.path.join(tmp, "model.json")
    save_model(path, model)
    rel = derive_specificity(model)
    pref = build_preferential(model, rel)

    def cli_verify():
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["verify", "--model", path])

    return len(model.element_ids), [
        median_ms(lambda: build_model(som, data)),
        median_ms(lambda: build_preferential(model, rel)),
        median_ms(lambda: verify_order_axioms(pref)),
        median_ms(lambda: verify_klm(pref)),
        median_ms(cli_verify),
    ]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        results = {name: rung_times(*rung, tmp) for name, rung in RUNGS.items()}
    print("| stage (ms, median of 3) | " + " | ".join(results) + " |")
    print("|---|" + "---:|" * len(results))
    print("| elements | " + " | ".join(str(n) for n, _ in results.values()) + " |")
    for i, stage in enumerate(STAGES):
        cells = [f"{times[i]:.1f}" for _, times in results.values()]
        print(f"| {stage} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
