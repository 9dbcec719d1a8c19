"""Generate the seeded Gaussian cluster benchmark as CSV files.

Writes ``three_cluster_dataset(seed)``, the labelled stimulus set used
across the tests and README (three blobs in the plane, 20 points each), and,
optionally, a regular grid of unlabelled probe vectors spanning the data's
bounding box.  Probes join the reasoning domain without belonging to any
category, which makes the extracted extensions easier to inspect.
"""

import argparse

import numpy as np

from somlogic import three_cluster_dataset
from somlogic.dataset import write_csv, write_probes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="clusters.csv", help="destination CSV")
    ap.add_argument("--probes-out", help="also write a probe grid CSV here")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--grid", type=int, default=7, help="probe grid points per axis")
    args = ap.parse_args()

    data = three_cluster_dataset(args.seed)
    write_csv(args.out, data, header=True)
    print(f"wrote {len(data)} stimuli to {args.out}")

    if args.probes_out:
        feats = np.array([s.features for s in data])
        lo, hi = feats.min(axis=0), feats.max(axis=0)
        xs = np.linspace(lo[0], hi[0], args.grid)
        ys = np.linspace(lo[1], hi[1], args.grid)
        probes = [(float(x), float(y)) for x in xs for y in ys]
        write_probes(args.probes_out, probes)
        print(f"wrote {len(probes)} probe vectors to {args.probes_out}")


if __name__ == "__main__":
    main()
