"""Synthetic labelled datasets for experiments and tests."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError
from .som import Stimulus

__all__ = ["gaussian_clusters", "three_cluster_dataset"]


def gaussian_clusters(
    centers: Sequence[Sequence[float]],
    labels: Sequence[str],
    n_per_cluster: int,
    std: float,
    seed: int,
) -> list[Stimulus]:
    """Sample ``n_per_cluster`` points around each center with isotropic
    Gaussian noise.  Stimulus ids encode label and running index."""
    if len(centers) != len(labels):
        raise ConfigError("centers and labels must have equal length")
    if len(centers) == 0:
        raise ConfigError("need at least one cluster")
    if n_per_cluster < 1:
        raise ConfigError("n_per_cluster must be >= 1")
    if not std > 0:
        raise ConfigError("std must be positive")
    dim = len(centers[0])
    if any(len(c) != dim for c in centers):
        raise ConfigError("all centers must share one dimension")
    rng = np.random.default_rng(seed)
    # One index width for the whole call, so distinct labels give distinct ids.
    width = max(2, len(str(n_per_cluster - 1)))
    data: list[Stimulus] = []
    for center, label in zip(centers, labels):
        pts = rng.normal(loc=np.asarray(center, dtype=np.float64), scale=std,
                         size=(n_per_cluster, dim))
        for k in range(n_per_cluster):
            data.append(
                Stimulus(
                    sid=f"{label}{k:0{width}d}",
                    features=tuple(float(v) for v in pts[k]),
                    label=label,
                )
            )
    return data


def three_cluster_dataset(seed: int = 42) -> list[Stimulus]:
    """The reference dataset used across tests and examples: 60 points in the
    plane, three well-separated Gaussian blobs labelled A, B, C."""
    return gaussian_clusters(
        centers=[(0.0, 0.0), (6.0, 0.0), (3.0, 6.0)],
        labels=["A", "B", "C"],
        n_per_cluster=20,
        std=0.6,
        seed=seed,
    )
