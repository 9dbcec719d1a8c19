"""Self-organising map: grid construction, best-matching-unit search, training.

The map is a ``rows x cols`` grid of units, each carrying a weight vector in
input space.  Training presents stimuli one at a time; the best-matching unit
(BMU) and, attenuated by a Gaussian neighbourhood on the grid, every other
unit move toward the stimulus.  Learning rate and neighbourhood radius decay
linearly over the total number of presentations.

Everything is deterministic given the seed: weight initialisation, the
per-epoch presentation order, and BMU tie-breaking (lowest unit index).
"""

from __future__ import annotations

import contextlib
import copy
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import jsonio
from .errors import ConfigError, InputError

__all__ = [
    "Stimulus",
    "TrainConfig",
    "SomMap",
    "feature_range",
    "init_map",
    "nearest_units",
    "nearest_in_groups",
    "apply_presentation",
    "presentation_schedule",
    "train",
    "quantization_error",
    "save_map",
    "load_map",
]


# ==============================================================
# Data types
# ==============================================================


@dataclass(frozen=True)
class Stimulus:
    """One labelled input vector.

    ``features`` is a tuple so stimuli are hashable and comparable exactly;
    two stimuli with bitwise-equal features denote the same point of the
    semantic domain later on.
    """

    sid: str
    features: tuple[float, ...]
    label: str

    def __post_init__(self):
        if not self.sid:
            raise InputError("stimulus id must be non-empty")
        if not self.label:
            raise InputError(f"stimulus {self.sid!r}: label must be non-empty")
        feats = tuple(float(v) for v in self.features)
        if len(feats) == 0:
            raise InputError(f"stimulus {self.sid!r}: empty feature vector")
        if not all(math.isfinite(v) for v in feats):
            raise InputError(f"stimulus {self.sid!r}: non-finite feature value")
        object.__setattr__(self, "features", feats)

    @property
    def dim(self) -> int:
        return len(self.features)


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.

    Learning rate and radius are interpolated linearly from their ``_start``
    to their ``_end`` value across all ``epochs * len(data)`` presentations.
    ``shuffle`` draws a fresh presentation order each epoch from a generator
    seeded with ``seed``; with ``shuffle=False`` data order is used as-is.
    """

    epochs: int
    lr_start: float = 0.7
    lr_end: float = 0.05
    radius_start: float = 3.0
    radius_end: float = 0.5
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if not isinstance(self.epochs, int) or self.epochs < 0:
            raise ConfigError(f"epochs must be a non-negative integer, got {self.epochs!r}")
        for name in ("lr_start", "lr_end"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ConfigError(f"{name} must be in (0, 1], got {v!r}")
        for name in ("radius_start", "radius_end"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ConfigError(f"{name} must be positive and finite, got {v!r}")


@dataclass
class SomMap:
    """A grid of units with weight vectors, plus its provenance metadata.

    ``weights`` has shape ``(rows * cols, input_dim)``; unit ``i`` sits at
    grid position ``(i // cols, i % cols)``.
    """

    rows: int
    cols: int
    input_dim: int
    seed: int
    weights: np.ndarray
    epochs_trained: int = 0
    _coords: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"map must be at least 1x1, got {self.rows}x{self.cols}")
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.rows * self.cols, self.input_dim):
            raise ConfigError(
                f"weights shape {w.shape} does not match "
                f"{self.rows}x{self.cols} map with input_dim={self.input_dim}"
            )
        if not np.all(np.isfinite(w)):
            raise ConfigError("map weights must be finite")
        self.weights = w
        rr, cc = np.divmod(np.arange(self.rows * self.cols), self.cols)
        self._coords = np.stack([rr, cc], axis=1).astype(np.float64)
        self._coords.flags.writeable = False

    @property
    def n_units(self) -> int:
        return self.rows * self.cols

    @property
    def grid_coords(self) -> np.ndarray:
        """(n_units, 2) array of (row, col) positions."""
        return self._coords

    def copy(self) -> "SomMap":
        """A map with its own weights; it shares the read-only grid coords."""
        out = copy.copy(self)
        out.weights = self.weights.copy()
        return out


# ==============================================================
# Construction
# ==============================================================


def feature_range(data: Sequence[Stimulus]) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature (min, max) over a non-empty stimulus sequence."""
    if len(data) == 0:
        raise InputError("cannot take feature range of empty data")
    dim = data[0].dim
    for s in data:
        if s.dim != dim:
            raise InputError(
                f"stimulus {s.sid!r} has dimension {s.dim}, expected {dim}"
            )
    x = np.array([s.features for s in data], dtype=np.float64)
    return x.min(axis=0), x.max(axis=0)


def init_map(
    rows: int,
    cols: int,
    input_dim: int,
    seed: int,
    value_range: tuple[Sequence[float] | float, Sequence[float] | float],
) -> SomMap:
    """Create an untrained map with weights drawn outside the data range.

    For each feature with data range [lo, hi] and span = hi - lo, weights are
    sampled uniformly from [hi + 0.1 * span, hi + 0.6 * span].  Starting
    strictly outside the data region keeps early relative distances large and
    makes the quantization-error drop during training unambiguous.  A feature
    with zero span falls back to span 1.0 so the band stays non-degenerate.
    """
    lo = np.broadcast_to(np.asarray(value_range[0], dtype=np.float64), (input_dim,))
    hi = np.broadcast_to(np.asarray(value_range[1], dtype=np.float64), (input_dim,))
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ConfigError("value_range must be finite")
    if np.any(lo > hi):
        raise ConfigError("value_range lower bound exceeds upper bound")
    span = hi - lo
    span = np.where(span == 0.0, 1.0, span)
    rng = np.random.default_rng(seed)
    w = rng.uniform(hi + 0.1 * span, hi + 0.6 * span, size=(rows * cols, input_dim))
    return SomMap(rows=rows, cols=cols, input_dim=input_dim, seed=seed, weights=w)


# ==============================================================
# BMU search and training
# ==============================================================


def _check_vector(som: SomMap, x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (som.input_dim,):
        raise InputError(
            f"input vector has shape {v.shape}, map expects ({som.input_dim},)"
        )
    if not np.all(np.isfinite(v)):
        raise InputError("input vector must be finite")
    return v


# Distance-matrix entries per row block of ``_blocks``: small enough
# that a block's ``dim`` temporaries, of (rows, units) each, stay near
# 256 KB together at dim 8.
_BLOCK_ENTRIES = 4096


def _pairwise_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Sum of ``terms`` in the order of numpy's pairwise sum over a
    contiguous axis: left to right below 8 terms; from 8 to 128, eight
    running sums combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and then
    the leftover terms in order; above 128, each half, split at a multiple
    of 8, summed the same way.  Accumulates into the terms themselves."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _pairwise_sum(terms[:half])
        total += _pairwise_sum(terms[half:])
        return total
    if n < 8:
        total = terms[0]
        for t in terms[1:]:
            total += t
        return total
    r = terms[:8]
    full = n - n % 8
    for i in range(8, full):
        r[i % 8] += terms[i]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for t in terms[full:]:
        total += t
    return total


def _blocks(x: np.ndarray, weights: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Row blocks of ``x``, each with its squared distances to every row of
    ``weights``; see ``nearest_units``."""
    rows = max(1, _BLOCK_ENTRIES // len(weights))
    wt = np.ascontiguousarray(weights.T)
    for start in range(0, len(x), rows):
        block = slice(start, start + rows)
        yield block, _pairwise_sum(
            [(x[block, k, np.newaxis] - wt[k]) ** 2 for k in range(len(wt))]
        )


def nearest_units(x: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of ``x``, the index of the nearest row of ``weights`` and
    the squared Euclidean distance to it.

    Ties break to the lowest index.  BMU lookups, relative distances (in
    ``model`` and ``revision``) and the quantization error all go through
    ``_blocks``, so a distance computed in two places is equal bit for bit.
    It squares each feature's differences as one (rows, units) array and
    adds those arrays in the order numpy's pairwise sum takes over a
    contiguous feature axis (``_pairwise_sum``), which is plain left to
    right below 8 features.  Each distance therefore equals, bit for bit,
    numpy's own sum over the feature axis of the (rows, units, dim) array of
    squared differences, without building that array or running its
    short-axis reduce; a matrix-product expansion would differ in the last
    bit.  Rows are taken in blocks so that the temporaries stay small.
    """
    nearest = np.empty(len(x), dtype=np.intp)
    d2_min = np.empty(len(x), dtype=np.float64)
    for block, d2 in _blocks(x, weights):
        nearest[block] = d2.argmin(axis=1)
        d2_min[block] = d2.min(axis=1)
    return nearest, d2_min


def nearest_in_groups(x: np.ndarray, weights: np.ndarray, cols, starts) -> np.ndarray:
    """For each row of ``x`` and each group of row indices of ``weights``,
    the squared distance to the group's nearest row, as a ``len(x) x
    len(starts)`` matrix.  Group ``g`` is ``cols[starts[g]:starts[g + 1]]``,
    the last one running to the end of ``cols``, as ``np.minimum.reduceat``
    reads them; no group may be empty.  The distances are those of
    ``nearest_units``, bit for bit, and each is computed once however many
    groups share its row."""
    out = np.empty((len(x), len(starts)), dtype=np.float64)
    for block, d2 in _blocks(x, weights):
        out[block] = np.minimum.reduceat(d2[:, cols], starts, axis=1)
    return out


def _present(weights: np.ndarray, coords: np.ndarray, x: np.ndarray, lr: float, radius: float) -> None:
    """One stimulus presentation, updating ``weights`` in place.

    Each unit moves as w <- (1 - a) * w + a * x with a = lr * h and Gaussian
    neighbourhood h = exp(-grid_dist^2 / (2 * radius^2)) around the BMU.  The
    convex-combination form makes lr = 1, h = 1 land exactly on ``x``.
    """
    d2 = ((weights - x) ** 2).sum(axis=1)
    bmu = int(np.argmin(d2))
    gd2 = ((coords - coords[bmu]) ** 2).sum(axis=1)
    h = np.exp(-gd2 / (2.0 * radius * radius))
    a = (lr * h)[:, np.newaxis]
    weights *= 1.0 - a
    weights += a * x


def apply_presentation(som: SomMap, x, lr: float, radius: float) -> SomMap:
    """Return a new map after presenting a single stimulus vector."""
    if not (0.0 < lr <= 1.0):
        raise InputError(f"learning rate must be in (0, 1], got {lr!r}")
    if not (radius > 0.0 and math.isfinite(radius)):
        raise InputError(f"radius must be positive and finite, got {radius!r}")
    v = _check_vector(som, x)
    out = som.copy()
    _present(out.weights, out.grid_coords, v, float(lr), float(radius))
    return out


def presentation_schedule(
    n_samples: int, cfg: TrainConfig
) -> Iterator[tuple[int, int, float, float]]:
    """Yield (epoch, sample_index, lr, radius) for every presentation.

    This is the single source of truth for presentation order and parameter
    decay; both batch training and step-wise revision traces iterate it, so a
    trace over the same data and config reproduces the trained map exactly.
    """
    if n_samples < 1:
        raise InputError("schedule needs at least one sample")
    rng = np.random.default_rng(cfg.seed)
    total = cfg.epochs * n_samples
    t = 0
    for _epoch in range(cfg.epochs):
        if cfg.shuffle:
            order = rng.permutation(n_samples)
        else:
            order = np.arange(n_samples)
        for i in order:
            frac = t / (total - 1) if total > 1 else 0.0
            # two-product lerp hits both endpoints exactly
            lr = cfg.lr_start * (1.0 - frac) + cfg.lr_end * frac
            radius = cfg.radius_start * (1.0 - frac) + cfg.radius_end * frac
            yield _epoch, int(i), lr, radius
            t += 1


@contextlib.contextmanager
def _refusing_overflow():
    """Raise InputError when a float overflows inside the block.  A squared
    distance that overflows to inf ties with every other one that does, so
    the BMU search can no longer rank the units."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise InputError(
            "squared distances between the stimuli and the map's weights overflow "
            "float64; rescale the features"
        ) from exc


def train(som: SomMap, data: Sequence[Stimulus], cfg: TrainConfig) -> tuple[SomMap, list[float]]:
    """Train a copy of ``som`` on ``data`` and return it with the per-epoch
    quantization error log (one entry per completed epoch).  Data whose
    distances to the map overflow is refused (``_refusing_overflow``).
    """
    if len(data) == 0:
        raise InputError("cannot train on empty data")
    for s in data:
        _check_vector(som, s.features)
    x = np.array([s.features for s in data], dtype=np.float64)

    out = som.copy()
    qe_log: list[float] = []
    if cfg.epochs == 0:
        return out, qe_log

    coords = out.grid_coords
    current_epoch = 0
    with _refusing_overflow():
        for epoch, i, lr, radius in presentation_schedule(len(data), cfg):
            if epoch != current_epoch:
                qe_log.append(_qe(out.weights, x))
                current_epoch = epoch
            _present(out.weights, coords, x[i], lr, radius)
        qe_log.append(_qe(out.weights, x))
    out.epochs_trained = som.epochs_trained + cfg.epochs
    return out, qe_log


def _qe(weights: np.ndarray, x: np.ndarray) -> float:
    return float(np.sqrt(nearest_units(x, weights)[1]).mean())


def quantization_error(som: SomMap, data: Sequence[Stimulus]) -> float:
    """Mean distance from each stimulus to its BMU's weights; refused, as in
    ``train``, when a distance overflows."""
    if len(data) == 0:
        raise InputError("quantization error over empty data is undefined")
    for s in data:
        _check_vector(som, s.features)
    x = np.array([s.features for s in data], dtype=np.float64)
    with _refusing_overflow():
        return _qe(som.weights, x)


# ==============================================================
# Snapshots
# ==============================================================


def map_snapshot(som: SomMap) -> dict:
    return {
        "rows": som.rows,
        "cols": som.cols,
        "input_dim": som.input_dim,
        "seed": som.seed,
        "epochs_trained": som.epochs_trained,
        "units": [
            {"index": i, "row": i // som.cols, "col": i % som.cols, "weights": w}
            for i, w in enumerate(som.weights.tolist())
        ],
    }


def _json_int(doc: dict, key: str) -> int:
    value = doc[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def map_from_snapshot(doc: dict) -> SomMap:
    """The map a snapshot describes, read as strictly as ``model.json``:
    the geometry, seed, epoch count and each unit's ``index``, ``row`` and
    ``col`` are JSON integers, each index appears once with ``(row, col)``
    equal to ``divmod(index, cols)``, and each unit's ``weights`` is a list
    of ``input_dim`` JSON numbers.  Anything else is a malformed
    snapshot."""
    try:
        rows, cols, dim, seed = (_json_int(doc, k) for k in ("rows", "cols", "input_dim", "seed"))
        epochs_trained = _json_int(doc, "epochs_trained") if "epochs_trained" in doc else 0
        units = doc["units"]
        if len(units) != rows * cols:
            raise ValueError(f"snapshot holds {len(units)} units, expected {rows * cols}")
        by_index = [None] * len(units)
        for u in units:
            idx = _json_int(u, "index")
            if not 0 <= idx < len(units):
                raise ValueError(f"unit index {idx} out of range")
            if by_index[idx] is not None:
                raise ValueError(f"unit index {idx} appears twice")
            if (_json_int(u, "row"), _json_int(u, "col")) != divmod(idx, cols):
                raise ValueError(f"unit {idx}: row and col must be {divmod(idx, cols)}, "
                                 f"got {(u['row'], u['col'])}")
            w = u["weights"]
            if type(w) is not list or len(w) != dim or any(type(v) not in (float, int) for v in w):
                raise TypeError(f"unit {idx}: weights must be a list of {dim} numbers, got {w!r}")
            by_index[idx] = w
        weights = np.array(by_index, dtype=np.float64).reshape(len(units), dim)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"malformed map snapshot: {exc}") from exc
    return SomMap(
        rows=rows,
        cols=cols,
        input_dim=dim,
        seed=seed,
        weights=weights,
        epochs_trained=epochs_trained,
    )


def save_map(path, som: SomMap) -> None:
    jsonio.dump_file(path, map_snapshot(som))


def load_map(path) -> SomMap:
    return map_from_snapshot(jsonio.load_file(path))
