"""Self-organising map: grid construction, best-matching-unit search, training.

The map is a ``rows x cols`` grid of units, each carrying a weight vector in
input space.  Training presents stimuli one at a time; the best-matching unit
(BMU) and, attenuated by a Gaussian neighbourhood on the grid, every other
unit move toward the stimulus.  Learning rate and neighbourhood radius decay
linearly over the total number of presentations.

Everything is deterministic given the seed: weight initialisation, the
per-epoch presentation order, and BMU tie-breaking (lowest unit index).

Training is online, one stimulus at a time, in the order a revision trace
replays, so it is a sequential loop whose steps cost numpy call overhead
more than arithmetic.  One kernel, ``_present``, makes every step, for
``train`` and for ``apply_presentation`` alike: it runs on buffers of the
weights' shape, with no broadcast operand, and sums each unit's squared
distance in the order of the distance kernel (``nearest_units``).  The
schedule (``presentation_schedule``) computes each epoch's parameters at
once.  Every weight equals, bit for bit, the one the step-by-step formulas
give.
"""

from __future__ import annotations

import contextlib
import itertools
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
            _check_radius(name, getattr(self, name), ConfigError)


def _check_radius(name: str, v: float, error: type[Exception]) -> None:
    """Raise ``error`` unless radius ``v`` is positive, finite and large
    enough that 2 * v**2, the neighbourhood's denominator, is not 0.0."""
    if not (v > 0.0 and math.isfinite(v)):
        raise error(f"{name} must be positive and finite, got {v!r}")
    if 2.0 * v * v == 0.0:
        raise error(f"{name} {v!r} is too small: 2 * {name}**2 underflows to 0.0")


@dataclass
class SomMap:
    """A grid of units with weight vectors, plus its provenance metadata.

    ``weights`` has shape ``(rows * cols, input_dim)``; unit ``i`` sits at
    grid position ``(i // cols, i % cols)``.

    Two read-only tables, built once here, give the presentation step
    (``_present``) each unit's negated squared grid offset from a BMU's row
    and column: ``_row_gd2[r, u] = -(r_u - r)**2`` for each of the ``rows``
    rows and ``_col_gd2[c, u] = -(c_u - c)**2`` for each of the ``cols``
    columns.  The offsets are small integers, so ``_row_gd2[r] +
    _col_gd2[c]`` is the negated squared grid distance to unit ``r * cols +
    c`` exactly.  Together they hold ``(rows + cols) * n_units`` floats.
    """

    rows: int
    cols: int
    input_dim: int
    seed: int
    weights: np.ndarray
    epochs_trained: int = 0
    _row_gd2: np.ndarray = field(init=False, repr=False)
    _col_gd2: np.ndarray = field(init=False, repr=False)

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
        row, col = np.divmod(np.arange(self.rows * self.cols), self.cols)
        self._row_gd2 = _negated_square_offsets(row, self.rows)
        self._col_gd2 = _negated_square_offsets(col, self.cols)

    @property
    def n_units(self) -> int:
        return self.rows * self.cols

    def copy(self) -> "SomMap":
        """A map with its own weights; it shares the read-only offset tables
        and skips ``__post_init__``'s checks, which this map passed."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        out.weights = self.weights.copy()
        return out


def _negated_square_offsets(pos: np.ndarray, n: int) -> np.ndarray:
    """``-(pos - p)**2`` for each grid line ``p < n`` (rows) and each entry
    of ``pos`` (columns), read-only; computed in float64 like the distance
    it stands for, so a zero offset is -0.0."""
    table = -((pos - np.arange(n, dtype=np.float64)[:, np.newaxis]) ** 2)
    table.flags.writeable = False
    return table


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


def _check_shape(som: SomMap, shape: tuple[int, ...]) -> None:
    if shape != (som.input_dim,):
        raise InputError(
            f"input vector has shape {shape}, map expects ({som.input_dim},)"
        )


def _check_vector(som: SomMap, x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    _check_shape(som, v.shape)
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
    bit.  Rows are taken in blocks so that the temporaries stay small.  Each
    row's distance is read at its argmin, which is its minimum, inf
    included.  The presentation step (``_present``) finds its BMU with the
    same sum, so training, revision and this kernel agree on every BMU.
    """
    nearest = np.empty(len(x), dtype=np.intp)
    d2_min = np.empty(len(x), dtype=np.float64)
    for block, d2 in _blocks(x, weights):
        nearest[block] = d2.argmin(axis=1)
        d2_min[block] = d2[np.arange(len(d2)), nearest[block]]
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


# The least 2 * radius**2 that ``_present`` divides by.  A unit off the BMU
# lies at grid distance 1 or more, and exp(-1 / 1e-3) is already 0.0 in
# float64, so below this every h is 0.0 off the BMU and 1.0 on it whatever
# the radius: the floor changes no h and keeps the exponent finite, where
# dividing by a subnormal 2 * radius**2 can overflow it.
_MIN_TWO_R2 = 1e-3


def _step_buffers(weights: np.ndarray) -> tuple:
    """Scratch for ``_present`` on weights of the shape and memory layout of
    ``weights``: three buffers like them (the work buffer, the stimulus in
    every row, a in every column) and the work buffer's column views."""
    work, xs, a = (np.empty_like(weights) for _ in range(3))
    return work, xs, a, [work[:, k] for k in range(weights.shape[1])]


def _present(som: SomMap, x: np.ndarray, lr: float, radius: float, scratch: tuple) -> None:
    """One stimulus presentation, updating ``som.weights`` in place.

    Each unit moves as w <- (1 - a) * w + a * x with a = lr * h and Gaussian
    neighbourhood h = exp(-grid_dist^2 / (2 * radius^2)) around the BMU.  The
    convex-combination form makes lr = 1, h = 1 land exactly on ``x``.

    The step costs only that arithmetic, on the buffers of ``scratch``
    (``_step_buffers``), which the caller keeps across steps.  No ufunc in
    it broadcasts an array.  An array operand broadcast along an axis
    (stride 0) sends numpy through its buffered iterator, which allocates
    buffers on every call (26 KB at 400 x 8 under tracemalloc; a float
    operand allocates none) and at these sizes costs more than the
    arithmetic: at 400 x 8, w - x takes about 5.6 us against 2.2 + 1.4 us
    for copying ``x`` into every row of a buffer and subtracting that
    (numpy 2.4.6, one core of a 2-core machine).  So ``x`` and a are
    copied into buffers of the weights' shape once, and every difference
    and product is taken between arrays of that shape; x * a has the bits
    of a * x.  The BMU's squared distances add the squared differences'
    columns with ``_pairwise_sum``, in the order of numpy's own sum over
    the feature axis and of the distance kernel (``nearest_units``),
    without numpy's reduce along that short axis.  -grid_dist^2 is the sum
    of the BMU's rows of the map's two offset tables (``SomMap``), and the
    neighbourhood is divided by 2 * radius^2 (at least ``_MIN_TWO_R2``),
    exponentiated and scaled by lr in place on that one units-long vector.
    Each float equals, bit for bit, the one the formula gives from the
    units' grid coordinates, whatever the weights' memory layout; where the
    formula's exponent would overflow, h is 0.0, its limit.
    """
    w = som.weights
    work, xs, a, columns = scratch
    xs[...] = x
    np.subtract(w, xs, out=work)
    work *= work
    r, c = divmod(int(_pairwise_sum(columns).argmin()), som.cols)
    h = som._row_gd2[r] + som._col_gd2[c]
    h /= max(2.0 * radius * radius, _MIN_TWO_R2)
    np.exp(h, out=h)
    h *= lr
    a[...] = h[:, np.newaxis]
    np.subtract(1.0, a, out=work)
    w *= work
    a *= xs
    w += a


def apply_presentation(som: SomMap, x, lr: float, radius: float) -> SomMap:
    """Return a new map after presenting a single stimulus vector: a raw
    vector, checked to have the map's dimension and finite entries, or a
    ``Stimulus``, whose constructor has proved its features finite, so
    that only their dimension is checked."""
    if not (0.0 < lr <= 1.0):
        raise InputError(f"learning rate must be in (0, 1], got {lr!r}")
    _check_radius("radius", radius, InputError)
    if isinstance(x, Stimulus):
        _check_shape(som, (x.dim,))
        v = np.asarray(x.features)
    else:
        v = _check_vector(som, x)
    out = som.copy()
    _present(out, v, float(lr), float(radius), _step_buffers(out.weights))
    return out


def _epoch_schedules(
    n_samples: int, cfg: TrainConfig
) -> Iterator[tuple[int, list[int], list[float], list[float]]]:
    """Yield (epoch, sample order, lrs, radii) for every epoch: the
    ``presentation_schedule`` of that epoch as three lists.

    Presentation t of ``total`` has frac = t / (total - 1) (0.0 when total
    is 1), and each parameter is the two-product lerp start * (1 - frac) +
    end * frac, which hits both endpoints exactly.  The epoch's lerps are
    taken on arrays; numpy converts t and total - 1 to float64 exactly and
    fuses no multiply-add, so each float equals the one Python's own
    arithmetic gives step by step.
    """
    if n_samples < 1:
        raise InputError("schedule needs at least one sample")
    rng = np.random.default_rng(cfg.seed)
    total = cfg.epochs * n_samples
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_samples) if cfg.shuffle else np.arange(n_samples)
        t = np.arange(epoch * n_samples, (epoch + 1) * n_samples)
        frac = t / (total - 1) if total > 1 else np.zeros(n_samples)
        lr = cfg.lr_start * (1.0 - frac) + cfg.lr_end * frac
        radius = cfg.radius_start * (1.0 - frac) + cfg.radius_end * frac
        yield epoch, order.tolist(), lr.tolist(), radius.tolist()


def presentation_schedule(
    n_samples: int, cfg: TrainConfig
) -> Iterator[tuple[int, int, float, float]]:
    """Yield (epoch, sample_index, lr, radius) for every presentation.

    This is the single source of truth for presentation order and parameter
    decay; both batch training and step-wise revision traces read it, so a
    trace over the same data and config reproduces the trained map exactly.
    Each epoch draws a fresh order from one generator seeded with
    ``cfg.seed`` (or takes data order without ``shuffle``) and computes its
    parameters at once (``_epoch_schedules``, which ``train`` iterates).
    """
    for epoch, order, lrs, radii in _epoch_schedules(n_samples, cfg):
        yield from zip(itertools.repeat(epoch), order, lrs, radii)


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
    quantization error log (one entry per completed epoch).  Each
    stimulus's constructor has proved its features finite, so only their
    dimension is checked.  Data whose distances to the map overflow is
    refused (``_refusing_overflow``).

    The steps are ``_present`` on one set of ``_step_buffers``, in the
    order and with the parameters of ``presentation_schedule``, taken an
    epoch at a time (``_epoch_schedules``).  While they run, the weights
    are held column-major, so that each feature's column, which the BMU
    sum adds and the neighbourhood fills, is contiguous; the returned map's
    weights are row-major again.
    """
    if len(data) == 0:
        raise InputError("cannot train on empty data")
    for s in data:
        _check_shape(som, (s.dim,))
    x = np.array([s.features for s in data], dtype=np.float64)

    out = som.copy()
    qe_log: list[float] = []
    if cfg.epochs == 0:
        return out, qe_log

    out.weights = np.asfortranarray(out.weights)
    scratch = _step_buffers(out.weights)
    with _refusing_overflow():
        for epoch, order, lrs, radii in _epoch_schedules(len(data), cfg):
            if epoch:
                qe_log.append(_qe(out.weights, x))
            for i, lr, radius in zip(order, lrs, radii):
                _present(out, x[i], lr, radius, scratch)
        qe_log.append(_qe(out.weights, x))
    out.weights = np.ascontiguousarray(out.weights)
    out.epochs_trained = som.epochs_trained + cfg.epochs
    return out, qe_log


def _qe(weights: np.ndarray, x: np.ndarray) -> float:
    return float(np.sqrt(nearest_units(x, weights)[1]).mean())


def quantization_error(som: SomMap, data: Sequence[Stimulus]) -> float:
    """Mean distance from each stimulus to its BMU's weights.  As in
    ``train``, only each stimulus's dimension is checked, and a distance
    that overflows is refused."""
    if len(data) == 0:
        raise InputError("quantization error over empty data is undefined")
    for s in data:
        _check_shape(som, (s.dim,))
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
    snapshot, a value nested too deep for ``repr`` among them."""
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
    except (KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
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
