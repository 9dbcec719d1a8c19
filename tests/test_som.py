import concurrent.futures
import copy
import inspect
import math
import re
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from somlogic import (
    ConfigError,
    InputError,
    SomMap,
    Stimulus,
    TrainConfig,
    apply_presentation,
    feature_range,
    gaussian_clusters,
    init_map,
    load_map,
    presentation_schedule,
    quantization_error,
    save_map,
    three_cluster_dataset,
    train,
)
from somlogic import som as som_module
from somlogic.som import map_from_snapshot, map_snapshot, nearest_in_groups, nearest_units

from oracles import (
    oracle_bmu,
    oracle_present,
    oracle_qe,
    oracle_schedule,
    oracle_sq_dists,
    oracle_train,
)


def small_data():
    return [
        Stimulus("a1", (0.0, 0.0), "A"),
        Stimulus("a2", (0.5, 0.2), "A"),
        Stimulus("b1", (4.0, 4.0), "B"),
        Stimulus("b2", (4.5, 3.8), "B"),
    ]


# ==============================================================
# Initialisation
# ==============================================================


def test_init_band_outside_data_range():
    data = small_data()
    lo, hi = feature_range(data)
    som = init_map(5, 4, 2, seed=7, value_range=(lo, hi))
    span = hi - lo
    assert som.weights.shape == (20, 2)
    assert np.all(som.weights >= hi + 0.1 * span)
    assert np.all(som.weights <= hi + 0.6 * span)
    # everything starts strictly above the data maximum
    assert np.all(som.weights > hi)


def test_init_deterministic_per_seed():
    a = init_map(3, 3, 2, seed=1, value_range=(0.0, 1.0))
    b = init_map(3, 3, 2, seed=1, value_range=(0.0, 1.0))
    c = init_map(3, 3, 2, seed=2, value_range=(0.0, 1.0))
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)


def test_init_zero_span_fallback():
    # constant feature: the band falls back to span 1.0 above the value
    som = init_map(2, 2, 2, seed=0, value_range=((1.0, 5.0), (1.0, 9.0)))
    assert np.all(som.weights[:, 0] >= 1.0 + 0.1)
    assert np.all(som.weights[:, 0] <= 1.0 + 0.6)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rows=0, cols=3, input_dim=2),
        dict(rows=3, cols=0, input_dim=2),
        dict(rows=3, cols=3, input_dim=0),
    ],
)
def test_init_bad_dimensions(kwargs):
    with pytest.raises(ConfigError):
        init_map(seed=0, value_range=(0.0, 1.0), **kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(rows=3, cols=3, seed=-1), "seed must be non-negative, got -1"),
    (dict(rows=-1, cols=3, seed=0), "map must be at least 1x1, got -1x3"),
    # numpy's own refusals: past np.intp as one dimension, and in bytes
    (dict(rows=3037000500, cols=3037000500, seed=0),
     "a 3037000500x3037000500 map of 2 features has more weights than numpy can address"),
    (dict(rows=10**9, cols=10**9, seed=0),
     "a 1000000000x1000000000 map of 2 features has more weights than numpy can address"),
    # map.json could not hold it: orjson reads it back as a float
    (dict(rows=3, cols=3, seed=2**64), f"seed must be at most 2**64 - 1, got {2**64}"),
    # map.json holds only a JSON integer
    (dict(rows=3, cols=3, seed=1.5), "seed must be an integer, got 1.5"),
    (dict(rows=3, cols=3, seed="3"), "seed must be an integer, got '3'"),
    (dict(rows=3, cols=3, seed=np.int64(3)), "seed must be an integer, got np.int64(3)"),
    (dict(rows=3, cols=3, seed=True), "seed must be an integer, got True"),
])
def test_init_refuses_before_the_draw(monkeypatch, kwargs, message):
    def draw(*args):
        raise AssertionError("init_map drew weights")

    monkeypatch.setattr(np.random, "default_rng", draw)
    with pytest.raises(ConfigError) as refused:
        init_map(input_dim=2, value_range=(0.0, 1.0), **kwargs)
    assert str(refused.value) == message


def test_init_bad_range():
    with pytest.raises(ConfigError):
        init_map(2, 2, 1, seed=0, value_range=(2.0, 1.0))
    with pytest.raises(ConfigError):
        init_map(2, 2, 1, seed=0, value_range=(0.0, float("inf")))


def test_grid_coordinates():
    som = init_map(2, 3, 2, seed=0, value_range=(0.0, 1.0))
    cells = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    # the offset tables place unit u at (u // cols, u % cols)
    assert som._row_gd2.tolist() == [[-(u // 3 - r) ** 2 for u in range(6)] for r in range(2)]
    assert som._col_gd2.tolist() == [[-(u % 3 - c) ** 2 for u in range(6)] for c in range(3)]
    units = map_snapshot(som)["units"]
    assert [(u["row"], u["col"]) for u in units] == cells
    assert [u["index"] for u in units] == list(range(6))


# ==============================================================
# BMU search
# ==============================================================


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_bmu_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    som = SomMap(rows=4, cols=4, input_dim=3, seed=0, weights=rng.normal(size=(16, 3)))
    x = rng.normal(size=3)
    assert nearest_units(x[np.newaxis], som.weights)[0][0] == oracle_bmu([tuple(w) for w in som.weights], tuple(x))


def test_bmu_tie_breaks_to_lowest_index():
    w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    # units 0 and 2 coincide; 0 wins.  (0.5, 0.5) is equidistant from all
    # three units; lowest index wins.
    assert nearest_units(np.array([[1.0, 0.0], [0.5, 0.5]]), w)[0].tolist() == [0, 0]


def _kernel_mismatches(x, w, groups) -> list[str]:
    """Which results of ``nearest_units`` and ``nearest_in_groups`` differ,
    bit for bit, from those of the pinned expression."""
    with np.errstate(over="ignore"):
        want = oracle_sq_dists(x, w)
        nearest, d2 = nearest_units(x, w)
        grouped = nearest_in_groups(x, w, np.concatenate(groups),
                                    np.cumsum([0] + [len(g) for g in groups[:-1]]))
    out = []
    if not np.array_equal(nearest, want.argmin(axis=1)):
        out.append("indices")
    if d2.tobytes() != want.min(axis=1).tobytes():
        out.append("distances")
    if grouped.tobytes() != np.stack([want[:, g].min(axis=1) for g in groups], axis=1).tobytes():
        out.append("grouped minima")
    return out


def _kernel_case(seed: int, n: int, units: int, dim: int, duplicates: bool, huge: bool):
    """Stimuli, weights and groups of unit indices.  Magnitudes spread over
    many binades so that a different summation order shows in the last bit;
    at ``huge`` they sit near 1e154, where some squares overflow to inf."""
    rng = np.random.default_rng(seed)
    if huge:
        x = rng.normal(size=(n, dim)) * 1e154
        w = rng.normal(size=(units, dim)) * 1e154
    else:
        x = rng.normal(size=(n, dim)) * np.exp(rng.uniform(-8, 8, (n, dim)))
        w = rng.normal(size=(units, dim)) * np.exp(rng.uniform(-8, 8, (units, dim)))
    if duplicates:
        # later copies of earlier rows: ties must go to the lowest index
        src = rng.integers(0, units, size=units // 2 + 1)
        dst = rng.integers(0, units, size=src.size)
        w[np.maximum(src, dst)] = w[np.minimum(src, dst)]
        x[: n // 2] = w[rng.integers(0, units, size=n // 2)]
    groups = [
        rng.choice(units, size=rng.integers(1, units + 1), replace=False)
        for _ in range(rng.integers(1, 6))
    ]
    return x, w, groups


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 70),
    st.integers(1, 70),
    st.sampled_from([*range(1, 21), 127, 128, 129, 136, 257]),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=200)
# full blocks at each path of the order, whatever the draws
@example(0, 70, 70, 8, False, False)
@example(0, 70, 70, 136, False, False)
@example(0, 70, 70, 257, False, False)
# a short last block (163 and 37 rows), and more units than a block's
# entries (one row per block)
@example(0, 200, 100, 9, True, False)
@example(0, 3, som_module._BLOCK_ENTRIES + 1, 9, True, False)
def test_kernel_equals_pinned_expression(seed, n, units, dim, duplicates, huge):
    x, w, groups = _kernel_case(seed, n, units, dim, duplicates, huge)
    assert _kernel_mismatches(x, w, groups) == []


def _left_to_right(terms):
    """A fault for ``som._pairwise_sum``: the terms summed left to right."""
    total = terms[0]
    for t in terms[1:]:
        total += t
    return total


def test_kernel_comparison_catches_left_to_right_sum(monkeypatch):
    x, w, groups = _kernel_case(0, 70, 70, 8, False, False)
    assert _kernel_mismatches(x, w, groups) == []
    monkeypatch.setattr(som_module, "_pairwise_sum", _left_to_right)
    assert "distances" in _kernel_mismatches(x, w, groups)


def _kernel_results(x, w, groups) -> tuple[bytes, ...]:
    """The bits of ``nearest_units`` and ``nearest_in_groups`` on a case of
    ``_kernel_case``."""
    with np.errstate(over="ignore"):
        nearest, d2 = nearest_units(x, w)
        grouped = nearest_in_groups(x, w, np.concatenate(groups),
                                    np.cumsum([0] + [len(g) for g in groups[:-1]]))
    return nearest.tobytes(), d2.tobytes(), grouped.tobytes()


def _in_fresh_thread(fn):
    """``fn()``, run in a new thread, which holds no kernel buffers yet."""
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        return pool.submit(fn).result()


def _sized_kernel_mismatches(first, case) -> list[str]:
    """Which results of the kernels on ``case`` differ, bit for bit,
    between buffers that a call on ``first`` sized and fresh buffers."""
    sized = _in_fresh_thread(lambda: [_kernel_results(*first), _kernel_results(*case)][1])
    fresh = _in_fresh_thread(lambda: _kernel_results(*case))
    return [name for name, a, b in zip(("indices", "distances", "grouped minima"),
                                       sized, fresh) if a != b]


_BLOCK = som_module._BLOCK_ENTRIES


@given(
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 12)),
    st.integers(1, 300),
    st.integers(1, 2000),
    st.integers(1, 12),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
# rows across block edges: a block of 234 rows and one of 66, and 37
# blocks of 8 and one of 4
@example(0, (3, 5, 2), 300, 70, 12, False, False)
@example(0, (3, 5, 2), 300, 2000, 9, True, False)
# more units than a block's entries, on buffers sized for fewer (one row
# per block)
@example(0, (40, 40, 12), 3, _BLOCK + 1, 3, True, False)
# ties and inf, on buffers sized for more features than the call's
@example(0, (40, 40, 12), 300, 100, 1, True, True)
def test_sized_buffers_give_the_bits_of_fresh_ones(seed, first, n, units, dim, duplicates, huge):
    first_case = _kernel_case(seed + 1, *first, False, False)
    case = _kernel_case(seed, n, units, dim, duplicates, huge)
    assert _sized_kernel_mismatches(first_case, case) == []


@pytest.mark.parametrize("first, n, units, dim", [
    ((3, 5, 2), 300, 70, 9),  # a call with more features than the thread has buffers
    ((3, 5, 2), 3, _BLOCK + 1, 2),  # one with more units than its buffers hold
], ids=["more features", "more units"])
def test_sized_buffer_comparison_catches_a_skipped_size_check(monkeypatch, first, n, units, dim):
    src = textwrap.dedent(inspect.getsource(som_module._thread_buffers))
    old = "if len(held) < count or held[0].size < size:"
    assert src.count(old) == 1
    namespace = dict(vars(som_module))
    exec(compile(src.replace(old, "if not held:"), som_module.__file__, "exec"), namespace)
    first_case = _kernel_case(1, *first, False, False)
    case = _kernel_case(0, n, units, dim, False, False)
    assert _sized_kernel_mismatches(first_case, case) == []
    monkeypatch.setattr(som_module, "_thread_buffers", namespace["_thread_buffers"])
    try:
        caught = _sized_kernel_mismatches(first_case, case) != []
    except ValueError:  # the buffers are too small to take a block's shape
        caught = True
    assert caught


# The kernel's memory case: 60 stimuli on 600 units, in blocks of 27, 27
# and 6 rows, the last one short; each block buffer holds _BLOCK_ENTRIES
# entries, 131 072 bytes.
_MEMORY_ROWS, _MEMORY_UNITS = 60, 600
# What the kernel may hold beyond its block buffers: views, lists and the
# generator, about 2 KB at dim 1 and 5 KB at dim 9 with numpy 2.4.
_MEMORY_SLACK = 8 * 1024


def _kernel_overshoot(dim: int, warm: bool = False) -> int:
    """The most by which ``nearest_units`` or ``nearest_in_groups``, under
    tracemalloc as the first call of a fresh thread, holds more than
    ``dim + 1`` block buffers of max(``_BLOCK_ENTRIES``, units) entries
    besides its results and, for the groups, their gathered rows of the
    weights; or, when ``warm``, more than nothing besides those, on a thread
    that has made the same call once already."""
    rng = np.random.default_rng(dim)
    x = rng.normal(size=(_MEMORY_ROWS, dim))
    w = rng.normal(size=(_MEMORY_UNITS, dim))
    cols, starts = rng.permutation(_MEMORY_UNITS), np.array([0, 200, 400])
    rows = som_module._BLOCK_ENTRIES // _MEMORY_UNITS
    assert 0 < _MEMORY_ROWS % rows < rows
    buffers = 0 if warm else (dim + 1) * max(som_module._BLOCK_ENTRIES, _MEMORY_UNITS) * 8
    over = []
    for call, known in (
        (lambda: nearest_units(x, w), 2 * _MEMORY_ROWS * 8),
        (lambda: nearest_in_groups(x, w, cols, starts),
         _MEMORY_ROWS * len(starts) * 8 + w.nbytes),
    ):
        call()  # numpy's first-call set-up stays out of the count

        def traced():
            if warm:
                call()
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        over.append(_in_fresh_thread(traced) - known - buffers)
    return max(over)


@pytest.mark.parametrize("dim", [1, 2, 8, 9])
def test_kernel_scratch_is_its_block_buffers(dim):
    assert _kernel_overshoot(dim) <= _MEMORY_SLACK
    # a thread's buffers (131 072 bytes each here) are not allocated again
    assert (_kernel_overshoot(dim, warm=True) <= _MEMORY_SLACK
            < max(som_module._BLOCK_ENTRIES, _MEMORY_UNITS) * 8)


@pytest.mark.parametrize("old, new", [
    # a ufunc that takes the stimuli's broadcast column directly
    ("np.subtract(t, w, out=t)", "np.subtract(x[start:stop, k, np.newaxis], w, out=t)"),
    # the buffers laid out unit by unit, so that the short last block is a
    # strided view of them
    ("[:shape[0] * units].reshape(shape)", "[:rows * units].reshape(units, -1).T[:shape[0]]"),
], ids=["broadcast column", "strided last block"])
@pytest.mark.parametrize("dim", [2, 9])
def test_kernel_memory_bound_catches_buffered_ufuncs(monkeypatch, old, new, dim):
    src = textwrap.dedent(inspect.getsource(som_module._blocks))
    assert src.count(old) == 1
    namespace = dict(vars(som_module))
    exec(compile(src.replace(old, new), som_module.__file__, "exec"), namespace)
    monkeypatch.setattr(som_module, "_blocks", namespace["_blocks"])
    x, w, groups = _kernel_case(0, 70, 70, dim, False, False)
    assert _kernel_mismatches(x, w, groups) == []
    assert _kernel_overshoot(dim) > _MEMORY_SLACK


def test_bmu_input_validation():
    som = init_map(2, 2, 2, seed=0, value_range=(0.0, 1.0))
    with pytest.raises(InputError):
        apply_presentation(som, (1.0,), lr=0.5, radius=1.0)
    with pytest.raises(InputError):
        apply_presentation(som, (float("nan"), 0.0), lr=0.5, radius=1.0)


# ==============================================================
# Training
# ==============================================================


def test_train_deterministic():
    data = small_data()
    som0 = init_map(3, 3, 2, seed=0, value_range=feature_range(data))
    cfg = TrainConfig(epochs=5, seed=3)
    t1, log1 = train(som0, data, cfg)
    t2, log2 = train(som0, data, cfg)
    assert np.array_equal(t1.weights, t2.weights)
    assert log1 == log2
    assert len(log1) == 5


def test_train_zero_epochs_is_noop():
    data = small_data()
    som0 = init_map(3, 3, 2, seed=0, value_range=feature_range(data))
    out, log = train(som0, data, TrainConfig(epochs=0))
    assert np.array_equal(out.weights, som0.weights)
    assert log == []


def test_gaussian_cluster_ids_are_distinct():
    labels = [f"C{i}" for i in range(12)]
    data = gaussian_clusters([(0.0, 0.0)] * 12, labels, 101, 1.0, seed=0)
    assert len({s.sid for s in data}) == 12 * 101
    # up to 100 points per cluster the ids keep their two-digit form
    small = gaussian_clusters([(0.0, 0.0)] * 2, ["A", "B"], 100, 1.0, seed=0)
    assert small[0].sid == "A00" and small[-1].sid == "B99"


def test_train_does_not_mutate_input_map():
    data = small_data()
    som0 = init_map(3, 3, 2, seed=0, value_range=feature_range(data))
    before = som0.weights.copy()
    train(som0, data, TrainConfig(epochs=3, seed=0))
    assert np.array_equal(som0.weights, before)


def test_train_reduces_quantization_error():
    data = three_cluster_dataset()
    som0 = init_map(6, 6, 2, seed=0, value_range=feature_range(data))
    qe0 = quantization_error(som0, data)
    trained, log = train(som0, data, TrainConfig(epochs=50, seed=0))
    assert log[-1] < 0.5 * qe0
    assert trained.epochs_trained == 50


def test_quantization_error_matches_oracle():
    data = three_cluster_dataset()
    som0 = init_map(6, 6, 2, seed=0, value_range=feature_range(data))
    trained, _ = train(som0, data, TrainConfig(epochs=10, seed=0))
    got = quantization_error(trained, data)
    want = oracle_qe([tuple(w) for w in trained.weights], [s.features for s in data])
    assert got == pytest.approx(want, abs=1e-9)


def test_schedule_endpoints_and_shuffle():
    cfg = TrainConfig(epochs=2, lr_start=0.8, lr_end=0.1, radius_start=4.0, radius_end=1.0, seed=5)
    sched = list(presentation_schedule(10, cfg))
    assert len(sched) == 20
    assert sched[0][2] == 0.8 and sched[0][3] == 4.0
    assert sched[-1][2] == 0.1 and sched[-1][3] == 1.0  # linear ramp hits the end exactly
    # each epoch presents every sample exactly once
    for epoch in (0, 1):
        idx = sorted(i for e, i, _, _ in sched if e == epoch)
        assert idx == list(range(10))
    # seeded shuffle is reproducible and actually shuffles
    again = list(presentation_schedule(10, cfg))
    assert again == sched
    no_shuffle = list(presentation_schedule(10, TrainConfig(epochs=2, seed=5, shuffle=False)))
    assert [i for _, i, _, _ in no_shuffle[:10]] == list(range(10))


def _schedule_configs(seed: int):
    """Configs over epochs 0-4 with shuffle on and off, each once with
    lr_start == lr_end."""
    rng = np.random.default_rng(seed)
    for epochs in range(5):
        for shuffle in (True, False):
            lr_start, lr_end = rng.uniform(0.01, 1.0, 2).tolist()
            radius_start, radius_end = rng.uniform(0.1, 5.0, 2).tolist()
            for lr in ((lr_start, lr_end), (lr_start, lr_start)):
                yield TrainConfig(epochs=epochs, lr_start=lr[0], lr_end=lr[1], radius_start=radius_start,
                                  radius_end=radius_end, seed=seed, shuffle=shuffle)


def _schedule_mismatches(seeds, sizes) -> int:
    """How many (config, size) pairs give a schedule that differs, tuple
    for tuple and float for float (``==``), from the oracle's."""
    return sum(
        list(presentation_schedule(n, cfg)) != list(oracle_schedule(n, cfg))
        for seed in seeds for cfg in _schedule_configs(seed) for n in sizes
    )


def test_schedule_equals_oracle():
    # n = 1 at one epoch makes total = 1, where frac is 0.0
    assert _schedule_mismatches(range(6), (1, 2, 7, 60)) == 0


def test_schedule_comparison_catches_a_step_counter_restarting_each_epoch(monkeypatch):
    assert _schedule_mismatches((0,), (7,)) == 0
    src = textwrap.dedent(inspect.getsource(som_module._epoch_schedules))
    counter = "np.arange(epoch * n_samples, (epoch + 1) * n_samples)"
    assert src.count(counter) == 1
    namespace = dict(vars(som_module))
    exec(compile(src.replace(counter, "np.arange(n_samples)"), som_module.__file__, "exec"), namespace)
    monkeypatch.setattr(som_module, "_epoch_schedules", namespace["_epoch_schedules"])
    assert _schedule_mismatches((0,), (7,))


def test_single_presentation_pulls_bmu_onto_stimulus():
    # lr = 1 with a vanishing radius moves exactly the BMU, exactly onto x
    som = init_map(3, 3, 2, seed=0, value_range=(0.0, 1.0))
    x = (0.3, 0.4)
    b = nearest_units(np.array([x]), som.weights)[0][0]
    out = apply_presentation(som, x, lr=1.0, radius=1e-9)
    assert tuple(out.weights[b]) == x
    others = [i for i in range(9) if i != b]
    assert np.array_equal(out.weights[others], som.weights[others])


def _train_case(seed: int, rows: int, cols: int, dim: int, n: int, epochs: int):
    """A map, stimuli and a config.  Later units copy earlier ones and some
    stimuli sit on a copied unit, so BMU ties must go to the lowest index;
    some stimuli repeat; lr is 1 at either end half the time, and radii run
    from 1e-6, where every h off the BMU is 0.0, to 10."""
    rng = np.random.default_rng(seed)
    units = rows * cols
    w = rng.normal(size=(units, dim)) * np.exp(rng.uniform(-2, 2, (units, dim)))
    src = rng.integers(0, units, size=units // 3 + 1)
    dst = rng.integers(0, units, size=src.size)
    w[np.maximum(src, dst)] = w[np.minimum(src, dst)]
    x = rng.normal(size=(n, dim)) * 2
    x[: n // 3] = w[np.minimum(src, dst)[: n // 3]]
    x[n // 3: n // 2] = x[rng.integers(0, n, size=n // 2 - n // 3)]
    data = [Stimulus(f"s{i}", tuple(v), "A") for i, v in enumerate(x.tolist())]
    lr_start, lr_end = (1.0 if rng.random() < 0.5 else float(rng.uniform(0.01, 1.0)) for _ in range(2))
    radius_start, radius_end = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), 2)).tolist()
    cfg = TrainConfig(epochs=epochs, lr_start=lr_start, lr_end=lr_end, radius_start=radius_start,
                      radius_end=radius_end, seed=seed, shuffle=bool(rng.random() < 0.8))
    som = SomMap(rows=rows, cols=cols, input_dim=dim, seed=seed, weights=w)
    return som, data, cfg


def _step_mismatches(som, data, cfg) -> list[str]:
    """Which of ``train`` (weights, QE log) and ``apply_presentation`` on
    the untrained map differ, bit for bit, from the oracle's step."""
    out = []
    weights, qe_log = oracle_train(som, data, cfg)
    x = np.array(data[-1].features)
    trained, log = train(som, data, cfg)
    stepped = apply_presentation(som, x, cfg.lr_start, cfg.radius_start)
    if trained.weights.tobytes() != weights.tobytes():
        out.append("train weights")
    if log != qe_log:
        out.append("QE log")
    want = oracle_present(som.weights, som.cols, x, cfg.lr_start, cfg.radius_start)
    if stepped.weights.tobytes() != want.tobytes():
        out.append("apply_presentation")
    return out


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(1, 12),
    st.integers(1, 8),
    st.integers(1, 3),
)
@settings(max_examples=60)
@example(0, 2, 5, 8, 8, 3)
@example(1, 5, 3, 1, 8, 2)
# eight running sums plus one and plus four leftover features
@example(2, 3, 4, 9, 8, 2)
@example(3, 4, 3, 12, 8, 2)
def test_presentation_step_equals_oracle(seed, rows, cols, dim, n, epochs):
    som, data, cfg = _train_case(seed, rows, cols, dim, n, epochs)
    assert _step_mismatches(som, data, cfg) == []


def _summation_order_case():
    """A 1 x 2 map at d = 9 whose BMU for x = 0 only the order of the
    squared distance's sum decides.  Unit 0's squares are 1e16 and eight
    1s, unit 1's 1e16, 4 and seven 0s; the spacing of floats at 1e16 is 2.
    Left to right, each 1 added to 1e16 rounds away and 1e16 + 4 stays, so
    unit 0 is nearer.  Numpy's pairwise order adds the eighth and ninth
    squares first (1e16 + 1 -> 1e16) and then combines the eight running
    sums: 1e16 + 6 against 1e16 + 4, so unit 1 is."""
    w = np.array([[1e8] + [1.0] * 8, [1e8, 2.0] + [0.0] * 7])
    return SomMap(rows=1, cols=2, input_dim=9, seed=0, weights=w), np.zeros(9)


def _summation_order_mismatch(som, x) -> bool:
    """Whether one presentation of ``x`` (lr 1, radius 1e-9: only the BMU
    moves, onto ``x``) differs, bit for bit, from the oracle's step."""
    got = apply_presentation(som, x, 1.0, 1e-9).weights
    return got.tobytes() != oracle_present(som.weights, som.cols, x, 1.0, 1e-9).tobytes()


def test_presentation_sums_in_pairwise_order_past_eight_features():
    som, x = _summation_order_case()
    squares = ((som.weights - x) ** 2).tolist()
    assert [math.fsum(q) for q in squares] == [1e16 + 8, 1e16 + 4]
    assert int(np.argmin([sum(q) for q in squares])) == 0  # left to right
    assert int(np.argmin(((som.weights - x) ** 2).sum(axis=1))) == 1  # numpy's order
    assert not _summation_order_mismatch(som, x)
    assert apply_presentation(som, x, 1.0, 1e-9).weights[1].tolist() == x.tolist()


def test_step_comparison_catches_left_to_right_bmu_sum(monkeypatch):
    som, x = _summation_order_case()
    monkeypatch.setattr(som_module, "_pairwise_sum", _left_to_right)
    assert _summation_order_mismatch(som, x)


def test_step_comparison_catches_swapped_tables():
    som, data, cfg = _train_case(3, 4, 4, 3, 8, 2)
    assert _step_mismatches(som, data, cfg) == []
    som._row_gd2, som._col_gd2 = som._col_gd2, som._row_gd2
    assert _step_mismatches(som, data, cfg)


def test_step_comparison_catches_bmu_decoded_by_rows(monkeypatch):
    # On this 3x4 case every BMU decodes to a row and column in range.
    som, data, cfg = _train_case(9, 3, 4, 2, 8, 2)
    assert _step_mismatches(som, data, cfg) == []
    src = textwrap.dedent(inspect.getsource(som_module._present))
    assert src.count("som.cols)") == 1
    namespace = dict(vars(som_module))
    exec(compile(src.replace("som.cols)", "som.rows)"), som_module.__file__, "exec"), namespace)
    monkeypatch.setattr(som_module, "_present", namespace["_present"])
    assert _step_mismatches(som, data, cfg)


def test_offset_tables_are_shared_and_read_only():
    som = init_map(2, 3, 2, seed=7, value_range=(0.0, 1.0))
    som.epochs_trained = 4
    assert som._row_gd2.shape == (2, 6) and som._col_gd2.shape == (3, 6)
    twin = som.copy()
    assert type(twin) is SomMap
    for name in ("rows", "cols", "input_dim", "seed", "epochs_trained"):
        assert getattr(twin, name) == getattr(som, name)
    assert twin.weights.tobytes() == som.weights.tobytes()
    assert map_snapshot(twin) == map_snapshot(som)
    # the copy owns its weights
    before = som.weights.copy()
    assert twin.weights is not som.weights and not np.shares_memory(twin.weights, som.weights)
    twin.weights += 1.0
    assert som.weights.tobytes() == before.tobytes()
    assert twin._row_gd2 is som._row_gd2 and twin._col_gd2 is som._col_gd2
    for table in (som._row_gd2, som._col_gd2):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


def test_vanishing_radius_is_winner_take_all():
    # At 1e-160, 2 * radius**2 is a subnormal and -grid_dist^2 divided by
    # it overflows; every h off the BMU is 0.0, as it already is at 0.01.
    data = small_data()
    som0 = init_map(3, 4, 2, seed=0, value_range=feature_range(data))
    tiny, _ = train(som0, data, TrainConfig(epochs=3, radius_start=1e-160, radius_end=1e-160))
    small, _ = train(som0, data, TrainConfig(epochs=3, radius_start=0.01, radius_end=0.01))
    assert tiny.weights.tobytes() == small.weights.tobytes()
    x = data[0].features
    assert (apply_presentation(som0, x, 0.5, 1e-160).weights.tobytes()
            == apply_presentation(som0, x, 0.5, 0.01).weights.tobytes())


def test_apply_presentation_validation():
    som = init_map(2, 2, 2, seed=0, value_range=(0.0, 1.0))
    with pytest.raises(InputError):
        apply_presentation(som, (0.1, 0.2), lr=0.0, radius=1.0)
    with pytest.raises(InputError):
        apply_presentation(som, (0.1, 0.2), lr=0.5, radius=0.0)
    with pytest.raises(InputError, match="radius 1e-200 is too small"):
        apply_presentation(som, (0.1, 0.2), lr=0.5, radius=1e-200)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        TrainConfig(epochs=1, seed=-1)
    with pytest.raises(ConfigError, match=r"seed must be at most 2\*\*64 - 1"):
        TrainConfig(epochs=1, seed=2**64)
    assert TrainConfig(epochs=1, seed=2**64 - 1).seed == 2**64 - 1
    # train would raise numpy's TypeError on 1.5, the comparison on "3",
    # and save_map could not write np.int64(3), nor load_map read True back
    for seed in (1.5, "3", np.int64(3), True):
        with pytest.raises(ConfigError, match=f"seed must be an integer, got {re.escape(repr(seed))}"):
            TrainConfig(epochs=1, seed=seed)
    # a map, as load_map reads it, is held to the seeds init_map takes
    for seed, message in ((-1, "seed must be non-negative, got -1"),
                          (True, "seed must be an integer, got True")):
        with pytest.raises(ConfigError, match=message):
            SomMap(rows=1, cols=1, input_dim=1, seed=seed, weights=[[0.0]])
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, lr_start=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, lr_start=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, radius_end=-2.0)
    # 2 * radius**2 underflows to 0.0
    for name in ("radius_start", "radius_end"):
        with pytest.raises(ConfigError, match=f"{name} 1e-200 is too small"):
            TrainConfig(epochs=1, **{name: 1e-200})


def test_train_empty_data():
    som = init_map(2, 2, 2, seed=0, value_range=(0.0, 1.0))
    with pytest.raises(InputError):
        train(som, [], TrainConfig(epochs=1))
    with pytest.raises(InputError):
        quantization_error(som, [])


@pytest.mark.parametrize("features", [(0.0,), (0.0, 0.1, 0.2)])
def test_train_and_quantization_error_refuse_a_stimulus_of_another_dimension(features):
    # Both check only each stimulus's dimension, with the message a raw
    # vector of the wrong shape gets.
    som = init_map(2, 2, 2, seed=0, value_range=(0.0, 1.0))
    data = [Stimulus("a", (0.5, 0.5), "A"), Stimulus("b", features, "A")]
    message = f"input vector has shape ({len(features)},), map expects (2,)"
    with pytest.raises(InputError) as raw:
        apply_presentation(som, features, 0.5, 1.0)
    with pytest.raises(InputError) as trained:
        train(som, data, TrainConfig(epochs=1))
    with pytest.raises(InputError) as measured:
        quantization_error(som, data)
    assert str(raw.value) == str(trained.value) == str(measured.value) == message


# ==============================================================
# Snapshots
# ==============================================================


def test_snapshot_round_trip(tmp_path):
    data = small_data()
    som0 = init_map(3, 3, 2, seed=9, value_range=feature_range(data))
    trained, _ = train(som0, data, TrainConfig(epochs=4, seed=9))
    p = tmp_path / "map.json"
    save_map(p, trained)
    loaded = load_map(p)
    assert np.array_equal(loaded.weights, trained.weights)
    assert (loaded.rows, loaded.cols, loaded.input_dim, loaded.seed) == (3, 3, 2, 9)
    assert loaded.epochs_trained == 4
    # resaving the loaded map is byte-identical: serialisation is lossless
    first = p.read_bytes()
    save_map(p, loaded)
    assert p.read_bytes() == first


def test_snapshot_shape():
    som = init_map(2, 2, 2, seed=0, value_range=(0.0, 1.0))
    doc = map_snapshot(som)
    assert set(doc) == {"rows", "cols", "input_dim", "seed", "epochs_trained", "units"}
    assert [u["index"] for u in doc["units"]] == [0, 1, 2, 3]
    assert all(len(u["weights"]) == 2 for u in doc["units"])


def test_snapshot_malformed():
    with pytest.raises(InputError):
        map_from_snapshot({"rows": 2, "cols": 2})
    doc = map_snapshot(init_map(2, 2, 2, seed=0, value_range=(0.0, 1.0)))
    doc["units"] = doc["units"][:-1]
    with pytest.raises(InputError):
        map_from_snapshot(doc)

    # Each field is read as strictly as model.json's: one fault per case,
    # on a 1x2 map whose snapshot loads as it stands.
    base = map_snapshot(init_map(1, 2, 2, seed=7, value_range=(0.0, 1.0)))
    map_from_snapshot(base)
    faults = {
        "duplicated index": lambda d: d["units"][1].update(index=0),
        "weights a string": lambda d: d["units"][0].update(weights="12"),
        "weights too short": lambda d: d["units"][0].update(weights=[1.0]),
        "weights booleans": lambda d: d["units"][0].update(weights=[True, False]),
        "weight past float64": lambda d: d["units"][0].update(weights=[10**400, 1.0]),
        "rows a float": lambda d: d.update(rows=1.7),
        "seed a string": lambda d: d.update(seed="7"),
        "index a boolean": lambda d: d["units"][1].update(index=True),
        "row not index // cols": lambda d: d["units"][1].update(row=1),
        "col not index % cols": lambda d: d["units"][1].update(col=0),
    }
    for fault, mutate in faults.items():
        doc = copy.deepcopy(base)
        mutate(doc)
        try:
            map_from_snapshot(doc)
        except InputError as exc:
            assert str(exc).startswith("malformed map snapshot: "), (fault, exc)
        else:
            pytest.fail(f"{fault}: the snapshot loaded")


def test_stimulus_validation():
    with pytest.raises(InputError):
        Stimulus("", (0.0,), "A")
    with pytest.raises(InputError):
        Stimulus("s", (), "A")
    with pytest.raises(InputError):
        Stimulus("s", (float("inf"),), "A")
    with pytest.raises(InputError):
        Stimulus("s", (0.0,), "")
