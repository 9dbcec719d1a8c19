import copy

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

from oracles import oracle_bmu, oracle_qe, oracle_sq_dists


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


def test_init_bad_range():
    with pytest.raises(ConfigError):
        init_map(2, 2, 1, seed=0, value_range=(2.0, 1.0))
    with pytest.raises(ConfigError):
        init_map(2, 2, 1, seed=0, value_range=(0.0, float("inf")))


def test_grid_coordinates():
    som = init_map(2, 3, 2, seed=0, value_range=(0.0, 1.0))
    cells = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert [tuple(c) for c in som.grid_coords.tolist()] == cells
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
def test_kernel_equals_pinned_expression(seed, n, units, dim, duplicates, huge):
    x, w, groups = _kernel_case(seed, n, units, dim, duplicates, huge)
    assert _kernel_mismatches(x, w, groups) == []


def test_kernel_comparison_catches_left_to_right_sum(monkeypatch):
    x, w, groups = _kernel_case(0, 70, 70, 8, False, False)
    assert _kernel_mismatches(x, w, groups) == []

    def left_to_right(terms):
        total = terms[0]
        for t in terms[1:]:
            total += t
        return total

    monkeypatch.setattr(som_module, "_pairwise_sum", left_to_right)
    assert "distances" in _kernel_mismatches(x, w, groups)


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


def test_single_presentation_pulls_bmu_onto_stimulus():
    # lr = 1 with a vanishing radius moves exactly the BMU, exactly onto x
    som = init_map(3, 3, 2, seed=0, value_range=(0.0, 1.0))
    x = (0.3, 0.4)
    b = nearest_units(np.array([x]), som.weights)[0][0]
    out = apply_presentation(som, x, lr=1.0, radius=1e-9)
    assert tuple(out.weights[b]) == x
    others = [i for i in range(9) if i != b]
    assert np.array_equal(out.weights[others], som.weights[others])


def test_apply_presentation_validation():
    som = init_map(2, 2, 2, seed=0, value_range=(0.0, 1.0))
    with pytest.raises(InputError):
        apply_presentation(som, (0.1, 0.2), lr=0.0, radius=1.0)
    with pytest.raises(InputError):
        apply_presentation(som, (0.1, 0.2), lr=0.5, radius=0.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, lr_start=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, lr_start=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, radius_end=-2.0)


def test_train_empty_data():
    som = init_map(2, 2, 2, seed=0, value_range=(0.0, 1.0))
    with pytest.raises(InputError):
        train(som, [], TrainConfig(epochs=1))
    with pytest.raises(InputError):
        quantization_error(som, [])


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
