import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somlogic import (
    InputError,
    SomMap,
    Stimulus,
    TrainConfig,
    build_model,
    feature_range,
    find_bmu,
    init_map,
    initial_model,
    load_model,
    save_model,
    train,
)
from somlogic.model import model_from_snapshot, model_snapshot

from oracles import dist, oracle_rd


# ==============================================================
# Construction invariants on the trained reference model
# ==============================================================


def test_domain_composition(cluster_model, clusters, trained_map):
    m = cluster_model
    stim_ids = {e.eid for e in m.elements if e.origin == "stimulus"}
    bmu_ids = {e.eid for e in m.elements if e.origin == "bmu"}
    assert stim_ids == {s.sid for s in clusters}
    all_bmus = {find_bmu(trained_map, s.features) for s in clusters}
    assert len(bmu_ids) == len(all_bmus)  # none collided with a stimulus here
    assert len(m.elements) == len(stim_ids) + len(bmu_ids)


def test_bmu_elements_have_zero_rd(cluster_model):
    for name, t in cluster_model.categories.items():
        for eid in t.bmu_element_ids:
            assert t.rd[eid] == 0.0


def test_rd_max_exactly_one(cluster_model):
    for t in cluster_model.categories.values():
        assert t.precision > 0.0
        assert t.rd_max == 1.0


def test_stimuli_inside_own_extension(cluster_model, clusters):
    for s in clusters:
        assert s.sid in cluster_model.extensions[s.label]


def test_typical_equals_zero_rd_set(cluster_model):
    for name, t in cluster_model.categories.items():
        typ = {eid for eid, v in t.rd.items() if v == 0.0}
        assert set(t.bmu_element_ids) <= typ
        assert typ <= cluster_model.extensions[name]


def test_rd_matches_oracle(cluster_model, trained_map):
    m = cluster_model
    feats = {e.eid: e.features for e in m.elements}
    for name, t in m.categories.items():
        ensemble = [tuple(trained_map.weights[u]) for u in t.bmu_units]
        # oracle recomputes precision from scratch too
        precision = max(
            min(dist(feats[eid], w) for w in ensemble)
            for eid in t.stimulus_element_ids
        )
        assert precision == pytest.approx(t.precision, rel=1e-12)
        for eid in m.element_ids:
            want = oracle_rd(feats[eid], ensemble, precision)
            assert t.rd[eid] == pytest.approx(want, rel=1e-9)


def test_extension_is_rd_cut(cluster_model):
    for name, t in cluster_model.categories.items():
        cut = {eid for eid, v in t.rd.items() if v <= t.rd_max}
        assert cluster_model.extensions[name] == cut


def test_unknown_ids_raise(cluster_model):
    with pytest.raises(InputError):
        cluster_model.element("nope")
    with pytest.raises(InputError):
        cluster_model.category("Nope")


# ==============================================================
# Deduplication and degenerate precision
# ==============================================================


def _pinned_map():
    # two units sitting exactly on the two stimuli
    w = np.array([[0.0, 0.0], [5.0, 5.0]])
    return SomMap(rows=1, cols=2, input_dim=2, seed=0, weights=w)


def test_stimulus_on_unit_merges_into_one_element():
    som = _pinned_map()
    data = [Stimulus("p1", (0.0, 0.0), "P"), Stimulus("q1", (5.0, 5.0), "Q")]
    m = build_model(som, data)
    assert len(m.elements) == 2  # stimulus and its BMU are the same point
    assert {e.origin for e in m.elements} == {"stimulus"}
    assert m.categories["P"].bmu_element_ids == ("p1",)


def test_degenerate_precision_zero():
    som = _pinned_map()
    data = [Stimulus("p1", (0.0, 0.0), "P"), Stimulus("q1", (5.0, 5.0), "Q")]
    m = build_model(som, data)
    tp = m.categories["P"]
    assert tp.precision == 0.0
    assert tp.rd_max == 0.0
    assert tp.rd["p1"] == 0.0
    assert tp.rd["q1"] == math.inf  # off the ensemble with zero precision
    assert m.extensions["P"] == {"p1"}


def test_duplicate_stimuli_share_element():
    som = _pinned_map()
    data = [
        Stimulus("p1", (1.0, 1.0), "P"),
        Stimulus("p2", (1.0, 1.0), "P"),  # same point, same element
        Stimulus("q1", (5.0, 5.0), "Q"),
    ]
    m = build_model(som, data)
    assert "p2" not in m.element_ids
    assert m.categories["P"].stimulus_element_ids == ("p1",)


def test_duplicate_sid_different_features_rejected():
    som = _pinned_map()
    data = [Stimulus("p1", (1.0, 1.0), "P"), Stimulus("p1", (2.0, 2.0), "P")]
    with pytest.raises(InputError):
        build_model(som, data)


def test_probes_join_the_domain(trained_map, clusters):
    m = build_model(trained_map, clusters, probes=[(3.0, 3.0), (100.0, 100.0)])
    assert "p0" in m.element_ids and "p1" in m.element_ids
    assert m.element("p0").origin == "probe"
    for t in m.categories.values():
        assert "p0" in t.rd and "p1" in t.rd
    # the far probe is outside every extension
    assert all("p1" not in ext for ext in m.extensions.values())


def test_category_list_argument(trained_map, clusters):
    m = build_model(trained_map, clusters, categories=["A", "B", "C", "Z"])
    assert m.categories["Z"].empty
    assert m.extensions["Z"] == frozenset()
    with pytest.raises(InputError):
        build_model(trained_map, clusters, categories=["A", "B"])  # C missing


def test_reserved_labels_rejected(trained_map):
    data = [Stimulus("s1", (0.0, 0.0), "Top")]
    with pytest.raises(InputError):
        build_model(trained_map, data)
    with pytest.raises(InputError):
        initial_model(["A", "not a name"], 2)


def test_initial_model_is_empty():
    m = initial_model(["A", "B"], 2)
    assert m.elements == ()
    assert all(t.empty for t in m.categories.values())
    assert all(ext == frozenset() for ext in m.extensions.values())


# ==============================================================
# Snapshots
# ==============================================================


def test_model_snapshot_round_trip(cluster_model, tmp_path):
    p = tmp_path / "model.json"
    save_model(p, cluster_model)
    loaded = load_model(p)
    assert loaded.element_ids == cluster_model.element_ids
    for name, t in cluster_model.categories.items():
        lt = loaded.categories[name]
        assert lt.rd == t.rd
        assert lt.rd_max == t.rd_max
        assert lt.precision == t.precision
        assert lt.bmu_units == t.bmu_units
        assert lt.bmu_element_ids == t.bmu_element_ids
        assert lt.stimulus_element_ids == t.stimulus_element_ids
    assert loaded.extensions == cluster_model.extensions
    first = p.read_bytes()
    save_model(p, loaded)
    assert p.read_bytes() == first


def test_loaded_views_equal_built(trained_map, clusters, tmp_path):
    # Probes and an empty category: the views a loaded model reads off its
    # matrices are those of the model it was saved from.
    built = build_model(trained_map, clusters, probes=[(3.0, 3.0), (100.0, 100.0)],
                        categories=["A", "B", "C", "Z"])
    p = tmp_path / "model.json"
    save_model(p, built)
    loaded = load_model(p)
    assert loaded.elements == built.elements
    for name, t in built.categories.items():
        assert loaded.categories[name].rd == t.rd
    assert loaded.categories["Z"].rd == {}
    assert loaded.extensions == built.extensions
    assert loaded.extensions["Z"] == frozenset()
    assert model_snapshot(loaded) == model_snapshot(built)


def test_model_snapshot_encodes_inf():
    som = _pinned_map()
    data = [Stimulus("p1", (0.0, 0.0), "P"), Stimulus("q1", (5.0, 5.0), "Q")]
    m = build_model(som, data)
    doc = model_snapshot(m)
    assert doc["categories"]["P"]["rd"]["q1"] == "inf"
    back = model_from_snapshot(doc)
    assert back.categories["P"].rd["q1"] == math.inf


def test_model_snapshot_validation(cluster_model):
    doc = model_snapshot(cluster_model)
    doc["extensions"]["A"] = ["ghost"]
    with pytest.raises(InputError):
        model_from_snapshot(doc)
    doc = model_snapshot(cluster_model)
    doc["categories"]["A"]["rd"].pop(next(iter(doc["categories"]["A"]["rd"])))
    with pytest.raises(InputError):
        model_from_snapshot(doc)
    # a negative rd on an element that stays inside the extension
    doc = model_snapshot(cluster_model)
    doc["categories"]["A"]["rd"][cluster_model.categories["A"].stimulus_element_ids[0]] = -0.5
    with pytest.raises(InputError, match="re-derivation: category 'A', rd of 'A00': stored -0.5"):
        model_from_snapshot(doc)
    doc = model_snapshot(cluster_model)
    doc["categories"]["A"]["rd_max"] = None
    with pytest.raises(InputError, match="re-derivation: category 'A', rd_max: stored None"):
        model_from_snapshot(doc)


@functools.cache
def _small_snapshot() -> str:
    data = [Stimulus(f"a{i}", (0.3 * i, 0.1 * i * i), "A") for i in range(5)]
    data += [Stimulus(f"b{i}", (4.0 - 0.2 * i, 3.0 + 0.3 * i), "B") for i in range(5)]
    som0 = init_map(2, 2, 2, 0, feature_range(data))
    trained, _ = train(som0, data, TrainConfig(epochs=3, seed=0))
    return json.dumps(model_snapshot(build_model(trained, data, probes=[(2.0, 2.0)])))


@given(st.data())
@settings(max_examples=60)
def test_changing_one_derived_leaf_is_refused(data):
    doc = json.loads(_small_snapshot())
    model_from_snapshot(doc)  # the saved model itself loads
    name = data.draw(st.sampled_from(sorted(doc["categories"])))
    cat, ext = doc["categories"][name], doc["extensions"][name]
    leaf = data.draw(st.sampled_from(["rd", "precision", "rd_max", "add", "drop"]))
    if leaf in ("rd", "precision", "rd_max"):
        table = cat["rd"] if leaf == "rd" else cat
        key = data.draw(st.sampled_from(sorted(cat["rd"]))) if leaf == "rd" else leaf
        old = float(table[key])  # the snapshot writes an infinite rd as "inf"
        table[key] = data.draw(st.floats().filter(lambda v: not v == old))
    elif leaf == "add":
        outside = sorted({e["id"] for e in doc["elements"]} - set(ext)) + ["ghost"]
        ext.append(data.draw(st.sampled_from(outside)))
    else:
        ext.remove(data.draw(st.sampled_from(ext)))
    with pytest.raises(InputError, match="re-derivation"):
        model_from_snapshot(doc)


# ==============================================================
# Property: invariants on random small maps
# ==============================================================


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_invariants_on_random_runs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    pts = rng.normal(scale=2.0, size=(n, 2))
    labels = ["L0", "L1"]
    data = [
        Stimulus(f"s{i}", (float(pts[i, 0]), float(pts[i, 1])), labels[int(rng.integers(0, 2))])
        for i in range(n)
    ]
    som0 = init_map(3, 3, 2, int(seed % 1000), feature_range(data))
    trained, _ = train(som0, data, TrainConfig(epochs=int(rng.integers(0, 4)), seed=int(seed % 7)))
    m = build_model(trained, data)
    for name, t in m.categories.items():
        assert t.rd_max == (1.0 if t.precision > 0.0 else 0.0)
        for eid in t.bmu_element_ids:
            assert t.rd[eid] == 0.0
        for eid in t.stimulus_element_ids:
            assert t.rd[eid] <= t.rd_max
        assert m.extensions[name] == frozenset(
            eid for eid, v in t.rd.items() if v <= t.rd_max
        )
