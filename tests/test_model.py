import functools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somlogic import (
    ConsistencyError,
    InputError,
    SomMap,
    Stimulus,
    TrainConfig,
    build_model,
    feature_range,
    init_map,
    initial_model,
    load_model,
    save_model,
    train,
)
from somlogic import model as model_module
from somlogic.jsonio import canonical_dumps
from somlogic.model import SemanticModel, model_from_snapshot, model_snapshot
from somlogic.som import nearest_units

from oracles import dist, extension_ids, oracle_model_from_snapshot, oracle_rd, rd_table


# ==============================================================
# Construction invariants on the trained reference model
# ==============================================================


def test_domain_composition(cluster_model, clusters, trained_map):
    m = cluster_model
    stim_ids = {e.eid for e in m.elements if e.origin == "stimulus"}
    bmu_ids = {e.eid for e in m.elements if e.origin == "bmu"}
    assert stim_ids == {s.sid for s in clusters}
    all_bmus = set(nearest_units(np.array([s.features for s in clusters]), trained_map.weights)[0].tolist())
    assert len(bmu_ids) == len(all_bmus)  # none collided with a stimulus here
    assert len(m.elements) == len(stim_ids) + len(bmu_ids)


def test_bmu_elements_have_zero_rd(cluster_model):
    for name, t in cluster_model.categories.items():
        for eid in t.bmu_element_ids:
            assert rd_table(cluster_model, name)[eid] == 0.0


def test_rd_max_exactly_one(cluster_model):
    for t in cluster_model.categories.values():
        assert t.precision > 0.0
        assert t.rd_max == 1.0


def test_stimuli_inside_own_extension(cluster_model, clusters):
    for s in clusters:
        assert s.sid in extension_ids(cluster_model, s.label)


def test_typical_equals_zero_rd_set(cluster_model):
    for name, t in cluster_model.categories.items():
        typ = {eid for eid, v in rd_table(cluster_model, name).items() if v == 0.0}
        assert set(t.bmu_element_ids) <= typ
        assert typ <= extension_ids(cluster_model, name)


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
            assert rd_table(m, name)[eid] == pytest.approx(want, rel=1e-9)


def test_extension_is_rd_cut(cluster_model):
    for name, t in cluster_model.categories.items():
        cut = {eid for eid, v in rd_table(cluster_model, name).items() if v <= t.rd_max}
        assert extension_ids(cluster_model, name) == cut


def test_unknown_ids_raise(cluster_model):
    assert "nope" not in cluster_model.col_of
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
    assert rd_table(m, "P")["p1"] == 0.0
    assert rd_table(m, "P")["q1"] == math.inf  # off the ensemble with zero precision
    assert extension_ids(m, "P") == {"p1"}


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
    assert m.origins[m.col_of["p0"]] == "probe"
    assert not np.isnan(m.rd[:, [m.col_of["p0"], m.col_of["p1"]]]).any()
    # the far probe is outside every extension
    assert not m.ext[:, m.col_of["p1"]].any()


def test_category_list_argument(trained_map, clusters):
    m = build_model(trained_map, clusters, categories=["A", "B", "C", "Z"])
    assert m.categories["Z"].empty
    assert not m.ext[m.row_of["Z"]].any()
    with pytest.raises(InputError):
        build_model(trained_map, clusters, categories=["A", "B"])  # C missing


def test_reserved_labels_rejected(trained_map):
    data = [Stimulus("s1", (0.0, 0.0), "Top")]
    with pytest.raises(InputError):
        build_model(trained_map, data)
    with pytest.raises(InputError):
        initial_model(["A", "not a name"], 2)


@pytest.mark.parametrize("rd, precision, message", [
    ([[0.0, 1.0, 2.0], [1.5, 0.0, np.inf]], [1.0, 0.0], None),
    ([[0.0, 1.0, 2.0], [1.5, 0.5, np.inf]], [1.0, 0.0],
     "category 'B': BMU element 'y' has rd 0.5, expected 0.0"),
    ([[0.0, 0.5, 2.0], [1.5, 0.0, np.inf]], [1.0, 0.0],
     "category 'A': rd_max is 0.5 with positive precision, expected 1.0"),
    ([[0.0, np.nan, np.inf], [1.5, 0.0, np.inf]], [0.0, 0.0],
     "category 'A': stimulus element 'x' outside its own extension"),
])
def test_table_invariants_name_the_first_violation(rd, precision, message):
    # The derivation's post-condition, on hand-set rd rows no map gives.
    ids = ["x", "y", "z"]
    col_of = {eid: i for i, eid in enumerate(ids)}
    refs = {"A": ((0,), ("x",), ("x", "y")), "B": ((1,), ("y",), ("y",))}
    m = SemanticModel(2, ids, col_of, np.zeros((3, 2)), ["stimulus", "stimulus", "probe"],
                      refs, precision, np.array(rd))
    cells = (model_module._cells(refs, col_of, 1), model_module._cells(refs, col_of, 2))
    if message is None:
        model_module._check_tables(m, *cells)
    else:
        with pytest.raises(ConsistencyError, match=message):
            model_module._check_tables(m, *cells)


def test_initial_model_is_empty():
    m = initial_model(["A", "B"], 2)
    assert m.elements == ()
    assert all(t.empty for t in m.categories.values())
    assert m.ext.shape == (2, 0)


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
        assert rd_table(loaded, name) == rd_table(cluster_model, name)
        assert lt.rd_max == t.rd_max
        assert lt.precision == t.precision
        assert lt.bmu_units == t.bmu_units
        assert lt.bmu_element_ids == t.bmu_element_ids
        assert lt.stimulus_element_ids == t.stimulus_element_ids
    assert np.array_equal(loaded.ext, cluster_model.ext)
    first = p.read_bytes()
    save_model(p, loaded)
    assert p.read_bytes() == first


def test_loaded_views_equal_built(trained_map, clusters, tmp_path):
    # Probes and an empty category: a loaded model's element records and
    # matrices are those of the model it was saved from.
    built = build_model(trained_map, clusters, probes=[(3.0, 3.0), (100.0, 100.0)],
                        categories=["A", "B", "C", "Z"])
    p = tmp_path / "model.json"
    save_model(p, built)
    loaded = load_model(p)
    assert loaded.elements == built.elements
    assert loaded.row_of == built.row_of
    assert np.array_equal(loaded.rd, built.rd, equal_nan=True)
    assert np.isnan(loaded.rd[loaded.row_of["Z"]]).all()
    assert np.array_equal(loaded.ext, built.ext)
    assert not loaded.ext[loaded.row_of["Z"]].any()
    assert model_snapshot(loaded) == model_snapshot(built)


def test_model_snapshot_encodes_inf():
    som = _pinned_map()
    data = [Stimulus("p1", (0.0, 0.0), "P"), Stimulus("q1", (5.0, 5.0), "Q")]
    m = build_model(som, data)
    doc = model_snapshot(m)
    assert doc["categories"]["P"]["rd"]["q1"] == "inf"
    back = model_from_snapshot(doc)
    assert rd_table(back, "P")["q1"] == math.inf


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


@pytest.mark.parametrize("name", ["Top", "1x", "a b"])
def test_loaded_category_names_are_checked_as_built(name):
    # A label build_model refuses is refused on load with the same message.
    with pytest.raises(InputError) as built:
        build_model(_pinned_map(), [Stimulus("s1", (0.0, 0.0), name)])
    doc = json.loads(_small_snapshot())
    doc["categories"][name] = doc["categories"].pop("A")
    doc["extensions"][name] = doc["extensions"].pop("A")
    with pytest.raises(InputError) as loaded:
        model_from_snapshot(doc)
    assert str(loaded.value) == str(built.value)


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
    with pytest.raises(InputError, match="re-derivation") as refused:
        model_from_snapshot(doc)
    assert str(refused.value) == _load_outcome(oracle_model_from_snapshot, doc)


def _load_outcome(load, doc) -> str | None:
    """None if ``load`` accepts the snapshot, else its refusal message, or
    the repr of any other exception it raises."""
    try:
        load(json.loads(json.dumps(doc)))
    except Exception as exc:
        return str(exc) if isinstance(exc, InputError) else repr(exc)
    return None


@functools.cache
def _inf_snapshot() -> str:
    # Both precisions are zero, so every element off a BMU has rd "inf".
    data = [Stimulus("a1", (0.0, 0.0), "P"), Stimulus("b1", (5.0, 5.0), "Q")]
    return json.dumps(model_snapshot(build_model(_pinned_map(), data, probes=[(1.0, 1.0), (0.0, 5.0)])))


def _some_rd(doc, rng):
    name = rng.choice(sorted(doc["categories"]))
    return doc["categories"][name], doc["categories"][name]["rd"]


def _mutate_rd_value(doc, rng):
    _, rd = _some_rd(doc, rng)
    key = rng.choice(sorted(rd))
    rd[key] = 0.5 if rd[key] == "inf" else rd[key] + rng.choice([1e-12, 0.25, -3.0])


def _mutate_rd_inf(doc, rng):
    _, rd = _some_rd(doc, rng)
    key = rng.choice(sorted(rd))
    rd[key] = float("inf") if rd[key] == "inf" else "inf"


def _mutate_rd_missing_key(doc, rng):
    _, rd = _some_rd(doc, rng)
    del rd[rng.choice(sorted(rd))]


def _mutate_rd_extra_key(doc, rng):
    _some_rd(doc, rng)[1]["ghost"] = 0.5


def _mutate_rd_shuffled(doc, rng):
    cat, rd = _some_rd(doc, rng)
    keys = list(rd)
    rng.shuffle(keys)
    cat["rd"] = {k: rd[k] for k in keys}


def _mutate_rd_swapped(doc, rng):
    _, rd = _some_rd(doc, rng)
    a = min(rd)
    b = rng.choice([k for k in sorted(rd) if rd[k] != rd[a]])
    rd[a], rd[b] = rd[b], rd[a]


def _mutate_precision(doc, rng):
    cat, _ = _some_rd(doc, rng)
    cat["precision"] = cat["precision"] * 2 + rng.choice([0.5, 1e-9])


def _mutate_rd_max(doc, rng):
    cat, _ = _some_rd(doc, rng)
    cat["rd_max"] = rng.choice([0.5, 2.0, None])


def _mutate_origin(doc, rng):
    element = rng.choice(doc["elements"])
    element["origin"] = rng.choice(sorted({"stimulus", "bmu", "probe"} - {element["origin"]}))


def _mutate_extension_add(doc, rng):
    name = rng.choice(sorted(doc["extensions"]))
    ext = doc["extensions"][name]
    ext.append(rng.choice(sorted({e["id"] for e in doc["elements"]} - set(ext)) + ["ghost"]))


def _mutate_extension_drop(doc, rng):
    ext = doc["extensions"][rng.choice(sorted(doc["extensions"]))]
    ext.remove(rng.choice(ext))


def _mutate_extension_duplicate(doc, rng):
    ext = doc["extensions"][rng.choice(sorted(doc["extensions"]))]
    ext.insert(rng.randrange(len(ext) + 1), rng.choice(ext))


def _mutate_feature(doc, rng):
    features = rng.choice(doc["elements"])["features"]
    k = rng.randrange(len(features))
    features[k] += rng.choice([1e-12, 0.01, -0.5, 3.0])


# Each mutation of a saved snapshot, with whether the loader must accept
# it (None: either way).  An extension is a set, so a duplicate entry
# changes nothing; an rd table is a mapping, so neither does its key order.
_MUTATIONS = {
    "rd-value": (_mutate_rd_value, False),
    "rd-inf": (_mutate_rd_inf, False),
    "rd-missing-key": (_mutate_rd_missing_key, False),
    "rd-extra-key": (_mutate_rd_extra_key, False),
    "rd-shuffled": (_mutate_rd_shuffled, True),
    "rd-swapped": (_mutate_rd_swapped, False),
    "precision": (_mutate_precision, False),
    "rd_max": (_mutate_rd_max, False),
    "origin": (_mutate_origin, False),
    "extension-add": (_mutate_extension_add, False),
    "extension-drop": (_mutate_extension_drop, False),
    "extension-duplicate": (_mutate_extension_duplicate, True),
    "feature-nudged": (_mutate_feature, None),
}


def _mutation_mismatches(names=tuple(_MUTATIONS)) -> list[str]:
    """Each mutated snapshot whose load outcome (accepted, or the refusal
    message) differs from the element-by-element oracle's or from the
    decision the mutation fixes."""
    mismatches = []
    for snapshot in (_small_snapshot(), _inf_snapshot()):
        for name in names:
            mutate, loads = _MUTATIONS[name]
            for seed in range(8):
                doc = json.loads(snapshot)
                mutate(doc, random.Random(seed))
                got = _load_outcome(model_from_snapshot, doc)
                want = _load_outcome(oracle_model_from_snapshot, doc)
                if got != want or (loads is not None and (got is None) != loads):
                    mismatches.append(f"{name} seed {seed}: {got!r} != {want!r}")
    return mismatches


@pytest.mark.parametrize("name", _MUTATIONS)
def test_load_matches_the_element_by_element_oracle(name):
    assert _load_outcome(model_from_snapshot, json.loads(_inf_snapshot())) is None
    assert _mutation_mismatches([name]) == []


def _rd_in_stored_key_order(keys, col_of):
    return np.arange(len(keys)) if len(keys) == len(col_of) else None


_real_check_stored = model_module._check_stored


def _check_stored_without_origins(model, origins, stored):
    _real_check_stored(model, model.origins, stored)


@pytest.mark.parametrize("attr, fault", [
    ("_rd_columns", _rd_in_stored_key_order),
    ("_check_stored", _check_stored_without_origins),
])
def test_oracle_comparison_catches_a_broken_loader(monkeypatch, attr, fault):
    # Fault injection: rd read in the order the file stores its keys, and
    # no origin check.  Each makes some mutated snapshot load differently
    # from the oracle.
    monkeypatch.setattr(model_module, attr, fault)
    assert _mutation_mismatches()


@pytest.mark.parametrize("edit, message", [
    # p0 sits at (2.0, 2.0), so "22" was read as its features
    (lambda doc: doc["elements"][-1].update(features="22"),
     "element 'p0': features must be a list of numbers, got '22'"),
    (lambda doc: doc["elements"][0].update(features=[False, 0.0]),
     "element 'a0': features must be a list of numbers, got [False, 0.0]"),
    (lambda doc: doc["categories"]["A"].update(bmu_units=["1"]),
     "category 'A': bmu_units must be a list of integers, got ['1']"),
    (lambda doc: doc["categories"]["A"].update(bmu_units=[True]),
     "category 'A': bmu_units must be a list of integers, got [True]"),
    (lambda doc: doc["categories"]["A"].update(bmu_units=[1.0]),
     "category 'A': bmu_units must be a list of integers, got [1.0]"),
    (lambda doc: doc["categories"]["A"].update(bmu_units=[3, 3]),
     "category 'A': bmu_units must be strictly increasing and non-negative, got [3, 3]"),
    (lambda doc: doc["categories"]["A"].update(bmu_units=[-1]),
     "category 'A': bmu_units must be strictly increasing and non-negative, got [-1]"),
    (lambda doc: doc["categories"]["A"].update(bmu_units=[3, 1]),
     "category 'A': bmu_units must be strictly increasing and non-negative, got [3, 1]"),
    (lambda doc: doc.update(input_dim="2"), "input_dim must be an integer, got '2'"),
    (lambda doc: doc.update(input_dim=2.0), "input_dim must be an integer, got 2.0"),
])
def test_snapshot_json_types_are_read_strictly(edit, message):
    # Each edit denotes the saved model under float() or int(), which
    # accepted it; the loader refuses it as malformed instead.
    doc = json.loads(_small_snapshot())
    edit(doc)
    with pytest.raises(InputError) as refused:
        model_from_snapshot(doc)
    assert str(refused.value) == f"malformed model snapshot: {message}"


@pytest.mark.parametrize("dim", [2, 9, 130])
def test_files_written_before_the_feature_by_feature_kernel_load_unchanged(dim):
    """``tests/data/model_d{2,9,130}.json`` were written by commit d8a2b87,
    whose distances were numpy's own sum over the feature axis of a (rows,
    units, dim) array.  Each must load, so that no stored precision or rd
    differs from its re-derivation, and save back byte for byte.  At d = 2
    the sum runs left to right, at d = 9 through eight running sums, at
    d = 130 through the split above 128 terms.  Recipe, from the root of
    the repository:

        mkdir /tmp/parent && git archive d8a2b87 | tar -x -C /tmp/parent
        cd /tmp/parent && PYTHONPATH=src python - "$OLDPWD/tests/data" <<'EOF'
        import sys
        import numpy as np
        from somlogic import (TrainConfig, build_model, feature_range,
                              gaussian_clusters, init_map, save_model, train)
        for d, k, n, r in ((2, 3, 8, 4), (9, 3, 5, 3), (130, 2, 4, 2)):
            centres = np.random.default_rng(d).uniform(0, 20, (k, d)).tolist()
            data = gaussian_clusters(centres, [f"C{i}" for i in range(k)], n, 1.5, d)
            som, _ = train(init_map(r, r, d, 0, feature_range(data)), data,
                           TrainConfig(epochs=5))
            save_model(f"{sys.argv[1]}/model_d{d}.json", build_model(som, data))
        EOF
    """
    path = Path(__file__).parent / "data" / f"model_d{dim}.json"
    written = path.read_bytes()
    assert len(written) < 50_000
    model = load_model(path)
    assert model.input_dim == dim
    assert (canonical_dumps(model_snapshot(model)) + "\n").encode("utf-8") == written


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
        rd = rd_table(m, name)
        for eid in t.bmu_element_ids:
            assert rd[eid] == 0.0
        for eid in t.stimulus_element_ids:
            assert rd[eid] <= t.rd_max
        assert extension_ids(m, name) == frozenset(
            eid for eid, v in rd.items() if v <= t.rd_max
        )
