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
    gaussian_clusters,
    init_map,
    load_model,
    save_model,
    train,
)
from somlogic import model as model_module
from somlogic.jsonio import canonical_dumps
from somlogic.model import SemanticModel, model_from_snapshot, model_snapshot
from somlogic.som import nearest_units

from oracles import dist, extension_ids, old_format, oracle_model_from_snapshot, oracle_rd, rd_table


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


# ==============================================================
# Element ids
# ==============================================================


def _one_unit_map():
    return SomMap(rows=1, cols=1, input_dim=2, seed=0, weights=np.array([[0.5, 0.5]]))


def test_a_stimulus_named_like_a_unit_primes_the_unit(tmp_path):
    m = build_model(_one_unit_map(), [Stimulus("u0", (0.0, 0.0), "A")])
    assert m.element_ids == ("u0", "u0'")
    assert m.origins == ("stimulus", "bmu")
    assert m.categories["A"].bmu_element_ids == ("u0'",)
    save_model(tmp_path / "model.json", m)
    assert model_snapshot(load_model(tmp_path / "model.json")) == model_snapshot(m)


def test_primes_go_on_until_the_id_is_free():
    data = [Stimulus("u0'", (0.0, 0.0), "A"), Stimulus("u0", (1.0, 0.0), "A")]
    m = build_model(_one_unit_map(), data)
    assert m.element_ids == ("u0'", "u0", "u0''")


def test_a_stimulus_named_like_a_probe_primes_the_probe():
    m = build_model(_one_unit_map(), [Stimulus("p0", (0.0, 0.0), "A")], probes=[(3.0, 3.0)])
    assert m.element_ids == ("p0", "u0", "p0'")
    assert m.origins[m.col_of["p0'"]] == "probe"


def test_a_label_that_spells_unit_ids_builds():
    # Label u1 names its stimuli u100, u101, ..., the ids of units 100 and
    # up on an 11 x 11 map.
    data = gaussian_clusters([(0.0, 0.0), (5.0, 5.0)], ["u1", "A"], 60, 1.0, 3)
    som, _ = train(init_map(11, 11, 2, 0, feature_range(data)), data, TrainConfig(epochs=3, seed=0))
    m = build_model(som, data)
    assert len(set(m.element_ids)) == len(m.element_ids)
    sids = {s.sid for s in data}
    for name, table in m.categories.items():
        for u, eid in zip(table.bmu_units, table.bmu_element_ids):
            if m.origins[m.col_of[eid]] == "bmu":
                assert eid == f"u{u}" + "'" * (f"u{u}" in sids)
    assert any(eid.endswith("'") for eid in m.element_ids)


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
        build_model(trained_map, (), categories=["A", "not a name"])


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
    m = SemanticModel(ids, col_of, np.zeros((3, 2)), refs, precision, np.array(rd))
    cells = (model_module._cells(refs, col_of, 1), model_module._cells(refs, col_of, 2))
    if message is None:
        model_module._check_tables(m, *cells)
    else:
        with pytest.raises(ConsistencyError, match=message):
            model_module._check_tables(m, *cells)


def test_initial_model_is_empty(trained_map):
    m = build_model(trained_map, (), categories=["A", "B"])
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
    doc["extensions"] = {"A": ["ghost"]}
    with pytest.raises(InputError, match="top-level 'extensions' key"):
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


def test_rd_table_must_be_an_object(trained_map, clusters):
    # An rd table as a list of [id, value] pairs, or an empty category's as
    # an empty list, would read as the same mapping, but saving the model
    # would write a different file.
    built = build_model(trained_map, clusters, categories=["A", "B", "C", "Z"])
    for name, form in (("A", lambda rd: [list(item) for item in rd.items()]), ("Z", list)):
        doc = model_snapshot(built)
        doc["categories"][name]["rd"] = form(doc["categories"][name]["rd"])
        with pytest.raises(InputError, match=f"malformed model snapshot: category '{name}': "
                                             f"rd must be an object of element ids, got list"):
            model_from_snapshot(doc)


@pytest.mark.parametrize("name", ["Top", "1x", "a b"])
def test_loaded_category_names_are_checked_as_built(name):
    # A label build_model refuses is refused on load with the same message.
    with pytest.raises(InputError) as built:
        build_model(_pinned_map(), [Stimulus("s1", (0.0, 0.0), name)])
    doc = json.loads(_small_snapshot())
    doc["categories"][name] = doc["categories"].pop("A")
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
    cat = doc["categories"][name]
    # rd and rd_max are the only derived values a snapshot stores.
    if data.draw(st.booleans()):
        table, key = cat["rd"], data.draw(st.sampled_from(sorted(cat["rd"])))
    else:
        table, key = cat, "rd_max"
    old = float(table[key])  # the snapshot writes an infinite rd as "inf"
    table[key] = data.draw(st.floats().filter(lambda v: not v == old))
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
    cat, _ = _some_rd(old_format(doc), rng)
    cat["precision"] = cat["precision"] * 2 + rng.choice([0.5, 1e-9])


def _mutate_rd_max(doc, rng):
    cat, _ = _some_rd(doc, rng)
    cat["rd_max"] = rng.choice([0.5, 2.0, None])


def _mutate_origin(doc, rng):
    element = rng.choice(old_format(doc)["elements"])
    element["origin"] = rng.choice(sorted({"stimulus", "bmu", "probe"} - {element["origin"]}))


def _some_extension(doc, rng) -> list:
    extensions = old_format(doc)["extensions"]
    return extensions[rng.choice(sorted(extensions))]


def _mutate_extension_add(doc, rng):
    name = rng.choice(sorted(old_format(doc)["extensions"]))
    ext = doc["extensions"][name]
    ext.append(rng.choice(sorted({e["id"] for e in doc["elements"]} - set(ext)) + ["ghost"]))


def _mutate_extension_drop(doc, rng):
    ext = _some_extension(doc, rng)
    ext.remove(rng.choice(ext))


def _mutate_extension_duplicate(doc, rng):
    ext = _some_extension(doc, rng)
    ext.insert(rng.randrange(len(ext) + 1), rng.choice(ext))


def _mutate_extension_integer(doc, rng):
    ext = _some_extension(doc, rng)
    ext[rng.randrange(len(ext))] = rng.choice([0, 7])


def _mutate_extension_object(doc, rng):
    name = rng.choice(sorted(old_format(doc)["extensions"]))
    doc["extensions"][name] = dict.fromkeys(doc["extensions"][name])


def _mutate_feature(doc, rng):
    features = rng.choice(doc["elements"])["features"]
    k = rng.randrange(len(features))
    features[k] += rng.choice([1e-12, 0.01, -0.5, 3.0])


# Each mutation of a saved snapshot, with whether the loader must accept
# it (None: either way).  An rd table is a mapping, so its key order
# changes nothing.  The precision, origin and extension mutations edit the
# values that the older format stored as well (``old_format``), so each is
# a file in that format, which is refused whatever it holds.
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
    "extension-duplicate": (_mutate_extension_duplicate, False),
    "extension-integer": (_mutate_extension_integer, False),
    "extension-object": (_mutate_extension_object, False),
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


def _check_stored_without_rd_max(model, stored):
    _real_check_stored(model, {name: (model.categories[name].rd_max, rd)
                               for name, (_, rd) in stored.items()})


@pytest.mark.parametrize("attr, fault", [
    ("_rd_columns", _rd_in_stored_key_order),
    ("_check_stored", _check_stored_without_rd_max),
])
def test_oracle_comparison_catches_a_broken_loader(monkeypatch, attr, fault):
    # Fault injection: rd read in the order the file stores its keys, and
    # no rd_max check.  Each makes some mutated snapshot load differently
    # from the oracle.
    monkeypatch.setattr(model_module, attr, fault)
    assert _mutation_mismatches()


def _renamed(doc, old: str, new: str) -> None:
    """Rename element ``old`` to ``new`` wherever ``doc`` names it."""
    renamed = json.loads(json.dumps(doc).replace(json.dumps(old), json.dumps(new)))
    doc.clear()
    doc.update(renamed)


def _integer_id(doc, old: str, place) -> None:
    """Rename element ``old`` to "7" throughout ``doc``, then write the
    integer 7 at ``place(doc)``, the (container, key) where it stands: a
    file that ``str()`` read as the model."""
    _renamed(doc, old, "7")
    container, key = place(doc)
    container[key] = 7


@pytest.mark.parametrize("edit, message", [
    # An element id that is not a non-empty string, or a reference to one;
    # each loaded, and saving the model wrote "7" back for 7.
    (lambda doc: _integer_id(doc, "p0", lambda d: (d["elements"][-1], "id")),
     "element ids must be non-empty strings, got 7"),
    (lambda doc: _renamed(doc, "p0", ""), "element ids must be non-empty strings, got ''"),
    (lambda doc: _integer_id(doc, "a0", lambda d: (d["categories"]["A"]["stimulus_elements"], 0)),
     "category 'A': stimulus_elements must be a list of element ids, "
     "got [7, 'a1', 'a2', 'a3', 'a4']"),
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


@pytest.mark.parametrize("field", ["bmu_elements", "stimulus_elements"])
def test_snapshot_listing_an_element_twice_is_refused(field):
    # build_model lists each element once; a repeat used to load and show up
    # twice in the witnesses of a failed check.
    doc = json.loads(_small_snapshot())
    listed = doc["categories"]["B"][field]
    listed.insert(1, listed[0])
    with pytest.raises(InputError) as refused:
        model_from_snapshot(doc)
    assert str(refused.value) == f"category 'B' lists element {listed[0]!r} twice in {field}"


_OLD_FORMAT = ("model snapshot has a top-level 'extensions' key, which only an older "
               "extract wrote; run extract again")


def test_snapshot_with_the_extension_of_an_unlisted_category_is_refused():
    # Snapshots store no extensions, so a file with an extensions table is
    # one in the older format, whichever categories the table names.
    doc = old_format(json.loads(_small_snapshot()))
    doc["extensions"]["Z"] = []
    with pytest.raises(InputError) as refused:
        model_from_snapshot(doc)
    assert str(refused.value) == _OLD_FORMAT


@pytest.mark.parametrize("extensions", ["tables", {}, [], None, "malformed"])
def test_snapshot_in_the_older_format_is_refused(tmp_path, extensions):
    # Whatever the key holds, and whatever else the file holds, it names
    # the key and how to get a current file.
    doc = old_format(json.loads(_small_snapshot()))
    if extensions != "tables":
        doc["extensions"] = extensions
    if extensions == "malformed":
        del doc["input_dim"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError) as refused:
        load_model(path)
    assert str(refused.value) == _OLD_FORMAT


def test_snapshot_keys_the_loader_does_not_read_are_ignored():
    # An origin, a precision and any other key that is not a top-level
    # "extensions" are not read; the model loads as it was saved.
    saved = json.loads(_small_snapshot())
    doc = old_format(json.loads(_small_snapshot()))
    del doc["extensions"]
    doc["comment"] = "written by hand"
    assert model_snapshot(model_from_snapshot(doc)) == saved


@pytest.mark.parametrize("dim", [2, 9, 130])
def test_files_written_before_the_feature_by_feature_kernel_load_unchanged(dim):
    """``tests/data/model_d{2,9,130}.json`` were written by commit d8a2b87,
    whose distances were numpy's own sum over the feature axis of a (rows,
    units, dim) array.  Each must load, so that no stored rd or rd_max
    differs from its re-derivation, and save back byte for byte.  At d = 2
    the sum runs left to right, at d = 9 through eight running sums, at
    d = 130 through the split above 128 terms.  Recipe, from the root of
    the repository, first writing the files in the format of the time:

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

    then deleting from each the values that the format has since dropped,
    which keeps every rd and rd_max byte as d8a2b87 wrote it:

        cd "$OLDPWD" && PYTHONPATH=src python - <<'EOF'
        import json
        from somlogic.jsonio import dump_file
        for d in (2, 9, 130):
            path = f"tests/data/model_d{d}.json"
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            del doc["extensions"]
            for element in doc["elements"]:
                del element["origin"]
            for category in doc["categories"].values():
                del category["precision"]
            dump_file(path, doc)
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
