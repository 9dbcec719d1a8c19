"""Acceptance gate for the package.

Each test here covers one numbered acceptance criterion and prints a single
``[PASS]``/``[FAIL]`` line outside pytest's capture, so a plain ``pytest -v``
run shows the whole scorecard.  Criteria are exact unless a tolerance is
stated inline; several carry wall-clock budgets that are asserted too.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

from conftest import REF_CFG, REF_MAP
from oracles import (
    GROUP_FAULTS,
    extension_ids,
    faulty_group_build,
    make_model,
    oracle_global_prefer,
    order_matrix,
    random_model,
    rd_table,
)
from somlogic import (
    SpecificityRelation,
    TrainConfig,
    build_model,
    build_preferential,
    check_strict,
    check_typicality,
    derive_specificity,
    extract_kb,
    feature_range,
    inclusion_text,
    init_map,
    load_map,
    load_model,
    minima,
    quantization_error,
    run_trace,
    save_map,
    save_model,
    train,
    verify_klm,
)
from somlogic import preferences
from somlogic.cli import main as cli_main
from somlogic.dataset import write_csv
from somlogic.som import nearest_units

# Reference quantization errors for the seeded 3-cluster run (6x6 map, 50
# epochs, seed 0).  Recorded once from this configuration and pinned; the
# run is deterministic, so agreement is asserted to 1e-9 relative.
INITIAL_QE = 7.7279445824541906
FINAL_QE = 0.21697825316550706


@contextmanager
def criterion(capsys, num, desc):
    """Run one criterion body; always print its scorecard line."""
    info = {"detail": ""}
    try:
        yield info
    except BaseException as exc:
        with capsys.disabled():
            print(f"[FAIL] criterion {num}: {desc} ({type(exc).__name__}: {exc})")
        raise
    line = f"[PASS] criterion {num}: {desc}"
    if info["detail"]:
        line += f" ({info['detail']})"
    with capsys.disabled():
        print(line)


@pytest.fixture(scope="module")
def random_models():
    out = []
    for i in range(100):
        rng = np.random.default_rng(5000 + i)
        out.append(random_model(rng))
    return out


@pytest.fixture(scope="module")
def random_prefs(random_models):
    return [build_preferential(m, rel) for m, rel, _, _ in random_models]


def test_criterion_01_bmu_distance_zero(capsys, clusters, trained_map):
    with criterion(capsys, 1, "each stimulus's best unit has relative distance 0.0 in its own category") as c:
        t0 = time.perf_counter()
        model = build_model(trained_map, clusters)
        by_feats = {e.features: e.eid for e in model.elements}
        assert len(clusters) == 60 and clusters[0].dim == 2
        units = nearest_units(np.array([s.features for s in clusters]), trained_map.weights)[0]
        for s, unit in zip(clusters, units.tolist()):
            eid = by_feats[tuple(trained_map.weights[unit])]
            assert rd_table(model, s.label)[eid] == 0.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        c["detail"] = f"60 stimuli exact, {elapsed:.3f}s"


def test_criterion_02_bmus_are_minimal(capsys, cluster_model, random_models):
    with criterion(capsys, 2, "best-unit sets sit inside the minimal elements of their category extension") as c:
        t0 = time.perf_counter()
        models = [cluster_model] + [m for m, _, _, _ in random_models]
        n_cats = 0
        for m in models:
            for name, tbl in m.categories.items():
                members = sorted(extension_ids(m, name))
                rd = rd_table(m, name)
                minimal = {
                    y for y in members
                    if not any(rd[x] < rd[y] for x in members)
                }
                assert set(tbl.bmu_element_ids) <= minimal
                n_cats += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        c["detail"] = f"{len(models)} models, {n_cats} categories, {elapsed:.3f}s"


def test_criterion_03_reflexive_and_strict_implies_typicality(capsys, cluster_model, random_models):
    with criterion(capsys, 3, "reflexive inclusions hold and strict inclusion implies the typicality one") as c:
        models = [cluster_model] + [m for m, _, _, _ in random_models]
        pairs = 0
        for m in models:
            names = sorted(m.categories)
            for a in names:
                assert check_typicality(m, a, a).holds
                assert check_strict(m, a, a).holds
            for a in names:
                for b in names:
                    if check_strict(m, a, b).holds:
                        assert check_typicality(m, a, b).holds
                    pairs += 1
        c["detail"] = f"{len(models)} models, {pairs} ordered pairs"


def test_criterion_04_global_preference_three_routes(capsys, random_models, random_prefs):
    with criterion(capsys, 4, "materialized global preference matches an independent oracle and two-element minima") as c:
        t0 = time.perf_counter()
        rng = np.random.default_rng(4)
        n_pairs = n_sampled = 0
        for (m, rel, rd_tables, above), pref in zip(random_models, random_prefs):
            ids = m.element_ids
            for x in ids:
                for y in ids:
                    a = pref.prefers(x, y)
                    o = oracle_global_prefer(rd_tables, above, x, y)
                    assert a == o, (x, y, a, o)
                    n_pairs += 1
            # For x != y, x < y exactly when y is not minimal in {x, y}.
            n = len(ids)
            if n < 2:
                continue
            xs = rng.integers(0, n, 20)
            ys = (xs + rng.integers(1, n, 20)) % n
            for i, j in zip(xs.tolist(), ys.tolist()):
                pair = np.zeros(n, dtype=bool)
                pair[[i, j]] = True
                b = not minima(m, rel, pair)[j]
                assert pref.prefers(ids[i], ids[j]) == b, (ids[i], ids[j], b)
                n_sampled += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        c["detail"] = f"100 models, {n_pairs} pairs, {n_sampled} through minima, {elapsed:.2f}s"


@pytest.mark.parametrize("fault", [None, *GROUP_FAULTS])
def test_criterion_04_catches_a_faulty_group_build(random_models, monkeypatch, fault):
    # At a budget of 1 item each category's table is a group of its own.
    # Built so, the three routes agree; with a fault in the group build,
    # the orders built under it and its two-element minima do not.  The
    # scorecard line goes to the captured output.
    monkeypatch.setattr(preferences, "_CHUNK_ITEMS", 1)
    if fault is not None:
        faulty_group_build(monkeypatch, fault)
    prefs = [build_preferential(m, rel) for m, rel, _, _ in random_models]
    quiet = SimpleNamespace(disabled=nullcontext)
    if fault is None:
        test_criterion_04_global_preference_three_routes(quiet, random_models, prefs)
    else:
        with pytest.raises(AssertionError):
            test_criterion_04_global_preference_three_routes(quiet, random_models, prefs)


def test_criterion_05_order_axioms_exhaustive(capsys, random_models, random_prefs):
    with criterion(capsys, 5, "global preference is irreflexive and transitive under exhaustive scan") as c:
        t0 = time.perf_counter()
        for pref in random_prefs:
            order = order_matrix(pref)
            n = order.shape[0]
            for x in range(n):
                assert not order[x, x]
            for x in range(n):
                for y in range(n):
                    if not order[x, y]:
                        continue
                    for z in range(n):
                        if order[y, z]:
                            assert order[x, z]
        elapsed = time.perf_counter() - t0
        c["detail"] = f"100 models, {elapsed:.2f}s"


def test_criterion_06_postulates_zero_violations(capsys, random_prefs):
    with criterion(capsys, 6, "entailment postulates hold with zero violations on every random model") as c:
        t0 = time.perf_counter()
        required = {
            "reflexivity",
            "left_logical_equivalence",
            "right_weakening",
            "and",
            "cautious_monotonicity",
        }
        for pref in random_prefs:
            checks = {chk.check: chk for chk in verify_klm(pref)}
            assert required <= set(checks)
            for name in required:
                chk = checks[name]
                assert chk.status == "pass" and not chk.violations, (name, chk.violations)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        c["detail"] = f"100 models x {len(required)} postulates, {elapsed:.2f}s"


def test_criterion_07_specificity_resolves_conflict(capsys):
    with criterion(capsys, 7, "a more specific category overrides a conflicting less specific one") as c:
        rd = {
            "Student": {"bob": 0.4, "mary": 0.2, "bStu": 0.0, "bPhd": 0.0},
            "PhdStudent": {"bob": 0.1, "mary": 0.3, "bStu": 0.5, "bPhd": 0.0},
        }
        stim = {
            "Student": ["bob", "mary", "bStu"],
            "PhdStudent": ["bob", "mary", "bPhd"],
        }
        m = make_model(rd, stim)
        rel = derive_specificity(m)
        assert rel.pairs == {("PhdStudent", "Student")}

        pref = build_preferential(m, rel)
        assert pref.prefers("bob", "mary") is True
        assert pref.prefers("mary", "bob") is False
        assert oracle_global_prefer(rd, {"Student": {"PhdStudent"}}, "bob", "mary")

        # without the specificity override the conflict stays unresolved
        flat = build_preferential(m, SpecificityRelation(pairs=frozenset()))
        assert not flat.prefers("bob", "mary")
        assert not flat.prefers("mary", "bob")
        c["detail"] = "bob < mary exactly when PhdStudent overrides Student"


def test_criterion_08_training_reduces_quantization_error(capsys, clusters):
    with criterion(capsys, 8, "training halves the quantization error and matches the pinned reference run") as c:
        t0 = time.perf_counter()
        som0 = init_map(REF_MAP["rows"], REF_MAP["cols"], clusters[0].dim, REF_MAP["seed"], feature_range(clusters))
        qe0 = quantization_error(som0, clusters)
        _, qe_log = train(som0, clusters, REF_CFG)
        elapsed = time.perf_counter() - t0
        assert math.isclose(qe0, INITIAL_QE, rel_tol=1e-9), qe0
        assert math.isclose(qe_log[-1], FINAL_QE, rel_tol=1e-9), qe_log[-1]
        assert qe_log[-1] <= 0.5 * qe0
        assert elapsed < 10.0
        c["detail"] = f"QE {qe0:.6g} -> {qe_log[-1]:.6g}, rel tol 1e-9, {elapsed:.2f}s"


def test_criterion_09_revision_trace_coherent(capsys, clusters):
    with criterion(capsys, 9, "stepwise revision starts from empty categories and lands on the batch result") as c:
        t0 = time.perf_counter()
        cfg = TrainConfig(epochs=5, lr_start=0.7, lr_end=0.05, radius_start=3.0, radius_end=0.5, seed=0)
        state, steps = run_trace(clusters, cfg, REF_MAP["rows"], REF_MAP["cols"])

        texts0 = {inclusion_text(i) for i in steps[0].kb_before}
        cats = sorted({s.label for s in clusters})
        assert texts0 == {f"{cat} <= Bot" for cat in cats}

        for cat in cats:
            first = next(s for s in steps if s.stimulus.label == cat)
            assert f"{cat} <= Bot" in {inclusion_text(i) for i in first.kb_before}
            assert f"{cat} <= Bot" not in {inclusion_text(i) for i in first.kb_after}

        som0 = init_map(REF_MAP["rows"], REF_MAP["cols"], clusters[0].dim, cfg.seed, feature_range(clusters))
        batch, _ = train(som0, clusters, cfg)
        assert np.array_equal(state.som.weights, batch.weights)
        assert steps[-1].kb_after == extract_kb(build_model(batch, clusters)).kb
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        c["detail"] = f"{len(steps)} steps, {elapsed:.2f}s"


MAP_SCHEMA = {
    "type": "object",
    "required": ["rows", "cols", "input_dim", "seed", "epochs_trained", "units"],
    "additionalProperties": False,
    "properties": {
        "rows": {"type": "integer", "minimum": 1},
        "cols": {"type": "integer", "minimum": 1},
        "input_dim": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "epochs_trained": {"type": "integer", "minimum": 0},
        "units": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["index", "row", "col", "weights"],
                "additionalProperties": False,
                "properties": {
                    "index": {"type": "integer", "minimum": 0},
                    "row": {"type": "integer", "minimum": 0},
                    "col": {"type": "integer", "minimum": 0},
                    "weights": {"type": "array", "items": {"type": "number"}},
                },
            },
        },
    },
}

MODEL_SCHEMA = {
    "type": "object",
    "required": ["input_dim", "elements", "features", "categories"],
    "additionalProperties": False,
    "properties": {
        "input_dim": {"type": "integer", "minimum": 1},
        "elements": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id"],
                "additionalProperties": False,
                "properties": {"id": {"type": "string"}},
            },
        },
        # input_dim numbers per element, row-major in domain order
        "features": {"type": "array", "items": {"type": "number"}},
        "categories": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["bmu_units", "bmu_elements", "stimulus_elements", "rd", "rd_max"],
                "additionalProperties": False,
                "properties": {
                    "bmu_units": {"type": "array", "items": {"type": "integer"}},
                    "bmu_elements": {"type": "array", "items": {"type": "string"}},
                    "stimulus_elements": {"type": "array", "items": {"type": "string"}},
                    "rd_max": {"anyOf": [{"type": "number"}, {"const": "inf"}]},
                    "rd": {
                        "type": "object",
                        "additionalProperties": {
                            "anyOf": [{"type": "number"}, {"const": "inf"}]
                        },
                    },
                },
            },
        },
    },
}

SPECIFICITY_SCHEMA = {
    "type": "object",
    "required": ["pairs"],
    "additionalProperties": False,
    "properties": {
        "pairs": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "string"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
}


def test_criterion_10_cli_determinism_and_round_trip(capsys, clusters, tmp_path):
    with criterion(capsys, 10, "the pipeline is byte-deterministic and its JSON artifacts are schema-valid") as c:
        data_csv = tmp_path / "clusters.csv"
        write_csv(str(data_csv), clusters)
        args = ["--rows", "6", "--cols", "6", "--epochs", "5", "--seed", "0"]
        for run in ("one", "two"):
            out = tmp_path / run
            assert cli_main(["train", "--data", str(data_csv), "--out", str(out)] + args) == 0
            assert cli_main([
                "extract", "--map", str(out / "map.json"),
                "--data", str(data_csv), "--out", str(out),
            ]) == 0
            assert cli_main(["verify", "--model", str(out / "model.json")]) == 0
            assert cli_main(["trace", "--data", str(data_csv), "--out", str(out / "trace")] + args) == 0
        capsys.readouterr()

        one, two = tmp_path / "one", tmp_path / "two"
        for name in ("map.json", "model.json", "specificity.json", "kb.txt", "qe_log.csv",
                     "trace/trace.jsonl", "trace/map.json", "trace/model.json", "trace/kb.txt"):
            assert (one / name).read_bytes() == (two / name).read_bytes(), name

        map_doc = json.loads((one / "map.json").read_text())
        jsonschema.validate(map_doc, MAP_SCHEMA)
        model_doc = json.loads((one / "model.json").read_text())
        jsonschema.validate(model_doc, MODEL_SCHEMA)
        spec_doc = json.loads((one / "specificity.json").read_text())
        jsonschema.validate(spec_doc, SPECIFICITY_SCHEMA)

        # lossless re-read: load then save reproduces the bytes exactly
        save_map(str(tmp_path / "map2.json"), load_map(str(one / "map.json")))
        assert (tmp_path / "map2.json").read_bytes() == (one / "map.json").read_bytes()
        save_model(str(tmp_path / "model2.json"), load_model(str(one / "model.json")))
        assert (tmp_path / "model2.json").read_bytes() == (one / "model.json").read_bytes()
        c["detail"] = "two seeded runs and traces byte-identical, 3 schemas valid, snapshots lossless"
