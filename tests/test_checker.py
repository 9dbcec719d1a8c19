import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from somlogic import (
    Bot,
    InputError,
    Name,
    SomMap,
    SpecificityCycleError,
    Stimulus,
    build_model,
    check_strict,
    check_typicality,
    derive_specificity,
    extract_kb,
    kb_file_text,
)
from somlogic import checker
from somlogic.checker import (
    SpecificityRelation,
    kb_inclusions,
    specificity_to_json,
)
from somlogic.concepts import Inclusion, inclusion_text

from oracles import (
    faulty_inclusion_table,
    make_model,
    oracle_kb_inclusions,
    parse_kb_text,
    random_model,
    rd_bmu_set,
    rd_table,
)


# ==============================================================
# Pairwise checks on the trained reference model
# ==============================================================


def _random_models():
    """The 30 seeded random models that the pairwise comparisons run on."""
    return [random_model(np.random.default_rng([11, s]))[0] for s in range(30)]


def _bmu_maxima_mismatches(models) -> list[tuple[int, str, str]]:
    """The ordered pairs (model, Ci, Cj) of categories with stimuli whose
    largest rd in Cj of Ci's BMU elements, taken one element at a time
    (``rd_bmu_set``), differs from the plausibility of ``T(Ci) <= Cj`` or
    from the entry of the table that ``extract_kb`` reads."""
    out = []
    for n, m in enumerate(models):
        names = m.category_names
        val = checker._rule_inputs(m, names)[0]
        live = [i for i, c in enumerate(names) if not m.categories[c].empty]
        for i in live:
            for j in live:
                want = rd_bmu_set(m, names[i], names[j])
                if (check_typicality(m, names[i], names[j]).plausibility, val[i, j]) != (want, want):
                    out.append((n, names[i], names[j]))
    return out


def test_rd_bmu_set_is_max_over_bmu_elements(cluster_model):
    assert _bmu_maxima_mismatches([cluster_model, *_random_models()]) == []


def test_bmu_maxima_comparison_catches_a_transposed_table(cluster_model, monkeypatch):
    # Both a check and extract_kb read the one table; read transposed, it
    # gives Cj's maxima in Ci.
    rule_inputs = checker._rule_inputs

    def transposed(model, cats):
        val, rd_max, empty = rule_inputs(model, cats)
        return val.T, rd_max, empty

    monkeypatch.setattr(checker, "_rule_inputs", transposed)
    assert _bmu_maxima_mismatches([cluster_model, *_random_models()])


def test_reflexive_checks_hold(cluster_model):
    for c in cluster_model.category_names:
        t = check_typicality(cluster_model, c, c)
        assert t.holds and t.plausibility == 0.0
        s = check_strict(cluster_model, c, c)
        assert s.holds and s.set_holds


def test_strict_implies_typicality(cluster_model):
    m = cluster_model
    for ci in m.category_names:
        for cj in m.category_names:
            if check_strict(m, ci, cj).holds:
                assert check_typicality(m, ci, cj).holds


def test_separated_clusters_do_not_include(cluster_model):
    for ci in "ABC":
        for cj in "ABC":
            if ci == cj:
                continue
            assert not check_typicality(cluster_model, ci, cj).holds
            r = check_strict(cluster_model, ci, cj)
            assert not r.holds
            assert r.witnesses  # some BMU element sits too far out


def test_failing_check_reports_witnesses(cluster_model):
    r = check_typicality(cluster_model, "A", "B")
    rd_max = cluster_model.categories["B"].rd_max
    for eid in r.witnesses:
        assert rd_table(cluster_model, "B")[eid] > rd_max


def test_empty_category_raises(trained_map, clusters):
    m = build_model(trained_map, clusters, categories=["A", "B", "C", "Z"])
    with pytest.raises(InputError, match="'Z' has no stimuli; no BMU elements to measure"):
        check_typicality(m, "Z", "A")
    with pytest.raises(InputError, match="'Z' has no stimuli; relative distance is undefined"):
        check_typicality(m, "A", "Z")
    with pytest.raises(InputError, match="'Z' has no stimuli; no BMU elements to measure"):
        check_strict(m, "Z", "A")


# ==============================================================
# A nested geometry where strict inclusion holds
# ==============================================================


def _nested_model():
    # Two units; the general category's stimuli straddle them at distance
    # 0.5, the specific category's stimuli sit exactly on them.
    w = np.array([[0.0, 0.0], [2.0, 0.0]])
    som = SomMap(rows=1, cols=2, input_dim=2, seed=0, weights=w)
    data = [
        Stimulus("g1", (0.5, 0.0), "Gen"),
        Stimulus("g2", (1.5, 0.0), "Gen"),
        Stimulus("s1", (0.0, 0.0), "Spec"),
        Stimulus("s2", (2.0, 0.0), "Spec"),
    ]
    return build_model(som, data)


def test_nested_strict_inclusion_holds():
    m = _nested_model()
    assert m.categories["Gen"].precision == 0.5
    assert m.categories["Gen"].rd_max == 1.0
    assert m.categories["Spec"].precision == 0.0
    assert m.categories["Spec"].rd_max == 0.0

    r = check_strict(m, "Spec", "Gen")
    assert r.holds
    assert r.set_holds
    assert check_typicality(m, "Spec", "Gen").holds

    back = check_strict(m, "Gen", "Spec")
    assert not back.holds
    assert not back.set_holds
    # the degenerate category marks off-ensemble points as infinitely far
    assert rd_table(m, "Spec")["g1"] == math.inf


def test_nested_specificity_derived():
    rel = derive_specificity(_nested_model())
    assert rel.pairs == {("Spec", "Gen")}
    assert ("Spec", "Gen") in rel.pairs
    assert ("Gen", "Spec") not in rel.pairs
    assert rel.above("Gen") == {"Spec"}
    assert rel.above("Spec") == frozenset()


# ==============================================================
# KB extraction
# ==============================================================


def test_extract_kb_agrees_with_pairwise_checks(cluster_model, trained_map, clusters):
    # extract_kb reads the criteria matrices; check_typicality and
    # check_strict test one pair at a time.  They must agree on every pair
    # of categories with stimuli, and an empty category adds only Ci <= Bot.
    models = [
        cluster_model,
        build_model(trained_map, clusters, categories=["A", "B", "C", "Z"]),
        build_model(trained_map, (), categories=["A", "B"]),
        *_random_models(),
    ]
    for m in models:
        ex = extract_kb(m)
        empty = [c for c in m.category_names if m.categories[c].empty]
        live = [c for c in m.category_names if c not in empty]
        holding, ranked = set(), []
        for ci in live:
            for cj in live:
                for r in (check_typicality(m, ci, cj), check_strict(m, ci, cj)):
                    if r.holds:
                        holding.add(r.inclusion)
                        if r.inclusion.kind == "defeasible":
                            ranked.append((r.inclusion, r.plausibility))
        assert ex.kb == holding | {Inclusion("strict", Name(c), Bot()) for c in empty}
        ranked.sort(key=lambda pair: (pair[1], inclusion_text(pair[0])))
        assert list(ex.ranked_defeasible) == ranked


def test_extract_kb_contents(cluster_model):
    ex = extract_kb(cluster_model)
    got = {inclusion_text(i) for i in ex.kb}
    assert got == {
        "A <= A", "B <= B", "C <= C",
        "T(A) <= A", "T(B) <= B", "T(C) <= C",
    }
    # ranked defeasible: all plausibility 0 here, sorted by text
    assert [p for _, p in ex.ranked_defeasible] == [0.0, 0.0, 0.0]


def test_extract_with_empty_category(trained_map, clusters):
    m = build_model(trained_map, clusters, categories=["A", "B", "C", "Z"])
    ex = extract_kb(m)
    # no pair touching Z holds, of either kind or direction, diagonal included
    assert {i for i in ex.kb if "Z" in inclusion_text(i)} == {Inclusion("strict", Name("Z"), Bot())}


def test_initial_model_kb(trained_map):
    m = build_model(trained_map, (), categories=["A", "B"])
    ex = extract_kb(m)
    assert {inclusion_text(i) for i in ex.kb} == {"A <= Bot", "B <= Bot"}
    assert ex.ranked_defeasible == ()


# ==============================================================
# The inclusion table
# ==============================================================


@st.composite
def rule_outcomes(draw):
    """Category names and what ``kb_criteria`` could say of them: a boolean
    k x k matrix per kind and an empty mask, drawn independently."""
    k = draw(st.integers(1, 8))
    names = draw(st.lists(st.from_regex(r"[A-Z][a-z0-9]{0,3}", fullmatch=True),
                          min_size=k, max_size=k, unique=True))
    bits = st.lists(st.booleans(), min_size=k * k, max_size=k * k)
    criteria = {kind: np.array(draw(bits), dtype=bool).reshape(k, k)
                for kind in ("defeasible", "strict")}
    empty = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)), dtype=bool)
    return names, criteria, empty


def _outcome(names, defeasible, strict, empty):
    return (names, {"defeasible": np.array(defeasible, dtype=bool),
                    "strict": np.array(strict, dtype=bool)}, np.array(empty, dtype=bool))


@given(rule_outcomes())
# every category empty, and none: T(A) <= B holds without T(B) <= A or A <= B
@example(_outcome(["A", "B", "C"], np.zeros((3, 3)), np.zeros((3, 3)), [True] * 3))
@example(_outcome(["A", "B"], [[1, 1], [0, 1]], [[1, 0], [0, 1]], [False, False]))
def test_picked_kb_equals_structural_construction(case):
    names, criteria, empty = case
    table = checker.inclusion_table(names)
    assert len(table) == len(names) + 2 * len(names) ** 2
    assert kb_inclusions(table, criteria, empty) == oracle_kb_inclusions(names, criteria, empty)


@pytest.mark.parametrize("fault", ["transposed", "kinds-swapped"])
def test_table_comparison_catches_a_faulty_table(monkeypatch, fault):
    table = checker.inclusion_table
    monkeypatch.setattr(checker, "inclusion_table",
                        lambda names: faulty_inclusion_table(table(names), len(names), fault))
    with pytest.raises(AssertionError):
        test_picked_kb_equals_structural_construction()


def test_kb_file_text_reparses(cluster_model):
    ex = extract_kb(cluster_model)
    text = kb_file_text(ex)
    assert set(parse_kb_text(text)) == set(ex.kb)
    assert "degree=" in text


def test_nested_kb_has_cross_inclusions():
    ex = extract_kb(_nested_model())
    got = {inclusion_text(i) for i in ex.kb}
    assert "Spec <= Gen" in got
    assert "T(Spec) <= Gen" in got
    assert "Gen <= Spec" not in got


# ==============================================================
# Specificity: cycles, closure, serialisation
# ==============================================================


def _cyclic_model():
    # Hand-crafted tables whose BMU sets are strict subsets of the rd-zero
    # sets; the margin checks then produce A > B > C > A.  (A map-built
    # model cannot reach this state: there rd = 0 means feature equality
    # with an ensemble element.)
    rd = {
        "A": {"x": 0.0, "y": 0.5, "z": 0.0, "sA": 1.0, "sB": 1.0, "sC": 1.0},
        "B": {"x": 0.0, "y": 0.0, "z": 0.5, "sA": 1.0, "sB": 1.0, "sC": 1.0},
        "C": {"x": 0.5, "y": 0.0, "z": 0.0, "sA": 1.0, "sB": 1.0, "sC": 1.0},
    }
    stim = {"A": ["x", "sA"], "B": ["y", "sB"], "C": ["z", "sC"]}
    bmu = {"A": ("x",), "B": ("y",), "C": ("z",)}
    return make_model(rd, stim, bmu_elements=bmu)


def test_specificity_cycle_detected():
    m = _cyclic_model()
    with pytest.raises(SpecificityCycleError) as exc:
        derive_specificity(m)
    cycle = exc.value.cycle
    assert set(cycle) == {"A", "B", "C"}
    assert " > " in str(exc.value)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert check_strict(m, a, b).holds and not check_strict(m, b, a).holds


def test_specificity_transitive_closure():
    rd = {
        "D": {"d": 0.0, "e": 0.5, "f": 0.5, "sD": 1.0, "sE": 1.0, "sF": 1.0},
        "E": {"d": 0.0, "e": 0.0, "f": 0.5, "sD": 1.0, "sE": 1.0, "sF": 1.0},
        "F": {"d": 0.3, "e": 0.0, "f": 0.0, "sD": 1.0, "sE": 1.0, "sF": 1.0},
    }
    stim = {"D": ["d", "sD"], "E": ["e", "sE"], "F": ["f", "sF"]}
    bmu = {"D": ("d",), "E": ("e",), "F": ("f",)}
    m = make_model(rd, stim, bmu_elements=bmu)
    # direct margins give D>E and E>F but not D>F (rd_F(d) = 0.3 > 0)
    assert check_strict(m, "D", "F").holds is False
    rel = derive_specificity(m)
    assert rel.pairs == {("D", "E"), ("E", "F"), ("D", "F")}


def test_specificity_serialisation_round_trip():
    rel = SpecificityRelation(pairs=frozenset({("A", "B"), ("A", "C")}))
    doc = specificity_to_json(rel)
    assert doc == {"pairs": [["A", "B"], ["A", "C"]]}


def test_specificity_rejects_self_pair():
    with pytest.raises(SpecificityCycleError):
        SpecificityRelation(pairs=frozenset({("A", "A")}))
