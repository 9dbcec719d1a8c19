import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somlogic import (
    And,
    Bot,
    ConsistencyError,
    InputError,
    Name,
    Top,
    build_preferential,
    derive_specificity,
    entails,
    extension,
    global_prefer,
    minimal_elements,
    typicality_extension,
    verify_klm,
    verify_order_axioms,
)
from somlogic.checker import SpecificityRelation
from somlogic.preferences import PreferentialModel, default_concept_pool

from oracles import make_model, oracle_global_prefer, oracle_minimal, random_model


# ==============================================================
# The combination rule, three routes compared
# ==============================================================


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_matrix_equals_direct_equals_oracle(seed):
    rng = np.random.default_rng(seed)
    model, rel, rd_tables, above = random_model(rng, max_elements=14, max_categories=4)
    pref = build_preferential(model, rel)
    ids = model.element_ids
    for x in ids:
        for y in ids:
            want = oracle_global_prefer(rd_tables, above, x, y)
            assert pref.prefers(x, y) == want
            assert global_prefer(model, rel, x, y) == want


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_order_axioms_on_random_models(seed):
    rng = np.random.default_rng(seed)
    model, rel, _, _ = random_model(rng, max_elements=14, max_categories=4)
    pref = build_preferential(model, rel)
    checks = {c.check: c for c in verify_order_axioms(pref)}
    assert checks["irreflexivity"].status == "pass"
    assert checks["transitivity"].status == "pass"
    assert checks["well_foundedness"].status == "pass"


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_minimal_elements_against_oracle(seed):
    rng = np.random.default_rng(seed)
    model, rel, _, _ = random_model(rng, max_elements=12, max_categories=3)
    pref = build_preferential(model, rel)
    ids = list(model.element_ids)
    for _ in range(5):
        size = int(rng.integers(1, len(ids) + 1))
        subset = list(rng.choice(ids, size=size, replace=False))
        want = oracle_minimal(pref.prefers, subset)
        got = minimal_elements(pref, subset)
        assert got == want
        assert got  # well-founded: every non-empty subset has minima


# ==============================================================
# Specificity overriding: the two-category conflict
# ==============================================================


def _conflict_model():
    # Students are typically not PhD students; PhD students are typically
    # students.  bob is the more typical PhD student, mary the more typical
    # plain student; specificity lets the PhD ranking win for bob vs mary.
    rd = {
        "Student": {
            "bob": 0.4, "mary": 0.2, "bStu": 0.0, "bPhd": 0.0, "edgeS": 1.0, "edgeP": 1.0,
        },
        "PhdStudent": {
            "bob": 0.1, "mary": 0.3, "bStu": 0.5, "bPhd": 0.0, "edgeS": 1.0, "edgeP": 1.0,
        },
    }
    stim = {
        "Student": ["bStu", "edgeS"],
        "PhdStudent": ["bPhd", "edgeP"],
    }
    bmu = {"Student": ("bStu", "bPhd"), "PhdStudent": ("bPhd",)}
    return make_model(rd, stim, bmu_elements=bmu)


def test_conflict_specificity_derivation():
    m = _conflict_model()
    rel = derive_specificity(m)
    assert rel.pairs == {("PhdStudent", "Student")}


def test_conflict_resolved_by_specificity():
    m = _conflict_model()
    rel = derive_specificity(m)
    pref = build_preferential(m, rel)
    # per-category orders disagree on bob vs mary
    assert m.categories["Student"].rd["mary"] < m.categories["Student"].rd["bob"]
    assert m.categories["PhdStudent"].rd["bob"] < m.categories["PhdStudent"].rd["mary"]
    # globally the more specific category wins
    assert pref.prefers("bob", "mary")
    assert not pref.prefers("mary", "bob")


def test_conflict_unresolved_without_specificity():
    m = _conflict_model()
    pref = build_preferential(m, SpecificityRelation(pairs=frozenset()))
    assert not pref.prefers("bob", "mary")
    assert not pref.prefers("mary", "bob")


# ==============================================================
# Typicality of complex concepts
# ==============================================================


def test_typicality_extension_on_trained_model(cluster_pref):
    m = cluster_pref.base
    for c in m.category_names:
        ext = extension(m, Name(c))
        typ = typicality_extension(cluster_pref, Name(c))
        assert typ == oracle_minimal(cluster_pref.prefers, ext)
        assert typ and typ <= ext
        # globally minimal elements of ext(c) are most typical for c itself:
        # anything at positive rd is beaten by a BMU element unless another
        # category intervenes, and the global winners always include some
        # rd-0 element
        zero = {eid for eid, v in m.categories[c].rd.items() if v == 0.0}
        assert typ & zero
    assert typicality_extension(cluster_pref, Bot()) == frozenset()
    top_typ = typicality_extension(cluster_pref, Top())
    assert top_typ
    assert top_typ <= frozenset(m.element_ids)


def test_typicality_of_conjunction(cluster_pref):
    m = cluster_pref.base
    expr = And(Name("A"), Name("B"))
    typ = typicality_extension(cluster_pref, expr)
    assert typ <= extension(m, expr)
    got = minimal_elements(cluster_pref, extension(m, expr))
    assert typ == got


def test_entails_routes(cluster_pref):
    assert entails(cluster_pref, "defeasible", Name("A"), Name("A"))
    assert entails(cluster_pref, "strict", Bot(), Name("A"))
    assert not entails(cluster_pref, "strict", Top(), Name("A"))
    with pytest.raises(InputError):
        entails(cluster_pref, "maybe", Name("A"), Name("A"))


def test_unknown_element_in_queries(cluster_pref):
    with pytest.raises(InputError):
        cluster_pref.prefers("ghost", cluster_pref.element_ids[0])
    with pytest.raises(InputError):
        minimal_elements(cluster_pref, ["ghost"])


# ==============================================================
# Verification reports
# ==============================================================


def test_modularity_failure_is_informational():
    # a < b, while z is unordered against both: not modular, still a
    # perfectly good preferential model
    rd = {
        "K1": {"a": 0.0, "b": 0.4, "z": 0.5, "s1": 1.0, "s2": 2.0},
        "K2": {"a": 0.5, "b": 0.5, "z": 0.0, "s1": 2.0, "s2": 1.0},
    }
    stim = {"K1": ["a", "s1"], "K2": ["z", "s2"]}
    m = make_model(rd, stim)
    pref = build_preferential(m, SpecificityRelation(pairs=frozenset()))
    assert pref.prefers("a", "b")
    assert not pref.prefers("a", "z") and not pref.prefers("z", "a")
    assert not pref.prefers("b", "z") and not pref.prefers("z", "b")

    checks = {c.check: c for c in verify_order_axioms(pref)}
    assert checks["modularity"].status == "fail"
    assert checks["modularity"].required is False
    assert checks["modularity"].violations
    assert checks["irreflexivity"].status == "pass"
    assert checks["transitivity"].status == "pass"

    klm = {c.check: c for c in verify_klm(pref)}
    assert all(c.status == "pass" for c in klm.values())


def test_modularity_passes_on_single_category():
    rd = {"K": {"a": 0.0, "b": 0.5, "c": 1.0}}
    stim = {"K": ["a", "c"]}
    pref = build_preferential(make_model(rd, stim), SpecificityRelation(pairs=frozenset()))
    checks = {c.check: c for c in verify_order_axioms(pref)}
    assert checks["modularity"].status == "pass"


def test_broken_order_is_reported():
    # bypass the builder to feed a corrupt matrix to the verifier
    rd = {"K": {"a": 0.0, "b": 0.5, "c": 1.0}}
    m = make_model(rd, {"K": ["a", "c"]})
    order = np.zeros((3, 3), dtype=bool)
    order[0, 1] = order[1, 2] = True  # a<b<c but not a<c
    order[1, 1] = True
    pref = PreferentialModel(
        base=m,
        specificity=SpecificityRelation(pairs=frozenset()),
        element_ids=m.element_ids,
        order=order,
    )
    checks = {c.check: c for c in verify_order_axioms(pref)}
    assert checks["irreflexivity"].status == "fail"
    assert checks["transitivity"].status == "fail"
    assert checks["well_foundedness"].status == "fail"
    assert any("b" in v.witnesses for v in checks["irreflexivity"].violations)


def test_builder_rejects_inconsistent_state():
    # a healthy model builds without complaint
    rd = {"K": {"a": 0.0, "b": 0.5, "s": 1.0}}
    m = make_model(rd, {"K": ["a", "s"]})
    build_preferential(m, SpecificityRelation(pairs=frozenset()))

    # two categories that disagree on x/y, each declared more specific than
    # the other: each overrides the other's objection, so x < y < x
    rd = {
        "K1": {"x": 0.0, "y": 0.5, "s1": 1.0, "s2": 1.0},
        "K2": {"x": 0.5, "y": 0.0, "s1": 1.0, "s2": 1.0},
    }
    m = make_model(rd, {"K1": ["x", "s1"], "K2": ["y", "s2"]})
    cyclic = SpecificityRelation(pairs=frozenset({("K1", "K2"), ("K2", "K1")}))
    with pytest.raises(ConsistencyError) as exc:
        build_preferential(m, cyclic)
    assert "x < y < x" in str(exc.value).replace("'", "")


def test_broken_order_fails_cautious_monotonicity():
    # bypass the builder: a<b and b<c without a<c
    rd = {"KD": {"a": 0.0, "b": 2.0, "c": 0.5}, "KE": {"a": 0.0, "b": 1.0, "c": 1.0}}
    m = make_model(rd, {"KD": ["a", "c"], "KE": ["a"]})
    order = np.zeros((3, 3), dtype=bool)
    order[0, 1] = order[1, 2] = True
    pref = PreferentialModel(
        base=m,
        specificity=SpecificityRelation(pairs=frozenset()),
        element_ids=m.element_ids,
        order=order,
    )
    checks = {c.check: c for c in verify_klm(pref, [Top(), Name("KD"), Name("KE")])}
    cm = checks.pop("cautious_monotonicity")
    assert cm.status == "fail"
    assert [(v.instance, v.witnesses) for v in cm.violations] == [
        ("C=Top, D=KD, E=KE", ("c",))
    ]
    # Minimal elements of a set lie inside it, and being dominated within a
    # set is monotone in the set, so a bad order alone breaks only CM here.
    for check in checks.values():
        assert check.status == "pass", check.check


def test_klm_zero_violations_on_trained_model(cluster_pref):
    for check in verify_klm(cluster_pref):
        assert check.status == "pass", f"{check.check}: {check.violations[:2]}"


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_klm_zero_violations_on_random_models(seed):
    rng = np.random.default_rng(seed)
    model, rel, _, _ = random_model(rng, max_elements=10, max_categories=3)
    pref = build_preferential(model, rel)
    for check in verify_klm(pref):
        assert check.status == "pass", f"{check.check}: {check.violations[:2]}"


def test_default_concept_pool_shape():
    pool = default_concept_pool(["A", "B", "C"])
    texts = {str(p) for p in pool}
    assert len(pool) == 2 + 3 + 3 + 1  # Top, Bot, names, pairs, triple
    from somlogic import pretty

    rendered = [pretty(p) for p in pool]
    assert "A & B & C" in rendered
    assert "A & B" in rendered
    assert "Top" in rendered and "Bot" in rendered


def test_property_check_json_shape(cluster_pref):
    doc = verify_order_axioms(cluster_pref)[0].to_json()
    assert set(doc) == {"check", "status", "violations", "required", "notes"}


def test_empty_domain_model():
    from somlogic import initial_model

    pref = build_preferential(initial_model(["A"], 2))
    assert pref.order.shape == (0, 0)
    assert typicality_extension(pref, Name("A")) == frozenset()
    for check in verify_order_axioms(pref):
        if check.required:
            assert check.status == "pass"
