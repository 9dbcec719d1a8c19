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
    extension_mask,
    global_prefer,
    minima,
    verify_klm,
    verify_order_axioms,
)
from somlogic.checker import SpecificityRelation
from somlogic import preferences
from somlogic.preferences import PreferentialModel, _bool_product, _row_keys, default_concept_pool

from oracles import (
    entails,
    extension,
    make_model,
    minimal_elements,
    oracle_global_prefer,
    oracle_minimal,
    oracle_order_violations,
    oracle_verify_klm,
    random_model,
    two_way_override_model,
    typicality_extension,
)


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
# Minima from the order restricted to one set
# ==============================================================


def _minima_ids(model, specificity, eids) -> frozenset[str]:
    """``minima`` of the set of element ids ``eids``, as element ids."""
    mask = np.zeros(len(model.element_ids), dtype=bool)
    mask[[model.col_of[eid] for eid in eids]] = True
    return frozenset(itertools.compress(model.element_ids, minima(model, specificity, mask)))


def _minima_corpus(nested_model):
    """(model, specificity, rd tables, above, sets): the seeded random
    models, then the nested G/S model.  The sets are every pool concept's
    extension, three random subsets of the domain, and every two-element
    set, whose minima pin the order pair by pair."""
    rng = np.random.default_rng(13)
    models = [random_model(rng, max_elements=14, max_categories=4)[:3] for _ in range(40)]
    rel = derive_specificity(nested_model)
    tables = {c: dict(t.rd) for c, t in nested_model.categories.items()}
    models.append((nested_model, rel, tables))
    for model, rel, rd_tables in models:
        above = {c: {a for a, b in rel.pairs if b == c} for c in rd_tables}
        ids = list(model.element_ids)
        sets = [extension(model, c) for c in default_concept_pool(model.category_names)]
        for _ in range(3):
            size = int(rng.integers(1, len(ids) + 1))
            sets.append(frozenset(rng.choice(ids, size=size, replace=False).tolist()))
        sets += [frozenset(pair) for pair in itertools.combinations(ids, 2)]
        yield model, rel, rd_tables, above, sets


def _minima_mismatches(nested_model) -> list:
    """Every set whose ``minima`` differs from the minimal elements under
    the full order or under the oracle rule."""
    out = []
    for model, rel, rd_tables, above, sets in _minima_corpus(nested_model):
        pref = build_preferential(model, rel)

        def prefers(x, y):
            return oracle_global_prefer(rd_tables, above, x, y)

        for s in sets:
            got = _minima_ids(model, rel, s)
            if got != minimal_elements(pref, s) or got != oracle_minimal(prefers, s):
                out.append((model.category_names, sorted(s)))
    return out


def test_minima_equal_full_order_and_oracle(nested_model):
    assert _minima_mismatches(nested_model) == []
    # An override decides a minimum in some random model and in the nested
    # one, so the comparison above covers the override term.
    none = SpecificityRelation(pairs=frozenset())
    decided = {
        model is nested_model
        for model, rel, _, _, sets in _minima_corpus(nested_model)
        for s in sets
        if _minima_ids(model, rel, s) != _minima_ids(model, none, s)
    }
    assert decided == {False, True}


def test_minima_without_override_fail_the_comparison(nested_model, monkeypatch):
    monkeypatch.setattr(SpecificityRelation, "above", lambda self, cat: frozenset())
    assert _minima_mismatches(nested_model)


def test_minima_rejects_cyclic_specificity():
    # Each category overrides the other's objection, so x < y < x inside
    # the block; the block's own order check must refuse it.
    rd = {
        "K1": {"x": 0.0, "y": 0.5, "s1": 1.0, "s2": 1.0},
        "K2": {"x": 0.5, "y": 0.0, "s1": 1.0, "s2": 1.0},
    }
    m = make_model(rd, {"K1": ["x", "s1"], "K2": ["y", "s2"]})
    cyclic = SpecificityRelation(pairs=frozenset({("K1", "K2"), ("K2", "K1")}))
    assert _minima_ids(m, cyclic, {"s1", "s2"}) == {"s1", "s2"}  # a block without the cycle
    with pytest.raises(ConsistencyError) as exc:
        _minima_ids(m, cyclic, {"x", "y", "s1"})
    assert "x < y < x" in str(exc.value)


def test_minima_of_empty_set(nested_model):
    rel = derive_specificity(nested_model)
    empty = np.zeros(len(nested_model.element_ids), dtype=bool)
    got = minima(nested_model, rel, empty)
    assert got.dtype == bool and got.shape == empty.shape and not got.any()


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


def _hand_built(ids, pairs):
    """A PreferentialModel over ``ids`` whose order is exactly ``pairs``."""
    m = make_model({"K": {e: 0.0 for e in ids}}, {"K": [ids[0]]})
    row = {e: i for i, e in enumerate(m.element_ids)}
    order = np.zeros((len(ids), len(ids)), dtype=bool)
    for x, y in pairs:
        order[row[x], row[y]] = True
    return PreferentialModel(
        base=m,
        specificity=SpecificityRelation(pairs=frozenset()),
        element_ids=m.element_ids,
        order=order,
    )


@pytest.mark.parametrize("middles", [255, 256])
def test_path_counts_do_not_wrap(middles):
    # A count of 256 paths wrapped to 0 in a uint8 product and hid both
    # violations below.
    zs = [f"z{i:03d}" for i in range(middles)]
    pref = _hand_built(["x", "y", *zs], [p for z in zs for p in (("x", z), (z, "y"))])
    checks = {c.check: c for c in verify_order_axioms(pref)}
    assert checks["transitivity"].status == "fail"
    assert [(v.instance, v.witnesses) for v in checks["transitivity"].violations] == [
        ("x < z000 < y but not x < y", ("x", "z000", "y"))
    ]

    pref = _hand_built(["x", "y", *zs], [("x", "y")])
    checks = {c.check: c for c in verify_order_axioms(pref)}
    assert checks["transitivity"].status == "pass"
    assert checks["modularity"].status == "fail"
    assert [(v.instance, v.witnesses) for v in checks["modularity"].violations] == [
        ("x < y but z000 is unordered against both", ("x", "y", "z000"))
    ]


def test_bool_product_spans_row_blocks():
    rng = np.random.default_rng(3)
    a = rng.random((700, 300)) < 0.01
    b = rng.random((300, 200)) < 0.01
    assert np.array_equal(_bool_product(a, b), a.astype(int) @ b.astype(int) > 0)


def test_order_axioms_match_oracle_on_random_relations():
    rng = np.random.default_rng(7)
    for n in range(1, 16):
        ids = [f"e{i}" for i in range(n)]
        for density in (0.05, 0.2, 0.5, 0.8):
            pref = _hand_built(ids, [])
            pref.order[:] = rng.random((n, n)) < density
            want = oracle_order_violations(ids, pref.order)
            checks = {c.check: c for c in verify_order_axioms(pref)}
            for name, violations in want.items():
                got = [(v.instance, v.witnesses) for v in checks[name].violations]
                assert got == violations[:10], (n, density, name)
                assert checks[name].status == ("fail" if violations else "pass")
            assert checks["well_foundedness"].status == (
                "fail" if want["irreflexivity"] or want["transitivity"] else "pass"
            )


def test_builder_rejects_inconsistent_state():
    # The builder checks nothing; its order's one check is
    # verify_order_axioms.  A healthy model builds a strict order.
    rd = {"K": {"a": 0.0, "b": 0.5, "s": 1.0}}
    m = make_model(rd, {"K": ["a", "s"]})
    healthy = verify_order_axioms(build_preferential(m, SpecificityRelation(pairs=frozenset())))
    assert all(c.status == "pass" for c in healthy if c.required)

    # two categories that disagree on x/y, each declared more specific than
    # the other: each overrides the other's objection, so x < y < x
    m, cyclic = two_way_override_model()
    checks = {c.check: c for c in verify_order_axioms(build_preferential(m, cyclic))}
    assert checks["transitivity"].status == "fail"
    assert checks["transitivity"].violations[0].instance == "x < y < x but not x < x"


@pytest.mark.parametrize("verify", [verify_klm, oracle_verify_klm])
def test_broken_order_fails_cautious_monotonicity(verify):
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
    checks = {c.check: c for c in verify(pref, [Top(), Name("KD"), Name("KE")])}
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


def _klm_report_mismatches() -> tuple[list[int], int]:
    """The seeded random models whose ``verify_klm`` report differs from
    the oracle's, and the number of reports with a failing CM.  Each model
    is checked with its built order and two with flipped bits, so that the
    failure paths are compared too."""
    rng = np.random.default_rng(11)
    densities = (0.02, 0.1, 0.3)
    mismatches, cm_failures = [], 0
    for i in range(100):
        model, rel, _, _ = random_model(rng, max_elements=20, max_categories=4)
        pref = build_preferential(model, rel)
        orders = [pref.order]
        for density in (densities[i % 3], densities[(i + 1) % 3]):
            orders.append(pref.order ^ (rng.random(pref.order.shape) < density))
        for order in orders:
            p = PreferentialModel(model, rel, model.element_ids, order)
            got = [c.to_json() for c in verify_klm(p)]
            if got != [c.to_json() for c in oracle_verify_klm(p)]:
                mismatches.append(i)
            cm_failures += {c["check"]: c for c in got}["cautious_monotonicity"]["status"] == "fail"
    return mismatches, cm_failures


def test_klm_report_matches_oracle():
    mismatches, cm_failures = _klm_report_mismatches()
    assert mismatches == []
    assert cm_failures > 0


def test_klm_class_keys_see_the_last_element():
    # 11 elements, so the last one sits in a partial byte of the packed
    # masks; ext(A) and ext(B) differ in it alone.  It is minimal in B and
    # outside A, so B |~ A fails while A |~ A holds: merging the two
    # classes would report an LLE violation.
    ids = [f"e{i}" for i in range(11)]
    rd = {
        "A": {**{e: 0.5 for e in ids}, "e0": 0.0, "e10": 2.0},
        "B": {**{e: 0.5 for e in ids}, "e0": 0.0, "e10": 0.0},
        "C": {**{e: 1.0 for e in ids}, "e10": 0.0},
    }
    m = make_model(rd, {"A": ["e0", "e1"], "B": ["e0", "e1"], "C": ["e1", "e10"]})
    a, b = extension_mask(m, Name("A")), extension_mask(m, Name("B"))
    assert np.flatnonzero(a != b).tolist() == [10]
    assert len(set(_row_keys(np.packbits(np.vstack([a, b]), axis=1)))) == 2
    pref = build_preferential(m, SpecificityRelation(pairs=frozenset()))
    assert _minima_ids(m, pref.specificity, extension(m, Name("B"))) == {"e0", "e10"}
    got = [c.to_json() for c in verify_klm(pref)]
    assert got == [c.to_json() for c in oracle_verify_klm(pref)]
    assert all(c["status"] == "pass" for c in got)


def test_klm_report_comparison_catches_merged_classes(monkeypatch):
    # A class key without the last packed byte merges extensions that
    # differ only in their last elements; the oracle comparison sees it.
    def truncated(packed):
        return [key[:-1] for key in _row_keys(packed)]

    monkeypatch.setattr(preferences, "_row_keys", truncated)
    assert _klm_report_mismatches()[0]


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
