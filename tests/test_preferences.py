import dataclasses
import functools
import inspect
import itertools
import textwrap
import tracemalloc
from types import SimpleNamespace

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
    TrainConfig,
    build_model,
    build_preferential,
    derive_specificity,
    extension_mask,
    feature_range,
    gaussian_clusters,
    init_map,
    minima,
    pretty,
    train,
    verify_klm,
    verify_order_axioms,
)
from somlogic.checker import SpecificityRelation
from somlogic.model import SemanticModel
from somlogic import preferences
from somlogic.preferences import _void_keys, default_concept_pool

from oracles import (
    GROUP_FAULTS,
    entails,
    extension,
    faulty_group_build,
    make_model,
    minimal_elements,
    oracle_global_prefer,
    oracle_minimal,
    oracle_order_violations,
    oracle_verify_klm,
    order_matrix,
    preferential,
    random_model,
    rd_table,
    two_way_override_model,
    typicality_extension,
)


# ==============================================================
# The combination rule, three routes compared
# ==============================================================


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_matrix_equals_oracle(seed):
    rng = np.random.default_rng(seed)
    model, rel, rd_tables, above = random_model(rng, max_elements=14, max_categories=4)
    pref = build_preferential(model, rel)
    ids = model.element_ids
    for x in ids:
        for y in ids:
            want = oracle_global_prefer(rd_tables, above, x, y)
            assert pref.prefers(x, y) == want


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
    tables = {c: rd_table(nested_model, c) for c in nested_model.categories}
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


def test_minima_names_a_violation_by_element_id_in_a_mask_with_gaps():
    # The block {x, y, s1} sits at domain columns 1, 3 and 4, so its
    # positions 0 and 1 are other elements (g0 and x): the message must
    # name the cycle by the ids of the block's columns.
    rd = {
        "K1": {"g0": 1.0, "x": 0.0, "g1": 1.0, "y": 0.5, "s1": 1.0, "s2": 1.0},
        "K2": {"g0": 1.0, "x": 0.5, "g1": 1.0, "y": 0.0, "s1": 1.0, "s2": 1.0},
    }
    m = make_model(rd, {"K1": ["x", "s1"], "K2": ["y", "s2"]})
    cyclic = SpecificityRelation(pairs=frozenset({("K1", "K2"), ("K2", "K1")}))
    assert [m.col_of[e] for e in ("x", "y", "s1")] == [1, 3, 4]
    with pytest.raises(ConsistencyError) as exc:
        _minima_ids(m, cyclic, {"x", "y", "s1"})
    assert str(exc.value) == "global preference is not a strict order: x < y < x but not x < x"


def test_minima_of_empty_set(nested_model):
    rel = derive_specificity(nested_model)
    empty = np.zeros(len(nested_model.element_ids), dtype=bool)
    got = minima(nested_model, rel, empty)
    assert got.dtype == bool and got.shape == empty.shape and not got.any()


def _pareto_block(cycle: bool):
    """A model over 534 elements, as many as the nested G/S model with
    probes of the query benchmark, and its specificity.  Categories A and B
    give them seeded rd on a grid and no specificity relates them, so the
    global preference is their Pareto order, about a quarter of all pairs.
    With ``cycle``, elements x and y tie on A and B, C prefers x alone, D
    prefers y alone, and C and D are each more specific than the other: a
    2-cycle x < y < x injected into the dense block."""
    n = 534
    rng = np.random.default_rng(n)
    ids = [f"e{i:03d}" for i in range(n)]
    rd = {c: dict(zip(ids, (rng.integers(0, 1000, n) / 1000).tolist())) for c in "AB"}
    pairs = set()
    if cycle:
        x, y = ids[n // 2], ids[n // 3]
        rd["A"][y], rd["B"][y] = rd["A"][x], rd["B"][x]
        for c, best in (("C", x), ("D", y)):
            rd[c] = {e: 0.5 for e in ids}
            rd[c][best] = 0.0
        pairs = {("C", "D"), ("D", "C")}
    model = make_model(rd, {c: [min(t, key=t.get)] for c, t in rd.items()})
    return model, SpecificityRelation(pairs=frozenset(pairs))


def test_minima_of_a_dense_block_stay_in_a_fixed_memory_budget():
    # About 73 000 pairs.  Unpacking the block or listing all its pairs at
    # once peaks at about 1.5 MB here; walking its bit rows in blocks of
    # ``_CHUNK_ITEMS`` stays near 0.4 MB.
    model, rel = _pareto_block(cycle=False)
    domain = np.ones(len(model.element_ids), dtype=bool)
    tracemalloc.start()
    try:
        got = minima(model, rel, domain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * 2**20
    order = order_matrix(build_preferential(model, rel))
    assert order.sum() > 70_000
    assert np.array_equal(got, ~order.any(axis=0))


def test_order_axioms_of_a_dense_order_hold_three_copies_of_it():
    # A Pareto order over 3000 points, about 2.2 million pairs.  Besides
    # the order, the check holds its word columns, the ORed rows and the
    # complement of its transpose, one copy each, and the walk's blocks;
    # a full complement of the rows on top of those breaks the bound.
    n = 3000
    point = np.random.default_rng(3).random((n, 2))
    m = (point[:, np.newaxis] < point[np.newaxis, :]).all(axis=2)
    ids = tuple(f"e{i:04d}" for i in range(n))
    pref = preferential(None, SpecificityRelation(pairs=frozenset()), ids, m)
    del m
    tracemalloc.start()
    try:
        checks = verify_order_axioms(pref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * pref.bits.nbytes + 2**20
    assert [c.status for c in checks] == ["pass", "pass", "pass", "fail"]
    assert len(checks[3].violations) == 10


def test_minima_of_a_dense_block_name_the_first_violation_of_a_two_cycle():
    # The reference is the first pair (i, j) in row-major order that the
    # square of the order reaches but the order lacks, with its first
    # middle k; the order is irreflexive, so that is the first witness.
    model, rel = _pareto_block(cycle=True)
    ids = model.element_ids
    order = order_matrix(build_preferential(model, rel))
    assert not order.diagonal().any()
    as_float = order.astype(np.float32)
    i, j = np.argwhere((as_float @ as_float > 0) & ~order)[0]
    k = int(np.argmax(order[i] & order[:, j]))
    assert ids[i] == ids[j] == "e178" and ids[k] == "e267"  # y < x < y, y first
    with pytest.raises(ConsistencyError) as exc:
        minima(model, rel, np.ones(len(ids), dtype=bool))
    assert str(exc.value) == (
        "global preference is not a strict order: "
        f"{ids[i]} < {ids[k]} < {ids[j]} but not {ids[i]} < {ids[j]}"
    )


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
    student, phd = rd_table(m, "Student"), rd_table(m, "PhdStudent")
    assert student["mary"] < student["bob"]
    assert phd["bob"] < phd["mary"]
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
        zero = {eid for eid, v in rd_table(m, c).items() if v == 0.0}
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
    pref = preferential(m, SpecificityRelation(pairs=frozenset()), m.element_ids, order)
    checks = {c.check: c for c in verify_order_axioms(pref)}
    assert checks["irreflexivity"].status == "fail"
    assert checks["transitivity"].status == "fail"
    assert checks["well_foundedness"].status == "fail"
    assert any("b" in v.witnesses for v in checks["irreflexivity"].violations)


def test_verifiers_follow_an_order_changed_after_the_build():
    # The verifiers read ``pref.bits`` alone, so an order changed after
    # ``build_preferential``, in place or by ``dataclasses.replace``, is
    # the one checked.
    rd = {"K": {"a": 0.0, "b": 0.5, "c": 1.0}}
    pref = build_preferential(make_model(rd, {"K": ["a"]}))
    assert all(c.status == "pass" for c in verify_order_axioms(pref)[:3])
    broken = order_matrix(pref)
    broken[0, 2] = False  # a<b<c but not a<c
    broken[1, 1] = True
    replaced = dataclasses.replace(pref, bits=preferences._bit_rows(broken))
    pref.bits[:] = preferences._bit_rows(broken)
    for p in (pref, replaced):
        checks = {c.check: c for c in verify_order_axioms(p)}
        want = oracle_order_violations(p.element_ids, broken)
        for name, violations in want.items():
            assert [(v.instance, v.witnesses) for v in checks[name].violations] == violations
        assert checks["transitivity"].status == checks["irreflexivity"].status == "fail"
        got = [c.to_json() for c in verify_klm(p)]
        assert got == [c.to_json() for c in oracle_verify_klm(p)]


def _hand_built(ids, pairs):
    """A PreferentialModel over ``ids`` whose order is exactly ``pairs``."""
    m = make_model({"K": {e: 0.0 for e in ids}}, {"K": [ids[0]]})
    row = {e: i for i, e in enumerate(m.element_ids)}
    order = np.zeros((len(ids), len(ids)), dtype=bool)
    for x, y in pairs:
        order[row[x], row[y]] = True
    return preferential(m, SpecificityRelation(pairs=frozenset()), m.element_ids, order)


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


def test_order_axioms_match_oracle_on_random_relations():
    rng = np.random.default_rng(7)
    for n in range(1, 16):
        ids = [f"e{i}" for i in range(n)]
        for density in (0.05, 0.2, 0.5, 0.8):
            pref = _hand_built(ids, [])
            m = rng.random((n, n)) < density
            pref.bits[:] = preferences._bit_rows(m)
            want = oracle_order_violations(ids, m)
            checks = {c.check: c for c in verify_order_axioms(pref)}
            for name, violations in want.items():
                got = [(v.instance, v.witnesses) for v in checks[name].violations]
                assert got == violations[:10], (n, density, name)
                assert checks[name].status == ("fail" if violations else "pass")
            assert checks["well_foundedness"].status == (
                "fail" if want["irreflexivity"] or want["transitivity"] else "pass"
            )


# Domain sizes on both sides of one and two 64-bit words.
_BOUNDARY_SIZES = (63, 64, 65, 127, 128, 129)


def _boundary_relations(rng, n):
    """(name, relation) pairs over n elements: a random relation, a strict
    weak order (modular, so both walks run to the end), that order with one
    bit flipped, the same order with one bit moved within its column (so
    the column sums still look like a weak order's), and a Pareto order
    (transitive, not modular)."""
    yield "random", rng.random((n, n)) < (0.02, 0.1, 0.5)[n % 3]
    level = rng.integers(0, 5, n)
    weak = level[:, np.newaxis] < level[np.newaxis, :]
    yield "weak", weak
    flipped = weak.copy()
    flipped[tuple(rng.integers(0, n, 2))] ^= True
    yield "flipped", flipped
    moved = weak.copy()
    j = int(np.argmax(level))
    moved[int(np.flatnonzero(weak[:, j])[0]), j] = False
    moved[int(np.flatnonzero(~weak[:, j])[0]), j] = True
    yield "moved", moved
    point = rng.random((n, 2))
    yield "pareto", (point[:, np.newaxis] < point[np.newaxis, :]).all(axis=2)


@functools.cache
def _boundary_cases() -> tuple:
    """(n, name, ids, relation, oracle report) for every size and relation,
    the oracle run once per test run."""
    rng = np.random.default_rng(19)
    cases = []
    for n in _BOUNDARY_SIZES:
        ids = tuple(f"e{i:03d}" for i in range(n))
        for name, m in _boundary_relations(rng, n):
            cases.append((n, name, ids, m, oracle_order_violations(ids, m.tolist())))
    return tuple(cases)


def _boundary_mismatches() -> list[tuple[int, str]]:
    """The (size, relation) cases where ``verify_order_axioms``, or the
    ``_order_violations`` that ``minima`` calls, differs from the oracle."""
    out = []
    for n, name, ids, m, want in _boundary_cases():
        pref = preferential(None, SpecificityRelation(pairs=frozenset()), ids, m)
        checks = {c.check: c for c in verify_order_axioms(pref)}
        got = {k: [(v.instance, v.witnesses) for v in checks[k].violations] for k in want}
        got["well_foundedness"] = checks["well_foundedness"].status
        got["statuses"] = [checks[k].status for k in want]
        refl, trans, _ = preferences._order_violations(ids, preferences._bit_rows(m))
        expected = {k: violations[:10] for k, violations in want.items()}
        expected["well_foundedness"] = (
            "fail" if want["irreflexivity"] or want["transitivity"] else "pass"
        )
        expected["statuses"] = ["fail" if want[k] else "pass" for k in want]
        direct = [[(v.instance, v.witnesses) for v in vs] for vs in (refl, trans)]
        if got != expected or direct != [expected["irreflexivity"], expected["transitivity"]]:
            out.append((n, name))
    return out


@pytest.mark.parametrize("budget", [None, 1, 40])
def test_order_axioms_match_oracle_across_word_and_chunk_boundaries(budget, monkeypatch):
    # The budget splits every pair walk into row blocks: 1 makes every row
    # a block of its own, 40 puts block ends at scattered rows, and the
    # default splits the denser relations over 127 elements in two.
    if budget is not None:
        monkeypatch.setattr(preferences, "_CHUNK_ITEMS", budget)
    assert _boundary_mismatches() == []


def _inject(monkeypatch, name: str, old: str, new: str) -> None:
    """Replace ``preferences.<name>`` with a copy of its source in which the
    text ``old``, found there exactly once, reads ``new``."""
    src = textwrap.dedent(inspect.getsource(getattr(preferences, name)))
    assert src.count(old) == 1, (name, old)
    namespace = dict(vars(preferences))
    exec(compile(src.replace(old, new), preferences.__file__, "exec"), namespace)
    monkeypatch.setattr(preferences, name, namespace[name])


def _late_kernel_segments(monkeypatch) -> None:
    """Start every segment of the OR kernel's blocks but the first one pair
    late."""
    _inject(
        monkeypatch,
        "_or_chunk",
        "starts = bounds[nonempty]",
        "starts = np.r_[bounds[nonempty][:1], np.minimum(bounds[nonempty][1:] + 1, len(j) - 1)]",
    )


def test_boundary_comparison_catches_unmasked_padding(monkeypatch):
    monkeypatch.setattr(preferences, "_complement", lambda words, n: ~words)
    sizes = {n for n, _name in _boundary_mismatches()}
    assert 65 in sizes and not sizes & {64, 128}  # no padding bits at 64 and 128


def test_boundary_comparison_catches_off_by_one_segments(monkeypatch):
    _late_kernel_segments(monkeypatch)
    assert _boundary_mismatches()


def _late_chunks(monkeypatch, budget: int) -> None:
    """Start every row block of the pair walk but the first one row late,
    at the budget ``budget``: the row slices that ``_chunks`` walks skip
    the row after each slice."""
    monkeypatch.setattr(preferences, "_CHUNK_ITEMS", budget)
    _inject(monkeypatch, "_slices", "lo = hi", "lo = hi + 1")


@pytest.mark.parametrize("budget", [1, 40])
def test_boundary_comparison_catches_late_chunks(budget, monkeypatch):
    _late_chunks(monkeypatch, budget)
    assert _boundary_mismatches()


# ==============================================================
# verify_klm's minima and inclusions on bit rows
# ==============================================================


def _pool_model(names, ext):
    """What ``extension_mask`` and the pool builder read of a model whose
    categories ``names`` have the extension rows ``ext``."""
    return SimpleNamespace(
        category_names=tuple(names),
        row_of={c: i for i, c in enumerate(names)},
        ext=ext,
        element_ids=tuple(f"e{i:03d}" for i in range(ext.shape[1])),
    )


def _words(m: np.ndarray) -> np.ndarray:
    """The rows of ``m`` as uint64 words with zero padding, packed without
    ``_bit_rows``."""
    padded = np.zeros((len(m), -(-m.shape[1] // 64) * 64), dtype=bool)
    padded[:, : m.shape[1]] = m
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


@functools.cache
def _minima_cases() -> tuple:
    """(n, relation name, relation, pool masks, oracle minima, oracle
    T(C) inside ext(D), oracle ext(C) inside ext(D)) for every boundary size
    and relation.  The pool is the default one over four unsorted names,
    one of them an empty category, so it holds Bot and other empty sets."""
    rng = np.random.default_rng(29)
    names = ("K2", "K0", "K3", "K1")
    cases = []
    for n in _BOUNDARY_SIZES:
        ext = rng.random((4, n)) < np.array([[0.5], [0.1], [0.0], [0.9]])
        model = _pool_model(names, ext)
        masks = np.array([extension_mask(model, c) for c in default_concept_pool(names)])
        sets = [frozenset(np.flatnonzero(row).tolist()) for row in masks]
        for name, m in _boundary_relations(rng, n):
            rel = m.tolist()
            typ = [oracle_minimal(lambda x, y: rel[x][y], s) for s in sets]
            want = np.zeros_like(masks)
            for row, t in zip(want, typ):
                row[list(t)] = True
            entail = np.array([[t <= s for s in sets] for t in typ])
            subset = np.array([[s0 <= s for s in sets] for s0 in sets])
            cases.append((n, name, m, masks, want, entail, subset))
    return tuple(cases)


def _bit_minima_mismatches() -> list[tuple[int, str]]:
    """The (size, relation) cases where the bit-row minima (word for word,
    padding included) or inclusions differ from the oracle's."""
    out = []
    for n, name, m, masks, want, entail, subset in _minima_cases():
        mask_bits = preferences._bit_rows(masks)
        typ = preferences._bit_minima(preferences._bit_rows(m), mask_bits)
        if not (
            np.array_equal(typ, _words(want))
            and np.array_equal(preferences._inside(typ, mask_bits), entail)
            and np.array_equal(preferences._inside(mask_bits, mask_bits), subset)
        ):
            out.append((n, name))
    return out


@pytest.mark.parametrize("budget", [None, 1, 40])
def test_bit_minima_and_inclusions_match_oracle_across_boundaries(budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(preferences, "_CHUNK_ITEMS", budget)
    assert _bit_minima_mismatches() == []


def test_minima_comparison_catches_padding_left_set(monkeypatch):
    # Padding set in every bit row survives in the minima of the empty sets
    # (Bot, the empty category), which have no members to clear it.
    bit_rows = preferences._bit_rows

    def padded(m):
        return bit_rows(m) | ~bit_rows(np.ones((1, m.shape[1]), dtype=bool))

    monkeypatch.setattr(preferences, "_bit_rows", padded)
    sizes = {n for n, _name in _bit_minima_mismatches()}
    assert 65 in sizes and not sizes & {64, 128}  # no padding bits at 64 and 128


def test_minima_comparison_catches_off_by_one_segments(monkeypatch):
    _late_kernel_segments(monkeypatch)
    assert _bit_minima_mismatches()


@pytest.mark.parametrize("budget", [1, 40])
def test_minima_comparison_catches_late_chunks(budget, monkeypatch):
    # At the default budget each pool of these cases is a single block.
    _late_chunks(monkeypatch, budget)
    assert _bit_minima_mismatches()


def test_unpacked_reads_strided_rows():
    # numpy may lay out ``set & ~reach`` column-major: the minima of the
    # 7868 entailed pairs of a k = 8 overlap model came back so, and a CM
    # witness unpacks one of their rows.
    m = np.random.default_rng(0).random((7, 130)) < 0.5
    bits = np.asfortranarray(preferences._bit_rows(m))
    assert np.array_equal(preferences._unpacked(bits, 130), m)
    for i in range(len(m)):
        assert np.array_equal(preferences._unpacked(bits[i], 130), m[i])


_KERNEL_SHAPES = [(0, 0), (3, 0), (0, 5), (5, 1), (7, 63), (9, 64), (11, 65), (40, 129)]


def _chunk_checks(m: np.ndarray) -> tuple[bool, bool]:
    """Whether every ``_chunks`` block of the bit rows of ``m``, at the
    current budget, has its rows' bit counts as its segment lengths, and
    whether every block fits ``_CHUNK_ITEMS`` (its pairs plus 8 per word
    of its rows) or is one row.  The blocks must tile the rows in order."""
    bits = preferences._bit_rows(m)
    counted = fits = True
    at = 0
    for lo, j, bounds in preferences._chunks(bits, m.shape[1]):
        rows = len(bounds) - 1
        assert lo == at and rows >= 1
        at += rows
        counted &= np.array_equal(np.diff(bounds), m[lo:at].sum(axis=1))
        fits &= rows == 1 or len(j) + 8 * bits.shape[1] * rows <= preferences._CHUNK_ITEMS
    assert at == len(m)
    return counted, fits


@pytest.mark.parametrize("shape", _KERNEL_SHAPES)
def test_or_kernel_matches_set_oracle(shape, monkeypatch):
    # Every third row of m has no entry, so its OR is 0; the ORed rows have
    # zero padding, which the result keeps.  Each case runs at the default
    # budget and at 1 and 40 items, where the rows split into many blocks;
    # each block's segments are its rows' pairs, and it fits the budget.
    r, c = shape
    rng = np.random.default_rng(list(shape))
    for density in (0.0, 0.1, 0.5, 1.0):
        m = rng.random((r, c)) < density
        m[::3] = False
        members = rng.random((c, int(rng.integers(1, 130)))) < 0.5
        want = np.zeros((r, members.shape[1]), dtype=bool)
        for i in range(r):
            union: set[int] = set()
            for j in np.flatnonzero(m[i]):
                union |= set(np.flatnonzero(members[j]).tolist())
            want[i, sorted(union)] = True
        bits = preferences._bit_rows(m)
        for budget in (preferences._CHUNK_ITEMS, 1, 40):
            with monkeypatch.context() as patch:
                patch.setattr(preferences, "_CHUNK_ITEMS", budget)
                got = preferences._or_rows(bits, preferences._bit_rows(members))
                assert np.array_equal(got, _words(want)), (shape, density, budget)
                assert _chunk_checks(m) == (True, True), (shape, density, budget)


def test_chunk_checks_catch_halved_counts(monkeypatch):
    # Counting each row's pairs at half packs more rows into a block than
    # the budget holds.
    _inject(
        monkeypatch,
        "_chunks",
        "np.bitwise_count(sel_bits).sum(axis=1, dtype=np.intp)",
        "np.bitwise_count(sel_bits).sum(axis=1, dtype=np.intp) // 2",
    )
    fits = []
    for shape in _KERNEL_SHAPES:
        rng = np.random.default_rng(list(shape))
        for density in (0.1, 0.5, 1.0):
            m = rng.random(shape) < density
            for budget in (preferences._CHUNK_ITEMS, 1, 40):
                with monkeypatch.context() as patch:
                    patch.setattr(preferences, "_CHUNK_ITEMS", budget)
                    fits.append(_chunk_checks(m)[1])
    assert not all(fits)


def _rank_model(n: int):
    """A model over n elements whose category D has n distinct rd values,
    W ties on a grid and holds one infinite rd, and S, more specific than
    W, can override it; with its specificity, rd tables and ``above``."""
    rng = np.random.default_rng(n)
    ids = [f"e{i:03d}" for i in range(n)]
    distinct = [0.0, *np.sort(rng.random(n - 1) * 4 + 0.001).tolist()]
    rd = {
        "D": dict(zip(ids, rng.permutation(distinct).tolist())),
        "S": {e: [0.0, 0.5, 1.0, 2.0][int(rng.integers(0, 4))] for e in ids},
        "W": {e: [0.0, 0.25, 0.5][int(rng.integers(0, 3))] for e in ids},
    }
    rd["S"][ids[0]] = rd["W"][ids[0]] = 0.0
    rd["W"][ids[-1]] = float("inf")
    stim = {c: [e for e in ids if np.isfinite(tbl[e])][:5] + [ids[0]] for c, tbl in rd.items()}
    model = make_model(rd, {c: sorted(set(s)) for c, s in stim.items()})
    rel = SpecificityRelation(pairs=frozenset({("S", "W")}))
    return model, rel, rd, {"W": {"S"}}


def _rank_rule_mismatches(n: int) -> int:
    """Pairs where ``build_preferential`` differs from the oracle on
    ``_rank_model(n)``, plus subsets whose ``minima`` differ."""
    model, rel, rd, above = _rank_model(n)
    ids = model.element_ids
    assert len(set(rd["D"].values())) == n
    order = order_matrix(build_preferential(model, rel))
    want = np.array([[oracle_global_prefer(rd, above, x, y) for y in ids] for x in ids])
    bad = int((order != want).sum())
    rng = np.random.default_rng(1)
    for mask in [np.ones(n, dtype=bool)] + [rng.random(n) < 0.5 for _ in range(3)]:
        sub = np.flatnonzero(mask)
        dominated = want[np.ix_(sub, sub)].any(axis=0)
        expected = np.zeros(n, dtype=bool)
        expected[sub[~dominated]] = True
        try:
            bad += not np.array_equal(minima(model, rel, mask), expected)
        except ConsistencyError:
            bad += 1
    return bad


@pytest.mark.parametrize("n", [9, 256, 257])
def test_rule_on_ranks_matches_oracle(n):
    # 256 distinct ranks fill four 64-bit words, 257 start a fifth.
    assert _rank_rule_mismatches(n) == 0


def test_rank_comparison_catches_strict_rows_read_as_weak(monkeypatch):
    # Each element's strict row taken from its own rank rather than the
    # next one: the order turns reflexive and ties count as wins.
    _inject(monkeypatch, "_global_order", "ge[i, r + 1]", "ge[i, r]")
    assert _rank_rule_mismatches(9) > 0


def test_minima_refuse_a_reflexive_block(monkeypatch):
    # Strict rows read as weak turn one category's order into rd(x) <=
    # rd(y): transitive, so only the block's diagonal bits can refuse it.
    _inject(monkeypatch, "_global_order", "ge[i, r + 1]", "ge[i, r]")
    model = make_model({"K": {"a": 0.0, "b": 0.5, "c": 1.0}}, {"K": ["a", "b"]})
    with pytest.raises(ConsistencyError) as exc:
        minima(model, SpecificityRelation(pairs=frozenset()), np.ones(3, dtype=bool))
    assert str(exc.value) == "global preference is not a strict order: a < a"


def _sized_model(rng, n: int):
    """A model over exactly n elements: one to four ranked categories with
    rd on a small grid (ties) that includes inf, an empty category Z, and
    a random specificity relation over all of them, Z included; with the
    ranked categories' rd tables and ``above`` for the oracle."""
    ids = [f"e{i:03d}" for i in range(n)]
    k = int(rng.integers(1, 5))
    names = [f"K{c}" for c in range(k)] + ["Z"]
    grid = np.array([0.0, 0.0, 0.25, 0.5, 1.0, 2.0, np.inf])
    rd = np.vstack([grid[rng.integers(0, len(grid), (k, n))], np.full((1, n), np.nan)])
    refs, tables = {}, {}
    for c, name in enumerate(names):
        finite = [ids[i] for i in np.flatnonzero(np.isfinite(rd[c]))]
        bmu = tuple(ids[i] for i in np.flatnonzero(rd[c] == 0.0))
        refs[name] = (tuple(range(len(bmu))), bmu, tuple(finite[:3]))
        if finite:
            tables[name] = dict(zip(ids, rd[c].tolist()))
    model = SemanticModel(
        element_ids=ids,
        col_of={e: i for i, e in enumerate(ids)},
        features=np.zeros((n, 2)),
        refs=refs,
        precision=[1.0 if name in tables else None for name in names],
        rd=rd,
    )
    order = rng.permutation(names).tolist()
    edges = {(a, b) for i, a in enumerate(order) for b in order[i + 1 :] if rng.random() < 0.5}
    while True:
        closed = edges | {(a, c) for a, b in edges for b2, c in edges if b == b2}
        if closed == edges:
            break
        edges = closed
    above = {name: {a for a, b in edges if b == name} for name in names}
    return model, SpecificityRelation(pairs=frozenset(edges)), tables, above


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 127, 128, 129])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_bit_row_order_equals_oracle(n, seed):
    # Unpacked, the rows built on bits are the oracle's relation; packed,
    # their padding bits are 0.  The tables come in one group at the
    # default budget and one category a group at a budget of 1 item.
    model, rel, tables, above = _sized_model(np.random.default_rng(seed), n)
    ids = model.element_ids
    want = np.array(
        [[oracle_global_prefer(tables, above, x, y) for y in ids] for x in ids], dtype=bool
    ).reshape(n, n)
    for budget in (preferences._CHUNK_ITEMS, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(preferences, "_CHUNK_ITEMS", budget)
            bits = preferences._global_order(model, rel, np.arange(n))
            assert np.array_equal(bits, _words(want)), budget
            pref = build_preferential(model, rel)
            assert np.array_equal(order_matrix(pref), want), budget
            assert np.array_equal(pref.bits, bits), budget


@pytest.mark.parametrize("fault", GROUP_FAULTS)
def test_order_comparison_catches_a_faulty_group_build(fault, monkeypatch):
    faulty_group_build(monkeypatch, fault)
    with pytest.raises(AssertionError):
        for n in (63, 64, 65, 127, 128, 129):
            test_bit_row_order_equals_oracle(n)


def _override_chain_model(k: int, n: int, chain: int):
    """A model over n elements with k categories of seeded rd on a grid
    (ties and one inf each), and its specificity: the first ``chain``
    categories form a chain, each more specific than every later one of
    them, so ``chain - 1`` categories are overridden."""
    rng = np.random.default_rng([k, n, chain])
    ids = [f"e{i:04d}" for i in range(n)]
    names = [f"K{c:02d}" for c in range(k)]
    rd = rng.integers(0, 50, (k, n)) / 10
    rd[np.arange(k), np.arange(k)] = 0.0
    rd[np.arange(k), n - 1 - np.arange(k)] = np.inf
    model = SemanticModel(
        element_ids=ids,
        col_of={e: i for i, e in enumerate(ids)},
        features=np.zeros((n, 2)),
        refs={name: ((0,), (ids[c],), (ids[c],)) for c, name in enumerate(names)},
        precision=[1.0] * k,
        rd=rd,
    )
    pairs = {(a, b) for i, a in enumerate(names[:chain]) for b in names[i + 1 : chain]}
    return model, SpecificityRelation(pairs=frozenset(pairs))


@pytest.mark.parametrize("chain", [0, 4])
def test_global_order_holds_one_group_of_tables_at_a_time(chain):
    # 16 categories over 3000 elements, 47 words a row: one category's
    # table alone exceeds the budget, so each group holds one.  The peak
    # stays within twice the (3 + overridden) x n x words uint64 of the
    # accumulators and one table; all 16 tables at once take 17 x n x
    # words, more than that bound with up to 5 overridden categories.
    k, n = 16, 3000
    model, rel = _override_chain_model(k, n, chain)
    overridden = len({general for _, general in rel.pairs})
    assert overridden == max(chain - 1, 0)
    cols = np.arange(n)
    tracemalloc.start()
    try:
        bits = preferences._global_order(model, rel, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    unit = n * -(-n // 64) * 8
    assert peak < 2 * (3 + overridden) * unit
    assert bits.any()


@pytest.mark.parametrize("n", [0, 8, 9])
def test_klm_report_matches_oracle_at_byte_edges(n, trained_map):
    # Packed masks 0 bytes wide, exactly one byte, and one byte plus a bit.
    rng = np.random.default_rng(n)
    if n == 0:
        models = [(build_model(trained_map, (), categories=["A", "B", "C"]), None)]
    else:
        models = []
        while len(models) < 6:
            model, rel, _, _ = random_model(rng, max_elements=n, max_categories=4)
            if len(model.element_ids) == n:
                models.append((model, rel))
    for model, rel in models:
        pref = build_preferential(model, rel)
        built = order_matrix(pref)
        flipped = [built ^ (rng.random(built.shape) < 0.2) for _ in range(3)]
        for order in [built, *flipped]:
            p = preferential(model, pref.specificity, model.element_ids, order)
            assert [c.to_json() for c in verify_klm(p)] == [
                c.to_json() for c in oracle_verify_klm(p)
            ]


def _cube_model(rng, k: int = 5):
    """2**k elements, element i in category Kc exactly when bit c of i is
    set, at a random rd in [0, 0.4] (1.0 outside): every conjunction of
    names has its own extension, so the intersections of two classes with
    four or five names between them are no class."""
    ids = [f"e{i:02d}" for i in range(2**k)]
    rd = {}
    for c in range(k):
        members = [e for i, e in enumerate(ids) if i >> c & 1]
        tbl = {e: 1.0 for e in ids}
        tbl.update(zip(members, rng.choice([0.0, 0.1, 0.2, 0.3, 0.4], len(members)).tolist()))
        tbl[members[0]] = 0.0
        rd[f"K{c}"] = tbl
    return make_model(rd, {c: [e for e in ids if tbl[e] < 1.0] for c, tbl in rd.items()})


def test_klm_report_matches_oracle_with_extra_intersections():
    # Six intersections of two classes are no class here.  CM takes the
    # minima of every entailed pair's intersection, so a pair read against
    # the wrong intersection changes its report.
    rng = np.random.default_rng(0)
    cm_failures = 0
    for _ in range(6):
        model = _cube_model(rng)
        none = SpecificityRelation(pairs=frozenset())
        built = order_matrix(build_preferential(model, none))
        flipped = [built ^ (rng.random(built.shape) < d) for d in (0.02, 0.1)]
        for order in [built, *flipped]:
            p = preferential(model, none, model.element_ids, order)
            got = [c.to_json() for c in verify_klm(p)]
            assert got == [c.to_json() for c in oracle_verify_klm(p)]
            cm_failures += got[4]["status"] == "fail"
    assert cm_failures > 0


def _overlap_model():
    """Seven clusters with centres in [0, 3)**8 and std 1.5, 10 stimuli
    each on a 6 x 6 map, so categories overlap densely: 47 distinct default
    pool extensions and 4 intersections of two of them that are none."""
    centres = np.random.default_rng(0).uniform(0, 3, (7, 8))
    data = gaussian_clusters(centres.tolist(), [f"C{i}" for i in range(7)], 10, 1.5, 1)
    som, _ = train(init_map(6, 6, 8, 0, feature_range(data)), data, TrainConfig(epochs=10))
    return build_model(som, data)


def test_klm_report_matches_oracle_when_family_exceeds_classes():
    # CM reads the minima of intersections that are no class.  With the
    # pool of two-name conjunctions, the first CM failures of a flipped
    # order already have such a C & D, so they come from minima of sets
    # that no pool concept has as its extension.
    model = _overlap_model()
    names = model.category_names
    pairs = [And(Name(a), Name(b)) for a, b in itertools.combinations(names, 2)]
    past_classes = 0
    pref = build_preferential(model)
    built = order_matrix(pref)
    rng = np.random.default_rng(3)
    flipped = [built ^ (rng.random(built.shape) < d) for d in (0.02, 0.05)]
    for pool in (default_concept_pool(names), pairs):
        ext_of = {pretty(c): frozenset(extension(model, c)) for c in pool}
        exts = set(ext_of.values())
        assert len({a & b for a in exts for b in exts} | exts) > len(exts)
        for order in [built, *flipped]:
            p = preferential(model, pref.specificity, model.element_ids, order)
            got = [c.to_json() for c in verify_klm(p, pool)]
            assert got == [c.to_json() for c in oracle_verify_klm(p, pool)]
            for v in got[4]["violations"]:
                c, d, _e = (part.split("=", 1)[1] for part in v["instance"].split(", "))
                past_classes += ext_of[c] & ext_of[d] not in exts
    assert past_classes > 0


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
    pref = preferential(m, SpecificityRelation(pairs=frozenset()), m.element_ids, order)
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
        built = order_matrix(build_preferential(model, rel))
        orders = [built]
        for density in (densities[i % 3], densities[(i + 1) % 3]):
            orders.append(built ^ (rng.random(built.shape) < density))
        for order in orders:
            p = preferential(model, rel, model.element_ids, order)
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
    # 11 elements, so the last one sits in a partial word of the bit rows
    # that key the classes; ext(A) and ext(B) differ in it alone.  It is minimal in B and
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
    assert len(set(_void_keys(preferences._bit_rows(np.vstack([a, b]))).tolist())) == 2
    pref = build_preferential(m, SpecificityRelation(pairs=frozenset()))
    assert _minima_ids(m, pref.specificity, extension(m, Name("B"))) == {"e0", "e10"}
    got = [c.to_json() for c in verify_klm(pref)]
    assert got == [c.to_json() for c in oracle_verify_klm(pref)]
    assert all(c["status"] == "pass" for c in got)


def test_klm_report_comparison_catches_merged_classes(monkeypatch):
    # A class key without the last word of the bit row merges extensions
    # that differ only in their last elements; the oracle comparison sees
    # it.
    def truncated(rows):
        return _void_keys(rows[:, :-1])

    monkeypatch.setattr(preferences, "_void_keys", truncated)
    assert _klm_report_mismatches()[0]


def test_klm_report_comparison_catches_minima_read_for_another_set(monkeypatch):
    # Cautious Monotonicity computes the minima of each distinct set once
    # and hands them back to the pairs that hold it.  Handed back in
    # reverse pair order, they hide failures on the flipped orders.  (The
    # previous pair's minima would hide almost none: that pair is mostly
    # the same C's, and CM is decided per C.)
    _inject(monkeypatch, "verify_klm", "[back]", "[back[::-1]]")
    monkeypatch.setitem(globals(), "verify_klm", preferences.verify_klm)
    assert _klm_report_mismatches()[0]


def test_klm_report_matches_oracle_in_small_slices(monkeypatch):
    # At a budget of 1 item each union of two classes is looked up in a
    # slice of its own, and every walk takes one row at a time.
    monkeypatch.setattr(preferences, "_CHUNK_ITEMS", 1)
    mismatches, cm_failures = _klm_report_mismatches()
    assert mismatches == []
    assert cm_failures > 0


def _walk_fault(monkeypatch, part: str, row: int) -> None:
    """Fault injection in ``verify_klm``'s one walk over the classes each
    class entails: class ``row``'s row is dropped from ``part`` of the
    ORed rows, "common" (its extension leaves every I(C)) or "reach" (its
    subset row leaves every RW reach).  The walk is the ``_or_rows`` call
    whose rows are wider than its selections; a call for minima ORs the
    order's rows, as wide as its sets."""
    or_rows = preferences._or_rows

    def faulty(sel_bits, rows):
        split = rows.shape[1] - sel_bits.shape[1]
        if split > 0:
            rows = rows.copy()
            cols = slice(None, split) if part == "common" else slice(split, None)
            rows[row, cols] = 0
        return or_rows(sel_bits, rows)

    monkeypatch.setattr(preferences, "_or_rows", faulty)


def test_klm_report_comparison_catches_a_class_left_out_of_i_of_c(monkeypatch):
    # The first class key is the empty set's, where the pool has one.  Left
    # out of I(C), it hides the CM failures of a C whose T(C) is empty but
    # not every min(ext(C) & ext(D)).
    _walk_fault(monkeypatch, "common", 0)
    assert _klm_report_mismatches()[0]


def _near_inclusion(monkeypatch):
    """RW's premise misread: ext(D) counts as inside ext(E) when at most
    one element of it is outside.  ``verify_klm`` reads the subset rows
    from the one ``_inside`` call of the class rows against themselves; the
    returned function is the same misreading on sets, for the oracle."""
    inside = preferences._inside

    def near(a, b):
        if a is not b:
            return inside(a, b)
        outside = np.zeros((len(a), len(b)), dtype=np.intp)
        for w in range(a.shape[1]):
            outside += np.bitwise_count(a[:, w, np.newaxis] & ~b[np.newaxis, :, w])
        return outside <= 1

    monkeypatch.setattr(preferences, "_inside", near)
    return lambda s, t: len(s - t) <= 1


def _rw_report_mismatches(included) -> tuple[list[int], int]:
    """The seeded random models whose ``verify_klm`` report differs from
    the oracle's under the RW premise ``included``, and the number of
    reports with a failing RW."""
    rng = np.random.default_rng(11)
    mismatches, rw_failures = [], 0
    for i in range(100):
        model, rel, _, _ = random_model(rng, max_elements=20, max_categories=4)
        pref = build_preferential(model, rel)
        got = [c.to_json() for c in verify_klm(pref)]
        if got != [c.to_json() for c in oracle_verify_klm(pref, included=included)]:
            mismatches.append(i)
        rw_failures += got[2]["status"] == "fail"
    return mismatches, rw_failures


def test_klm_report_matches_oracle_when_rw_misreads_inclusion(monkeypatch):
    # RW cannot fail on a consistent entailment (T(C) inside ext(D) inside
    # ext(E)), so its decision and listing are compared on a misread one.
    mismatches, rw_failures = _rw_report_mismatches(_near_inclusion(monkeypatch))
    assert mismatches == []
    assert rw_failures > 0


def test_klm_report_comparison_catches_a_subset_row_left_out_of_the_reach(monkeypatch):
    # The last class's subset row left out of every reach hides the RW
    # failures that only a D of that class gives.
    included = _near_inclusion(monkeypatch)
    _walk_fault(monkeypatch, "reach", -1)
    assert _rw_report_mismatches(included)[0]


def test_and_lists_the_pairs_of_a_misread_entailment(monkeypatch):
    # And cannot fail on entailment read off the sets it compares, so here
    # every entailment from T = {a} into ext(C) = {b, c} is misread as
    # holding.  Top, A and B have T = {a}, so each pair of classes they
    # then entail with C among them fails And, with witness a.
    rd = {
        "A": {"a": 0.0, "b": 0.5, "c": 2.0},
        "B": {"a": 0.0, "b": 2.0, "c": 0.5},
        "C": {"a": 2.0, "b": 0.0, "c": 0.0},
    }
    m = make_model(rd, {"A": ["a", "b"], "B": ["a", "c"], "C": ["b", "c"]})
    order = np.zeros((3, 3), dtype=bool)
    order[0, 1:] = True  # a < b, a < c
    pref = preferential(m, SpecificityRelation(pairs=frozenset()), m.element_ids, order)
    only_a, only_bc = preferences._bit_rows(np.array([[True, False, False], [False, True, True]]))
    inside = preferences._inside

    def misread(a, b):
        out = inside(a, b)
        if a is not b:
            out |= (a == only_a).all(axis=1)[:, np.newaxis] & (b == only_bc).all(axis=1)
        return out

    monkeypatch.setattr(preferences, "_inside", misread)
    pool = [Top(), Name("A"), Name("B"), Name("C")]
    conj = {c.check: c for c in verify_klm(pref, pool)}["and"]
    pairs = [("Top", "C"), ("A", "C"), ("B", "C"), ("C", "Top"), ("C", "A"), ("C", "B"),
             ("C", "C"), ("Top", "C"), ("A", "C"), ("B", "C")]
    assert [(v.instance, v.witnesses) for v in conj.violations] == [
        (f"C={c}, D={d}, E={e}", ("a",)) for c, (d, e) in zip(["Top"] * 7 + ["A"] * 3, pairs)
    ]


def test_or_lists_the_pair_of_a_misread_entailment(monkeypatch):
    # With no element preferred, T(X) = ext(X).  U |~ U is misread as not
    # holding; A and B entail U and their union is U, so the pair fails Or.
    # The pool lists B before A although B's class key, ext(B) = {b}, sorts
    # after ext(A) = {a}: the failing pair marks both of its classes.
    rd = {
        "A": {"a": 0.0, "b": 1.0, "c": 1.0},
        "B": {"a": 1.0, "b": 0.0, "c": 1.0},
        "U": {"a": 0.0, "b": 0.0, "c": 1.0},
    }
    m = make_model(rd, {"A": ["a"], "B": ["b"], "U": ["a", "b"]})
    pref = preferential(m, SpecificityRelation(pairs=frozenset()), m.element_ids,
                        np.zeros((3, 3), dtype=bool))
    (ab,) = preferences._bit_rows(np.array([[True, True, False]]))
    inside = preferences._inside

    def misread(a, b):
        out = inside(a, b)
        if a is not b:
            out &= ~((a == ab).all(axis=1)[:, np.newaxis] & (b == ab).all(axis=1))
        return out

    monkeypatch.setattr(preferences, "_inside", misread)
    checks = {c.check: c for c in verify_klm(pref, [Name("B"), Name("A"), Name("U"), Top()])}
    assert [(v.instance, v.witnesses) for v in checks["or"].violations] == [
        ("C=B, D=A, E=U", ())
    ]


def _or_report_mismatches(monkeypatch) -> tuple[list[int], int]:
    """The seeded random models, and the overlap model as the last, whose
    ``verify_klm`` report differs from the oracle's when both misread every
    set's minima to also hold the set's median element in domain order,
    and the number of reports with a failing Or.  min(C | D) inside min(C) | min(D) fails under the
    misreading, so Or can fail; nothing else in the semantics makes it."""
    bit_minima = preferences._bit_minima

    def with_median(order_bits, set_bits):
        out = bit_minima(order_bits, set_bits).copy()
        for row, members in zip(out, preferences._unpacked(set_bits, len(order_bits))):
            cols = np.flatnonzero(members)
            if len(cols):
                m = int(cols[len(cols) // 2])
                row[m >> 6] |= np.uint64(1) << np.uint64(m & 63)
        return out

    monkeypatch.setattr(preferences, "_bit_minima", with_median)
    rng = np.random.default_rng(11)
    models = [random_model(rng, max_elements=20, max_categories=4)[:2] for _ in range(100)]
    mismatches, or_failures = [], 0
    for i, (model, rel) in enumerate([*models, (_overlap_model(), None)]):
        pref = build_preferential(model, rel)

        def minimal(s, pref=pref):
            median = sorted(s, key=pref.base.col_of.__getitem__)[len(s) // 2 :][:1]
            return minimal_elements(pref, s) | frozenset(median)

        got = [c.to_json() for c in verify_klm(pref)]
        if got != [c.to_json() for c in oracle_verify_klm(pref, minimal=minimal)]:
            mismatches.append(i)
        or_failures += got[5]["status"] == "fail"
    return mismatches, or_failures


def test_klm_report_matches_oracle_when_minima_are_misread(monkeypatch):
    mismatches, or_failures = _or_report_mismatches(monkeypatch)
    assert mismatches == []
    assert or_failures > 0


def test_klm_report_comparison_catches_a_join_slice_without_its_last_pair(monkeypatch):
    # The last union of each slice counts as no class: the Or note's count
    # of skipped pairs grows.
    class_of = preferences._class_of

    def skip_last(keys, rows):
        out = class_of(keys, rows)
        out[-1] = -1
        return out

    monkeypatch.setattr(preferences, "_class_of", skip_last)
    assert _klm_report_mismatches()[0]


@functools.cache
def _dense_overlap_model():
    """Ten clusters with centres in [0, 3)**8 and std 1.5, 12 stimuli each
    on an 8 x 8 map: 148 distinct extensions among the 177 concepts of the
    default pool."""
    centres = np.random.default_rng(0).uniform(0, 3, (10, 8))
    data = gaussian_clusters(centres.tolist(), [f"C{i}" for i in range(10)], 12, 1.5, 1)
    som, _ = train(init_map(8, 8, 8, 0, feature_range(data)), data, TrainConfig(epochs=10))
    return build_model(som, data)


def _class_count(model) -> int:
    pool = default_concept_pool(model.category_names)
    masks = np.array([extension_mask(model, c) for c in pool])
    return len(set(_void_keys(preferences._bit_rows(masks)).tolist()))


def test_klm_report_matches_oracle_on_a_dense_overlap():
    # About the largest class count at which the oracle takes a second an
    # order; a flipped order fails CM.
    model = _dense_overlap_model()
    assert _class_count(model) == 148
    pref = build_preferential(model)
    built = order_matrix(pref)
    rng = np.random.default_rng(3)
    cm_failures = 0
    for order in [built, *(built ^ (rng.random(built.shape) < d) for d in (0.001, 0.01))]:
        p = preferential(model, pref.specificity, model.element_ids, order)
        got = [c.to_json() for c in verify_klm(p)]
        assert got == [c.to_json() for c in oracle_verify_klm(p)]
        cm_failures += got[4]["status"] == "fail"
    assert cm_failures > 0


def test_klm_on_a_dense_overlap_holds_less_than_one_class_cube():
    # Each postulate is decided per class on bit rows, so nothing of K x K
    # x K is held over the K classes: the peak stays below one such boolean
    # tensor (3.1 MB here).  Four of them and the intersections of two
    # classes took 10.6 MB.
    model = _dense_overlap_model()
    pref = build_preferential(model)
    k = _class_count(model)
    tracemalloc.start()
    try:
        checks = verify_klm(pref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k**3
    assert all(c.status == "pass" for c in checks)


def _klm_on_overlap(per_cluster: int, side: int, epochs: int):
    """The class count of the model of twenty clusters with centres in
    [0, 3)**8 and std 1.5, ``per_cluster`` stimuli each on a ``side`` x
    ``side`` map trained for ``epochs``, and the tracemalloc peak and
    checks of ``verify_klm`` on it."""
    centres = np.random.default_rng(1).uniform(0, 3, (20, 8))
    data = gaussian_clusters(centres.tolist(), [f"C{i}" for i in range(20)], per_cluster, 1.5, 1)
    som, _ = train(init_map(side, side, 8, 0, feature_range(data)), data,
                   TrainConfig(epochs=epochs, seed=1))
    model = build_model(som, data)
    pref = build_preferential(model)
    tracemalloc.start()
    try:
        checks = verify_klm(pref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return _class_count(model), peak, checks


def test_klm_on_a_wide_overlap_holds_twenty_bytes_a_class_pair():
    # 40 stimuli a cluster on a 20 x 20 map: about 1340 classes among the
    # 1352 concepts of the pool.  The int32 join table and a few class x
    # class booleans make the peak, 9 bytes a class pair (16 MB) here.  The
    # union walk's np.triu_indices, an intp join and the outer product of
    # the class counts took 45 (80 MB).
    k, peak, checks = _klm_on_overlap(40, 20, 10)
    assert k > 1300
    assert peak <= 20 * k * k
    assert all(c.status == "pass" for c in checks)


def test_klm_where_almost_every_class_pair_is_entailed_holds_twenty_bytes_a_class_pair():
    # 20 stimuli a cluster on a 10 x 10 map: 497 elements and about 990
    # classes, almost every pair of them entailed.  Cautious Monotonicity's
    # minima are computed a slice of entailed pairs at a time; one bit row
    # kept for every entailed pair took about 200 bytes a class pair
    # (195 MB).
    k, peak, checks = _klm_on_overlap(20, 10, 2)
    assert k > 950
    assert peak <= 20 * k * k
    assert all(c.status == "pass" for c in checks)


def test_default_concept_pool_shape():
    pool = default_concept_pool(["A", "B", "C"])
    texts = {str(p) for p in pool}
    assert len(pool) == 2 + 3 + 3 + 1  # Top, Bot, names, pairs, triple
    from somlogic import pretty

    rendered = [pretty(p) for p in pool]
    assert "A & B & C" in rendered
    assert "A & B" in rendered
    assert "Top" in rendered and "Bot" in rendered


@pytest.mark.parametrize(
    "names",
    [(), ("A",), ("B", "A"), ("A", "B", "C"), ("D", "B", "A", "C"), ("E", "C", "A", "D", "B")],
)
def test_index_built_pool_matches_expression_pool(names):
    # The last category is empty; the names come unsorted.
    rng = np.random.default_rng(len(names))
    ext = rng.random((len(names), 70)) < 0.6
    ext[-1:] = False
    model = _pool_model(names, ext)
    masks, label = preferences._pool_masks(model, None)
    pool = default_concept_pool(names)
    assert np.array_equal(masks, np.array([extension_mask(model, c) for c in pool]))
    assert [label(i) for i in range(len(masks))] == [pretty(c) for c in pool]


def test_index_built_pool_on_empty_domain(trained_map):
    model = build_model(trained_map, (), categories=["C", "A", "B"])
    masks, label = preferences._pool_masks(model, None)
    pool = default_concept_pool(model.category_names)
    assert masks.shape == (len(pool), 0)
    assert [label(i) for i in range(len(masks))] == [pretty(c) for c in pool]


def test_default_pool_reports_print_expression_labels():
    # The CM fault-injection models: orders with flipped bits, whose
    # reports list violations by the labels of pool concepts.
    rng = np.random.default_rng(11)
    listed = 0
    for _ in range(30):
        model, rel, _, _ = random_model(rng, max_elements=20, max_categories=4)
        built = order_matrix(build_preferential(model, rel))
        order = built ^ (rng.random(built.shape) < 0.1)
        p = preferential(model, rel, model.element_ids, order)
        got = [c.to_json() for c in verify_klm(p)]
        pool = default_concept_pool(model.category_names)
        assert got == [c.to_json() for c in verify_klm(p, pool)]
        listed += sum(len(c["violations"]) for c in got)
    assert listed > 0


def test_property_check_json_shape(cluster_pref):
    doc = verify_order_axioms(cluster_pref)[0].to_json()
    assert set(doc) == {"check", "status", "violations", "required", "notes"}


def test_empty_domain_model(trained_map):
    pref = build_preferential(build_model(trained_map, (), categories=["A"]))
    assert pref.bits.shape == (0, 0)
    assert typicality_extension(pref, Name("A")) == frozenset()
    for check in verify_order_axioms(pref):
        if check.required:
            assert check.status == "pass"
