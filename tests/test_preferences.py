import functools
import itertools
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
    initial_model,
    minima,
    pretty,
    train,
    verify_klm,
    verify_order_axioms,
)
from somlogic.checker import SpecificityRelation
from somlogic import preferences
from somlogic.preferences import PreferentialModel, _void_keys, default_concept_pool

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
        pref = PreferentialModel(None, SpecificityRelation(pairs=frozenset()), ids, m)
        checks = {c.check: c for c in verify_order_axioms(pref)}
        got = {k: [(v.instance, v.witnesses) for v in checks[k].violations] for k in want}
        got["well_foundedness"] = checks["well_foundedness"].status
        got["statuses"] = [checks[k].status for k in want]
        refl, trans = preferences._order_violations(ids, m)
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
    # A budget of 1 word makes every row a chunk of its own, however many
    # successors it has; 40 words puts chunk ends at scattered rows.
    if budget is not None:
        monkeypatch.setattr(preferences, "_CHUNK_WORDS", budget)
    assert _boundary_mismatches() == []


def test_boundary_comparison_catches_unmasked_padding(monkeypatch):
    bit_rows = preferences._bit_rows

    def unmasked(m, complement=False):
        words = bit_rows(m)
        return ~words if complement else words

    monkeypatch.setattr(preferences, "_bit_rows", unmasked)
    sizes = {n for n, _name in _boundary_mismatches()}
    assert 65 in sizes and not sizes & {64, 128}  # no padding bits at 64 and 128


def test_boundary_comparison_catches_off_by_one_segments(monkeypatch):
    pair_chunks = preferences._pair_chunks

    def late(m, width):
        for i, j, starts in pair_chunks(m, width):
            yield i, j, np.r_[starts[:1], np.minimum(starts[1:] + 1, len(i) - 1)]

    monkeypatch.setattr(preferences, "_pair_chunks", late)
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
        typ = preferences._bit_minima(preferences._bit_rows(m), masks, mask_bits)
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
        monkeypatch.setattr(preferences, "_CHUNK_WORDS", budget)
    assert _bit_minima_mismatches() == []


def test_minima_comparison_catches_padding_left_set(monkeypatch):
    # Padding set in every bit row survives in the minima of the empty sets
    # (Bot, the empty category), which have no members to clear it.
    bit_rows = preferences._bit_rows

    def padded(m, complement=False):
        return bit_rows(m, complement) | ~bit_rows(np.ones((1, m.shape[1]), dtype=bool))

    monkeypatch.setattr(preferences, "_bit_rows", padded)
    sizes = {n for n, _name in _bit_minima_mismatches()}
    assert 65 in sizes and not sizes & {64, 128}  # no padding bits at 64 and 128


def test_minima_comparison_catches_off_by_one_segments(monkeypatch):
    pair_chunks = preferences._pair_chunks

    def late(m, width):
        for i, j, starts in pair_chunks(m, width):
            yield i, j, np.r_[starts[:1], np.minimum(starts[1:] + 1, len(i) - 1)]

    monkeypatch.setattr(preferences, "_pair_chunks", late)
    assert _bit_minima_mismatches()


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
    order = build_preferential(model, rel).order
    want = np.array([[oracle_global_prefer(rd, above, x, y) for y in ids] for x in ids])
    bad = int((order != want).sum())
    rng = np.random.default_rng(1)
    for mask in [np.ones(n, dtype=bool)] + [rng.random(n) < 0.5 for _ in range(3)]:
        sub = np.flatnonzero(mask)
        dominated = want[np.ix_(sub, sub)].any(axis=0)
        expected = np.zeros(n, dtype=bool)
        expected[sub[~dominated]] = True
        bad += not np.array_equal(minima(model, rel, mask), expected)
    return bad


@pytest.mark.parametrize("n", [9, 256, 257])
def test_rule_on_ranks_matches_oracle(n):
    # 256 distinct values fill uint8 ranks, 257 need uint16.
    assert _rank_rule_mismatches(n) == 0


def test_rank_comparison_catches_ranks_forced_into_uint8(monkeypatch):
    monkeypatch.setattr(np, "min_scalar_type", lambda value: np.dtype(np.uint8))
    assert _rank_rule_mismatches(256) == 0
    assert _rank_rule_mismatches(257) > 0


@pytest.mark.parametrize("n", [0, 8, 9])
def test_klm_report_matches_oracle_at_byte_edges(n):
    # Packed masks 0 bytes wide, exactly one byte, and one byte plus a bit.
    rng = np.random.default_rng(n)
    if n == 0:
        models = [(initial_model(["A", "B", "C"], 2), None)]
    else:
        models = []
        while len(models) < 6:
            model, rel, _, _ = random_model(rng, max_elements=n, max_categories=4)
            if len(model.element_ids) == n:
                models.append((model, rel))
    for model, rel in models:
        pref = build_preferential(model, rel)
        flipped = [pref.order ^ (rng.random(pref.order.shape) < 0.2) for _ in range(3)]
        for order in [pref.order, *flipped]:
            p = PreferentialModel(model, pref.specificity, model.element_ids, order)
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
    # The meet table numbers six extra sets here; a meet that points at
    # the wrong one changes the And and CM reports.
    rng = np.random.default_rng(0)
    cm_failures = 0
    for _ in range(6):
        model = _cube_model(rng)
        pref = build_preferential(model, SpecificityRelation(pairs=frozenset()))
        flipped = [pref.order ^ (rng.random(pref.order.shape) < d) for d in (0.02, 0.1)]
        for order in [pref.order, *flipped]:
            p = PreferentialModel(model, pref.specificity, model.element_ids, order)
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
    # order already have such a C & D, so they come from the family rows
    # past the classes.
    model = _overlap_model()
    names = model.category_names
    pairs = [And(Name(a), Name(b)) for a, b in itertools.combinations(names, 2)]
    past_classes = 0
    pref = build_preferential(model)
    rng = np.random.default_rng(3)
    flipped = [pref.order ^ (rng.random(pref.order.shape) < d) for d in (0.02, 0.05)]
    for pool in (default_concept_pool(names), pairs):
        ext_of = {pretty(c): frozenset(extension(model, c)) for c in pool}
        exts = set(ext_of.values())
        assert len({a & b for a in exts for b in exts} | exts) > len(exts)
        for order in [pref.order, *flipped]:
            p = PreferentialModel(model, pref.specificity, model.element_ids, order)
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
    assert len(set(_void_keys(np.packbits(np.vstack([a, b]), axis=1)).tolist())) == 2
    pref = build_preferential(m, SpecificityRelation(pairs=frozenset()))
    assert _minima_ids(m, pref.specificity, extension(m, Name("B"))) == {"e0", "e10"}
    got = [c.to_json() for c in verify_klm(pref)]
    assert got == [c.to_json() for c in oracle_verify_klm(pref)]
    assert all(c["status"] == "pass" for c in got)


def test_klm_report_comparison_catches_merged_classes(monkeypatch):
    # A class key without the last packed byte merges extensions that
    # differ only in their last elements; the oracle comparison sees it.
    def truncated(rows):
        return _void_keys(rows[:, :-1])

    monkeypatch.setattr(preferences, "_void_keys", truncated)
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


def test_index_built_pool_on_empty_domain():
    model = initial_model(["C", "A", "B"], 2)
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
        pref = build_preferential(model, rel)
        order = pref.order ^ (rng.random(pref.order.shape) < 0.1)
        p = PreferentialModel(model, rel, model.element_ids, order)
        got = [c.to_json() for c in verify_klm(p)]
        pool = default_concept_pool(model.category_names)
        assert got == [c.to_json() for c in verify_klm(p, pool)]
        listed += sum(len(c["violations"]) for c in got)
    assert listed > 0


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
