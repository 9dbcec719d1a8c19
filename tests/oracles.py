"""Independent reference implementations used to cross-check the library.

Everything here is written with plain Python loops and dicts, straight from
the definitions, sharing no code with the package internals, except that
``oracle_verify_klm`` takes the report types from the library and
``oracle_model_from_snapshot`` the snapshot reading and the derivation,
since what it is the reference for is the comparison that follows them.
Tests compare library outputs against these.  ``order_matrix`` and
``preferential`` turn the library's bit rows of an order into an N x N
boolean matrix and back, with the library's own packing helpers; the
``faulty_*`` helpers give library steps a fault that the comparisons must
catch.

The set-based routes live here too: ``extension`` evaluates a concept to a
frozenset of element ids, and ``minimal_elements`` reads the minima of a set
off the whole order.  ``typicality_extension``, ``entails`` and
``oracle_verify_klm`` build on them; they are the references for the
library's mask-based ``extension_mask``, ``minima``, ``somlogic check`` and
``verify_klm``.
"""

from __future__ import annotations

import functools
import math
from itertools import compress
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from somlogic import jsonio, preferences
from somlogic.checker import SpecificityRelation
from somlogic.concepts import And, Bot, ConceptExpr, Inclusion, Name, Top, parse_query, pretty
from somlogic.errors import InputError, ParseError, UnknownCategoryError
from somlogic.model import SemanticModel, _derive_snapshot
from somlogic.preferences import (
    PreferentialModel,
    PropertyCheck,
    Violation,
    _bit_rows,
    _check,
    _unpacked,
    default_concept_pool,
)


def rd_table(model: SemanticModel, name: str) -> dict[str, float]:
    """Category ``name``'s rd by element id, in domain order, read off its
    row of ``model.rd``; empty for a category without stimuli."""
    if model.categories[name].empty:
        return {}
    return dict(zip(model.element_ids, model.rd[model.row_of[name]].tolist()))


def extension_ids(model: SemanticModel, name: str) -> frozenset[str]:
    """The ids of category ``name``'s extension, read off its row of
    ``model.ext``."""
    return frozenset(compress(model.element_ids, model.ext[model.row_of[name]].tolist()))


def dist(a, b) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def oracle_bmu(weight_rows, x) -> int:
    """Lowest index minimising Euclidean distance."""
    best, best_d = 0, dist(weight_rows[0], x)
    for i in range(1, len(weight_rows)):
        d = dist(weight_rows[i], x)
        if d < best_d:
            best, best_d = i, d
    return best


def oracle_sq_dists(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared distances from each row of ``x`` to each row of ``w``, as the
    literal expression whose float results the library reproduces bit for
    bit: numpy's own sum over the contiguous feature axis of a (rows, units,
    dim) array."""
    return ((x[:, np.newaxis, :] - w[np.newaxis, :, :]) ** 2).sum(axis=2)


def oracle_qe(weight_rows, vectors) -> float:
    total = 0.0
    for v in vectors:
        total += min(dist(w, v) for w in weight_rows)
    return total / len(vectors)


def oracle_present(weights: np.ndarray, cols: int, x: np.ndarray, lr: float, radius: float) -> np.ndarray:
    """The weights after one presentation, by the formula from each unit's
    grid coordinates: the BMU is the first unit nearest ``x``, h =
    exp(-grid_dist^2 / (2 * radius^2)) around it, and each unit moves to
    (1 - a) * w + a * x with a = lr * h."""
    bmu = int(np.argmin(((weights - x) ** 2).sum(axis=1)))
    coords = np.array([divmod(u, cols) for u in range(len(weights))], dtype=np.float64)
    gd2 = ((coords - coords[bmu]) ** 2).sum(axis=1)
    a = (lr * np.exp(-gd2 / (2.0 * radius * radius)))[:, np.newaxis]
    return (1.0 - a) * weights + a * x


def oracle_schedule(n_samples: int, cfg) -> Iterator[tuple[int, int, float, float]]:
    """(epoch, sample index, lr, radius) for every presentation, one step
    at a time: a fresh order per epoch from one generator seeded with
    ``cfg.seed`` (data order without ``shuffle``), and each parameter the
    two-product lerp start * (1 - frac) + end * frac at frac = t / (total -
    1) over the ``total`` presentations (0.0 when there is one)."""
    rng = np.random.default_rng(cfg.seed)
    total = cfg.epochs * n_samples
    t = 0
    for epoch in range(cfg.epochs):
        if cfg.shuffle:
            order = rng.permutation(n_samples)
        else:
            order = np.arange(n_samples)
        for i in order:
            frac = t / (total - 1) if total > 1 else 0.0
            # two-product lerp hits both endpoints exactly
            lr = cfg.lr_start * (1.0 - frac) + cfg.lr_end * frac
            radius = cfg.radius_start * (1.0 - frac) + cfg.radius_end * frac
            yield epoch, int(i), lr, radius
            t += 1


def oracle_train(som, data, cfg) -> tuple[np.ndarray, list[float]]:
    """The weights ``train`` reaches and its per-epoch quantization errors,
    one ``oracle_present`` per step of ``oracle_schedule``."""
    x = np.array([s.features for s in data], dtype=np.float64)
    w = som.weights.copy()
    qe_log: list[float] = []

    def qe() -> float:
        return float(np.sqrt(oracle_sq_dists(x, w).min(axis=1)).mean())

    current_epoch = 0
    for epoch, i, lr, radius in oracle_schedule(len(data), cfg):
        if epoch != current_epoch:
            qe_log.append(qe())
            current_epoch = epoch
        w = oracle_present(w, som.cols, x[i], lr, radius)
    if cfg.epochs:
        qe_log.append(qe())
    return w, qe_log


def oracle_rd(y_feats, ensemble_feats, precision) -> float:
    num = min(dist(y_feats, w) for w in ensemble_feats)
    if precision > 0.0:
        return num / precision
    return 0.0 if num == 0.0 else math.inf


def oracle_kb_inclusions(names, criteria, empty) -> frozenset[Inclusion]:
    """The KB that ``kb_inclusions`` picks, built afresh from its
    definition: the inclusion of each kind between each (i, j) whose
    ``criteria[kind][i][j]`` holds, and ``Ci <= Bot`` for each ``empty[i]``."""
    kb = {Inclusion("strict", Name(names[i]), Bot()) for i in range(len(names)) if empty[i]}
    for kind, holds in criteria.items():
        kb |= {Inclusion(kind, Name(names[i]), Name(names[j]))
               for i in range(len(names)) for j in range(len(names)) if holds[i][j]}
    return frozenset(kb)


def faulty_inclusion_table(table: np.ndarray, k: int, fault: str) -> np.ndarray:
    """``table``, an ``inclusion_table`` over k names, with one fault for the
    comparisons to catch: each kind's k x k block ``"transposed"``, or the
    two kinds' blocks swapped (``"kinds-swapped"``)."""
    blocks = table[k:].reshape(2, k, k)
    blocks = blocks.transpose(0, 2, 1) if fault == "transposed" else blocks[::-1]
    return np.concatenate((table[:k], blocks.ravel()))


def faulty_suffix_tables(groups, fault: str):
    """The ``(lo, rank, ge)`` groups of ``_suffix_tables`` with one fault
    for the order comparisons to catch, carried from each group into the
    next: the previous group's last ranks replace the first ranks of the
    next group (``"stale-rank"``), or its last table stays ORed into the
    next group's first table (``"stale-table"``)."""
    prev = None
    for lo, rank, ge in groups:
        if prev is not None:
            if fault == "stale-rank":
                rank[0] = prev[0]
            else:
                ge[0] |= prev[1]
        prev = rank[-1].copy(), ge[-1].copy()
        yield lo, rank, ge


def faulty_overriders(over: dict[int, list[int]]) -> dict[int, list[int]]:
    """``_overriders`` with one fault for the order comparisons to catch:
    each overridden category's accumulator skips its first overriding
    category."""
    return {j: hs[1:] for j, hs in over.items()}


GROUP_FAULTS = ("stale-rank", "stale-table", "skipped-overrider")


def faulty_group_build(monkeypatch, fault: str) -> None:
    """Make ``_global_order`` build its tables or accumulators with one of
    ``GROUP_FAULTS``: those of ``faulty_suffix_tables`` or
    ``faulty_overriders``."""
    if fault == "skipped-overrider":
        over = preferences._overriders
        monkeypatch.setattr(
            preferences, "_overriders", lambda cats, rel: faulty_overriders(over(cats, rel))
        )
    else:
        groups = preferences._suffix_tables
        monkeypatch.setattr(
            preferences, "_suffix_tables", lambda rd: faulty_suffix_tables(groups(rd), fault)
        )


def parse_kb_text(text: str) -> list[Inclusion]:
    """The inclusions of a knowledge-base file as ``kb_file_text`` writes
    it: one per line, ``#`` starting a comment that runs to the end of the
    line, blank lines ignored.  A line that does not parse, or parses to a
    bare concept, raises ParseError naming its line number."""
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            inc = parse_query(line)
        except ParseError as exc:
            raise ParseError(f"line {line_no}: {exc.args[0]}") from exc
        if not isinstance(inc, Inclusion):
            raise ParseError(f"line {line_no}: expected an inclusion with '<='")
        out.append(inc)
    return out


def oracle_global_prefer(rd_tables, above, x, y) -> bool:
    """Direct transcription of the combination rule.

    ``rd_tables``: {category: {eid: rd}}, ``above``: {category: iterable of
    strictly more specific categories}.
    """
    strict_somewhere = False
    for c in rd_tables:
        if rd_tables[c][x] < rd_tables[c][y]:
            strict_somewhere = True
    if not strict_somewhere:
        return False
    for cj in rd_tables:
        if rd_tables[cj][x] <= rd_tables[cj][y]:
            continue
        override = False
        for ch in above.get(cj, ()):
            if ch in rd_tables and rd_tables[ch][x] < rd_tables[ch][y]:
                override = True
        if not override:
            return False
    return True


def oracle_minimal(prefers, eids) -> frozenset:
    """Elements of ``eids`` that nothing in ``eids`` is preferred to."""
    eids = list(eids)
    out = set()
    for y in eids:
        if not any(prefers(x, y) for x in eids):
            out.add(y)
    return frozenset(out)


def extension(model: SemanticModel, expr: ConceptExpr) -> frozenset[str]:
    """The set of domain element ids the concept denotes in the model."""
    if isinstance(expr, Top):
        return frozenset(model.element_ids)
    if isinstance(expr, Bot):
        return frozenset()
    if isinstance(expr, Name):
        try:
            return extension_ids(model, expr.name)
        except KeyError:
            raise UnknownCategoryError(
                f"concept name {expr.name!r} is not a learned category"
            ) from None
    if isinstance(expr, And):
        return frozenset.intersection(*(extension(model, p) for p in expr.parts))
    raise InputError(f"not a concept expression: {expr!r}")


def order_matrix(pref: PreferentialModel) -> np.ndarray:
    """The global preference of ``pref`` as an N x N boolean matrix:
    entry (i, j) is True iff element i is preferred to element j."""
    return _unpacked(pref.bits, len(pref.element_ids))


def preferential(base, specificity, element_ids, order) -> PreferentialModel:
    """A PreferentialModel whose order is the N x N boolean matrix
    ``order``, bypassing the builder."""
    order = np.asarray(order, dtype=bool).reshape(len(element_ids), len(element_ids))
    return PreferentialModel(base, specificity, tuple(element_ids), _bit_rows(order))


def minimal_elements(pref: PreferentialModel, eids: Iterable[str]) -> frozenset[str]:
    """Subset of ``eids`` with no globally preferred element inside ``eids``,
    read off the whole order.  Non-empty whenever ``eids`` is
    (the order is well-founded on a finite domain)."""
    idx = []
    for eid in eids:
        try:
            idx.append(pref._row[eid])
        except KeyError:
            raise InputError(f"unknown domain element {eid!r}") from None
    if not idx:
        return frozenset()
    idx = sorted(idx)
    sub = order_matrix(pref)[np.ix_(idx, idx)]
    dominated = sub.any(axis=0)
    return frozenset(pref.element_ids[i] for i, dom in zip(idx, dominated) if not dom)


def typicality_extension(pref: PreferentialModel, expr: ConceptExpr) -> frozenset[str]:
    """Extension of T(expr): the globally minimal elements of ext(expr),
    read off the whole order."""
    return minimal_elements(pref, extension(pref.base, expr))


def entails(pref: PreferentialModel, kind: str, lhs: ConceptExpr, rhs: ConceptExpr) -> bool:
    """Inclusion over possibly complex concepts, evaluated on the whole
    global preference: the reference route for ``somlogic check``."""
    if kind == "strict":
        return extension(pref.base, lhs) <= extension(pref.base, rhs)
    if kind == "defeasible":
        return typicality_extension(pref, lhs) <= extension(pref.base, rhs)
    raise InputError(f"unknown inclusion kind {kind!r}")


def oracle_order_violations(ids, order) -> dict[str, list[tuple[str, tuple]]]:
    """Every irreflexivity, transitivity and modularity violation of the
    relation ``order[i][j]`` over ``ids`` as (instance, witnesses), pairs
    (i, j) in row-major order, each with its first middle element."""
    n = len(ids)
    out = {"irreflexivity": [], "transitivity": [], "modularity": []}
    for i in range(n):
        if order[i][i]:
            out["irreflexivity"].append((f"{ids[i]} < {ids[i]}", (ids[i],)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not order[i][j] and order[i][k] and order[k][j]:
                    out["transitivity"].append((
                        f"{ids[i]} < {ids[k]} < {ids[j]} but not {ids[i]} < {ids[j]}",
                        (ids[i], ids[k], ids[j]),
                    ))
                    break
            for z in range(n):
                if order[i][j] and not order[i][z] and not order[z][j]:
                    out["modularity"].append((
                        f"{ids[i]} < {ids[j]} but {ids[z]} is unordered against both",
                        (ids[i], ids[j], ids[z]),
                    ))
                    break
    return out


def oracle_verify_klm(
    pref: PreferentialModel,
    pool: Sequence[ConceptExpr] | None = None,
    included: Callable[[frozenset, frozenset], bool] = frozenset.__le__,
    minimal: Callable[[frozenset], frozenset] | None = None,
) -> list[PropertyCheck]:
    """The KLM postulate checks as plain loops over pool concepts, pairs and
    triples, on frozensets of element ids: the reference for the per-class
    decisions of ``preferences.verify_klm``.  Minima come from
    ``minimal_elements``, which is itself checked against
    ``oracle_minimal``.  Reflexivity, LLE, RW, And and Or hold whatever
    the order, so a test makes them fail with a misreading that both sides
    share: ``minimal(set)``, in place of the minima, or
    ``included(ext(D), ext(E))``, RW's premise ext(D) inside ext(E), which
    nothing else reads."""
    if minimal is None:
        minimal = functools.partial(minimal_elements, pref)
    if pool is None:
        pool = default_concept_pool(pref.base.category_names)
    pool = list(pool)
    n = len(pool)
    labels = [pretty(c) for c in pool]
    exts = [extension(pref.base, c) for c in pool]
    typs = [minimal(e) for e in exts]
    entail = [[typs[i] <= exts[j] for j in range(n)] for i in range(n)]
    subset = [[included(exts[i], exts[j]) for j in range(n)] for i in range(n)]

    min_cache: dict[frozenset, frozenset] = {}

    def minima(s: frozenset) -> frozenset:
        if s not in min_cache:
            min_cache[s] = minimal(s)
        return min_cache[s]

    def violation(c: int, d: int, e: int, bad: frozenset) -> Violation:
        return Violation(
            instance=f"C={labels[c]}, D={labels[d]}, E={labels[e]}",
            witnesses=tuple(sorted(bad))[:5],
        )

    refl = [
        Violation(instance=f"C={labels[i]}", witnesses=tuple(sorted(typs[i] - exts[i]))[:5])
        for i in range(n)
        if not typs[i] <= exts[i]
    ]

    lle: list[Violation] = []
    for i in range(n):
        for j in range(i + 1, n):
            if exts[i] != exts[j]:
                continue
            for d in range(n):
                if entail[i][d] != entail[j][d]:
                    lle.append(
                        Violation(
                            instance=f"C1={labels[i]}, C2={labels[j]}, D={labels[d]}"
                        )
                    )

    # Right Weakening, And and Cautious Monotonicity all assume C |~ D.
    rw: list[Violation] = []
    conj: list[Violation] = []
    cm: list[Violation] = []
    for c in range(n):
        for d in range(n):
            if not entail[c][d]:
                continue
            min_cd = minima(exts[c] & exts[d])
            for e in range(n):
                if not entail[c][e]:
                    if subset[d][e]:
                        rw.append(violation(c, d, e, typs[c] - exts[e]))
                    continue
                if not typs[c] <= (exts[d] & exts[e]):
                    conj.append(violation(c, d, e, typs[c] - (exts[d] & exts[e])))
                if not min_cd <= exts[e]:
                    cm.append(violation(c, d, e, min_cd - exts[e]))

    expressible = set(exts)
    or_viol: list[Violation] = []
    skipped = 0
    for c in range(n):
        for d in range(c + 1, n):
            union = exts[c] | exts[d]
            if union not in expressible:
                skipped += 1
                continue
            min_u = minima(union)
            for e in range(n):
                if entail[c][e] and entail[d][e] and not min_u <= exts[e]:
                    or_viol.append(violation(c, d, e, min_u - exts[e]))
    return [
        _check("reflexivity", refl),
        _check("left_logical_equivalence", lle),
        _check("right_weakening", rw),
        _check("and", conj),
        _check("cautious_monotonicity", cm),
        _check(
            "or",
            or_viol,
            notes=(
                f"checked only pairs whose union is the extension of a pool "
                f"concept; {skipped} pairs skipped as inexpressible"
            ),
        ),
    ]


# ==============================================================
# Synthetic models
# ==============================================================


def oracle_model_from_snapshot(doc: dict) -> SemanticModel:
    """``model_from_snapshot`` with the features column cut element by
    element and every stored table compared element by element: the
    loader's slow reference.  It cuts a well-typed column into one slice of
    ``input_dim`` numbers per element (``_feature_rows``), reads and derives
    the model with the library's own ``_derive_snapshot``, whose features
    must be those slices, and refuses, in the same order and with the same
    ``InputError`` message, an ``rd_max`` or rd entry that differs from the
    derived one."""
    rows = _feature_rows(doc)
    model, stored = _derive_snapshot(doc)
    if rows is not None and model.features.tolist() != rows:
        raise AssertionError(f"the loader read features {model.features.tolist()}, "
                             f"the column holds {rows}")
    missing = "missing"

    def refuse(where: str, got, want) -> InputError:
        return InputError(f"model snapshot differs from its re-derivation: {where}: "
                          f"stored {got!r}, derived {want!r}")

    for name, t in model.categories.items():
        rd_max, rd = stored[name]
        if rd_max != t.rd_max:
            raise refuse(f"category {name!r}, rd_max", rd_max, t.rd_max)
        derived = rd_table(model, name)
        # every value as read, or every value as model_snapshot writes it
        encoded = {eid: jsonio.encode_float(v) for eid, v in derived.items()}
        if rd != derived and rd != encoded:
            for eid in [*derived, *rd]:
                got, want = rd.get(eid, missing), encoded.get(eid, missing)
                if got != want:
                    raise refuse(f"category {name!r}, rd of {eid!r}", got, want)
    return model


def _feature_rows(doc) -> list[list] | None:
    """Element i's features, numbers i * input_dim to (i + 1) * input_dim
    of the snapshot's features column, for each element in turn; None when
    the loader refuses the snapshot before it counts the column's numbers.
    A slice that comes up short, or a number left over, is refused with
    the loader's message."""
    if not isinstance(doc, dict):
        return None
    column, dim, elements = doc.get("features"), doc.get("input_dim"), doc.get("elements")
    if not (type(column) is list and all(type(v) in (float, int) for v in column)
            and type(dim) is int and dim >= 1 and type(elements) is list):
        return None
    rows = [column[i * dim:(i + 1) * dim] for i in range(len(elements))]
    if any(len(row) != dim for row in rows) or len(column) > len(elements) * dim:
        raise InputError(f"features column holds {len(column)} numbers, {len(elements)} elements "
                         f"of input_dim {dim} take {len(elements) * dim}")
    return rows


def old_format(doc: dict) -> dict:
    """``doc`` as ``model_snapshot`` wrote it before the features column:
    each element's features in its record, and the derived values that the
    format has since dropped put back, each element's ``origin``, each
    category's ``precision`` and the top-level ``extensions``, a sorted list
    of element ids per category.  Returns ``doc``."""
    model = _derive_snapshot(doc)[0]
    del doc["features"]
    for element, features, origin in zip(doc["elements"], model.features.tolist(), model.origins):
        element.update(features=features, origin=origin)
    for name, cat in doc["categories"].items():
        cat["precision"] = model.categories[name].precision
    doc["extensions"] = {name: sorted(extension_ids(model, name)) for name in model.row_of}
    return doc


def make_model(rd_tables, stimulus_elements, bmu_elements=None, extra_elements=()) -> SemanticModel:
    """Build a SemanticModel directly from prescribed rd tables.

    ``rd_tables``: {category: {eid: rd}} over a shared element id set.
    ``stimulus_elements``: {category: [eid, ...]} declaring which elements
    count as that category's input stimuli; rd_max is their max rd.  BMU
    elements default to all elements at rd exactly 0; ``bmu_elements`` may
    prescribe a subset per category instead.  Features are synthetic
    placeholders (the tables, not geometry, drive these models).
    """
    all_ids: list[str] = []
    for tbl in rd_tables.values():
        for eid in tbl:
            if eid not in all_ids:
                all_ids.append(eid)
    for eid in extra_elements:
        if eid not in all_ids:
            all_ids.append(eid)
    refs = {}
    for cat, tbl in rd_tables.items():
        missing = [e for e in all_ids if e not in tbl]
        if missing:
            raise ValueError(f"rd table for {cat} misses {missing}")
        stim = tuple(stimulus_elements[cat])
        if not stim:
            raise ValueError(f"category {cat} needs stimulus elements")
        if bmu_elements is not None and cat in bmu_elements:
            bmu = tuple(bmu_elements[cat])
            if any(tbl[e] != 0.0 for e in bmu):
                raise ValueError(f"BMU elements of {cat} must sit at rd 0")
        else:
            bmu = tuple(e for e in all_ids if tbl[e] == 0.0)
        refs[cat] = (tuple(range(len(bmu))), bmu, stim)
    rd = np.array([[tbl[e] for e in all_ids] for tbl in rd_tables.values()], dtype=np.float64)
    return SemanticModel(
        element_ids=all_ids,
        col_of={eid: i for i, eid in enumerate(all_ids)},
        features=np.array([(float(i), 0.0) for i in range(len(all_ids))]).reshape(-1, 2),
        refs=refs,
        precision=[1.0] * len(refs),
        rd=rd.reshape(len(refs), len(all_ids)),
    )


def two_way_override_model() -> tuple[SemanticModel, SpecificityRelation]:
    """Two categories that disagree on x and y, with a specificity relation
    that declares each more specific than the other.  Each overrides the
    other's objection, so the global preference has x < y < x and is no
    strict order; no map gives this relation (it is a cycle)."""
    rd = {
        "K1": {"x": 0.0, "y": 0.5, "s1": 1.0, "s2": 1.0},
        "K2": {"x": 0.5, "y": 0.0, "s1": 1.0, "s2": 1.0},
    }
    model = make_model(rd, {"K1": ["x", "s1"], "K2": ["y", "s2"]})
    return model, SpecificityRelation(pairs=frozenset({("K1", "K2"), ("K2", "K1")}))


def random_model(rng, max_elements=40, max_categories=5):
    """A random synthetic model plus a random valid specificity relation.

    rd values come from a small grid so ties and zeros are common; with a
    little probability a category is degenerate and assigns rd = inf to some
    elements.  The specificity relation is a random strict partial order:
    edges drawn along a random topological order, then transitively closed.
    """
    n = int(rng.integers(1, max_elements + 1))
    k = int(rng.integers(1, max_categories + 1))
    eids = [f"e{i}" for i in range(n)]
    cats = [f"K{j}" for j in range(k)]

    grid = [0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
    rd_tables = {}
    stim = {}
    for c in cats:
        degenerate = rng.random() < 0.15
        tbl = {}
        for e in eids:
            if degenerate and rng.random() < 0.3:
                tbl[e] = math.inf
            else:
                tbl[e] = grid[int(rng.integers(0, len(grid)))]
        zero = eids[int(rng.integers(0, n))]
        tbl[zero] = 0.0  # every category needs at least one most-typical element
        rd_tables[c] = tbl
        finite = [e for e in eids if math.isfinite(tbl[e])]
        n_stim = int(rng.integers(1, len(finite) + 1))
        picked = list(rng.choice(finite, size=n_stim, replace=False))
        if zero not in picked:
            picked.append(zero)
        stim[c] = sorted(picked)

    order = list(rng.permutation(k))
    edges = set()
    for a in range(k):
        for b in range(a + 1, k):
            if rng.random() < 0.35:
                edges.add((cats[order[a]], cats[order[b]]))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(edges):
            for (c, d) in list(edges):
                if b == c and (a, d) not in edges:
                    edges.add((a, d))
                    changed = True
    model = make_model(rd_tables, stim)
    rel = SpecificityRelation(pairs=frozenset(edges))
    above = {c: {a for (a, b) in edges if b == c} for c in cats}
    return model, rel, rd_tables, above
