"""Independent reference implementations used to cross-check the library.

Everything here is written with plain Python loops and dicts, straight from
the definitions, sharing no code with the package internals, except that
``oracle_verify_klm``, ``typicality_extension`` and ``entails`` take
extensions, minima and the report types from the library.  Tests compare
library outputs against these.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from somlogic.checker import SpecificityRelation
from somlogic.concepts import ConceptExpr, extension, pretty
from somlogic.errors import InputError
from somlogic.model import SemanticModel
from somlogic.preferences import (
    PreferentialModel,
    PropertyCheck,
    Violation,
    _check,
    default_concept_pool,
    minimal_elements,
)


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


def oracle_rd(y_feats, ensemble_feats, precision) -> float:
    num = min(dist(y_feats, w) for w in ensemble_feats)
    if precision > 0.0:
        return num / precision
    return 0.0 if num == 0.0 else math.inf


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


def typicality_extension(pref: PreferentialModel, expr: ConceptExpr) -> frozenset[str]:
    """Extension of T(expr): the globally minimal elements of ext(expr),
    read off the whole materialised order."""
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
    pref: PreferentialModel, pool: Sequence[ConceptExpr] | None = None
) -> list[PropertyCheck]:
    """The KLM postulate checks as plain loops over pool concepts, pairs and
    triples, on frozensets of element ids: the reference for the
    distinct-extension tensors of ``preferences.verify_klm``.  Minima come
    from ``minimal_elements``, which is itself checked against
    ``oracle_minimal``."""
    if pool is None:
        pool = default_concept_pool(pref.base.category_names)
    pool = list(pool)
    n = len(pool)
    labels = [pretty(c) for c in pool]
    exts = [extension(pref.base, c) for c in pool]
    typs = [minimal_elements(pref, e) for e in exts]
    entail = [[typs[i] <= exts[j] for j in range(n)] for i in range(n)]
    subset = [[exts[i] <= exts[j] for j in range(n)] for i in range(n)]

    min_cache: dict[frozenset, frozenset] = {}

    def minima(s: frozenset) -> frozenset:
        if s not in min_cache:
            min_cache[s] = minimal_elements(pref, s)
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
        input_dim=2,
        elements=[(eid, (float(i), 0.0)) for i, eid in enumerate(all_ids)],
        origins=["probe"] * len(all_ids),
        refs=refs,
        precision=[1.0] * len(refs),
        rd=rd.reshape(len(refs), len(all_ids)),
    )


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
