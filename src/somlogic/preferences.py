"""Combining per-category preferences into one global strict order.

Each category with stimuli ranks domain elements by relative distance.  The
combined relation declares x globally preferred to y when

(i)  some category strictly prefers x to y, and
(ii) every category Cj either weakly prefers x (rd(x, Cj) <= rd(y, Cj)) or is
     overridden by a strictly more specific category Ch that strictly
     prefers x.

Specificity is the relation derived from strict inclusions; a more specific
category wins conflicts against the categories it refines, so (for example)
an element typical for the specific category can be globally preferred even
though the general category mildly disagrees.

The result is an irreflexive, transitive, well-founded relation on the finite
domain, i.e. exactly the preference structure of a preferential-semantics
model; it need not be modular.  ``verify_order_axioms`` checks all of this on
the materialised relation, and ``verify_klm`` checks the standard closure
postulates (Reflexivity, Left Logical Equivalence, Right Weakening, And,
Cautious Monotonicity, and Or where the union is expressible) for the
induced nonmonotonic entailment  C |~ D  iff  every globally minimal element
of ext(C) lies in ext(D).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .checker import SpecificityRelation, derive_specificity
from .concepts import And, Bot, ConceptExpr, Name, Top, extension, pretty
from .errors import ConsistencyError, InputError
from .model import SemanticModel

__all__ = [
    "PreferentialModel",
    "global_prefer",
    "build_preferential",
    "minimal_elements",
    "typicality_extension",
    "entails",
    "Violation",
    "PropertyCheck",
    "verify_order_axioms",
    "verify_klm",
    "default_concept_pool",
]


def _ranked_categories(model: SemanticModel) -> list[str]:
    return [c for c in model.category_names if not model.categories[c].empty]


def global_prefer(
    model: SemanticModel,
    specificity: SpecificityRelation,
    x_eid: str,
    y_eid: str,
) -> bool:
    """Direct evaluation of the combination rule for one element pair.

    Kept deliberately close to the definition; ``build_preferential``
    materialises the same relation in bulk and asserts the order axioms.
    """
    model.element(x_eid)
    model.element(y_eid)
    cats = _ranked_categories(model)

    strict_somewhere = False
    for c in cats:
        rd_c = model.categories[c].rd
        if rd_c[x_eid] < rd_c[y_eid]:
            strict_somewhere = True
            break
    if not strict_somewhere:
        return False

    for cj in cats:
        rd_j = model.categories[cj].rd
        if rd_j[x_eid] <= rd_j[y_eid]:
            continue
        overridden = False
        for ch in specificity.above(cj):
            if ch not in model.categories or model.categories[ch].empty:
                continue
            rd_h = model.categories[ch].rd
            if rd_h[x_eid] < rd_h[y_eid]:
                overridden = True
                break
        if not overridden:
            return False
    return True


@dataclass
class PreferentialModel:
    """A semantic model together with the materialised global preference.

    ``order[i, j]`` is True iff element ``element_ids[i]`` is globally
    preferred to ``element_ids[j]``.
    """

    base: SemanticModel
    specificity: SpecificityRelation
    element_ids: tuple[str, ...]
    order: np.ndarray

    def __post_init__(self):
        self._row = {eid: i for i, eid in enumerate(self.element_ids)}

    def prefers(self, x_eid: str, y_eid: str) -> bool:
        try:
            return bool(self.order[self._row[x_eid], self._row[y_eid]])
        except KeyError as exc:
            raise InputError(f"unknown domain element {exc.args[0]!r}") from None

    def pairs(self) -> frozenset[tuple[str, str]]:
        xs, ys = np.nonzero(self.order)
        return frozenset(
            (self.element_ids[i], self.element_ids[j]) for i, j in zip(xs, ys)
        )


def build_preferential(
    model: SemanticModel, specificity: SpecificityRelation | None = None
) -> PreferentialModel:
    """Materialise the global preference over the whole domain.

    The relation is checked to be an irreflexive, transitive strict order
    before it is returned; a failure is a ConsistencyError naming a witness,
    never a silently wrong model.
    """
    if specificity is None:
        specificity = derive_specificity(model)
    ids = model.element_ids
    n = len(ids)
    cats = _ranked_categories(model)

    if n == 0 or not cats:
        order = np.zeros((n, n), dtype=bool)
        return PreferentialModel(model, specificity, ids, order)

    rk = np.array(
        [[model.categories[c].rd[eid] for eid in ids] for c in cats], dtype=np.float64
    )
    cat_row = {c: i for i, c in enumerate(cats)}
    less = rk[:, :, np.newaxis] < rk[:, np.newaxis, :]

    order = less.any(axis=0)
    for cj in cats:
        # rd is never NaN, so rd(x) <= rd(y) is exactly not rd(y) < rd(x).
        ok = ~less[cat_row[cj]].T
        for ch in specificity.above(cj):
            if ch in cat_row:
                ok |= less[cat_row[ch]]
        order &= ok

    refl, trans = _order_violations(ids, order)
    if refl or trans:
        raise ConsistencyError(
            f"global preference is not a strict order: {(refl + trans)[0].instance}"
        )
    return PreferentialModel(model, specificity, ids, order)


def minimal_elements(pref: PreferentialModel, eids: Iterable[str]) -> frozenset[str]:
    """Subset of ``eids`` with no globally preferred element inside ``eids``.
    Non-empty whenever ``eids`` is (the order is well-founded on a finite
    domain)."""
    idx = []
    for eid in eids:
        try:
            idx.append(pref._row[eid])
        except KeyError:
            raise InputError(f"unknown domain element {eid!r}") from None
    if not idx:
        return frozenset()
    idx = sorted(idx)
    sub = pref.order[np.ix_(idx, idx)]
    dominated = sub.any(axis=0)
    return frozenset(pref.element_ids[i] for i, dom in zip(idx, dominated) if not dom)


def typicality_extension(pref: PreferentialModel, expr: ConceptExpr) -> frozenset[str]:
    """Extension of T(expr): the globally minimal elements of ext(expr)."""
    return minimal_elements(pref, extension(pref.base, expr))


def entails(pref: PreferentialModel, kind: str, lhs: ConceptExpr, rhs: ConceptExpr) -> bool:
    """Inclusion over possibly complex concepts, evaluated globally."""
    if kind == "strict":
        return extension(pref.base, lhs) <= extension(pref.base, rhs)
    if kind == "defeasible":
        return typicality_extension(pref, lhs) <= extension(pref.base, rhs)
    raise InputError(f"unknown inclusion kind {kind!r}")


# ==============================================================
# Verification
# ==============================================================


@dataclass(frozen=True)
class Violation:
    instance: str
    witnesses: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"instance": self.instance, "witnesses": list(self.witnesses)}


@dataclass(frozen=True)
class PropertyCheck:
    """Result of one verification pass.

    ``required=False`` marks properties the semantics does not promise
    (currently only modularity); their violations are informational.
    """

    check: str
    status: str  # "pass" | "fail"
    violations: tuple[Violation, ...]
    required: bool = True
    notes: str | None = None

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "violations": [v.to_json() for v in self.violations],
            "required": self.required,
            "notes": self.notes,
        }


_MAX_VIOLATIONS = 10


def _check(
    name: str, violations: Sequence[Violation], required: bool = True, notes: str | None = None
) -> PropertyCheck:
    return PropertyCheck(
        name,
        "pass" if not violations else "fail",
        tuple(violations[:_MAX_VIOLATIONS]),
        required,
        notes,
    )


def _order_violations(
    ids: Sequence[str], m: np.ndarray
) -> tuple[list[Violation], list[Violation]]:
    """Irreflexivity and transitivity violations of the relation ``m`` over
    ``ids``, at most ``_MAX_VIOLATIONS`` of each."""
    refl = [
        Violation(instance=f"{ids[i]} < {ids[i]}", witnesses=(ids[i],))
        for i in np.nonzero(m.diagonal())[0][:_MAX_VIOLATIONS]
    ]
    m8 = m.astype(np.uint8)
    gap = ((m8 @ m8) > 0) & ~m  # a diagonal gap here is a 2-cycle x < z < x
    trans = []
    for i, j in itertools.islice(zip(*np.nonzero(gap)), _MAX_VIOLATIONS):
        k = int(np.nonzero(m[i] & m[:, j])[0][0])
        trans.append(
            Violation(
                instance=f"{ids[i]} < {ids[k]} < {ids[j]} but not {ids[i]} < {ids[j]}",
                witnesses=(ids[i], ids[k], ids[j]),
            )
        )
    return refl, trans


def verify_order_axioms(pref: PreferentialModel) -> list[PropertyCheck]:
    """Check irreflexivity, transitivity, well-foundedness and (informational
    only) modularity of the materialised global preference."""
    ids = pref.element_ids
    m = pref.order
    refl, trans = _order_violations(ids, m)
    out = [_check("irreflexivity", refl), _check("transitivity", trans)]

    # An irreflexive transitive relation on a finite set has no infinite
    # descending chain; report a failure only if the axioms above failed.
    wf_ok = not refl and not trans
    out.append(
        PropertyCheck(
            check="well_foundedness",
            status="pass" if wf_ok else "fail",
            violations=(),
            notes="finite domain; follows from irreflexivity and transitivity",
        )
    )

    mod: list[Violation] = []
    if len(ids):
        comp = (~m).astype(np.uint8)
        counts = comp @ comp  # counts[x, y] = |{z : not x<z and not z<y}|
        bad = m & (counts > 0)
        for i, j in itertools.islice(zip(*np.nonzero(bad)), _MAX_VIOLATIONS):
            z = int(np.nonzero(~m[i] & ~m[:, j])[0][0])
            mod.append(
                Violation(
                    instance=(
                        f"{ids[i]} < {ids[j]} but {ids[z]} is unordered against both"
                    ),
                    witnesses=(ids[i], ids[j], ids[z]),
                )
            )
    out.append(
        _check(
            "modularity",
            mod,
            required=False,
            notes="the combined preference is not required to be modular",
        )
    )
    return out


def default_concept_pool(names: Sequence[str], max_conjuncts: int = 3) -> list[ConceptExpr]:
    """Top, Bot, every category name, and every conjunction of up to
    ``max_conjuncts`` distinct names (right-nested, sorted)."""
    pool: list[ConceptExpr] = [Top(), Bot()]
    names = sorted(dict.fromkeys(names))
    for r in range(1, max_conjuncts + 1):
        for combo in itertools.combinations(names, r):
            expr: ConceptExpr = Name(combo[-1])
            for nm in reversed(combo[:-1]):
                expr = And(Name(nm), expr)
            pool.append(expr)
    return pool


def verify_klm(
    pref: PreferentialModel, pool: Sequence[ConceptExpr] | None = None
) -> list[PropertyCheck]:
    """Check the closure postulates of the induced entailment C |~ D over a
    concept pool (default: all conjunctions of up to three category names,
    plus Top and Bot).  All of them must hold in this semantics; a violation
    is an implementation bug surfacing, not an interesting phenomenon."""
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
