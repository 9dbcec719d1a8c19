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
model; it need not be modular.

The rule is stated once, in ``_global_order``, over any list of elements
(columns of the model's rd matrix): each pair is decided by the two
elements' rd values and specificity alone.
It has two callers.  ``build_preferential`` applies it to the whole domain
and checks nothing: ``verify_order_axioms`` then checks the axioms on the
materialised relation, once.  ``minima`` applies it to one set, e.g.
ext(C), given as a mask, and reads T(C) off that block, which is how
``somlogic check`` answers a defeasible query without the N x N order.
Nothing verifies that block afterwards, so ``minima`` checks it to be a
strict order itself.

``verify_klm`` checks the standard closure postulates (Reflexivity, Left
Logical Equivalence, Right Weakening, And, Cautious Monotonicity, and Or
where the union is expressible) for the induced nonmonotonic entailment
C |~ D  iff  every globally minimal element of ext(C) lies in ext(D).

The postulates are checked over the distinct extensions of the concept pool,
not over every pool concept: entailment depends on a concept only through
its extension, which is what LLE licenses.  Sets are boolean masks over the
domain: each pool concept is evaluated to one by ``extension_mask``, from
the model's extension masks.  Two masks fall into the same class exactly
when the bytes of their bit-packed rows are equal; the bytes themselves are
the dict keys, so no two different sets can share a class.  Minima and
inclusions come from boolean matrix products whose path counts are summed
in float32, exact below 2**24 elements.  Once minima
are computed as sets, Reflexivity, LLE, RW, And and Or hold for *any*
relation (minima lie inside their set, and min(C | D) is a subset of
min(C) | min(D)), so of the postulates only CM can be broken by a bad order;
the others are still checked, as guards on the computation itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checker import SpecificityRelation, derive_specificity
from .concepts import And, Bot, ConceptExpr, Name, Top, extension_mask, pretty
from .errors import ConsistencyError, InputError
from .model import SemanticModel

__all__ = [
    "PreferentialModel",
    "global_prefer",
    "build_preferential",
    "minima",
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
    materialises the same relation in bulk.
    """
    model.element(x_eid)
    model.element(y_eid)
    cats = _ranked_categories(model)
    # rd(x, C) and rd(y, C) by category
    rd_x = dict(zip(model.row_of, model.rd[:, model.col_of[x_eid]].tolist()))
    rd_y = dict(zip(model.row_of, model.rd[:, model.col_of[y_eid]].tolist()))

    strict_somewhere = False
    for c in cats:
        if rd_x[c] < rd_y[c]:
            strict_somewhere = True
            break
    if not strict_somewhere:
        return False

    for cj in cats:
        if rd_x[cj] <= rd_y[cj]:
            continue
        overridden = False
        for ch in specificity.above(cj):
            if ch not in model.categories or model.categories[ch].empty:
                continue
            if rd_x[ch] < rd_y[ch]:
                overridden = True
                break
        if not overridden:
            return False
    return True


@dataclass
class PreferentialModel:
    """A semantic model together with the materialised global preference.

    ``order[i, j]`` is True iff element ``element_ids[i]`` is globally
    preferred to ``element_ids[j]``.  ``element_ids`` is the domain order
    of ``base``, so row and column i of the order are column i of the
    model's matrices.
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


def _global_order(
    model: SemanticModel, specificity: SpecificityRelation, cols: Sequence[int]
) -> np.ndarray:
    """The combination rule over the elements in columns ``cols`` of the
    model: ``order[a, b]`` is True iff element ``cols[a]`` is globally
    preferred to element ``cols[b]``.

    A pair is decided by the two elements' rd values and specificity alone,
    so the rule over a subset of the domain is exactly the global preference
    restricted to that subset.
    """
    cats = _ranked_categories(model)
    rk = model.rd[np.ix_([model.row_of[c] for c in cats], cols)]
    cat_row = {c: i for i, c in enumerate(cats)}

    def less(i: int) -> np.ndarray:
        # Category i's strict preference, built on demand so that at most a
        # few n x n matrices are alive, never one per category.
        return rk[i][:, np.newaxis] < rk[i][np.newaxis, :]

    n = len(cols)
    order = np.zeros((n, n), dtype=bool)
    for i in range(len(cats)):
        order |= less(i)
    for cj in cats:
        # rd is never NaN, so rd(x) <= rd(y) is exactly not rd(y) < rd(x).
        r = rk[cat_row[cj]]
        ok = r[:, np.newaxis] <= r[np.newaxis, :]
        for ch in specificity.above(cj):
            if ch in cat_row:
                ok |= less(cat_row[ch])
        order &= ok
    return order


def build_preferential(
    model: SemanticModel, specificity: SpecificityRelation | None = None
) -> PreferentialModel:
    """Materialise the global preference over the whole domain.  The order
    is not checked here: ``verify_order_axioms`` reports whether it is a
    strict order."""
    if specificity is None:
        specificity = derive_specificity(model)
    order = _global_order(model, specificity, range(len(model.element_ids)))
    return PreferentialModel(model, specificity, model.element_ids, order)


def minima(
    model: SemanticModel, specificity: SpecificityRelation, mask: np.ndarray
) -> np.ndarray:
    """The globally minimal elements of the set ``mask`` (T(C) when ``mask``
    is ext(C)), both boolean masks over ``model.element_ids``, from the
    order restricted to that set alone: O(k·|set|²) rather than O(k·N²).

    The restricted block is checked to be an irreflexive, transitive strict
    order; a failure is a ConsistencyError naming a witness, never a
    silently wrong answer.
    """
    cols = np.flatnonzero(mask)
    order = _global_order(model, specificity, cols)
    refl, trans = _order_violations([model.element_ids[c] for c in cols], order)
    if refl or trans:
        raise ConsistencyError(
            f"global preference is not a strict order: {(refl + trans)[0].instance}"
        )
    out = np.zeros(len(model.element_ids), dtype=bool)
    out[cols[~order.any(axis=0)]] = True
    return out


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


# float32 entries of one row block of a boolean product (256 KB).
_BLOCK_ENTRIES = 1 << 16


def _bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a @ b) > 0`` for boolean matrices: is some k with a[i, k] and b[k, j]?

    The path counts are summed in float32, which is exact while they stay
    below 2**24, so the product runs in BLAS and cannot wrap the way a
    uint8 product does at 256.  Rows of ``a`` go through in blocks, so no
    full float32 result is held.
    """
    bf = b.astype(np.float32)
    out = np.empty((a.shape[0], b.shape[1]), dtype=bool)
    step = max(1, _BLOCK_ENTRIES // max(1, b.shape[1]))
    for i in range(0, a.shape[0], step):
        np.greater(a[i : i + step].astype(np.float32) @ bf, 0, out=out[i : i + step])
    return out


def _order_violations(
    ids: Sequence[str], m: np.ndarray
) -> tuple[list[Violation], list[Violation]]:
    """Irreflexivity and transitivity violations of the relation ``m`` over
    ``ids``, at most ``_MAX_VIOLATIONS`` of each."""
    refl = [
        Violation(instance=f"{ids[i]} < {ids[i]}", witnesses=(ids[i],))
        for i in np.nonzero(m.diagonal())[0][:_MAX_VIOLATIONS]
    ]
    gap = _bool_product(m, m) & ~m  # a diagonal gap here is a 2-cycle x < z < x
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
        comp = ~m
        bad = m & _bool_product(comp, comp)  # some z with not x<z and not z<y
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


def _row_keys(packed: np.ndarray) -> list[bytes]:
    """The bytes of each row of the packed masks ``packed``: equal exactly
    when the rows are, so two sets share a key only if they are equal."""
    data, width = packed.tobytes(), packed.shape[1]
    return [data[i : i + width] for i in range(0, len(data), width)] if width else [b""] * len(packed)


def _witnesses(ids: Sequence[str], mask: np.ndarray) -> tuple[str, ...]:
    return tuple(sorted(ids[i] for i in np.flatnonzero(mask)))[:5]


def _first_violations(n: int, bad_at, make) -> list[Violation]:
    """The first ``_MAX_VIOLATIONS`` violations (c, d, e) in row-major order,
    where ``bad_at(c)`` is the boolean n x n matrix of bad (d, e) for c."""
    out: list[Violation] = []
    for c in range(n):
        for d, e in zip(*np.nonzero(bad_at(c))):
            out.append(make(c, int(d), int(e)))
            if len(out) == _MAX_VIOLATIONS:
                return out
    return out


def verify_klm(
    pref: PreferentialModel, pool: Sequence[ConceptExpr] | None = None
) -> list[PropertyCheck]:
    """Check the closure postulates of the induced entailment C |~ D over a
    concept pool (default: all conjunctions of up to three category names,
    plus Top and Bot).  All of them must hold in this semantics; a violation
    is an implementation bug surfacing, not an interesting phenomenon.

    Reflexivity and LLE are checked per pool concept.  RW, And, CM and Or
    are checked over the distinct extensions of the pool ("classes"), which
    LLE licenses, as class x class x class boolean tensors; only a tensor
    with a violation is walked again in pool order to list instances.
    """
    if pool is None:
        pool = default_concept_pool(pref.base.category_names)
    pool = list(pool)
    n = len(pool)
    labels = [pretty(c) for c in pool]
    ids = pref.element_ids
    ext = np.empty((n, len(ids)), dtype=bool)
    for i, c in enumerate(pool):
        ext[i] = extension_mask(pref.base, c)
    typ = ext & ~_bool_product(ext, pref.order)  # minima: nothing inside beats them
    entail = ~_bool_product(typ, ~ext.T)  # entail[c, d]: T(C) inside ext(D)

    refl = [
        Violation(instance=f"C={labels[i]}", witnesses=_witnesses(ids, typ[i] & ~ext[i]))
        for i in np.flatnonzero((typ & ~ext).any(axis=1))
    ]

    # The classes, in order of first occurrence in the pool: inv[c] is the
    # class of pool concept c and first[a] the first pool concept of class a.
    packed = np.packbits(ext, axis=1)
    class_of: dict[bytes, int] = {}
    first = []
    inv = np.empty(n, dtype=np.intp)
    for c, key in enumerate(_row_keys(packed)):
        if key not in class_of:
            class_of[key] = len(first)
            first.append(c)
        inv[c] = class_of[key]
    first = np.array(first, dtype=np.intp)
    classes = ext[first]
    lle: list[Violation] = []
    if (entail != entail[first[inv]]).any():
        later = np.arange(n)
        lle = _first_violations(
            n,
            lambda i: ((inv == inv[i]) & (later > i))[:, np.newaxis] & (entail != entail[i]),
            lambda i, j, d: Violation(
                instance=f"C1={labels[i]}, C2={labels[j]}, D={labels[d]}"
            ),
        )

    # The set family: the classes, then every intersection of two classes
    # that is not itself a class.  A union counts only if it is a class.
    k = len(classes)
    packed = packed[first]
    extra: dict[bytes, int] = {}
    extra_rows: list[np.ndarray] = []
    meet = np.empty((k, k), dtype=np.intp)
    join = np.full((k, k), -1, dtype=np.intp)
    for a in range(k):
        both, either = packed[a] & packed[a:], packed[a] | packed[a:]
        for b, row, key, union in zip(
            range(a, k), both, _row_keys(both), _row_keys(either)
        ):
            f = class_of.get(key, extra.get(key))
            if f is None:
                f = extra[key] = k + len(extra_rows)
                extra_rows.append(row)
            meet[a, b] = meet[b, a] = f
            join[a, b] = join[b, a] = class_of.get(union, -1)
    unpacked = np.unpackbits(
        np.array(extra_rows, dtype=np.uint8).reshape(-1, packed.shape[1]), axis=1, count=len(ids)
    )
    family = np.vstack([classes, unpacked.view(bool)])
    fam_typ = family & ~_bool_product(family, pref.order)
    fam_entail = ~_bool_product(fam_typ, ~family.T)

    ent = fam_entail[:k, :k]
    entailed = ent[:, :, np.newaxis] & ent[:, np.newaxis, :]  # C |~ D and C |~ E
    subset = ~_bool_product(classes, ~classes.T)
    expressible = join >= 0

    def triples(tensor: np.ndarray, witness, unordered: bool = False) -> list[Violation]:
        """Pool instances (c, d, e) of the class tensor's violations, each
        with ``witness(c, d, e)``, the mask of the elements that make it bad."""
        if not tensor.any():
            return []

        def bad_at(c: int) -> np.ndarray:
            bad = tensor[inv[c]][np.ix_(inv, inv)]
            if unordered:
                bad[: c + 1] = False  # each pair once, as (c, d) with c < d
            return bad

        return _first_violations(
            n,
            bad_at,
            lambda c, d, e: Violation(
                instance=f"C={labels[c]}, D={labels[d]}, E={labels[e]}",
                witnesses=_witnesses(ids, witness(c, d, e)),
            ),
        )

    # Pool pairs (c, d), c < d, whose union is no class.  Equal classes
    # always join to themselves, so only pairs of distinct classes count.
    mult = np.bincount(inv, minlength=k)
    skipped = int(np.outer(mult, mult)[~expressible].sum()) // 2
    return [
        _check("reflexivity", refl),
        _check("left_logical_equivalence", lle),
        _check(
            "right_weakening",
            triples(
                # C |~ D and ext(D) inside ext(E), but not C |~ E
                ent[:, :, np.newaxis] & ~ent[:, np.newaxis, :] & subset,
                lambda c, d, e: typ[c] & ~ext[e],
            ),
        ),
        _check(
            "and",
            triples(
                # C |~ D and C |~ E, but not C |~ D & E
                entailed & ~fam_entail[:k][:, meet],
                lambda c, d, e: typ[c] & ~(ext[d] & ext[e]),
            ),
        ),
        _check(
            "cautious_monotonicity",
            triples(
                # C |~ D and C |~ E, but not C & D |~ E
                entailed & ~fam_entail[meet, :k],
                lambda c, d, e: fam_typ[meet[inv[c], inv[d]]] & ~ext[e],
            ),
        ),
        _check(
            "or",
            triples(
                # C |~ E and D |~ E, but not C | D |~ E, for a union that is a class
                expressible[:, :, np.newaxis]
                & ent[:, np.newaxis, :]
                & ent[np.newaxis, :, :]
                & ~ent[np.where(expressible, join, 0)],
                lambda c, d, e: fam_typ[join[inv[c], inv[d]]] & ~ext[e],
                unordered=True,
            ),
            notes=(
                f"checked only pairs whose union is the extension of a pool "
                f"concept; {skipped} pairs skipped as inexpressible"
            ),
        ),
    ]
