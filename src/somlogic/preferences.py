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
elements' rd values and specificity alone.  It compares each category's
dense integer ranks of rd, which order the elements exactly as the rd
values do.  It has two callers.  ``build_preferential`` applies it to the
whole domain and checks nothing: ``verify_order_axioms`` then checks the
axioms on the materialised relation, once.  ``minima`` applies it to one
set, e.g. ext(C), given as a mask, and reads T(C) off that block, which is
how ``somlogic check`` answers a defeasible query without the N x N order.
Nothing verifies that block afterwards, so ``minima`` checks it to be a
strict order itself.

The order checks take no matrix product.  Transitivity ORs, for each
element, the bit-packed rows of its successors and compares the result
with its own row.  Modularity is walked pair by pair on bit rows.  Both
walks stop at the last violation a report lists.

``verify_klm`` checks the standard closure postulates (Reflexivity, Left
Logical Equivalence, Right Weakening, And, Cautious Monotonicity, and Or
where the union is expressible) for the induced nonmonotonic entailment
C |~ D  iff  every globally minimal element of ext(C) lies in ext(D).

The postulates are checked over the distinct extensions of the concept pool,
not over every pool concept: entailment depends on a concept only through
its extension, which is what LLE licenses.  Sets are boolean masks over the
domain.  The default pool is built by index: a conjunction's mask ANDs the
model's extension rows of its names, and its label is printed only when a
report lists it; an explicit pool is evaluated by ``extension_mask``.  Two
masks fall into the same class exactly when the bytes of their bit-packed
rows are equal: each row is one void scalar, compared bytewise by
``np.unique``, so no two different sets can share a class.  Intersections
and unions of classes are keyed the same way and looked up among the
sorted class keys.  ``verify`` takes no matrix product: minima and
inclusions work on uint64 bit rows.  T(C) is ext(C) minus the
``np.bitwise_or.reduceat`` of the order's rows over the members of ext(C),
and C |~ D holds when T(C) has no bit outside ext(D), tested one word
column at a time.  Once minima are computed as sets, Reflexivity, LLE,
RW, And and Or hold for *any* relation (minima lie inside their set, and
min(C | D) is a subset of min(C) | min(D)), so of the postulates only CM can
be broken by a bad order; the others are still checked, as guards on the
computation itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .checker import SpecificityRelation, derive_specificity
from .concepts import And, Bot, ConceptExpr, Name, Top, extension_mask, pretty
from .errors import ConsistencyError, InputError
from .model import SemanticModel

__all__ = [
    "PreferentialModel",
    "build_preferential",
    "minima",
    "Violation",
    "PropertyCheck",
    "verify_order_axioms",
    "verify_klm",
    "default_concept_pool",
]


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
    cats = [c for c in model.category_names if not model.categories[c].empty]
    rd = model.rd[np.ix_([model.row_of[c] for c in cats], cols)]
    n = rd.shape[1]
    # Dense ranks in the narrowest unsigned type that holds n - 1.  Equal rd
    # values (inf included) get equal ranks and rd is never NaN, so ranks
    # compare exactly as the rd values do.
    dtype = np.min_scalar_type(max(n - 1, 0))
    by_rd = np.argsort(rd, axis=1)
    sorted_rd = np.take_along_axis(rd, by_rd, axis=1)
    dense = np.zeros(rd.shape, dtype=dtype)
    np.cumsum(sorted_rd[:, 1:] != sorted_rd[:, :-1], axis=1, dtype=dtype, out=dense[:, 1:])
    rank = np.empty_like(dense)
    np.put_along_axis(rank, by_rd, dense, axis=1)
    cat_row = {c: i for i, c in enumerate(cats)}

    # At most three n x n matrices are alive, never one per category.
    order = np.zeros((n, n), dtype=bool)
    less = np.empty((n, n), dtype=bool)
    ok = np.empty((n, n), dtype=bool)

    def strict(i: int) -> np.ndarray:
        # Category i's strict preference, into ``less``.
        return np.less(rank[i][:, np.newaxis], rank[i][np.newaxis, :], out=less)

    for i in range(len(cats)):
        order |= strict(i)
    for cj in cats:
        r = rank[cat_row[cj]]
        np.less_equal(r[:, np.newaxis], r[np.newaxis, :], out=ok)
        for ch in specificity.above(cj):
            if ch in cat_row:
                ok |= strict(cat_row[ch])
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


# uint64 words gathered per chunk of the bit-row walks (256 KB).
_CHUNK_WORDS = 1 << 15


def _bit_rows(m: np.ndarray, complement: bool = False) -> np.ndarray:
    """The rows of the boolean matrix ``m`` (of ``~m`` if ``complement``) as
    uint64 words: entry j of a row is bit j % 64 of word j // 64, and the
    padding bits past the last column are 0."""
    rows, n = m.shape
    words = np.zeros((rows, -(-n // 64) * 8), dtype=np.uint8)
    words[:, : -(-n // 8)] = np.packbits(m, axis=1, bitorder="little")
    words = words.view("<u8")
    if complement:
        words = ~words & _bit_rows(np.ones((1, n), dtype=bool))
    return words


def _unpacked(words: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` bits of one ``_bit_rows`` row, as a boolean mask."""
    return np.unpackbits(words.view(np.uint8), bitorder="little", count=n).view(bool)


def _pair_chunks(m: np.ndarray, width: int):
    """The pairs (i, j) with ``m[i, j]``, in row-major order, in chunks of
    whole rows of about ``_CHUNK_WORDS`` words when each pair gathers
    ``width`` words; a row with more pairs than that is a chunk of its own.
    Yields (i, j, starts) per chunk, where ``starts`` indexes the first pair
    of each row that has one."""
    if not m.size:
        return
    i, j = np.divmod(np.flatnonzero(m), m.shape[1])
    ends = np.cumsum(np.bincount(i, minlength=len(m)))
    lo, step = 0, max(1, _CHUNK_WORDS // max(1, width))
    while lo < len(i):
        last_fitting = np.searchsorted(ends, lo + step, "right") - 1
        hi = ends[max(last_fitting, np.searchsorted(ends, lo, "right"))]
        ci = i[lo:hi]
        yield ci, j[lo:hi], np.flatnonzero(np.r_[True, ci[1:] != ci[:-1]])
        lo = hi


def _bit_minima(order_bits: np.ndarray, masks: np.ndarray, mask_bits: np.ndarray) -> np.ndarray:
    """The minima of each set in the rows of the boolean matrix ``masks``
    under the order whose ``_bit_rows`` are ``order_bits``, as bit rows: a
    set's row of ``mask_bits`` minus the OR of its members' order rows.  A
    set without members is its own (empty) row; ``_pair_chunks`` gives it
    no segment."""
    typ = mask_bits.copy()
    for i, members, starts in _pair_chunks(masks, order_bits.shape[1]):
        typ[i[starts]] &= ~np.bitwise_or.reduceat(order_bits[members], starts, axis=0)
    return typ


def _inside(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[i, j]``: row i of the bit rows ``a`` has no bit outside row j
    of ``b``.  The rows are ANDed one word column at a time, so no
    ``len(a) x len(b) x words`` block is held; the complement of ``b`` is
    read only against ``a``, whose padding is 0."""
    out = np.zeros((len(a), len(b)), dtype=np.uint64)
    for w in range(a.shape[1]):
        out |= a[:, w, np.newaxis] & ~b[np.newaxis, :, w]
    return out == 0


def _order_violations(
    ids: Sequence[str], m: np.ndarray
) -> tuple[list[Violation], list[Violation]]:
    """Irreflexivity and transitivity violations of the relation ``m`` over
    ``ids``, at most ``_MAX_VIOLATIONS`` of each, pairs in row-major order.

    Transitivity runs on bit rows: row i fails exactly when the OR of its
    successors' rows (``np.bitwise_or.reduceat`` over its pairs) has a bit
    that row i lacks.  Only a failing row is unpacked to list its (i, k, j),
    each with the first middle k; the walk stops at the last one reported.
    A diagonal gap is a 2-cycle x < z < x.
    """
    n = len(ids)
    refl = [
        Violation(instance=f"{ids[i]} < {ids[i]}", witnesses=(ids[i],))
        for i in np.nonzero(m.diagonal())[0][:_MAX_VIOLATIONS]
    ]
    bits = _bit_rows(m)
    trans: list[Violation] = []
    for i, succ, starts in _pair_chunks(m, bits.shape[1]):
        rows = i[starts]
        reach = np.bitwise_or.reduceat(bits[succ], starts, axis=0)
        bad = (reach & ~bits[rows]).any(axis=1)
        for r, words in zip(rows[bad], reach[bad]):
            for j in np.flatnonzero(_unpacked(words, n) & ~m[r]):
                k = int(np.argmax(m[r] & m[:, j]))
                trans.append(
                    Violation(
                        instance=f"{ids[r]} < {ids[k]} < {ids[j]} but not {ids[r]} < {ids[j]}",
                        witnesses=(ids[r], ids[k], ids[j]),
                    )
                )
                if len(trans) == _MAX_VIOLATIONS:
                    return refl, trans
    return refl, trans


def _modularity_violations(ids: Sequence[str], m: np.ndarray) -> list[Violation]:
    """The first ``_MAX_VIOLATIONS`` pairs x < y of ``m`` in row-major
    order with some z unordered against both (not x < z and not z < y),
    each with the first such z.  The pairs are walked on bit rows, the
    complement of row x against that of column y, until the last one
    reported."""
    n = len(ids)
    rows = _bit_rows(m, complement=True)
    cols = _bit_rows(np.ascontiguousarray(m.T), complement=True)
    mod: list[Violation] = []
    for x, y, _ in _pair_chunks(m, 2 * rows.shape[1]):
        both = rows[x] & cols[y]
        bad = both.any(axis=1)
        for i, j, words in zip(x[bad], y[bad], both[bad]):
            z = int(np.argmax(_unpacked(words, n)))
            mod.append(
                Violation(
                    instance=f"{ids[i]} < {ids[j]} but {ids[z]} is unordered against both",
                    witnesses=(ids[i], ids[j], ids[z]),
                )
            )
            if len(mod) == _MAX_VIOLATIONS:
                return mod
    return mod


def verify_order_axioms(pref: PreferentialModel) -> list[PropertyCheck]:
    """Check irreflexivity, transitivity, well-foundedness and (informational
    only) modularity of the materialised global preference.

    ``_order_violations`` and ``_modularity_violations`` walk bit rows and
    stop at the last violation a report lists; no matrix product is taken.
    """
    ids, m = pref.element_ids, pref.order
    refl, trans = _order_violations(ids, m)
    mod = _modularity_violations(ids, m)
    # An irreflexive transitive relation on a finite set has no infinite
    # descending chain; report a failure only if the axioms above failed.
    wf_ok = not refl and not trans
    return [
        _check("irreflexivity", refl),
        _check("transitivity", trans),
        PropertyCheck(
            check="well_foundedness",
            status="pass" if wf_ok else "fail",
            violations=(),
            notes="finite domain; follows from irreflexivity and transitivity",
        ),
        _check(
            "modularity",
            mod,
            required=False,
            notes="the combined preference is not required to be modular",
        ),
    ]


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


def _pool_masks(
    model: SemanticModel, pool: Sequence[ConceptExpr] | None
) -> tuple[np.ndarray, Callable[[int], str]]:
    """The extension masks of the pool's concepts, one row each, and the
    label of concept i, ``pretty`` of its expression.  An explicit ``pool``
    is evaluated by ``extension_mask``.  The default pool, that of
    ``default_concept_pool``, is built by index: the mask of a conjunction
    ANDs the model's ``ext`` rows of its names, and its label joins them."""
    if pool is not None:
        pool = list(pool)
        masks = np.empty((len(pool), len(model.element_ids)), dtype=bool)
        for i, c in enumerate(pool):
            masks[i] = extension_mask(model, c)
        return masks, lambda i: pretty(pool[i])
    names = sorted(model.category_names)
    rows = model.ext[[model.row_of[nm] for nm in names]]
    n = len(model.element_ids)
    by_size = [list(itertools.combinations(range(len(names)), r)) for r in (1, 2, 3)]
    combos = [c for group in by_size for c in group]
    masks = [np.ones((1, n), dtype=bool), np.zeros((1, n), dtype=bool)]
    for r, group in enumerate(by_size, 1):
        masks.append(rows[np.array(group, dtype=np.intp).reshape(-1, r)].all(axis=1))
    fixed = ("Top", "Bot")
    return np.vstack(masks), lambda i: (
        fixed[i] if i < 2 else " & ".join(names[j] for j in combos[i - 2])
    )


def _void_keys(rows: np.ndarray) -> np.ndarray:
    """One void scalar per row of the uint8 matrix ``rows``, compared
    bytewise, so two keys are equal exactly when the rows are."""
    rows = np.ascontiguousarray(rows if rows.shape[1] else np.zeros((len(rows), 1), np.uint8))
    return rows.view(np.dtype((np.void, rows.shape[1])))[:, 0]


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

    No matrix product is taken.  Sets are ``_bit_rows``: T(C) is ext(C)
    minus the OR of the order's rows over the members of ext(C)
    (``_bit_minima``), and C |~ D holds when T(C) has no bit outside ext(D)
    (``_inside``).  Reflexivity and LLE are checked per pool concept, with
    one entailment row per concept over the distinct extensions of the pool
    ("classes"), which LLE licenses.  RW, And, CM and Or are checked over
    the classes as class x class x class boolean tensors; only a tensor
    with a violation is walked again in pool order to list instances.
    And and CM read entailment from a class to an intersection of two
    classes and back, so only those two blocks are computed for the
    intersections that are no class.
    """
    ids = pref.element_ids
    ext, label = _pool_masks(pref.base, pool)
    n, width = len(ext), len(ids)
    order_bits = _bit_rows(pref.order)
    ext_bits = _bit_rows(ext)
    typ = _bit_minima(order_bits, ext, ext_bits)

    refl = [
        Violation(
            instance=f"C={label(i)}",
            witnesses=_witnesses(ids, _unpacked(typ[i], width) & ~ext[i]),
        )
        for i in np.flatnonzero((typ & ~ext_bits).any(axis=1))
    ]

    # The classes, one per distinct packed row in the order of their sorted
    # keys: inv[c] is the class of pool concept c and first[a] the first pool
    # concept of class a.
    packed = np.packbits(ext, axis=1)
    keys, first, inv = np.unique(_void_keys(packed), return_index=True, return_inverse=True)
    cls_bits = ext_bits[first]
    entail = _inside(typ, cls_bits)  # entail[c, a]: T(C) inside class a
    lle: list[Violation] = []
    if (entail != entail[first[inv]]).any():
        later = np.arange(n)
        full = entail[:, inv]
        lle = _first_violations(
            n,
            lambda i: ((inv == inv[i]) & (later > i))[:, np.newaxis] & (full != full[i]),
            lambda i, j, d: Violation(instance=f"C1={label(i)}, C2={label(j)}, D={label(d)}"),
        )

    # The set family: the classes, then every distinct intersection of two
    # classes that is not itself a class.  A union counts only if it is a
    # class.  Unions and distinct intersections are looked up among the
    # sorted class keys; only the intersections go through ``np.unique``.
    k = len(first)
    packed = packed[first]
    a, b = np.triu_indices(k)

    def class_of(rows: np.ndarray) -> np.ndarray:
        """The class whose packed mask each row is, or -1."""
        found = _void_keys(rows)
        at = np.minimum(np.searchsorted(keys, found), k - 1)
        return np.where(keys[at] == found, at, -1)

    join = np.full((k, k), -1, dtype=np.intp)
    join[a, b] = join[b, a] = class_of(packed[a] | packed[b])
    met = packed[a] & packed[b]
    _, distinct, which = np.unique(_void_keys(met), return_index=True, return_inverse=True)
    known = class_of(met[distinct])
    extra = known < 0
    meet = np.empty((k, k), dtype=np.intp)
    meet[a, b] = meet[b, a] = np.where(extra, k + np.cumsum(extra) - 1, known)[which]
    extras = np.unpackbits(met[distinct[extra]], axis=1, count=width).view(bool)
    extra_bits = _bit_rows(extras)
    # The first k family rows are the classes, whose minima are known.
    ent = entail[first]
    cls_typ = typ[first]
    fam_typ = np.vstack([cls_typ, _bit_minima(order_bits, extras, extra_bits)])
    # The two blocks of entailment between classes and the family that And
    # and CM read: from each class into each set, and back.
    into = np.hstack([ent, _inside(cls_typ, extra_bits)])
    back = np.vstack([ent, _inside(fam_typ[k:], cls_bits)])

    entailed = ent[:, :, np.newaxis] & ent[:, np.newaxis, :]  # C |~ D and C |~ E
    subset = _inside(cls_bits, cls_bits)
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
                instance=f"C={label(c)}, D={label(d)}, E={label(e)}",
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
                lambda c, d, e: _unpacked(typ[c], width) & ~ext[e],
            ),
        ),
        _check(
            "and",
            triples(
                # C |~ D and C |~ E, but not C |~ D & E
                entailed & ~into[:, meet],
                lambda c, d, e: _unpacked(typ[c], width) & ~(ext[d] & ext[e]),
            ),
        ),
        _check(
            "cautious_monotonicity",
            triples(
                # C |~ D and C |~ E, but not C & D |~ E
                entailed & ~back[meet],
                lambda c, d, e: _unpacked(fam_typ[meet[inv[c], inv[d]]], width) & ~ext[e],
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
                lambda c, d, e: _unpacked(fam_typ[join[inv[c], inv[d]]], width) & ~ext[e],
                unordered=True,
            ),
            notes=(
                f"checked only pairs whose union is the extension of a pool "
                f"concept; {skipped} pairs skipped as inexpressible"
            ),
        ),
    ]
