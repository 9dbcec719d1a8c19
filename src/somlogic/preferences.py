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
elements' rd values and specificity alone.  The order has one form, from
its build to its checks: uint64 bit rows (``_bit_rows``), bit j of row i
set iff element i is preferred to element j.  ``_global_order`` builds
them from each category's dense ranks of rd, which order the elements
exactly as the rd values do, through a suffix table of the elements at
each rank or above.  The tables come a group of categories at a time
(``_suffix_tables``), as many as fit ``_CHUNK_ITEMS`` and at least one,
and each category's rows are folded into a few accumulators of bit rows,
so the build holds one group's tables, never all k of them.  It has two
callers.  ``build_preferential`` applies it to the whole domain and keeps
the bit rows as ``PreferentialModel.bits``, checking nothing:
``verify_order_axioms`` and ``verify_klm`` then read those rows as they
are, and the former checks the axioms once.  ``minima`` applies it to one
set, e.g. ext(C), given as a mask, and reads T(C) off that block, which is
how ``somlogic check`` answers a defeasible query without the whole order.
Nothing verifies that block afterwards, so ``minima`` checks it to be a
strict order itself, through the one order checker ``_order_violations``,
and raises on the first violation it lists.

The order checks take no matrix product, and no pair walk holds an N x N
matrix or a list of all pairs.  Every walk (``_chunks``) reads its sets as
bit rows, counts each row's pairs (``np.bitwise_count``), and unpacks and
lists the pairs of one block of rows at a time, blocks that fit the one
budget ``_CHUNK_ITEMS``.  Transitivity ORs, for each element, the bit rows
of its successors (``_or_chunk``) and its own row, and compares the result
with that row; in ``verify`` the same blocks also serve modularity, whose
listing stops at the last violation its report lists.
Besides the order, the walk holds its word columns, the ORed rows and, for
modularity, the complement of the order's transpose, each one n x words
array.

``verify_klm`` checks the standard closure postulates (Reflexivity, Left
Logical Equivalence, Right Weakening, And, Cautious Monotonicity, and Or
where the union is expressible) for the induced nonmonotonic entailment
C |~ D  iff  every globally minimal element of ext(C) lies in ext(D).

The postulates are checked over the distinct extensions of the concept pool,
not over every pool concept: entailment depends on a concept only through
its extension, which is what LLE licenses.  The default pool is built by
index: a conjunction's mask ANDs the model's extension rows of its names,
and its label is printed only when a report lists it; an explicit pool is
evaluated by ``extension_mask``.  Sets are held as ``_bit_rows``, the
order's form, and two masks fall into the same class exactly when the
bytes of their bit rows are equal: each row is one void scalar
(``_void_keys``), compared bytewise by ``np.unique``.  A union of two
classes is ORed on those rows and looked up among the sorted class keys.
``verify`` takes no matrix product.  T(C) is ext(C) minus the OR of the
order's rows over the members of ext(C) (``_or_rows``, on the same
``_or_chunk`` kernel), and C |~ D holds when T(C) has no bit outside
ext(D), tested one word column at a time.

RW, And, CM and Or are decided per class C by bit rows, so nothing of
K x K x K is held over the K classes.  One ``_or_rows`` walk over the
classes that C entails gives I(C), the AND of their extensions, and RW's
reach, the classes that hold one of them.  And fails when T(C) is not
inside I(C), CM when min(ext(C) & ext(D)) is not inside I(C) for some
entailed D (``_bit_minima`` once per distinct set ext(C) & ext(D) in each
slice of rows of C within ``_CHUNK_ITEMS``, 271 703 sets for 895 066
pairs at K = 993, keeping only which classes fail), and RW when the reach
holds a class that C does not entail.  Or fails for C, D and their union
J, a class looked up in slices within ``_CHUNK_ITEMS``, when C and D
entail a class that J does not.  Only a failing class has its (D, E)
matrix built, to list its instances in pool order.
Once minima are computed as sets, Reflexivity, LLE, RW, And and Or hold
for *any* relation (minima lie inside their set, and min(C | D) is a
subset of min(C) | min(D)), so of the postulates only CM can be broken by
a bad order; the others are still checked, as guards on the computation.
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
    """A semantic model together with the global preference, which it holds
    in one form: ``bits``, the order's ``_bit_rows``.  Bit j of row i is
    set iff element ``element_ids[i]`` is globally preferred to
    ``element_ids[j]``.  ``element_ids`` is the domain order of ``base``,
    so row and bit i are column i of the model's matrices.
    """

    base: SemanticModel
    specificity: SpecificityRelation
    element_ids: tuple[str, ...]
    bits: np.ndarray

    def __post_init__(self):
        self._row = {eid: i for i, eid in enumerate(self.element_ids)}

    def prefers(self, x_eid: str, y_eid: str) -> bool:
        try:
            i, j = self._row[x_eid], self._row[y_eid]
        except KeyError as exc:
            raise InputError(f"unknown domain element {exc.args[0]!r}") from None
        return bool(self.bits[i, j >> 6] >> np.uint64(j & 63) & np.uint64(1))

    def pairs(self) -> frozenset[tuple[str, str]]:
        ids = self.element_ids
        return frozenset(
            (ids[lo + i], ids[y])
            for lo, j, bounds in _chunks(self.bits, len(ids))
            for i in range(len(bounds) - 1)
            for y in j[bounds[i] : bounds[i + 1]].tolist()
        )


def _suffix_tables(rd: np.ndarray):
    """Each category's dense ranks of its row of ``rd`` (categories x
    elements) and its suffix table, a group of categories at a time:
    ``(lo, rank, ge)`` for rows ``lo, lo + 1, ...`` of ``rd``, where bit
    row ``ge[i, t]`` holds the elements that category ``lo + i`` ranks t or
    above.  Row n of a table lies past every rank and stays empty.  A group
    takes as many categories as their tables fit ``_CHUNK_ITEMS``, and at
    least one.  Every group's tables are built in one buffer, cleared
    first, so one group's tables are all that is held at a time, and each
    is valid only until the next group is drawn."""
    k, n = rd.shape
    # Dense ranks: equal rd values (inf included) share a rank and rd is
    # never NaN, so ranks compare exactly as the rd values do.
    by_rd = np.argsort(rd, axis=1)
    sorted_rd = np.take_along_axis(rd, by_rd, axis=1)
    new_rank = np.ones(rd.shape, dtype=bool)
    np.not_equal(sorted_rd[:, 1:], sorted_rd[:, :-1], out=new_rank[:, 1:])
    # The generator's frame outlives the ranking, so its temporaries are
    # dropped as soon as they are read.
    del sorted_rd
    dense = np.cumsum(new_rank, axis=1)
    dense -= 1
    rank = np.empty(rd.shape, dtype=np.intp)
    np.put_along_axis(rank, by_rd, dense, axis=1)
    del by_rd, new_rank, dense

    words = -(-n // 64)
    step = max(1, _CHUNK_ITEMS // max(1, (n + 1) * words))
    buf = np.empty((min(step, k), n + 1, words), dtype=np.uint64)
    e = np.arange(n)
    one = np.left_shift(np.uint64(1), (e & 63).astype(np.uint64))
    for lo in range(0, k, step):
        group = rank[lo : lo + step]
        # First each element's bit at its own rank, then the suffix OR.
        ge = buf[: len(group)]
        ge.fill(0)
        np.bitwise_or.at(ge, (np.arange(len(group))[:, np.newaxis], group, e >> 6), one)
        np.bitwise_or.accumulate(ge[:, ::-1], axis=1, out=ge[:, ::-1])
        yield lo, group, ge


def _overriders(cats: Sequence[str], specificity: SpecificityRelation) -> dict[int, list[int]]:
    """For each category of ``cats`` that a more specific one of them
    overrides, by index, the indices of those that override it."""
    at = {c: i for i, c in enumerate(cats)}
    out = {j: sorted(at[h] for h in specificity.above(c) if h in at) for j, c in enumerate(cats)}
    return {j: hs for j, hs in out.items() if hs}


def _global_order(
    model: SemanticModel, specificity: SpecificityRelation, cols: Sequence[int]
) -> np.ndarray:
    """The combination rule over the elements in columns ``cols`` of the
    model, as ``_bit_rows``: bit b of row a is set iff element ``cols[a]``
    is globally preferred to element ``cols[b]``.

    A pair is decided by the two elements' rd values and specificity alone,
    so the rule over a subset of the domain is exactly the global preference
    restricted to that subset.  An element's strict row under a category
    (the elements it strictly beats) is ``ge[rank + 1]`` of that category's
    ``_suffix_tables`` and its weak row ``ge[rank]``.  The tables come a
    group at a time, and each category's rows go into three kinds of
    accumulator: one ORs every strict row; one ANDs the weak rows of every
    category that nothing overrides; and each overridden category has its
    own, which ORs its weak rows with the strict rows of its
    ``_overriders``.  The order is the AND of them all, so besides one
    group's tables only (3 + overridden categories) x ``len(cols)`` x words
    are held.
    """
    cats = [c for c in model.category_names if not model.categories[c].empty]
    rd = model.rd[np.ix_([model.row_of[c] for c in cats], cols)]
    n = len(cols)
    shape = (n, -(-n // 64))
    over = _overriders(cats, specificity)
    feeds = {h: [j for j, hs in over.items() if h in hs] for h in range(len(cats))}
    order = np.zeros(shape, dtype=np.uint64)
    weak = np.full(shape, ~np.uint64(0))
    ok = {j: np.zeros(shape, dtype=np.uint64) for j in over}
    # Each row is gathered once and the strict one dropped before the weak
    # one is, so one n x words temporary at a time is all the gathers hold.
    for lo, rank, ge in _suffix_tables(rd):
        for i, r in enumerate(rank):
            c = lo + i
            strict = ge[i, r + 1]
            for acc in [order, *(ok[j] for j in feeds[c])]:
                acc |= strict
            del strict
            if c in ok:
                ok[c] |= ge[i, r]
            else:
                weak &= ge[i, r]
    order &= weak
    for acc in ok.values():
        order &= acc
    return order


def build_preferential(
    model: SemanticModel, specificity: SpecificityRelation | None = None
) -> PreferentialModel:
    """The global preference over the whole domain, as the bit rows
    ``_global_order`` returns.  The order is not checked here:
    ``verify_order_axioms`` reports whether it is a strict order."""
    if specificity is None:
        specificity = derive_specificity(model)
    bits = _global_order(model, specificity, np.arange(len(model.element_ids)))
    return PreferentialModel(model, specificity, model.element_ids, bits)


def minima(
    model: SemanticModel, specificity: SpecificityRelation, mask: np.ndarray
) -> np.ndarray:
    """The globally minimal elements of the set ``mask`` (T(C) when ``mask``
    is ext(C)), both boolean masks over ``model.element_ids``, from the
    order restricted to that set alone: O(k·|set|²) rather than O(k·N²).

    The restricted block is checked to be an irreflexive, transitive strict
    order by ``_order_violations``, whose first violation the
    ConsistencyError names: never a silently wrong answer.  The check runs
    on the block's domain columns; only a block that fails it is checked
    again under its element ids, for the message.  The set's minima are its
    elements outside the OR of all the block's rows.  An empty set has no
    block to check and no minima.
    """
    out = np.zeros(len(model.element_ids), dtype=bool)
    cols = np.flatnonzero(mask)
    if not len(cols):
        return out
    bits = _global_order(model, specificity, cols)
    refl, trans, _ = _order_violations(cols, bits)
    if refl or trans:
        refl, trans, _ = _order_violations([model.element_ids[c] for c in cols.tolist()], bits)
        raise ConsistencyError(
            f"global preference is not a strict order: {(refl + trans)[0].instance}"
        )
    out[cols[~_unpacked(np.bitwise_or.reduce(bits, axis=0), len(cols))]] = True
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


# 8-byte items one block of a pair walk holds at a time (128 KB): a pair's
# column index and each word gathered for it, and 8 per word of the block's
# rows unpacked to booleans.
_CHUNK_ITEMS = 1 << 14

def _bit_rows(m: np.ndarray) -> np.ndarray:
    """The rows of the boolean matrix ``m`` as uint64 words: entry j of a
    row is bit j % 64 of word j // 64, and the padding bits past the last
    column are 0."""
    rows, n = m.shape
    words = np.zeros((rows, -(-n // 64) * 8), dtype=np.uint8)
    words[:, : -(-n // 8)] = np.packbits(m, axis=1, bitorder="little")
    return words.view("<u8")


def _complement(words: np.ndarray, n: int) -> np.ndarray:
    """``words``, ``_bit_rows`` over ``n`` columns, complemented in place,
    its padding bits kept 0."""
    np.invert(words, out=words)
    if n % 64:
        words[..., -1] &= np.uint64((1 << n % 64) - 1)
    return words


def _unpacked(words: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` bits of each ``_bit_rows`` row (or of one row, even
    a strided view such as a row of column-major minima), as booleans."""
    words = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(words, axis=-1, count=n, bitorder="little").view(bool)


def _diagonal(bits: np.ndarray) -> np.ndarray:
    """Bit i of row i of the square ``_bit_rows`` ``bits``, as booleans."""
    e = np.arange(len(bits))
    return (bits[e, e >> 6] >> (e & 63).astype(np.uint64)) & np.uint64(1) != 0


def _column(bits: np.ndarray, j: int) -> np.ndarray:
    """Bit j of every ``_bit_rows`` row of ``bits``, as booleans."""
    return (bits[:, j >> 6] >> np.uint64(j & 63)) & np.uint64(1) != 0


def _transposed(bits: np.ndarray, n: int) -> np.ndarray:
    """The ``_bit_rows`` of the transpose of the n x n relation whose rows
    are ``bits``.  Blocks of whole words of rows, as many as fit
    ``_CHUNK_ITEMS`` once unpacked and at least one, are unpacked, copied
    transposed and packed into those words of every column."""
    out = np.zeros((n, bits.shape[1] * 8), dtype=np.uint8)
    step = 64 * max(1, _CHUNK_ITEMS * 8 // (64 * max(n, 1)))
    for lo in range(0, n, step):
        block = np.ascontiguousarray(_unpacked(bits[lo : lo + step], n).T)
        out[:, lo // 8 : lo // 8 + -(-block.shape[1] // 8)] = np.packbits(
            block, axis=1, bitorder="little"
        )
    return out.view("<u8")


def _chunks(sel_bits: np.ndarray, n: int):
    """The pairs (i, j), the set bits j of each row i of the ``_bit_rows``
    ``sel_bits`` over ``n`` columns, one block of rows at a time:
    ``(lo, j, bounds)``, where the pairs of row ``lo + i`` are
    ``j[bounds[i]:bounds[i + 1]]``, in row-major order.

    Each row's pairs are counted first, by ``np.bitwise_count``.  A block
    takes rows while their pairs plus 8 per word of each row (the row
    unpacked) fit ``_CHUNK_ITEMS``, and at least one row; only its rows are
    unpacked, so no list of all pairs and no unpacked matrix is held.  The
    pairs come from one ``flatnonzero`` of the unpacked block, which reads
    only the first ``n`` bits of each row."""
    words = sel_bits.shape[1]
    ends = np.cumsum(np.bitwise_count(sel_bits).sum(axis=1, dtype=np.intp) + 8 * words)
    for lo, hi in _slices(ends, _CHUNK_ITEMS):
        j = np.flatnonzero(_unpacked(sel_bits[lo:hi], n))
        row_start = np.arange(hi - lo + 1) * n
        bounds = np.searchsorted(j, row_start)
        j -= np.repeat(row_start[:-1], np.diff(bounds))
        yield lo, j, bounds


def _slices(ends: np.ndarray, budget: int):
    """Consecutive slices ``(lo, hi)`` of rows whose costs, summed up to
    each row in ``ends``, fit ``budget``, and at least one row each."""
    lo = 0
    while lo < len(ends):
        spent = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, spent + budget, side="right")))
        yield lo, hi
        lo = hi


def _or_chunk(out: np.ndarray, cols: np.ndarray, lo: int, j: np.ndarray, bounds: np.ndarray) -> None:
    """For each nonempty segment i of one ``_chunks`` block, set column
    ``lo + i`` of the word rows ``out`` to the OR of the rows
    ``j[bounds[i]:bounds[i + 1]]`` of the relation whose word columns are
    ``cols``.  The rows are gathered and ORed one word column at a time,
    each a ``reduceat`` over the segments."""
    nonempty = np.flatnonzero(np.diff(bounds))
    if not len(nonempty):
        return
    starts = bounds[nonempty]
    at = lo + nonempty
    for col, word in zip(cols, out):
        word[at] = np.bitwise_or.reduceat(col[j], starts)


def _or_rows(sel_bits: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``out[i]``: the OR of the uint64 rows ``rows[j]`` over the set bits
    j of row i of the ``_bit_rows`` ``sel_bits``, 0 for a row with none.
    The pairs are walked in ``_chunks`` blocks, each ORed by
    ``_or_chunk``, so the temporaries stay within ``_CHUNK_ITEMS``."""
    out = np.zeros((rows.shape[1], len(sel_bits)), dtype=np.uint64)
    cols = rows.T.copy()
    for lo, j, bounds in _chunks(sel_bits, len(rows)):
        _or_chunk(out, cols, lo, j, bounds)
    return out.T


def _bit_minima(order_bits: np.ndarray, set_bits: np.ndarray) -> np.ndarray:
    """The minima of each set in the ``_bit_rows`` ``set_bits`` under the
    order whose ``_bit_rows`` are ``order_bits``, as bit rows: the set
    minus ``_or_rows`` of its members' order rows, which is 0 for a set
    without members."""
    return set_bits & ~_or_rows(set_bits, order_bits)


def _inside(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[i, j]``: row i of the bit rows ``a`` has no bit outside row j
    of ``b``.  A block of rows of ``a``, as many as fit ``_CHUNK_ITEMS``
    words against all of ``b`` and at least one, is ANDed with the
    complement of ``b`` one word column at a time and ORed into one
    buffer, so only that block's words are held besides the booleans; the
    complement of ``b`` is read only against ``a``, whose padding is 0."""
    out = np.empty((len(a), len(b)), dtype=bool)
    not_b = np.invert(b.T, order="C")
    step = max(1, _CHUNK_ITEMS // max(1, len(b)))
    acc = np.empty((min(step, len(a)), len(b)), dtype=np.uint64)
    term = np.empty_like(acc)
    for lo in range(0, len(a), step):
        rows = a[lo : lo + step]
        block, part = acc[: len(rows)], term[: len(rows)]
        block.fill(0)
        for w in range(a.shape[1]):
            np.bitwise_and(rows[:, w, np.newaxis], not_b[w], out=part)
            block |= part
        np.equal(block, 0, out=out[lo : lo + len(rows)])
    return out


def _unmodular(
    ids: Sequence[str], bits: np.ndarray, not_before: np.ndarray, lo: int,
    j: np.ndarray, bounds: np.ndarray, limit: int,
) -> list[Violation]:
    """The first ``limit`` pairs x < y of one ``_chunks`` block of the order
    ``bits`` with some z unordered against both, each with the first such
    z: z lies neither in x's row (not x < z) nor in y's row of
    ``not_before``, the ``_complement`` of the order's transpose (not
    z < y).  The x rows are gathered and complemented in place, and the y
    rows gathered and ANDed with them, in slices of ``_CHUNK_ITEMS`` words
    for the two, until ``limit`` are found; the padding bits the complement
    sets are cleared by ``not_before``'s."""
    x = lo + np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    step = max(1, _CHUNK_ITEMS // (2 * bits.shape[1]))
    out: list[Violation] = []
    for s in range(0, len(j), step):
        xs, ys = x[s : s + step], j[s : s + step]
        both = bits[xs]
        np.invert(both, out=both)
        both &= not_before[ys]
        bad = np.flatnonzero(both.any(axis=1))[: limit - len(out)]
        for i, y, words in zip(xs[bad], ys[bad], both[bad]):
            z = int(np.argmax(_unpacked(words, len(ids))))
            out.append(
                Violation(
                    instance=f"{ids[i]} < {ids[y]} but {ids[z]} is unordered against both",
                    witnesses=(ids[i], ids[y], ids[z]),
                )
            )
        if len(out) == limit:
            break
    return out


def _order_violations(
    ids: Sequence, bits: np.ndarray, modular: bool = False
) -> tuple[list[Violation], list[Violation], list[Violation]]:
    """Irreflexivity, transitivity and, if ``modular``, modularity
    violations of the relation over ``ids`` whose ``_bit_rows`` are
    ``bits``, at most ``_MAX_VIOLATIONS`` of each, pairs in row-major order.
    ``ids`` is read only to name the elements of a violation.

    Irreflexivity reads the diagonal bits.  One ``_chunks`` walk over the
    relation's pairs serves the other two checks.  Each block ORs its rows'
    successor rows (``_or_chunk``) into ``reach``, held as word columns
    like the relation's ``cols``.  ``reach`` then ORs in each row itself,
    in place; row i fails transitivity exactly when that leaves it unequal
    to row i.  The word columns are freed before only a failing row is
    unpacked to list its (i, k, j), each with the first middle k.  A
    diagonal gap is a 2-cycle x < z < x.  Modularity (``_unmodular``) is
    read from the same blocks until its last reported violation.
    """
    n = len(ids)
    refl = [
        Violation(instance=f"{ids[i]} < {ids[i]}", witnesses=(ids[i],))
        for i in np.flatnonzero(_diagonal(bits))[:_MAX_VIOLATIONS]
    ]
    if modular:
        not_before = _complement(_transposed(bits, n), n)
    cols = bits.T.copy()
    reach = np.zeros_like(cols)
    mod: list[Violation] = []
    for lo, j, bounds in _chunks(bits, n):
        _or_chunk(reach, cols, lo, j, bounds)
        if modular and len(mod) < _MAX_VIOLATIONS:
            mod += _unmodular(ids, bits, not_before, lo, j, bounds, _MAX_VIOLATIONS - len(mod))
    reach |= cols
    bad = np.flatnonzero((reach != cols).any(axis=0))
    del cols
    reach = reach.T
    trans: list[Violation] = []
    for r in bad:
        row = _unpacked(bits[r], n)
        for j in np.flatnonzero(_unpacked(reach[r] ^ bits[r], n)):
            k = int(np.argmax(row & _column(bits, j)))
            trans.append(
                Violation(
                    instance=f"{ids[r]} < {ids[k]} < {ids[j]} but not {ids[r]} < {ids[j]}",
                    witnesses=(ids[r], ids[k], ids[j]),
                )
            )
            if len(trans) == _MAX_VIOLATIONS:
                return refl, trans, mod
    return refl, trans, mod


def verify_order_axioms(pref: PreferentialModel) -> list[PropertyCheck]:
    """Check irreflexivity, transitivity, well-foundedness and (informational
    only) modularity of the global preference, ``pref.bits``.

    One ``_order_violations`` walk over the pairs of ``pref.bits``, in
    blocks within ``_CHUNK_ITEMS``, serves both transitivity and
    modularity; modularity's columns are the complement of the transpose
    of the bit rows, packed a block of rows at a time and complemented in
    place.  No matrix product is taken.
    """
    refl, trans, mod = _order_violations(pref.element_ids, pref.bits, modular=True)
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
    ``max_conjuncts`` distinct names (sorted)."""
    pool: list[ConceptExpr] = [Top(), Bot()]
    names = sorted(dict.fromkeys(names))
    pool.extend(map(Name, names))
    for r in range(2, max_conjuncts + 1):
        pool.extend(And(*map(Name, combo)) for combo in itertools.combinations(names, r))
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
    """One void scalar per row of the matrix ``rows`` (``_bit_rows``, say),
    as many bytes as the row, compared bytewise, so two keys are equal
    exactly when the rows are."""
    rows = np.ascontiguousarray(rows if rows.shape[1] else np.zeros((len(rows), 1), np.uint8))
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0]


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


def _class_of(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The class whose bit row each of ``rows`` is, or -1: its place among
    the sorted class ``keys``, ``_void_keys`` of the classes' rows."""
    found = _void_keys(rows)
    at = np.minimum(np.searchsorted(keys, found), len(keys) - 1)
    return np.where(keys[at] == found, at, -1)


def verify_klm(
    pref: PreferentialModel, pool: Sequence[ConceptExpr] | None = None
) -> list[PropertyCheck]:
    """Check the closure postulates of the induced entailment C |~ D over a
    concept pool (default: all conjunctions of up to three category names,
    plus Top and Bot).  All of them must hold in this semantics; a violation
    is an implementation bug surfacing, not an interesting phenomenon.

    T(C) is ``_bit_minima`` of ext(C), and C |~ D holds when T(C) is
    ``_inside`` ext(D).  Reflexivity and LLE are checked per pool concept,
    with one entailment row per concept over the pool's distinct extensions
    ("classes"); RW, And, CM and Or per class, as the module docstring says.
    """
    ids = pref.element_ids
    ext, label = _pool_masks(pref.base, pool)
    n, width = len(ext), len(ids)
    ext_bits = _bit_rows(ext)
    typ = _bit_minima(pref.bits, ext_bits)

    refl = [
        Violation(
            instance=f"C={label(i)}",
            witnesses=_witnesses(ids, _unpacked(typ[i], width) & ~ext[i]),
        )
        for i in np.flatnonzero((typ & ~ext_bits).any(axis=1))
    ]

    # The classes, one per distinct bit row in the order of their sorted
    # keys: inv[c] is the class of pool concept c and first[a] the first pool
    # concept of class a.
    keys, first, inv = np.unique(_void_keys(ext_bits), return_index=True, return_inverse=True)
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

    k, words = cls_bits.shape
    ent = entail[first]
    ent_bits = _bit_rows(ent)
    cls_typ = typ[first]
    subset = _inside(cls_bits, cls_bits)
    # Over the classes C entails, OR their complements and their subset rows.
    complements = _complement(cls_bits.copy(), width)
    walk = _or_rows(ent_bits, np.hstack([complements, _bit_rows(subset)]))
    common = _complement(walk[:, :words], width)  # I(C)
    # cm_fails[C]: min(ext(C) & ext(D)) is not inside I(C) for some D that C
    # entails.  The entailed pairs are walked in slices of rows of C whose
    # pairs' words fit _CHUNK_ITEMS, each distinct set's minima read once; a
    # failing class's minima are computed again to list it (cm_minima).
    cm_fails = np.zeros(k, dtype=bool)
    for lo, hi in _slices(np.cumsum(ent.sum(axis=1) * words), _CHUNK_ITEMS):
        pc, pd = np.nonzero(ent[lo:hi])
        pc += lo
        sets = cls_bits[pc] & cls_bits[pd]
        _, at, back = np.unique(_void_keys(sets), return_index=True, return_inverse=True)
        outside = (_bit_minima(pref.bits, sets[at])[back] & ~common[pc]).any(axis=1)
        cm_fails[pc[outside]] = True

    def cm_minima(a: int) -> np.ndarray:
        """min(ext(C) & ext(D)) for class a as C, in row D of every class D
        that C entails, and 0 in the other rows."""
        out = np.zeros_like(cls_bits)
        out[ent[a]] = _bit_minima(pref.bits, cls_bits[a] & cls_bits[ent[a]])
        return out

    # join[a, b]: the class of the union of classes a and b, or -1.  The
    # pairs a <= b are walked in slices of rows of a whose pairs' words fit
    # _CHUNK_ITEMS.  Each slice also counts the pool pairs (c, d), c < d,
    # whose union is no class; equal classes always join to themselves, so
    # only pairs of distinct classes count.
    join = np.full((k, k), -1, dtype=np.int32)
    or_fails = np.zeros(k, dtype=bool)
    mult = np.bincount(inv, minlength=k)
    skipped = 0
    for lo, hi in _slices(np.cumsum(np.arange(k, 0, -1) * words), _CHUNK_ITEMS):
        x, y = np.triu_indices(hi - lo, m=k - lo)
        x += lo
        y += lo
        j = join[x, y] = join[y, x] = _class_of(keys, cls_bits[x] | cls_bits[y])
        skipped += int((mult[x] * mult[y])[j < 0].sum())
        x, y, j = x[j >= 0], y[j >= 0], j[j >= 0]
        bad = (ent_bits[x] & ent_bits[y] & ~ent_bits[j]).any(axis=1)
        or_fails[x[bad]] = or_fails[y[bad]] = True

    def triples(fails: np.ndarray, bad_at_class, witness, unordered=False) -> list[Violation]:
        """Pool instances (c, d, e) of the classes ``fails`` marks, from
        ``bad_at_class(a)``, class a's class x class matrix of bad (D, E),
        each with ``witness(c, d, e)``, the elements that make it bad."""
        if not fails.any():
            return []

        def bad_at(c: int) -> np.ndarray:
            if not fails[inv[c]]:
                return np.zeros((0, 0), dtype=bool)
            bad = bad_at_class(inv[c])[np.ix_(inv, inv)]
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

    def and_at(a: int) -> np.ndarray:
        outside = (cls_typ[a] & ~cls_bits).any(axis=1)  # T(C) not inside ext(D)
        return ent[a][:, np.newaxis] & ent[a] & (outside[:, np.newaxis] | outside)

    rw = triples(
        # C |~ D and ext(D) inside ext(E), but not C |~ E
        (walk[:, words:] & ~ent_bits).any(axis=1),
        lambda a: ent[a][:, np.newaxis] & ~ent[a] & subset,
        lambda c, d, e: _unpacked(typ[c], width) & ~ext[e],
    )
    conj = triples(
        # C |~ D and C |~ E, but not C |~ D & E
        (cls_typ & ~common).any(axis=1),
        and_at,
        lambda c, d, e: _unpacked(typ[c], width) & ~(ext[d] & ext[e]),
    )
    cm = triples(
        # C |~ D and C |~ E, but not C & D |~ E
        cm_fails,
        lambda a: ent[a][:, np.newaxis] & ent[a] & ~_inside(cm_minima(a), cls_bits),
        lambda c, d, e: _unpacked(
            _bit_minima(pref.bits, cls_bits[inv[c], np.newaxis] & cls_bits[inv[d]])[0], width
        ) & ~ext[e],
    )
    or_viol = triples(
        # C |~ E and D |~ E, but not C | D |~ E, for a union that is a class
        or_fails,
        lambda a: (join[a] >= 0)[:, np.newaxis] & ent[a] & ent & ~ent[join[a]],
        lambda c, d, e: _unpacked(cls_typ[join[inv[c], inv[d]]], width) & ~ext[e],
        unordered=True,
    )
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
