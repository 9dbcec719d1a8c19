"""Semantic domain and per-category preference structure read off a map.

A trained map plus its input stimuli induce a finite first-order domain and,
for every category, a graded membership measure: the relative distance of an
element to the category's best-matching units, normalised by how precisely
the map learned that category.  Lower relative distance means more typical.

Domain elements are identified by bitwise-equal feature vectors, so a
stimulus that coincides with a unit's weights is one element, not two.  The
domain is the union of three groups, in construction order: input stimuli,
the weight vectors of all best-matching units, and optional unlabelled probe
vectors.  A stimulus element keeps the stimulus's id; the element of unit
``u`` is ``u{u}`` and that of probe ``j`` is ``p{j}``, with a prime added
for as long as an earlier element holds the id (``u0'``, then ``u0''``).

Per category ``C`` with at least one stimulus:

* ``bmu_units``      grid units that are the BMU of at least one C-stimulus,
* ``precision``      max over C-stimuli of the distance to their own BMU,
* ``rd(y, C)``       min distance from ``y`` to the BMU ensemble, divided by
                     the precision; if the precision is zero the value is 0.0
                     on the ensemble itself and infinite elsewhere,
* ``rd_max``         max of ``rd`` over C's own stimuli (exactly 1.0 whenever
                     the precision is positive),
* extension          every domain element with ``rd`` at most ``rd_max``.

Only the element features and each category's ``bmu_units``,
``bmu_elements`` and ``stimulus_elements`` come from the map; ``_derive``
computes the rest from them.  ``build_model`` reads those off the map, and
``load_model`` off a saved ``model.json``.  The file keeps each element's
id in its record and all features in one top-level ``features`` column,
row-major, ``input_dim`` numbers per element in domain order.  Of the
derived values it stores only each category's rd table and ``rd_max``,
which must equal the derived ones; the loader compares each table with its
derived row in one list comparison, and walks its elements only when that
comparison has failed, to name the first difference.  A file without the
``features`` column, which an older ``extract`` wrote, is refused.

The model is dense: one ``elements x input_dim`` float64 matrix of
features, one ``categories x elements`` float64 matrix of rd and one
boolean matrix of extension masks, filled by array operations.  The
semantics downstream (specificity, the global preference, the postulates)
and the snapshot read the matrices by row and column index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import jsonio
from .errors import ConsistencyError, InputError
from .som import SomMap, Stimulus, nearest_in_groups, nearest_units

__all__ = [
    "DomainElement",
    "CategoryTable",
    "SemanticModel",
    "RESERVED_WORDS",
    "valid_category_name",
    "build_model",
    "model_snapshot",
    "model_from_snapshot",
    "save_model",
    "load_model",
]

# Category labels double as concept names in the query language, so they must
# be identifiers and must not collide with its reserved words.
RESERVED_WORDS = frozenset({"T", "Top", "Bot"})
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def valid_category_name(name: str) -> bool:
    return bool(_NAME_RE.fullmatch(name)) and name not in RESERVED_WORDS


def _check_category_names(names: Iterable[str]) -> None:
    bad = sorted(n for n in names if not valid_category_name(n))
    if bad:
        raise InputError(
            f"category labels must be identifiers distinct from "
            f"{sorted(RESERVED_WORDS)}; offending labels: {bad}"
        )


@dataclass(frozen=True)
class DomainElement:
    """One point of the semantic domain.

    ``origin`` records which group first contributed the element: an input
    ``stimulus``, a best-matching unit's weight vector (``bmu``), or an
    unlabelled ``probe``.
    """

    eid: str
    features: tuple[float, ...]
    origin: str


@dataclass(frozen=True, eq=False)
class CategoryTable:
    """Everything the semantics needs to know about one category.

    For a category without stimuli (possible in revision traces before its
    first example arrives) ``precision`` and ``rd_max`` are ``None``.  Its
    relative distances and extension are its rows of the model's ``rd`` and
    ``ext`` matrices.
    """

    name: str
    bmu_units: tuple[int, ...]
    bmu_element_ids: tuple[str, ...]
    stimulus_element_ids: tuple[str, ...]
    precision: float | None
    rd_max: float | None

    @property
    def empty(self) -> bool:
        return len(self.stimulus_element_ids) == 0


class SemanticModel:
    """The model in dense form: one ``elements x input_dim`` float64 matrix
    ``features``, one ``categories x elements`` float64 matrix ``rd`` and
    one boolean matrix ``ext`` of extension masks.

    Column ``col_of[eid]`` belongs to element ``eid`` (``element_ids`` is the
    domain order) and row ``row_of[name]`` to category ``name`` (the order
    in which the categories were given).  Row ``col_of[y]`` of ``features``
    holds y's features, ``rd[row_of[C], col_of[y]]`` is rd(y, C), a row of
    nan for a category without stimuli, and ``ext`` is ``rd <= rd_max`` row
    by row.  The three matrices are read-only.  An element is looked up by
    ``col_of``.  ``origins`` and ``elements`` (the ``DomainElement``
    records) are derived on first read, from the categories' reference
    lists; nothing that ``check`` or ``verify`` runs reads them.
    """

    def __init__(
        self,
        element_ids: Sequence[str],
        col_of: dict[str, int],
        features: np.ndarray,
        refs: Mapping[str, tuple[tuple[int, ...], tuple[str, ...], tuple[str, ...]]],
        precision: Sequence[float | None],
        rd: np.ndarray,
    ):
        """The model of the elements ``element_ids``, element ``eid`` in
        column ``col_of[eid]``, with the rows of ``features``, given each
        category's (bmu_units, bmu_elements, stimulus_elements) in ``refs``,
        its precision (None without stimuli) and its row of ``rd``, in the
        order of ``refs``.  Each category's ``rd_max`` is the largest rd
        over its stimulus elements and its extension every element with rd
        at most that."""
        self.input_dim = features.shape[1]
        self.element_ids = tuple(element_ids)
        if len(col_of) != len(self.element_ids):
            raise InputError("duplicate element ids in domain")
        self.col_of = col_of
        self.features = features
        self.row_of = {name: i for i, name in enumerate(refs)}

        stim_rows, stim_cols = _cells(refs, col_of, 2)
        n_stim = np.bincount(stim_rows, minlength=len(rd))
        ranked = np.flatnonzero(n_stim)
        rd_max = np.full(len(rd), np.nan)
        if ranked.size:
            rd_max[ranked] = np.maximum.reduceat(rd[stim_rows, stim_cols], _run_starts(n_stim[ranked]))
        self.rd = rd
        self.ext = rd <= rd_max[:, np.newaxis]
        for matrix in (features, rd, self.ext):
            matrix.flags.writeable = False

        self.categories = {
            name: CategoryTable(
                name=name,
                bmu_units=bmu_units,
                bmu_element_ids=bmu_ids,
                stimulus_element_ids=stim_ids,
                precision=p,
                rd_max=None if p is None else m,
            )
            for (name, (bmu_units, bmu_ids, stim_ids)), p, m
            in zip(refs.items(), precision, rd_max.tolist())
        }

    @cached_property
    def origins(self) -> tuple[str, ...]:
        """Each element's origin, in domain order: ``stimulus`` if some
        category lists it as a stimulus, else ``bmu`` if one lists it as a
        BMU, else ``probe``."""
        origin = dict.fromkeys(self.element_ids, "probe")
        for t in self.categories.values():
            origin.update(dict.fromkeys(t.bmu_element_ids, "bmu"))
        for t in self.categories.values():
            origin.update(dict.fromkeys(t.stimulus_element_ids, "stimulus"))
        return tuple(origin.values())

    @cached_property
    def elements(self) -> tuple[DomainElement, ...]:
        features = map(tuple, self.features.tolist())
        return tuple(map(DomainElement, self.element_ids, features, self.origins))

    @property
    def category_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.categories))

    def category(self, name: str) -> CategoryTable:
        try:
            return self.categories[name]
        except KeyError:
            raise InputError(f"unknown category {name!r}") from None


# ==============================================================
# Construction
# ==============================================================


def build_model(
    som: SomMap,
    data: Sequence[Stimulus],
    probes: Sequence[Sequence[float]] = (),
    categories: Sequence[str] | None = None,
) -> SemanticModel:
    """Read the semantic model off a map and its input stimuli.

    ``categories`` fixes the category set explicitly (labels present in the
    data must all be listed; extra names get empty tables).  By default the
    categories are the labels occurring in the data.
    """
    if len(data) == 0 and categories is None:
        raise InputError("cannot build a model from empty data without a category list")
    labels = [s.label for s in data]
    if categories is None:
        cat_names = sorted(set(labels))
    else:
        cat_names = list(dict.fromkeys(categories))
        unknown = sorted(set(labels) - set(cat_names))
        if unknown:
            raise InputError(f"data labels not in the category list: {unknown}")

    seen_sids: dict[str, tuple[float, ...]] = {}
    for s in data:
        if s.dim != som.input_dim:
            raise InputError(
                f"stimulus {s.sid!r} has dimension {s.dim}, map expects {som.input_dim}"
            )
        if s.sid in seen_sids and seen_sids[s.sid] != s.features:
            raise InputError(f"stimulus id {s.sid!r} reused with different features")
        seen_sids[s.sid] = s.features

    stim_feats = np.array([s.features for s in data], dtype=np.float64)
    # A stimulus whose squared distances all overflow gets an infinite
    # own-BMU distance, which _derive refuses as an infinite precision.
    with np.errstate(over="ignore"):
        bmu_of = nearest_units(stim_feats.reshape(len(data), som.input_dim), som.weights)[0]
    bmu_of = bmu_of.tolist()

    # Domain: stimuli first, then BMU weight vectors, then probes, all
    # deduplicated on exact feature equality; the keys of ``by_feat`` are
    # the domain's features and its values the element ids, in domain order.
    by_feat: dict[tuple[float, ...], str] = {}
    for s in data:
        by_feat.setdefault(s.features, s.sid)
    taken = set(by_feat.values())
    unit_feats = {u: tuple(float(v) for v in som.weights[u]) for u in sorted(set(bmu_of))}
    for u, feats in unit_feats.items():
        if feats not in by_feat:
            by_feat[feats] = _fresh(f"u{u}", taken)
    for j, p in enumerate(probes):
        feats = tuple(float(v) for v in p)
        if len(feats) != som.input_dim:
            raise InputError(
                f"probe {j} has dimension {len(feats)}, map expects {som.input_dim}"
            )
        if feats not in by_feat:
            by_feat[feats] = _fresh(f"p{j}", taken)

    refs = {}
    for cat in cat_names:
        idxs = [i for i, s in enumerate(data) if s.label == cat]
        bmu_units = tuple(sorted({bmu_of[i] for i in idxs}))
        refs[cat] = (
            bmu_units,
            tuple(dict.fromkeys(by_feat[unit_feats[u]] for u in bmu_units)),
            tuple(dict.fromkeys(by_feat[data[i].features] for i in idxs)),
        )
    ids = list(by_feat.values())
    features = np.array(list(by_feat), dtype=np.float64).reshape(len(ids), som.input_dim)
    return _derive(ids, dict(zip(ids, range(len(ids)))), features, refs)


def _fresh(eid: str, taken: set[str]) -> str:
    """``eid`` with primes appended until ``taken`` lacks it, then taken."""
    while eid in taken:
        eid += "'"
    taken.add(eid)
    return eid


def _rd(num: np.ndarray, precision: np.ndarray) -> np.ndarray:
    """Relative distances from the distances ``num`` to each category's BMU
    ensemble, ``precision`` broadcast against ``num``: ``num / precision``,
    or, where the precision is zero, 0.0 on the ensemble and infinite
    elsewhere.  The zero-precision branch runs only when some precision is
    not positive."""
    if (precision > 0.0).all():
        return num / precision
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(precision > 0.0, num / precision, np.where(num == 0.0, 0.0, np.inf))


def _cells(refs: Mapping[str, tuple], col_of: Mapping[str, int], which: int) -> tuple[np.ndarray, np.ndarray]:
    """The (row, column) indices of the elements that each category of
    ``refs`` lists at place ``which`` of its references (1: BMU elements,
    2: stimulus elements), category by category, each in list order."""
    lists = [ref[which] for ref in refs.values()]
    rows = np.repeat(np.arange(len(lists)), list(map(len, lists)))
    return rows, np.fromiter(map(col_of.__getitem__, chain.from_iterable(lists)), np.intp, len(rows))


# Squared distances may overflow on far-apart features.  An infinite
# distance is a valid rd; only an infinite precision is refused.
@np.errstate(over="ignore")
def _derive(
    element_ids: Sequence[str],
    col_of: dict[str, int],
    features: np.ndarray,
    refs: Mapping[str, tuple[tuple[int, ...], tuple[str, ...], tuple[str, ...]]],
) -> SemanticModel:
    """The semantic model of the domain ``element_ids``, in domain order,
    element ``eid`` in column ``col_of[eid]`` and its features in that row
    of the ``elements x input_dim`` matrix ``features``, given each
    category's (bmu_units, bmu_elements, stimulus_elements) in ``refs``,
    the BMU elements non-empty exactly when the stimulus elements are.  Each
    category's precision and row of rd come from the distances to the BMU
    elements' own feature rows.  The category names must be identifiers
    distinct from the reserved words, whichever path the model comes from.
    """
    _check_category_names(refs)
    if not np.isfinite(features).all():
        finite = np.isfinite(features).all(axis=1)
        raise InputError(f"element {element_ids[int(finite.argmin())]!r} has non-finite features")

    names = list(refs)
    bmu_rows, bmu_cols = bmu_cells = _cells(refs, col_of, 1)
    stim_rows, stim_cols = stim_cells = _cells(refs, col_of, 2)
    n_stim = np.bincount(stim_rows, minlength=len(names))
    ranked = np.flatnonzero(n_stim)
    rd = np.full((len(names), len(element_ids)), np.nan)
    precision: list[float | None] = [None] * len(names)
    if ranked.size:
        # One row of distances per category with stimuli, to its nearest BMU
        # element.
        num = np.sqrt(nearest_in_groups(
            features, features, bmu_cols, _run_starts(np.bincount(bmu_rows)[ranked])).T)
        # A stimulus's own BMU minimises the distance over *all* units, so
        # its distance to the ensemble is exactly its own-BMU distance; the
        # precision is therefore their max.
        num_rows = np.repeat(np.arange(len(ranked)), n_stim[ranked])
        p = np.maximum.reduceat(num[num_rows, stim_cols], _run_starts(n_stim[ranked]))
        overflow = np.flatnonzero(~np.isfinite(p))
        if overflow.size:
            raise InputError(f"category {names[ranked[overflow[0]]]!r}: "
                             f"distances to its BMUs overflow float64")
        for i, value in zip(ranked.tolist(), p.tolist()):
            precision[i] = value
        rd[ranked] = _rd(num, p[:, np.newaxis])

    model = SemanticModel(element_ids, col_of, features, refs, precision, rd)
    _check_tables(model, bmu_cells, stim_cells)
    return model


def _run_starts(lengths: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of the given lengths starts."""
    return np.concatenate(([0], np.cumsum(lengths[:-1])))


def _check_tables(model: SemanticModel, bmu_cells: tuple, stim_cells: tuple) -> None:
    # Invariants of the construction; violations are implementation bugs.
    # One test over all categories passes a healthy model; only a model
    # that fails it is walked, to name the first violation.
    if ((model.rd[bmu_cells] == 0.0).all() and model.ext[stim_cells].all()
            and all(t.rd_max == 1.0 for t in model.categories.values()
                    if not t.empty and t.precision > 0.0)):
        return
    for name, t in model.categories.items():
        if t.empty:
            continue
        row = model.row_of[name]
        for eid in t.bmu_element_ids:
            value = float(model.rd[row, model.col_of[eid]])
            if value != 0.0:
                raise ConsistencyError(
                    f"category {name!r}: BMU element {eid!r} has rd {value!r}, expected 0.0"
                )
        if t.precision > 0.0 and t.rd_max != 1.0:
            raise ConsistencyError(
                f"category {name!r}: rd_max is {t.rd_max!r} with positive precision, expected 1.0"
            )
        for eid in t.stimulus_element_ids:
            if not model.ext[row, model.col_of[eid]]:
                raise ConsistencyError(
                    f"category {name!r}: stimulus element {eid!r} outside its own extension"
                )


# ==============================================================
# Snapshots
# ==============================================================


def model_snapshot(model: SemanticModel) -> dict:
    ids = model.element_ids
    cats = {}
    for name in model.category_names:
        t = model.categories[name]
        rd = [] if t.empty else model.rd[model.row_of[name]].tolist()
        cats[name] = {
            "bmu_units": list(t.bmu_units),
            "bmu_elements": list(t.bmu_element_ids),
            "stimulus_elements": list(t.stimulus_element_ids),
            "rd_max": None if t.rd_max is None else jsonio.encode_float(t.rd_max),
            "rd": dict(zip(ids, map(jsonio.encode_float, rd))),
        }
    return {
        "input_dim": model.input_dim,
        "elements": [{"id": eid} for eid in ids],
        "features": model.features.ravel().tolist(),
        "categories": cats,
    }


# Stands for a key that a stored or a derived rd table lacks.
_MISSING = "missing"


def model_from_snapshot(doc: dict) -> SemanticModel:
    """The model a snapshot describes, derived again from its features
    column and reference lists by ``build_model``'s own code.  A stored
    ``rd_max`` or rd table that differs from the derived one is refused
    with ``InputError``, naming it, and so is a snapshot without the
    top-level ``features`` column, which only an older ``extract`` wrote
    (it kept each element's features in the element's record).

    The features column must be one list of JSON numbers, ``input_dim`` of
    them per element in domain order, as ``bmu_units`` must be strictly
    increasing lists of non-negative integers and each category's ``rd`` an
    object, as ``build_model`` writes them, and ``input_dim`` an integer;
    anything else is a malformed snapshot.  The stored tables are read as
    parsed, not copied, and compared a row at a time (``_check_stored``).  A
    value nested too deep for ``repr`` or ``==`` (``jsonio.load_file`` reads
    ``MAX_DEPTH`` levels) is a malformed snapshot too.  ``doc`` is left as
    it was given."""
    return _checked_model(doc, _read_elements(doc))


def _checked_model(doc: dict, elements: tuple) -> SemanticModel:
    """``model_from_snapshot`` on ``doc`` and its ``_read_elements``."""
    try:
        model, stored = _derive_snapshot(doc, *elements)
        _check_stored(model, stored)
    except RecursionError as exc:
        raise InputError(f"malformed model snapshot: {exc}") from exc
    return model


def _read_elements(doc: dict) -> tuple[int, list, np.ndarray]:
    """A snapshot's ``input_dim``, element ids and features column, the
    column as a flat array; ``doc`` is not changed."""
    if isinstance(doc, dict) and "features" not in doc:
        raise InputError("model snapshot has no top-level 'features' column, so an older "
                         "extract wrote it; run extract again")
    try:
        input_dim = doc["input_dim"]
        if type(input_dim) is not int:
            raise TypeError(f"input_dim must be an integer, got {input_dim!r}")
        ids = [e["id"] for e in doc["elements"]]
        if set(map(type, ids)) - {str} or "" in ids:
            eid = next(e for e in ids if type(e) is not str or not e)
            raise TypeError(f"element ids must be non-empty strings, got {eid!r}")
        column = doc["features"]
        if type(column) is not list:
            raise TypeError(f"features must be a list of numbers, got {type(column).__name__}")
        if set(map(type, column)) - {float, int}:
            i = next(i for i, v in enumerate(column) if type(v) not in (float, int))
            raise TypeError(f"features must be a list of numbers, got {column[i]!r} at index {i}")
        return input_dim, ids, np.fromiter(column, np.float64, len(column))
    except (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise InputError(f"malformed model snapshot: {exc}") from exc


def _derive_snapshot(doc: dict, input_dim: int, ids: list,
                     flat: np.ndarray) -> tuple[SemanticModel, dict[str, tuple]]:
    """The model derived from a snapshot's elements (``_read_elements``) and
    reference lists, with the (rd_max, rd) that the snapshot stores per
    category, as read.  Any other key is not read."""
    try:
        refs, stored = {}, {}
        for name, c in doc["categories"].items():
            units = c["bmu_units"]
            if type(units) is not list or any(type(u) is not int for u in units):
                raise TypeError(f"category {name!r}: bmu_units must be a list of integers, got {units!r}")
            if units != sorted(set(units)) or (units and units[0] < 0):
                raise ValueError(f"category {name!r}: bmu_units must be strictly increasing "
                                 f"and non-negative, got {units!r}")
            bmu, stim = c["bmu_elements"], c["stimulus_elements"]
            for field, listed in (("bmu_elements", bmu), ("stimulus_elements", stim)):
                if type(listed) is not list or set(map(type, listed)) - {str}:
                    raise TypeError(f"category {name!r}: {field} must be a list of element ids, "
                                    f"got {listed!r}")
            refs[name] = (tuple(units), tuple(bmu), tuple(stim))
            rd = c["rd"]
            if type(rd) is not dict:
                raise TypeError(f"category {name!r}: rd must be an object of element ids, "
                                f"got {type(rd).__name__}")
            stored[name] = (c["rd_max"], rd)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"malformed model snapshot: {exc}") from exc

    # What the derivation reads must be well formed.
    if input_dim < 1:
        raise InputError(f"input_dim must be positive, got {input_dim}")
    features = _feature_matrix(flat, len(ids), input_dim)
    col_of = dict(zip(ids, range(len(ids))))
    for name, (bmu_units, bmu, stim) in refs.items():
        for eid in (*bmu, *stim):
            if eid not in col_of:
                raise InputError(f"category {name!r} references unknown element {eid!r}")
        for field, listed in (("bmu_elements", bmu), ("stimulus_elements", stim)):
            if len(set(listed)) != len(listed):
                eid = next(e for i, e in enumerate(listed) if e in listed[:i])
                raise InputError(f"category {name!r} lists element {eid!r} twice in {field}")
        if not (bool(bmu_units) == bool(bmu) == bool(stim)):
            raise InputError(f"category {name!r}: bmu_units, bmu_elements and "
                             f"stimulus_elements must be all empty or all non-empty")

    return _derive(ids, col_of, features, refs), stored


def _feature_matrix(flat: np.ndarray, n: int, input_dim: int) -> np.ndarray:
    """The features column ``flat`` as the ``n x input_dim`` matrix of the
    snapshot's ``n`` elements, refused unless it holds that many numbers."""
    if flat.size != n * input_dim:
        raise InputError(f"features column holds {flat.size} numbers, {n} elements of "
                         f"input_dim {input_dim} take {n * input_dim}")
    return flat.reshape(n, input_dim)


def _check_stored(model: SemanticModel, stored: Mapping[str, tuple]) -> None:
    """Refuse stored (rd_max, rd) tables that differ from ``model``'s,
    naming the first difference.

    Stored values are compared as read, with what ``model_snapshot``
    writes, so nothing is decoded.  Each rd table is compared as a whole;
    only one that differs is walked, to find the element to name."""

    def refuse(where: str, got, want) -> InputError:
        return InputError(f"model snapshot differs from its re-derivation: {where}: "
                          f"stored {got!r}, derived {want!r}")

    ids = model.element_ids
    keys = cols = None  # the last stored rd keys and their columns
    for name, t in model.categories.items():
        rd_max, rd = stored[name]
        row = model.row_of[name]
        if rd_max != t.rd_max:
            raise refuse(f"category {name!r}, rd_max", rd_max, t.rd_max)
        if t.empty:
            same = not rd
        else:
            # Each category's table normally has the same keys in the same
            # order, so their columns are looked up once.
            if list(rd) != keys:
                keys = list(rd)
                cols = _rd_columns(keys, model.col_of)
            same = cols is not None and _stored_rd_matches(list(rd.values()), model.rd[row, cols])
        if not same:
            derived = [] if t.empty else model.rd[row].tolist()
            want = dict(zip(ids, map(jsonio.encode_float, derived)))
            eid, got = next((k, rd.get(k, _MISSING)) for k in (*want, *rd)
                            if rd.get(k, _MISSING) != want.get(k, _MISSING))
            raise refuse(f"category {name!r}, rd of {eid!r}", got, want.get(eid, _MISSING))


def _rd_columns(keys: list, col_of: Mapping[str, int]) -> np.ndarray | None:
    """The column of each of the stored rd ``keys``, or None unless they
    are exactly the element ids."""
    if len(keys) != len(col_of):
        return None
    try:
        return np.fromiter(map(col_of.__getitem__, keys), np.intp, len(keys))
    except KeyError:
        return None


def _stored_rd_matches(values: list, row: np.ndarray) -> bool:
    """Whether the stored rd ``values`` are those of ``row``, all as floats
    or as ``model_snapshot`` writes them (an infinite one as ``"inf"``)."""
    want = row.tolist()
    if values == want:
        return True
    for i in np.flatnonzero(np.isinf(row)).tolist():
        want[i] = jsonio.encode_float(want[i])
    return values == want


def save_model(path, model: SemanticModel) -> None:
    jsonio.dump_file(path, model_snapshot(model))


def load_model(path) -> SemanticModel:
    """``model_from_snapshot`` of the file at ``path``; the parsed element
    records and features column are deleted once read, so that the
    derivation's scratch does not sit on top of them."""
    doc = jsonio.load_file(path)
    elements = _read_elements(doc)
    del doc["elements"], doc["features"]
    return _checked_model(doc, elements)
