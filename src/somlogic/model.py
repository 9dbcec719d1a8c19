"""Semantic domain and per-category preference structure read off a map.

A trained map plus its input stimuli induce a finite first-order domain and,
for every category, a graded membership measure: the relative distance of an
element to the category's best-matching units, normalised by how precisely
the map learned that category.  Lower relative distance means more typical.

Domain elements are identified by bitwise-equal feature vectors, so a
stimulus that coincides with a unit's weights is one element, not two.  The
domain is the union of three groups, in construction order: input stimuli,
the weight vectors of all best-matching units, and optional unlabelled probe
vectors.

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
``load_model`` off a saved ``model.json``, whose stored tables and origins
must then equal the derived ones.

The model is dense: one ``categories x elements`` float64 matrix of rd and
one boolean matrix of extension masks, filled by array operations.  The
per-element ``DomainElement`` records, the per-category rd dicts and the
extensions as sets of ids are views of those, built on first read; the
semantics downstream (specificity, the global preference, the postulates)
reads the matrices by row and column index.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
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
    "initial_model",
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
    first example arrives) ``precision`` and ``rd_max`` are ``None`` and the
    ``rd`` table is empty.  ``rd`` maps every domain element id to its
    relative distance, in domain order; it is read off the model's rd
    matrix on first access.
    """

    name: str
    bmu_units: tuple[int, ...]
    bmu_element_ids: tuple[str, ...]
    stimulus_element_ids: tuple[str, ...]
    precision: float | None
    rd_max: float | None
    _ids: tuple[str, ...] = field(repr=False)
    _rd_row: np.ndarray = field(repr=False)

    @property
    def empty(self) -> bool:
        return len(self.stimulus_element_ids) == 0

    @cached_property
    def rd(self) -> Mapping[str, float]:
        return {} if self.empty else dict(zip(self._ids, self._rd_row.tolist()))


class SemanticModel:
    """The model in dense form: one ``categories x elements`` float64 matrix
    ``rd`` and one boolean matrix ``ext`` of extension masks.

    Column ``col_of[eid]`` belongs to element ``eid`` (``element_ids`` is the
    domain order) and row ``row_of[name]`` to category ``name`` (the order in
    which the categories were given).  ``rd[row_of[C], col_of[y]]`` is
    rd(y, C), a row of nan for a category without stimuli, and ``ext`` is
    ``rd <= rd_max`` row by row.  Both matrices are read-only.
    ``elements``, ``extensions`` and each ``CategoryTable.rd`` are views of
    them, built on first read.
    """

    def __init__(
        self,
        input_dim: int,
        elements: Sequence[tuple[str, tuple[float, ...]]],
        origins: Sequence[str],
        refs: Mapping[str, tuple[tuple[int, ...], tuple[str, ...], tuple[str, ...]]],
        precision: Sequence[float | None],
        rd: np.ndarray,
    ):
        """The model of the (id, features) ``elements`` with their
        ``origins``, given each category's (bmu_units, bmu_elements,
        stimulus_elements) in ``refs``, its precision (None without stimuli)
        and its row of ``rd``, in the order of ``refs``.  Each category's
        ``rd_max`` is the largest rd over its stimulus elements and its
        extension every element with rd at most that."""
        self.input_dim = input_dim
        self.element_ids = tuple(eid for eid, _ in elements)
        self.col_of = {eid: i for i, eid in enumerate(self.element_ids)}
        if len(self.col_of) != len(self.element_ids):
            raise InputError("duplicate element ids in domain")
        self._features = tuple(f for _, f in elements)
        self._origins = tuple(origins)
        self.row_of = {name: i for i, name in enumerate(refs)}

        stim = np.zeros(rd.shape, dtype=bool)
        for name, (_, _, stim_ids) in refs.items():
            stim[self.row_of[name], [self.col_of[eid] for eid in stim_ids]] = True
        rd_max = np.where(stim, rd, -np.inf).max(axis=1, initial=-np.inf)
        rd_max[~stim.any(axis=1)] = np.nan
        self.rd = rd
        self.ext = rd <= rd_max[:, np.newaxis]
        self.rd.flags.writeable = self.ext.flags.writeable = False

        self.categories = {
            name: CategoryTable(
                name=name,
                bmu_units=bmu_units,
                bmu_element_ids=bmu_ids,
                stimulus_element_ids=stim_ids,
                precision=precision[i],
                rd_max=None if precision[i] is None else float(rd_max[i]),
                _ids=self.element_ids,
                _rd_row=rd[i],
            )
            for i, (name, (bmu_units, bmu_ids, stim_ids)) in enumerate(refs.items())
        }

    @cached_property
    def elements(self) -> tuple[DomainElement, ...]:
        return tuple(map(DomainElement, self.element_ids, self._features, self._origins))

    @cached_property
    def extensions(self) -> dict[str, frozenset[str]]:
        return {
            name: frozenset(compress(self.element_ids, self.ext[i].tolist()))
            for name, i in self.row_of.items()
        }

    @property
    def category_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.categories))

    def element(self, eid: str) -> DomainElement:
        try:
            return self.elements[self.col_of[eid]]
        except KeyError:
            raise InputError(f"unknown domain element {eid!r}") from None

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
    _check_category_names(cat_names)

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
    # deduplicated on exact feature equality.
    elements: list[tuple[str, tuple[float, ...]]] = []
    by_feat: dict[tuple[float, ...], str] = {}

    def add(eid: str, feats: tuple[float, ...]) -> None:
        if feats not in by_feat:
            elements.append((eid, feats))
            by_feat[feats] = eid

    for s in data:
        add(s.sid, s.features)
    unit_feats = {u: tuple(float(v) for v in som.weights[u]) for u in sorted(set(bmu_of))}
    for u, feats in unit_feats.items():
        add(f"u{u}", feats)
    for j, p in enumerate(probes):
        feats = tuple(float(v) for v in p)
        if len(feats) != som.input_dim:
            raise InputError(
                f"probe {j} has dimension {len(feats)}, map expects {som.input_dim}"
            )
        add(f"p{j}", feats)

    refs = {}
    for cat in cat_names:
        idxs = [i for i, s in enumerate(data) if s.label == cat]
        bmu_units = tuple(sorted({bmu_of[i] for i in idxs}))
        refs[cat] = (
            bmu_units,
            tuple(dict.fromkeys(by_feat[unit_feats[u]] for u in bmu_units)),
            tuple(dict.fromkeys(by_feat[data[i].features] for i in idxs)),
        )
    return _derive(som.input_dim, elements, refs)


def _rd(num: np.ndarray, precision: float) -> np.ndarray:
    """Relative distances from the distances ``num`` to a category's BMU
    ensemble: ``num / precision``, or, when the precision is zero, 0.0 on
    the ensemble and infinite elsewhere."""
    if precision > 0.0:
        return num / precision
    return np.where(num == 0.0, 0.0, np.inf)


# Squared distances may overflow on far-apart features.  An infinite
# distance is a valid rd; only an infinite precision is refused.
@np.errstate(over="ignore")
def _derive(
    input_dim: int,
    elements: Sequence[tuple[str, tuple[float, ...]]],
    refs: Mapping[str, tuple[tuple[int, ...], tuple[str, ...], tuple[str, ...]]],
) -> SemanticModel:
    """The semantic model of the domain ``elements``, (id, features) pairs
    in domain order, given each category's (bmu_units, bmu_elements,
    stimulus_elements) in ``refs``, the BMU elements non-empty whenever the
    stimulus elements are.  Each category's precision and row of rd come
    from the distances to the BMU elements' own feature rows; an element's
    origin is ``stimulus`` if some category lists it as a stimulus, else
    ``bmu`` if one lists it as a BMU, else ``probe``.
    """
    ids = [eid for eid, _ in elements]
    col_of = {eid: i for i, eid in enumerate(ids)}
    feats = np.fromiter(chain.from_iterable(f for _, f in elements), np.float64)
    feats = feats.reshape(len(ids), input_dim)
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        raise InputError(f"element {ids[int(finite.argmin())]!r} has non-finite features")

    # One row of distances per category with stimuli, to its nearest BMU
    # element, each distance computed once.
    names = list(refs)
    ranked = [i for i, name in enumerate(names) if refs[name][2]]
    bmu_cols = sorted({col_of[eid] for i in ranked for eid in refs[names[i]][1]})
    pos = {col: j for j, col in enumerate(bmu_cols)}
    rd = np.full((len(names), len(ids)), np.nan)
    precision: list[float | None] = [None] * len(names)
    if ranked:
        groups = [[pos[col_of[eid]] for eid in refs[names[i]][1]] for i in ranked]
        num = np.sqrt(nearest_in_groups(feats, feats[bmu_cols], groups).T)
        for i, num_i in zip(ranked, num):
            # A stimulus's own BMU minimises the distance over *all* units,
            # so its distance to the ensemble is exactly its own-BMU
            # distance; the precision is therefore their max.
            p = float(num_i[[col_of[eid] for eid in refs[names[i]][2]]].max())
            if not math.isfinite(p):
                raise InputError(f"category {names[i]!r}: distances to its BMUs overflow float64")
            precision[i] = p
            rd[i] = _rd(num_i, p)

    stimuli = {eid for _, _, stim in refs.values() for eid in stim}
    bmus = {eid for _, bmu, _ in refs.values() for eid in bmu}
    origins = ["stimulus" if eid in stimuli else "bmu" if eid in bmus else "probe" for eid in ids]
    model = SemanticModel(input_dim, elements, origins, refs, precision, rd)
    _check_tables(model)
    return model


def _check_tables(model: SemanticModel) -> None:
    # Invariants of the construction; violations are implementation bugs.
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


def initial_model(categories: Sequence[str], input_dim: int) -> SemanticModel:
    """The model before any stimulus has been presented: empty domain, every
    category empty (and hence every strict inclusion into the empty concept
    holding)."""
    cat_names = list(dict.fromkeys(categories))
    if not cat_names:
        raise InputError("need at least one category")
    _check_category_names(cat_names)
    return _derive(input_dim, (), dict.fromkeys(cat_names, ((), (), ())))


# ==============================================================
# Snapshots
# ==============================================================


def model_snapshot(model: SemanticModel) -> dict:
    cats = {}
    for name in model.category_names:
        t = model.categories[name]
        cats[name] = {
            "bmu_units": list(t.bmu_units),
            "bmu_elements": list(t.bmu_element_ids),
            "stimulus_elements": list(t.stimulus_element_ids),
            "precision": t.precision,
            "rd_max": None if t.rd_max is None else jsonio.encode_float(t.rd_max),
            "rd": {eid: jsonio.encode_float(v) for eid, v in t.rd.items()},
        }
    return {
        "input_dim": model.input_dim,
        "elements": [
            {"id": e.eid, "features": list(e.features), "origin": e.origin}
            for e in model.elements
        ],
        "categories": cats,
        "extensions": {name: sorted(ext) for name, ext in model.extensions.items()},
    }


# Stands for a key that a stored or a derived rd table lacks.
_MISSING = "missing"


def model_from_snapshot(doc: dict) -> SemanticModel:
    """The model a snapshot describes, derived again from its element
    features and reference lists by ``build_model``'s own code.  A stored
    table (precision, rd_max, rd, extension) or element origin that differs
    from the derived one is refused with ``InputError``, naming it."""
    try:
        input_dim = int(doc["input_dim"])
        elements = [(str(e["id"]), tuple(map(float, e["features"]))) for e in doc["elements"]]
        origins = [e["origin"] for e in doc["elements"]]
        refs, stored = {}, {}
        for name, c in doc["categories"].items():
            refs[name] = (
                tuple(int(u) for u in c["bmu_units"]),
                tuple(str(x) for x in c["bmu_elements"]),
                tuple(str(x) for x in c["stimulus_elements"]),
            )
            ext = frozenset(map(str, doc["extensions"][name]))
            stored[name] = (c["precision"], c["rd_max"], dict(c["rd"]), ext)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"malformed model snapshot: {exc}") from exc

    # What the derivation reads must be well formed.
    if input_dim < 1:
        raise InputError(f"input_dim must be positive, got {input_dim}")
    for eid, f in elements:
        if len(f) != input_dim:
            raise InputError(f"element {eid!r} has {len(f)} features, input_dim is {input_dim}")
    known = {eid for eid, _ in elements}
    for name, (bmu_units, bmu, stim) in refs.items():
        for eid in (*bmu, *stim):
            if eid not in known:
                raise InputError(f"category {name!r} references unknown element {eid!r}")
        if not (bool(bmu_units) == bool(bmu) == bool(stim)):
            raise InputError(f"category {name!r}: bmu_units, bmu_elements and "
                             f"stimulus_elements must be all empty or all non-empty")

    model = _derive(input_dim, elements, refs)

    # Stored values are compared as read, with what model_snapshot writes.
    def refuse(where: str, got, want) -> InputError:
        return InputError(f"model snapshot differs from its re-derivation: {where}: "
                          f"stored {got!r}, derived {want!r}")

    if origins != list(model._origins):
        eid, o, want = next(t for t in zip(model.element_ids, origins, model._origins) if t[1] != t[2])
        raise refuse(f"element {eid!r}, origin", o, want)
    ids = model.element_ids
    for name, t in model.categories.items():
        precision, rd_max, rd, ext = stored[name]
        row = model.row_of[name]
        if precision != t.precision:
            raise refuse(f"category {name!r}, precision", precision, t.precision)
        if rd_max != t.rd_max:
            raise refuse(f"category {name!r}, rd_max", rd_max, t.rd_max)
        derived = [] if t.empty else model.rd[row].tolist()
        got = [rd.get(eid, _MISSING) for eid in ids] if derived else []
        # model_snapshot writes an infinite rd as "inf"
        if len(rd) != len(derived) or (
            got != derived and got != [jsonio.encode_float(v) for v in derived]
        ):
            want = dict(zip(ids, map(jsonio.encode_float, derived)))
            eid, got = next((k, rd.get(k, _MISSING)) for k in (*want, *rd)
                            if rd.get(k, _MISSING) != want.get(k, _MISSING))
            raise refuse(f"category {name!r}, rd of {eid!r}", got, want.get(eid, _MISSING))
        mask = model.ext[row]
        cols = [model.col_of.get(eid) for eid in ext]
        if None in cols or len(cols) != np.count_nonzero(mask) or not mask[cols].all():
            diff = ext ^ model.extensions[name]
            eid = next(e for e in (*ids, *sorted(diff)) if e in diff)
            raise refuse(f"category {name!r}, extension has {eid!r}", eid in ext, eid not in ext)
    return model


def save_model(path, model: SemanticModel) -> None:
    jsonio.dump_file(path, model_snapshot(model))


def load_model(path) -> SemanticModel:
    return model_from_snapshot(jsonio.load_file(path))
