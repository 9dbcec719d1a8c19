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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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


@dataclass(frozen=True)
class CategoryTable:
    """Everything the semantics needs to know about one category.

    For a category without stimuli (possible in revision traces before its
    first example arrives) ``precision`` and ``rd_max`` are ``None`` and the
    ``rd`` table is empty.
    """

    name: str
    bmu_units: tuple[int, ...]
    bmu_element_ids: tuple[str, ...]
    stimulus_element_ids: tuple[str, ...]
    precision: float | None
    rd: Mapping[str, float]
    rd_max: float | None

    @property
    def empty(self) -> bool:
        return len(self.stimulus_element_ids) == 0


@dataclass
class SemanticModel:
    input_dim: int
    elements: tuple[DomainElement, ...]
    categories: dict[str, CategoryTable]
    extensions: dict[str, frozenset[str]]

    def __post_init__(self):
        self._by_id = {e.eid: e for e in self.elements}
        if len(self._by_id) != len(self.elements):
            raise InputError("duplicate element ids in domain")

    @property
    def element_ids(self) -> tuple[str, ...]:
        return tuple(e.eid for e in self.elements)

    @property
    def category_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.categories))

    def element(self, eid: str) -> DomainElement:
        try:
            return self._by_id[eid]
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
    bmu_of = nearest_units(stim_feats.reshape(len(data), som.input_dim), som.weights)[0].tolist()

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
    stimulus elements are.  Each category's precision, rd, ``rd_max`` and
    extension come from the distances to the BMU elements' own feature
    rows; an element's origin is ``stimulus`` if some category lists it as
    a stimulus, else ``bmu`` if one lists it as a BMU, else ``probe``.
    """
    ids = [eid for eid, _ in elements]
    row_of = {eid: i for i, eid in enumerate(ids)}
    feats = np.fromiter(chain.from_iterable(f for _, f in elements), np.float64)
    feats = feats.reshape(len(ids), input_dim)
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        raise InputError(f"element {ids[int(finite.argmin())]!r} has non-finite features")

    # One column of distances per category with stimuli, to its nearest BMU
    # element, each distance computed once.
    ranked = [cat for cat, (_, _, stim) in refs.items() if stim]
    bmu_rows = sorted({row_of[eid] for cat in ranked for eid in refs[cat][1]})
    col_of = {row: j for j, row in enumerate(bmu_rows)}
    num = {}
    if ranked:
        groups = [[col_of[row_of[eid]] for eid in refs[cat][1]] for cat in ranked]
        num = dict(zip(ranked, np.sqrt(nearest_in_groups(feats, feats[bmu_rows], groups).T)))

    tables: dict[str, CategoryTable] = {}
    extensions: dict[str, frozenset[str]] = {}
    for cat, (bmu_units, bmu_elem_ids, stim_elem_ids) in refs.items():
        if not stim_elem_ids:
            tables[cat] = _empty_table(cat)
            extensions[cat] = frozenset()
            continue
        # A stimulus's own BMU minimises the distance over *all* units, so
        # its distance to the ensemble is exactly its own-BMU distance; the
        # precision is therefore their max.
        precision = float(num[cat][[row_of[eid] for eid in stim_elem_ids]].max())
        if not math.isfinite(precision):
            raise InputError(f"category {cat!r}: distances to its BMUs overflow float64")
        rd_vec = _rd(num[cat], precision)
        rd = dict(zip(ids, rd_vec.tolist()))
        rd_max = max(rd[eid] for eid in stim_elem_ids)

        table = CategoryTable(
            name=cat,
            bmu_units=bmu_units,
            bmu_element_ids=bmu_elem_ids,
            stimulus_element_ids=stim_elem_ids,
            precision=precision,
            rd=rd,
            rd_max=rd_max,
        )
        _check_table(table)
        tables[cat] = table
        extensions[cat] = frozenset(compress(ids, (rd_vec <= rd_max).tolist()))

    stimuli = {eid for _, _, stim in refs.values() for eid in stim}
    bmus = {eid for _, bmu, _ in refs.values() for eid in bmu}
    return SemanticModel(
        input_dim=input_dim,
        elements=tuple(
            DomainElement(
                eid=eid,
                features=f,
                origin="stimulus" if eid in stimuli else "bmu" if eid in bmus else "probe",
            )
            for eid, f in elements
        ),
        categories=tables,
        extensions=extensions,
    )


def _empty_table(name: str) -> CategoryTable:
    return CategoryTable(
        name=name,
        bmu_units=(),
        bmu_element_ids=(),
        stimulus_element_ids=(),
        precision=None,
        rd={},
        rd_max=None,
    )


def _check_table(t: CategoryTable) -> None:
    # Invariants of the construction; violations are implementation bugs.
    for eid in t.bmu_element_ids:
        if t.rd[eid] != 0.0:
            raise ConsistencyError(
                f"category {t.name!r}: BMU element {eid!r} has rd {t.rd[eid]!r}, expected 0.0"
            )
    if t.precision is not None and t.precision > 0.0 and t.rd_max != 1.0:
        raise ConsistencyError(
            f"category {t.name!r}: rd_max is {t.rd_max!r} with positive precision, expected 1.0"
        )
    for eid in t.stimulus_element_ids:
        if not t.rd[eid] <= t.rd_max:
            raise ConsistencyError(
                f"category {t.name!r}: stimulus element {eid!r} outside its own extension"
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

    if origins != [e.origin for e in model.elements]:
        e, origin = next((e, o) for e, o in zip(model.elements, origins) if o != e.origin)
        raise refuse(f"element {e.eid!r}, origin", origin, e.origin)
    for name, t in model.categories.items():
        precision, rd_max, rd, ext = stored[name]
        if precision != t.precision:
            raise refuse(f"category {name!r}, precision", precision, t.precision)
        if rd_max != t.rd_max:
            raise refuse(f"category {name!r}, rd_max", rd_max, t.rd_max)
        if rd != t.rd:  # model_snapshot writes an infinite rd as "inf"
            want = {eid: jsonio.encode_float(v) for eid, v in t.rd.items()}
            if rd != want:
                eid, got = next((k, rd.get(k, "missing")) for k in (*want, *rd)
                                if rd.get(k, "missing") != want.get(k, "missing"))
                raise refuse(f"category {name!r}, rd of {eid!r}", got, want.get(eid, "missing"))
        if ext != model.extensions[name]:
            diff = ext ^ model.extensions[name]
            eid = next(e for e in (*model.element_ids, *sorted(diff)) if e in diff)
            raise refuse(f"category {name!r}, extension has {eid!r}", eid in ext, eid not in ext)
    return model


def save_model(path, model: SemanticModel) -> None:
    jsonio.dump_file(path, model_snapshot(model))


def load_model(path) -> SemanticModel:
    return model_from_snapshot(jsonio.load_file(path))
