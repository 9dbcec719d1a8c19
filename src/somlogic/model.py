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
* extension          every domain element with ``rd`` at most ``rd_max``,
* typical elements   every domain element with ``rd`` exactly zero.

``prefer(model, C, x, y)`` is the induced strict modular order: x is more
typical than y for C iff rd(x, C) < rd(y, C).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import jsonio
from .errors import ConsistencyError, InputError
from .som import SomMap, Stimulus, nearest_units

__all__ = [
    "DomainElement",
    "CategoryTable",
    "SemanticModel",
    "RESERVED_WORDS",
    "valid_category_name",
    "build_model",
    "initial_model",
    "relative_distance",
    "prefer",
    "typical_elements",
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


def _unique_keep_order(items: Iterable[str]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(items))


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
    elements: list[DomainElement] = []
    by_feat: dict[tuple[float, ...], str] = {}

    def add(eid: str, feats: tuple[float, ...], origin: str) -> str:
        if feats in by_feat:
            return by_feat[feats]
        elements.append(DomainElement(eid=eid, features=feats, origin=origin))
        by_feat[feats] = eid
        return eid

    for s in data:
        add(s.sid, s.features, "stimulus")
    all_bmu_units = sorted(set(bmu_of))
    for u in all_bmu_units:
        feats = tuple(float(v) for v in som.weights[u])
        add(f"u{u}", feats, "bmu")
    for j, p in enumerate(probes):
        feats = tuple(float(v) for v in p)
        if len(feats) != som.input_dim:
            raise InputError(
                f"probe {j} has dimension {len(feats)}, map expects {som.input_dim}"
            )
        if not all(math.isfinite(v) for v in feats):
            raise InputError(f"probe {j} has non-finite values")
        add(f"p{j}", feats, "probe")

    feats_mat = np.array([e.features for e in elements], dtype=np.float64)
    eids = [e.eid for e in elements]
    row_of = {eid: i for i, eid in enumerate(eids)}

    tables: dict[str, CategoryTable] = {}
    extensions: dict[str, frozenset[str]] = {}
    for cat in cat_names:
        idxs = [i for i, s in enumerate(data) if s.label == cat]
        if not idxs:
            tables[cat] = _empty_table(cat)
            extensions[cat] = frozenset()
            continue

        bmu_units = tuple(sorted({bmu_of[i] for i in idxs}))
        bmu_elem_ids = _unique_keep_order(
            by_feat[tuple(float(v) for v in som.weights[u])] for u in bmu_units
        )
        stim_elem_ids = _unique_keep_order(by_feat[data[i].features] for i in idxs)

        num = np.sqrt(nearest_units(feats_mat, som.weights[list(bmu_units)])[1])

        # A stimulus's own BMU minimises the distance over *all* units, so
        # its row of ``num`` is exactly its own-BMU distance; the precision
        # is therefore the max of ``num`` over the category's stimuli.
        stim_rows = [row_of[eid] for eid in stim_elem_ids]
        precision = float(num[stim_rows].max())
        if precision > 0.0:
            rd_vec = num / precision
        else:
            rd_vec = np.where(num == 0.0, 0.0, np.inf)
        rd = {eid: float(rd_vec[i]) for i, eid in enumerate(eids)}
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
        extensions[cat] = frozenset(eid for eid in eids if rd[eid] <= rd_max)

    return SemanticModel(
        input_dim=som.input_dim,
        elements=tuple(elements),
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
    return SemanticModel(
        input_dim=input_dim,
        elements=(),
        categories={c: _empty_table(c) for c in cat_names},
        extensions={c: frozenset() for c in cat_names},
    )


# ==============================================================
# Queries
# ==============================================================


def _resolve_eid(model: SemanticModel, x) -> str:
    eid = x.eid if isinstance(x, DomainElement) else x
    model.element(eid)  # existence check
    return eid


def relative_distance(model: SemanticModel, x, category: str) -> float:
    """rd(x, category); raises InputError for categories without stimuli."""
    t = model.category(category)
    if t.empty:
        raise InputError(
            f"category {category!r} has no stimuli; relative distance is undefined"
        )
    return t.rd[_resolve_eid(model, x)]


def prefer(model: SemanticModel, category: str, x, y) -> bool:
    """True iff x is strictly more typical than y for the category."""
    return relative_distance(model, x, category) < relative_distance(model, y, category)


def typical_elements(model: SemanticModel, category: str) -> frozenset[str]:
    """Elements at relative distance exactly zero (empty for an empty
    category).  Always includes the category's BMU elements."""
    t = model.category(category)
    if t.empty:
        return frozenset()
    return frozenset(eid for eid, v in t.rd.items() if v == 0.0)


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
    try:
        input_dim = int(doc["input_dim"])
        elements = tuple(
            DomainElement(
                eid=str(e["id"]),
                features=tuple(float(v) for v in e["features"]),
                origin=str(e["origin"]),
            )
            for e in doc["elements"]
        )
        tables: dict[str, CategoryTable] = {}
        extensions: dict[str, frozenset[str]] = {}
        for name, c in doc["categories"].items():
            precision = c["precision"]
            rd_max = c["rd_max"]
            tables[name] = CategoryTable(
                name=name,
                bmu_units=tuple(int(u) for u in c["bmu_units"]),
                bmu_element_ids=tuple(str(x) for x in c["bmu_elements"]),
                stimulus_element_ids=tuple(str(x) for x in c["stimulus_elements"]),
                precision=None if precision is None else float(precision),
                rd={str(k): jsonio.decode_float(v) for k, v in c["rd"].items()},
                rd_max=None if rd_max is None else jsonio.decode_float(rd_max),
            )
            extensions[name] = frozenset(str(x) for x in doc["extensions"][name])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed model snapshot: {exc}") from exc
    model = SemanticModel(
        input_dim=input_dim,
        elements=elements,
        categories=tables,
        extensions=extensions,
    )
    # The invariants build_model establishes, re-checked on what was read.
    ids = model.element_ids
    known = set(ids)
    for t in tables.values():
        for eid in (*t.bmu_element_ids, *t.stimulus_element_ids):
            if eid not in known:
                raise InputError(f"category {t.name!r} references unknown element {eid!r}")
        if t.empty:
            if t != _empty_table(t.name) or extensions[t.name]:
                raise InputError(
                    f"category {t.name!r} has no stimuli but a non-empty table or extension"
                )
            continue
        missing = [eid for eid in known if eid not in t.rd]
        if missing:
            raise InputError(
                f"category {t.name!r}: rd table misses elements {sorted(missing)[:3]}"
            )
        negative = [eid for eid, v in t.rd.items() if not v >= 0.0]
        if negative:
            raise InputError(f"category {t.name!r}: rd is not >= 0 at {sorted(negative)[:3]}")
        if t.rd_max is None:
            raise InputError(f"category {t.name!r} has stimuli but no rd_max")
        try:
            _check_table(t)
        except ConsistencyError as exc:
            raise InputError(f"model snapshot breaks an invariant: {exc}") from None
        if extensions[t.name] != frozenset(eid for eid in ids if t.rd[eid] <= t.rd_max):
            raise InputError(f"extension of {t.name!r} is not the elements with rd <= rd_max")
    return model


def save_model(path, model: SemanticModel) -> None:
    jsonio.dump_file(path, model_snapshot(model))


def load_model(path) -> SemanticModel:
    return model_from_snapshot(jsonio.load_file(path))
