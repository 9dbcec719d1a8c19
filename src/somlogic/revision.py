"""Stepwise belief revision driven by map training.

One revision step presents one stimulus: the map's weights move, and the
knowledge base of the updated map over all stimuli seen so far is computed
again.  The step records the KB before and after together with the exact
diff, so a trace shows how learned inclusions appear, strengthen or get
retracted as evidence arrives.

A step computes only what the KB reads, with the distance kernels
(``som.nearest_units``, ``som.nearest_in_groups``) and the rule
(``checker.kb_criteria``, ``checker.kb_inclusions``) that ``build_model``
and ``extract_kb`` use, so its KB equals ``extract_kb(build_model(...)).kb``:
the BMUs of the N seen stimuli on the new map (O(N*U*d) for U units in d
dimensions), each category's precision and ``rd_max``, and the relative
distance of each BMU unit in each category (O(U_bmu^2*d) over the U_bmu
units that are some stimulus's BMU).  The KB is a function of the k x k
criteria matrices and the empty mask alone, so a step materialises its
inclusions only when those differ from the previous state's; otherwise the
new state shares the previous KB object.  The full semantic model,
``RevisionState.model``, is built when it is first read, and then kept.

Before anything is seen every category is empty, so the initial knowledge
base is exactly ``{Ci <= Bot}`` for every category.  A full trace over the
training schedule ends in the same map (bit for bit) and the same knowledge
base as batch training followed by one extraction, because both fold the same
presentation schedule over the same initial map.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from . import jsonio
from .checker import extract_kb, kb_criteria, kb_inclusions
from .concepts import Inclusion, inclusion_text
from .errors import InputError
from .model import SemanticModel, _rd, build_model, initial_model
from .som import (
    SomMap,
    Stimulus,
    TrainConfig,
    _refusing_overflow,
    apply_presentation,
    feature_range,
    init_map,
    nearest_in_groups,
    nearest_units,
    presentation_schedule,
)

__all__ = [
    "RevisionStep",
    "RevisionState",
    "initial_state",
    "revise",
    "run_trace",
    "step_to_json",
    "trace_text",
]


@dataclass(frozen=True)
class RevisionStep:
    step_index: int
    stimulus: Stimulus
    lr: float
    radius: float
    kb_before: frozenset[Inclusion]
    kb_after: frozenset[Inclusion]

    @property
    def added(self) -> frozenset[Inclusion]:
        return self.kb_after - self.kb_before

    @property
    def removed(self) -> frozenset[Inclusion]:
        return self.kb_before - self.kb_after


@dataclass(frozen=True, eq=False)
class RevisionState:
    """The map after ``steps_done`` presentations and the KB it induces.

    ``seen_by_id`` maps the id of each stimulus presented so far to it, in
    order of first presentation.  ``features`` and ``labels`` hold the same
    stimuli as rows of features and indices into ``categories``; a step that
    presents a new stimulus adds one row.  ``named_units`` holds each unit
    ``u`` with ``f"u{u}"`` a seen id.  ``kb_key`` is ``kb``'s ``_kb_key``,
    None before the first step.
    """

    som: SomMap
    categories: tuple[str, ...]
    seen_by_id: Mapping[str, Stimulus]
    features: np.ndarray
    labels: np.ndarray
    named_units: np.ndarray
    kb: frozenset[Inclusion]
    kb_key: bytes | None
    steps_done: int

    @property
    def seen(self) -> tuple[Stimulus, ...]:
        return tuple(self.seen_by_id.values())

    @cached_property
    def model(self) -> SemanticModel:
        """The semantic model of the map over the seen stimuli, built on
        first access."""
        return build_model(self.som, self.seen, categories=self.categories)


def initial_state(som: SomMap, categories) -> RevisionState:
    cats = tuple(dict.fromkeys(categories))
    return RevisionState(
        som=som,
        categories=cats,
        seen_by_id={},
        features=np.empty((0, som.input_dim)),
        labels=np.empty(0, dtype=np.intp),
        named_units=np.empty(0, dtype=np.intp),
        kb=extract_kb(initial_model(cats, som.input_dim)).kb,
        kb_key=None,
        steps_done=0,
    )


# build_model's element id of BMU unit u: f"u{u}", in ASCII digits.
_UNIT_ID = re.compile(r"u(0|[1-9][0-9]*)")


def _named_unit(sid: str, n_units: int) -> int | None:
    """The unit ``u < n_units`` with ``sid == f"u{u}"``, if there is one."""
    m = _UNIT_ID.fullmatch(sid)
    if m and len(m[1]) <= len(str(n_units)) and int(m[1]) < n_units:
        return int(m[1])
    return None


def _kb_key(criteria: Mapping[str, np.ndarray], empty: np.ndarray) -> bytes:
    """Everything ``kb_inclusions`` reads besides the category names."""
    return empty.tobytes() + b"".join(m.tobytes() for m in criteria.values())


def _kb_of(som: SomMap, categories: tuple[str, ...], features: np.ndarray, labels: np.ndarray,
           seen: Mapping[str, Stimulus], named_units: np.ndarray,
           reuse: tuple[bytes | None, frozenset[Inclusion]]) -> tuple[bytes, frozenset[Inclusion]]:
    """``extract_kb(build_model(som, seen, categories=categories)).kb`` from
    the BMU geometry alone, with its key (``_kb_key``); ``features``,
    ``labels`` and ``named_units`` describe ``seen``.  ``reuse`` is a (key,
    KB) pair whose KB is returned as it is when the key is the same."""
    bmu, d2 = nearest_units(features, som.weights)
    # np.unique(bmu, return_inverse=True), by counting over the unit indices
    hit = np.bincount(bmu, minlength=som.n_units) > 0
    units, unit_row = np.flatnonzero(hit), (np.cumsum(hit) - 1)[bmu]
    if not np.isfinite(d2).all() or (named_units.size and np.isin(units, named_units).any()):
        # build_model refuses a precision that overflowed and a stimulus id
        # that is also a BMU element's id; let it decide on these inputs.
        build_model(som, tuple(seen.values()), categories=categories)

    k, n_units = len(categories), len(units)
    # The distinct (category, unit) pairs, sorted by category, then by unit
    # (an index into ``units``); each category with stimuli is one run.
    cat, unit = np.divmod(np.flatnonzero(np.bincount(labels * n_units + unit_row)), n_units)
    starts = np.concatenate(([0], np.flatnonzero(cat[1:] != cat[:-1]) + 1))
    ranked = cat[starts]
    empty = np.bincount(labels, minlength=k) == 0
    precision = np.zeros(k)
    np.maximum.at(precision, labels, np.sqrt(d2))
    # The largest rd over a category's own stimuli: precision / precision,
    # or 0.0 when the precision is 0.
    rd_max = np.where(precision > 0.0, 1.0, 0.0)

    unit_weights = som.weights[units]
    num = np.sqrt(nearest_in_groups(unit_weights, unit_weights, unit, starts))
    rd = _rd(num, precision[ranked])  # rd(BMU unit, ranked category)
    val = np.full((k, k), np.nan)
    val[ranked[:, np.newaxis], ranked] = np.maximum.reduceat(rd[unit], starts, axis=0)
    criteria = kb_criteria(val, rd_max, empty)
    key = _kb_key(criteria, empty)
    if key == reuse[0]:
        return key, reuse[1]
    return key, kb_inclusions(categories, criteria, empty)


def revise(state: RevisionState, stimulus: Stimulus, lr: float, radius: float) -> tuple[RevisionState, RevisionStep]:
    """Present one stimulus and compute the knowledge base again; the new
    state shares the previous KB object when the criteria that made it are
    unchanged."""
    if stimulus.label not in state.categories:
        raise InputError(
            f"stimulus {stimulus.sid!r} has label {stimulus.label!r}, "
            f"not one of the trace's categories {list(state.categories)}"
        )
    seen, features, labels = state.seen_by_id, state.features, state.labels
    named_units = state.named_units
    known = seen.get(stimulus.sid)
    if known is not None and (known.features != stimulus.features or known.label != stimulus.label):
        raise InputError(f"stimulus id {stimulus.sid!r} reused with different content")

    new_som = apply_presentation(state.som, stimulus.features, lr, radius)
    if known is None:
        seen = {**seen, stimulus.sid: stimulus}
        features = np.vstack((features, stimulus.features))
        labels = np.append(labels, state.categories.index(stimulus.label))
        u = _named_unit(stimulus.sid, new_som.n_units)
        if u is not None:
            named_units = np.append(named_units, u)
    kb_key, kb = _kb_of(new_som, state.categories, features, labels, seen, named_units,
                        (state.kb_key, state.kb))

    step = RevisionStep(
        step_index=state.steps_done,
        stimulus=stimulus,
        lr=lr,
        radius=radius,
        kb_before=state.kb,
        kb_after=kb,
    )
    new_state = RevisionState(
        som=new_som,
        categories=state.categories,
        seen_by_id=seen,
        features=features,
        labels=labels,
        named_units=named_units,
        kb=kb,
        kb_key=kb_key,
        steps_done=state.steps_done + 1,
    )
    return new_state, step


def run_trace(
    data, cfg: TrainConfig, rows: int, cols: int
) -> tuple[RevisionState, list[RevisionStep]]:
    """Replay the full training schedule step by step.

    The final state's map equals batch training bit for bit (both fold the
    same presentation schedule), and its KB equals a batch extraction.
    """
    if len(data) == 0:
        raise InputError("cannot trace over empty data")
    categories = sorted({s.label for s in data})
    som0 = init_map(rows, cols, data[0].dim, cfg.seed, feature_range(data))
    state = initial_state(som0, categories)
    steps: list[RevisionStep] = []
    if cfg.epochs == 0:
        return state, steps
    with _refusing_overflow():  # the data train refuses
        for _epoch, i, lr, radius in presentation_schedule(len(data), cfg):
            state, step = revise(state, data[i], lr, radius)
            steps.append(step)
    state.som.epochs_trained = cfg.epochs
    return state, steps


def step_to_json(step: RevisionStep) -> dict:
    return {
        "step": step.step_index,
        "stimulus": {
            "id": step.stimulus.sid,
            "features": list(step.stimulus.features),
            "label": step.stimulus.label,
        },
        "lr": step.lr,
        "radius": step.radius,
        "kb_before": sorted(inclusion_text(i) for i in step.kb_before),
        "kb_after": sorted(inclusion_text(i) for i in step.kb_after),
        "added": sorted(inclusion_text(i) for i in step.added),
        "removed": sorted(inclusion_text(i) for i in step.removed),
    }


def trace_text(steps) -> str:
    """JSON Lines rendering, one step per line."""
    return "".join(jsonio.canonical_dumps(step_to_json(s)) + "\n" for s in steps)
