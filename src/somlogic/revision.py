"""Stepwise belief revision driven by map training.

One revision step presents one stimulus: the map's weights move, and the
knowledge base of the updated map over all stimuli seen so far is computed
again.  The step records the KB before and after together with the exact
diff, so a trace shows how learned inclusions appear, strengthen or get
retracted as evidence arrives.

A step computes only what the KB reads, with the distance kernel
``som.nearest_units`` and the rule ``checker.kb_rule`` that ``build_model``
and ``extract_kb`` use, so its KB equals ``extract_kb(build_model(...)).kb``:
the BMUs of the N seen stimuli on the new map (O(N*U*d) for U units in d
dimensions), each category's precision and ``rd_max``, and the relative
distance of each BMU unit in each category (O(U_bmu^2*d) over the U_bmu
units that are some stimulus's BMU).  The full semantic model,
``RevisionState.model``, is built when it is first read, and then kept.

Before anything is seen every category is empty, so the initial knowledge
base is exactly ``{Ci <= Bot}`` for every category.  A full trace over the
training schedule ends in the same map (bit for bit) and the same knowledge
base as batch training followed by one extraction, because both fold the same
presentation schedule over the same initial map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from . import jsonio
from .checker import extract_kb, kb_rule
from .concepts import Inclusion, inclusion_text
from .errors import InputError
from .model import SemanticModel, build_model, initial_model
from .som import (
    SomMap,
    Stimulus,
    TrainConfig,
    apply_presentation,
    feature_range,
    init_map,
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
    presents a new stimulus adds one row.
    """

    som: SomMap
    categories: tuple[str, ...]
    seen_by_id: Mapping[str, Stimulus]
    features: np.ndarray
    labels: np.ndarray
    kb: frozenset[Inclusion]
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
        kb=extract_kb(initial_model(cats, som.input_dim)).kb,
        steps_done=0,
    )


def _kb_of(som: SomMap, categories: tuple[str, ...], features: np.ndarray,
           labels: np.ndarray, seen: Mapping[str, Stimulus]) -> frozenset[Inclusion]:
    """``extract_kb(build_model(som, seen, categories=categories)).kb`` from
    the BMU geometry alone; ``features`` and ``labels`` describe ``seen``."""
    bmu, d2 = nearest_units(features, som.weights)
    units, unit_row = np.unique(bmu, return_inverse=True)
    if not np.isfinite(d2).all() or any(f"u{u}" in seen for u in units):
        # build_model refuses a precision that overflowed and a stimulus id
        # that is also a BMU element's id; let it decide on these inputs.
        build_model(som, tuple(seen.values()), categories=categories)

    k = len(categories)
    empty = np.ones(k, dtype=bool)
    precision = np.zeros(k)
    rows = []  # each category's BMU units, as indices into ``units``
    for j in range(k):
        mine = labels == j
        rows.append(np.unique(unit_row[mine]))
        if mine.any():
            empty[j] = False
            precision[j] = np.sqrt(d2[mine]).max()
    # The largest rd over a category's own stimuli: precision / precision,
    # or 0.0 when the precision is 0.
    rd_max = np.where(precision > 0.0, 1.0, 0.0)

    unit_weights = som.weights[units]
    rd = np.full((len(units), k), np.nan)  # rd(BMU unit, category)
    for j in np.flatnonzero(~empty):
        num = np.sqrt(nearest_units(unit_weights, unit_weights[rows[j]])[1])
        if precision[j] > 0.0:
            rd[:, j] = num / precision[j]
        else:
            rd[:, j] = np.where(num == 0.0, 0.0, np.inf)
    val = np.full((k, k), np.nan)
    for i in np.flatnonzero(~empty):
        val[i] = rd[rows[i]].max(axis=0)
    return kb_rule(categories, val, rd_max, empty)


def revise(state: RevisionState, stimulus: Stimulus, lr: float, radius: float) -> tuple[RevisionState, RevisionStep]:
    """Present one stimulus and compute the knowledge base again."""
    if stimulus.label not in state.categories:
        raise InputError(
            f"stimulus {stimulus.sid!r} has label {stimulus.label!r}, "
            f"not one of the trace's categories {list(state.categories)}"
        )
    seen, features, labels = state.seen_by_id, state.features, state.labels
    known = seen.get(stimulus.sid)
    if known is not None and (known.features != stimulus.features or known.label != stimulus.label):
        raise InputError(f"stimulus id {stimulus.sid!r} reused with different content")

    new_som = apply_presentation(state.som, stimulus.features, lr, radius)
    if known is None:
        seen = {**seen, stimulus.sid: stimulus}
        features = np.vstack((features, stimulus.features))
        labels = np.append(labels, state.categories.index(stimulus.label))
    kb = _kb_of(new_som, state.categories, features, labels, seen)

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
        kb=kb,
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
