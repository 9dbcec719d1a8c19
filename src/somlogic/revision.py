"""Stepwise belief revision driven by map training.

One revision step presents one stimulus: the map's weights move, the model is
read off the updated map over all stimuli seen so far, and the knowledge base
is re-extracted.  The step records the KB before and after together with the
exact diff, so a trace shows how learned inclusions appear, strengthen or get
retracted as evidence arrives.

Before anything is seen every category is empty, so the initial knowledge
base is exactly ``{Ci <= Bot}`` for every category.  A full trace over the
training schedule ends in the same map (bit for bit) and the same knowledge
base as batch training followed by one extraction, because both fold the same
presentation schedule over the same initial map.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import jsonio
from .checker import extract_kb
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


@dataclass
class RevisionState:
    som: SomMap
    categories: tuple[str, ...]
    seen: tuple[Stimulus, ...]
    model: SemanticModel
    kb: frozenset[Inclusion]
    steps_done: int


def initial_state(som: SomMap, categories) -> RevisionState:
    cats = tuple(dict.fromkeys(categories))
    model = initial_model(cats, som.input_dim)
    return RevisionState(
        som=som,
        categories=cats,
        seen=(),
        model=model,
        kb=extract_kb(model).kb,
        steps_done=0,
    )


def revise(state: RevisionState, stimulus: Stimulus, lr: float, radius: float) -> tuple[RevisionState, RevisionStep]:
    """Present one stimulus and re-extract the knowledge base."""
    if stimulus.label not in state.categories:
        raise InputError(
            f"stimulus {stimulus.sid!r} has label {stimulus.label!r}, "
            f"not one of the trace's categories {list(state.categories)}"
        )
    seen = state.seen
    for s in seen:
        if s.sid == stimulus.sid:
            if s.features != stimulus.features or s.label != stimulus.label:
                raise InputError(f"stimulus id {stimulus.sid!r} reused with different content")
            break
    else:
        seen = seen + (stimulus,)

    new_som = apply_presentation(state.som, stimulus.features, lr, radius)
    model = build_model(new_som, seen, categories=state.categories)
    kb = extract_kb(model).kb

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
        seen=seen,
        model=model,
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
