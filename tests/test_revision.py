import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from somlogic import (
    ConsistencyError,
    InputError,
    Stimulus,
    TrainConfig,
    build_model,
    extract_kb,
    feature_range,
    inclusion_text,
    init_map,
    initial_state,
    revise,
    run_trace,
    train,
)
from somlogic import revision
from somlogic.model import model_snapshot
from somlogic.revision import step_to_json, trace_text
from somlogic.som import presentation_schedule


def two_cluster_stream():
    pts = [
        ("x1", (0.0, 0.1), "X"), ("x2", (0.2, 0.0), "X"), ("x3", (0.1, 0.3), "X"),
        ("x4", (0.3, 0.2), "X"), ("x5", (0.0, 0.2), "X"), ("x6", (0.2, 0.3), "X"),
        ("y1", (4.0, 4.1), "Y"), ("y2", (4.2, 4.0), "Y"), ("y3", (4.1, 4.3), "Y"),
        ("y4", (4.3, 4.2), "Y"), ("y5", (4.0, 4.2), "Y"), ("y6", (4.2, 4.3), "Y"),
    ]
    return [Stimulus(s, f, l) for s, f, l in pts]


CFG = TrainConfig(epochs=2, lr_start=0.6, lr_end=0.1, radius_start=1.5, radius_end=0.5, seed=11)


def test_initial_kb_is_all_bot():
    data = two_cluster_stream()
    som0 = init_map(3, 3, 2, CFG.seed, feature_range(data))
    state = initial_state(som0, ["X", "Y"])
    assert {inclusion_text(i) for i in state.kb} == {"X <= Bot", "Y <= Bot"}
    assert state.steps_done == 0 and state.seen == ()


def test_first_step_retracts_bot():
    data = two_cluster_stream()
    state, steps = run_trace(data, CFG, rows=3, cols=3)
    first = steps[0]
    label = first.stimulus.label
    bot = f"{label} <= Bot"
    assert bot in {inclusion_text(i) for i in first.kb_before}
    assert bot in {inclusion_text(i) for i in first.removed}
    assert bot not in {inclusion_text(i) for i in first.kb_after}
    # the other category is still unseen
    other = "Y" if label == "X" else "X"
    assert f"{other} <= Bot" in {inclusion_text(i) for i in first.kb_after}


def test_step_diffs_are_consistent():
    data = two_cluster_stream()
    state, steps = run_trace(data, CFG, rows=3, cols=3)
    assert len(steps) == CFG.epochs * len(data)
    prev = None
    for t, step in enumerate(steps):
        assert step.step_index == t
        if prev is not None:
            assert step.kb_before == prev.kb_after
        assert step.kb_after == (step.kb_before - step.removed) | step.added
        assert step.added.isdisjoint(step.kb_before)
        assert step.removed <= step.kb_before
        prev = step
    assert state.kb == steps[-1].kb_after
    assert state.steps_done == len(steps)


def test_every_step_matches_from_scratch_rebuild():
    # the state's model must equal a model rebuilt from nothing but the
    # current map and the stimuli seen so far
    data = two_cluster_stream()
    som0 = init_map(3, 3, 2, CFG.seed, feature_range(data))
    state = initial_state(som0, sorted({s.label for s in data}))
    for _e, i, lr, rad in presentation_schedule(len(data), CFG):
        state, _ = revise(state, data[i], lr, rad)
        fresh = build_model(state.som, state.seen, categories=state.categories)
        assert extract_kb(fresh).kb == state.kb
        assert model_snapshot(state.model) == model_snapshot(fresh)


def test_rebuild_comparison_catches_stale_bmus():
    # The comparison above can fail: a KB computed on the previous step's
    # map, hence with its BMUs, differs from the rebuild at some step.  Every
    # unit moves on every step, as the Gaussian neighbourhood is never 0.
    data = two_cluster_stream()
    som0 = init_map(3, 3, 2, CFG.seed, feature_range(data))
    state = initial_state(som0, sorted({s.label for s in data}))
    stale_steps = 0
    for _e, i, lr, rad in presentation_schedule(len(data), CFG):
        previous_som = state.som
        state, _ = revise(state, data[i], lr, rad)
        fresh = extract_kb(build_model(state.som, state.seen, categories=state.categories)).kb
        stale = revision._kb_of(
            previous_som, state.categories, state.features, state.labels, state.seen_by_id
        )
        stale_steps += stale != fresh
    assert stale_steps > 0


@st.composite
def replays(draw):
    """A random map and schedule over stimuli drawn from a few shared points,
    so that identical features, and shared BMUs across labels, are common.
    ``lr = 1`` lands a unit on its stimulus, giving precision 0 and infinite
    rd; the last category never gets a stimulus."""
    d = draw(st.sampled_from([1, 2, 8, 9]))
    points = draw(st.lists(st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.0])] * d),
                           min_size=1, max_size=4))
    k = draw(st.integers(1, 3))
    picks = draw(st.lists(st.tuples(st.sampled_from(points), st.integers(0, k - 1)),
                          min_size=1, max_size=6))
    data = [Stimulus(f"s{i}", p, f"C{c}") for i, (p, c) in enumerate(picks)]
    schedule = draw(st.lists(
        st.tuples(st.integers(0, len(data) - 1), st.sampled_from([1.0, 0.5, 0.3]),
                  st.sampled_from([0.3, 1.0, 2.5])),
        min_size=1, max_size=12))
    som0 = init_map(draw(st.integers(1, 3)), draw(st.integers(1, 3)), d,
                    draw(st.integers(0, 99)), feature_range(data))
    return som0, [f"C{c}" for c in range(k + 1)], data, schedule


@given(replays())
def test_step_kb_matches_rebuild_on_random_replays(case):
    som0, categories, data, schedule = case
    state = initial_state(som0, categories)
    for i, lr, radius in schedule:
        state, _ = revise(state, data[i], lr, radius)
        fresh = build_model(state.som, state.seen, categories=state.categories)
        assert state.kb == extract_kb(fresh).kb


def test_step_kb_at_equality_boundaries():
    # Two labels on one point, each presented with lr = 1: the unit lands on
    # the point, both precisions are 0, and T(A) <= B, A <= B and B <= A hold
    # at exact equality (0 <= 0 and 0 + 0 <= 0).  A third point gives A a
    # positive precision: T(A) <= A then holds at 0 <= 1, A <= A at 0 + 1 <= 1.
    som0 = init_map(1, 2, 2, 0, ((0.0, 0.0), (1.0, 1.0)))
    state = initial_state(som0, ["A", "B"])
    stream = [(Stimulus("a", (0.0, 0.0), "A"), 1.0), (Stimulus("b", (0.0, 0.0), "B"), 1.0),
              (Stimulus("c", (1.0, 1.0), "A"), 0.5)]
    kbs = []
    for s, lr in stream:
        state, _ = revise(state, s, lr, 0.3)
        assert state.kb == extract_kb(build_model(state.som, state.seen, categories=("A", "B"))).kb
        kbs.append({inclusion_text(i) for i in state.kb})
    assert {"T(A) <= B", "A <= B", "B <= A"} <= kbs[1]
    assert state.model.categories["A"].precision > 0.0
    assert {"T(A) <= A", "A <= A"} <= kbs[2]


@pytest.mark.parametrize("value_range, stimulus, error, message", [
    # a stimulus id equal to the element id of a BMU unit not on a stimulus
    (((0.0, 0.0), (1.0, 1.0)), Stimulus("u0", (0.0, 0.0), "A"), InputError,
     "duplicate element ids in domain"),
    # squared distances that overflow give an infinite precision
    (((0.0, 0.0), (1e200, 1e200)), Stimulus("a", (0.0, 0.0), "A"), ConsistencyError,
     "expected 1.0"),
], ids=["unit-id", "overflow"])
def test_step_keeps_build_model_refusals(value_range, stimulus, error, message):
    state = initial_state(init_map(1, 1, 2, 0, value_range), ["A"])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error, match=message):
        revise(state, stimulus, 0.5, 1.0)


def test_trace_final_equals_batch():
    data = two_cluster_stream()
    state, steps = run_trace(data, CFG, rows=3, cols=3)
    som0 = init_map(3, 3, 2, CFG.seed, feature_range(data))
    batch, _ = train(som0, data, CFG)
    assert np.array_equal(state.som.weights, batch.weights)
    assert extract_kb(build_model(batch, data)).kb == state.kb


def test_trace_final_kb_learns_the_categories():
    data = two_cluster_stream()
    state, _ = run_trace(data, CFG, rows=3, cols=3)
    texts = {inclusion_text(i) for i in state.kb}
    assert "T(X) <= X" in texts and "T(Y) <= Y" in texts
    assert "X <= Bot" not in texts and "Y <= Bot" not in texts


def test_revise_validation():
    data = two_cluster_stream()
    som0 = init_map(3, 3, 2, 0, feature_range(data))
    state = initial_state(som0, ["X", "Y"])
    with pytest.raises(InputError):
        revise(state, Stimulus("z1", (0.0, 0.0), "Z"), 0.5, 1.0)
    state, _ = revise(state, data[0], 0.5, 1.0)
    clone = Stimulus(data[0].sid, (9.0, 9.0), data[0].label)
    with pytest.raises(InputError):
        revise(state, clone, 0.5, 1.0)


def test_representing_same_stimulus_keeps_seen_set():
    data = two_cluster_stream()
    som0 = init_map(3, 3, 2, 0, feature_range(data))
    state = initial_state(som0, ["X", "Y"])
    state, _ = revise(state, data[0], 0.5, 1.0)
    state, _ = revise(state, data[0], 0.5, 1.0)
    assert state.seen == (data[0],)
    assert state.steps_done == 2


def test_zero_epochs_trace():
    data = two_cluster_stream()
    state, steps = run_trace(data, TrainConfig(epochs=0, seed=1), rows=3, cols=3)
    assert steps == []
    assert {inclusion_text(i) for i in state.kb} == {"X <= Bot", "Y <= Bot"}


def test_trace_jsonl_round_trip():
    data = two_cluster_stream()
    _, steps = run_trace(data, CFG, rows=3, cols=3)
    text = trace_text(steps)
    lines = text.strip().split("\n")
    assert len(lines) == len(steps)
    for line, step in zip(lines, steps):
        doc = json.loads(line)
        assert doc["step"] == step.step_index
        assert doc["stimulus"]["id"] == step.stimulus.sid
        assert tuple(doc["stimulus"]["features"]) == step.stimulus.features
        assert doc["added"] == sorted(inclusion_text(i) for i in step.added)
        assert doc["removed"] == sorted(inclusion_text(i) for i in step.removed)
        assert set(doc) == {
            "step", "stimulus", "lr", "radius",
            "kb_before", "kb_after", "added", "removed",
        }


def test_step_json_deterministic():
    data = two_cluster_stream()
    _, steps1 = run_trace(data, CFG, rows=3, cols=3)
    _, steps2 = run_trace(data, CFG, rows=3, cols=3)
    assert trace_text(steps1) == trace_text(steps2)
