import json
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from somlogic import (
    InputError,
    Stimulus,
    TrainConfig,
    apply_presentation,
    build_model,
    extract_kb,
    feature_range,
    gaussian_clusters,
    inclusion_text,
    init_map,
    initial_state,
    revise,
    run_trace,
    three_cluster_dataset,
    train,
)
from somlogic import revision
from somlogic import som as som_module
from somlogic.model import model_snapshot
from somlogic.revision import step_to_json, trace_text
from somlogic.som import SomMap, presentation_schedule

from oracles import faulty_inclusion_table


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
    with pytest.raises(InputError, match="need at least one category"):
        initial_state(som0, [])


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
            previous_som, state.categories, state.features, state.labels, state.seen_by_id,
            state.inclusions, (None, frozenset()),  # no previous KB to reuse
        )[1]
        stale_steps += stale != fresh
    assert stale_steps > 0


def _steps_unlike_rebuild(data, cfg, rows, cols) -> int:
    """How many steps of a replay of ``data`` end on a KB other than that of
    a model rebuilt from scratch."""
    som0 = init_map(rows, cols, data[0].dim, cfg.seed, feature_range(data))
    state = initial_state(som0, sorted({s.label for s in data}))
    unlike = 0
    for _e, i, lr, rad in presentation_schedule(len(data), cfg):
        state, _ = revise(state, data[i], lr, rad)
        unlike += extract_kb(build_model(state.som, state.seen, categories=state.categories)).kb != state.kb
    return unlike


@pytest.mark.parametrize("kept", ["defeasible", "strict"])
def test_rebuild_comparison_catches_a_key_missing_a_criterion(monkeypatch, kept):
    # A step reuses the previous KB when its key is unchanged.  A key that
    # leaves out one criterion matrix reuses a stale KB at some step: on
    # this schedule the strict matrix alone changes at one step, and the
    # defeasible one alone at many.
    assert _steps_unlike_rebuild(three_cluster_dataset(), TrainConfig(epochs=1), 4, 4) == 0
    monkeypatch.setattr(revision, "_kb_key",
                        lambda criteria, empty: empty.tobytes() + criteria[kept].tobytes())
    assert _steps_unlike_rebuild(three_cluster_dataset(), TrainConfig(epochs=1), 4, 4) > 0


def test_revising_one_state_twice_and_an_older_state():
    # States are immutable and a step reads only its own state's key and
    # KB, so branching off any state, old or new, matches a rebuild.
    data = two_cluster_stream()
    som0 = init_map(3, 3, 2, CFG.seed, feature_range(data))
    states = [initial_state(som0, ["X", "Y"])]
    for _e, i, lr, rad in presentation_schedule(len(data), CFG):
        states.append(revise(states[-1], data[i], lr, rad)[0])
    reused = 0
    for old in (states[3], states[3], states[12], states[1]):
        for stimulus in (data[0], data[-1]):
            branch, _ = revise(old, stimulus, 0.3, 1.0)
            fresh = build_model(branch.som, branch.seen, categories=branch.categories)
            assert branch.kb == extract_kb(fresh).kb
            reused += branch.kb is old.kb
    assert 0 < reused < 8


def _revise_in_two_threads(state, stimuli, lr, rad) -> tuple[list, list]:
    """The states that ``revise`` makes from ``state`` with each of two
    stimuli, in two threads started together, and the kernel buffers that
    each thread holds once both have revised."""
    barrier = threading.Barrier(2, timeout=60)
    results, buffers = [None, None], [None, None]

    def step(slot):
        barrier.wait()
        results[slot] = revise(state, stimuli[slot], lr, rad)[0]
        barrier.wait()
        buffers[slot] = som_module._scratch.buffers

    threads = [threading.Thread(target=step, args=(slot,)) for slot in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, buffers


def _share_a_buffer(buffers) -> bool:
    first, second = buffers
    return any(a is b for a in first for b in second)


def test_two_threads_revising_one_state_each_match_a_rebuild():
    # Each thread runs the kernels on its own buffers; neither writes into
    # buffers the other reads.
    data = two_cluster_stream()
    som0 = init_map(3, 3, 2, CFG.seed, feature_range(data))
    state = initial_state(som0, ["X", "Y"])
    for _e, i, lr, rad in presentation_schedule(len(data), CFG):
        results, buffers = _revise_in_two_threads(state, (data[i], data[-1 - i]), lr, rad)
        for branch in results:
            fresh = build_model(branch.som, branch.seen, categories=branch.categories)
            assert branch.kb == extract_kb(fresh).kb
        assert not _share_a_buffer(buffers)
        state = results[0]


def test_buffer_check_catches_a_scratch_shared_by_threads(monkeypatch):
    data = two_cluster_stream()
    state = initial_state(init_map(3, 3, 2, CFG.seed, feature_range(data)), ["X", "Y"])
    assert not _share_a_buffer(_revise_in_two_threads(state, (data[0], data[-1]), 0.5, 1.0)[1])
    monkeypatch.setattr(som_module, "_scratch", types.SimpleNamespace())
    assert _share_a_buffer(_revise_in_two_threads(state, (data[0], data[-1]), 0.5, 1.0)[1])


def test_step_on_a_warm_thread_allocates_no_kernel_block():
    # 80 stimuli on an 8 x 8 map: the kernels of a step run on 3 buffers of
    # 16384 entries (384 KB), which a step on a thread that has run them
    # before does not allocate.  The bound, 96 KB, is a quarter of those.
    data = gaussian_clusters([[0.0, 0.0], [3.0, 3.0]], ["A", "B"], 40, 1.0, 4)
    cfg = TrainConfig(epochs=1, seed=4)
    som0 = init_map(8, 8, 2, cfg.seed, feature_range(data))
    state = initial_state(som0, ["A", "B"])
    for _e, i, lr, rad in presentation_schedule(len(data), cfg):
        state, _ = revise(state, data[i], lr, rad)
    assert len(state.seen) == 80
    block = 3 * 4096 * 8
    tracemalloc.start()
    try:
        revise(state, data[0], 0.1, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block


def test_trace_written_before_kb_reuse_unchanged():
    """``tests/data/trace_three_cluster.jsonl`` was written by commit
    8968d88, whose steps built every KB anew, and must come out byte for
    byte.  Recipe, from the root of the repository:

        mkdir /tmp/parent && git archive 8968d88 | tar -x -C /tmp/parent
        cd /tmp/parent && PYTHONPATH=src python - "$OLDPWD/tests/data" <<'EOF'
        import sys
        from somlogic import TrainConfig, run_trace, three_cluster_dataset
        from somlogic.revision import trace_text
        _, steps = run_trace(three_cluster_dataset(), TrainConfig(epochs=1), 4, 4)
        with open(f"{sys.argv[1]}/trace_three_cluster.jsonl", "w", encoding="utf-8") as fh:
            fh.write(trace_text(steps))
        EOF
    """
    written = (Path(__file__).parent / "data" / "trace_three_cluster.jsonl").read_bytes()
    assert len(written) < 40_000
    _, steps = run_trace(three_cluster_dataset(), TrainConfig(epochs=1), 4, 4)
    assert trace_text(steps).encode("utf-8") == written


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
# One unit lands on C0's stimulus, then on C1's: C1 <= C0 holds but not
# C0 <= C1, and T(C0) <= C1 holds without C0 <= C1.
@example((init_map(1, 1, 1, 0, ((0.0,), (0.5,))), ["C0", "C1", "C2"],
          [Stimulus("s0", (0.0,), "C0"), Stimulus("s1", (0.5,), "C1")], [(0, 1.0, 0.3), (1, 1.0, 0.3)]))
def test_step_kb_matches_rebuild_on_random_replays(case):
    som0, categories, data, schedule = case
    state = initial_state(som0, categories)
    for i, lr, radius in schedule:
        state, _ = revise(state, data[i], lr, radius)
        fresh = build_model(state.som, state.seen, categories=state.categories)
        assert state.kb == extract_kb(fresh).kb


@pytest.mark.parametrize("fault", ["transposed", "kinds-swapped"])
def test_rebuild_comparison_catches_a_faulty_table(monkeypatch, fault):
    # The trace's table alone is faulty; extract_kb builds its own.
    table = revision.inclusion_table
    monkeypatch.setattr(revision, "inclusion_table",
                        lambda names: faulty_inclusion_table(table(names), len(names), fault))
    with pytest.raises(AssertionError):
        test_step_kb_matches_rebuild_on_random_replays()


@given(replays())
def test_key_empty_mask_is_implied_by_the_criteria(case):
    # The key holds the empty mask, as kb_inclusions reads it, although the
    # criteria matrices imply it: T(C) <= C and C <= C hold exactly when C
    # has stimuli, since C's BMU units lie at rd 0 from C.  So a key without
    # the mask stays exact, and no comparison can show it as a fault.
    som0, categories, data, schedule = case
    state = initial_state(som0, categories)
    for i, lr, radius in schedule:
        state, _ = revise(state, data[i], lr, radius)
        texts = {inclusion_text(inc) for inc in state.kb}
        for c in categories:
            assert (f"T({c}) <= {c}" in texts) == (f"{c} <= {c}" in texts) == (f"{c} <= Bot" not in texts)


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
    # squared distances that overflow give an infinite precision
    (((0.0, 0.0), (1e200, 1e200)), Stimulus("a", (0.0, 0.0), "A"), InputError,
     "overflow"),
], ids=["overflow"])
def test_step_keeps_build_model_refusals(value_range, stimulus, error, message):
    state = initial_state(init_map(1, 1, 2, 0, value_range), ["A"])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error, match=message):
        revise(state, stimulus, 0.5, 1.0)


def test_step_names_a_unit_after_a_stimulus_with_its_id():
    # A stimulus named "u0" that is not on unit 0: unit 0's element is u0'.
    state = initial_state(init_map(1, 1, 2, 0, ((0.0, 0.0), (1.0, 1.0))), ["A"])
    state, _ = revise(state, Stimulus("u0", (0.0, 0.0), "A"), 0.5, 1.0)
    fresh = build_model(state.som, state.seen, categories=state.categories)
    assert fresh.element_ids == ("u0", "u0'")
    assert state.kb == extract_kb(fresh).kb
    assert model_snapshot(state.model) == model_snapshot(fresh)


def test_step_replays_a_stimulus_named_after_a_later_bmu():
    # "u1" is seen from the first step, near unit 0; unit 1 first becomes a
    # BMU at the last step, and its element is then named u1'.  Every step
    # equals a rebuild.
    som0 = SomMap(rows=1, cols=2, input_dim=2, seed=0, weights=np.array([[0.0, 0.0], [10.0, 10.0]]))
    state = initial_state(som0, ["A", "B"])
    stream = [Stimulus("u1", (0.5, 0.5), "A")] * 3 + [Stimulus("a", (1.0, 0.0), "A"),
                                                     Stimulus("b", (10.0, 9.5), "B")]
    for s in stream:
        state, _ = revise(state, s, 0.5, 0.3)
        fresh = build_model(state.som, state.seen, categories=state.categories)
        assert state.kb == extract_kb(fresh).kb
    assert state.model.categories["B"].bmu_element_ids == ("u1'",)
    assert model_snapshot(state.model) == model_snapshot(fresh)


def test_replay_of_a_label_that_spells_unit_ids_matches_rebuild():
    # Label u1 names its stimuli u100, u101, ..., the ids of units 100 and
    # up on an 11 x 11 map, whose elements then take primes.
    data = gaussian_clusters([(0.0, 0.0), (5.0, 5.0)], ["u1", "A"], 30, 1.0, 3)
    assert _steps_unlike_rebuild(data, TrainConfig(epochs=1, seed=0), 11, 11) == 0
    state, _ = run_trace(data, TrainConfig(epochs=1, seed=0), 11, 11)
    assert any(eid.endswith("'") for eid in state.model.element_ids)


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


@pytest.mark.parametrize("features", [(0.0,), (0.0, 0.1, 0.2)])
def test_revise_refuses_a_stimulus_of_another_dimension(features):
    # ``revise`` checks only a stimulus's dimension, with the message a raw
    # vector of the wrong shape gets.
    state = initial_state(init_map(3, 3, 2, 0, ((0.0, 0.0), (1.0, 1.0))), ["X"])
    message = f"input vector has shape ({len(features)},), map expects (2,)"
    with pytest.raises(InputError) as raw:
        apply_presentation(state.som, features, 0.5, 1.0)
    with pytest.raises(InputError) as stepped:
        revise(state, Stimulus("x", features, "X"), 0.5, 1.0)
    assert str(raw.value) == str(stepped.value) == message


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
