"""The benchmark's workloads: seeded inputs, set-up, the ops of one round and
the checks on what the ops answered.

Every op calls a public entry point of somlogic in this process.  Functions
are looked up on their module at call time (``cli.main``, ``revision.revise``)
so that the traced run sees the recording wrappers.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
from dataclasses import dataclass

import numpy as np

from somlogic import checker, cli, concepts, datagen, model, preferences, revision, som

import checks
import harness


class OpFailed(Exception):
    """The CLI exited with a code that means the op itself failed."""


def run_cli(argv: list[str], ok_codes: tuple[int, ...]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc not in ok_codes:
        raise OpFailed(f"exit {rc}: {err.getvalue().strip()}")
    return rc, out.getvalue()


def _grid_centres(rng: np.random.Generator, n: int, spacing: float, jitter: float) -> list[list[float]]:
    """``n`` centres on a two-row grid, each moved by a seeded jitter.  Which
    clusters overlap then follows the grid and barely depends on the seed,
    so the seeds give models of the same make-up and about the same cost."""
    cols = (n + 1) // 2
    grid = np.array([(c * spacing, r * spacing) for r in range(2) for c in range(cols)][:n])
    return (grid + rng.uniform(-jitter, jitter, grid.shape)).tolist()


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


# Shape of the C-category clusters of verify-wide and trace-replay.
CLUSTER_STD = 1.0
GRID_SPACING = 3.5
GRID_JITTER = 0.5


# ==============================================================
# verify-wide
# ==============================================================


@dataclass(frozen=True)
class VerifyWideSize:
    models: int = 4
    categories: int = 8
    per_category: int = 20
    rows: int = 8
    epochs: int = 20


PAIR_SAMPLES = 2000  # pairs of the global preference compared with the oracle, per model


class VerifyWide:
    """Each op is ``somlogic verify --model M``; a round verifies each of the
    seeded models once."""

    name = "verify-wide"

    def __init__(self, seed: int, workdir: str, size: VerifyWideSize = VerifyWideSize()):
        self.seed = seed
        self.size = size
        self.labels = [f"C{i}" for i in range(size.categories)]
        self.paths = [os.path.join(workdir, f"model{j}.json") for j in range(size.models)]
        self.answers: dict[tuple[int, int, str], None] = {}  # distinct (model, exit, report)

    def setup(self) -> None:
        z = self.size
        for j, path in enumerate(self.paths):
            rng = np.random.default_rng([self.seed, 1, j])
            centres = _grid_centres(rng, z.categories, GRID_SPACING, GRID_JITTER)
            s = _sub_seed(rng)
            data = datagen.gaussian_clusters(centres, self.labels, z.per_category, CLUSTER_STD, s)
            som0 = som.init_map(z.rows, z.rows, 2, s, som.feature_range(data))
            trained, _ = som.train(som0, data, som.TrainConfig(epochs=z.epochs, seed=s))
            model.save_model(path, model.build_model(trained, data))

    def warm_up(self) -> None:
        run_cli(["verify", "--model", self.paths[0]], (0, 3))

    def alloc_peak_mb(self) -> float:
        """The memory the op on the first model allocates at its peak."""
        return harness.alloc_peak_mb(run_cli, ["verify", "--model", self.paths[0]], (0, 3))

    def run_round(self, timer) -> None:
        for j, path in enumerate(self.paths):
            r = timer(run_cli, ["verify", "--model", path], (0, 3))
            if r is not None:
                self.answers[(j, *r)] = None

    def end_round(self) -> None:
        pass

    def check(self) -> list[str]:
        snaps = [checks.Snapshot.read(path) for path in self.paths]
        skips = [checks.or_skipped_pairs(snap, self.labels) for snap in snaps]
        problems = checks.check_verify_reports(self.answers, skips)
        rng = np.random.default_rng([self.seed, 2])
        for j, (path, snap) in enumerate(zip(self.paths, snaps)):
            pref = preferences.build_preferential(model.load_model(path))
            problems += [f"model {j}: {p}" for p in checks.check_preference_sample(
                snap, pref.prefers, pref.pairs(), pref.specificity.pairs, rng, PAIR_SAMPLES)]
        return problems


# ==============================================================
# query-deep
# ==============================================================


@dataclass(frozen=True)
class QueryDeepSize:
    broad: int = 40         # stimuli per broad G cluster
    tight: int = 20         # stimuli per tight S cluster on the same centre
    rows: int = 4
    epochs: int = 20
    probe_grid: int = 20    # probe_grid x probe_grid unlabelled probes


BROAD_STD = 1.5
TIGHT_STD = 0.4
CENTRE_SPACING = 8.0  # between the two G/S centres
CENTRE_JITTER = 1.0


def make_queries(rng: np.random.Generator, names: list[str]):
    """Eight queries: two name-to-name (answered by the pairwise criteria)
    and six that go through the global preference, in seeded order.  Each is
    (kind, lhs, rhs, text) with lhs/rhs a tuple of names, ("Top",) or
    ("Bot",)."""

    def pick(k: int) -> tuple[str, ...]:
        return tuple(sorted(rng.choice(names, size=k, replace=False).tolist()))

    shapes = [
        ("strict", pick(1), pick(1)),
        ("defeasible", pick(1), pick(1)),
        ("strict", pick(2), pick(1)),
        ("strict", pick(2), ("Bot",)),
        ("strict", ("Top",), pick(1)),
        ("defeasible", pick(2), pick(1)),
        ("defeasible", ("Top",), pick(1)),
        ("defeasible", pick(1), pick(2)),
    ]
    out = []
    for i in rng.permutation(len(shapes)):
        kind, lhs, rhs = shapes[i]
        left, right = " & ".join(lhs), " & ".join(rhs)
        text = f"T({left}) <= {right}" if kind == "defeasible" else f"{left} <= {right}"
        out.append((kind, lhs, rhs, text))
    return out


class QueryDeep:
    """Each op is ``somlogic check --model M --query Q``; a round asks the
    seeded query list once, in order."""

    name = "query-deep"

    def __init__(self, seed: int, workdir: str, size: QueryDeepSize = QueryDeepSize()):
        self.seed = seed
        self.size = size
        self.path = os.path.join(workdir, "model.json")
        self.queries = make_queries(np.random.default_rng([seed, 3]), ["G0", "G1", "S0", "S1"])
        self.answers: dict[tuple[int, int, str], None] = {}  # distinct (query, exit, answer)

    def setup(self) -> None:
        z = self.size
        rng = np.random.default_rng([self.seed, 4])
        centres = _grid_centres(rng, 2, CENTRE_SPACING, CENTRE_JITTER)
        s = _sub_seed(rng)
        data = (datagen.gaussian_clusters(centres, ["G0", "G1"], z.broad, BROAD_STD, s)
                + datagen.gaussian_clusters(centres, ["S0", "S1"], z.tight, TIGHT_STD, s + 1))
        lo, hi = som.feature_range(data)
        xs = np.linspace(lo[0] - 1.0, hi[0] + 1.0, z.probe_grid)
        ys = np.linspace(lo[1] - 1.0, hi[1] + 1.0, z.probe_grid)
        probes = [(float(x), float(y)) for x in xs for y in ys]
        som0 = som.init_map(z.rows, z.rows, 2, s, (lo, hi))
        trained, _ = som.train(som0, data, som.TrainConfig(epochs=z.epochs, seed=s))
        model.save_model(self.path, model.build_model(trained, data, probes))

    def warm_up(self) -> None:
        for _kind, _lhs, _rhs, text in self.queries:
            run_cli(["check", "--model", self.path, "--query", text], (0, 4))

    def alloc_peak_mb(self) -> float:
        """The most memory one query of the list allocates at its peak."""
        return max(harness.alloc_peak_mb(run_cli, ["check", "--model", self.path, "--query", text],
                                         (0, 4)) for _kind, _lhs, _rhs, text in self.queries)

    def run_round(self, timer) -> None:
        for qi, (_kind, _lhs, _rhs, text) in enumerate(self.queries):
            r = timer(run_cli, ["check", "--model", self.path, "--query", text], (0, 4))
            if r is not None:
                self.answers[(qi, *r)] = None

    def end_round(self) -> None:
        pass

    def check(self) -> list[str]:
        snap = checks.Snapshot.read(self.path)
        return (checks.check_query_answers(snap, self.queries, self.answers)
                + checks.check_specificity_present(snap))


# ==============================================================
# trace-replay
# ==============================================================


@dataclass(frozen=True)
class TraceReplaySize:
    schedules: int = 4      # datasets replayed per round; see TraceReplay
    categories: int = 6
    per_category: int = 25
    rows: int = 10


REPLAY_EPOCHS = 3  # the first epoch's cheap, growing steps stay a third of a pass


class Schedule:
    """One seeded dataset, its untrained map, its presentation schedule and
    the batch result its replay must land on."""

    def __init__(self, seed: list[int], labels: list[str], z: TraceReplaySize, map_path: str):
        rng = np.random.default_rng(seed)
        centres = _grid_centres(rng, z.categories, GRID_SPACING, GRID_JITTER)
        s = _sub_seed(rng)
        self.data = datagen.gaussian_clusters(centres, labels, z.per_category, CLUSTER_STD, s)
        self.som0 = som.init_map(z.rows, z.rows, 2, s, som.feature_range(self.data))
        cfg = som.TrainConfig(epochs=REPLAY_EPOCHS, seed=s)
        self.steps = list(som.presentation_schedule(len(self.data), cfg))
        self.batch, _ = som.train(self.som0, self.data, cfg)
        batch_kb = checker.extract_kb(model.build_model(self.batch, self.data)).kb
        self.batch_kb = {concepts.inclusion_text(i) for i in batch_kb}
        self.map_path = map_path
        som.save_map(map_path, self.batch)


class TraceReplay:
    """Each op is one ``revision.revise`` step; a round replays each of the
    fixed training schedules once, from its untrained map.

    One schedule's step costs depend on its seeded data: over eight seeds
    the median step moved by 7 % (quartile spread).  A round replays several
    seeded schedules so that a run's figures average over them.
    """

    name = "trace-replay"

    def __init__(self, seed: int, workdir: str, size: TraceReplaySize = TraceReplaySize()):
        self.seed = seed
        self.size = size
        self.labels = [f"C{i}" for i in range(size.categories)]
        self.map_paths = [os.path.join(workdir, f"map{j}.json") for j in range(size.schedules)]
        self.last_passes: list[tuple] = []
        self.problems: list[str] = []
        self.passes_checked = [0] * size.schedules  # replays checked, per schedule

    def setup(self) -> None:
        self.schedules = [Schedule([self.seed, 5, j], self.labels, self.size, path)
                          for j, path in enumerate(self.map_paths)]

    def warm_up(self) -> None:
        sc = self.schedules[0]
        state = revision.initial_state(sc.som0, self.labels)
        for _epoch, i, lr, radius in sc.steps[:20]:
            state, _ = revision.revise(state, sc.data[i], lr, radius)

    def alloc_peak_mb(self) -> float:
        """The memory one step allocates at its peak, once every stimulus has
        been seen and steps cost the most: one more step after each replay
        pass of the last round, averaged over the schedules."""
        peaks = []
        for sc, _replay, state in self.last_passes:
            _epoch, i, lr, radius = sc.steps[-1]
            peaks.append(harness.alloc_peak_mb(revision.revise, state, sc.data[i], lr, radius))
        return statistics.mean(peaks)

    def run_round(self, timer) -> None:
        self.last_passes = []
        for j, sc in enumerate(self.schedules):
            state = revision.initial_state(sc.som0, self.labels)
            kb0, steps = state.kb, []
            for n, (_epoch, i, lr, radius) in enumerate(sc.steps):
                r = timer(revision.revise, state, sc.data[i], lr, radius)
                if r is None:
                    timer.skip(len(sc.steps) - n - 1 + sum(
                        len(later.steps) for later in self.schedules[j + 1:]))
                    return
                state, step = r
                steps.append(step)
            self.last_passes.append((sc, (kb0, steps, state.som.weights, state.kb), state))

    def end_round(self) -> None:
        """Check the passes just replayed.  Only the last round's steps are
        kept, so memory does not grow with the number of rounds a run fits in."""
        for j, (sc, replay, _state) in enumerate(self.last_passes):
            self.problems += [f"schedule {j}: {p}" for p in checks.check_replay(
                self.labels, replay, sc.batch.weights, sc.batch_kb)]
            self.passes_checked[j] += 1

    def check(self) -> list[str]:
        problems = list(self.problems)
        if min(self.passes_checked) == 0:
            problems.append("not every schedule was replayed to its end")
        for j, sc in enumerate(self.schedules):
            if som.load_map(sc.map_path).weights.tobytes() != sc.batch.weights.tobytes():
                problems.append(f"schedule {j}: the saved batch map does not read back bit for bit")
        return problems


WORKLOADS = {w.name: w for w in (VerifyWide, QueryDeep, TraceReplay)}
