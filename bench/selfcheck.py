"""Toy-size self-check of the benchmark itself.

    python3 bench/selfcheck.py

Runs every workload at toy size, untraced and traced, and requires that the
ops do not fail, that the checks pass and that the traced run reports every
per-layer metric.  It then hands each check a corrupted answer (a flipped
query result, a perturbed final map, ...) and requires the check to fail.
Exits 0 when everything behaves, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile

from run import OUT, ROOT, import_program

TOY_SECONDS = 0.3
failures: list[str] = []


def expect(label: str, ok: bool) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {label}")
    if not ok:
        failures.append(label)


def run_toy(cls, size, seed: int, workdir: str):
    import harness
    import tracing

    wl = cls(seed, workdir, size)
    rec = tracing.Recorder()
    with tracing.installed(rec):
        wl.setup()
    wl.warm_up()
    plain, traced = harness.measure(wl, TOY_SECONDS, rec)
    metrics = tracing.layer_metrics(rec, len(traced.wall), traced.speed())
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    names -= {"tracing.untraced_ops_per_s", "tracing.traced_ops_per_s", "tracing.overhead_pct"}
    expect(f"{wl.name}: no op failed", plain.failed == traced.failed == 0)
    expect(f"{wl.name}: checks pass on the program's answers", wl.check() == [])
    expect(f"{wl.name}: the memory probe reports a positive figure", wl.alloc_peak_mb() > 0)
    expect(f"{wl.name}: traced run reports every per-layer metric of BENCHMARK.json",
           set(metrics) == names)
    return wl


def caught(problems: list[str], needle: str) -> bool:
    """Did the check that reports ``needle`` fire?  Matching the message, not
    just any problem, shows that this check fails on its own."""
    return any(needle in p for p in problems)


def flip_status(report: str, check: str) -> str:
    doc = json.loads(report)
    for c in doc:
        if c["check"] == check:
            c["status"] = "fail"
    return json.dumps(doc)


def selfcheck_verify_wide(workdir: str) -> None:
    import checks
    import numpy as np
    from somlogic import jsonio, model, preferences
    from workloads import VerifyWide, VerifyWideSize

    wl = run_toy(VerifyWide, VerifyWideSize(models=2, categories=4, per_category=6,
                                            rows=3, epochs=5), 7, workdir)
    snaps = [checks.Snapshot.read(path) for path in wl.paths]
    skips = [checks.or_skipped_pairs(snap, wl.labels) for snap in snaps]
    answers = sorted(wl.answers)
    (i, rc, out), (i1, rc1, out1) = answers[0], answers[-1]
    expect("verify-wide: the two models give different reports", i != i1 and out != out1)
    expect("verify-wide: a failed required check is caught",
           caught(checks.check_verify_reports([(i, rc, flip_status(out, "cautious_monotonicity"))],
                                              skips), "required checks not passed"))
    short = json.dumps([c for c in json.loads(out) if c["check"] != "modularity"])
    expect("verify-wide: a report missing a check is caught",
           caught(checks.check_verify_reports([(i, rc, short)], skips), "report lists"))
    expect("verify-wide: two different reports on one model are caught",
           caught(checks.check_verify_reports([(i, rc, out), (i, rc1, out1)], skips),
                  "two ops printed different reports"))

    pref = preferences.build_preferential(model.load_model(wl.paths[i]))
    small = preferences.verify_order_axioms(pref) + preferences.verify_klm(
        pref, preferences.default_concept_pool(wl.labels, 2))
    small_out = jsonio.canonical_dumps([c.to_json() for c in small])
    expect("verify-wide: a report from a pool of at most 2 conjuncts is caught",
           caught(checks.check_verify_reports([(i, 0, small_out)], skips), "`or` note"))

    snap = snaps[i]
    x0, y0 = sorted(pref.pairs())[0]

    def flipped(x, y):
        return (not pref.prefers(x, y)) if (x, y) == (x0, y0) else pref.prefers(x, y)

    rng = np.random.default_rng(0)
    expect("verify-wide: one flipped pair of the global preference is caught",
           caught(checks.check_preference_sample(snap, flipped, pref.pairs(),
                                                 pref.specificity.pairs, rng, 2000),
                  "global preference"))
    cats = sorted(snap.rd)
    wrong_spec = set(pref.specificity.pairs) ^ {(cats[0], cats[1])}
    expect("verify-wide: a wrong specificity pair is caught",
           caught(checks.check_preference_sample(snap, pref.prefers, pref.pairs(), wrong_spec,
                                                 rng, 2000), "specificity"))


def selfcheck_query_deep(workdir: str) -> None:
    import checks
    from workloads import QueryDeep, QueryDeepSize

    wl = run_toy(QueryDeep, QueryDeepSize(broad=8, tight=4, rows=3, epochs=5,
                                          probe_grid=4), 7, workdir)
    snap = checks.Snapshot.read(wl.path)
    answers = sorted(wl.answers)
    expect("query-deep: every query was answered", [a[0] for a in answers] == list(
        range(len(wl.queries))))
    for k, (qi, rc, out) in enumerate(answers):
        doc = json.loads(out)
        doc["holds"] = not doc["holds"]
        bad = list(answers)
        bad[k] = (qi, 4 if rc == 0 else 0, json.dumps(doc))
        expect(f"query-deep: flipped answer to {wl.queries[qi][3]!r} is caught",
               caught(checks.check_query_answers(snap, wl.queries, bad), wl.queries[qi][3]))
    qi, rc, out = answers[0]
    expect("query-deep: a wrong exit code is caught",
           caught(checks.check_query_answers(snap, wl.queries, [(qi, 4 - rc, out)]),
                  wl.queries[qi][3]))
    with open(wl.path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["categories"] = {k: v for k, v in doc["categories"].items() if k.startswith("G")}
    expect("query-deep: a model without specificity pairs is caught",
           caught(checks.check_specificity_present(checks.Snapshot(doc)), "no specificity"))


def selfcheck_trace_replay(workdir: str) -> None:
    import checks
    import numpy as np
    from somlogic import som
    from workloads import TraceReplay, TraceReplaySize

    wl = run_toy(TraceReplay, TraceReplaySize(schedules=2, categories=3, per_category=6,
                                              rows=3), 7, workdir)
    sc, (kb0, steps, weights, kb), _state = wl.last_passes[-1]

    def problems(replay, batch_kb=sc.batch_kb) -> list[str]:
        return checks.check_replay(wl.labels, replay, sc.batch.weights, batch_kb)

    expect("trace-replay: the last replay passes", problems((kb0, steps, weights, kb)) == [])
    nudged = weights.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], np.inf)
    expect("trace-replay: a final map off by one ulp is caught",
           caught(problems((kb0, steps, nudged, kb)), "final map differs"))
    expect("trace-replay: a final KB that is not the last step's is caught",
           caught(problems((kb0, steps, weights, kb - {next(iter(kb))})), "not the last step's"))
    batch_kb = set(sc.batch_kb)
    batch_kb.discard(next(iter(batch_kb)))
    expect("trace-replay: a batch KB missing an inclusion is caught",
           problems((kb0, steps, weights, kb), batch_kb)
           == ["final KB differs from the batch extraction"])
    mid = len(steps) // 2
    broken = list(steps)
    broken[mid] = dataclasses.replace(steps[mid], kb_before=steps[mid].kb_after | kb0)
    expect("trace-replay: a step not starting from the previous KB is caught",
           broken[mid].kb_before != steps[mid - 1].kb_after
           and caught(problems((kb0, broken, weights, kb)), f"step {steps[mid].step_index}"))
    expect("trace-replay: a wrong initial KB is caught",
           caught(problems((frozenset(), steps, weights, kb)), "initial KB"))
    expect("trace-replay: the workload's own checks pass", wl.check() == [])
    wl.passes_checked[-1] = 0
    expect("trace-replay: a schedule never replayed to its end is caught",
           wl.check() == ["not every schedule was replayed to its end"])
    wl.passes_checked[-1] = 1
    som.save_map(sc.map_path, dataclasses.replace(sc.batch, weights=nudged))
    expect("trace-replay: a saved batch map off by one ulp is caught",
           caught(wl.check(), "does not read back bit for bit"))


def main() -> int:
    import_program()
    OUT.mkdir(exist_ok=True)
    for fn in (selfcheck_verify_wide, selfcheck_query_deep, selfcheck_trace_replay):
        workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=OUT)
        try:
            fn(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} self-check failures" if failures else "self-check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
