"""Span recorder for the traced benchmark run.

``installed(rec)`` replaces every public function of the somlogic modules
(the functions each module lists in ``__all__``) with a recording wrapper, at
every name that points to it: the defining module's own attribute, the
``from .x import f`` copies in the other modules, and the package namespace.
The program's source is not touched, and leaving the ``with`` block restores
the original functions.

A module is a layer.  A wrapped call opens a span only when it crosses a
layer boundary, i.e. when the innermost open span belongs to another module
(or no span is open).  A call inside the same layer is counted but opens no
span, so a span's self time (its duration minus the time its child spans
cover) is the time spent in that layer's own code.  Each span records its
name, start, end, parent span and op id; spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import types
from time import perf_counter

MODULES = ("som", "model", "concepts", "checker", "preferences", "revision",
           "cli", "jsonio", "datagen", "dataset")


class Recorder:
    """Spans, call counts, self times and sizes of one traced run.

    ``phase`` is "setup" or "op"; ``op`` is the id stamped on new spans.
    Counts and self times are kept per (phase, function name).
    """

    def __init__(self):
        self.phase = "setup"
        self.op = "setup"
        self.spans: list[tuple] = []  # (span_id, name, start, end, parent_id, op)
        self.stack: list[list] = []   # open spans: [span_id, module, name, child_s]
        self.calls: dict[tuple[str, str], int] = {}
        self.self_s: dict[tuple[str, str], float] = {}
        self.sizes: dict[str, float] = {}
        self.changed_steps = 0
        self._next_id = 0
        self._klm_span = None
        self._klm_exts: set = set()

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span_id", "name", "start_s", "end_s", "parent_id", "op"])
            out.writerows(sorted(self.spans))


def _wrap(rec: Recorder, name: str, module: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        key = (rec.phase, name)
        rec.calls[key] = rec.calls.get(key, 0) + 1
        stack = rec.stack
        if stack and stack[-1][1] == module:
            result = fn(*args, **kwargs)
        else:
            parent = stack[-1][0] if stack else -1
            frame = [rec._next_id, module, name, 0.0]
            rec._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                rec.self_s[key] = rec.self_s.get(key, 0.0) + dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                rec.spans.append((frame[0], name, start, end, parent, rec.op))
        if hook is not None and rec.phase == "op":
            hook(rec, result)
        return result

    return traced


# Sizes are read off return values, after the call's span has closed.

def _domain_size(rec, model):
    rec.sizes["model.domain_elements"] = len(model.elements)


def _specificity_size(rec, rel):
    rec.sizes["checker.specificity_pairs"] = len(rel.pairs)


def _pool_size(rec, pool):
    rec.sizes["preferences.concept_pool_size"] = len(pool)


def _klm_extension(rec, ext):
    # Only the pool extensions verify_klm asks for, not the nested calls
    # that evaluate a conjunction.
    top = rec.stack[-1] if rec.stack else None
    if top is None or top[2] != "preferences.verify_klm":
        return
    if top[0] != rec._klm_span:
        rec._klm_span = top[0]
        rec._klm_exts = set()
    rec._klm_exts.add(ext)
    rec.sizes["preferences.distinct_extensions"] = len(rec._klm_exts)


def _revision_step(rec, result):
    step = result[1]
    if step.kb_before != step.kb_after:
        rec.changed_steps += 1


HOOKS = {
    "model.build_model": _domain_size,
    "model.load_model": _domain_size,
    "checker.derive_specificity": _specificity_size,
    "preferences.default_concept_pool": _pool_size,
    "concepts.extension": _klm_extension,
    "revision.revise": _revision_step,
}


@contextlib.contextmanager
def installed(rec: Recorder):
    """Route every public somlogic function through ``rec`` for the block."""
    package = importlib.import_module("somlogic")
    modules = [importlib.import_module(f"somlogic.{m}") for m in MODULES]
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                wrappers[id(fn)] = (fn, _wrap(rec, name, short, fn, HOOKS.get(name)))
    patched = []
    for ns in (package, *modules):
        for attr, val in list(vars(ns).items()):
            entry = wrappers.get(id(val))
            if entry is not None and entry[0] is val:
                setattr(ns, attr, entry[1])
                patched.append((ns, attr, val))
    try:
        yield rec
    finally:
        for ns, attr, val in patched:
            setattr(ns, attr, val)


# ==============================================================
# Per-layer metrics
# ==============================================================

# (metric, function, phase): self time in ms, per op for the "op" phase and
# per set-up for the "setup" phase.
TIME_METRICS = (
    ("datagen.gaussian_clusters_ms", "datagen.gaussian_clusters", "setup"),
    ("som.train_ms", "som.train", "setup"),
    ("jsonio.dump_file_ms", "jsonio.dump_file", "setup"),
    ("som.apply_presentation_ms", "som.apply_presentation", "op"),
    ("model.build_model_ms", "model.build_model", "op"),
    ("checker.extract_kb_ms", "checker.extract_kb", "op"),
    ("revision.revise_self_ms", "revision.revise", "op"),
    ("jsonio.load_file_ms", "jsonio.load_file", "op"),
    ("model.load_model_ms", "model.load_model", "op"),
    ("concepts.parse_query_ms", "concepts.parse_query", "op"),
    ("cli.main_self_ms", "cli.main", "op"),
    ("checker.derive_specificity_ms", "checker.derive_specificity", "op"),
    ("preferences.build_preferential_ms", "preferences.build_preferential", "op"),
    ("preferences.entails_ms", "preferences.entails", "op"),
    ("preferences.verify_klm_ms", "preferences.verify_klm", "op"),
    ("preferences.verify_order_axioms_ms", "preferences.verify_order_axioms", "op"),
    ("jsonio.canonical_dumps_ms", "jsonio.canonical_dumps", "op"),
)

# Calls per op, counting calls inside a layer as well as across layers.
CALL_METRICS = (
    "som.find_bmu",
    "checker.check_strict",
    "checker.check_typicality",
    "preferences.build_preferential",
    "preferences.minimal_elements",
    "concepts.extension",
)

SIZE_METRICS = (
    "model.domain_elements",
    "checker.specificity_pairs",
    "preferences.concept_pool_size",
    "preferences.distinct_extensions",
)


def layer_metrics(rec: Recorder, n_ops: int, speed: float) -> dict:
    """Every per-layer metric of a traced run with one set-up, as
    {name: (value, unit)}, with self times multiplied by ``speed`` to put
    them at reference speed.  A layer the workload never reaches reads 0."""
    out = {}
    per = {"op": max(n_ops, 1), "setup": 1}
    for metric, fn, phase in TIME_METRICS:
        out[metric] = (rec.self_s.get((phase, fn), 0.0) * 1e3 * speed / per[phase], "ms")
    for fn in CALL_METRICS:
        out[f"{fn}_calls"] = (rec.calls.get(("op", fn), 0) / per["op"], "count")
    for metric in SIZE_METRICS:
        out[metric] = (rec.sizes.get(metric, 0), "count")
    # per replay pass; each pass starts from revision.initial_state
    passes = rec.calls.get(("op", "revision.initial_state"), 0)
    out["revision.kb_changed_steps"] = (rec.changed_steps / max(passes, 1), "count")
    return out


def self_time_table(rec: Recorder, n_ops: int) -> dict:
    """Self ms and calls of every function seen, per op or per set-up."""
    table = {}
    for (phase, name), calls in sorted(rec.calls.items()):
        div = max(n_ops, 1) if phase == "op" else 1
        table.setdefault(phase, {})[name] = {
            "self_ms": rec.self_s.get((phase, name), 0.0) * 1e3 / div,
            "calls": calls / div,
        }
    return table
