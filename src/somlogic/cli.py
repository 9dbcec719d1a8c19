"""Command-line interface.

Subcommands cover the full pipeline: ``train`` fits a map, ``extract`` reads
off the semantic model and knowledge base, ``check`` evaluates one inclusion
against a saved model, ``verify`` re-checks the order axioms and entailment
postulates, and ``trace`` replays training as stepwise belief revision.

``check`` answers a name-to-name query by the pairwise criteria.  Any other
query first derives specificity and evaluates both sides to extension
masks.  A strict one then compares the masks only; a defeasible
``T(C) <= D`` reads the global preference restricted to ext(C), checked to
be a strict order on that block, never the whole order.  ``verify``
builds the whole order unchecked and reports its order axioms once, with
the postulates.

Exit codes:

* 0: success (for ``check``: the queried inclusion holds).
* 1: readable input with wrong content: a bad option or query, a malformed
  CSV, features whose squared distances or initial weight band overflow
  float64, a ``model.json`` whose stored rd tables differ from the ones
  ``build_model``'s derivation gives for its features and prototype lists
  or that an older ``extract`` wrote (it has a top-level ``extensions``
  key), or a run that numpy cannot find the memory for.
* 2: a file cannot be opened, is not UTF-8 text, or is not valid JSON;
  ``jsonio.load_file`` names what it refuses beyond what ``json`` refuses
  (``NaN``, ``1e400``, nesting past 10 000 levels).
* 3: a specificity cycle, or a global preference that is not a strict
  order: for ``check`` on the block of ext(C) it reads (an ``error:``
  line); for ``verify`` a failed required check, irreflexivity and
  transitivity among them (the full report on stdout, the failed checks
  named on stderr).
* 4: the queried inclusion does not hold.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import dataset, jsonio
from .checker import (
    CheckReport,
    check_strict,
    check_typicality,
    derive_specificity,
    extract_kb,
    kb_file_text,
    specificity_to_json,
)
from .concepts import Inclusion, Name, extension_mask, parse_query
from .errors import (
    ConfigError,
    ConsistencyError,
    InputError,
    ParseError,
    SpecificityCycleError,
)
from .model import build_model, load_model, save_model
from .preferences import build_preferential, minima, verify_klm, verify_order_axioms
from .revision import run_trace, trace_text
from .som import TrainConfig, feature_range, init_map, load_map, quantization_error, save_map, train

__all__ = ["main"]


def _add_training_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="labelled stimulus CSV (last column is the label)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--rows", type=int, default=6, help="map rows (default 6)")
    p.add_argument("--cols", type=int, default=6, help="map cols (default 6)")
    p.add_argument("--epochs", type=int, default=50, help="training epochs (default 50)")
    p.add_argument("--lr-start", type=float, default=0.7)
    p.add_argument("--lr-end", type=float, default=0.05)
    p.add_argument("--radius-start", type=float, default=3.0)
    p.add_argument("--radius-end", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0, help="seed for weights and shuffling")
    p.add_argument("--no-shuffle", action="store_true", help="present stimuli in file order")


def _config_from_args(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        lr_start=args.lr_start,
        lr_end=args.lr_end,
        radius_start=args.radius_start,
        radius_end=args.radius_end,
        seed=args.seed,
        shuffle=not args.no_shuffle,
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``somlogic`` parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="somlogic",
        description="Train self-organising maps and reason over the preferential models they induce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a map and save its snapshot")
    _add_training_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="read model, knowledge base and specificity off a trained map")
    p.add_argument("--map", required=True, help="map snapshot JSON")
    p.add_argument("--data", required=True, help="the stimuli the map was trained on")
    p.add_argument("--probes", help="optional unlabelled probe vectors (CSV)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("check", help="evaluate one inclusion against a saved model")
    p.add_argument("--model", required=True, help="model snapshot JSON")
    p.add_argument("--query", required=True, help="inclusion, e.g. 'T(A) <= B' or 'A & B <= C'")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="check order axioms and entailment postulates of a saved model")
    p.add_argument("--model", required=True, help="model snapshot JSON")
    p.add_argument("--out", help="also write the report JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("trace", help="replay training as a stepwise revision trace")
    _add_training_args(p)
    p.set_defaults(func=cmd_trace)

    return parser


def cmd_train(args) -> int:
    data = dataset.load_csv(args.data)
    cfg = _config_from_args(args)
    som0 = init_map(args.rows, args.cols, data[0].dim, args.seed, feature_range(data))
    qe0 = quantization_error(som0, data)
    trained, qe_log = train(som0, data, cfg)
    os.makedirs(args.out, exist_ok=True)
    save_map(os.path.join(args.out, "map.json"), trained)
    with open(os.path.join(args.out, "qe_log.csv"), "w", encoding="utf-8") as fh:
        fh.write("epoch,quantization_error\n")
        fh.write(f"0,{format(qe0, '.17g')}\n")  # before any presentation
        for epoch, qe in enumerate(qe_log, start=1):
            fh.write(f"{epoch},{format(qe, '.17g')}\n")
    final_qe = qe_log[-1] if qe_log else qe0
    print(
        f"trained {args.rows}x{args.cols} map on {len(data)} stimuli for "
        f"{cfg.epochs} epochs; quantization error {qe0:.6g} -> {final_qe:.6g}"
    )
    print(f"wrote {os.path.join(args.out, 'map.json')}")
    return 0


def cmd_extract(args) -> int:
    som = load_map(args.map)
    data = dataset.load_csv(args.data)
    probes = dataset.load_probes(args.probes) if args.probes else ()
    model = build_model(som, data, probes)
    extraction = extract_kb(model)
    os.makedirs(args.out, exist_ok=True)
    save_model(os.path.join(args.out, "model.json"), model)
    with open(os.path.join(args.out, "kb.txt"), "w", encoding="utf-8") as fh:
        fh.write(kb_file_text(extraction))
    # Written after the model/KB so a cycle still leaves those on disk.
    rel = derive_specificity(model)
    jsonio.dump_file(os.path.join(args.out, "specificity.json"), specificity_to_json(rel))
    n_strict = sum(1 for i in extraction.kb if i.kind == "strict")
    n_def = len(extraction.kb) - n_strict
    print(
        f"extracted model with {len(model.element_ids)} elements over "
        f"{len(model.categories)} categories; KB has {n_strict} strict and "
        f"{n_def} defeasible inclusions, {len(rel.pairs)} specificity pairs"
    )
    return 0


def cmd_check(args) -> int:
    model = load_model(args.model)
    query = parse_query(args.query)
    if not isinstance(query, Inclusion):
        raise InputError("the query must be an inclusion containing '<='")

    name_pair = (
        isinstance(query.lhs, Name)
        and isinstance(query.rhs, Name)
        and query.lhs.name in model.categories
        and query.rhs.name in model.categories
        and not model.categories[query.lhs.name].empty
        and not model.categories[query.rhs.name].empty
    )
    if name_pair:
        if query.kind == "defeasible":
            report = check_typicality(model, query.lhs.name, query.rhs.name)
        else:
            report = check_strict(model, query.lhs.name, query.rhs.name)
        doc = report.to_json()
        holds = report.holds
    else:
        # Specificity first, so that a cycle exits 3 before any unknown name
        # is reported.
        rel = derive_specificity(model)
        lhs, rhs = extension_mask(model, query.lhs), extension_mask(model, query.rhs)
        if query.kind == "defeasible":
            lhs = minima(model, rel, lhs)
        holds = not (lhs & ~rhs).any()
        method = "global_typicality" if query.kind == "defeasible" else "set_inclusion"
        doc = CheckReport(query, holds, method).to_json()
    print(jsonio.canonical_dumps(doc))
    return 0 if holds else 4


def cmd_verify(args) -> int:
    model = load_model(args.model)
    rel = derive_specificity(model)
    pref = build_preferential(model, rel)
    checks = verify_order_axioms(pref) + verify_klm(pref)
    doc = [c.to_json() for c in checks]
    print(jsonio.canonical_dumps(doc))
    if args.out:
        jsonio.dump_file(args.out, doc)
    failed = [c for c in checks if c.required and c.status != "pass"]
    if failed:
        names = ", ".join(c.check for c in failed)
        print(f"required checks failed: {names}", file=sys.stderr)
        return 3
    return 0


def cmd_trace(args) -> int:
    data = dataset.load_csv(args.data)
    cfg = _config_from_args(args)
    state, steps = run_trace(data, cfg, args.rows, args.cols)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "trace.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(trace_text(steps))
    save_map(os.path.join(args.out, "map.json"), state.som)
    save_model(os.path.join(args.out, "model.json"), state.model)
    with open(os.path.join(args.out, "kb.txt"), "w", encoding="utf-8") as fh:
        fh.write(kb_file_text(extract_kb(state.model)))
    changed = sum(1 for s in steps if s.added or s.removed)
    print(
        f"traced {len(steps)} presentations ({changed} changed the KB); "
        f"final KB has {len(state.kb)} inclusions"
    )
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that slot is reserved for I/O here.
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except (ParseError, ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (SpecificityCycleError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        prefix = "invalid JSON input: " if isinstance(exc, json.JSONDecodeError) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
