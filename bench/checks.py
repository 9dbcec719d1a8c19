"""Correctness checks made apart from the program.

Every check returns a list of problems (empty when it passes).  The
references read the snapshot file as plain JSON and recompute what the
program answered, reusing the plain-Python definitions in
``tests/oracles.py``; nothing here compares against a stored copy of earlier
output.
"""

from __future__ import annotations

import json
import math
import re
from itertools import combinations

import numpy as np

from oracles import oracle_global_prefer, oracle_minimal
from somlogic.concepts import inclusion_text

REQUIRED_CHECKS = ("irreflexivity", "transitivity", "well_foundedness", "reflexivity",
                   "left_logical_equivalence", "right_weakening", "and",
                   "cautious_monotonicity", "or")
ALL_CHECKS = REQUIRED_CHECKS + ("modularity",)


class Snapshot:
    """The rd tables of a ``model.json``, read without the program's loader."""

    def __init__(self, doc: dict):
        self.ids = [e["id"] for e in doc["elements"]]
        self.rd = {}
        self.rd_max = {}
        self.bmu = {}
        for name, c in doc["categories"].items():
            if c["rd_max"] is None:
                continue  # a category without stimuli takes no part in the order
            self.rd[name] = {k: math.inf if v == "inf" else float(v) for k, v in c["rd"].items()}
            self.rd_max[name] = math.inf if c["rd_max"] == "inf" else float(c["rd_max"])
            self.bmu[name] = list(c["bmu_elements"])
        self.ext = {c: frozenset(e for e in self.ids if self.rd[c][e] <= self.rd_max[c])
                    for c in self.rd}
        self.above = {c: {a for (a, b) in self.specificity() if b == c} for c in self.rd}

    @classmethod
    def read(cls, path) -> "Snapshot":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def bmu_rd(self, ci: str, cj: str) -> float:
        return max(self.rd[cj][e] for e in self.bmu[ci])

    def typicality(self, ci: str, cj: str) -> bool:
        return self.bmu_rd(ci, cj) <= self.rd_max[cj]

    def strict(self, ci: str, cj: str) -> bool:
        """The margin criterion for ``ci <= cj``."""
        return self.bmu_rd(ci, cj) + self.rd_max[ci] <= self.rd_max[cj]

    def specificity(self) -> set[tuple[str, str]]:
        cats = list(self.rd)
        pairs = {(a, b) for a in cats for b in cats
                 if a != b and self.strict(a, b) and not self.strict(b, a)}
        while True:
            extra = {(a, d) for (a, b) in pairs for (c, d) in pairs if b == c} - pairs
            if not extra:
                return pairs
            pairs |= extra

    def prefers(self, x: str, y: str) -> bool:
        return oracle_global_prefer(self.rd, self.above, x, y)

    def extension(self, concept: tuple[str, ...]) -> frozenset:
        """``concept`` is a conjunction of names, or ("Top",) / ("Bot",)."""
        if concept == ("Top",):
            return frozenset(self.ids)
        if concept == ("Bot",):
            return frozenset()
        out = frozenset(self.ids)
        for name in concept:
            out &= self.ext[name]
        return out

    def answer(self, kind: str, lhs: tuple[str, ...], rhs: tuple[str, ...]) -> bool:
        """Does the inclusion hold, by the rule the CLI's ``check`` states?"""
        names = set(self.rd)
        if len(lhs) == 1 and len(rhs) == 1 and lhs[0] in names and rhs[0] in names:
            if kind == "defeasible":
                return self.typicality(lhs[0], rhs[0])
            return self.strict(lhs[0], rhs[0])
        if kind == "strict":
            return self.extension(lhs) <= self.extension(rhs)
        return oracle_minimal(self.prefers, self.extension(lhs)) <= self.extension(rhs)


# ==============================================================
# verify-wide
# ==============================================================


def or_skipped_pairs(snap: Snapshot, category_names) -> int:
    """How many unordered pairs of concepts the ``or`` postulate must skip
    over the full pool: Top, Bot and every conjunction of 1 to 3 distinct
    names, 2 + sum_{r<=3} C(k, r) concepts.  A pair is skipped when the
    union of its extensions is no pool concept's extension."""
    pool = [("Top",), ("Bot",)] + [c for r in range(1, 4)
                                   for c in combinations(sorted(category_names), r)]
    exts = [snap.extension(c) for c in pool]
    have = set(exts)
    return sum(exts[i] | exts[j] not in have
               for i in range(len(exts)) for j in range(i + 1, len(exts)))


def check_verify_reports(answers, skips) -> list[str]:
    """``answers``: (model_index, exit_code, stdout), one per distinct answer
    the ops gave; ``skips``: per model, the pairs ``or`` skips over the full
    pool (``or_skipped_pairs``).  Every report names each check once, passes every required check and
    exits 0, and its ``or`` note skips exactly that many pairs, which shows
    that the KLM checks ran over the full pool; repeated ops on one model
    print the same report."""
    problems = []
    first = {}
    for i, rc, out in answers:
        try:
            doc = json.loads(out)
            status = {c["check"]: (c["status"], c["required"]) for c in doc}
            notes = {c["check"]: c["notes"] or "" for c in doc}
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"model {i}: unreadable report ({exc})")
            continue
        if sorted(status) != sorted(ALL_CHECKS) or len(doc) != len(ALL_CHECKS):
            problems.append(f"model {i}: report lists {sorted(status)}")
        bad = [c for c in REQUIRED_CHECKS if status.get(c) != ("pass", True)]
        if bad or rc != 0:
            problems.append(f"model {i}: exit {rc}, required checks not passed: {bad}")
        if status.get("modularity", (None, None))[1] is not False:
            problems.append(f"model {i}: modularity must be informational")
        skipped = re.search(r"(\d+) pairs skipped", notes.get("or", ""))
        if skipped is None or int(skipped.group(1)) != skips[i]:
            problems.append(f"model {i}: `or` note {notes.get('or')!r}; the full concept "
                            f"pool skips {skips[i]} pairs")
        if first.setdefault(i, out) != out:
            problems.append(f"model {i}: two ops printed different reports")
    return problems


def check_preference_sample(snap: Snapshot, prefers, true_pairs, spec_pairs,
                            rng: np.random.Generator, n: int) -> list[str]:
    """Compare the program's global preference with ``oracle_global_prefer``
    on ``n`` uniform pairs plus ``n`` of the pairs the program orders (every
    pair when the domain is that small), and its specificity with the margin
    criterion."""
    problems = []
    if set(spec_pairs) != snap.specificity():
        problems.append(f"specificity {sorted(spec_pairs)} != margin criterion "
                        f"{sorted(snap.specificity())}")
    ids = snap.ids
    if len(ids) ** 2 <= 2 * n:
        pairs = [(x, y) for x in ids for y in ids]
    else:
        idx = rng.integers(0, len(ids), size=(n, 2))
        pairs = [(ids[a], ids[b]) for a, b in idx]
        true_pairs = sorted(true_pairs)
        if true_pairs:
            pick = rng.integers(0, len(true_pairs), size=n)
            pairs += [true_pairs[k] for k in pick]
    for x, y in pairs:
        got, want = prefers(x, y), snap.prefers(x, y)
        if got != want:
            problems.append(f"global preference ({x}, {y}): program {got}, oracle {want}")
            break
    return problems


# ==============================================================
# query-deep
# ==============================================================


def check_query_answers(snap: Snapshot, queries, answers) -> list[str]:
    """``queries``: (kind, lhs, rhs, text); ``answers``: (query_index,
    exit_code, stdout), one per distinct answer the ops gave.  The printed ``holds``, the exit code and the
    reference answer must agree."""
    problems = []
    want = {}
    for qi, rc, out in answers:
        kind, lhs, rhs, text = queries[qi]
        if qi not in want:
            want[qi] = snap.answer(kind, lhs, rhs)
        try:
            holds = json.loads(out)["holds"]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{text!r}: unreadable answer ({exc})")
            continue
        if holds is not want[qi] or rc != (0 if want[qi] else 4):
            problems.append(f"{text!r}: program says {holds} (exit {rc}), reference {want[qi]}")
    return problems


def check_specificity_present(snap: Snapshot) -> list[str]:
    """The model must have a specificity pair, or the override path of the
    combination rule never runs."""
    if snap.specificity():
        return []
    return ["the model has no specificity pairs; the override path never runs"]


# ==============================================================
# trace-replay
# ==============================================================


def check_replay(categories, replay, batch_weights, batch_kb_texts) -> list[str]:
    """``replay``: (initial_kb, steps, final_weights, final_kb) of one replay
    pass.  The replay starts from ``{C <= Bot}``, each step starts from the
    previous step's KB, and the pass ends on the batch map (bit for bit) and
    on the KB extracted from it."""
    kb0, steps, weights, kb = replay
    problems = []
    if {inclusion_text(i) for i in kb0} != {f"{c} <= Bot" for c in categories}:
        problems.append("initial KB is not {C <= Bot} for every category")
    prev = kb0
    for s in steps:
        if s.kb_before != prev:
            problems.append(f"step {s.step_index} does not start from the previous step's KB")
            break
        prev = s.kb_after
    if prev != kb:
        problems.append("the final state's KB is not the last step's")
    if weights.shape != batch_weights.shape or weights.tobytes() != batch_weights.tobytes():
        problems.append("final map differs from batch training")
    if {inclusion_text(i) for i in kb} != batch_kb_texts:
        problems.append("final KB differs from the batch extraction")
    return problems
