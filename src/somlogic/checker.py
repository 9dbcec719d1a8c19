"""Checking inclusions between learned categories and deriving specificity.

Two named categories Ci, Cj with stimuli are compared through the relative
distance of Ci's best-matching-unit elements measured in Cj:

* defeasible ``T(Ci) <= Cj`` holds iff  max_rd(Ci in Cj) <= rd_max(Cj),
  i.e. the most typical Ci elements fall inside Cj's extension; the max value
  doubles as a plausibility degree (lower = more plausible),
* strict ``Ci <= Cj`` holds iff  max_rd(Ci in Cj) + rd_max(Ci) <= rd_max(Cj),
  a margin wide enough that everything Ci admits is admitted by Cj.

Exact extension containment is computed alongside the margin criterion and
reported separately; the two can disagree and neither overrides the other.

``kb_rule`` states both criteria once, over the ``k x k`` matrix of those
maxima: ``extract_kb`` and ``derive_specificity`` read the matrix off a
model, and the revision step computes it from the map alone.
``extract_kb`` runs every ordered pair of categories through both checks and
returns the inclusions that hold; categories without any stimulus yield
``Ci <= Bot`` instead (their extension is empty) and their pair checks are
reported as vacuous.

``derive_specificity`` turns the strict checks into the relation used by the
combined preference: Ci is more specific than Cj iff ``Ci <= Cj`` holds and
``Cj <= Ci`` does not, closed transitively.  A cycle means the data admits no
specificity ordering and is reported as an error rather than patched.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import compress
from typing import Mapping

import numpy as np

from .concepts import Bot, Inclusion, Name, inclusion_text
from .errors import InputError, SpecificityCycleError
from .model import SemanticModel

__all__ = [
    "CheckReport",
    "KbExtraction",
    "SpecificityRelation",
    "rd_bmu_set",
    "check_typicality",
    "check_strict",
    "kb_rule",
    "extract_kb",
    "kb_file_text",
    "derive_specificity",
    "specificity_to_json",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inclusion check.

    ``method`` names the criterion that produced ``holds``; ``set_holds`` is
    the parallel exact-extension result for strict checks (informational).
    ``status`` is "vacuous" when a side has no stimuli, in which case
    ``holds`` is False and the report never contributes to the KB.
    """

    inclusion: Inclusion
    holds: bool
    method: str
    plausibility: float | None = None
    set_holds: bool | None = None
    status: str = "checked"
    witnesses: tuple[str, ...] = ()

    def to_json(self) -> dict:
        from . import jsonio

        return {
            "inclusion": inclusion_text(self.inclusion),
            "holds": self.holds,
            "method": self.method,
            "plausibility": None
            if self.plausibility is None
            else jsonio.encode_float(self.plausibility),
            "set_holds": self.set_holds,
            "status": self.status,
            "witnesses": list(self.witnesses),
        }


def _bmu_cols(model: SemanticModel, name: str) -> list[int]:
    return [model.col_of[eid] for eid in model.categories[name].bmu_element_ids]


def rd_bmu_set(model: SemanticModel, ci: str, cj: str) -> float:
    """max over Ci's BMU elements of rd(., Cj); the relative distance of
    Ci's most typical representatives seen from Cj."""
    ti = model.category(ci)
    tj = model.category(cj)
    if ti.empty:
        raise InputError(f"category {ci!r} has no stimuli; no BMU elements to measure")
    if tj.empty:
        raise InputError(f"category {cj!r} has no stimuli; relative distance is undefined")
    return float(model.rd[model.row_of[cj], _bmu_cols(model, ci)].max())


def _max_rd_witnesses(model: SemanticModel, ci: str, cj: str, bound: float) -> tuple[str, ...]:
    rd_j = model.rd[model.row_of[cj]]
    return tuple(eid for eid in model.categories[ci].bmu_element_ids
                 if not rd_j[model.col_of[eid]] <= bound)


def _criteria(val, rd_max_i, rd_max_j) -> dict:
    """Whether ``T(Ci) <= Cj`` and ``Ci <= Cj`` hold, by inclusion kind, for
    ``val = rd_bmu_set(Ci, Cj)``; elementwise on arrays as on floats."""
    return {"defeasible": val <= rd_max_j, "strict": val + rd_max_i <= rd_max_j}


def kb_rule(names, val: np.ndarray, rd_max: np.ndarray, empty: np.ndarray) -> frozenset[Inclusion]:
    """The inclusions that hold among the categories ``names``.

    ``val[i, j]`` is ``rd_bmu_set`` of ``names[i]`` in ``names[j]`` and
    ``rd_max[i]`` the bound of ``names[i]``; both are read only where neither
    category is ``empty``.  An empty category contributes ``Ci <= Bot`` and
    nothing else.  ``extract_kb``, ``derive_specificity`` and the revision
    step all take their inclusions from here.
    """
    live = ~empty[:, np.newaxis] & ~empty[np.newaxis, :]
    kb = [Inclusion(kind="strict", lhs=Name(names[i]), rhs=Bot()) for i in np.flatnonzero(empty)]
    for kind, holds in _criteria(val, rd_max[:, np.newaxis], rd_max[np.newaxis, :]).items():
        kb += (
            Inclusion(kind=kind, lhs=Name(names[i]), rhs=Name(names[j]))
            for i, j in zip(*np.nonzero(holds & live))
        )
    return frozenset(kb)


def _report(model: SemanticModel, inc: Inclusion, val: float, holds: bool) -> CheckReport:
    """The report on ``inc`` between two named categories with stimuli, whose
    criterion gave ``holds`` on ``val = rd_bmu_set(lhs, rhs)``."""
    ci, cj = inc.lhs.name, inc.rhs.name
    bound = model.categories[cj].rd_max
    if inc.kind == "defeasible":
        return CheckReport(
            inclusion=inc,
            holds=holds,
            method="bmu_rd_bound",
            plausibility=val,
            witnesses=() if holds else _max_rd_witnesses(model, ci, cj, bound),
        )
    outside = model.ext[model.row_of[ci]] & ~model.ext[model.row_of[cj]]
    set_holds = not outside.any()
    witnesses: tuple[str, ...] = ()
    if not holds:
        witnesses = _max_rd_witnesses(model, ci, cj, bound - model.categories[ci].rd_max)
    elif not set_holds:
        witnesses = tuple(sorted(compress(model.element_ids, outside.tolist())))[:5]
    return CheckReport(
        inclusion=inc,
        holds=holds,
        method="rd_margin",
        plausibility=val,
        set_holds=set_holds,
        witnesses=witnesses,
    )


def _check(model: SemanticModel, kind: str, ci: str, cj: str) -> CheckReport:
    val = rd_bmu_set(model, ci, cj)
    holds = _criteria(val, model.categories[ci].rd_max, model.categories[cj].rd_max)[kind]
    return _report(model, Inclusion(kind=kind, lhs=Name(ci), rhs=Name(cj)), val, holds)


def check_typicality(model: SemanticModel, ci: str, cj: str) -> CheckReport:
    """Does ``T(ci) <= cj`` hold?  Both categories must have stimuli."""
    return _check(model, "defeasible", ci, cj)


def check_strict(model: SemanticModel, ci: str, cj: str) -> CheckReport:
    """Does ``ci <= cj`` hold by the margin criterion?  The exact-extension
    comparison lands in ``set_holds`` without influencing ``holds``."""
    return _check(model, "strict", ci, cj)


def _vacuous(kind: str, ci: str, cj: str) -> CheckReport:
    return CheckReport(
        inclusion=Inclusion(kind=kind, lhs=Name(ci), rhs=Name(cj)),
        holds=False,
        method="bmu_rd_bound" if kind == "defeasible" else "rd_margin",
        status="vacuous",
    )


@dataclass(frozen=True)
class KbExtraction:
    """All pairwise reports plus the knowledge base they induce."""

    reports: tuple[CheckReport, ...]
    kb: frozenset[Inclusion]
    ranked_defeasible: tuple[tuple[Inclusion, float], ...]


def _rule_inputs(model: SemanticModel, cats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``kb_rule``'s ``val``, ``rd_max`` and ``empty`` read off a model; an
    empty category's ``rd_max`` of None reads as nan."""
    tables = [model.categories[c] for c in cats]
    empty = np.array([t.empty for t in tables], dtype=bool)
    live = model.rd[[model.row_of[c] for c, e in zip(cats, empty) if not e]]
    val = np.full((len(cats), len(cats)), np.nan)
    for i in np.flatnonzero(~empty):
        val[i, ~empty] = live[:, _bmu_cols(model, cats[i])].max(axis=1)
    rd_max = np.array([t.rd_max for t in tables], dtype=np.float64)
    return val, rd_max, empty


def extract_kb(model: SemanticModel) -> KbExtraction:
    """Check every ordered category pair (defeasible and strict, diagonal
    included) and collect the inclusions that hold.  A category without
    stimuli contributes ``Ci <= Bot`` and only vacuous pair reports."""
    cats = model.category_names
    val, rd_max, empty = _rule_inputs(model, cats)
    kb = kb_rule(cats, val, rd_max, empty)
    reports: list[CheckReport] = []
    for i, ci in enumerate(cats):
        for j, cj in enumerate(cats):
            for kind in ("defeasible", "strict"):
                if empty[i] or empty[j]:
                    reports.append(_vacuous(kind, ci, cj))
                else:
                    inc = Inclusion(kind=kind, lhs=Name(ci), rhs=Name(cj))
                    reports.append(_report(model, inc, float(val[i, j]), inc in kb))
    for ci in cats:
        if model.categories[ci].empty:
            reports.append(
                CheckReport(
                    inclusion=Inclusion(kind="strict", lhs=Name(ci), rhs=Bot()),
                    holds=True,
                    method="empty_extension",
                )
            )
    ranked = tuple(
        sorted(
            (
                (r.inclusion, r.plausibility)
                for r in reports
                if r.holds and r.inclusion.kind == "defeasible"
            ),
            key=lambda pair: (pair[1], inclusion_text(pair[0])),
        )
    )
    return KbExtraction(reports=tuple(reports), kb=kb, ranked_defeasible=ranked)


def kb_file_text(extraction: KbExtraction) -> str:
    """Render an extraction as a knowledge-base file: strict inclusions
    first, then defeasible ones ordered by plausibility (most plausible
    first), each annotated with its degree."""
    strict = sorted(
        inclusion_text(inc)
        for inc in extraction.kb
        if inc.kind == "strict"
    )
    lines = ["# knowledge base extracted from a trained map"]
    lines.append("# strict inclusions")
    lines.extend(strict if strict else ["# (none)"])
    lines.append("# defeasible inclusions, most plausible first (degree = max rd of the")
    lines.append("# antecedent's best-matching elements measured in the consequent)")
    if extraction.ranked_defeasible:
        for inc, plaus in extraction.ranked_defeasible:
            lines.append(f"{inclusion_text(inc)}  # degree={format(plaus, '.17g')}")
    else:
        lines.append("# (none)")
    return "\n".join(lines) + "\n"


# ==============================================================
# Specificity
# ==============================================================


@dataclass(frozen=True)
class SpecificityRelation:
    """Transitively closed strict relation "more specific than" on category
    names.  ``pairs`` holds (more_specific, more_general)."""

    pairs: frozenset[tuple[str, str]]
    _above: Mapping[str, frozenset[str]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        above: dict[str, set[str]] = {}
        for a, b in self.pairs:
            if a == b:
                raise SpecificityCycleError([a])
            above.setdefault(b, set()).add(a)
        object.__setattr__(
            self, "_above", {k: frozenset(v) for k, v in above.items()}
        )

    def above(self, cat: str) -> frozenset[str]:
        """Categories strictly more specific than ``cat``."""
        return self._above.get(cat, frozenset())


def _cycle_through(start: str, edges: Mapping[str, set[str]]) -> list[str]:
    """A shortest cycle from ``start`` back to itself, found breadth-first;
    ``start`` must lie in its own transitive closure."""
    queue = deque([[start]])
    seen = {start}
    while True:
        path = queue.popleft()
        for nxt in sorted(edges[path[-1]]):
            if nxt == start:
                return path
            if nxt not in seen:
                seen.add(nxt)
                queue.append(path + [nxt])


def derive_specificity(model: SemanticModel) -> SpecificityRelation:
    """Build the specificity relation from pairwise strict checks.

    Raises SpecificityCycleError (listing one cycle) when the strict
    inclusions are circular; the caller decides what to do, nothing is
    silently dropped.
    """
    names = model.category_names
    strict = {
        (inc.lhs.name, inc.rhs.name)
        for inc in kb_rule(names, *_rule_inputs(model, names))
        if inc.kind == "strict" and isinstance(inc.rhs, Name)
    }
    cats = [c for c in names if not model.categories[c].empty]
    edges = {
        ci: {cj for cj in cats if ci != cj and (ci, cj) in strict and (cj, ci) not in strict}
        for ci in cats
    }

    # Warshall's transitive closure; the graph is small (categories, not
    # elements).  A category in its own closure lies on a cycle.
    closed = {c: set(edges[c]) for c in cats}
    for k in cats:
        for a in cats:
            if k in closed[a]:
                closed[a] |= closed[k]
    for c in cats:
        if c in closed[c]:
            raise SpecificityCycleError(_cycle_through(c, edges))
    pairs = frozenset((a, b) for a in cats for b in closed[a])
    return SpecificityRelation(pairs=pairs)


def specificity_to_json(rel: SpecificityRelation) -> dict:
    return {"pairs": sorted([a, b] for a, b in rel.pairs)}
