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
from typing import Mapping

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


def rd_bmu_set(model: SemanticModel, ci: str, cj: str) -> float:
    """max over Ci's BMU elements of rd(., Cj); the relative distance of
    Ci's most typical representatives seen from Cj."""
    ti = model.category(ci)
    tj = model.category(cj)
    if ti.empty:
        raise InputError(f"category {ci!r} has no stimuli; no BMU elements to measure")
    if tj.empty:
        raise InputError(f"category {cj!r} has no stimuli; relative distance is undefined")
    return max(tj.rd[eid] for eid in ti.bmu_element_ids)


def _max_rd_witnesses(model: SemanticModel, ci: str, cj: str, bound: float) -> tuple[str, ...]:
    ti = model.category(ci)
    tj = model.category(cj)
    return tuple(eid for eid in ti.bmu_element_ids if not tj.rd[eid] <= bound)


def check_typicality(model: SemanticModel, ci: str, cj: str) -> CheckReport:
    """Does ``T(ci) <= cj`` hold?  Both categories must have stimuli."""
    inc = Inclusion(kind="defeasible", lhs=Name(ci), rhs=Name(cj))
    val = rd_bmu_set(model, ci, cj)
    bound = model.category(cj).rd_max
    holds = val <= bound
    return CheckReport(
        inclusion=inc,
        holds=holds,
        method="bmu_rd_bound",
        plausibility=val,
        witnesses=() if holds else _max_rd_witnesses(model, ci, cj, bound),
    )


def check_strict(model: SemanticModel, ci: str, cj: str) -> CheckReport:
    """Does ``ci <= cj`` hold by the margin criterion?  The exact-extension
    comparison lands in ``set_holds`` without influencing ``holds``."""
    inc = Inclusion(kind="strict", lhs=Name(ci), rhs=Name(cj))
    val = rd_bmu_set(model, ci, cj)
    ti = model.category(ci)
    tj = model.category(cj)
    holds = val + ti.rd_max <= tj.rd_max
    set_holds = model.extensions[ci] <= model.extensions[cj]
    witnesses: tuple[str, ...] = ()
    if not holds:
        witnesses = _max_rd_witnesses(model, ci, cj, tj.rd_max - ti.rd_max)
    elif not set_holds:
        witnesses = tuple(sorted(model.extensions[ci] - model.extensions[cj]))[:5]
    return CheckReport(
        inclusion=inc,
        holds=holds,
        method="rd_margin",
        plausibility=val,
        set_holds=set_holds,
        witnesses=witnesses,
    )


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


def extract_kb(model: SemanticModel) -> KbExtraction:
    """Check every ordered category pair (defeasible and strict, diagonal
    included) and collect the inclusions that hold.  A category without
    stimuli contributes ``Ci <= Bot`` and only vacuous pair reports."""
    cats = model.category_names
    reports: list[CheckReport] = []
    for ci in cats:
        for cj in cats:
            ei = model.categories[ci].empty
            ej = model.categories[cj].empty
            if ei or ej:
                reports.append(_vacuous("defeasible", ci, cj))
                reports.append(_vacuous("strict", ci, cj))
            else:
                reports.append(check_typicality(model, ci, cj))
                reports.append(check_strict(model, ci, cj))
    for ci in cats:
        if model.categories[ci].empty:
            reports.append(
                CheckReport(
                    inclusion=Inclusion(kind="strict", lhs=Name(ci), rhs=Bot()),
                    holds=True,
                    method="empty_extension",
                )
            )
    kb = frozenset(r.inclusion for r in reports if r.holds)
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
    cats = [c for c in model.category_names if not model.categories[c].empty]
    strict = {
        (ci, cj): check_strict(model, ci, cj).holds for ci in cats for cj in cats if ci != cj
    }
    edges = {
        ci: {cj for cj in cats if ci != cj and strict[ci, cj] and not strict[cj, ci]}
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
