"""Score vectors, Pareto dominance, fronts, and partner selection.

A learner's score vector holds its per-domain accuracy over a fixed domain
set. A candidate dominates another when it is at least as good everywhere
and strictly better somewhere; the front keeps exactly the non-dominated
candidates. The final partner is the front member whose predicted
collaboration gain is highest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import ExerciseBlock
from .features import EmbeddingProvider, ScoreIndex, block_sum, build_sample_vector, domain_vector
from .gp import FittedRegressor
from .personas import Learner
from .writer import write_file

FRONT_MODES = ("global", "local")
SELECTION_RULES = ("mean", "poi")


class DomainMismatchError(ValueError):
    """Two score vectors cover different domain sets."""


class EmptyCandidatesError(ValueError):
    """No candidates remain after removing the anchor."""


@dataclass(frozen=True)
class ScoreVector:
    """Per-domain scores in [0, 1] for one learner."""

    learner_id: str
    scores: dict[str, float]

    def __post_init__(self) -> None:
        if not self.scores:
            raise ValueError(f"score vector for {self.learner_id!r} has no domains")
        for domain, value in self.scores.items():
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"score for {domain!r} must be in [0, 1], got {value!r}")
        object.__setattr__(self, "_domains", frozenset(self.scores))
        object.__setattr__(self, "_aligned", tuple(self.scores[d] for d in sorted(self.scores)))

    @property
    def domains(self) -> frozenset[str]:
        return self._domains  # type: ignore[attr-defined]


def dominates(a: ScoreVector, b: ScoreVector) -> bool:
    """True iff a is >= b in every domain and > b in at least one."""
    if a.domains != b.domains:
        raise DomainMismatchError(f"domain sets differ: {sorted(a.domains)} vs {sorted(b.domains)}")
    va = a._aligned  # type: ignore[attr-defined]
    vb = b._aligned  # type: ignore[attr-defined]
    return all(x >= y for x, y in zip(va, vb)) and any(x > y for x, y in zip(va, vb))


@dataclass(frozen=True)
class ParetoFront:
    """Non-dominated candidates for one selecting learner."""

    mode: str
    anchor: str
    members: tuple[ScoreVector, ...]

    def __post_init__(self) -> None:
        if self.mode not in FRONT_MODES:
            raise ValueError(f"mode must be one of {FRONT_MODES}, got {self.mode!r}")
        if any(m.learner_id == self.anchor for m in self.members):
            raise ValueError("front members must exclude the anchor")


def pareto_front(candidates: Iterable[ScoreVector], anchor: str, mode: str = "global") -> ParetoFront:
    """Exactly the non-dominated candidates, anchor removed before filtering.

    Incremental filter: each incoming candidate is dropped if a current
    member dominates it, otherwise it evicts any members it dominates.
    Mutually equal vectors are all retained.
    """
    pool = [c for c in candidates if c.learner_id != anchor]
    if not pool:
        raise EmptyCandidatesError(f"no candidates besides anchor {anchor!r}")
    front: list[ScoreVector] = []
    for cand in pool:
        if any(dominates(member, cand) for member in front):
            continue
        front = [member for member in front if not dominates(cand, member)]
        front.append(cand)
    front.sort(key=lambda m: m.learner_id)
    return ParetoFront(mode=mode, anchor=anchor, members=tuple(front))


def score_vector(learner_id: str, scores: ScoreIndex, blocks: Sequence[ExerciseBlock]) -> ScoreVector:
    """Per-domain mean independent score; the learner's solo records must cover every block."""
    solo = scores.get((learner_id, None), {})
    return ScoreVector(
        learner_id=learner_id,
        scores={
            b.domain: block_sum(solo, b, f"learner {learner_id!r}, block {b.domain!r}") / len(b) for b in blocks
        },
    )


def local_candidates(learner_id: str, scores: ScoreIndex, blocks: Sequence[ExerciseBlock]) -> list[ScoreVector]:
    """Per-partner score vectors from the learner's own interaction history.

    Each past partner contributes the mean paired score this learner reached
    with them over the records present in each block; an exercise belongs
    to the block that holds it, whatever its id. The domains are the blocks
    this learner tried with any partner, and a block never tried with a
    given partner scores 0.0, so all candidates share one domain set. No
    history in the blocks yields an empty list (cold start).
    """
    tallies: dict[str, dict[str, list[int]]] = {}
    for (anchor, partner_id), by_exercise in scores.items():
        if anchor == learner_id and partner_id is not None:
            tally = {b.domain: [by_exercise[e.id] for e in b.exercises if e.id in by_exercise] for b in blocks}
            if any(tally.values()):
                tallies[partner_id] = tally
    domains = [b.domain for b in blocks if any(tally[b.domain] for tally in tallies.values())]
    return [
        ScoreVector(partner_id, {d: sum(tally[d]) / len(tally[d]) if tally[d] else 0.0 for d in domains})
        for partner_id, tally in sorted(tallies.items())
    ]


@dataclass(frozen=True)
class CandidateScore:
    learner_id: str
    mean: float
    variance: float
    value: float


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def rank_candidates(
    learner: Learner,
    front: ParetoFront,
    regressor: FittedRegressor,
    block: ExerciseBlock,
    emb: EmbeddingProvider,
    cohort: Mapping[str, Learner],
    rule: str = "mean",
) -> list[CandidateScore]:
    """Predicted gain for every front member, best first (ties by smallest id).

    ``rule="mean"`` ranks by the posterior mean; ``rule="poi"`` ranks by the
    probability that the gain is positive, Phi(mean / std). Point predictors
    with zero variance degenerate to a 0/0.5/1 step under "poi".
    """
    if rule not in SELECTION_RULES:
        raise ValueError(f"unknown selection rule {rule!r}")
    dvec = domain_vector(block, emb)
    scored = []
    for member in front.members:
        candidate = cohort[member.learner_id]
        pred = regressor.predict(build_sample_vector(learner, candidate, dvec))
        if rule == "mean":
            value = pred.mean
        else:
            std = math.sqrt(pred.variance) if pred.variance > 0.0 else 0.0
            if std > 0.0:
                value = _normal_cdf(pred.mean / std)
            else:
                value = 1.0 if pred.mean > 0.0 else (0.5 if pred.mean == 0.0 else 0.0)
        scored.append(CandidateScore(member.learner_id, pred.mean, pred.variance, value))
    scored.sort(key=lambda s: (-s.value, s.learner_id))
    return scored


def dump_front(front: ParetoFront, scored: Sequence[CandidateScore]) -> dict:
    """JSON-ready view of one selection event for the harness report."""
    return {
        "mode": front.mode,
        "anchor": front.anchor,
        "members": [
            {
                "learner_id": s.learner_id,
                "scores": dict(sorted(member.scores.items())),
                "mean": s.mean,
                "variance": s.variance,
                "value": s.value,
            }
            for member, s in zip(front.members, sorted(scored, key=lambda c: c.learner_id))
        ],
    }


def save_front_dumps(dumps: Sequence[dict], path: str | Path) -> None:
    write_file(path, json.dumps(list(dumps), indent=1, sort_keys=True))
