"""Numeric features and gain labels for the collaboration-gain regressor.

A training sample, one row of the ``X`` that ``build_dataset`` returns,
concatenates the anchoring learner's short vector, the partner's short
vector, and the domain-block embedding. Its label, the matching entry of
``y``, is the block-normalized difference between the paired score and the
independent baseline score.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .corpus import ExerciseBlock
from .hashing import stable_u64
from .personas import Learner, Persona
from .protocol import ResponseRecord

GAIN_BASELINES = ("self", "partner")  # whose solo score pair_gain subtracts


class CoverageError(ValueError):
    """A record set does not cover exactly the exercises it must."""


class EmbeddingError(RuntimeError):
    """An embedding provider failed on a specific exercise."""


class EmbeddingProvider(Protocol):
    def embed(self, text: str) -> np.ndarray: ...


class HashingEmbedder:
    """Deterministic fallback embedder: signed feature hashing of character n-grams.

    Each 1-, 2- and 3-gram of the text lands in one of 32 fixed buckets
    with a +/-1 sign, both derived from a 64-bit hash; the result is
    L2-normalized. The same text always maps to the same vector; distinct
    texts collide only if every n-gram contribution coincides, which for
    64-bit hashes is negligible in practice. Works on any script since it
    never tokenizes on whitespace.

    Each n-gram's hash is memoised process-wide (``_ngram_hash``, at most
    8,192 n-grams), so stems that share n-grams hash each one once.
    The bucket sums are counts of +/-1.0, exact in floating point, and are
    added in a Python list before the vector is built.
    """

    dim = 32

    def embed(self, text: str) -> np.ndarray:
        sums = [0.0] * self.dim
        for n in (1, 2, 3):
            for i in range(len(text) - n + 1):
                h = _ngram_hash(text[i : i + n])
                sums[(h >> 1) % self.dim] += 1.0 if h & 1 else -1.0
        vec = np.array(sums)
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec


@lru_cache(maxsize=8192)
def _ngram_hash(gram: str) -> int:
    """The embedder's 64-bit hash of one 1-, 2- or 3-gram.

    ``stable_u64`` is looked up when a gram misses the memo, so a wrapper
    installed on this module's name sees every hash that is computed.
    """
    return stable_u64("ngram", "0", str(len(gram)), gram)


def learner_short_vector(persona: Persona) -> np.ndarray:
    """Raw ternary preferences as a length-2 float vector."""
    return np.array([float(persona.subject_pref), float(persona.logic_pref)])


def domain_vector(block: ExerciseBlock, emb: EmbeddingProvider) -> np.ndarray:
    """Mean of the member stems' embeddings; order within the block is irrelevant."""
    rows = []
    for exercise in block.exercises:
        try:
            rows.append(np.asarray(emb.embed(exercise.stem), dtype=np.float64))
        except Exception as exc:
            raise EmbeddingError(f"embedding failed for exercise {exercise.id!r}: {exc}") from exc
    return np.mean(rows, axis=0)


def build_sample_vector(learner: Learner, partner: Learner, domain_vec: np.ndarray) -> np.ndarray:
    """short(learner) + short(partner) + the block's ``domain_vector``, length 4 + dim."""
    if learner.id == partner.id:
        raise ValueError(f"learner {learner.id!r} cannot be its own partner")
    return np.concatenate(
        [learner_short_vector(learner.persona), learner_short_vector(partner.persona), domain_vec]
    )


ScoreIndex = dict[tuple[str, str | None], dict[str, int]]


def index_scores(records: Iterable[ResponseRecord]) -> ScoreIndex:
    """``(learner_id, partner_id) -> {exercise_id: r}`` in one pass.

    A solo record's ``partner_id`` is None. A second record for the same
    key and exercise is a CoverageError.
    """
    index: ScoreIndex = {}
    for rec in records:
        key = (rec.learner_id, rec.partner_id)
        by_exercise = index.setdefault(key, {})
        if rec.exercise_id in by_exercise:
            raise CoverageError(f"records of {key}: duplicate record for exercise {rec.exercise_id!r}")
        by_exercise[rec.exercise_id] = rec.r
    return index


def block_sum(by_exercise: Mapping[str, int], block: ExerciseBlock, what: str) -> int:
    """Sum of r over the block's exercises, which must all be present."""
    missing = [e.id for e in block.exercises if e.id not in by_exercise]
    if missing:
        raise CoverageError(f"{what}: missing records for exercises {missing}")
    return sum(by_exercise[e.id] for e in block.exercises)


def pair_gain(
    learner: Learner,
    partner: Learner,
    block: ExerciseBlock,
    scores: ScoreIndex,
    baseline: str = "self",
) -> float:
    """Block-normalized paired score minus an independent baseline score.

    ``scores`` is an ``index_scores`` index. ``baseline="self"`` subtracts
    the anchoring learner's own solo score; ``baseline="partner"`` subtracts
    the partner's solo score instead. The pair's records and the baseline
    learner's solo records must cover every exercise of the block.
    """
    if baseline not in GAIN_BASELINES:
        raise ValueError(f"unknown baseline {baseline!r}")
    base_learner = learner.id if baseline == "self" else partner.id
    paired, solo = scores.get((learner.id, partner.id), {}), scores.get((base_learner, None), {})
    paired_sum = block_sum(paired, block, f"paired ({learner.id}, {partner.id}) on {block.domain}")
    solo_sum = block_sum(solo, block, f"solo {base_learner} on {block.domain}")
    return (paired_sum - solo_sum) / len(block)


def build_dataset(
    cohort: Mapping[str, Learner],
    blocks: Sequence[ExerciseBlock],
    scores: ScoreIndex,
    emb: EmbeddingProvider,
    baseline: str = "self",
) -> tuple[np.ndarray, np.ndarray]:
    """Sample matrix X and gain labels y, one row per ordered learner pair per block.

    Rows run in (learner, partner, domain) order, each sorted by id or name,
    and learners are never paired with themselves.
    """
    domain_vecs = {block.domain: domain_vector(block, emb) for block in blocks}
    xs: list[np.ndarray] = []
    ys: list[float] = []
    ids = sorted(cohort)
    for learner_id in ids:
        for partner_id in ids:
            if partner_id == learner_id:
                continue
            learner, partner = cohort[learner_id], cohort[partner_id]
            for block in sorted(blocks, key=lambda b: b.domain):
                ys.append(pair_gain(learner, partner, block, scores, baseline))
                xs.append(build_sample_vector(learner, partner, domain_vecs[block.domain]))
    return np.stack(xs), np.array(ys)
