"""Multiple-choice corpus handling: loading, domain blocks, difficulty, synthetic corpora.

The input format follows the CMMLU layout: UTF-8 comma-delimited files with
header ``id,question,A,B,C,D,answer``, one file per domain (filename is the
domain name), or a single consolidated file carrying an extra ``domain``
column. Exercises may be Chinese-language; no transliteration happens here.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .hashing import stable_u64
from .writer import csv_text, write_file

log = logging.getLogger(__name__)

OPTION_COLUMNS = ("A", "B", "C", "D")


class CorpusError(ValueError):
    """Malformed corpus input (bad row, missing column, unknown domain...)."""


@dataclass(frozen=True)
class Exercise:
    """One multiple-choice item. Option label i is chr(ord('A') + i)."""

    id: str
    stem: str
    options: tuple[str, ...]
    key: str
    domain: str
    category: str

    def __post_init__(self) -> None:
        if not self.domain:
            raise CorpusError(f"exercise {self.id!r} has empty domain")
        if len(self.options) == 1:
            raise CorpusError(f"exercise {self.id!r} has one option; a multiple-choice item needs at least two")
        if self.options and self.key not in self.labels:
            raise CorpusError(f"exercise {self.id!r}: key {self.key!r} not among labels {self.labels}")

    # stored in the instance __dict__, outside the fields: equality, hashing and replace() ignore it
    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(chr(ord("A") + i) for i in range(len(self.options)))


@dataclass(frozen=True)
class ExerciseBlock:
    """All exercises of one knowledge domain, treated as a unit."""

    domain: str
    exercises: tuple[Exercise, ...]

    def __post_init__(self) -> None:
        if not self.exercises:
            raise CorpusError(f"block {self.domain!r} is empty")
        for e in self.exercises:
            if e.domain != self.domain:
                raise CorpusError(f"exercise {e.id!r} (domain {e.domain!r}) in block {self.domain!r}")

    def __len__(self) -> int:
        return len(self.exercises)


@lru_cache(maxsize=1)
def domain_category_map() -> dict[str, str]:
    """Bundled domain -> category map covering the 67 CMMLU domains."""
    raw = resources.files("peermatch").joinpath("data", "cmmlu_categories.json").read_text("utf-8")
    return json.loads(raw)


def category_for_domain(domain: str) -> str:
    mapping = domain_category_map()
    if domain not in mapping:
        log.warning("unknown domain %r, mapping to category 'other'", domain)
        return "other"
    return mapping[domain]


def _read_rows(path: Path, domain_column: bool) -> list[tuple[str, dict]]:
    """(domain, row) pairs; with ``domain_column``, a ``domain`` column names each row's domain, else the stem does."""
    with open(path, encoding="utf-8-sig", newline="") as f:
        reader = csv.DictReader(f)
        fields = reader.fieldnames or []
        missing = [c for c in ("id", "question", *OPTION_COLUMNS, "answer") if c not in fields]
        if missing:
            raise CorpusError(f"{path}: missing column(s) {missing}")
        if domain_column and "domain" in fields:
            return [((row.get("domain") or "").strip(), row) for row in reader]
        return [(path.stem, row) for row in reader]


def load_corpus(path: str | Path) -> list[Exercise]:
    """Load exercises from a directory of per-domain CSVs or a single CSV.

    Row order is preserved; ids are assigned ``<domain>/<row-index>`` with
    the index counted per domain. Bad rows raise CorpusError naming the
    file and row number.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix == ".csv")
        if not files:
            raise CorpusError(f"{path}: no .csv files")
        batches = [(p, False) for p in files]
    elif path.is_file():
        batches = [(path, True)]
    else:
        raise CorpusError(f"{path}: not a file or directory")

    exercises: list[Exercise] = []
    counters: dict[str, int] = {}
    for file_path, domain_column in batches:
        for row_no, (domain, row) in enumerate(_read_rows(file_path, domain_column)):
            where = f"{file_path.name}, row {row_no}"
            if not domain:
                raise CorpusError(f"{where}: empty domain")
            stem = (row.get("question") or "").strip()
            if not stem:
                raise CorpusError(f"{where}: empty question stem")
            key = (row.get("answer") or "").strip().upper()
            if key not in OPTION_COLUMNS:
                raise CorpusError(f"{where}: bad answer key {row.get('answer')!r}")
            options = tuple((row.get(col) or "").strip() for col in OPTION_COLUMNS)
            index = counters.get(domain, 0)
            counters[domain] = index + 1
            exercises.append(
                Exercise(
                    id=f"{domain}/{index}",
                    stem=stem,
                    options=options,
                    key=key,
                    domain=domain,
                    category=category_for_domain(domain),
                )
            )
    return exercises


def save_corpus(exercises: Sequence[Exercise], path: str | Path) -> None:
    """Write a consolidated CSV that load_corpus reads back unchanged."""
    for e in exercises:
        if len(e.options) != len(OPTION_COLUMNS):
            raise CorpusError(f"exercise {e.id!r}: expected {len(OPTION_COLUMNS)} options")
    rows = ([e.id, e.stem, *e.options, e.key, e.domain] for e in exercises)
    write_file(path, csv_text(["id", "question", *OPTION_COLUMNS, "answer", "domain"], rows))


def fixture_corpus_path() -> Path:
    """Directory of the bundled CMMLU-format fixture files."""
    return Path(str(resources.files("peermatch").joinpath("data", "cmmlu_fixture")))


def group_by_domain(exercises: Iterable[Exercise]) -> list[ExerciseBlock]:
    """Partition into blocks, ordered by first appearance of each domain."""
    grouped: dict[str, list[Exercise]] = {}
    for e in exercises:
        grouped.setdefault(e.domain, []).append(e)
    return [ExerciseBlock(domain=d, exercises=tuple(members)) for d, members in grouped.items()]


@dataclass(frozen=True)
class DifficultyProfile:
    """Per-exercise mean accuracy over a fixed number of repeats."""

    means: dict[str, float]
    repeats: int

    def share_below(self, threshold: float = 0.6) -> float:
        """Fraction of exercises whose mean accuracy is below the threshold."""
        if not self.means:
            raise CorpusError("empty difficulty profile")
        low = sum(1 for m in self.means.values() if m < threshold)
        return low / len(self.means)

    def save(self, path: str | Path) -> None:
        rows = ([ex_id, f"{mean:.6f}", self.repeats] for ex_id, mean in self.means.items())
        write_file(path, csv_text(["exercise_id", "mean_accuracy", "n_repeats"], rows))


def difficulty_profile(exercises: Sequence[Exercise], records, repeats: int) -> DifficultyProfile:
    """Mean accuracy per exercise; every exercise needs exactly ``repeats`` records."""
    if repeats < 1:
        raise CorpusError("repeats must be >= 1")
    if not exercises:
        raise CorpusError("no exercises to profile")
    by_exercise: dict[str, list[int]] = {e.id: [] for e in exercises}
    for record in records:
        if record.exercise_id in by_exercise:
            by_exercise[record.exercise_id].append(record.r)
    means: dict[str, float] = {}
    for e in exercises:
        got = by_exercise[e.id]
        if len(got) != repeats:
            raise CorpusError(f"exercise {e.id!r}: expected {repeats} records, got {len(got)}")
        means[e.id] = sum(got) / repeats
    return DifficultyProfile(means=means, repeats=repeats)


def make_synthetic_corpus(
    domain_specs: Sequence[tuple[str, str, int]],
    seed: int = 0,
    *,
    key_fn: Callable[[str, tuple[str, ...]], str],
) -> list[Exercise]:
    """Generate a synthetic corpus for desk-scale experiments.

    ``domain_specs`` is a list of (domain, category, n). Option texts are
    distinctive phrases that never occur inside stems, so prompt-purity
    scans cannot produce false positives. ``key_fn(stem, labels)`` plants each
    answer key, so a scripted backend can re-derive it.
    """
    exercises: list[Exercise] = []
    for domain, category, n in domain_specs:
        for i in range(n):
            token = f"{stable_u64('stem', str(seed), domain, str(i)):016x}"
            stem = (
                f"In the {domain.replace('_', ' ')} setting {token[:6]}, "
                f"exactly one of the listed claims is consistent with the stated assumptions. Which one?"
            )
            options = tuple(
                f"claim {token[6:10]}-{j} about {domain.replace('_', ' ')}" for j in range(len(OPTION_COLUMNS))
            )
            labels = tuple(chr(ord("A") + j) for j in range(len(options)))
            exercises.append(
                Exercise(
                    id=f"{domain}/{i}",
                    stem=stem,
                    options=options,
                    key=key_fn(stem, labels),
                    domain=domain,
                    category=category,
                )
            )
    return exercises


def strip_options(exercise: Exercise) -> Exercise:
    """Copy of the exercise without options; already-stripped input is returned unchanged."""
    if not exercise.options:
        return exercise
    return replace(exercise, options=())
