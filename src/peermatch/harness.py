"""Experiment harness: variant configs, runners, and suite orchestration.

A variant toggles four components: role prompts, co-learning, the gain
regressor (GP or neural), and the Pareto front mode. The shipped default
suite runs seven variants over a synthetic six-domain corpus with the
planted-pattern mock backend; everything is a pure function of
(configs, corpus, seed), so reports are byte-identical across reruns.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import asdict, dataclass, replace
from json.encoder import encode_basestring as _json_str
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .backends import (
    CachingBackend,
    CompletionBackend,
    ConfigError,
    HttpBackend,
    LiveConfig,
    MockBackend,
    mock_correct_label,
)
from .blas import lapack_available
from .corpus import CorpusError, Exercise, ExerciseBlock, group_by_domain, make_synthetic_corpus
from .features import GAIN_BASELINES, EmbeddingProvider, HashingEmbedder, ScoreIndex, build_dataset, index_scores
from .gp import GpFitConfig, GpRegressor, check_types
from .hashing import stable_u64
from .metrics import (
    CATEGORY_ORDER,
    Table,
    compute_metrics,
    gain_report,
    write_category_table_csv,
    write_category_table_text,
    write_component_table_csv,
    write_component_table_text,
)
from .nn import MlpConfig, MlpRegressor
from .pareto import (
    FRONT_MODES,
    SELECTION_RULES,
    ParetoFront,
    dump_front,
    local_candidates,
    pareto_front,
    rank_candidates,
    save_front_dumps,
    score_vector,
)
from .personas import Learner, default_cohort
from .protocol import CallEvent, ResponseRecord, exchange_and_resolve, solve_exercise
from .writer import write_file

log = logging.getLogger(__name__)

REGRESSOR_KINDS = ("none", "gp", "nn")
BACKEND_KINDS = ("mock", "cache", "live")
REQUIRED_TEST_CATEGORIES = CATEGORY_ORDER[:-1]  # every report category but "Total"

# Every matched variant fits with these, seeded with its own seed. The GP fit is lighter than the
# recovery-grade library default, GpFitConfig(), so a 7-variant suite stays in its runtime budget.
SUITE_GP_FIT = GpFitConfig(restarts=1, max_iters=100, tol=1e-6)
SUITE_NN_FIT = MlpConfig()


@dataclass(frozen=True)
class VariantConfig:
    """One experiment setting, mirroring the component-removal matrix.

    A regressor requires co-learning, and a Pareto mode requires a
    regressor (and vice versa: selection without a front is undefined).
    ``train_domains`` are held out for regressor training; every other
    domain is evaluated. A list or tuple of domain names is stored as a
    tuple; anything else, a bare string included, is rejected rather than
    split into letters. Every setting is checked when the config is built:
    a wrong type or an inconsistent setting raises ``ConfigError``, and a
    value that passes is used as given.
    """

    name: str
    role_setting: bool
    co_learning: bool
    regressor: str = "none"
    pareto: str = "none"
    seed: int = 0
    backend: str = "mock"
    train_domains: tuple[str, ...] = ()
    mock_base_difficulty: float = 0.4
    mock_bonus: float = 0.3
    selection_rule: str = "mean"
    gain_baseline: str = "self"

    def __post_init__(self) -> None:
        if not isinstance(self.train_domains, (list, tuple)):
            got = f"the string {self.train_domains!r}" if isinstance(self.train_domains, str) else repr(self.train_domains)
            raise ConfigError(f"{self.name}: train_domains must be a list of domain names, got {got}")
        object.__setattr__(self, "train_domains", tuple(self.train_domains))
        check_types(self, self.name, ConfigError)
        if "/" in self.name or "\0" in self.name or len(self.name.encode("utf-8")) > 200:
            raise ConfigError(f"{self.name!r}: a variant name names its files: no '/' or NUL, at most 200 UTF-8 bytes")
        if self.seed < 0:
            raise ConfigError(f"{self.name}: seed must be non-negative, got {self.seed}")
        if not all(isinstance(domain, str) for domain in self.train_domains):
            raise ConfigError(f"{self.name}: train_domains must be domain names, got {list(self.train_domains)!r}")
        for key, what, allowed in (
            ("regressor", "regressor", REGRESSOR_KINDS),
            ("pareto", "pareto mode", ("none", *FRONT_MODES)),
            ("backend", "backend", BACKEND_KINDS),
            ("selection_rule", "selection rule", SELECTION_RULES),
            ("gain_baseline", "gain baseline", GAIN_BASELINES),
        ):
            if getattr(self, key) not in allowed:
                raise ConfigError(f"{self.name}: unknown {what} {getattr(self, key)!r}")
        if self.regressor != "none" and not self.co_learning:
            raise ConfigError(f"{self.name}: a regressor requires co_learning")
        if self.pareto != "none" and self.regressor == "none":
            raise ConfigError(f"{self.name}: a pareto mode requires a regressor")
        if self.regressor != "none" and self.pareto == "none":
            raise ConfigError(f"{self.name}: a regressor requires a pareto mode")
        if self.regressor != "none" and not self.train_domains:
            raise ConfigError(f"{self.name}: a regressor requires train_domains")
        if self.regressor == "gp" and not lapack_available():
            raise ConfigError(
                f"{self.name}: the gp regressor needs SciPy where NumPy bundles no OpenBLAS with "
                "dpotrf and LAPACKE dpotrs, dpotri and dtrtrs; install scipy"
            )


@dataclass(frozen=True)
class SelectionEvent:
    """One partner choice for one test exercise."""

    learner_id: str
    partner_id: str
    domain: str
    exercise_id: str
    anchor_subject: int
    partner_subject: int

    @property
    def complementary(self) -> bool:
        return self.anchor_subject * self.partner_subject == -1


@dataclass(frozen=True, eq=False)
class RunResult:
    """Everything one variant run produced."""

    config: VariantConfig
    per_learner: dict[str, dict[str, float]]
    train_paired: tuple[ResponseRecord, ...]
    test_solo: tuple[ResponseRecord, ...]
    test_paired: tuple[ResponseRecord, ...]
    selections: tuple[SelectionEvent, ...]
    lp_fallbacks: int
    artifacts: dict[str, str]


def _decode_seed(learner_id: str, exercise_id: str) -> int:
    """Variant-independent sampling seed: shared across comparable calls."""
    return stable_u64("decode", learner_id, exercise_id) % 2**32


def build_backend(cfg: VariantConfig, cache_dir: str | Path | None = None,
                  live: LiveConfig | None = None) -> CompletionBackend:
    mock = MockBackend(cfg.seed, cfg.mock_base_difficulty, cfg.mock_bonus)
    if cfg.backend == "mock":
        return mock
    if cfg.backend == "cache":
        if cache_dir is None:
            raise ConfigError("cache backend needs a cache directory")
        inner: CompletionBackend = HttpBackend(live) if live is not None else mock
        return CachingBackend(inner, cache_dir)
    if live is None:
        raise ConfigError("live backend needs a live configuration")
    return HttpBackend(live)


class _TranscriptLog:
    """Collects call events as JSON lines in execution order.

    A line is kept without its leading ``run_id`` field, which ``save``
    writes in front of it, so lines rendered once can join any run's log.
    Lines are formatted with the string escaper that
    ``json.dumps(..., ensure_ascii=False)`` uses, so they are its bytes.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []

    def sink(self, partner_id: str | None, exercise_id: str) -> Callable[[CallEvent], None]:
        lines = self.lines
        partner = "null" if partner_id is None else _json_str(partner_id)
        middle = f', "partner_id": {partner}, "exercise_id": {_json_str(exercise_id)}, "prompt_hash": "'

        def write(event: CallEvent) -> None:
            lines.append(
                f'"step": {event.step}, "learner_id": {_json_str(event.actor_id)}{middle}'
                f'{event.prompt_hash}", "reply": {_json_str(event.reply)}}}'
            )

        return write

    def save(self, path: Path, run_id: str) -> None:
        head = f'{{"run_id": {_json_str(run_id)}, '
        body = ("\n" + head).join(self.lines)
        write_file(path, f"{head}{body}\n" if self.lines else "")


_MISSING = object()


class _SuiteWork:
    """Work that the variants of one suite share, each piece done once.

    ``once(key, make)`` returns what ``make()`` gave the first time ``key``
    was asked for; a ``make`` that raises stores nothing. The kinds of work
    are backend calls, protocol jobs, datasets, fits and stem embeddings. A
    key starts with its kind and holds everything the value depends on
    except the corpus and cohort, which must stay the same for the object's
    life, as they do across the variants of a suite.
    """

    def __init__(self) -> None:
        self._done: dict = {}
        self.embedder = _MemoEmbedder(HashingEmbedder(), self)

    def once(self, key: tuple, make: Callable[[], object]):
        value = self._done.get(key, _MISSING)
        if value is _MISSING:
            value = self._done[key] = make()
        return value


class _MemoBackend:
    """Remembers each reply under (backend name, decode seed, prompt)."""

    def __init__(self, inner: CompletionBackend, work: _SuiteWork):
        self.inner = inner
        self.name = inner.name
        self._once = work.once

    def complete(self, prompt: str, seed: int | None) -> str:
        return self._once(("call", self.name, seed, prompt), lambda: self.inner.complete(prompt, seed))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _MemoEmbedder:
    """Embeds each text once and hands out the same read-only vector."""

    def __init__(self, inner: EmbeddingProvider, work: _SuiteWork):
        self.inner = inner
        self._once = work.once

    def embed(self, text: str) -> np.ndarray:
        return self._once(("embed", text), lambda: _read_only(self.inner.embed(text)))


def _split_blocks(cfg: VariantConfig, corpus: Sequence[Exercise]) -> tuple[list[ExerciseBlock], list[ExerciseBlock]]:
    ids = [e.id for e in corpus]
    if len(set(ids)) < len(ids):  # jobs and scores are keyed on the id: two exercises sharing one were answered as one
        raise CorpusError(f"exercise id(s) {sorted({i for i in ids if ids.count(i) > 1})} repeated; each needs its own id")
    blocks = group_by_domain(corpus)
    known = {b.domain for b in blocks}
    for domain in cfg.train_domains:
        if domain not in known:
            raise ConfigError(f"{cfg.name}: train domain {domain!r} not in corpus")
    train = [b for b in blocks if b.domain in cfg.train_domains]
    test = [b for b in blocks if b.domain not in cfg.train_domains]
    if not test:
        raise ConfigError(f"{cfg.name}: no test blocks remain")
    test_categories = {b.exercises[0].category for b in test}
    missing = [c for c in REQUIRED_TEST_CATEGORIES if c not in test_categories]
    if missing:
        raise ConfigError(f"{cfg.name}: test blocks miss categories {missing}")
    return train, test


def _accuracies(
    learners: Sequence[Learner],
    test_blocks: Sequence[ExerciseBlock],
    records: Iterable[ResponseRecord],
) -> dict[str, dict[str, float]]:
    category_of = {e.id: e.category for b in test_blocks for e in b.exercises}
    scores = {l.id: {c: [] for c in CATEGORY_ORDER} for l in learners}
    for rec in records:
        by_key = scores[rec.learner_id]
        by_key["Total"].append(rec.r)
        if category_of[rec.exercise_id] in by_key:  # other categories count toward the total only
            by_key[category_of[rec.exercise_id]].append(rec.r)
    return {lid: {c: sum(rs) / len(rs) for c, rs in by_key.items()} for lid, by_key in scores.items()}


def resolve_front(
    learner_id: str,
    scores: ScoreIndex,
    train_blocks: Sequence[ExerciseBlock],
    global_vectors,
    mode: str,
) -> tuple[ParetoFront, bool]:
    """Front for one learner; no paired history on the train blocks falls back to the global front."""
    if mode == "local":
        candidates = local_candidates(learner_id, scores, train_blocks)
        if candidates:
            return pareto_front(candidates, anchor=learner_id, mode="local"), False
        log.warning("learner %s has no interaction history; falling back to the global front", learner_id)
    return pareto_front(global_vectors, anchor=learner_id, mode="global"), mode == "local"


def run_variant(
    cfg: VariantConfig,
    corpus: Sequence[Exercise],
    cohort: Mapping[str, Learner] | None = None,
    *,
    backend: CompletionBackend | None = None,
    out_dir: str | Path | None = None,
    live: LiveConfig | None = None,
    shared: _SuiteWork | None = None,
) -> RunResult:
    """Run one variant end to end and score its test phase per learner.

    Variants differ only in the protocol jobs they build. A job is
    ``(learner, partner, exercise)``; one runner does each job, answering
    alone (``solve_exercise``) when the partner is ``None`` and running the
    pair protocol (``exchange_and_resolve``) otherwise, and appends the
    job's transcript lines to the variant's transcript.

    - No co-learning: every learner answers every test exercise alone.
    - Random pairing: a partner per test exercise from a seeded ``random.Random``.
    - Matched: a train phase (solo answers on all blocks, then every ordered
      pair on the train blocks) fits the gain regressor and each learner's
      Pareto front; ``rank_candidates`` then picks one partner per
      (learner, test block), and those pairs make the test jobs.

    ``shared`` is the work ``run_suite`` shares between its variants:
    backend replies, protocol jobs, datasets, fits and stem embeddings, each
    computed once. A job's record and transcript lines depend only on the
    backend, learner, partner, exercise and persona use, so the ``solo``
    variant's answers are the train phase's persona solos, and matched
    variants share every test pair they have in common. Without ``shared``
    the variant makes its own, which changes no output. A cache backend
    keeps its replay cache in ``out_dir / "cache"``. ``out_dir`` is made
    before the first call, so an unusable one costs no call. A repeated
    exercise id (``CorpusError``) and a cohort key that is not its learner's
    id (``ConfigError``) are rejected before that, naming the ids.
    """
    cohort = cohort or default_cohort()
    for key, learner in sorted(cohort.items()):  # records carry the learner's id, and partners are found by it
        if key != learner.id:
            raise ConfigError(f"{cfg.name}: cohort key {key!r} holds learner {learner.id!r}; a key is its learner's id")
    train_blocks, test_blocks = _split_blocks(cfg, corpus)
    out = Path(out_dir) if out_dir is not None else None
    work = shared or _SuiteWork()
    cache_dir = out / "cache" if out is not None else None
    backend = _MemoBackend(backend or build_backend(cfg, cache_dir=cache_dir, live=live), work)
    learners = [cohort[key] for key in sorted(cohort)]
    if len(learners) < 2 and cfg.co_learning:
        raise ConfigError(f"{cfg.name}: co-learning needs at least two learners")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    others = {l.id: [p for p in learners if p.id != l.id] for l in learners}
    all_blocks = train_blocks + test_blocks
    test_exercises = [e for b in test_blocks for e in b.exercises]

    transcript = _TranscriptLog()
    train_paired: list[ResponseRecord] = []
    selections: list[SelectionEvent] = []
    front_dumps: list[dict] = []
    lp_fallbacks = 0
    artifacts: dict[str, str] = {}

    def save_artifact(key: str, folder: str, suffix: str, save: Callable[[Path], None]) -> None:
        rel = Path(folder) / f"{cfg.name}{suffix}"
        save(out / rel)
        artifacts[key] = str(rel)

    # the pair protocol always speaks through personas, so the solo answers
    # a matched variant trains on do too
    use_persona = cfg.role_setting or cfg.co_learning

    def run_job(learner: Learner, partner: Learner | None, exercise: Exercise):
        partner_id = partner.id if partner is not None else None

        def make() -> tuple[ResponseRecord, tuple[str, ...]]:
            seed = _decode_seed(learner.id, exercise.id)
            if partner is None:
                record = solve_exercise(learner, exercise, backend, seed=seed, use_persona=use_persona)
            else:
                record = exchange_and_resolve(learner, partner, exercise, backend, seed=seed)
            log = _TranscriptLog()
            write = log.sink(partner_id, exercise.id)
            for event in record.calls:
                write(event)
            return record, tuple(log.lines)

        record, lines = work.once(("job", backend.name, learner.id, partner_id, exercise.id, use_persona), make)
        transcript.lines.extend(lines)
        return record

    if not cfg.co_learning:
        test_jobs = [(l, None, e) for l in learners for e in test_exercises]
    elif cfg.regressor == "none":
        # keyed on the seed alone so a full config degraded to random pairing
        # reproduces the canonical random-pairing variant exactly
        rng = random.Random(stable_u64("pairing", str(cfg.seed)))
        test_jobs = [
            (l, others[l.id][rng.randrange(len(others[l.id]))], e) for l in learners for e in test_exercises
        ]
    else:
        solo = [run_job(l, None, e) for l in learners for b in all_blocks for e in b.exercises]
        train_paired = [
            run_job(l, p, e) for l in learners for p in others[l.id] for b in train_blocks for e in b.exercises
        ]
        scores = index_scores(solo + train_paired)

        def dataset() -> tuple[np.ndarray, np.ndarray]:
            X, y = build_dataset(cohort, train_blocks, scores, work.embedder, cfg.gain_baseline)
            return _read_only(X), _read_only(y)

        dataset_key = ("dataset", backend.name, cfg.train_domains, cfg.gain_baseline)
        X, y = work.once(dataset_key, dataset)
        regressor, fit_cfg = (GpRegressor, SUITE_GP_FIT) if cfg.regressor == "gp" else (MlpRegressor, SUITE_NN_FIT)
        fit_cfg = replace(fit_cfg, seed=cfg.seed)
        fitted = work.once(("fit", cfg.regressor, fit_cfg, dataset_key), lambda: regressor(fit_cfg).fit(X, y))
        if out is not None:
            save_artifact("model", "models", ".json", fitted.save)

        global_vectors = [score_vector(l.id, scores, all_blocks) for l in learners]
        subject_of = {l.id: l.persona.subject_pref for l in learners}
        test_jobs = []
        for learner in learners:
            front, fell_back = resolve_front(learner.id, scores, train_blocks, global_vectors, cfg.pareto)
            lp_fallbacks += int(fell_back)
            for block in test_blocks:
                scored = rank_candidates(learner, front, fitted, block, work.embedder, cohort, cfg.selection_rule)
                partner = cohort[scored[0].learner_id]
                front_dumps.append({**dump_front(front, scored), "domain": block.domain, "chosen": partner.id})
                for exercise in block.exercises:
                    selections.append(SelectionEvent(
                        learner_id=learner.id,
                        partner_id=partner.id,
                        domain=block.domain,
                        exercise_id=exercise.id,
                        anchor_subject=subject_of[learner.id],
                        partner_subject=subject_of[partner.id],
                    ))
                    test_jobs.append((learner, partner, exercise))

    test_records = [run_job(*job) for job in test_jobs]
    per_learner = _accuracies(learners, test_blocks, test_records)

    if out is not None:
        run_id = f"{cfg.name}@{cfg.seed}"
        save_artifact("transcript", "transcripts", ".jsonl", lambda path: transcript.save(path, run_id))
        if front_dumps:
            save_artifact("fronts", "fronts", ".json", lambda path: save_front_dumps(front_dumps, path))

    return RunResult(
        config=cfg,
        per_learner=per_learner,
        train_paired=tuple(train_paired),
        test_solo=() if cfg.co_learning else tuple(test_records),
        test_paired=tuple(test_records) if cfg.co_learning else (),
        selections=tuple(selections),
        lp_fallbacks=lp_fallbacks,
        artifacts=artifacts,
    )


DEFAULT_SYNTH_SPEC = (
    ("number_theory", "STEM"),
    ("circuit_design", "STEM"),
    ("market_research", "Social Science"),
    ("urban_geography", "Social Science"),
    ("modern_poetry", "Humanities"),
    ("formal_logic", "Humanities"),
)
DEFAULT_TRAIN_DOMAINS = ("number_theory", "market_research", "modern_poetry")


def default_synthetic_corpus(per_domain: int = 10) -> list[Exercise]:
    """Six synthetic domains, two per major category, with mock-consistent keys."""
    spec = tuple((d, c, per_domain) for d, c in DEFAULT_SYNTH_SPEC)
    return make_synthetic_corpus(spec, key_fn=mock_correct_label)


def default_suite_configs(**shared) -> list[VariantConfig]:
    """The seven shipped variants, ordered from no modeling to full matching.

    Each keyword is a ``VariantConfig`` field that every variant shares;
    ``train_domains`` defaults to ``DEFAULT_TRAIN_DOMAINS``.
    """
    shared.setdefault("train_domains", DEFAULT_TRAIN_DOMAINS)
    return [
        VariantConfig(name="baseline", role_setting=False, co_learning=False, **shared),
        VariantConfig(name="solo", role_setting=True, co_learning=False, **shared),
        VariantConfig(name="random-pair", role_setting=True, co_learning=True, **shared),
        VariantConfig(name="gp-global", role_setting=True, co_learning=True, regressor="gp", pareto="global", **shared),
        VariantConfig(name="gp-local", role_setting=True, co_learning=True, regressor="gp", pareto="local", **shared),
        VariantConfig(name="nn-global", role_setting=True, co_learning=True, regressor="nn", pareto="global", **shared),
        VariantConfig(name="nn-local", role_setting=True, co_learning=True, regressor="nn", pareto="local", **shared),
    ]


@dataclass(frozen=True, eq=False)
class SuiteResult:
    table: Table
    gain_text: str
    results: tuple[RunResult, ...]


def run_suite(
    configs: Sequence[VariantConfig],
    corpus: Sequence[Exercise],
    cohort: Mapping[str, Learner] | None = None,
    out_dir: str | Path | None = None,
    *,
    live: LiveConfig | None = None,
) -> SuiteResult:
    """Run every variant sequentially and render both report shapes.

    Each config checked itself when it was built. The variant names, and in
    ``run_variant`` the exercise ids and cohort keys, are checked before the
    first backend call. The variants share one ``_SuiteWork``: each distinct
    backend call, protocol job, dataset, fit and stem embedding is computed
    once per suite. The reports are rendered from the ``results.json``
    payload, by the function ``rerender_reports`` uses.
    """
    names = [cfg.name for cfg in configs]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"suite: variant name(s) {repeated} repeated; each variant writes its own reports")
    baselines = [c.name for c in configs if not c.role_setting and not c.co_learning and c.regressor == "none"]
    if not baselines:
        raise ConfigError("suite needs a baseline variant (no roles, no co-learning)")
    cohort = cohort or default_cohort()
    work = _SuiteWork()

    results: list[RunResult] = []
    for cfg in configs:
        try:
            results.append(run_variant(cfg, corpus, cohort, out_dir=out_dir, live=live, shared=work))
        except Exception as exc:
            # re-raise the same object: rebuilding it would drop attributes
            # such as TransportError.step and fails for richer constructors
            head = exc.args[0] if exc.args else ""
            exc.args = (f"variant {cfg.name!r}: {head}", *exc.args[1:])
            raise

    payload = {
        "baseline": baselines[0],
        "variants": [
            {
                "config": asdict(res.config),
                "per_learner": res.per_learner,
                "lp_fallbacks": res.lp_fallbacks,
                "selections": [
                    {
                        "learner_id": s.learner_id,
                        "partner_id": s.partner_id,
                        "domain": s.domain,
                        "exercise_id": s.exercise_id,
                        "complementary": s.complementary,
                    }
                    for s in res.selections
                ],
                "artifacts": res.artifacts,
            }
            for res in results
        ],
    }
    table, gain_text = render_reports(payload, out_dir)
    if out_dir is not None:
        write_file(Path(out_dir) / "results.json", json.dumps(payload, indent=1, sort_keys=True))
    return SuiteResult(table=table, gain_text=gain_text, results=tuple(results))


def render_reports(payload: dict, out_dir: str | Path | None = None) -> tuple[Table, str]:
    """The table and gain report of a ``results.json`` payload; with ``out_dir``, its report files too.

    The files are the category and component tables, each as CSV and as
    aligned text. The payload is read whole before the first file is written.
    """
    variants, baseline = payload["variants"], payload["baseline"]
    table = {v["config"]["name"]: compute_metrics(v["per_learner"]) for v in variants}
    if len(table) != len(variants):
        raise ConfigError("a variant name repeats; each names its own report rows")
    rows = [
        (c["name"], c["role_setting"], c["co_learning"], c["regressor"] == "gp", c["pareto"] != "none")
        for c in (v["config"] for v in variants)
    ]
    gain_text = gain_report(table, baseline)
    if out_dir is not None:
        out_dir = Path(out_dir)
        write_category_table_csv(table, out_dir / "category_table.csv")
        write_category_table_text(table, out_dir / "category_table.txt")
        write_component_table_csv(rows, table, baseline, out_dir / "component_table.csv")
        write_component_table_text(rows, table, baseline, out_dir / "component_table.txt")
    return table, gain_text


def rerender_reports(out_dir: str | Path) -> None:
    """Rewrite the report files from a stored results.json."""
    path = Path(out_dir) / "results.json"
    try:
        render_reports(json.loads(path.read_text("utf-8")), out_dir)
    except (ValueError, LookupError, TypeError) as exc:  # a file of another shape
        raise ConfigError(f"{path}: {type(exc).__name__}: {exc}") from None
