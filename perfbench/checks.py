"""Correctness checks on the output directory of one benchmark workload.

Every check is computed apart from the program, or tests a property the
method must have: expected call counts come from the cohort and corpus
sizes, answer keys are re-derived with this file's own SHA-256 of each
stem, dominance and the marginal likelihood use their own formulas. A
failed check raises ``CheckFailed`` naming the file and what differs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The mock backend's documented default accuracy for a prompt without a
# complementary partner (README "Backends"); the neutral profiling probe
# carries no subject descriptor, so this is the expected mean of every row.
MOCK_BASE_DIFFICULTY = 0.4
# Half-width of the per-row bound on a profile mean, in binomial standard
# deviations. At 5 sigma the chance that any of ~100 honest rows strays
# outside is below 1e-4 per seed.
BINOMIAL_Z = 5.0
# Relative slack for comparing two dense marginal likelihoods whose
# optimiser only accepted strict improvements.
MLL_RTOL = 1e-9

TABLE_FILES = ("category_table.csv", "category_table.txt", "component_table.csv", "component_table.txt")
ANSWER_LINE = re.compile(r"^Answer:\s*([A-Z])\s*$", re.MULTILINE)


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Item:
    stem: str
    n_options: int
    domain: str
    category: str


@dataclass(frozen=True)
class SuiteInputs:
    """What the suite was given: learner ids, exercises by id, training domains."""

    learners: tuple[str, ...]
    items: dict[str, Item]
    train_domains: frozenset[str]

    @property
    def train_ids(self) -> list[str]:
        return [i for i, it in self.items.items() if it.domain in self.train_domains]

    @property
    def test_ids(self) -> list[str]:
        return [i for i, it in self.items.items() if it.domain not in self.train_domains]


def _fail(where, message: str) -> None:
    raise CheckFailed(f"{where}: {message}")


def mock_key(stem: str, n_options: int) -> str:
    """The mock's planted answer key: SHA-256 of "mock-key", a unit separator and the stem."""
    digest = hashlib.sha256(("mock-key\x1f" + stem).encode("utf-8")).digest()
    return chr(ord("A") + int.from_bytes(digest[:8], "big") % n_options)


def final_answer(reply: str) -> str | None:
    """The label on the last ``Answer: X`` line of a reply, or None."""
    found = ANSWER_LINE.findall(reply)
    return found[-1] if found else None


def read_transcript(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def expected_calls(config: dict, inputs: SuiteInputs) -> int:
    """Backend calls one variant must log, from the cohort and corpus sizes."""
    L, T, Tr = len(inputs.learners), len(inputs.test_ids), len(inputs.train_ids)
    if not config["co_learning"]:
        return L * T
    if config["regressor"] == "none":
        return 4 * L * T
    return L * (Tr + T) + 4 * L * (L - 1) * Tr + 4 * L * T


def scored_lines(config: dict, lines: list[dict], inputs: SuiteInputs) -> list[dict]:
    """Transcript lines that carry a scored answer: solo answers, or step-4 re-answers on test items."""
    test = set(inputs.test_ids)
    step = 0 if not config["co_learning"] else 4
    return [ln for ln in lines if ln["step"] == step and ln["exercise_id"] in test]


def recount_accuracies(config: dict, lines: list[dict], inputs: SuiteInputs, where) -> dict:
    """Per-learner, per-category accuracy from the transcript's final answers."""
    seen: set[tuple[str, str]] = set()
    right: dict[str, dict[str, int]] = {l: {} for l in inputs.learners}
    for ln in scored_lines(config, lines, inputs):
        key = (ln["learner_id"], ln["exercise_id"])
        if key in seen:
            _fail(where, f"two scored answers for {key}")
        seen.add(key)
        item = inputs.items[ln["exercise_id"]]
        ok = int(final_answer(ln["reply"]) == mock_key(item.stem, item.n_options))
        per = right[ln["learner_id"]]
        per[item.category] = per.get(item.category, 0) + ok
    size: dict[str, int] = {}
    for ex_id in inputs.test_ids:
        cat = inputs.items[ex_id].category
        size[cat] = size.get(cat, 0) + 1
    if len(seen) != len(inputs.learners) * len(inputs.test_ids):
        _fail(where, f"{len(seen)} scored answers, expected {len(inputs.learners) * len(inputs.test_ids)}")
    out = {}
    for learner, per in right.items():
        scores = {cat: per.get(cat, 0) / n for cat, n in size.items()}
        scores["Total"] = sum(per.values()) / sum(size.values())
        out[learner] = scores
    return out


def dominates(a: dict, b: dict) -> bool:
    return all(a[d] >= b[d] for d in a) and any(a[d] > b[d] for d in a)


def check_fronts(path: Path, selections: list[dict]) -> None:
    chosen_by = {}
    for i, dump in enumerate(json.loads(path.read_text("utf-8"))):
        where = f"{path} [{i}]"
        members = dump["members"]
        if not members:
            _fail(where, "empty front")
        for a in members:
            if a["learner_id"] == dump["anchor"]:
                _fail(where, "the anchor is a member of its own front")
            for b in members:
                if a is not b and dominates(a["scores"], b["scores"]):
                    _fail(where, f"{a['learner_id']} dominates {b['learner_id']}")
        best = min(members, key=lambda m: (-m["value"], m["learner_id"]))["learner_id"]
        if dump["chosen"] != best:
            _fail(where, f"chosen {dump['chosen']}, highest value is {best}")
        chosen_by[(dump["anchor"], dump["domain"])] = best
    for s in selections:
        if chosen_by.get((s["learner_id"], s["domain"])) != s["partner_id"]:
            _fail(path, f"selection {s['learner_id']}/{s['exercise_id']} paired with {s['partner_id']}, "
                        f"not the front's choice")


def dense_mll(X: np.ndarray, y: np.ndarray, log_params, extra_diag: float = 0.0) -> float:
    """log N(y | 0, K) for the squared-exponential kernel, via LU, not Cholesky."""
    sf2, ls, sn2 = np.exp(np.asarray(log_params, dtype=np.float64))
    diff = X[:, None, :] - X[None, :, :]
    K = sf2 * np.exp(-np.sum(diff * diff, axis=2) / (2.0 * ls * ls))
    K += (sn2 + extra_diag) * np.eye(len(y))
    sign, logdet = np.linalg.slogdet(K)
    if sign <= 0:
        return -math.inf
    return float(-0.5 * y @ np.linalg.solve(K, y) - 0.5 * logdet - 0.5 * len(y) * math.log(2.0 * math.pi))


def check_gp_snapshot(path: Path, init: tuple[float, float, float]) -> None:
    snap = json.loads(path.read_text("utf-8"))
    X = np.array([[float(v) for v in row] for row in snap["x"]], dtype=np.float64)
    y = np.array([float(v) for v in snap["y"]], dtype=np.float64)
    fitted = dense_mll(X, y, [float(v) for v in snap["log_params"]], float(snap["jitter"]))
    start = dense_mll(X, y, np.log(init))
    if not math.isfinite(fitted) or fitted < start - MLL_RTOL * abs(start):
        _fail(path, f"MLL at fitted hyperparameters {fitted!r} is below MLL at init {start!r}")


def check_suite(out: Path, inputs: SuiteInputs, gp_init: tuple[float, float, float]) -> int:
    """Check a suite output directory; returns the number of graded answers it holds."""
    results = json.loads((out / "results.json").read_text("utf-8"))
    answers = 0
    for variant in results["variants"]:
        cfg = variant["config"]
        where = f"{out} variant {cfg['name']}"
        lines = read_transcript(out / "transcripts" / f"{cfg['name']}.jsonl")
        want = expected_calls(cfg, inputs)
        if len(lines) != want:
            _fail(where, f"{len(lines)} transcript lines, expected {want}")
        answers += sum(1 for ln in lines if ln["step"] in (0, 4))
        recount = recount_accuracies(cfg, lines, inputs, where)
        if recount != variant["per_learner"]:
            bad = sorted(l for l in recount if recount[l] != variant["per_learner"].get(l))
            _fail(where, f"accuracies differ from the transcript recount for {bad}")
        if cfg["regressor"] != "none":
            check_fronts(out / "fronts" / f"{cfg['name']}.json", variant["selections"])
        if cfg["regressor"] == "gp":
            check_gp_snapshot(out / "models" / f"{cfg['name']}.json", gp_init)
    return answers


def _artifact_files(out: Path) -> list[str]:
    return sorted(str(p.relative_to(out)) for p in out.rglob("*")
                  if p.is_file() and p.relative_to(out).parts[0] != "cache")


def check_cache_against_mock(out: Path, reference: Path, paid_calls: int) -> None:
    """A cache-backed suite writes what the mock-backed one wrote, and caches each paid call once."""
    files = _artifact_files(out)
    if files != _artifact_files(reference):
        _fail(out, "artifact file set differs from the mock run")
    for rel in files:
        if rel == "results.json":
            continue
        if (out / rel).read_bytes() != (reference / rel).read_bytes():
            _fail(out / rel, "differs from the mock run")
    got = json.loads((out / "results.json").read_text("utf-8"))
    want = json.loads((reference / "results.json").read_text("utf-8"))
    for variant in got["variants"]:
        if variant["config"]["backend"] != "cache":
            _fail(out / "results.json", f"echoed backend {variant['config']['backend']!r}")
        variant["config"]["backend"] = "mock"
    if got != want:
        _fail(out / "results.json", "differs from the mock run beyond the echoed backend name")
    entries = sum(1 for p in (out / "cache").rglob("*") if p.is_file())
    if entries != paid_calls:
        _fail(out / "cache", f"{entries} cache entries for {paid_calls} paid calls")


def fixture_ids(fixture_dir: Path) -> list[str]:
    """``<domain>/<row>`` for every row of the CMMLU-format fixture CSVs."""
    ids = []
    for path in sorted(fixture_dir.glob("*.csv")):
        with open(path, encoding="utf-8", newline="") as f:
            ids.extend(f"{path.stem}/{i}" for i, _ in enumerate(csv.DictReader(f)))
    return ids


def check_profile(out: Path, fixture_dir: Path, repeats: int) -> int:
    """Check a difficulty profile; returns the number of graded answers it summarises."""
    path = out / "difficulty.csv"
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    ids = [r["exercise_id"] for r in rows]
    if sorted(ids) != sorted(fixture_ids(fixture_dir)):
        _fail(path, "rows do not match the fixture's exercises one to one")
    half_width = BINOMIAL_Z * math.sqrt(MOCK_BASE_DIFFICULTY * (1 - MOCK_BASE_DIFFICULTY) / repeats)
    for r in rows:
        if int(r["n_repeats"]) != repeats:
            _fail(path, f"{r['exercise_id']}: n_repeats {r['n_repeats']}, requested {repeats}")
        # 5e-7 covers the six decimals the profile is written with
        if abs(float(r["mean_accuracy"]) - MOCK_BASE_DIFFICULTY) > half_width + 5e-7:
            _fail(path, f"{r['exercise_id']}: mean {r['mean_accuracy']} outside "
                        f"{MOCK_BASE_DIFFICULTY} +/- {half_width:.4f}")
    return len(rows) * repeats


def tree_digest(out: Path) -> str:
    """One SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(out)).encode("utf-8") + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def tree_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
