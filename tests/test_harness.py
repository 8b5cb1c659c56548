import hashlib
import json
import logging
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from peermatch import gp, harness
from peermatch.backends import LiveConfig, MockBackend, TransportError, mock_correct_label
from peermatch.corpus import CorpusError, make_synthetic_corpus
from peermatch.gp import GpFitConfig
from peermatch.harness import (
    ConfigError,
    DEFAULT_TRAIN_DOMAINS,
    VariantConfig,
    default_suite_configs,
    default_synthetic_corpus,
    rerender_reports,
    resolve_front,
    run_suite,
    run_variant,
)
from peermatch.metrics import CATEGORY_ORDER
from peermatch.nn import MlpConfig
from peermatch.pareto import ScoreVector
from peermatch.personas import default_cohort
from peermatch.protocol import CallEvent
from doubles import FunctionBackend
from oracles import front_ids

FAST_GP = GpFitConfig(restarts=0, max_iters=30, tol=1e-5)
FAST_NN = MlpConfig(iters=300)


@pytest.fixture
def fast_fits(monkeypatch):
    """Every matched variant the test runs fits the quick GP and the quick NN."""
    monkeypatch.setattr(harness, "SUITE_GP_FIT", FAST_GP)
    monkeypatch.setattr(harness, "SUITE_NN_FIT", FAST_NN)


def small_corpus(per_domain=3):
    return default_synthetic_corpus(per_domain=per_domain)


def cfg_with(name, **kw):
    defaults = dict(
        role_setting=True,
        co_learning=True,
        seed=3,
        train_domains=("number_theory", "market_research", "modern_poetry"),
    )
    defaults.update(kw)
    return VariantConfig(name=name, **defaults)


class ExplodingBackend:
    name = "exploding"

    def complete(self, prompt, seed):
        raise AssertionError("backend must not be called")


class RecordingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.name = f"recording({inner.name})"
        self.prompts = []

    def complete(self, prompt, seed):
        self.prompts.append(prompt)
        return self.inner.complete(prompt, seed)


class TestConfigValidation:
    def test_regressor_requires_co_learning(self):
        with pytest.raises(ConfigError, match="co_learning"):
            run_variant(cfg_with("bad", co_learning=False, regressor="gp", pareto="global"), small_corpus(),
                        backend=ExplodingBackend())

    def test_pareto_requires_regressor(self):
        with pytest.raises(ConfigError, match="requires a regressor"):
            run_variant(cfg_with("bad", regressor="none", pareto="global"), small_corpus(), backend=ExplodingBackend())

    def test_regressor_requires_pareto(self):
        with pytest.raises(ConfigError, match="pareto"):
            run_variant(cfg_with("bad", regressor="gp", pareto="none"), small_corpus(), backend=ExplodingBackend())

    def test_unknown_kinds(self):
        for kw in ({"regressor": "forest"}, {"pareto": "cosmic"}, {"backend": "psychic"}):
            with pytest.raises(ConfigError):
                run_variant(cfg_with("bad", **kw), small_corpus(), backend=ExplodingBackend())

    def test_unknown_train_domain(self):
        cfg = cfg_with("bad", regressor="gp", pareto="global", train_domains=("nope",))
        with pytest.raises(ConfigError, match="nope"):
            run_variant(cfg, small_corpus(), backend=ExplodingBackend())

    def test_bare_string_train_domains_rejected(self):
        with pytest.raises(ConfigError, match="must be a list of domain names, got the string 'number_theory'"):
            cfg_with("bad", regressor="gp", pareto="global", train_domains="number_theory")

    def test_test_split_must_cover_categories(self):
        corpus = make_synthetic_corpus(
            [("s1", "STEM", 2), ("s2", "STEM", 2), ("h1", "Humanities", 2), ("soc", "Social Science", 2)],
            seed=0,
            key_fn=mock_correct_label,
        )
        cfg = cfg_with("bad", regressor="gp", pareto="global", train_domains=("soc",))
        with pytest.raises(ConfigError, match="Social Science"):
            run_variant(cfg, corpus, backend=ExplodingBackend())

    @pytest.mark.parametrize("settings", [VariantConfig, LiveConfig, GpFitConfig, MlpConfig], ids=lambda c: c.__name__)
    def test_every_settings_field_is_type_checked(self, settings):
        # check_types skips an annotation outside its table, so only the two fields checked by hand may have one
        unchecked = [f.name for f in fields(settings) if f.type not in gp._CHECKED_TYPES]
        assert set(unchecked) <= {"train_domains", "init"}, unchecked

    def test_validation_happens_before_any_backend_call(self):
        backend = ExplodingBackend()
        with pytest.raises(ConfigError):
            run_variant(cfg_with("bad", regressor="gp", pareto="none"), small_corpus(), backend=backend)

    @pytest.mark.parametrize("runner", ["run_variant", "run_suite"])
    def test_a_repeated_exercise_id_is_rejected_before_any_backend_call(self, runner, monkeypatch):
        # jobs are remembered by exercise id, so two exercises sharing one were answered as one
        corpus = small_corpus()
        corpus[1] = replace(corpus[1], id=corpus[0].id)
        corpus[4] = replace(corpus[4], id="circuit_design/2")
        monkeypatch.setattr(MockBackend, "complete", ExplodingBackend.complete)
        message = r"exercise id\(s\) \['circuit_design/2', 'number_theory/0'\] repeated"
        with pytest.raises(CorpusError, match=message):
            if runner == "run_variant":
                run_variant(cfg_with("solo", co_learning=False), corpus)
            else:
                run_suite(default_suite_configs(seed=3), corpus)

    @pytest.mark.parametrize("runner", ["solo", "gp-global", "run_suite"])
    def test_a_cohort_key_that_is_not_its_learners_id_is_rejected_before_any_backend_call(self, runner, monkeypatch):
        # records carry the learner's id and matched variants look partners up by it
        cohort = default_cohort()
        cohort["L9"] = cohort.pop("L0")
        monkeypatch.setattr(MockBackend, "complete", ExplodingBackend.complete)
        message = r"cohort key 'L9' holds learner 'L0'"
        with pytest.raises(ConfigError, match=message):
            if runner == "solo":
                run_variant(cfg_with("solo", co_learning=False), small_corpus(), cohort)
            elif runner == "gp-global":
                run_variant(cfg_with("gp-global", regressor="gp", pareto="global"), small_corpus(), cohort)
            else:
                run_suite(default_suite_configs(seed=3), small_corpus(), cohort)


class TestSoloVariants:
    def test_baseline_produces_no_paired_records(self):
        cfg = cfg_with("baseline", role_setting=False, co_learning=False)
        res = run_variant(cfg, small_corpus())
        assert res.test_paired == () and res.train_paired == ()
        assert len(res.test_solo) == 9 * 9
        assert set(res.per_learner["L0"]) == set(CATEGORY_ORDER)

    def test_baseline_prompts_are_persona_free(self, prompts):
        from peermatch.harness import build_backend

        cfg = cfg_with("baseline", role_setting=False, co_learning=False)
        backend = RecordingBackend(build_backend(cfg))
        run_variant(cfg, small_corpus(), backend=backend)
        descriptors = list(prompts.subject.values()) + list(prompts.logic.values())
        for prompt in backend.prompts:
            assert not any(d in prompt for d in descriptors)

    def test_solo_prompts_carry_personas(self, prompts):
        from peermatch.harness import build_backend

        cfg = cfg_with("solo", role_setting=True, co_learning=False)
        backend = RecordingBackend(build_backend(cfg))
        run_variant(cfg, small_corpus(), backend=backend)
        assert any(prompts.subject_phrase(1) in p for p in backend.prompts)


class TestRandomPairing:
    def test_fixed_seed_reproduces_pairings(self):
        cfg = cfg_with("random-pair")
        a = run_variant(cfg, small_corpus())
        b = run_variant(cfg, small_corpus())
        assert [r.partner_id for r in a.test_paired] == [r.partner_id for r in b.test_paired]
        assert a.per_learner == b.per_learner

    def test_different_seed_changes_pairings(self):
        a = run_variant(cfg_with("random-pair", seed=1), small_corpus())
        b = run_variant(cfg_with("random-pair", seed=2), small_corpus())
        assert [r.partner_id for r in a.test_paired] != [r.partner_id for r in b.test_paired]

    def test_never_pairs_with_self(self):
        res = run_variant(cfg_with("random-pair"), small_corpus())
        assert all(r.partner_id != r.learner_id for r in res.test_paired)


class TestConfigLattice:
    def test_full_model_minus_gp_and_pareto_is_random_pairing(self):
        degraded = cfg_with("was-gp", regressor="none", pareto="none")
        random_pair = cfg_with("was-gp")  # identical settings, canonical random pairing
        a = run_variant(degraded, small_corpus())
        b = run_variant(random_pair, small_corpus())
        assert a.per_learner == b.per_learner
        assert a.train_paired == () and a.selections == ()

    def test_minus_co_learning_is_solo(self):
        degraded = cfg_with("x", co_learning=False)
        solo = cfg_with("x", role_setting=True, co_learning=False)
        a = run_variant(degraded, small_corpus())
        b = run_variant(solo, small_corpus())
        assert a.per_learner == b.per_learner
        assert a.test_paired == ()

    def test_minus_role_setting_is_baseline(self):
        degraded = cfg_with("x", role_setting=False, co_learning=False)
        baseline = cfg_with("x", role_setting=False, co_learning=False)
        assert run_variant(degraded, small_corpus()).per_learner == run_variant(
            baseline, small_corpus()
        ).per_learner


@pytest.mark.usefixtures("fast_fits")
class TestMatchedVariants:
    def test_gp_variant_records_selections_and_fronts(self, tmp_path):
        cfg = cfg_with("gp-global", regressor="gp", pareto="global")
        res = run_variant(cfg, small_corpus(), out_dir=tmp_path)
        assert len(res.selections) == 9 * 9  # 9 learners x 3 test blocks x 3 exercises
        assert all(s.partner_id != s.learner_id for s in res.selections)
        assert len(res.train_paired) == 9 * 8 * 9
        assert (tmp_path / res.artifacts["model"]).exists()
        assert (tmp_path / res.artifacts["fronts"]).exists()
        dumps = json.loads((tmp_path / res.artifacts["fronts"]).read_text("utf-8"))
        assert len(dumps) == 9 * 3
        assert {"mode", "anchor", "members", "domain", "chosen"} <= set(dumps[0])

    def test_train_domains_list_runs_like_a_tuple(self, tmp_path):
        domains = ["number_theory", "market_research", "modern_poetry"]
        runs = {}
        for kind, train_domains in (("list", domains), ("tuple", tuple(domains))):
            cfg = cfg_with("gp-global", regressor="gp", pareto="global", train_domains=train_domains)
            runs[kind] = run_variant(cfg, small_corpus(), out_dir=tmp_path / kind)
        as_list, as_tuple = runs["list"], runs["tuple"]
        assert as_list.config.train_domains == tuple(domains)
        assert as_list.per_learner == as_tuple.per_learner
        assert as_list.selections == as_tuple.selections
        transcript = as_list.artifacts["transcript"]
        assert (tmp_path / "list" / transcript).read_bytes() == (tmp_path / "tuple" / transcript).read_bytes()

    def test_lp_variant_uses_training_history_without_fallback(self):
        cfg = cfg_with("gp-local", regressor="gp", pareto="local")
        res = run_variant(cfg, small_corpus())
        assert res.lp_fallbacks == 0

    def test_transcript_lines_have_interface_fields(self, tmp_path):
        cfg = cfg_with("nn-global", regressor="nn", pareto="global")
        res = run_variant(cfg, small_corpus(), out_dir=tmp_path)
        lines = (tmp_path / res.artifacts["transcript"]).read_text("utf-8").strip().splitlines()
        assert lines
        for line in lines[:5]:
            entry = json.loads(line)
            assert list(entry) == [
                "run_id",
                "step",
                "learner_id",
                "partner_id",
                "exercise_id",
                "prompt_hash",
                "reply",
            ]
            assert entry["run_id"] == "nn-global@3"
            assert len(entry["prompt_hash"]) == 64


def test_cold_start_falls_back_to_global_front(caplog):
    vectors = [ScoreVector(f"L{i}", {"d": 0.5}) for i in range(4)]
    with caplog.at_level(logging.WARNING):
        front, fell_back = resolve_front("L0", {}, [], vectors, mode="local")
    assert fell_back
    assert front.mode == "global"
    assert "L0" not in front_ids(front)
    assert any("falling back" in rec.message for rec in caplog.records)


def test_resolve_front_local_mode_with_history():
    from peermatch.backends import MockBackend
    from peermatch.corpus import group_by_domain
    from peermatch.features import index_scores
    from peermatch.protocol import exchange_and_resolve

    corpus = small_corpus()
    blocks = group_by_domain(corpus)
    cohort = default_cohort()
    backend = MockBackend(seed=0)
    history = [
        exchange_and_resolve(cohort["L0"], cohort["L5"], e, backend) for e in blocks[0].exercises
    ]
    front, fell_back = resolve_front("L0", index_scores(history), blocks, [], mode="local")
    assert not fell_back
    assert front.mode == "local"
    assert front_ids(front) == ("L5",)


@pytest.mark.usefixtures("fast_fits")
class TestSuite:
    def _tiny_configs(self, seed=3):
        shared = dict(seed=seed, train_domains=("number_theory", "market_research", "modern_poetry"))
        return [
            VariantConfig(name="baseline", role_setting=False, co_learning=False, **shared),
            VariantConfig(name="solo", role_setting=True, co_learning=False, **shared),
            VariantConfig(
                name="gp-global", role_setting=True, co_learning=True, regressor="gp",
                pareto="global", **shared,
            ),
        ]

    def test_suite_writes_reports_in_config_order(self, tmp_path):
        suite = run_suite(self._tiny_configs(), small_corpus(), out_dir=tmp_path)
        assert list(suite.table) == ["baseline", "solo", "gp-global"]
        lines = (tmp_path / "category_table.csv").read_text("utf-8").strip().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == (
            ["baseline"] * 4 + ["solo"] * 4 + ["gp-global"] * 4
        )
        assert (tmp_path / "component_table.csv").exists()
        assert (tmp_path / "results.json").exists()
        assert suite.gain_text.splitlines()[1].startswith("baseline")

    def test_results_echo_exactly_the_config_fields(self, tmp_path):
        configs = self._tiny_configs()
        run_suite(configs, small_corpus(), out_dir=tmp_path)
        echoed = [v["config"] for v in json.loads((tmp_path / "results.json").read_text("utf-8"))["variants"]]
        assert [sorted(c) for c in echoed] == [sorted(f.name for f in fields(VariantConfig))] * len(configs)
        assert [c["train_domains"] for c in echoed] == [list(cfg.train_domains) for cfg in configs]

    def test_suite_requires_baseline(self):
        configs = self._tiny_configs()[1:]
        with pytest.raises(ConfigError, match="baseline"):
            run_suite(configs, small_corpus())

    def test_suite_errors_carry_variant_name(self):
        configs = self._tiny_configs()
        bad = VariantConfig(
            name="broken", role_setting=True, co_learning=True, regressor="gp", pareto="global",
            seed=3, train_domains=("missing-domain",),
        )
        with pytest.raises(ConfigError, match="broken"):
            run_suite(configs + [bad], small_corpus())

    def test_suite_error_is_reraised_with_its_attributes(self, monkeypatch, prompts):
        mock = MockBackend(seed=3)

        def drop_summaries(prompt, seed):
            if prompts.partner_draft_header in prompt:
                raise TransportError("endpoint dropped the connection")
            return mock.complete(prompt, seed)

        monkeypatch.setattr(harness, "build_backend", lambda *a, **kw: FunctionBackend(drop_summaries))
        configs = [cfg_with("random-pair"), self._tiny_configs()[0]]
        with pytest.raises(TransportError) as info:
            run_suite(configs, small_corpus())
        assert info.value.step == 3
        assert str(info.value) == "variant 'random-pair': endpoint dropped the connection"

    def test_suite_reraises_exceptions_with_richer_constructors(self, monkeypatch):
        def undecodable(prompt, seed):
            return b"\xff".decode("utf-8")

        monkeypatch.setattr(harness, "build_backend", lambda *a, **kw: FunctionBackend(undecodable))
        with pytest.raises(UnicodeDecodeError) as info:
            run_suite(self._tiny_configs(), small_corpus())
        assert info.value.args[0].startswith("variant 'baseline': ")
        assert info.value.object == b"\xff"

    def test_report_line_endings(self, tmp_path):
        run_suite(self._tiny_configs(), small_corpus(), out_dir=tmp_path)
        for name in ("category_table.txt", "component_table.txt"):
            text = (tmp_path / name).read_bytes()
            assert b"\r" not in text and text.endswith(b"\n")
        for name in ("category_table.csv", "component_table.csv"):
            lines = (tmp_path / name).read_bytes().split(b"\n")
            assert lines[-1] == b"" and all(line.endswith(b"\r") for line in lines[:-1])

    def test_rerender_matches_original(self, tmp_path):
        run_suite(self._tiny_configs(), small_corpus(), out_dir=tmp_path / "suite")
        (tmp_path / "copy").mkdir()
        (tmp_path / "copy" / "results.json").write_bytes((tmp_path / "suite" / "results.json").read_bytes())
        rerender_reports(tmp_path / "copy")  # from results.json alone, into a directory without reports
        before = {p.name: p.read_bytes() for p in (tmp_path / "suite").glob("*_table.*")}
        after = {p.name: p.read_bytes() for p in (tmp_path / "copy").glob("*_table.*")}
        assert len(before) == 4 and before == after


def test_default_suite_configs_match_component_matrix():
    configs = default_suite_configs(seed=1)
    components = [(cfg.name, cfg.role_setting, cfg.co_learning, cfg.regressor, cfg.pareto) for cfg in configs]
    assert components == [
        ("baseline", False, False, "none", "none"),
        ("solo", True, False, "none", "none"),
        ("random-pair", True, True, "none", "none"),
        ("gp-global", True, True, "gp", "global"),
        ("gp-local", True, True, "gp", "local"),
        ("nn-global", True, True, "nn", "global"),
        ("nn-local", True, True, "nn", "local"),
    ]


def test_default_suite_configs_share_variant_defaults():
    fields = ("seed", "backend", "mock_base_difficulty", "mock_bonus", "selection_rule", "gain_baseline")
    plain = VariantConfig(name="plain", role_setting=False, co_learning=False)
    for cfg in default_suite_configs():
        assert cfg.train_domains == DEFAULT_TRAIN_DOMAINS
        assert [getattr(cfg, f) for f in fields] == [getattr(plain, f) for f in fields]
    for cfg in default_suite_configs(seed=4, mock_bonus=0.5, train_domains=["formal_logic"]):
        assert (cfg.seed, cfg.mock_bonus, cfg.train_domains) == (4, 0.5, ("formal_logic",))


def test_default_corpus_shape():
    corpus = default_synthetic_corpus()
    assert len(corpus) == 60
    categories = {e.category for e in corpus}
    assert categories == {"STEM", "Social Science", "Humanities"}


# SHA-256 of the first ``lines`` transcript lines run_variant writes for the
# default synthetic corpus and suite configs at seed 42. None of these bytes
# depends on a fitted model, so they hold at any BLAS thread count; for
# gp-global they cover the train phase, which every matched variant shares.
TRANSCRIPT_DIGESTS = {
    "baseline": (270, True, "85d677e5304555686e75664d341c7d0b253738831a6ab6b3dd3bc6ebe5bb2fd5"),
    "solo": (270, True, "9cc72d83ba5ed8862542b569c99a6b2ba3ca6cfc5a947d1185f01cdc13bce098"),
    "random-pair": (1080, True, "39ee5bf08b3733e9443ae33c53dec88c4a4b9e3222715d70db7d390d8fca549c"),
    "gp-global": (9180, False, "87cf1db5d94a339088997f8d4ca68ac891ab4df705c9726a78c92515d70836ad"),
}


@pytest.mark.parametrize("name", list(TRANSCRIPT_DIGESTS))
def test_transcript_bytes_match_recorded_digests(name, tmp_path, fast_fits):
    n_lines, whole, digest = TRANSCRIPT_DIGESTS[name]
    cfg = next(c for c in default_suite_configs(seed=42) if c.name == name)
    res = run_variant(cfg, default_synthetic_corpus(), out_dir=tmp_path)
    lines = (tmp_path / res.artifacts["transcript"]).read_bytes().splitlines(keepends=True)
    if whole:
        assert len(lines) == n_lines
    assert hashlib.sha256(b"".join(lines[:n_lines])).hexdigest() == digest


# any text, and text made only of what JSON must escape or may pass through:
# quotes, backslashes, control characters, U+2028/U+2029 and non-BMP characters
JSON_TEXT = st.text() | st.text(st.sampled_from(['"', "\\", "\x00", "\n", "\r", "\x1f", "\x7f", "\u2028", "\u2029",
                                                 "\U0001f600", "\U00010348", "é", "a"]))


@given(
    step=st.integers(0, 4), actor_id=JSON_TEXT, partner_id=st.none() | JSON_TEXT, exercise_id=JSON_TEXT,
    prompt=st.text(max_size=20), reply=JSON_TEXT,
)
def test_transcript_line_is_json_dumps_of_its_fields(step, actor_id, partner_id, exercise_id, prompt, reply):
    log = harness._TranscriptLog()
    event = CallEvent(step, actor_id, prompt, reply)
    log.sink(partner_id, exercise_id)(event)
    line = {
        "step": step,
        "learner_id": actor_id,
        "partner_id": partner_id,
        "exercise_id": exercise_id,
        "prompt_hash": event.prompt_hash,
        "reply": reply,
    }
    assert log.lines == [json.dumps(line, ensure_ascii=False)[1:]]


@given(run_id=JSON_TEXT, lines=st.lists(JSON_TEXT, max_size=4))
def test_transcript_save_puts_the_run_id_before_every_line(tmp_path_factory, run_id, lines):
    log = harness._TranscriptLog()
    log.lines.extend(lines)
    path = tmp_path_factory.mktemp("transcript") / "log.jsonl"
    log.save(path, run_id)
    head = '{"run_id": ' + json.dumps(run_id, ensure_ascii=False) + ", "
    assert path.read_bytes() == "".join(f"{head}{line}\n" for line in lines).encode("utf-8")


def test_local_fronts_group_records_by_block_not_exercise_id(tmp_path, fast_fits):
    # ids that carry no domain: a local front must take domains from the blocks
    corpus = [replace(e, id=f"item-{i}") for i, e in enumerate(small_corpus())]
    cfg = next(c for c in default_suite_configs(seed=42) if c.name == "gp-local")
    res = run_variant(cfg, corpus, out_dir=tmp_path)
    assert res.lp_fallbacks == 0
    dumps = json.loads((tmp_path / res.artifacts["fronts"]).read_text("utf-8"))
    assert dumps
    for dump in dumps:
        assert dump["mode"] == "local"
        for member in dump["members"]:
            assert sorted(member["scores"]) == sorted(harness.DEFAULT_TRAIN_DOMAINS)


# SHA-256 of what the train phase feeds the regressor and the fronts, for the
# default synthetic corpus at seed 42: the (learner, partner, domain, repr(y))
# rows of the labels build_dataset returns, keyed in its documented row order,
# and the fronts dump without the fields a fitted model decides (mean,
# variance, value, chosen), so both hold at any BLAS thread count.
TRAIN_PHASE_DIGESTS = {
    "gp-global": (
        "9af20f3ec80df778c8ce1fcde4f0b794f796f4a2e4affc010fd7ccd1969c9167",
        "f73232f51b29a48bda93b9263d5c78e324d0b71cae06b75845f384f6a21c8e06",
    ),
    "gp-local": (
        "9af20f3ec80df778c8ce1fcde4f0b794f796f4a2e4affc010fd7ccd1969c9167",
        "7fbe80adccb7947ef066336088eb95077db9de9eb8995d7a5250419c6060cfca",
    ),
}


@pytest.mark.parametrize("name", list(TRAIN_PHASE_DIGESTS))
def test_train_phase_bytes_match_recorded_digests(name, tmp_path, monkeypatch, fast_fits):
    rows = []
    build = harness.build_dataset

    def recording_build(cohort, blocks, *args, **kwargs):
        X, y = build(cohort, blocks, *args, **kwargs)
        ids = sorted(cohort)
        keys = [(l, p, b.domain) for l in ids for p in ids if p != l for b in sorted(blocks, key=lambda b: b.domain)]
        assert len(keys) == len(y)
        rows.extend((*key, repr(gain)) for key, gain in zip(keys, y.tolist()))
        return X, y

    monkeypatch.setattr(harness, "build_dataset", recording_build)
    cfg = next(c for c in default_suite_configs(seed=42) if c.name == name)
    res = run_variant(cfg, default_synthetic_corpus(), out_dir=tmp_path)
    dumps = json.loads((tmp_path / res.artifacts["fronts"]).read_text("utf-8"))
    for dump in dumps:
        del dump["chosen"]
        for member in dump["members"]:
            for key in ("mean", "variance", "value"):
                del member[key]
    assert len(rows) == 216 and len(dumps) == 27
    dataset_digest, fronts_digest = TRAIN_PHASE_DIGESTS[name]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == dataset_digest
    assert hashlib.sha256(json.dumps(dumps, sort_keys=True).encode()).hexdigest() == fronts_digest


class TestSharedWork:
    """A suite computes each call, protocol job, fit and embedding once, and
    every variant still gets what it would get run on its own."""

    def test_each_variant_matches_its_standalone_run(self, tmp_path, fast_fits):
        gp_global = cfg_with("gp-global", regressor="gp", pareto="global")
        configs = [
            cfg_with("baseline", role_setting=False, co_learning=False),
            gp_global,
            replace(gp_global, name="gp-local", pareto="local"),
            replace(gp_global, name="other-seed", seed=4),
            replace(gp_global, name="other-baseline", gain_baseline="partner"),
            replace(gp_global, name="other-bonus", mock_bonus=0.1),
            replace(gp_global, name="other-train",
                    train_domains=("circuit_design", "urban_geography", "formal_logic")),
            replace(gp_global, name="nn-global", regressor="nn"),
        ]
        suite = run_suite(configs, small_corpus(), out_dir=tmp_path / "suite")
        for res in suite.results[1:]:
            alone = run_variant(res.config, small_corpus(), out_dir=tmp_path / "alone")
            assert res.per_learner == alone.per_learner, res.config.name
            assert res.selections == alone.selections, res.config.name
            for key in ("transcript", "model", "fronts"):
                assert res.artifacts[key] == alone.artifacts[key]
                suite_bytes = (tmp_path / "suite" / res.artifacts[key]).read_bytes()
                assert suite_bytes == (tmp_path / "alone" / alone.artifacts[key]).read_bytes(), (res.config.name, key)

    @staticmethod
    def _counted_suite(monkeypatch, out, backend):
        """Backend calls per (prompt, seed) and protocol jobs per job key of the seed-42 suite."""
        calls, jobs = Counter(), Counter()
        complete, solve, exchange = MockBackend.complete, harness.solve_exercise, harness.exchange_and_resolve

        def counted(self, prompt, seed):
            calls[prompt, seed] += 1
            return complete(self, prompt, seed)

        def counted_solve(learner, exercise, backend, **kwargs):
            jobs[learner.id, None, exercise.id, kwargs["use_persona"]] += 1
            return solve(learner, exercise, backend, **kwargs)

        def counted_exchange(learner, partner, exercise, backend, **kwargs):
            jobs[learner.id, partner.id, exercise.id, True] += 1
            return exchange(learner, partner, exercise, backend, **kwargs)

        configs = default_suite_configs(seed=42, backend=backend)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "SUITE_GP_FIT", FAST_GP)
            patch.setattr(MockBackend, "complete", counted)
            patch.setattr(harness, "solve_exercise", counted_solve)
            patch.setattr(harness, "exchange_and_resolve", counted_exchange)
            run_suite(configs, default_synthetic_corpus(), out_dir=out)
        return calls, jobs

    def test_each_distinct_call_reaches_the_backend_once(self, tmp_path, monkeypatch):
        calls, jobs = self._counted_suite(monkeypatch, tmp_path / "mock", "mock")
        assert set(calls.values()) == {1}
        assert set(jobs.values()) == {1}
        # 9 learners: persona solos on all 60 exercises, neutral (baseline) solos on the 30 test ones
        solos = [key for key in jobs if key[1] is None]
        assert len(solos) == 9 * 60 + 9 * 30 == 810
        assert sum(1 for key in solos if key[3]) == 540
        lines = [
            json.loads(line)
            for path in (tmp_path / "mock" / "transcripts").iterdir()
            for line in path.read_text("utf-8").splitlines()
        ]
        assert len(lines) == 42660
        # the backend saw exactly the prompts the transcripts log
        assert {hashlib.sha256(prompt.encode()).hexdigest() for prompt, _ in calls} == {
            line["prompt_hash"] for line in lines
        }

        cached, cached_jobs = self._counted_suite(monkeypatch, tmp_path / "cache", "cache")
        assert cached == calls
        assert cached_jobs == jobs
        assert sum(1 for p in (tmp_path / "cache" / "cache").rglob("*") if p.is_file()) == len(calls)


def test_interrupted_cache_suite_resumes_exactly(tmp_path, monkeypatch, fast_fits):
    """A cache suite stopped by a failed call, rerun with the same out dir,
    pays only for the calls it had not made and writes the same bytes as an
    uninterrupted run."""
    configs = default_suite_configs(seed=7, backend="cache")
    paid, fail_after, variant_starts = [0], [None], {}
    complete, run_one = MockBackend.complete, harness.run_variant

    def paid_call(self, prompt, seed):
        if paid[0] == fail_after[0]:
            raise TransportError("endpoint went away")
        paid[0] += 1
        return complete(self, prompt, seed)

    def marked_variant(cfg, *args, **kwargs):
        variant_starts[cfg.name] = paid[0]
        return run_one(cfg, *args, **kwargs)

    def suite(out):
        paid[0] = 0
        run_suite(configs, small_corpus(per_domain=2), out_dir=out)
        return paid[0]

    monkeypatch.setattr(MockBackend, "complete", paid_call)
    monkeypatch.setattr(harness, "run_variant", marked_variant)
    total = suite(tmp_path / "whole")
    # stop halfway through nn-global: gp-global's files and nn-global's model are written by then
    start, end = variant_starts["nn-global"], variant_starts["nn-local"]
    assert end - start >= 2
    n = fail_after[0] = (start + end) // 2
    with pytest.raises(TransportError, match="nn-global"):
        suite(tmp_path / "resumed")
    assert paid[0] == n
    fail_after[0] = None
    assert suite(tmp_path / "resumed") == total - n
    whole, resumed = tmp_path / "whole", tmp_path / "resumed"
    assert {p.relative_to(whole): p.read_bytes() for p in sorted(whole.rglob("*")) if p.is_file()} == {
        p.relative_to(resumed): p.read_bytes() for p in sorted(resumed.rglob("*")) if p.is_file()
    }


def _fast_gp_suite(out_dir):
    """The seed-42 default suite with the quick GP fit and the default NN fit, written to ``out_dir``."""
    with mock.patch.object(harness, "SUITE_GP_FIT", FAST_GP):
        return run_suite(default_suite_configs(seed=42), default_synthetic_corpus(), out_dir=out_dir)


# The partner each matched variant chose for every (learner, test domain) of
# the seed-42 FAST_GP suite, in sorted (learner, domain) order, and the
# SHA-256 of that suite's results.json. A change to the fit arithmetic that
# flips a choice, or moves any reported byte, fails here.
FAST_GP_CHOICES = {
    "gp-global": "L7 L7 L7 L7 L7 L7 L7 L7 L7 L2 L2 L2 L1 L1 L1 L6 L6 L6 L1 L1 L1 L1 L1 L1 L1 L1 L1",
    "gp-local": "L7 L7 L7 L7 L7 L7 L7 L7 L7 L2 L2 L2 L1 L1 L1 L6 L6 L6 L1 L1 L1 L1 L1 L1 L1 L1 L1",
    "nn-global": "L7 L7 L8 L7 L7 L7 L6 L6 L6 L2 L2 L2 L1 L1 L1 L6 L6 L6 L2 L2 L2 L1 L0 L1 L0 L0 L0",
    "nn-local": "L7 L7 L8 L7 L7 L7 L6 L6 L6 L2 L2 L2 L1 L1 L1 L6 L6 L6 L2 L2 L2 L1 L0 L1 L0 L0 L0",
}
FAST_GP_RESULTS_SHA256 = "48116abe8dfd618c37a79d0b27ca21706761291f095d4d2dd6bd971dfe7fa480"


def test_fast_gp_suite_choices_and_results_are_pinned(tmp_path):
    _fast_gp_suite(tmp_path)
    raw = (tmp_path / "results.json").read_bytes()
    choices = {}
    for variant in json.loads(raw)["variants"]:
        partners = {}
        for s in variant["selections"]:
            partners.setdefault((s["learner_id"], s["domain"]), set()).add(s["partner_id"])
        if partners:
            assert all(len(p) == 1 for p in partners.values()), variant["config"]["name"]
            choices[variant["config"]["name"]] = " ".join(partners[k].pop() for k in sorted(partners))
    assert choices == FAST_GP_CHOICES
    assert hashlib.sha256(raw).hexdigest() == FAST_GP_RESULTS_SHA256


def test_suite_bytes_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(harness.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    trees = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-c", f"import test_harness; test_harness._fast_gp_suite({str(out)!r})"],
            env=env, check=True, timeout=600,
        )
        trees[threads] = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert trees["1"].keys() == trees["2"].keys()
    differing = sorted(str(path) for path in trees["1"] if trees["1"][path] != trees["2"][path])
    assert differing == []
