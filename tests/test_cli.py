import copy
import json
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from peermatch import cli, protocol
from peermatch.backends import MockBackend
from peermatch.cli import main
from peermatch.corpus import fixture_corpus_path, load_corpus, save_corpus
from peermatch.harness import ConfigError, VariantConfig


def test_ingest_fixture(tmp_path, capsys):
    rc = main(["ingest", str(fixture_corpus_path()), "--out", str(tmp_path)])
    assert rc == 0
    assert "112 exercises" in capsys.readouterr().out
    summary = json.loads((tmp_path / "summary.json").read_text("utf-8"))
    assert summary["domains"]["logical"] == 26
    assert summary["categories"] == {"STEM": 40, "Social Science": 35, "Humanities": 37}
    assert (tmp_path / "corpus.csv").exists()


def test_ingest_bad_path(tmp_path, capsys):
    rc = main(["ingest", str(tmp_path / "missing"), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_profile_synthetic(tmp_path, capsys):
    rc = main(["profile", "synthetic", "--repeats", "3", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "difficulty.csv").read_text("utf-8").strip().splitlines()
    assert lines[0] == "exercise_id,mean_accuracy,n_repeats"
    assert len(lines) == 61
    assert all(line.endswith(",3") for line in lines[1:])
    assert "fall below" in capsys.readouterr().out


@pytest.mark.parametrize("items", [1, 112])
def test_profile_builds_each_solo_prompt_once(tmp_path, capsys, monkeypatch, items):
    corpus = tmp_path / "corpus.csv"
    save_corpus(load_corpus(fixture_corpus_path())[:items], corpus)
    built, solo_prompt = [], protocol.solo_prompt

    def counted(prompts, system_text, exercise):
        built.append(exercise.id)
        return solo_prompt(prompts, system_text, exercise)

    monkeypatch.setattr(protocol, "solo_prompt", counted)
    protocol._SOLO_PROMPTS.clear()
    assert main(["profile", str(corpus), "--repeats", "5", "--seed", "1", "--out", str(tmp_path / "out")]) == 0
    assert built == [e.id for e in load_corpus(corpus)]
    assert len(built) == items
    # bounded: 112 items leave at most the memo's maximum of entries
    assert len(protocol._SOLO_PROMPTS) == min(items, protocol._SOLO_PROMPTS_MAX)


def test_profile_answers_each_exercise_at_every_repeat_seed_in_turn(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus.csv"
    save_corpus(load_corpus(fixture_corpus_path())[:4], corpus)
    calls, solve_exercise = [], cli.solve_exercise

    def recorded(learner, exercise, backend, *, seed, use_persona):
        calls.append((exercise.id, seed))
        return solve_exercise(learner, exercise, backend, seed=seed, use_persona=use_persona)

    monkeypatch.setattr(cli, "solve_exercise", recorded)
    assert main(["profile", str(corpus), "--repeats", "6", "--seed", "1", "--out", str(tmp_path / "out")]) == 0
    assert calls == [(e.id, seed) for e in load_corpus(corpus) for seed in range(6)]


def _variant_config(tmp_path, variant=(), **extra):
    payload = {
        "corpus": "synthetic",
        "seed": 5,
        "variant": {
            "name": "solo",
            "role_setting": True,
            "co_learning": False,
            **dict(variant),
        },
    }
    payload.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), "utf-8")
    return path


def test_simulate_variant(tmp_path, capsys):
    cfg = _variant_config(tmp_path)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "solo Total: mean=" in out
    assert (tmp_path / "out" / "transcripts" / "solo.jsonl").exists()


def test_simulate_cache_backend_keeps_its_cache_under_out(tmp_path, capsys):
    cfg = _variant_config(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--backend", "mock", "--out", str(tmp_path / "mock")]) == 0
    mock_out = capsys.readouterr().out
    out = tmp_path / "cached"
    assert main(["simulate", "--config", str(cfg), "--backend", "cache", "--out", str(out)]) == 0
    assert capsys.readouterr().out == mock_out
    entries = [p for p in (out / "cache").rglob("*") if p.is_file()]
    calls = (out / "transcripts" / "solo.jsonl").read_text("utf-8").splitlines()
    assert len(entries) == len(calls) == 9 * 60  # every learner answers every exercise alone, once
    assert sorted(p.name for p in out.iterdir()) == ["cache", "transcripts"]


def test_simulate_unknown_key_rejected(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"corpus": "synthetic", "variant": {"name": "x", "role_setting": True, "co_learning": False, "surprise": 1}}), "utf-8")
    rc = main(["simulate", "--config", str(path)])
    assert rc == 2
    assert "surprise" in capsys.readouterr().err


def test_simulate_rejects_bare_string_train_domains(tmp_path, capsys):
    cfg = _variant_config(tmp_path, train_domains="number_theory")
    rc = main(["simulate", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "train_domains must be a list of domain names, got the string 'number_theory'" in err


def _no_backend_call(backend, prompt, seed):
    raise AssertionError("an error in the command's input must stop the run before any backend call")


@pytest.mark.parametrize(
    "top, variant, message",
    [
        ({}, {"role_setting": "false"}, "role_setting must be bool, got 'false'"),
        ({}, {"co_learning": 0}, "co_learning must be bool, got 0"),
        ({}, {"seed": "abc"}, "seed must be int, got 'abc'"),
        ({}, {"seed": True}, "seed must be int, got True"),
        ({"seed": "5"}, {}, "seed must be int, got '5'"),
        ({}, {"mock_bonus": "0.3"}, "mock_bonus must be float, got '0.3'"),
        ({}, {"mock_base_difficulty": False}, "mock_base_difficulty must be float, got False"),
        ({"mock": {"bonus": "0.3"}}, {}, "mock_bonus must be float, got '0.3'"),
        ({}, {"name": 7}, "name must be str, got 7"),
        ({}, {"train_domains": ["number_theory", 3]}, "train_domains must be domain names, got ['number_theory', 3]"),
        ({}, {"train_domains": 3}, "train_domains must be a list of domain names, got 3"),
        ({}, {"gain_baseline": "mean"}, "unknown gain baseline 'mean'"),
        # json.load reads NaN and Infinity; a NaN bonus scored every answer wrong, an infinite one every complementary answer right
        ({"mock": {"bonus": float("nan")}}, {}, "mock_bonus must be a finite float, got nan"),
        ({}, {"mock_base_difficulty": float("inf")}, "mock_base_difficulty must be a finite float, got inf"),
        ({"mock": {"base_difficulty": -(10**400)}}, {}, "mock_base_difficulty must be a finite float, got -1000"),
        ({"live": {"base_url": "http://127.0.0.1:9", "model": "m", "timeout_s": float("-inf")}}, {},
         "live: timeout_s must be a finite float, got -inf"),
        # the fit's random generator takes no negative seed, and the fit runs only after the train phase's calls
        ({"corpus": "fixture"}, {"co_learning": True, "regressor": "gp", "pareto": "global", "seed": -1,
                                 "train_domains": ["logical"]}, "solo: seed must be non-negative, got -1"),
        # urllib takes a negative timeout as out of range and 0 as non-blocking: both failed only at the first call
        ({"live": {"base_url": "http://127.0.0.1:9", "model": "m", "timeout_s": 0}}, {},
         "live: timeout_s must be a positive number, got 0"),
    ],
)
def test_simulate_rejects_mistyped_values(tmp_path, capsys, monkeypatch, top, variant, message):
    monkeypatch.setattr(MockBackend, "complete", _no_backend_call)
    cfg = _variant_config(tmp_path, variant, **top)
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "key, what",
    [
        ("regressor", "regressor"),
        ("pareto", "pareto mode"),
        ("backend", "backend"),
        ("selection_rule", "selection rule"),
        ("gain_baseline", "gain baseline"),
    ],
)
def test_a_value_outside_its_allowed_set_is_named(tmp_path, capsys, monkeypatch, key, what):
    message = f"solo: unknown {what} 'x'"
    with pytest.raises(ConfigError) as info:
        VariantConfig(**_SOLO, **{key: "x"})
    assert str(info.value) == message
    monkeypatch.setattr(MockBackend, "complete", _no_backend_call)
    assert main(["simulate", "--config", str(_variant_config(tmp_path, {key: "x"}))]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "name", ["../../escaped", "a\u0000b", "x" * 201, "\ud800"], ids=["parent-dir", "nul", "201-bytes", "lone-surrogate"],
)
def test_simulate_rejects_a_name_that_cannot_name_its_files(tmp_path, capsys, monkeypatch, name):
    # the name is the stem of files under --out: it must not leave --out, nor fail only once every call is made
    monkeypatch.setattr(MockBackend, "complete", _no_backend_call)
    cfg = _variant_config(tmp_path, {"name": name})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out" / "run")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert [p.name for p in tmp_path.rglob("*")] == ["config.json"]


def test_simulate_corpus_path_the_os_rejects_exits_2(tmp_path, capsys, monkeypatch):
    # a path component longer than file systems allow raises an OSError that is no FileNotFoundError
    monkeypatch.setattr(MockBackend, "complete", _no_backend_call)
    cfg = _variant_config(tmp_path, corpus="x" * 300)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["simulate", "simulate-cache", "suite", "profile"])
def test_unusable_out_fails_before_any_backend_call(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(MockBackend, "complete", _no_backend_call)
    (tmp_path / "file").write_text("", "utf-8")
    args = {
        "simulate": ["simulate", "--config", str(_variant_config(tmp_path))],
        "simulate-cache": ["simulate", "--config", str(_variant_config(tmp_path)), "--backend", "cache"],
        "suite": ["suite", "--config", str(_suite_config(tmp_path))],
        "profile": ["profile", "fixture", "--repeats", "1"],
    }[command]
    assert main([*args, "--out", str(tmp_path / "file" / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Not a directory" in err


_LIVE = {"base_url": "http://127.0.0.1:9", "model": "m"}
_SOLO = {"name": "solo", "role_setting": True, "co_learning": False}


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("suite", '{"variants": [5]}', "variants[0] must be an object"),
        ("suite", '{"variants": "abc"}', "variants must be a list of objects"),
        ("suite", '{"variants": null}', "variants must be a list of objects"),
        ("suite", '{"variants": {"a": 1}}', "variants must be a list of objects"),
        ("suite", '{"mock": 5}', "mock must be an object"),
        ("suite", '{"live": 5}', "live must be an object"),
        ("suite", '{"corpus": 5}', "corpus must be a string"),
        ("suite", '{"corpus": ["x"]}', "corpus must be a string"),
        ("suite", json.dumps({"live": {**_LIVE, "base_url": 5}}), "live: base_url must be str"),
        ("suite", json.dumps({"live": {**_LIVE, "timeout_s": "x"}}), "live: timeout_s must be float"),
        ("suite", json.dumps({"live": {**_LIVE, "token_env": None}}), "live: token_env must be str"),
        ("simulate", json.dumps({"live": {**_LIVE, "timeout_s": -1}, "variant": {**_SOLO, "backend": "live"}}),
         "live: timeout_s must be a positive number, got -1"),
        # fit settings are library constants, not config keys
        ("simulate", json.dumps({"variant": {**_SOLO, "gp_fit": {"restarts": 0}}}), "variant: unknown key(s) ['gp_fit']"),
        ("suite", json.dumps({"variants": [{**_SOLO, "nn_fit": {}}]}), "variants[0]: unknown key(s) ['nn_fit']"),
        ("suite", "[1, 2]", "the top level must be an object"),
        ("suite", "null", "the top level must be an object"),
        ("suite", '{"variant": {}}', "the top level: unknown key(s) ['variant']"),
        ("simulate", '{"variant": []}', "variant must be an object"),
        ("simulate", '{"mock": null, "variant": {}}', "mock must be an object"),
        ("simulate", '{"variants": []}', "the top level: unknown key(s) ['variants']"),
        ("simulate", "{}", "the top level: missing key(s) ['variant']"),
        ("simulate", "{nope", "Expecting property name"),
        ("simulate", None, "Is a directory"),
    ],
)
def test_malformed_config_names_file_and_key_before_any_backend_call(tmp_path, capsys, monkeypatch, command, text, key):
    monkeypatch.setattr(MockBackend, "complete", _no_backend_call)
    path = tmp_path / "config.json"
    if text is None:  # a directory where the file should be
        path.mkdir()
    else:
        path.write_text(text, "utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and key in err
    assert not (tmp_path / "out").exists()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=8,
)
_SIMULATE_CONFIG = {
    "corpus": "fixture",
    "seed": 3,
    "backend": "mock",
    "train_domains": [],
    "mock": {"base_difficulty": 0.4, "bonus": 0.3},
    "variant": {"name": "baseline", "role_setting": False, "co_learning": False},
}
_CONFIG_PATHS = [(key,) for key in _SIMULATE_CONFIG] + [
    (section, key) for section in ("mock", "variant") for key in _SIMULATE_CONFIG[section]
]
_complete = MockBackend.complete


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(where=st.sampled_from(_CONFIG_PATHS), value=_JSON_VALUES)
def test_simulate_config_with_any_value_in_one_key_exits_0_or_2(tmp_path, monkeypatch, where, value):
    # a relative corpus path resolves in a directory that holds no corpus
    monkeypatch.chdir(tmp_path)
    config = copy.deepcopy(_SIMULATE_CONFIG)
    *sections, key = where
    target = config[sections[0]] if sections else config
    target[key] = value
    calls = []

    def complete(backend, prompt, seed):
        calls.append(prompt)
        return _complete(backend, prompt, seed)

    with tempfile.TemporaryDirectory(dir=tmp_path) as run, mock.patch.object(MockBackend, "complete", complete):
        path = f"{run}/config.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(config, f)
        rc = main(["simulate", "--config", path, "--out", f"{run}/out"])
    assert rc in (0, 2)
    assert rc == 0 or not calls


def test_suite_config_unknown_top_level_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"corpus": "synthetic", "extra": True}), "utf-8")
    rc = main(["suite", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "extra" in capsys.readouterr().err


def _suite_config(tmp_path, variants=None):
    payload = {
        "corpus": "synthetic",
        "seed": 4,
        "train_domains": ["number_theory", "market_research", "modern_poetry"],
        "variants": variants or [
            {"name": "baseline", "role_setting": False, "co_learning": False},
            {"name": "solo", "role_setting": True, "co_learning": False},
            {"name": "random-pair", "role_setting": True, "co_learning": True},
        ],
    }
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(payload), "utf-8")
    return path


def test_suite_and_report_round_trip(tmp_path, capsys):
    cfg = _suite_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["suite", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["suite", "--config", str(cfg), "--out", str(out2)]) == 0
    report_names = ["category_table.csv", "category_table.txt", "component_table.csv", "component_table.txt", "results.json"]
    for name in report_names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    stdout = capsys.readouterr().out
    assert "baseline" in stdout and "random-pair" in stdout

    before = {n: (out1 / n).read_bytes() for n in report_names}
    assert main(["report", "--out", str(out1)]) == 0
    for name in ("category_table.csv", "component_table.csv"):
        assert (out1 / name).read_bytes() == before[name]


_ONE_VARIANT_RESULTS = {
    "baseline": "b",
    "variants": [{
        "config": {"name": "b", "role_setting": False, "co_learning": False, "regressor": "none", "pareto": "none"},
        "per_learner": {"L0": {"STEM": 0.5, "Social Science": 0.5, "Humanities": 0.5, "Total": 0.5}},
    }],
}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({}, "KeyError: 'variants'"),
        ([1], "TypeError: list indices"),
        ({**_ONE_VARIANT_RESULTS, "baseline": "x"}, "baseline variant 'x' not in table"),
        ({**_ONE_VARIANT_RESULTS, "variants": [{**_ONE_VARIANT_RESULTS["variants"][0], "config": {"name": "b"}}]},
         "KeyError: 'role_setting'"),
        ({**_ONE_VARIANT_RESULTS, "variants": [{**_ONE_VARIANT_RESULTS["variants"][0], "per_learner": {"L0": {}}}]},
         "KeyError: 'Total'"),
        ({**_ONE_VARIANT_RESULTS, "variants": _ONE_VARIANT_RESULTS["variants"] * 2}, "a variant name repeats"),
        (None, "JSONDecodeError"),
    ],
    ids=["empty", "list", "unknown-baseline", "config-without-role_setting", "no-total", "repeated-name", "not-json"],
)
def test_report_on_malformed_results_exits_2_and_writes_nothing(tmp_path, capsys, payload, message):
    path = tmp_path / "results.json"
    path.write_text("{nope" if payload is None else json.dumps(payload), "utf-8")
    assert main(["report", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err
    assert [p.name for p in tmp_path.iterdir()] == ["results.json"]


@pytest.mark.parametrize("accuracy", [float("nan"), float("inf")])
def test_report_on_non_finite_accuracy_exits_2_and_writes_nothing(tmp_path, capsys, accuracy):
    payload = json.loads(json.dumps(_ONE_VARIANT_RESULTS))
    payload["variants"][0]["per_learner"]["L0"]["STEM"] = accuracy
    path = tmp_path / "results.json"
    path.write_text(json.dumps(payload), "utf-8")
    assert main(["report", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: MetricsError: STEM: accuracies must be finite numbers")
    assert [p.name for p in tmp_path.iterdir()] == ["results.json"]


@pytest.mark.parametrize(
    "last, message",
    [
        # a second "x" would overwrite the first one's transcript and report rows
        ({"name": "x", "role_setting": True, "co_learning": True}, "variant name(s) ['x'] repeated"),
        ({"name": "late", "role_setting": True, "co_learning": True, "regressor": "gp"}, "late: a regressor requires"),
    ],
)
def test_suite_config_errors_stop_the_run_before_any_backend_call(tmp_path, capsys, monkeypatch, last, message):
    monkeypatch.setattr(MockBackend, "complete", _no_backend_call)
    cfg = _suite_config(tmp_path, [
        {"name": "baseline", "role_setting": False, "co_learning": False},
        {"name": "x", "role_setting": True, "co_learning": False},
        last,
    ])
    assert main(["suite", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


def test_suite_seed_flag_overrides_config(tmp_path):
    # flags override a variant's own keys, which override the top-level ones (seed 4, backend mock)
    cfg = _suite_config(tmp_path, [
        {"name": "baseline", "role_setting": False, "co_learning": False, "seed": 5},
        {"name": "solo", "role_setting": True, "co_learning": False},
        {"name": "random-pair", "role_setting": True, "co_learning": True, "seed": 5, "backend": "cache"},
    ])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["suite", "--config", str(cfg), "--seed", "77", "--backend", "mock", "--out", str(out1)]) == 0
    assert main(["suite", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "results.json").read_bytes() != (out2 / "results.json").read_bytes()
    echoed = {}
    for out in (out1, out2):
        variants = json.loads((out / "results.json").read_text("utf-8"))["variants"]
        echoed[out.name] = [(v["config"]["seed"], v["config"]["backend"]) for v in variants]
    assert echoed["a"] == [(77, "mock")] * 3
    assert echoed["b"] == [(5, "mock"), (4, "mock"), (5, "cache")]


def test_suite_defaults_without_config(tmp_path):
    # default 7-variant suite; keep it small by seeding and trusting runtime
    rc = main(["suite", "--seed", "2", "--backend", "mock", "--out", str(tmp_path / "out")])
    assert rc == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text("utf-8"))
    assert [v["config"]["name"] for v in results["variants"]] == [
        "baseline", "solo", "random-pair", "gp-global", "gp-local", "nn-global", "nn-local",
    ]


def test_missing_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_profile_rejects_live_backend(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "synthetic", "--backend", "live", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-3", "--backend", "cache"], "profile: seed must be non-negative, got -3"),
        (["--threshold", "nan"], "profile: threshold must be a finite number, got nan"),
        (["--threshold", "inf"], "profile: threshold must be a finite number, got inf"),
        (["--repeats", "0"], "profile: repeats must be >= 1, got 0"),
        (["--repeats", "-4", "--backend", "cache"], "profile: repeats must be >= 1, got -4"),
    ],
)
def test_profile_rejects_a_bad_setting_before_writing(tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.setattr(MockBackend, "complete", _no_backend_call)
    out = tmp_path / "out"
    assert main(["profile", "fixture", "--repeats", "2", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_live_section_missing_required_key(tmp_path, capsys):
    cfg = _variant_config(tmp_path, live={"model": "m"})
    rc = main(["simulate", "--config", str(cfg), "--backend", "live"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "base_url" in err


def test_live_transport_error_reported_without_traceback(tmp_path, capsys, monkeypatch):
    # The token check fails before any connection is attempted.
    monkeypatch.delenv("PEERMATCH_API_TOKEN", raising=False)
    cfg = _variant_config(tmp_path, live={"base_url": "http://127.0.0.1:9", "model": "m"})
    rc = main(["simulate", "--config", str(cfg), "--backend", "live"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "PEERMATCH_API_TOKEN" in err
