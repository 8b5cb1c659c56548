import json

import pytest

from peermatch.backends import MockBackend
from peermatch.cli import main
from peermatch.corpus import fixture_corpus_path


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


def _no_backend_call(backend, prompt, params):
    raise AssertionError("a config error must stop the run before any backend call")


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
    ],
)
def test_simulate_rejects_mistyped_values(tmp_path, capsys, monkeypatch, top, variant, message):
    monkeypatch.setattr(MockBackend, "complete", _no_backend_call)
    cfg = _variant_config(tmp_path, variant, **top)
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


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
    cfg = _suite_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["suite", "--config", str(cfg), "--seed", "77", "--out", str(out1)]) == 0
    assert main(["suite", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "results.json").read_bytes() != (out2 / "results.json").read_bytes()
    results = json.loads((out1 / "results.json").read_text("utf-8"))
    assert results["variants"][0]["config"]["seed"] == 77


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
