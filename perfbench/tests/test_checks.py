"""Each benchmark check passes on real outputs and rejects a deliberately corrupted copy.

    python3 -m pytest perfbench/tests -q

Run from the repository root. The module runs the suite once with the mock
backend, once with the cache backend and one short difficulty profile.
"""

from __future__ import annotations

import json
import shutil
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import run  # noqa: E402  (pins the BLAS thread variables before numpy loads)
import checks  # noqa: E402
from child import count_paid_calls  # noqa: E402
from tracer import TraceError, Tracer  # noqa: E402

SEED = 5
REPEATS = 100
FIXTURE = SRC / "peermatch" / "data" / "cmmlu_fixture"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    from peermatch import cli
    from peermatch.backends import MockBackend

    root = tmp_path_factory.mktemp("outputs")
    assert cli.main(["suite", "--seed", str(SEED), "--backend", "mock", "--out", str(root / "mock")]) == 0
    complete = MockBackend.complete
    paid = count_paid_calls()
    try:
        assert cli.main(["suite", "--seed", str(SEED), "--backend", "cache", "--out", str(root / "cache")]) == 0
    finally:
        MockBackend.complete = complete
    assert cli.main(["profile", "fixture", "--repeats", str(REPEATS), "--seed", str(SEED),
                     "--out", str(root / "profile")]) == 0
    inputs, gp_init = run.suite_inputs(SRC)
    return {"root": root, "paid": paid[0], "inputs": inputs, "gp_init": gp_init}


@pytest.fixture
def copy(outputs, tmp_path):
    def make(name: str) -> Path:
        dest = tmp_path / name
        shutil.copytree(outputs["root"] / name, dest)
        return dest

    return make


def check_suite(outputs, out: Path) -> int:
    return checks.check_suite(out, outputs["inputs"], outputs["gp_init"])


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text("utf-8"))
    change(data)
    path.write_text(json.dumps(data, indent=1, sort_keys=True), "utf-8")


def edit_lines(path: Path, change) -> None:
    lines = path.read_text("utf-8").splitlines(keepends=True)
    path.write_text("".join(change(lines)), "utf-8")


def test_real_outputs_pass(outputs):
    root = outputs["root"]
    assert check_suite(outputs, root / "mock") == 12690
    checks.check_cache_against_mock(root / "cache", root / "mock", outputs["paid"])
    assert checks.check_profile(root / "profile", FIXTURE, REPEATS) == 112 * REPEATS


def test_missing_transcript_line_is_rejected(outputs, copy):
    out = copy("mock")
    edit_lines(out / "transcripts" / "gp-local.jsonl", lambda lines: lines[:-1])
    with pytest.raises(checks.CheckFailed, match="transcript lines"):
        check_suite(outputs, out)


def test_flipped_final_answer_is_rejected(outputs, copy):
    out = copy("mock")

    def flip(lines):
        first = json.loads(lines[0])
        label = checks.final_answer(first["reply"])
        first["reply"] = first["reply"].replace(f"Answer: {label}", f"Answer: {'A' if label != 'A' else 'B'}")
        return [json.dumps(first, ensure_ascii=False) + "\n", *lines[1:]]

    edit_lines(out / "transcripts" / "solo.jsonl", flip)
    with pytest.raises(checks.CheckFailed, match="accuracies differ"):
        check_suite(outputs, out)


def test_wrong_reported_accuracy_is_rejected(outputs, copy):
    out = copy("mock")

    def bump(data):
        scores = data["variants"][2]["per_learner"]["L0"]
        scores["STEM"] = round(scores["STEM"] + 0.1, 10) if scores["STEM"] < 0.9 else 0.0

    edit_json(out / "results.json", bump)
    with pytest.raises(checks.CheckFailed, match="accuracies differ"):
        check_suite(outputs, out)


def test_dominated_front_member_is_rejected(outputs, copy):
    out = copy("mock")

    def dominate(dumps):
        dump = next(d for d in dumps if len(d["members"]) >= 2)
        dump["members"][0]["scores"] = {k: 1.0 for k in dump["members"][0]["scores"]}
        for member in dump["members"][1:]:
            member["scores"] = {k: 0.0 for k in member["scores"]}

    edit_json(out / "fronts" / "gp-global.json", dominate)
    with pytest.raises(checks.CheckFailed, match="dominates"):
        check_suite(outputs, out)


def test_wrong_chosen_partner_is_rejected(outputs, copy):
    out = copy("mock")

    def rechoose(dumps):
        dump = next(d for d in dumps if len(d["members"]) >= 2)
        others = [m["learner_id"] for m in dump["members"] if m["learner_id"] != dump["chosen"]]
        dump["chosen"] = others[0]

    edit_json(out / "fronts" / "nn-local.json", rechoose)
    with pytest.raises(checks.CheckFailed, match="highest value"):
        check_suite(outputs, out)


def test_gp_snapshot_worse_than_init_is_rejected(outputs, copy):
    out = copy("mock")

    def degrade(snap):
        snap["log_params"] = [repr(0.0), repr(0.0), repr(2.3)]  # noise variance 10 against an init of 0.1

    edit_json(out / "models" / "gp-local.json", degrade)
    with pytest.raises(checks.CheckFailed, match="below MLL at init"):
        check_suite(outputs, out)


def test_cache_run_with_changed_transcript_is_rejected(outputs, copy):
    out = copy("cache")
    edit_lines(out / "transcripts" / "random-pair.jsonl", lambda lines: lines[::-1])
    with pytest.raises(checks.CheckFailed, match="differs from the mock run"):
        checks.check_cache_against_mock(out, outputs["root"] / "mock", outputs["paid"])


def test_cache_run_with_changed_results_is_rejected(outputs, copy):
    out = copy("cache")
    edit_json(out / "results.json", lambda data: data["variants"][0].update(lp_fallbacks=1))
    with pytest.raises(checks.CheckFailed, match="beyond the echoed backend"):
        checks.check_cache_against_mock(out, outputs["root"] / "mock", outputs["paid"])


def test_cache_entry_count_must_equal_paid_calls(outputs, copy):
    out = copy("cache")
    next(p for p in (out / "cache").rglob("*") if p.is_file()).unlink()
    with pytest.raises(checks.CheckFailed, match="cache entries"):
        checks.check_cache_against_mock(out, outputs["root"] / "mock", outputs["paid"])


def test_profile_missing_row_is_rejected(outputs, copy):
    out = copy("profile")
    edit_lines(out / "difficulty.csv", lambda lines: lines[:-1])
    with pytest.raises(checks.CheckFailed, match="one to one"):
        checks.check_profile(out, FIXTURE, REPEATS)


def test_profile_wrong_repeat_count_is_rejected(outputs, copy):
    out = copy("profile")
    edit_lines(out / "difficulty.csv", lambda lines: [lines[0], lines[1].replace(f",{REPEATS}", ",99"), *lines[2:]])
    with pytest.raises(checks.CheckFailed, match="n_repeats"):
        checks.check_profile(out, FIXTURE, REPEATS)


def test_profile_mean_off_base_difficulty_is_rejected(outputs, copy):
    out = copy("profile")

    def skew(lines):
        ex_id, _, n = lines[1].strip().split(",")
        return [lines[0], f"{ex_id},0.950000,{n}\n", *lines[2:]]

    edit_lines(out / "difficulty.csv", skew)
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_profile(out, FIXTURE, REPEATS)


def test_tracer_rejects_a_missing_entry_point():
    with pytest.raises(TraceError, match="does not exist"):
        Tracer()._install("peermatch.cli", None, "no_such_function", lambda fn, site: fn, {"suite-mock"})


def test_tracer_rejects_an_entry_point_never_entered(monkeypatch):
    layer = types.ModuleType("fake_layer")
    layer.work = lambda: None
    monkeypatch.setitem(sys.modules, "fake_layer", layer)
    tracer = Tracer()
    tracer._install("fake_layer", None, "work", lambda fn, site: tracer._timed("fake", fn, site), {"profile-mock"})
    tracer.check_entered("suite-mock")
    with pytest.raises(TraceError, match="never entered"):
        tracer.check_entered("profile-mock")
    layer.work()
    tracer.check_entered("profile-mock")
