import dataclasses
import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from peermatch.backends import mock_correct_label
from peermatch.corpus import (
    CorpusError,
    DifficultyProfile,
    Exercise,
    category_for_domain,
    difficulty_profile,
    domain_category_map,
    fixture_corpus_path,
    group_by_domain,
    load_corpus,
    make_synthetic_corpus,
    save_corpus,
    strip_options,
)
from peermatch.protocol import ResponseRecord


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_per_domain_file_ids_and_order(tmp_path):
    _write(
        tmp_path / "logic.csv",
        "id,question,A,B,C,D,answer\n"
        "0,first stem,a1,b1,c1,d1,A\n"
        "1,second stem,a2,b2,c2,d2,B\n"
        "2,third stem,a3,b3,c3,d3,D\n",
    )
    exercises = load_corpus(tmp_path / "logic.csv")
    assert [e.id for e in exercises] == ["logic/0", "logic/1", "logic/2"]
    assert [e.stem for e in exercises] == ["first stem", "second stem", "third stem"]
    assert exercises[0].options == ("a1", "b1", "c1", "d1")


def test_bad_key_reports_row(tmp_path):
    _write(tmp_path / "logic.csv", "id,question,A,B,C,D,answer\n0,stem,a,b,c,d,E\n")
    with pytest.raises(CorpusError, match="row 0"):
        load_corpus(tmp_path / "logic.csv")


def test_empty_stem_reports_row(tmp_path):
    _write(tmp_path / "logic.csv", "id,question,A,B,C,D,answer\n0,stem,a,b,c,d,A\n1,,a,b,c,d,A\n")
    with pytest.raises(CorpusError, match="row 1"):
        load_corpus(tmp_path / "logic.csv")


def test_missing_column_is_an_error(tmp_path):
    _write(tmp_path / "logic.csv", "id,question,A,B,C,answer\n0,stem,a,b,c,A\n")
    with pytest.raises(CorpusError, match="missing column"):
        load_corpus(tmp_path / "logic.csv")


def test_consolidated_file_uses_domain_column(tmp_path):
    _write(
        tmp_path / "all.csv",
        "id,question,A,B,C,D,answer,domain\n"
        "0,s1,a,b,c,d,A,arts\n"
        "0,s2,a,b,c,d,B,logical\n"
        "1,s3,a,b,c,d,C,arts\n",
    )
    exercises = load_corpus(tmp_path / "all.csv")
    assert [e.id for e in exercises] == ["arts/0", "logical/0", "arts/1"]
    assert exercises[0].category == "Humanities"


def test_unknown_domain_maps_to_other_with_warning(tmp_path, caplog):
    _write(tmp_path / "underwater_basketry.csv", "id,question,A,B,C,D,answer\n0,stem,a,b,c,d,A\n")
    with caplog.at_level(logging.WARNING):
        exercises = load_corpus(tmp_path / "underwater_basketry.csv")
    assert exercises[0].category == "other"
    assert any("underwater_basketry" in rec.message for rec in caplog.records)


def test_category_map_covers_all_67_domains():
    mapping = domain_category_map()
    assert len(mapping) == 67
    assert set(mapping.values()) <= {"STEM", "Social Science", "Humanities", "other"}
    assert category_for_domain("machine_learning") == "STEM"
    assert category_for_domain("marketing") == "Social Science"
    assert category_for_domain("logical") == "Humanities"


def test_fixture_block_sizes_match_declared_subset():
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


def test_round_trip_consolidated(tmp_path):
    original = load_corpus(fixture_corpus_path())
    save_corpus(original, tmp_path / "store.csv")
    again = load_corpus(tmp_path / "store.csv")
    assert again == original
    assert not (tmp_path / "store.csv").read_bytes().startswith(b"\xef\xbb\xbf")


def test_byte_order_mark_is_accepted(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with a UTF-8 byte-order mark
    plain = fixture_corpus_path() / "arts.csv"
    (tmp_path / "dir").mkdir()
    marked = tmp_path / "dir" / "arts.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_corpus(marked) == load_corpus(plain)
    assert load_corpus(tmp_path / "dir") == load_corpus(plain)


def test_group_by_domain_partition():
    exercises = make_synthetic_corpus([("a", "STEM", 3), ("b", "Humanities", 2)], seed=1, key_fn=mock_correct_label)
    blocks = group_by_domain(exercises)
    assert [b.domain for b in blocks] == ["a", "b"]
    assert sum(len(b) for b in blocks) == len(exercises)
    flattened = [e for b in blocks for e in b.exercises]
    assert sorted(e.id for e in flattened) == sorted(e.id for e in exercises)


@given(st.lists(st.sampled_from(["d1", "d2", "d3"]), min_size=1, max_size=30))
def test_group_by_domain_loses_nothing(domains):
    exercises = [
        Exercise(id=f"{d}/{i}", stem=f"s{i}", options=("a", "b", "c", "d"), key="A", domain=d, category="other")
        for i, d in enumerate(domains)
    ]
    blocks = group_by_domain(exercises)
    regrouped = sorted(e.id for b in blocks for e in b.exercises)
    assert regrouped == sorted(e.id for e in exercises)
    seen = [b.domain for b in blocks]
    assert seen == list(dict.fromkeys(domains))


def _records(exercise_id, outcomes):
    return [
        ResponseRecord(learner_id="probe", partner_id=None, exercise_id=exercise_id, choice="A", r=r, calls=())
        for r in outcomes
    ]


def test_difficulty_profile_means():
    exercises = make_synthetic_corpus([("a", "STEM", 2)], seed=0, key_fn=mock_correct_label)
    records = _records("a/0", [1, 1, 1, 1, 1, 1, 0, 0, 0, 0]) + _records("a/1", [1] * 10)
    profile = difficulty_profile(exercises, records, repeats=10)
    assert profile.means["a/0"] == pytest.approx(0.6)
    assert profile.means["a/1"] == pytest.approx(1.0)


def test_difficulty_profile_rejects_mismatch():
    exercises = make_synthetic_corpus([("a", "STEM", 1)], seed=0, key_fn=mock_correct_label)
    with pytest.raises(CorpusError, match="a/0"):
        difficulty_profile(exercises, _records("a/0", [1, 0]), repeats=3)


def test_difficulty_profile_rejects_empty():
    with pytest.raises(CorpusError):
        difficulty_profile([], [], repeats=10)
    with pytest.raises(CorpusError):
        DifficultyProfile(means={}, repeats=10).share_below(0.6)


def test_share_below_constructed_to_17_2_percent():
    # 250 exercises, 43 profiled below the 0.6 mark: 43/250 = 0.172 exactly.
    exercises = make_synthetic_corpus([("a", "STEM", 250)], seed=0, key_fn=mock_correct_label)
    records = []
    for i, e in enumerate(exercises):
        outcomes = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0] if i < 43 else [1] * 8 + [0, 0]
        records.extend(_records(e.id, outcomes))
    profile = difficulty_profile(exercises, records, repeats=10)
    assert profile.share_below(0.6) == pytest.approx(0.172)


def test_profile_bounds_and_export(tmp_path):
    exercises = make_synthetic_corpus([("a", "STEM", 4)], seed=0, key_fn=mock_correct_label)
    records = [r for e in exercises for r in _records(e.id, [1, 0, 1])]
    profile = difficulty_profile(exercises, records, repeats=3)
    assert all(0.0 <= m <= 1.0 for m in profile.means.values())
    profile.save(tmp_path / "difficulty.csv")
    lines = (tmp_path / "difficulty.csv").read_text("utf-8").strip().splitlines()
    assert lines[0] == "exercise_id,mean_accuracy,n_repeats"
    assert len(lines) == 5


def test_strip_options_identity_and_fields(exercise):
    bare = strip_options(exercise)
    assert bare.options == ()
    assert (bare.stem, bare.domain, bare.id) == (exercise.stem, exercise.domain, exercise.id)
    assert exercise.options  # original untouched
    assert strip_options(bare) is bare


def test_labels_read_once_leave_fields_equality_and_copies_alone(exercise):
    assert exercise.labels == ("A", "B", "C", "D")
    assert exercise.labels is exercise.labels
    twin = Exercise(**{f.name: getattr(exercise, f.name) for f in dataclasses.fields(Exercise)})
    assert exercise == twin and hash(exercise) == hash(twin)
    assert "labels" not in dataclasses.asdict(exercise)
    assert dataclasses.replace(exercise, options=exercise.options[:2], key="A").labels == ("A", "B")
    bare = strip_options(exercise)
    assert bare.labels == ()
    assert bare != exercise and strip_options(bare) is bare
    # an option-free item computes its labels only when read; reading them changes neither equality nor hash
    unread = dataclasses.replace(exercise, options=())
    assert "labels" not in vars(unread)
    assert bare == unread and hash(bare) == hash(unread)


def test_one_option_exercise_is_rejected_and_an_option_free_one_kept():
    fields = dict(id="d/0", stem="Which claim holds?", key="A", domain="d", category="STEM")
    with pytest.raises(CorpusError, match="'d/0' has one option"):
        Exercise(options=("only claim",), **fields)
    assert Exercise(options=(), **fields).labels == ()
    assert Exercise(options=("first", "second"), **fields).labels == ("A", "B")
