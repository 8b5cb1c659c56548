import pytest

from peermatch.writer import csv_text, write_file
from doubles import torn_open


def test_write_file_makes_the_parent_and_translates_no_newline(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    write_file(target, "one\r\ntwo\n")
    assert target.read_bytes() == b"one\r\ntwo\n"


def test_failed_write_keeps_the_old_target_and_leaves_no_temp_file(tmp_path, monkeypatch):
    # the torn write of test_cache_write_failure_leaves_no_entry, against a target that already exists
    target = tmp_path / "report.txt"
    write_file(target, "old\n")
    monkeypatch.setattr("peermatch.writer.open", torn_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write_file(target, "new and longer contents\n")
    monkeypatch.undo()
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


def test_directory_target_fails_and_leaves_no_temp_file(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        write_file(tmp_path / "taken", "text\n")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list((tmp_path / "taken").iterdir()) == []


def test_csv_text_ends_every_line_with_crlf():
    assert csv_text(["a", "b"], [[1, "x,y"], [2, "z"]]) == 'a,b\r\n1,"x,y"\r\n2,z\r\n'
