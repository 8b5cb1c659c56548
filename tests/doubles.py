"""Test doubles and protocol checks that the library itself never calls."""

from __future__ import annotations

import io

from peermatch.corpus import Exercise
from peermatch.protocol import ResponseRecord


class FunctionBackend:
    """Wraps a callable as a completion backend, for scripted replies."""

    def __init__(self, fn, name: str = "scripted"):
        self._fn = fn
        self.name = name

    def complete(self, prompt: str, seed: int | None) -> str:
        return self._fn(prompt, seed)


class TornWriter(io.BufferedWriter):
    """A binary file whose ``write`` lands half its bytes and then fails, as a full disk would."""

    def write(self, data):
        super().write(data[: len(data) // 2])
        raise OSError("disk full")


def torn_open(file, mode="r", *args, **kwargs):
    """Stands in for ``open`` in ``peermatch.writer``: every file opened for writing tears."""
    if "w" not in mode:
        return open(file, mode, *args, **kwargs)
    return TornWriter(io.FileIO(file, mode))


def option_leaks(record: ResponseRecord, exercise: Exercise) -> list[tuple[int, str]]:
    """(step, option text) pairs where option text leaked into a step 1-3 prompt."""
    return [
        (call.step, text)
        for call in record.calls
        if 1 <= call.step <= 3
        for text in exercise.options
        if text and text in call.prompt
    ]
