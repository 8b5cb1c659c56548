"""Test doubles and protocol checks that the library itself never calls."""

from __future__ import annotations

from peermatch.backends import DecodeParams
from peermatch.corpus import Exercise
from peermatch.protocol import ResponseRecord


class FunctionBackend:
    """Wraps a callable as a completion backend, for scripted replies."""

    def __init__(self, fn, name: str = "scripted"):
        self._fn = fn
        self.name = name

    def complete(self, prompt: str, params: DecodeParams) -> str:
        return self._fn(prompt, params)


def option_leaks(record: ResponseRecord, exercise: Exercise) -> list[tuple[int, str]]:
    """(step, option text) pairs where option text leaked into a step 1-3 prompt."""
    return [
        (call.step, text)
        for call in record.calls
        if 1 <= call.step <= 3
        for text in exercise.options
        if text and text in call.prompt
    ]
