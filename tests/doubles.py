"""Test doubles and protocol checks that the library itself never calls."""

from __future__ import annotations

from peermatch.backends import DecodeParams
from peermatch.corpus import Exercise
from peermatch.protocol import PairedResponseRecord


class FunctionBackend:
    """Wraps a callable as a completion backend, for scripted replies."""

    def __init__(self, fn, name: str = "scripted"):
        self._fn = fn
        self.name = name

    def complete(self, prompt: str, params: DecodeParams) -> str:
        return self._fn(prompt, params)


def option_leaks(record: PairedResponseRecord, exercise: Exercise) -> list[tuple[int, str]]:
    """(step, option text) pairs where option text leaked into a step 1-3 prompt."""
    leaks = []
    for step in record.transcript:
        if step.step >= 4:
            continue
        for event in step.calls:
            for text in exercise.options:
                if text and text in event.prompt:
                    leaks.append((step.step, text))
    return leaks
