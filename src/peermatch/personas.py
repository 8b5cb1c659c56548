"""Learner personas over two ternary preference axes, and their prompt text.

A persona fixes a subject bias (humanities/social vs. STEM) and a reasoning
style (deductive, intuitive, inductive). The wording that turns a persona
into a system prompt is the packaged JSON file ``data/prompts_v1.json``,
read through ``default_prompts()``. The protocol writes every prompt with
it and the mock backend parses every prompt with it, so the two always
agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

_ALLOWED = (-1, 0, 1)
DEFAULT_PROMPT_RESOURCE = "prompts_v1.json"


class PersonaError(ValueError):
    """Raised when a preference axis is outside {-1, 0, 1}."""


@dataclass(frozen=True, order=True)
class Persona:
    """Two-axis cognitive profile.

    ``subject_pref``: -1 leans humanities/social sciences, +1 leans STEM,
    0 has no bias. ``logic_pref``: -1 deductive, +1 inductive, 0 intuitive.
    """

    subject_pref: int
    logic_pref: int

    def __post_init__(self) -> None:
        for axis in ("subject_pref", "logic_pref"):
            value = getattr(self, axis)
            if not isinstance(value, int) or isinstance(value, bool) or value not in _ALLOWED:
                raise PersonaError(f"{axis} must be one of -1, 0, 1; got {value!r}")


@dataclass(frozen=True)
class Learner:
    """A persona with an identity, unique within a cohort."""

    id: str
    persona: Persona


def enumerate_personas() -> list[Persona]:
    """All nine personas, sorted by (subject_pref, logic_pref)."""
    return [Persona(s, g) for s in _ALLOWED for g in _ALLOWED]


def default_cohort() -> dict[str, Learner]:
    """One learner per persona, ids L0..L8 in persona sort order."""
    cohort = {}
    for i, persona in enumerate(enumerate_personas()):
        learner = Learner(id=f"L{i}", persona=persona)
        cohort[learner.id] = learner
    return cohort


@dataclass(frozen=True)
class PromptSet:
    """Versioned prompt wording for agents and the deterministic mock.

    The subject/logic descriptor phrases are keyed by the axis value as a
    string ("-1", "0", "1"). Header strings double as section markers that
    the mock backend uses to parse prompts, so they must stay distinct.
    """

    version: int
    system_template: str
    neutral_system: str
    subject: dict[str, str]
    logic: dict[str, str]
    question_header: str
    options_header: str
    no_options_note: str
    draft_task: str
    partner_draft_header: str
    summary_task: str
    summary_header: str
    solo_task: str
    answer_instruction: str

    def system(self, persona: Persona) -> str:
        return self.system_template.format(
            subject=self.subject[str(persona.subject_pref)],
            logic=self.logic[str(persona.logic_pref)],
        )

    def subject_phrase(self, value: int) -> str:
        return self.subject[str(value)]

    def logic_phrase(self, value: int) -> str:
        return self.logic[str(value)]


@lru_cache(maxsize=1)
def default_prompts() -> PromptSet:
    raw = resources.files("peermatch").joinpath("data", DEFAULT_PROMPT_RESOURCE).read_text("utf-8")
    return PromptSet(**json.loads(raw))
