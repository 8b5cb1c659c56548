"""Learner-exercise and learner-learner interaction protocols.

Two entry points: ``solve_exercise`` has one learner answer a
multiple-choice item on its own, and ``exchange_and_resolve`` runs the
four-step pair protocol: (1) both sides draft on the option-free question,
(2) drafts are exchanged, (3) the anchoring learner summarizes the
partner's draft through its own persona, (4) the anchoring learner
re-answers the full question with the summary attached. Option text never
enters steps 1-3, and only the anchoring learner is scored; run the
protocol again with roles swapped for the symmetric record.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .backends import CompletionBackend, DecodeParams, TransportError
from .corpus import Exercise, strip_options
from .hashing import sha256_hex
from .personas import Learner, PromptSet, default_prompts


class ProtocolError(ValueError):
    """Invalid protocol input, e.g. a self-pairing or an option-free item."""


@dataclass(frozen=True)
class ResponseRecord:
    """One learner's independent answer to one exercise."""

    learner_id: str
    exercise_id: str
    chosen_option: str | None
    response_text: str
    r: int

    def __post_init__(self) -> None:
        if self.r not in (0, 1):
            raise ProtocolError(f"score must be 0 or 1, got {self.r!r}")


@dataclass(frozen=True)
class CallEvent:
    """One backend call: who prompted what, and the raw reply."""

    actor_id: str
    prompt: str
    reply: str

    @property
    def prompt_hash(self) -> str:
        return sha256_hex(self.prompt)


@dataclass(frozen=True)
class ProtocolStep:
    step: int
    calls: tuple[CallEvent, ...]


@dataclass(frozen=True)
class PairedResponseRecord:
    """Outcome of one four-step interaction, scored for the anchoring learner."""

    learner_id: str
    partner_id: str
    exercise_id: str
    final_choice: str | None
    r: int
    transcript: tuple[ProtocolStep, ...]

    def __post_init__(self) -> None:
        if self.learner_id == self.partner_id:
            raise ProtocolError("learner and partner must differ")
        if tuple(s.step for s in self.transcript) != (1, 2, 3, 4):
            raise ProtocolError("transcript must hold exactly steps 1..4 in order")
        if self.r not in (0, 1):
            raise ProtocolError(f"score must be 0 or 1, got {self.r!r}")


@lru_cache(maxsize=32)
def _choice_patterns(labels: tuple[str, ...]) -> tuple[re.Pattern, re.Pattern, re.Pattern]:
    klass = "".join(labels) + "".join(labels).lower()
    standalone_any = re.compile(rf"(?<![A-Za-z0-9])([{klass}])(?![A-Za-z0-9])")
    standalone_upper = re.compile(rf"(?<![A-Za-z0-9])([{''.join(labels)}])(?![A-Za-z0-9])")
    markers = re.compile(r"answer|option|choice|选", re.IGNORECASE)
    return markers, standalone_any, standalone_upper


def parse_choice(reply: str, labels: Sequence[str]) -> str | None:
    """Extract a single option label from free text, or None to abstain.

    Policy: the first standalone label shortly after an answer marker
    ("answer", "option", "choice", "选"), else the first standalone
    uppercase label anywhere, else abstain. Abstention scores 0.
    """
    labels = tuple(labels)
    if not labels:
        raise ProtocolError("labels must be non-empty")
    markers, standalone_any, standalone_upper = _choice_patterns(labels)
    for marker in markers.finditer(reply):
        window = reply[marker.end(): marker.end() + 24]
        hit = standalone_any.search(window)
        if hit:
            return hit.group(1).upper()
    hit = standalone_upper.search(reply)
    if hit:
        return hit.group(1)
    return None


def _question_section(prompts: PromptSet, exercise: Exercise) -> str:
    lines = [prompts.question_header, exercise.stem]
    if exercise.options:
        lines.append("")
        lines.append(prompts.options_header)
        lines.extend(f"{label}. {text}" for label, text in zip(exercise.labels, exercise.options))
    else:
        lines.append(prompts.no_options_note)
    return "\n".join(lines)


def solo_prompt(prompts: PromptSet, system_text: str, exercise: Exercise) -> str:
    return "\n\n".join(
        [system_text, _question_section(prompts, exercise), prompts.solo_task, prompts.answer_instruction]
    )


def draft_prompt(prompts: PromptSet, system_text: str, bare: Exercise) -> str:
    return "\n\n".join([system_text, _question_section(prompts, bare), prompts.draft_task])


def summary_prompt(prompts: PromptSet, system_text: str, bare: Exercise, partner_draft: str) -> str:
    return "\n\n".join(
        [
            system_text,
            _question_section(prompts, bare),
            prompts.partner_draft_header,
            partner_draft,
            prompts.summary_task,
        ]
    )


def reanswer_prompt(prompts: PromptSet, system_text: str, exercise: Exercise, summary: str) -> str:
    return "\n\n".join(
        [
            system_text,
            _question_section(prompts, exercise),
            prompts.summary_header,
            summary,
            prompts.answer_instruction,
        ]
    )


def _require_answerable(exercise: Exercise) -> None:
    if not exercise.options:
        raise ProtocolError(f"exercise {exercise.id!r} carries no options")


Sink = Callable[[int, CallEvent], None]


def solve_exercise(
    learner: Learner,
    exercise: Exercise,
    backend: CompletionBackend,
    *,
    params: DecodeParams = DecodeParams(),
    use_persona: bool = True,
    sink: Sink | None = None,
) -> ResponseRecord:
    """Independent answering; the score is 1 iff the parsed choice equals the key."""
    _require_answerable(exercise)
    prompts = default_prompts()
    system_text = prompts.system(learner.persona) if use_persona else prompts.neutral_system
    prompt = solo_prompt(prompts, system_text, exercise)
    reply = backend.complete(prompt, params)
    if sink is not None:
        sink(0, CallEvent(learner.id, prompt, reply))
    choice = parse_choice(reply, exercise.labels)
    return ResponseRecord(
        learner_id=learner.id,
        exercise_id=exercise.id,
        chosen_option=choice,
        response_text=reply,
        r=int(choice is not None and choice == exercise.key),
    )


def exchange_and_resolve(
    learner: Learner,
    partner: Learner,
    exercise: Exercise,
    backend: CompletionBackend,
    *,
    params: DecodeParams = DecodeParams(),
    sink: Sink | None = None,
) -> PairedResponseRecord:
    """Run the four-step pair protocol and score the anchoring learner."""
    if learner.id == partner.id:
        raise ProtocolError(f"learner {learner.id!r} cannot pair with itself")
    _require_answerable(exercise)
    prompts = default_prompts()
    bare = strip_options(exercise)
    own_system = prompts.system(learner.persona)
    partner_system = prompts.system(partner.persona)

    def call(step: int, actor_id: str, prompt: str) -> CallEvent:
        try:
            reply = backend.complete(prompt, params)
        except TransportError as exc:
            exc.step = step
            raise
        event = CallEvent(actor_id, prompt, reply)
        if sink is not None:
            sink(step, event)
        return event

    own_draft = call(1, learner.id, draft_prompt(prompts, own_system, bare))
    partner_draft = call(1, partner.id, draft_prompt(prompts, partner_system, bare))
    step1 = ProtocolStep(1, (own_draft, partner_draft))

    step2 = ProtocolStep(2, ())

    summary = call(3, learner.id, summary_prompt(prompts, own_system, bare, partner_draft.reply))
    step3 = ProtocolStep(3, (summary,))

    final = call(4, learner.id, reanswer_prompt(prompts, own_system, exercise, summary.reply))
    step4 = ProtocolStep(4, (final,))

    choice = parse_choice(final.reply, exercise.labels)
    return PairedResponseRecord(
        learner_id=learner.id,
        partner_id=partner.id,
        exercise_id=exercise.id,
        final_choice=choice,
        r=int(choice is not None and choice == exercise.key),
        transcript=(step1, step2, step3, step4),
    )
