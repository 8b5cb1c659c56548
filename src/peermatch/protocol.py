"""Learner-exercise and learner-learner interaction protocols.

Two entry points: ``solve_exercise`` has one learner answer a
multiple-choice item on its own, and ``exchange_and_resolve`` runs the
four-step pair protocol: (1) both sides draft on the option-free question,
(2) drafts are exchanged, (3) the anchoring learner summarizes the
partner's draft through its own persona, (4) the anchoring learner
re-answers the full question with the summary attached. Option text never
enters steps 1-3, and only the anchoring learner is scored; run the
protocol again with roles swapped for the symmetric record. Each entry
point returns one ``ResponseRecord`` that carries the job's backend calls
in order. Every call of a job passes the job's decode seed to the backend.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple, Sequence

from .backends import CompletionBackend, TransportError
from .corpus import Exercise, strip_options
from .hashing import sha256_hex
from .personas import Learner, PromptSet, default_prompts


class ProtocolError(ValueError):
    """Invalid protocol input, e.g. a self-pairing or an option-free item."""


class CallEvent(NamedTuple):
    """One backend call of a protocol job: its step, who prompted what, and the raw reply.

    A named tuple, which Python builds in C: a profile builds one per answer.
    """

    step: int
    actor_id: str
    prompt: str
    reply: str

    @property
    def prompt_hash(self) -> str:
        return sha256_hex(self.prompt)


class ResponseRecord(NamedTuple):
    """One protocol job, scored for the anchoring learner.

    ``partner_id`` is None for a solo answer, whose one call is step 0; a
    pair's calls are steps 1, 1, 3 and 4 (step 2, the exchange, makes no
    call). ``choice`` is the label parsed from the last reply, or None for
    an abstention, and ``r`` is 1 iff it equals the key. A named tuple, like
    ``CallEvent``, so it equals a plain tuple of the same values.
    """

    learner_id: str
    partner_id: str | None
    exercise_id: str
    choice: str | None
    r: int
    calls: tuple[CallEvent, ...]


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
    return _parse_choice(reply, labels)


# replies repeat: a template answer differs only in its label, so a few entries serve most calls
@lru_cache(maxsize=32)
def _parse_choice(reply: str, labels: tuple[str, ...]) -> str | None:
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


# A profile sends one exercise's repeats back to back, so a few entries serve every repeat. Keyed on
# the Exercise object's identity, which spares hashing its six fields on every call; each entry holds
# its exercise, so no other object can take that id while the entry lives.
_SOLO_PROMPTS: dict[tuple[str, int], tuple[Exercise, str]] = {}
_SOLO_PROMPTS_MAX = 16


def _solo_prompt(system_text: str, exercise: Exercise) -> str:
    key = (system_text, id(exercise))
    entry = _SOLO_PROMPTS.get(key)
    if entry is None:
        if len(_SOLO_PROMPTS) >= _SOLO_PROMPTS_MAX:
            del _SOLO_PROMPTS[next(iter(_SOLO_PROMPTS))]  # the oldest
        entry = _SOLO_PROMPTS[key] = (exercise, solo_prompt(default_prompts(), system_text, exercise))
    return entry[1]


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


def _call(backend: CompletionBackend, seed: int | None, step: int, actor_id: str, prompt: str) -> CallEvent:
    """One backend call; a TransportError leaves tagged with the step it failed in."""
    try:
        reply = backend.complete(prompt, seed)
    except TransportError as exc:
        exc.step = step
        raise
    return CallEvent(step, actor_id, prompt, reply)


def _scored(learner_id: str, partner_id: str | None, exercise: Exercise, calls: tuple[CallEvent, ...]) -> ResponseRecord:
    """The job's record: the last reply's choice, scored against the key."""
    choice = parse_choice(calls[-1].reply, exercise.labels)
    return ResponseRecord(learner_id, partner_id, exercise.id, choice, int(choice == exercise.key), calls)


def solve_exercise(
    learner: Learner,
    exercise: Exercise,
    backend: CompletionBackend,
    *,
    seed: int | None = None,
    use_persona: bool = True,
) -> ResponseRecord:
    """Independent answering; the score is 1 iff the parsed choice equals the key."""
    _require_answerable(exercise)
    prompts = default_prompts()
    system_text = prompts.system(learner.persona) if use_persona else prompts.neutral_system
    answer = _call(backend, seed, 0, learner.id, _solo_prompt(system_text, exercise))
    return _scored(learner.id, None, exercise, (answer,))


def exchange_and_resolve(
    learner: Learner,
    partner: Learner,
    exercise: Exercise,
    backend: CompletionBackend,
    *,
    seed: int | None = None,
) -> ResponseRecord:
    """Run the four-step pair protocol and score the anchoring learner."""
    if learner.id == partner.id:
        raise ProtocolError(f"learner {learner.id!r} cannot pair with itself")
    _require_answerable(exercise)
    prompts = default_prompts()
    bare = strip_options(exercise)
    own_system = prompts.system(learner.persona)
    partner_system = prompts.system(partner.persona)
    own_draft = _call(backend, seed, 1, learner.id, draft_prompt(prompts, own_system, bare))
    partner_draft = _call(backend, seed, 1, partner.id, draft_prompt(prompts, partner_system, bare))
    # step 2, the exchange, hands partner_draft to the learner and makes no call
    summary = _call(backend, seed, 3, learner.id, summary_prompt(prompts, own_system, bare, partner_draft.reply))
    final = _call(backend, seed, 4, learner.id, reanswer_prompt(prompts, own_system, exercise, summary.reply))
    return _scored(learner.id, partner.id, exercise, (own_draft, partner_draft, summary, final))
