"""Completion backends: deterministic mock, replay cache, and live HTTP.

A backend turns prompt text plus a decode seed into reply text; every call
decodes greedily with one reply budget. The mock is a pure function of
(its own seed, prompt text, decode seed); it parses the structured sections
that the protocol templates produce and plants a recoverable pattern in its
answer accuracy, so matching quality can be verified entirely offline.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Protocol

from .gp import check_types
from .hashing import sha256_hex, stable_u64, unit_uniform
from .personas import default_prompts
from .writer import write_file


class ConfigError(ValueError):
    """Inconsistent or unknown settings: a variant's or the live endpoint's."""


class TransportError(RuntimeError):
    """Backend call failed. ``step`` is filled in by the interaction protocol."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


# every call decodes greedily with the same reply budget
TEMPERATURE = 0.0
MAX_TOKENS = 256
_CACHE_KEY_HEAD = f"t={TEMPERATURE!r}|n={MAX_TOKENS}|s="


def decode_key(seed: int | None) -> str:
    """A call's decode settings as the text that the mock's draws and the cache's paths hash, e.g. ``t=0.0|n=256|s=7``."""
    return f"{_CACHE_KEY_HEAD}{seed}"


class CompletionBackend(Protocol):
    name: str

    def complete(self, prompt: str, seed: int | None) -> str: ...


def mock_correct_label(stem: str, labels: tuple[str, ...]) -> str:
    """The option label the mock backend believes is correct for a stem.

    Synthetic corpora plant their answer keys with this same rule, so the
    mock's accuracy is meaningful without any live model.
    """
    if not labels:
        raise ValueError("no labels")
    return labels[stable_u64("mock-key", stem) % len(labels)]


class MockBackend:
    """Seeded, pure completion oracle with a planted complementarity pattern.

    Replies depend only on (seed, prompt text, decode seed). For prompts
    that show answer options, the reply is correct with probability
    ``clamp(base_difficulty + bonus * complementarity, 0, 1)`` where
    complementarity is 1 iff the prompt's own role section and the partner
    summary section carry opposite-signed subject descriptors, else 0.

    The correctness draw is keyed on the question stem and the decode seed
    only, never on the role wording. Distinct variants that pose the same
    question to the same learner therefore share one underlying uniform
    draw, which makes their accuracies comparable draw by draw.

    Prompts are parsed with the packaged wording (``default_prompts()``),
    the same wording the protocol writes them with.
    """

    def __init__(self, seed: int, base_difficulty: float = 0.4, complementarity_bonus: float = 0.3):
        self.base_difficulty = base_difficulty
        self.complementarity_bonus = complementarity_bonus
        self.prompts = default_prompts()
        self.name = (
            f"mock/v{self.prompts.version}/seed={seed}"
            f"/base={base_difficulty!r}/bonus={complementarity_bonus!r}"
        )
        self._seed_text = str(seed)
        # per instance and bounded: a profile sends one question's repeats back to back
        self._read_question = lru_cache(maxsize=16)(self._question)

    @staticmethod
    def _detect(phrases: dict, region: str) -> int:
        """Value of the earliest descriptor phrase of the table in the region; 0 if none."""
        best_pos, best_value = len(region) + 1, 0
        for raw_value, phrase in phrases.items():
            pos = region.find(phrase)
            if pos >= 0 and pos < best_pos:
                best_pos, best_value = pos, int(raw_value)
        return best_value

    def _split_stem_and_labels(self, prompt: str) -> tuple[str, tuple[str, ...]]:
        p = self.prompts
        after_q = prompt.split(p.question_header, 1)[1]
        stem_part, options_part = after_q.split(p.options_header, 1)
        if p.summary_header in options_part:
            options_part = options_part.split(p.summary_header, 1)[0]
        labels = []
        for line in options_part.splitlines():
            line = line.strip()
            if len(line) >= 2 and line[1] == "." and line[0].isalpha() and line[0].isupper():
                labels.append(line[0])
        return stem_part.strip(), tuple(labels)

    def _question(self, prompt: str) -> tuple[str, str | None, float, tuple[str, ...]]:
        """What a question prompt alone decides: stem, believed label (None without labels),
        the chance of answering it correctly and the wrong labels. The same for every decode seed."""
        p = self.prompts
        stem, labels = self._split_stem_and_labels(prompt)
        if not labels:
            return stem, None, 0.0, ()
        belief = mock_correct_label(stem, labels)

        role_region = prompt.split(p.question_header, 1)[0]
        own_subject = self._detect(p.subject, role_region)
        partner_subject = 0
        if p.summary_header in prompt:
            summary_region = prompt.split(p.summary_header, 1)[1]
            partner_subject = self._detect(p.subject, summary_region)
        complementary = 1 if own_subject * partner_subject == -1 else 0
        prob = min(1.0, max(0.0, self.base_difficulty + self.complementarity_bonus * complementary))
        return stem, belief, prob, tuple([lab for lab in labels if lab != belief])

    def _answer(self, prompt: str, seed: int | None) -> str:
        stem, belief, prob, wrong = self._read_question(prompt)
        if belief is None:
            return "I cannot find any options to choose from."
        mock_seed, key = self._seed_text, decode_key(seed)
        if unit_uniform("draw", mock_seed, key, stem) < prob:
            choice = belief
        else:
            choice = wrong[stable_u64("miss", mock_seed, key, stem) % len(wrong)]
        return f"Weighing the listed claims against the stated assumptions, option {choice} holds up best.\nAnswer: {choice}"

    def _draft(self, prompt: str) -> str:
        p = self.prompts
        role_region = prompt.split(p.question_header, 1)[0]
        subject = self._detect(p.subject, role_region)
        logic = self._detect(p.logic, role_region)
        lines = ["Draft notes on the question."]
        if subject != 0 or p.subject_phrase(0) in role_region:
            lines.append(f"My angle comes from {p.subject_phrase(subject)}.")
        if logic != 0 or p.logic_phrase(0) in role_region:
            lines.append(f"I lean on {p.logic_phrase(logic)} here.")
        lines.append("The question hinges on which claim survives the stated assumptions.")
        return "\n".join(lines)

    def _summary(self, prompt: str) -> str:
        p = self.prompts
        draft_region = prompt.split(p.partner_draft_header, 1)[1]
        if p.summary_task in draft_region:
            draft_region = draft_region.split(p.summary_task, 1)[0]
        partner_subject = self._detect(p.subject, draft_region)
        lines = ["In short, my partner reasons carefully about the claims."]
        if any(phrase in draft_region for phrase in p.subject.values()):
            lines.append(f"Their view is grounded in {p.subject_phrase(partner_subject)}.")
        lines.append("They weigh each claim against the assumptions before committing.")
        return "\n".join(lines)

    def complete(self, prompt: str, seed: int | None) -> str:
        p = self.prompts
        if p.question_header in prompt and p.options_header in prompt:
            return self._answer(prompt, seed)
        if p.partner_draft_header in prompt:
            return self._summary(prompt)
        return self._draft(prompt)


class CachingBackend:
    """Content-addressed on-disk replay cache around another backend.

    Keys hash (inner backend name, ``decode_key(seed)``, prompt text); entries live
    at ``<root>/<2-hex-prefix>/<hash>``. A cache hit never touches the inner
    backend.
    """

    def __init__(self, inner: CompletionBackend, root: str | Path):
        self.inner = inner
        self.root = os.fspath(root)
        self.name = f"cache({inner.name})"
        self.hits = 0
        self.misses = 0

    def complete(self, prompt: str, seed: int | None) -> str:
        digest = sha256_hex(f"{self.inner.name}\x1f{decode_key(seed)}\x1f{prompt}")
        path = os.path.join(self.root, digest[:2], digest)
        try:
            with open(path, "rb") as f:
                # read and written without newline translation, which would turn \r\n into \n
                reply = f.read().decode("utf-8")
        except FileNotFoundError:
            pass
        else:
            self.hits += 1
            return reply
        reply = self.inner.complete(prompt, seed)
        # written whole: a crash mid-write must not leave a truncated entry that replays as a hit
        write_file(path, reply)
        self.misses += 1
        return reply


@dataclass(frozen=True)
class LiveConfig:
    """Connection settings for an OpenAI-style chat completion endpoint, checked when built."""

    base_url: str
    model: str
    token_env: str = "PEERMATCH_API_TOKEN"
    timeout_s: float = 60.0

    def __post_init__(self) -> None:
        check_types(self, "live", ConfigError)
        if self.timeout_s <= 0:  # urllib takes a negative timeout as out of range, and 0 as non-blocking
            raise ConfigError(f"live: timeout_s must be a positive number, got {self.timeout_s!r}")


class HttpBackend:
    """Live backend posting to ``<base_url>/chat/completions``."""

    def __init__(self, config: LiveConfig):
        self.config = config
        self.name = f"http/{config.model}"

    def complete(self, prompt: str, seed: int | None) -> str:
        # imported here: the HTTP stack is most of the package's import time, and only a live call needs it
        import http.client
        import urllib.request

        token = os.environ.get(self.config.token_env)
        if not token:
            raise TransportError(f"auth token env var {self.config.token_env!r} is not set")
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        if seed is not None:
            payload["seed"] = seed
        request = urllib.request.Request(
            self.config.base_url.rstrip("/") + "/chat/completions",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json", "Authorization": f"Bearer {token}"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.config.timeout_s) as response:
                body = json.loads(response.read().decode("utf-8"))
        # OSError covers URLError, timeouts and dropped connections;
        # HTTPException a truncated body; ValueError bad UTF-8 or JSON
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise TransportError(f"live backend call failed: {exc}") from exc
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"unexpected completion payload: {exc}") from exc
        if not isinstance(content, str):
            raise TransportError(f"unexpected completion payload: content is {type(content).__name__}, not a string")
        return content
