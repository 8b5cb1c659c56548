import hashlib
import http.client
import io
import json
import os
import random
import subprocess
import sys
import urllib.error
from pathlib import Path

import pytest

from peermatch import backends
from peermatch.backends import (
    CachingBackend,
    ConfigError,
    HttpBackend,
    LiveConfig,
    MockBackend,
    TransportError,
    mock_correct_label,
)
from peermatch.corpus import Exercise, fixture_corpus_path, load_corpus, make_synthetic_corpus, strip_options
from peermatch.personas import Learner, Persona
from peermatch.protocol import (
    draft_prompt,
    exchange_and_resolve,
    reanswer_prompt,
    solo_prompt,
    solve_exercise,
    summary_prompt,
)
from doubles import FunctionBackend, torn_open
from oracles import reference_mock_answer


def test_mock_is_pure(prompts, exercise, learner):
    backend = MockBackend(seed=3)
    prompt = solo_prompt(prompts, prompts.system(learner.persona), exercise)
    assert backend.complete(prompt, 11) == backend.complete(prompt, 11)
    assert backend.complete(prompt, 11) == MockBackend(seed=3).complete(prompt, 11)


def test_mock_varies_with_seed_and_decode_seed(prompts, exercise, learner):
    prompt = solo_prompt(prompts, prompts.system(learner.persona), exercise)
    replies = {MockBackend(seed=s).complete(prompt, d) for s in range(6) for d in range(6)}
    assert len(replies) > 1


def test_mock_correct_label_stable():
    labels = ("A", "B", "C", "D")
    assert mock_correct_label("some stem", labels) == mock_correct_label("some stem", labels)
    with pytest.raises(ValueError):
        mock_correct_label("stem", ())


def test_mock_plants_complementarity_bonus():
    """Accuracy with an opposite-subject summary beats solo accuracy by ~the bonus."""
    stem_pool = make_synthetic_corpus([("probe", "STEM", 300)], seed=9, key_fn=mock_correct_label)
    anchor = Learner("a", Persona(1, 0))
    comp_partner = Learner("b", Persona(-1, 0))
    same_partner = Learner("c", Persona(1, 0))
    backend = MockBackend(seed=0, base_difficulty=0.4, complementarity_bonus=0.3)
    solo = comp = same = 0
    for e in stem_pool:
        solo += solve_exercise(anchor, e, backend, seed=0).r
        comp += exchange_and_resolve(anchor, comp_partner, e, backend, seed=0).r
        same += exchange_and_resolve(anchor, same_partner, e, backend, seed=0).r
    assert solo == same  # same uniform draw, same probability
    assert 0.32 <= solo / 300 <= 0.48
    assert 0.62 <= comp / 300 <= 0.78
    assert comp - solo >= 0  # bonus never flips a correct answer to wrong


def test_mock_answers_carry_a_parseable_choice(exercise, learner):
    backend = MockBackend(seed=1)
    record = solve_exercise(learner, exercise, backend)
    assert record.choice in exercise.labels
    assert record.calls[0].reply


def test_mock_question_memo_changes_no_reply(prompts):
    """A backend that reads each question once answers as a fresh backend per call does."""
    own, other = prompts.system(Persona(1, -1)), prompts.system(Persona(-1, 1))
    calls = []
    for e in load_corpus(fixture_corpus_path()):
        bare = strip_options(e)
        draft = MockBackend(seed=0).complete(draft_prompt(prompts, other, bare), None)
        summary = MockBackend(seed=0).complete(summary_prompt(prompts, own, bare, draft), None)
        option_free = "\n\n".join([own, prompts.question_header, e.stem, prompts.options_header, prompts.solo_task])
        for prompt in (
            solo_prompt(prompts, own, e),
            draft_prompt(prompts, own, bare),
            summary_prompt(prompts, own, bare, draft),
            reanswer_prompt(prompts, own, e, summary),
            option_free,
        ):
            calls.extend((prompt, s) for s in (None, 0, 1, 7))
    random.Random(5).shuffle(calls)
    shared = {seed: MockBackend(seed=seed) for seed in (0, 3)}
    for seed, backend in shared.items():
        # each backend holds its own memo: the seed-3 one is still empty after seed 0 served every call
        assert backend._read_question.cache_info().currsize == 0
        replies = [backend.complete(prompt, decode_seed) for prompt, decode_seed in calls]
        assert replies == [MockBackend(seed=seed).complete(prompt, decode_seed) for prompt, decode_seed in calls]
        assert backend._read_question.cache_info().hits > 0
    assert "I cannot find any options to choose from." in replies


@pytest.mark.parametrize(
    "base, bonus",
    # clamped: 0.9 + 0.3 and 1.2 above 1, -0.1 and 0.2 - 0.5 below 0
    [(0.4, 0.3), (0.9, 0.3), (1.2, 0.0), (-0.1, 0.3), (0.2, -0.5)],
)
def test_mock_answers_by_the_reference_rule(prompts, base, bonus):
    own = prompts.system(Persona(1, 0))
    # a summary region with the opposite subject descriptor makes the re-answer complementary; the same one does not
    opposite, same = (f"Their view is grounded in {prompts.subject_phrase(s)}." for s in (-1, 1))
    backend = MockBackend(seed=7, base_difficulty=base, complementarity_bonus=bonus)
    answers = []
    for n in (2, 3, 4):
        e = Exercise(id=f"d/{n}", stem=f"Which of {n} claims holds?", options=tuple(f"claim {i}" for i in range(n)),
                     key="A", domain="d", category="STEM")
        for prompt, complementary in (
            (solo_prompt(prompts, own, e), 0),
            (reanswer_prompt(prompts, own, e, same), 0),
            (reanswer_prompt(prompts, own, e, opposite), 1),
        ):
            for seed in [None, *range(60)]:
                reply = backend.complete(prompt, seed)
                assert reply == reference_mock_answer(7, base, bonus, e.stem, e.labels, complementary, seed)
                answers.append(reply)
    assert len(answers) == 3 * 3 * 61
    assert len({reply[-1] for reply in answers}) > 1


class CountingBackend:
    def __init__(self, reply="Answer: A"):
        self.calls = 0
        self.name = "counting"
        self.reply = reply

    def complete(self, prompt, seed):
        self.calls += 1
        return self.reply


def test_cache_hit_skips_inner_backend(tmp_path):
    # the second reply replays byte for byte: no newline translation on either side
    for i, reply in enumerate(("Answer: A", "line one\r\nline two\rAnswer: B")):
        inner = CountingBackend(reply)
        cache = CachingBackend(inner, tmp_path / f"cache{i}")
        assert cache.complete("prompt one", None) == reply
        assert cache.complete("prompt one", None) == reply
        assert inner.calls == 1
        assert (cache.hits, cache.misses) == (1, 1)


def test_cache_layout_and_key_sensitivity(tmp_path):
    inner = CountingBackend()
    cache = CachingBackend(inner, tmp_path / "cache")
    cache.complete("prompt", None)
    entries = list((tmp_path / "cache").rglob("*"))
    files = [p for p in entries if p.is_file()]
    assert len(files) == 1
    assert files[0].parent.name == files[0].name[:2]
    assert len(files[0].name) == 64
    cache.complete("prompt", 1)  # different decode seed -> new entry
    cache.complete("other prompt", None)
    assert inner.calls == 3


def test_a_cache_entry_sits_where_earlier_versions_wrote_it(tmp_path):
    # the path hashes (inner name, decode key, prompt) joined by \x1f: a replay cache written earlier still hits
    CachingBackend(CountingBackend(), tmp_path).complete("prompt", 7)
    digest = hashlib.sha256("counting\x1ft=0.0|n=256|s=7\x1fprompt".encode("utf-8")).hexdigest()
    assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()] == [f"{digest[:2]}/{digest}"]


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"timeout_s": 0}, "live: timeout_s must be a positive number, got 0"),
        ({"timeout_s": -2.5}, "live: timeout_s must be a positive number, got -2.5"),
        ({"timeout_s": float("nan")}, "live: timeout_s must be a finite float, got nan"),
        ({"model": None}, "live: model must be str, got None"),
    ],
)
def test_live_config_checks_itself_when_built(settings, message):
    with pytest.raises(ConfigError) as info:
        LiveConfig(**{"base_url": "http://x", "model": "m", **settings})
    assert str(info.value) == message


def test_cache_distinguishes_inner_backends(tmp_path):
    first = CachingBackend(CountingBackend(), tmp_path / "cache")
    first.complete("prompt", None)
    other_inner = CountingBackend()
    other_inner.name = "different"
    second = CachingBackend(other_inner, tmp_path / "cache")
    second.complete("prompt", None)
    assert other_inner.calls == 1


def test_cache_write_failure_leaves_no_entry(tmp_path, monkeypatch):
    inner = CountingBackend(reply="Answer: B, after a long deliberation")
    cache = CachingBackend(inner, tmp_path / "cache")
    monkeypatch.setattr("peermatch.writer.open", torn_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        cache.complete("prompt", None)
    monkeypatch.undo()
    assert [p for p in (tmp_path / "cache").rglob("*") if p.is_file()] == []
    assert cache.complete("prompt", None) == inner.reply
    assert inner.calls == 2
    assert cache.hits == 0


def test_cache_entry_is_the_reply_utf8_bytes(tmp_path):
    reply = "Answer: B\r\n选 the second\rend"
    inner = CountingBackend(reply)
    cache = CachingBackend(inner, tmp_path / "cache")
    assert cache.complete("prompt", None) == reply
    [entry] = [p for p in (tmp_path / "cache").rglob("*") if p.is_file()]
    assert entry.read_bytes() == reply.encode("utf-8")
    assert CachingBackend(inner, tmp_path / "cache").complete("prompt", None) == reply
    assert inner.calls == 1


def test_unencodable_reply_leaves_no_entry_and_pays_again(tmp_path):
    inner = CountingBackend("Answer: A \ud800")
    cache = CachingBackend(inner, tmp_path / "cache")
    with pytest.raises(UnicodeEncodeError):
        cache.complete("prompt", None)
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
    assert list(tmp_path.rglob("*.tmp")) == []
    inner.reply = "Answer: A"
    assert cache.complete("prompt", None) == "Answer: A"
    assert (inner.calls, cache.hits, cache.misses) == (2, 0, 1)


def test_misses_into_existing_prefix_directories_make_none(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    for prefix in range(256):
        (root / f"{prefix:02x}").mkdir(parents=True)
    made = []
    for name in ("makedirs", "mkdir"):
        monkeypatch.setattr(os, name, lambda *args, **kwargs: made.append(args))
    cache = CachingBackend(CountingBackend(), root)
    for i in range(50):
        cache.complete(f"prompt {i}", None)
    assert made == []
    assert cache.misses == 50
    assert len([p for p in root.rglob("*") if p.is_file()]) == 50


def test_function_backend_passthrough():
    backend = FunctionBackend(lambda prompt, seed: f"echo:{len(prompt)}", name="echo")
    assert backend.complete("abcd", None) == "echo:4"


class _FakeResponse(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_importing_the_cli_loads_no_http_stack():
    # a fresh interpreter: this one has loaded the HTTP stack for the tests around it
    code = (
        "import sys, peermatch.cli; "
        "print(sorted(m for m in ('http.client', 'urllib.request', 'email', 'ssl', 'socket') if m in sys.modules))"
    )
    src = str(Path(backends.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_http_backend_success(monkeypatch):
    captured = {}

    def fake_urlopen(request, timeout):
        captured["url"] = request.full_url
        captured["timeout"] = timeout
        captured["auth"] = request.get_header("Authorization")
        captured["payload"] = json.loads(request.data.decode("utf-8"))
        body = {"choices": [{"message": {"content": "Answer: C"}}]}
        return _FakeResponse(json.dumps(body).encode("utf-8"))

    monkeypatch.setenv("PEERMATCH_API_TOKEN", "sekrit")
    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    backend = HttpBackend(LiveConfig(base_url="http://llm.internal/v1", model="tutor-32b", timeout_s=9.0))
    reply = backend.complete("what is up", 4)
    assert reply == "Answer: C"
    assert captured["url"] == "http://llm.internal/v1/chat/completions"
    assert captured["timeout"] == 9.0
    assert captured["auth"] == "Bearer sekrit"
    assert captured["payload"]["model"] == "tutor-32b"
    assert captured["payload"]["seed"] == 4


def test_decoding_is_greedy_with_256_tokens(monkeypatch):
    # mock draws and cache paths hash the decode key text
    assert backends.decode_key(7) == "t=0.0|n=256|s=7"
    assert backends.decode_key(None) == "t=0.0|n=256|s=None"
    sent = []

    def fake_urlopen(request, timeout):
        sent.append(request.data)
        return _FakeResponse(b'{"choices": [{"message": {"content": "Answer: A"}}]}')

    monkeypatch.setenv("PEERMATCH_API_TOKEN", "t")
    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    HttpBackend(LiveConfig(base_url="http://x", model="m")).complete("hi", 7)
    assert b'"temperature": 0.0, "max_tokens": 256, "seed": 7}' in sent[0]


def test_http_backend_missing_token(monkeypatch):
    monkeypatch.delenv("PEERMATCH_API_TOKEN", raising=False)
    backend = HttpBackend(LiveConfig(base_url="http://x", model="m"))
    with pytest.raises(TransportError, match="PEERMATCH_API_TOKEN"):
        backend.complete("hi", None)


def test_http_backend_network_failure(monkeypatch):
    monkeypatch.setenv("PEERMATCH_API_TOKEN", "t")

    def boom(request, timeout):
        raise urllib.error.URLError("connection refused")

    monkeypatch.setattr("urllib.request.urlopen", boom)
    backend = HttpBackend(LiveConfig(base_url="http://x", model="m"))
    with pytest.raises(TransportError, match="connection refused"):
        backend.complete("hi", None)


class _TruncatedResponse(_FakeResponse):
    def read(self, *args):
        raise http.client.IncompleteRead(b'{"choices": [', 120)


def _dropped_connection(request, timeout):
    raise http.client.RemoteDisconnected("Remote end closed connection without response")


@pytest.mark.parametrize(
    "urlopen",
    [
        _dropped_connection,
        lambda request, timeout: _TruncatedResponse(b""),
        lambda request, timeout: _FakeResponse(b'{"choices": "\xff\xfe"}'),
    ],
    ids=["remote-disconnected", "incomplete-read", "non-utf8-body"],
)
def test_http_backend_failures_past_the_send_are_transport_errors(monkeypatch, urlopen):
    monkeypatch.setenv("PEERMATCH_API_TOKEN", "t")
    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    backend = HttpBackend(LiveConfig(base_url="http://x", model="m"))
    with pytest.raises(TransportError, match="live backend call failed"):
        backend.complete("hi", None)


def test_http_backend_bad_payload(monkeypatch):
    monkeypatch.setenv("PEERMATCH_API_TOKEN", "t")
    backend = HttpBackend(LiveConfig(base_url="http://x", model="m"))
    for body in (b'{"unexpected": true}', b'{"choices": [{"message": {"content": null}}]}'):
        monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout, body=body: _FakeResponse(body))
        with pytest.raises(TransportError, match="unexpected completion payload"):
            backend.complete("hi", None)
