import pytest
from hypothesis import given
from hypothesis import strategies as st

from peermatch.backends import MockBackend, TransportError
from peermatch.hashing import sha256_hex
from peermatch.protocol import (
    CallEvent,
    ProtocolError,
    ResponseRecord,
    _parse_choice,
    parse_choice,
    solve_exercise,
    exchange_and_resolve,
)
from peermatch.corpus import strip_options
from doubles import FunctionBackend, option_leaks

LABELS = ("A", "B", "C", "D")


def parse(reply: str) -> str | None:
    """``parse_choice`` over LABELS, checked to give one result when computed, memoised and given a list."""
    _parse_choice.cache_clear()
    first = parse_choice(reply, LABELS)
    assert parse_choice(reply, LABELS) == first
    assert parse_choice(reply, list(LABELS)) == first
    assert _parse_choice.cache_info().hits == 2
    return first


# marker words, labels in both cases, and the characters that bound a standalone label
REPLY_PIECES = st.sampled_from(["answer", "Option ", "CHOICE:", "选", " ", "\n", "A", "b", "C.", "(D)", "E", "x", "9"])


class TestParseChoice:
    def test_marker_then_label(self):
        assert parse("The answer is B") == "B"

    def test_bare_label_with_bracket(self):
        assert parse("B) because the slope flattens") == "B"

    def test_abstains_without_label(self):
        assert parse("both are plausible") is None

    def test_marker_with_lowercase_label(self):
        assert parse("my choice: c") == "C"

    def test_chinese_marker(self):
        assert parse("经过比较，选B最合理") == "B"

    def test_marker_beats_earlier_bare_label(self):
        assert parse("A first impression, but the answer is D") == "D"

    def test_label_embedded_in_word_is_ignored(self):
        assert parse("the ABCs of this are unclear") is None

    def test_empty_labels_rejected(self):
        for _ in range(3):  # a rejection is never memoised into a result
            with pytest.raises(ProtocolError):
                parse_choice("Answer: A", [])

    @given(st.text(max_size=80))
    def test_result_is_label_or_abstain(self, text):
        assert parse_choice(text, LABELS) in (None, *LABELS)

    @given(
        st.one_of(st.text(max_size=80), st.lists(REPLY_PIECES, max_size=12).map("".join)),
        st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5, unique=True),
    )
    def test_memoised_result_matches_the_uncached_parse(self, reply, labels):
        expected = _parse_choice.__wrapped__(reply, tuple(labels))
        for _ in range(2):
            assert parse_choice(reply, labels) == expected
            assert parse_choice(reply, tuple(labels)) == expected


def test_solve_scores_against_key(exercise, learner):
    assert exercise.key == "B"
    hit = solve_exercise(learner, exercise, FunctionBackend(lambda p, d: "Answer: B"))
    assert (hit.r, hit.choice) == (1, "B")
    miss = solve_exercise(learner, exercise, FunctionBackend(lambda p, d: "Answer: C"))
    assert (miss.r, miss.choice) == (0, "C")
    abstain = solve_exercise(learner, exercise, FunctionBackend(lambda p, d: "no idea, sorry"))
    assert (abstain.r, abstain.choice) == (0, None)


def test_solo_record_holds_its_one_call(exercise, learner):
    seen = []

    def capture(prompt, seed):
        seen.append(prompt)
        return "Answer: B"

    record = solve_exercise(learner, exercise, FunctionBackend(capture))
    assert record.partner_id is None
    assert [(c.step, c.actor_id, c.prompt, c.reply) for c in record.calls] == [(0, learner.id, seen[0], "Answer: B")]


def test_records_keep_their_fields_and_stay_read_only(exercise, learner):
    assert CallEvent._fields == ("step", "actor_id", "prompt", "reply")
    assert ResponseRecord._fields == ("learner_id", "partner_id", "exercise_id", "choice", "r", "calls")
    record = solve_exercise(learner, exercise, FunctionBackend(lambda p, d: "Answer: B"))
    (call,) = record.calls
    assert call.prompt_hash == sha256_hex(call.prompt)
    assert record == (learner.id, None, exercise.id, "B", 1, ((0, learner.id, call.prompt, "Answer: B"),))
    with pytest.raises(AttributeError):
        record.r = 0
    with pytest.raises(AttributeError):
        call.reply = "Answer: C"
    assert (record.r, call.reply) == (1, "Answer: B")


def test_solve_prompt_contains_system_stem_options(exercise, learner, prompts):
    seen = {}

    def capture(p, d):
        seen["prompt"] = p
        return "Answer: A"

    solve_exercise(learner, exercise, FunctionBackend(capture))
    prompt = seen["prompt"]
    assert prompts.system(learner.persona) in prompt
    assert exercise.stem in prompt
    for text in exercise.options:
        assert text in prompt


def test_solve_neutral_prompt_has_no_persona(exercise, learner, prompts):
    seen = {}

    def capture(p, d):
        seen["prompt"] = p
        return "Answer: A"

    solve_exercise(learner, exercise, FunctionBackend(capture), use_persona=False)
    for phrase in list(prompts.subject.values()) + list(prompts.logic.values()):
        assert phrase not in seen["prompt"]


def test_solve_requires_options(exercise, learner):
    with pytest.raises(ProtocolError, match="no options"):
        solve_exercise(learner, strip_options(exercise), FunctionBackend(lambda p, d: "Answer: A"))


def test_solve_deterministic_under_mock(exercise, learner):
    backend = MockBackend(seed=5)
    first = solve_exercise(learner, exercise, backend, seed=2)
    second = solve_exercise(learner, exercise, backend, seed=2)
    assert first == second


def test_exchange_transcript_shape(exercise, learner, partner):
    record = exchange_and_resolve(learner, partner, exercise, MockBackend(seed=0))
    assert (record.learner_id, record.partner_id) == (learner.id, partner.id)
    assert [(c.step, c.actor_id) for c in record.calls] == [
        (1, learner.id), (1, partner.id), (3, learner.id), (4, learner.id)
    ]


def test_sink_sees_all_calls(exercise, learner, partner):
    seen = []

    def logging(prompt, seed):
        seen.append(prompt)
        return f"reply {len(seen)}"

    record = exchange_and_resolve(learner, partner, exercise, FunctionBackend(logging))
    assert [(c.prompt, c.reply) for c in record.calls] == [(p, f"reply {i}") for i, p in enumerate(seen, 1)]
    assert [(c.step, c.actor_id) for c in record.calls] == [
        (1, learner.id), (1, partner.id), (3, learner.id), (4, learner.id)
    ]


def test_exchange_steps_1_to_3_are_option_free(exercise, learner, partner):
    record = exchange_and_resolve(learner, partner, exercise, MockBackend(seed=0))
    assert option_leaks(record, exercise) == []
    final_prompt = record.calls[-1].prompt
    for text in exercise.options:
        assert text in final_prompt


def test_exchange_scripted_step4_key(exercise, learner, partner, prompts):
    def script(prompt, seed):
        if prompts.options_header in prompt:
            return "Answer: B"
        return "some draft text"

    record = exchange_and_resolve(learner, partner, exercise, FunctionBackend(script))
    assert record.r == 1
    assert record.choice == "B"


def test_exchange_rejects_self_pairing(exercise, learner):
    with pytest.raises(ProtocolError, match="itself"):
        exchange_and_resolve(learner, learner, exercise, MockBackend(seed=0))


def test_transport_error_carries_step(exercise, learner, partner):
    calls = {"n": 0}

    def flaky(prompt, seed):
        calls["n"] += 1
        if calls["n"] == 3:  # the step-3 summary call
            raise TransportError("socket closed")
        return "draft"

    with pytest.raises(TransportError) as err:
        exchange_and_resolve(learner, partner, exercise, FunctionBackend(flaky))
    assert err.value.step == 3


def test_exchange_deterministic_under_mock(exercise, learner, partner):
    backend = MockBackend(seed=9)
    a = exchange_and_resolve(learner, partner, exercise, backend, seed=1)
    b = exchange_and_resolve(learner, partner, exercise, backend, seed=1)
    assert a == b
