import pytest
from hypothesis import given
from hypothesis import strategies as st

from peermatch.personas import (
    Persona,
    PersonaError,
    default_cohort,
    enumerate_personas,
)


def test_make_persona_valid_corners():
    p = Persona(1, -1)
    assert (p.subject_pref, p.logic_pref) == (1, -1)
    q = Persona(0, 0)
    assert (q.subject_pref, q.logic_pref) == (0, 0)


def test_out_of_range_names_axis():
    with pytest.raises(PersonaError, match="subject_pref"):
        Persona(2, 0)
    with pytest.raises(PersonaError, match="logic_pref"):
        Persona(0, -3)


@given(st.integers(), st.integers())
def test_construction_accepts_exactly_ternary_values(s, g):
    valid = s in (-1, 0, 1) and g in (-1, 0, 1)
    if valid:
        Persona(s, g)
    else:
        with pytest.raises(PersonaError):
            Persona(s, g)


def test_enumerate_personas_grid():
    personas = enumerate_personas()
    assert len(personas) == 9
    assert personas[0] == Persona(-1, -1)
    assert len(set(personas)) == 9
    assert personas == sorted(personas)


def test_render_is_deterministic_and_injective(prompts):
    texts = {prompts.system(p) for p in enumerate_personas()}
    assert len(texts) == 9
    p = Persona(1, -1)
    assert prompts.system(p) == prompts.system(p)


def test_render_mentions_both_axes(prompts):
    text = prompts.system(Persona(1, -1))
    assert prompts.subject_phrase(1) in text
    assert prompts.logic_phrase(-1) in text
    neutral_axes = prompts.system(Persona(0, 0))
    assert prompts.subject_phrase(0) in neutral_axes
    assert prompts.logic_phrase(0) in neutral_axes


def test_descriptor_phrases_are_mutually_distinct(prompts):
    phrases = list(prompts.subject.values()) + list(prompts.logic.values())
    for a in phrases:
        for b in phrases:
            if a != b:
                assert a not in b


def test_default_cohort_ids_unique():
    cohort = default_cohort()
    assert len(cohort) == 9
    assert sorted(cohort) == [f"L{i}" for i in range(9)]

